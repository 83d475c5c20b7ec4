"""Permutation primitives checked against hand-rolled tuple arithmetic."""

import random

import pytest

from csection.perms import Permutation, parse_cycle_lists
from oracles import compose, element_order, invert


def _random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def test_composition_is_left_to_right():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    # x goes through p first, then q
    assert (p * q)(0) == 2
    assert (p * q).images == (2, 0, 1)
    assert (q * p).images == (1, 2, 0)


@pytest.mark.parametrize("degree", [1, 2, 7, 48])
def test_mul_matches_oracle(degree):
    rng = random.Random(11)
    for _ in range(60):
        a = _random_perm(rng, degree)
        b = _random_perm(rng, degree)
        product = a * b
        assert type(product.images) is tuple
        assert product.images == compose(a.images, b.images)


@pytest.mark.parametrize("images,expected", [
    ((0,), True),
    ((0, 1), True),
    (tuple(range(48)), True),
    ((1, 0), False),
    (tuple(range(46)) + (47, 46), False),  # moves only its last two points
])
def test_is_identity(images, expected):
    assert Permutation(images).is_identity() is expected


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    with pytest.raises(ValueError):
        Permutation((1, -1, 0))


def test_identity():
    e = Permutation.identity(4)
    assert e.images == (0, 1, 2, 3)
    assert e.is_identity()
    assert e.order() == 1
    assert e.cycle_string() == "()"
    with pytest.raises(ValueError):
        Permutation.identity(0)


def test_from_cycles_both_bases():
    p0 = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    p1 = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)], base=1)
    assert p0 == p1
    assert p0.cycle_string() == "(1 2 3)(4 5)"


def test_from_cycles_errors():
    with pytest.raises(ValueError, match="out of range"):
        Permutation.from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError, match="repeated"):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])


def test_cycle_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        p = _random_perm(rng, 9)
        assert Permutation.from_cycles(9, p.cycles()) == p
        lists = p.cycle_lists(base=1)
        assert Permutation.from_cycles(9, lists, base=1) == p


def test_cycles_are_canonical():
    p = Permutation((1, 2, 0, 4, 3))
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.cycle_lists(base=1) == [[1, 2, 3], [4, 5]]


def test_inverse_and_pow():
    rng = random.Random(7)
    for _ in range(30):
        p = _random_perm(rng, 8)
        assert (p * p.inverse()).is_identity()
        assert p.inverse().images == invert(p.images)
        assert (p ** 0).is_identity()
        assert p ** -1 == p.inverse()
        acc = Permutation.identity(8)
        for k in range(5):
            assert p ** k == acc
            acc = acc * p
        assert p ** -3 == (p ** 3).inverse()


def test_order_matches_oracle():
    rng = random.Random(3)
    for _ in range(40):
        p = _random_perm(rng, 10)
        assert p.order() == element_order(p.images)


def test_conjugation():
    rng = random.Random(9)
    for _ in range(30):
        p = _random_perm(rng, 6)
        g = _random_perm(rng, 6)
        assert p.conjugated_by(g) == g.inverse() * p * g
        # conjugation preserves cycle type
        assert sorted(len(c) for c in p.conjugated_by(g).cycles()) == \
            sorted(len(c) for c in p.cycles())


def test_moved_points_and_call():
    p = Permutation.from_cycles(6, [(1, 4)])
    assert [i for i in range(6) if p(i) != i] == [1, 4]
    assert p(1) == 4 and p(0) == 0


def test_ordering_and_hash():
    a = Permutation((0, 1, 2))
    b = Permutation((1, 0, 2))
    assert a < b
    assert len({a, b, Permutation((0, 1, 2))}) == 2


def test_parse_cycle_lists():
    gens = parse_cycle_lists(4, [[[1, 2]], [[1, 2, 3, 4]]])
    assert [g.cycle_string() for g in gens] == ["(1 2)", "(1 2 3 4)"]
