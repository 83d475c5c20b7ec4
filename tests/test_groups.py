"""Stabilizer chains, subgroups, and the orbit machinery, cross-checked
against word-BFS closures and full-scan oracles."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from csection import groups
from csection.catalog import build_group, parse_group_spec
from csection.gf import field_of_order
from csection.groups import (CapExceededError, DegreeMismatchError, NotASubgroupError,
                             NotNormalError, PermGroup, coset_action, normalizer,
                             trivial_group)
from csection.lattice import _as_class
from csection.matgroups import psl_group, sl_group, triangular_instance
from csection.perms import Permutation
from csection.tables import element_table
from gtools import elements_of, named, product, quaternion
from oracles import NaiveTable, centralizer_naive, coset_table_naive, generated, normalizer_naive


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


ORDER_CASES = [
    ("Sym", (3,), 6), ("Sym", (4,), 24), ("Alt", (4,), 12), ("Alt", (5,), 60),
    ("Dihedral", (4,), 8), ("Cyclic", (12,), 12), ("SL", (2, 3), 24),
    ("PGL2", (7,), 336), ("PSL2", (7,), 168),
]


@pytest.mark.parametrize("name,params,order", ORDER_CASES)
def test_bsgs_order_matches_word_closure(name, params, order):
    G = named(name, *params)
    assert G.order == order
    spanned = generated(G.degree, [g.images for g in G.generators])
    assert len(spanned) == order
    assert frozenset(elements_of(G)) == spanned


def test_quaternion_order():
    Q = quaternion()
    assert Q.order == 8
    assert len(generated(8, [g.images for g in Q.generators])) == 8


def test_elements_are_distinct_and_contained():
    G = named("Sym", 4)
    els = [Permutation(t) for t in elements_of(G)]
    assert len(els) == 24 and len(set(els)) == 24
    assert all(G.contains(g) for g in els)
    assert all(g in G for g in els)


def _level_digest(level):
    """A level's transversal images, by point, and the generators that first
    appear at it, as a short sha256."""
    data = (sorted(level.transversal.items()), list(level.gens))
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


# Base and per-level digests of deterministic chains; a change that builds the
# chain another way must reproduce them.
PINNED_CHAINS = {
    "S4_relabeled": ((2, 4, 5), ["615170393fd36523", "a702b6365120fbd0", "d9ea7fe3230c4389"]),
    "PSL2_17": ((1, 0, 2), ["0c02eb6af0e3e67f", "8dbf2ba1d913a95d", "b2bad5713741e6b8"]),
    "SL34_vectors": ((15, 3, 0), ["7306c19dda55315b", "6a90d812f8ba6d9f", "650d7325d981c47c"]),
    "SL34_points": ((5, 1, 0, 2), ["3c6d00a52db7d78d", "c918422e7b7d605f",
                                   "7b139acb043ebcff", "ceea0575721c79a2"]),
}
CHAIN_GROUPS = {
    "S4_relabeled": lambda: build_group(parse_group_spec(
        '{"kind":"perm","degree":8,"generators":[[[3,5,6,8]],[[3,5]]]}')),
    "PSL2_17": lambda: named("PSL2", 17),
    "SL34_vectors": lambda: sl_group(3, field_of_order(4)),
    "SL34_points": lambda: psl_group(3, field_of_order(4)),
}


@pytest.mark.parametrize("label", sorted(PINNED_CHAINS))
def test_stabilizer_chain_is_pinned(label):
    G = CHAIN_GROUPS[label]()
    assert (G.base, [_level_digest(lv) for lv in G._levels]) == \
        (PINNED_CHAINS[label][0], PINNED_CHAINS[label][1])


def test_contains_negative():
    A4 = named("Alt", 4)
    assert not A4.contains(perm(4, (0, 1)))
    # degree mismatch is simply non-membership
    assert not A4.contains(perm(5, (0, 1, 2)))


def test_membership_of_random_words():
    G = named("PSL2", 7)
    rng = random.Random(2)
    gens = G.generators
    for _ in range(40):
        w = G.identity()
        for _ in range(rng.randrange(1, 12)):
            w = w * gens[rng.randrange(len(gens))]
        assert G.contains(w)


def test_orbits():
    """A point's images under every element, one column of
    `element_images`, are its orbit."""
    G = named("Alt", 4)
    assert sorted(set(G.element_images()[:, 0].tolist())) == [0, 1, 2, 3]
    images = product("Cyclic", (2,), "Alt", (5,)).element_images()
    assert [sorted(set(images[:, p].tolist())) for p in (1, 6)] == [[0, 1], [2, 3, 4, 5, 6]]


def test_constructor_errors():
    with pytest.raises(DegreeMismatchError):
        PermGroup(4, [perm(5, (0, 1))])
    with pytest.raises(TypeError):
        PermGroup(4, [(0, 1, 2, 3)])
    assert PermGroup(3, []).order == 1
    assert trivial_group(6).order == 1


def test_a_callers_subgroup_is_checked_where_it_is_read():
    """A caller's subgroup is a PermGroup on G's points.  `_as_class` reads
    it off G's table and `normalizer` sifts it through G's chain; both
    refuse a generator outside G or of another degree."""
    S4, A4 = named("Sym", 4), named("Alt", 4)
    H = PermGroup(4, [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])
    c = _as_class(S4, H)
    assert c.order == 12 and c.class_size == 1 and S4.order // c.order == 2
    assert element_table(S4).index_of(perm(4, (0, 1), (2, 3))) in c.indices
    for bad in (PermGroup(4, [perm(4, (0, 1))]), PermGroup(5, [perm(5, (0, 1, 2))])):
        with pytest.raises(NotASubgroupError):
            _as_class(A4, bad)
        with pytest.raises(NotASubgroupError):
            normalizer(A4, bad)
    with pytest.raises(NotASubgroupError):
        _as_class(S4, PermGroup(5, [perm(5, (0, 1))]))
    # an order that disagrees with the closure is a program error, not bad input
    fake = SimpleNamespace(generators=H.generators, order=6)
    with pytest.raises(RuntimeError, match="closure"):
        _as_class(S4, fake)


def test_normalizer_subgroup_cap(monkeypatch):
    S4 = named("Sym", 4)
    V = PermGroup(4, [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))])
    monkeypatch.setattr(groups, "_NORMALIZER_SUBGROUP_CAP", 3)
    with pytest.raises(CapExceededError):
        normalizer(S4, V)
    monkeypatch.setattr(groups, "_NORMALIZER_SUBGROUP_CAP", 4)
    assert normalizer(S4, V).order == 24


def _compare_with_scan(G, gens):
    H = PermGroup(G.degree, gens)
    table = NaiveTable(elements_of(G))
    hidx = {table.index[t] for t in elements_of(H)}
    got = normalizer(G, H)
    want = normalizer_naive(table, hidx)
    assert {table.index[t] for t in elements_of(got)} == want
    return got


def test_normalizer_against_oracle():
    S4 = named("Sym", 4)
    got = _compare_with_scan(S4, [perm(4, (0, 1, 2, 3))])
    assert got.order == 8
    _compare_with_scan(S4, [perm(4, (0, 1, 2))])
    A5 = named("Alt", 5)
    syl5 = PermGroup(5, [perm(5, (0, 1, 2, 3, 4))])
    assert normalizer(A5, syl5).order == 10
    V = PermGroup(5, [perm(5, (0, 1), (2, 3)), perm(5, (0, 2), (1, 3))])
    assert normalizer(A5, V).order == 12


def _klein_in_a5():
    A5 = named("Alt", 5)
    return A5, [perm(5, (0, 1), (2, 3)), perm(5, (0, 2), (1, 3))]


def _sylow_of_sl2(q, side):
    ti = triangular_instance(2, field_of_order(q))
    if side == "vec":
        return ti.vec_group, list(ti.vec_sylow.generators)
    return ti.proj_group, list(ti.proj_sylow.generators)


NORMALIZER_CASES = {
    "trivial_in_S4": lambda: (named("Sym", 4), []),
    "S4_in_S4": lambda: (named("Sym", 4), list(named("Sym", 4).generators)),
    "klein_in_A5": _klein_in_a5,
    "point_stabilizer_in_S4": lambda: (named("Sym", 4), [perm(4, (0, 1)), perm(4, (0, 1, 2))]),
    "sylow_SL2_4_vec": lambda: _sylow_of_sl2(4, "vec"),
    "sylow_SL2_4_proj": lambda: _sylow_of_sl2(4, "proj"),
    "sylow_SL2_8_vec": lambda: _sylow_of_sl2(8, "vec"),
    "sylow_SL2_8_proj": lambda: _sylow_of_sl2(8, "proj"),
}


@pytest.mark.parametrize("case", list(NORMALIZER_CASES))
def test_normalizer_matches_the_scan(case):
    _compare_with_scan(*NORMALIZER_CASES[case]())


def test_normalizer_orbit_cap(monkeypatch):
    A5, gens = _klein_in_a5()
    V = PermGroup(5, gens)  # five conjugates
    monkeypatch.setattr(groups, "_NORMALIZER_ORBIT_CAP", 4)
    with pytest.raises(CapExceededError):
        normalizer(A5, V)
    monkeypatch.setattr(groups, "_NORMALIZER_ORBIT_CAP", 5)
    assert normalizer(A5, V).order == 12


def _quotient(G, N):
    """G/N through `coset_action` on G's element table; N is a subgroup on
    G's points."""
    et = element_table(G)
    return coset_action(et, et.generator_indices,
                        frozenset(et.index_of(Permutation(t)) for t in elements_of(N)))


def test_coset_action_faithful():
    # modulo the trivial subgroup, the action is the regular representation
    S4 = named("Sym", 4)
    image = _quotient(S4, PermGroup(4, []))
    assert image.degree == 24
    assert image.order == 24  # the kernel is trivial


def test_coset_action_sign_map():
    S4 = named("Sym", 4)
    A4 = PermGroup(4, [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])
    image = _quotient(S4, A4)
    assert image.degree == 2
    assert image.order == 2
    assert S4.order // image.order == 12  # the kernel is A4


def _center(G):
    """The center of G, read off the oracle's multiplication table."""
    table = NaiveTable(elements_of(G))
    zidx = centralizer_naive(table, range(table.n))
    return PermGroup(G.degree, [Permutation(table.elems[i]) for i in sorted(zidx)])


def test_quotients():
    S4 = named("Sym", 4)
    V = PermGroup(4, [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))])
    Q = _quotient(S4, V)
    assert Q.order == 6 and not Q.is_abelian()
    SL23 = named("SL", 2, 3)
    assert _quotient(SL23, _center(SL23)).order == 12
    Q8 = quaternion()
    over_center = _quotient(Q8, _center(Q8))
    assert over_center.order == 4 and over_center.is_abelian()
    with pytest.raises(NotNormalError):
        _quotient(S4, PermGroup(4, [perm(4, (0, 1))]))


def test_coset_action_numbers_cosets_by_least_member():
    """The quotient's Cayley table is the oracle's coset multiplication, with
    the cosets numbered by their least members, and its generators are the
    cosets of G's generators outside N."""
    S4, SL23, SL25, Q8 = named("Sym", 4), named("SL", 2, 3), named("SL", 2, 5), quaternion()
    cases = [(S4, PermGroup(4, [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))])),
             (S4, PermGroup(4, [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])),
             (SL23, _center(SL23)), (SL25, _center(SL25)), (Q8, _center(Q8))]
    for G, N in cases:
        quotient = element_table(_quotient(G, N))
        et, table = element_table(G), NaiveTable(elements_of(G))
        want, where = coset_table_naive(table, range(table.n),
                                        [table.index[t] for t in elements_of(N)])
        assert quotient._mul_table.tolist() == want
        cosets = [where[table.index[et.permutation(g).images]] for g in et.generator_indices]
        assert quotient.generator_indices == [c for c in cosets if c]
