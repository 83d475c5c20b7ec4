"""Element tables: the Cayley table and closures against independent oracles."""

import random

import pytest

from csection.catalog import build_group, parse_group_spec
from csection.groups import CapExceededError, PermGroup
from csection.lattice import all_subgroups
from csection.tables import ElementTable, element_table

from gtools import elements_of, from_cycles, named, product
from oracles import NaiveTable, all_subgroups_naive, compose, element_order, invert

# S4 on the points 3, 5, 6, 8 of eight; its base avoids the first points.
RELABELED_S4 = '{"kind":"perm","degree":8,"generators":[[[3,5,6,8]],[[3,5]]]}'


def test_table_cases_cover_empty_and_offset_bases():
    assert PermGroup(3, []).base == ()
    base = build_group(parse_group_spec(RELABELED_S4)).base
    assert base != tuple(range(len(base)))


@pytest.mark.parametrize("make", [
    lambda: PermGroup(3, []),
    lambda: named("Cyclic", 12),
    lambda: named("Sym", 4),
    lambda: build_group(parse_group_spec(RELABELED_S4)),
    lambda: product("Sym", [3], "Cyclic", [2]),
    lambda: named("PSL2", 7),
], ids=["trivial", "C12", "S4", "S4_relabeled", "S3xC2", "PSL2_7"])
def test_cayley_table_matches_oracle(make):
    G = make()
    et = ElementTable(G)
    assert et._mul_table is not None
    oracle = NaiveTable(elements_of(G))
    to_oracle = [oracle.index[t] for t in et.tuples]
    got = [[to_oracle[et.mul(i, j)] for j in range(et.n)] for i in range(et.n)]
    want = [[oracle.mul[to_oracle[i]][to_oracle[j]] for j in range(et.n)] for i in range(et.n)]
    assert got == want


def _redundant_generators():
    """S5 from a 5-cycle a and a transposition b, listed as a, b, a, a*b."""
    a, b = from_cycles(5, [[[1, 2, 3, 4, 5]], [[1, 2]]]).generators
    return PermGroup(5, [a, b, a, a * b])


TABLED = [
    lambda: named("Cyclic", 30),
    lambda: named("Cyclic", 64),
    _redundant_generators,
    lambda: named("PSL2", 13),
]
TABLED_IDS = ["C30", "C64", "S5_redundant_gens", "PSL2_13"]


@pytest.mark.parametrize("make", TABLED, ids=TABLED_IDS)
def test_whole_table_is_tuple_composition(make):
    G = make()
    et = ElementTable(G)
    assert et.n == G.order
    tuples, index = et.tuples, et.index
    for i in range(et.n):
        assert list(et.rows[i]) == [index[compose(tuples[i], t)] for t in tuples]


@pytest.mark.parametrize("make", TABLED + [lambda: named("PGL2", 17)],
                         ids=TABLED_IDS + ["PGL2_17"])
def test_inverse_times_element_is_the_identity(make):
    et = ElementTable(make())
    assert et._mul_table is not None
    assert all(et.rows[i][et.inverse[i]] == 0 for i in range(et.n))


def test_generators_of_a_proper_subgroup_raise():
    et = ElementTable(named("Sym", 4))
    four_cycle = next(i for i in range(et.n) if et.element_order(i) == 4)
    et.generator_indices = [four_cycle]  # generates C4, not S4
    with pytest.raises(RuntimeError, match="do not reach"):
        et._build_table()


def test_generator_leaving_the_elements_raises():
    et = ElementTable(from_cycles(4, [[[1, 2, 3, 4]]]))  # C4
    g = et.generator_indices[0]
    et.tuples[g] = (1, 0, 2, 3)  # a transposition: its products leave C4
    with pytest.raises(RuntimeError, match="outside the group's elements"):
        et._build_table()


@pytest.mark.parametrize("name,order", [("PSL2", 2448), ("PGL2", 4896)])
def test_mul_spot_check_against_tuple_composition(name, order):
    et = element_table(named(name, 17))
    assert et.n == order
    assert et._mul_table is not None
    rng = random.Random(17)
    for _ in range(10_000):
        i, j = rng.randrange(et.n), rng.randrange(et.n)
        assert et.tuples[et.mul(i, j)] == compose(et.tuples[i], et.tuples[j])
    pairs = [(rng.randrange(et.n), rng.randrange(et.n)) for _ in range(2_000)]
    for x, g in pairs:
        t = et.tuples[g]
        assert et.tuples[et.conj(x, g)] == compose(compose(invert(t), et.tuples[x]), t)
    xs = [x for x, _g in pairs]
    for _x, g in pairs[:10]:
        t = et.tuples[g]
        want = {et.index[compose(compose(invert(t), et.tuples[x]), t)] for x in xs}
        assert et.conj_set(xs, g) == want


@pytest.mark.parametrize("make", [
    lambda: named("Sym", 4),
    lambda: named("Alt", 5),
    lambda: named("PSL2", 7),
], ids=["S4", "A5", "PSL2_7"])
def test_closure_of_the_generators_is_the_whole_group(make):
    et = element_table(make())
    gens = et.generator_indices
    everything = frozenset(range(et.n))
    assert et.closure(None, [], gens) == everything
    first = et.cyclic_subgroup(gens[0])
    assert et.closure(first, gens[:1], gens[1:]) == everything
    assert et.closure(first, gens[:1], gens[1:], abort_above=et.n - 1) is None


def test_closure_aborts_exactly_above_the_bound():
    G = named("Sym", 4)
    et = element_table(G)
    oracle = NaiveTable(elements_of(G))
    to_oracle = [oracle.index[t] for t in et.tuples]
    for x in range(1, et.n):
        for y in range(x, et.n):
            size = len(oracle.span({to_oracle[x], to_oracle[y]}))
            assert et.closure(None, [], [x, y], abort_above=size - 1) is None
            grown = et.closure(None, [], [x, y], abort_above=size)
            assert grown is not None and len(grown) == size
    # a bound below the starting subgroup aborts before the walk begins
    assert et.closure(None, [], [0], abort_above=0) is None
    assert et.closure(None, [], [0], abort_above=1) == frozenset([0])
    four = next(i for i in range(et.n) if et.element_order(i) == 4)
    c4 = et.cyclic_subgroup(four)
    assert et.closure(c4, [four], [], abort_above=3) is None


def test_closure_over_every_subgroup_matches_oracle():
    G = named("Sym", 4)
    et = ElementTable(G)
    oracle = NaiveTable(elements_of(G))
    to_et = [et.index[t] for t in oracle.elems]
    for H in all_subgroups_naive(oracle):
        base = frozenset(to_et[h] for h in H)
        gens = et.extract_generators(base)
        for x in range(oracle.n):
            want = frozenset(to_et[y] for y in oracle.span(H | {x}))
            assert et.closure(base, gens, [to_et[x]]) == want
            assert et.closure(base, gens, [to_et[x]], abort_above=len(want)) == want
            assert et.closure(base, gens, [to_et[x]], abort_above=len(want) - 1) is None


def test_element_cap_holds_on_a_memo_hit(monkeypatch):
    S8 = named("Sym", 8)  # 40320 elements
    stale = element_table(named("Sym", 4))

    def no_elements(self):
        raise AssertionError("elements enumerated for a group above the cap")

    # the cap is checked before a single element is enumerated
    monkeypatch.setattr(PermGroup, "elements", no_elements)
    with pytest.raises(CapExceededError, match="group order 40320 exceeds element cap 10000"):
        ElementTable(S8)
    with pytest.raises(CapExceededError, match="exceeds element cap 10000"):
        element_table(S8)
    with pytest.raises(CapExceededError, match="exceeds element cap 10000"):
        element_table(S8)  # the refusal memoized nothing
    # a stale memo, a table of another group, does not let S8 through
    S8._cache["element_table"] = stale
    with pytest.raises(CapExceededError, match="exceeds element cap 10000"):
        element_table(S8)
    with pytest.raises(CapExceededError):
        all_subgroups(S8)


def test_element_orders_match_oracle(battery500):
    """Orders read off the Cayley table, x^(k+1) = x^k * x a gather at a time."""
    for label, G in battery500:
        et = element_table(G)
        assert et._mul_table is not None, label
        assert [et.element_order(i) for i in range(et.n)] == \
            [element_order(t) for t in et.tuples], label


def test_element_orders_without_a_table():
    """PGL2(17), 4896 elements, once above the table bound: it is tabled now
    and every order read off its table matches tuple composition."""
    et = element_table(named("PGL2", 17))
    assert et._mul_table is not None
    assert [et.element_order(i) for i in range(et.n)] == \
        [element_order(t) for t in et.tuples]
