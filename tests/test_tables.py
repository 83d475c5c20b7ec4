"""Element tables: the Cayley table and closures against independent oracles."""

import random

import pytest

from csection.catalog import build_group, parse_group_spec
from csection.groups import CapExceededError, NotASubgroupError, PermGroup
from csection.lattice import all_subgroups, normal_subgroups
from csection.perms import Permutation
from csection.tables import ElementTable, TableGroup, element_table

from gtools import element_tuples, elements_of, from_cycles, named, product
from oracles import NaiveTable, all_subgroups_naive, compose, element_order, generated, invert

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
    to_oracle = [oracle.index[t] for t in element_tuples(et)]
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
    tuples = element_tuples(et)
    index = {t: i for i, t in enumerate(tuples)}
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


@pytest.mark.parametrize("make", [
    lambda: named("SL", 2, 17),
    lambda: PermGroup(1, []),
    lambda: PermGroup(3, []),
], ids=["SL2_17_on_vectors", "trivial_degree_1", "trivial_degree_3"])
def test_an_elements_index_is_the_rank_of_its_image_tuple(make):
    G = make()
    et = ElementTable(G)
    want = sorted(generated(G.degree, [g.images for g in G.generators]))
    assert len(want) == G.order
    assert element_tuples(et) == want
    assert [et.index_of(Permutation(t)) for t in want] == list(range(len(want)))
    assert et.generator_indices == [want.index(g.images) for g in G.generators]


def test_index_of_refuses_a_non_element():
    A4 = named("Alt", 4)
    et = element_table(A4)
    with pytest.raises(NotASubgroupError):
        et.index_of(Permutation.from_cycles(4, [(0, 1)]))
    with pytest.raises(NotASubgroupError):
        et.index_of(Permutation.from_cycles(5, [(0, 1, 2)]))
    # An element is found by its base images; an odd permutation that agrees
    # with an element there is still refused, as its whole row differs.
    x = et.permutation(1)
    rest = [pt for pt in range(4) if pt not in A4.base]
    images = list(x.images)
    images[rest[0]], images[rest[1]] = images[rest[1]], images[rest[0]]
    odd = Permutation(images)
    assert all(odd.images[b] == x.images[b] for b in A4.base)
    with pytest.raises(NotASubgroupError):
        et.index_of(odd)
    # a table group's element i is column i of its table
    v4 = next(N.group for N in normal_subgroups(named("Sym", 4)) if N.order == 4)
    assert isinstance(v4, TableGroup)
    tet = element_table(v4)
    assert [tet.index_of(tet.permutation(i)) for i in range(tet.n)] == [0, 1, 2, 3]
    with pytest.raises(NotASubgroupError):
        tet.index_of(Permutation.from_cycles(4, [(1, 2)]))
    with pytest.raises(NotASubgroupError):
        tet.index_of(Permutation.from_cycles(5, [(0, 1)]))


def test_a_repeated_element_row_raises():
    G = named("Sym", 4)
    level = G._levels[0]
    first, second = sorted(level.transversal)[:2]
    level.transversal[second] = level.transversal[first]  # the order is unchanged
    with pytest.raises(RuntimeError, match="element enumeration disagrees with the group order"):
        ElementTable(G)


def test_generator_leaving_the_elements_raises():
    et = ElementTable(from_cycles(4, [[[1, 2, 3, 4]]]))  # C4
    g = et.generator_indices[0]
    et.images[g] = (1, 0, 2, 3)  # a transposition: its products leave C4
    with pytest.raises(RuntimeError, match="outside the group's elements"):
        et._build_table()


@pytest.mark.parametrize("name,order", [("PSL2", 2448), ("PGL2", 4896)])
def test_mul_spot_check_against_tuple_composition(name, order):
    et = element_table(named(name, 17))
    assert et.n == order
    assert et._mul_table is not None
    tuples = element_tuples(et)
    rng = random.Random(17)
    for _ in range(10_000):
        i, j = rng.randrange(et.n), rng.randrange(et.n)
        assert tuples[et.mul(i, j)] == compose(tuples[i], tuples[j])
    pairs = [(rng.randrange(et.n), rng.randrange(et.n)) for _ in range(2_000)]
    for x, g in pairs:
        t = tuples[g]
        assert tuples[et.conj(x, g)] == compose(compose(invert(t), tuples[x]), t)
    xs = [x for x, _g in pairs]
    for _x, g in pairs[:10]:
        t = tuples[g]
        want = {et.index_of(Permutation(compose(compose(invert(t), tuples[x]), t))) for x in xs}
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
    to_oracle = [oracle.index[t] for t in element_tuples(et)]
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
    to_et = [et.index_of(Permutation(t)) for t in oracle.elems]
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
    monkeypatch.setattr(PermGroup, "element_images", no_elements)
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
            [element_order(t) for t in element_tuples(et)], label


def test_element_orders_without_a_table():
    """PGL2(17), 4896 elements, once above the table bound: it is tabled now
    and every order read off its table matches tuple composition."""
    et = element_table(named("PGL2", 17))
    assert et._mul_table is not None
    assert [et.element_order(i) for i in range(et.n)] == \
        [element_order(t) for t in element_tuples(et)]
