"""Subgroup lattice enumeration against independent extension oracles."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from csection import lattice
from csection.catalog import build_group, builtin_battery
from csection.gf import _prime_power
from csection.groups import CapExceededError, PermGroup, coset_action, normalizer
from csection.iso import identify, reference_match
from csection.lattice import (_conjugates, all_subgroups, certify_maximal, maximal_subgroups,
                              minimal_normal_subgroups, normal_subgroups,
                              subgroup_count, subgroups_of_index)
from csection.perms import Permutation
from csection.series import is_nilpotent
from csection.tables import ElementTable, element_table

from gtools import (as_subgroup, element_tuples, elements_of, from_cycles, named, product,
                    quaternion, relabeled, small_groups)
from oracles import (NaiveTable, all_subgroups_naive, all_subgroups_powerset, element_order,
                     normal_subgroups_naive)


def _expand_class(et, indices):
    """All conjugates of a subgroup (by element indices), as image-tuple sets."""
    orbit = {indices}
    queue = [indices]
    while queue:
        s = queue.pop()
        for g in et.generator_indices:
            t = et.conj_set(s, g)
            if t not in orbit:
                orbit.add(t)
                queue.append(t)
    tuples = element_tuples(et)
    return {frozenset(tuples[i] for i in s) for s in orbit}


def _oracle_subgroup_sets(G):
    table = NaiveTable(elements_of(G))
    return {frozenset(table.elems[i] for i in s) for s in all_subgroups_naive(table)}


@pytest.mark.parametrize("name,params,count", [
    ("Sym", (3,), 6),
    ("Dihedral", (4,), 10),
    ("Alt", (4,), 10),
    ("Sym", (4,), 30),
])
def test_subgroup_counts(name, params, count):
    assert subgroup_count(named(name, *params)) == count


def test_a5_class_census():
    G = named("Alt", 5)
    classes = all_subgroups(G)
    assert len(classes) == 9
    assert sum(c.class_size for c in classes) == 59
    assert all(c.verified_complete for c in classes)
    orders = [c.order for c in classes]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == 60


@pytest.mark.parametrize("name,n,classes,subgroups", [
    ("Sym", 2, 2, 2), ("Sym", 3, 4, 6), ("Sym", 4, 11, 30), ("Sym", 5, 19, 156),
    ("Sym", 6, 56, 1_455),
    ("Alt", 4, 5, 10), ("Alt", 5, 9, 59), ("Alt", 6, 22, 501), ("Alt", 7, 40, 3_786),
], ids=["S2", "S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7"])
def test_lattice_counts_match_the_literature(name, n, classes, subgroups):
    """The number of conjugacy classes of subgroups of S_n (OEIS A000638)
    and of subgroups of S_n (OEIS A005432), and the known counts for A_n.
    S7 (96 classes, 11,300 subgroups) agrees too, but its walk takes longer
    than any test here."""
    G = named(name, n)
    assert (len(all_subgroups(G)), subgroup_count(G)) == (classes, subgroups)


@pytest.mark.parametrize("make", [
    lambda: named("Sym", 3),
    lambda: named("Dihedral", 4),
    lambda: named("Alt", 4),
    lambda: named("Cyclic", 12),
    quaternion,
    lambda: named("Sym", 4),
    lambda: named("Dihedral", 6),
    lambda: named("Alt", 5),
], ids=["S3", "D8", "A4", "C12", "Q8", "S4", "D12", "A5"])
def test_all_subgroups_match_extension_oracle(make):
    G = make()
    et = element_table(G)
    classes = all_subgroups(G)
    got = set()
    total = 0
    for c in classes:
        expanded = _expand_class(et, c.indices)
        assert len(expanded) == c.class_size
        assert all(len(s) == c.order for s in expanded)
        assert not (expanded & got), "classes must not overlap"
        got |= expanded
        total += len(expanded)
    assert total == subgroup_count(G)
    assert got == _oracle_subgroup_sets(G)


@pytest.mark.parametrize("make", [
    lambda: named("Sym", 3),
    lambda: named("Dihedral", 4),
    quaternion,
    lambda: named("Cyclic", 12),
    lambda: named("Alt", 4),
], ids=["S3", "D8", "Q8", "C12", "A4"])
def test_extension_oracle_agrees_with_powerset_filter(make):
    # oracle-on-oracle: the extension search must match raw subset filtering
    table = NaiveTable(elements_of(make()))
    assert all_subgroups_naive(table) == all_subgroups_powerset(table)


@pytest.mark.parametrize("make", [lambda: named("Sym", 4), lambda: named("Alt", 5)],
                         ids=["S4", "A5"])
def test_class_sizes_obey_orbit_stabilizer(make):
    G = make()
    et = element_table(G)
    for c in all_subgroups(G):
        assert c.class_size * c.normalizer_order() == G.order
        rep = PermGroup(G.degree, [et.permutation(i) for i in et.extract_generators(c.indices)])
        assert normalizer(G, rep).order == c.normalizer_order()


MAXIMAL_CASES = [
    ("Alt", (5,), [12, 10, 6], [5, 6, 10], ["A4", "D10", "D6"]),
    ("Sym", (4,), [12, 8, 6], [1, 3, 4], ["A4", "D8", "D6"]),
    ("Sym", (5,), [60, 24, 20, 12], [1, 5, 6, 10], ["A5", "S4", "G(20)", "D12"]),
    ("Cyclic", (6,), [3, 2], [1, 1], ["C3", "C2"]),
    ("PGL2", (7,), [168, 42, 16, 12], [1, 8, 21, 28], ["L2(7)", "G(42)", "D16", "D12"]),
    # Dickson's list for PSL(2,17): 17:8, two classes of S4, D18 and D16
    ("PSL2", (17,), [136, 24, 24, 18, 16], [18, 102, 102, 136, 153],
     ["G(136)", "S4", "S4", "D18", "D16"]),
]


@pytest.mark.parametrize("name,params,orders,sizes,group_ids", MAXIMAL_CASES,
                         ids=["A5", "S4", "S5", "C6", "PGL2_7", "PSL2_17"])
def test_maximal_subgroup_classes(name, params, orders, sizes, group_ids):
    G = named(name, *params)
    classes = maximal_subgroups(G)
    assert [c.order for c in classes] == orders
    assert [c.class_size for c in classes] == sizes
    assert [str(identify(as_subgroup(G, c))) for c in classes] == group_ids
    assert all(c.verified_complete for c in classes)
    et = element_table(G)
    for c in classes:
        gens = et.extract_generators(c.indices)
        assert certify_maximal(G, c.indices, gens, et)


def _oracle_maximal_classes(G):
    """(order, class size) of each class of inclusion-maximal proper subgroups."""
    table = NaiveTable(elements_of(G))
    proper = [s for s in all_subgroups_naive(table) if len(s) < table.n]
    maximal = {s for s in proper if not any(s < t for t in proper)}
    out = []
    while maximal:
        s = maximal.pop()
        orbit = {frozenset(table.conj(x, g) for x in s) for g in range(table.n)}
        maximal -= orbit
        out.append((len(s), len(orbit)))
    return sorted(out)


SMALL_BATTERY = builtin_battery(48)


@pytest.mark.parametrize("entry", SMALL_BATTERY, ids=[b.label for b in SMALL_BATTERY])
def test_maximal_classes_match_oracle(entry):
    G = build_group(entry.spec)
    got = sorted((c.order, c.class_size) for c in maximal_subgroups(G))
    assert got == _oracle_maximal_classes(G)


def test_class_representatives_match_their_indices():
    G = named("Sym", 4)
    et = element_table(G)
    for c in all_subgroups(G):
        rep = as_subgroup(G, c)
        assert isinstance(rep, PermGroup) and rep.degree == G.degree
        assert rep.order == len(c.indices) == c.order
        assert frozenset(et.index_of(Permutation(t)) for t in elements_of(rep)) == c.indices
        assert c.group is c.group and c.group.order == c.order


def test_certify_maximal_rejects_non_maximal():
    G = named("Sym", 4)
    et = element_table(G)
    # V4 sits under A4, so it cannot be maximal in S4.
    from csection.perms import Permutation
    a = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
    v4 = elements_of(PermGroup(4, [a, b]))
    subset = frozenset(et.index_of(Permutation(t)) for t in v4)
    assert not certify_maximal(G, subset, et.extract_generators(subset), et)
    # the whole group is never maximal in itself
    everything = frozenset(range(et.n))
    assert not certify_maximal(G, everything, list(et.generator_indices), et)
    # A4 is maximal
    a4 = elements_of(PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                                   Permutation.from_cycles(4, [(0, 1), (2, 3)])]))
    subset = frozenset(et.index_of(Permutation(t)) for t in a4)
    assert certify_maximal(G, subset, et.extract_generators(subset), et)


def test_subgroups_of_small_index():
    A5 = named("Alt", 5)
    for k in (2, 3, 4):
        assert subgroups_of_index(A5, k) == []
    point_stabs = subgroups_of_index(A5, 5)
    assert len(point_stabs) == 1
    assert point_stabs[0].order == 12 and point_stabs[0].class_size == 5

    A6 = named("Alt", 6)
    index6 = subgroups_of_index(A6, 6)
    assert [(c.order, c.class_size) for c in index6] == [(60, 6), (60, 6)]

    A4 = named("Alt", 4)
    index3 = subgroups_of_index(A4, 3)
    assert [(c.order, c.class_size) for c in index3] == [(4, 1)]

    S4 = named("Sym", 4)
    assert [(c.order, c.class_size) for c in subgroups_of_index(S4, 2)] == [(12, 1)]

    assert subgroups_of_index(A5, 7) == []  # not a divisor
    with pytest.raises(ValueError, match="positive"):
        subgroups_of_index(A5, 0)


NORMAL_CASES = [
    (lambda: named("Sym", 4), 4),
    (lambda: named("Alt", 5), 2),
    (lambda: named("Dihedral", 4), 6),
    (quaternion, 6),
    (lambda: named("Cyclic", 12), 6),
    (lambda: named("Alt", 4), 3),
    (lambda: named("Dihedral", 6), 7),
    (lambda: product("Sym", [3], "Cyclic", [2]), 7),
    (lambda: product("Sym", [3], "Sym", [3]), 10),
]


@pytest.mark.parametrize("make,count", NORMAL_CASES,
                         ids=["S4", "A5", "D8", "Q8", "C12", "A4", "D12", "S3xC2", "S3xS3"])
def test_normal_subgroups_match_oracle(make, count):
    G = make()
    normals = normal_subgroups(G)
    assert len(normals) == count
    got = {frozenset(elements_of(as_subgroup(G, N))) for N in normals}
    table = NaiveTable(elements_of(G))
    want = {frozenset(table.elems[i] for i in s) for s in normal_subgroups_naive(table)}
    assert got == want
    assert all(table.is_normal({table.index[t] for t in elements_of(as_subgroup(G, N))})
               for N in normals)


@pytest.mark.parametrize("make", [lambda: named("Sym", 4), lambda: named("PSL2", 7)],
                         ids=["S4", "PSL2_7"])
def test_normal_subgroups_are_records_of_class_size_one(make):
    G = make()
    normals = normal_subgroups(G)
    assert all(N.table is element_table(G) and N.class_size == 1 for N in normals)
    for N in normals:
        s = N.indices
        assert N.order == len(s)
        assert as_subgroup(G, N).order == len(s)
        assert G.order // as_subgroup(G, N).order == G.order // len(s)
        assert N.group.order == len(s)


def _normal_join_walk(G):
    """The normal-subgroup walk with no class closures: every normal subgroup
    s found is joined with every class representative outside it, and each
    join re-closes under conjugation by G's generators from scratch.  Lists
    each normal subgroup with its generators, in `normal_subgroups` order."""
    et = element_table(G)
    reps = [c[0] for c in et.conjugacy_classes()]
    trivial = frozenset([0])
    found = {trivial: []}
    queue = deque([trivial])
    while queue:
        s = queue.popleft()
        for rep in reps:
            if rep in s:
                continue
            gens = found[s] + [rep]
            current = et.closure(s, found[s], [rep])
            pending = [rep]
            while pending:
                y = pending.pop()
                for g in et.generator_indices:
                    z = et.conj(y, g)
                    if z not in current:
                        current = et.closure(current, gens, [z])
                        gens.append(z)
                        pending.append(z)
            if current not in found:
                found[current] = et.extract_generators(current)
                queue.append(current)
    return [(s, found[s]) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _check_normal_subgroups(G):
    """`normal_subgroups` against the naive oracle, and its list, order and
    generators against the join walk; returns the number found."""
    et = element_table(G)
    normals = normal_subgroups(G)
    got = [(N.indices, [et.index_of(g) for g in as_subgroup(G, N).generators])
           for N in normals]
    assert got == _normal_join_walk(G)
    table = NaiveTable(elements_of(G))
    want = {frozenset(table.elems[i] for i in s) for s in normal_subgroups_naive(table)}
    tuples = element_tuples(et)
    assert {frozenset(tuples[i] for i in s) for s, _gens in got} == want
    return len(normals)


def test_normal_subgroups_match_oracle_and_join_walk_on_battery(battery500):
    counts = {label: _check_normal_subgroups(G) for label, G in battery500 if G.order <= 64}
    assert (counts["D8xD8"], counts["E2^4"], counts["E3^3"]) == (91, 67, 28)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_normal_subgroups_match_oracle_and_join_walk_on_random_groups(G):
    assume(G.order <= 200)
    _check_normal_subgroups(G)


@pytest.mark.parametrize("name,q,closures", [("PSL2", 17, 18), ("PGL2", 11, 28)])
def test_normal_subgroups_close_each_rational_class_once(name, q, closures, monkeypatch):
    """PSL2(17) has 10 nontrivial classes in 6 rational classes, PGL2(11) 12
    in 9; closing every class took 27 and 36 closures."""
    G = named(name, q)
    element_table(G).conjugacy_classes()
    calls = []
    closure = ElementTable.closure
    monkeypatch.setattr(ElementTable, "closure",
                        lambda self, *a, **k: calls.append(1) or closure(self, *a, **k))
    assert len(normal_subgroups(G)) == (2 if name == "PSL2" else 3)
    assert len(calls) == closures


def test_minimal_normal_subgroups():
    cases = [
        (named("Sym", 4), [4]),
        (named("Cyclic", 12), [2, 3]),
        (named("Dihedral", 4), [2]),
        (product("Sym", [3], "Sym", [3]), [3, 3]),
        (named("Alt", 5), [60]),  # a simple group is its own single atom
    ]
    for G, orders in cases:
        atoms = minimal_normal_subgroups(G)
        assert sorted(N.order for N in atoms) == orders
        table = NaiveTable(elements_of(G))
        assert all(table.is_normal({table.index[t] for t in elements_of(as_subgroup(G, N))})
                   for N in atoms)


def _klein_four_classes(G):
    """The classes of Klein four-subgroups: order 4, every element of order <= 2."""
    et = element_table(G)
    return [c for c in all_subgroups(G)
            if c.order == 4 and all(et.element_order(i) <= 2 for i in c.indices)]


def test_klein_four_classes_s4():
    G = named("Sym", 4)
    classes = _klein_four_classes(G)
    assert [(c.class_size, c.normalizer_order()) for c in classes] == [(3, 8), (1, 24)]
    for c in classes:
        assert as_subgroup(G, c).order == 4
        orders = sorted(element_order(t) for t in elements_of(as_subgroup(G, c)))
        assert orders == [1, 2, 2, 2]


def test_klein_four_classes_psl2_7():
    K = named("PSL2", 7)
    classes = _klein_four_classes(K)
    assert len(classes) == 2
    assert all(c.normalizer_order() == 24 for c in classes)
    assert all(c.class_size == 7 for c in classes)


@pytest.mark.parametrize("p", [7, 17])
def test_klein_classes_fuse_in_pgl2(p):
    K = named("PSL2", p)
    G = named("PGL2", p)
    # the projective constructions share their point ordering, so K < G literally
    assert all(G.contains(g) for g in K.generators)
    ket = element_table(K)
    k_tuples = element_tuples(ket)
    reps = [frozenset(k_tuples[i] for i in c.indices) for c in _klein_four_classes(K)]
    assert len(reps) == 2

    def fused(H):
        """Whether one conjugation orbit in H holds both representatives."""
        et = element_table(H)
        first, second = (frozenset(et.index_of(Permutation(t)) for t in r) for r in reps)
        return second in _conjugates(et, first)[0]

    assert fused(G)
    # inside K itself the two classes stay apart
    assert not fused(K)


def test_lattice_caps():
    S8 = named("Sym", 8)  # 40320 elements, above the element cap
    for search in (all_subgroups, maximal_subgroups, lambda G: subgroups_of_index(G, 8),
                   normal_subgroups, minimal_normal_subgroups):
        with pytest.raises(CapExceededError):
            search(S8)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_pruned_walk_matches_oracles_on_random_groups(G):
    """Class census, maximal classes and every subgroups_of_index against the
    naive extension oracle and a direct maximality check on its subgroups."""
    assume(G.order <= 200)
    et = element_table(G)
    table = NaiveTable(elements_of(G))
    naive = {frozenset(table.elems[i] for i in s) for s in all_subgroups_naive(table)}
    whole = frozenset(table.elems)

    def expand(classes):
        out = set()
        for c in classes:
            conjugates = _expand_class(et, c.indices)
            assert len(conjugates) == c.class_size and not conjugates & out
            out |= conjugates
        return out

    assert expand(all_subgroups(G)) == naive
    maximal = {M for M in naive if M != whole and not any(M < H < whole for H in naive)}
    assert expand(maximal_subgroups(G)) == maximal
    for k in range(1, G.order + 1):
        if G.order % k == 0:
            assert expand(subgroups_of_index(G, k)) == \
                {H for H in naive if len(H) * k == G.order}, k


def _unpruned_walk(G):
    """The cyclic extension walk with no pruning beyond the representative's
    own orbits: every representative R is closed with one cyclic subgroup of
    each R-orbit, of any order.  Maps each canonical representative to its
    class size, generators and whether no extension grew it (for R < G)."""
    et = element_table(G)
    n = et.n
    cyclics = sorted({et.cyclic_subgroup(i) for i in range(1, n)}, key=lambda s: (len(s), sorted(s)))
    reps, seen, queue = {}, {}, deque()

    def register(s):
        if s in seen:
            return
        orbit = _expand_class(et, s)
        orbit = {frozenset(et.index_of(Permutation(t)) for t in conj) for conj in orbit}
        canonical = min(orbit, key=sorted)
        seen.update((t, canonical) for t in orbit)
        reps[canonical] = len(orbit)
        queue.append(canonical)

    for s in [frozenset([0])] + cyclics:
        register(s)
    register(frozenset(range(n)))
    grew = set()
    while queue:
        R = queue.popleft()
        if len(R) == n:
            continue
        gens = et.extract_generators(R)
        done = set()
        for C in cyclics:
            if C in done or C <= R:
                continue
            orbit, stack = {C}, [C]
            while stack:
                D = stack.pop()
                for g in gens:
                    E = et.conj_set(D, g)
                    if E not in orbit:
                        orbit.add(E)
                        stack.append(E)
            done |= orbit
            H = et.closure(R, gens, [next(x for x in C if et.element_order(x) == len(C))])
            if len(H) < n:
                grew.add(R)
                register(H)
    return {R: (size, et.extract_generators(R), len(R) < n and R not in grew)
            for R, size in reps.items()}


def test_pruned_walk_matches_the_unpruned_walk(battery500):
    """Prime-power candidates, normalizer orbits and prime-index marking leave
    the representatives, class sizes, generators and maximality flags as the
    unpruned walk finds them."""
    for label, G in battery500:
        got = {c.indices: (c.class_size, c.generator_indices, c.lattice_maximal)
               for c in all_subgroups(G)}
        assert got == _unpruned_walk(G), label


def test_enumeration_closure_count_pgl2_7(monkeypatch):
    """The pruned walk takes at most 450 closures on PGL2(7) (order 336); the
    walk over every cyclic subgroup up to R-conjugacy took 925."""
    classes = len(all_subgroups(named("PGL2", 7)))
    G = named("PGL2", 7)
    calls = []
    closure = ElementTable.closure
    monkeypatch.setattr(ElementTable, "closure",
                        lambda self, *a, **k: calls.append(1) or closure(self, *a, **k))
    ids, _registry, _grew = lattice._enumerate_classes(G)
    assert len(ids) == classes
    assert len(calls) <= 450


def _maximal_key(classes):
    return [(c.order, c.class_size, c.indices, c.generator_indices) for c in classes]


def _lattice_maximal(G):
    """The lattice-maximal classes of the whole lattice, in `maximal_subgroups` order."""
    classes = [c for c in all_subgroups(G) if c.lattice_maximal]
    return sorted(classes, key=lambda c: (-c.order, sorted(c.indices)))


def _abelian_minimal_normals(G):
    return [N for N in minimal_normal_subgroups(G) if _prime_power(N.order) is not None]


def test_maximal_subgroups_match_the_whole_lattice_on_battery(battery500):
    """Whichever path maximal_subgroups takes, the maximal classes are the
    whole lattice's lattice-maximal classes: orders, class sizes, canonical
    representatives and generators.  Every class returned carries both
    flags, and no cached normal subgroup record is marked.  Each group is
    rebuilt once, so that its maximal classes are found afresh, whatever the
    session fixture has cached."""
    paths = {"nilpotent": 0, "abelian N": 0, "nonabelian N": 0, "simple": 0}
    for label, G in battery500:
        first = PermGroup(G.degree, G.generators)
        found = maximal_subgroups(first)
        assert all(c.lattice_maximal and c.certified_maximal for c in found), label
        assert not any(N.certified_maximal for N in normal_subgroups(first)), label
        assert _maximal_key(found) == _maximal_key(_lattice_maximal(first)), label
        if is_nilpotent(G):
            paths["nilpotent"] += 1
        elif _abelian_minimal_normals(G):
            paths["abelian N"] += 1
        else:
            paths["simple" if minimal_normal_subgroups(G)[0].order == G.order
                  else "nonabelian N"] += 1
    assert paths == {"nilpotent": 27, "abelian N": 33, "nonabelian N": 3, "simple": 8}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_maximal_subgroups_match_the_whole_lattice_on_random_groups(G):
    assume(G.order <= 500)
    assert _maximal_key(maximal_subgroups(G)) == _maximal_key(_lattice_maximal(G))


def test_complements_match_brute_force(battery500):
    """Every complement of every abelian minimal normal subgroup, against the
    naive oracle's subgroups of order |G|/|N| that meet N in 1."""
    checked = 0
    for label, G in battery500:
        if G.order > 64:
            continue
        et = element_table(G)
        table = NaiveTable(elements_of(G))
        naive = [frozenset(table.elems[i] for i in s) for s in all_subgroups_naive(table)]
        tuples = element_tuples(et)
        for N in _abelian_minimal_normals(G):
            n_set = N.indices
            n_tuples = frozenset(tuples[i] for i in n_set)
            want = {U for U in naive if len(U) * len(n_set) == G.order and len(U & n_tuples) == 1}
            got = set()
            for c in lattice._complements(et, n_set):
                conjugates = _expand_class(et, c.indices)
                assert len(conjugates) == c.class_size and not conjugates & got, label
                assert c.generator_indices == et.extract_generators(c.indices)
                got |= conjugates
            assert got == want, label
            checked += 1
    assert checked == 115


@pytest.mark.parametrize("make,bound", [
    (lambda: product("Dihedral", [4], "Dihedral", [4]), 450),
    (lambda: product("Sym", [4], "Sym", [4]), 1_900),
    (lambda: named("PGL2", 7), 400),
], ids=["D8xD8", "S4xS4", "PGL2_7"])
def test_maximal_subgroups_closure_count(make, bound, monkeypatch):
    """maximal_subgroups, normal subgroups included, reads D8xD8's maximal
    classes off its normal subgroups of prime index in 380 closures (through
    its abelian minimal normal subgroup it took 1,843, and the whole lattice
    3,543); S4xS4's through its abelian minimal normal subgroup in 1,710
    (9,373); and PGL2(7)'s through PSL2(7)'s lattice in 319 (467)."""
    G = make()
    element_table(G)
    calls = []
    closure = ElementTable.closure
    monkeypatch.setattr(ElementTable, "closure",
                        lambda self, *a, **k: calls.append(1) or closure(self, *a, **k))
    maximal_subgroups(G)
    assert len(calls) <= bound


def _wreath_c3_c3():
    """C3 wr C3 (order 81): the base C3^3 on three blocks, permuted cyclically."""
    return from_cycles(9, [[[1, 2, 3]], [[1, 4, 7], [2, 5, 8], [3, 6, 9]]])


def _q8_x_c3():
    i, j = quaternion().generators
    return PermGroup(11, [Permutation(i.images + (8, 9, 10)),
                          Permutation(j.images + (8, 9, 10)),
                          Permutation(tuple(range(8)) + (9, 10, 8))])


@pytest.mark.parametrize("make,nilpotent", [
    (lambda: named("Sym", 5), False),
    (lambda: named("PGL2", 5), False),
    (lambda: named("Sym", 6), False),
    (lambda: named("PGL2", 7), False),
    (lambda: named("PGL2", 11), False),
    (lambda: named("PGL2", 13), False),
    (lambda: named("PGL2", 17), False),
    (_q8_x_c3, True),
    (lambda: product("Dihedral", [4], "Cyclic", [4]), True),
    (_wreath_c3_c3, True),
], ids=["S5", "PGL2_5", "S6", "PGL2_7", "PGL2_11", "PGL2_13", "PGL2_17",
        "Q8xC3", "D8xC4", "C3wrC3"])
def test_maximal_subgroups_off_the_normal_structure(make, nilpotent):
    """Nilpotent groups read their maximal classes off the normal subgroups of
    prime index; groups whose minimal normal subgroups are all nonabelian,
    through the first one's own lattice.  Neither walks G's whole lattice,
    and both find its lattice-maximal classes: orders, class sizes,
    canonical representatives and generators.  PGL2(19) agrees too, but its
    whole lattice takes seconds, so it is left out here."""
    G = make()
    assert is_nilpotent(G) is nilpotent
    if not nilpotent:
        assert not _abelian_minimal_normals(G)
    found = _maximal_key(maximal_subgroups(G))
    assert "all_subgroups" not in G._cache
    assert found == _maximal_key(_lattice_maximal(G))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relabeled())
def test_maximal_classes_survive_relabeling(pair):
    G, H = pair
    assume(G.order <= 500)
    assert H.order == G.order
    assert sorted((c.order, c.class_size) for c in maximal_subgroups(G)) == \
        sorted((c.order, c.class_size) for c in maximal_subgroups(H))


def _relabeled_copy(G, seed):
    """G with its points relabeled and its generators shuffled, seeded."""
    rng = random.Random(seed)
    images = list(range(G.degree))
    rng.shuffle(images)
    sigma = Permutation(images)
    gens = [g.conjugated_by(sigma) for g in G.generators]
    rng.shuffle(gens)
    return PermGroup(G.degree, gens)


def _record_key(c):
    return (c.order, c.indices, c.generator_indices, c.class_size, c.verified_complete,
            c.lattice_maximal)


CARRIED_CASES = [
    ("A5", lambda: named("Alt", 5)),
    ("L2_7", lambda: named("PSL2", 7)),
    ("A6", lambda: named("Alt", 6)),
    ("L2_8", lambda: named("PSL2", 8)),
    ("SL2_7", lambda: named("SL", 2, 7)),
    ("C2xL2_7", lambda: product("Cyclic", [2], "PSL2", [7])),
    ("PGL2_7", lambda: named("PGL2", 7)),
    ("S5", lambda: named("Sym", 5)),
    ("SL2_5", lambda: named("SL", 2, 5)),
]


@pytest.mark.parametrize("make", [m for _label, m in CARRIED_CASES],
                         ids=[label for label, _m in CARRIED_CASES])
def test_carried_lattices_give_the_walk_records(make, monkeypatch):
    """On relabeled copies of groups that reach a reference group, simple or
    through G/N or a nonabelian minimal normal N, maximal_subgroups gives,
    field for field, the records of G's own whole-lattice walk.  Each
    carried isomorphism is checked on every product of both tables."""
    G = _relabeled_copy(make(), 7)
    carried = []
    carry = lattice._carried_lattice

    def recording(H):
        found = carry(H)
        if found is not None:
            carried.append(H)
        return found

    monkeypatch.setattr(lattice, "_carried_lattice", recording)
    found = maximal_subgroups(G)
    walk = lattice._lattice_classes(G, *lattice._enumerate_classes(G))
    walk = sorted((c for c in walk if c.lattice_maximal),
                  key=lambda c: (-c.order, sorted(c.indices)))
    assert [_record_key(c) for c in found] == [_record_key(c) for c in walk]
    assert all(c.certified_maximal for c in found)
    assert carried
    for H in carried:
        match = reference_match(H)
        into = np.array(match.from_reference(element_table(H)))
        mul_t = element_table(match.group)._mul_table
        mul_h = element_table(H)._mul_table
        assert (into[mul_t] == mul_h[into[:, None], into[None, :]]).all()


def test_a_reference_order_with_another_fingerprint_walks():
    """S3 x S3 over its first minimal normal C3 has the quotient C2 x S3, of
    A4's order but not isomorphic to it: that quotient's lattice is walked,
    and the records are the walk's."""
    G = _relabeled_copy(product("Sym", [3], "Sym", [3]), 3)
    N = minimal_normal_subgroups(G)[0]
    quotient = coset_action(element_table(G), element_table(G).generator_indices, N.indices)
    assert quotient.order == 12 and identify(quotient) == identify(named("Dihedral", 6))
    assert reference_match(quotient) is None
    assert lattice._carried_lattice(quotient) is None
    walk = lattice._lattice_classes(G, *lattice._enumerate_classes(G))
    assert _maximal_key(maximal_subgroups(G)) == _maximal_key(
        sorted((c for c in walk if c.lattice_maximal), key=lambda c: (-c.order, sorted(c.indices))))
