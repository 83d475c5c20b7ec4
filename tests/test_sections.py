"""Sections of maximal subgroups and the verdict machinery on top of them."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from csection import groups, sections, series
from csection.catalog import build_group, builtin_battery, named_spec
from csection.groups import CapExceededError, NotASubgroupError, PermGroup
from csection.iso import GroupId
from csection.lattice import SubgroupClass, maximal_subgroups, normal_subgroups
from csection.perms import Permutation
from csection.sections import (ChiefPair, NoChiefPairError, NotAChiefPairError,
                               NotMaximalError, VerdictReport,
                               check_conclusion, check_hypothesis,
                               chief_pairs_for_maximal, make_report, sec,
                               unique_class_check, verify_example, verify_lemma1,
                               verify_lemma2a, verify_lemma3, verify_lemma4,
                               verify_theorem_instance)
from csection.tables import ElementTable, TableGroup, element_table

from gtools import as_subgroup, element_tuples, elements_of, named, product, small_groups
from oracles import (NaiveTable, brute_isomorphic, coset_table_naive, element_order,
                     normal_subgroups_naive)


def test_make_report_status_mapping():
    r = make_report("s", "c", True, True, {})
    assert (r.status, r.completeness) == ("pass", True)
    assert make_report("s", "c", True, False, {}).status == "inconclusive"
    assert make_report("s", "c", None, True, {}).status == "inconclusive"
    assert make_report("s", "c", None, False, {}).status == "inconclusive"
    assert make_report("s", "c", False, True, {}).status == "fail"
    # a definitive failure stands even on a partial enumeration
    assert make_report("s", "c", False, False, {}).status == "fail"


def test_verdict_report_invariants():
    with pytest.raises(ValueError, match="complete"):
        VerdictReport("s", "c", "pass", {}, False)
    with pytest.raises(ValueError, match="bad status"):
        VerdictReport("s", "c", "maybe", {}, True)
    assert issubclass(NoChiefPairError, ValueError)
    assert issubclass(NotMaximalError, ValueError)


def test_chief_pairs_of_klein_four_maximals():
    G = named("ElemAbelian", 2, 2)
    for cls in maximal_subgroups(G):
        pairs = chief_pairs_for_maximal(G, cls)
        assert len(pairs) == 3
        assert all(p.L.order in (1, 2) and p.K.order in (2, 4) for p in pairs)
        s = sec(G, cls, verify=True)
        assert s.order == 1 and str(s.identified) == "1"
        assert s.supersolvable


def test_lemma1_klein_four_frozen():
    report = verify_lemma1(named("ElemAbelian", 2, 2))
    assert report.status == "pass" and report.completeness
    assert report.evidence["maximal_classes"] == 3
    for row in report.evidence["rows"]:
        assert row == {"maximal_order": 2, "pair_count": 3,
                       "section_orders": [1, 1, 1], "agree": True}


def test_lemma1_pgl2_7_frozen():
    report = verify_lemma1(named("PGL2", 7))
    assert report.status == "pass" and report.completeness
    assert report.evidence["rows"] == [
        {"maximal_order": 168, "pair_count": 1, "section_orders": [1], "agree": True},
        {"maximal_order": 42, "pair_count": 1, "section_orders": [21], "agree": True},
        {"maximal_order": 16, "pair_count": 1, "section_orders": [8], "agree": True},
        {"maximal_order": 12, "pair_count": 1, "section_orders": [6], "agree": True},
    ]


def test_sec_on_s4_and_s5():
    S4 = named("Sym", 4)
    a4 = maximal_subgroups(S4)[0]
    assert a4.order == 12
    s = sec(S4, a4, verify=True)
    assert s.order == 1
    assert (s.source_pair.K.order, s.source_pair.L.order) == (24, 12)

    S5 = named("Sym", 5)
    by_order = {c.order: c for c in maximal_subgroups(S5)}
    s = sec(S5, by_order[24], verify=True)
    assert (s.order, str(s.identified), s.supersolvable) == (12, "A4", False)
    s = sec(S5, by_order[60])
    assert s.order == 1

    pairs = chief_pairs_for_maximal(S5, by_order[24])
    assert len(pairs) == 1
    explicit = sec(S5, by_order[24], pair=pairs[0])
    assert explicit.order == 12


def test_sec_rejects_non_maximal():
    A5 = named("Alt", 5)
    c2 = PermGroup(5, [Permutation.from_cycles(5, [(0, 1), (2, 3)])])
    with pytest.raises(NotMaximalError):
        sec(A5, c2)
    with pytest.raises(NotMaximalError):
        sec(A5, PermGroup(5, A5.generators))


def test_chief_pairs_refuse_a_maximal_class_of_another_group():
    # read against S5's table, S4's class A4 once gave the pair (A5, 1)
    S4, S5 = named("Sym", 4), named("Sym", 5)
    with pytest.raises(NotASubgroupError):
        chief_pairs_for_maximal(S5, maximal_subgroups(S4)[0])


def test_sec_refuses_a_subgroup_of_another_group():
    S4, S5 = named("Sym", 4), named("Sym", 5)
    a4_in_s5 = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2)]),
                             Permutation.from_cycles(5, [(0, 1), (2, 3)])])
    with pytest.raises(NotASubgroupError):
        sec(S4, a4_in_s5)
    # A4 is maximal in S4 but is all of A4: what one group certified does not
    # carry over to another
    a4 = as_subgroup(S4, maximal_subgroups(S4)[0])
    assert sec(S4, a4).order == 1
    with pytest.raises(NotMaximalError):
        sec(named("Alt", 4), a4)


def test_sec_reads_a_subgroup_of_a_table_group_off_its_columns():
    """A table group's element i is column i of its table, so a caller's
    subgroup of one is a PermGroup of columns; any other permutation is
    refused as input.  Kt is PSL2(7), read off PGL2(7)'s table."""
    Kt = normal_subgroups(named("PGL2", 7))[1].group
    et = element_table(Kt)
    c = next(c for c in maximal_subgroups(Kt) if c.order == 24)
    H = PermGroup(Kt.degree, [et.permutation(i) for i in c.generator_indices])
    got, want = sec(Kt, H), sec(Kt, c)
    assert (got.order, str(got.identified)) == (want.order, str(want.identified)) == (24, "S4")
    assert got.source_pair == want.source_pair
    swap = Permutation([1, 0] + list(range(2, Kt.degree)))
    for bad in (PermGroup(Kt.degree, [swap]), PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])):
        with pytest.raises(NotASubgroupError):
            sec(Kt, bad)


def test_every_entry_refuses_a_callers_subgroup_outside_G():
    """Each entry that takes a caller's subgroup reads it through
    `lattice._as_class`, so a transposition given as a subgroup of A4 is an
    input error everywhere, never a lost class or a program error."""
    A4 = named("Alt", 4)
    outside = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    M = maximal_subgroups(A4)[0]
    entries = [lambda: sec(A4, outside), lambda: chief_pairs_for_maximal(A4, outside),
               lambda: sec(A4, M, pair=ChiefPair(K=outside, L=normal_subgroups(A4)[0])),
               lambda: unique_class_check(A4, outside)]
    for entry in entries:
        with pytest.raises(NotASubgroupError):
            entry()


def test_sec_reads_a_given_pairs_index_sets_off_K_and_L():
    """A pair built from K and L alone, with no index sets, gives the same
    section as the canonical pair; SL(2,5) over its centre is A4 in SL(2,3)."""
    G = named("SL", 2, 5)
    M = next(c for c in maximal_subgroups(G) if c.order == 24)
    # -I, the only involution
    z = next(Permutation(t) for t in elements_of(G) if element_order(t) == 2)
    s = sec(G, M, pair=ChiefPair(K=PermGroup(G.degree, G.generators), L=PermGroup(G.degree, [z])))
    assert (s.order, str(s.identified)) == (12, "A4")
    assert s.source_pair in chief_pairs_for_maximal(G, M)


def test_sec_rejects_a_pair_that_does_not_separate_M():
    G = named("SL", 2, 5)
    M = next(c for c in maximal_subgroups(G) if c.order == 24)
    z = next(Permutation(t) for t in elements_of(G) if element_order(t) == 2)
    centre = PermGroup(G.degree, [z])
    assert issubclass(NotAChiefPairError, ValueError)  # exit 3 in the CLI
    with pytest.raises(NotAChiefPairError, match="orders \\(2, 2\\)"):
        sec(G, M, pair=ChiefPair(K=centre, L=centre))
    with pytest.raises(NotAChiefPairError):  # K/1 is not a chief factor
        sec(G, M, pair=ChiefPair(K=PermGroup(G.degree, G.generators), L=PermGroup(G.degree, [])))


def test_chief_pairs_exist_for_every_battery_maximal(battery200):
    for label, G in battery200:
        if G.order == 1:
            continue
        for cls in maximal_subgroups(G):
            pairs = chief_pairs_for_maximal(G, cls)
            assert pairs, f"{label}: maximal of order {cls.order} has no chief pair"
            s = sec(G, cls)
            pair = s.source_pair
            # |G| = |K||M| / |K meet M| and the section is (K meet M)/L
            assert s.order * pair.L.order * G.order == pair.K.order * cls.order, label


def test_chief_pairs_match_brute_force_covers(battery200):
    """The pairs (K, L) are exactly the covering pairs of the normal subgroup
    lattice with L inside M and K not, the lattice found by brute force."""
    for label, G in battery200:
        table = NaiveTable(elements_of(G))
        normals = normal_subgroups_naive(table)
        covers = [(K, L) for L in normals for K in normals
                  if L < K and not any(L < T < K for T in normals)]
        tuples = element_tuples(element_table(G))
        def naive(indices):
            return frozenset(table.index[tuples[i]] for i in indices)

        for cls in maximal_subgroups(G):
            m = naive(cls.indices)
            want = {(K, L) for K, L in covers if L <= m and not K <= m}
            pairs = chief_pairs_for_maximal(G, cls)
            got = [(naive(p.K.indices), naive(p.L.indices)) for p in pairs]
            assert len(got) == len(set(got)) and set(got) == want, (label, cls.order)
            assert all((p.K.group.order, p.L.group.order)
                       == (len(p.K.indices), len(p.L.indices)) for p in pairs), label


def _naive_quotient(table, d, l):
    """D/L from the oracle's table: D acting by right multiplication on the
    cosets Ly of L, each element as its image tuple on the cosets."""
    cosets = sorted({frozenset(table.mul[x][y] for x in l) for y in d}, key=min)
    where = {x: i for i, c in enumerate(cosets) for x in c}
    return {tuple(where[table.mul[min(c)][y]] for c in cosets) for y in d}


def test_sections_match_the_naive_quotient(battery200):
    """Every section (M meet K)/L with L != 1 of the battery groups of order
    <= 120 has order |M meet K|/|L| and is isomorphic to the quotient read
    off the oracle's cosets."""
    orders = []
    for label, G in battery200:
        if G.order > 120:
            continue
        table = NaiveTable(elements_of(G))
        tuples = element_tuples(element_table(G))

        def naive(indices):
            return frozenset(table.index[tuples[i]] for i in indices)

        for cls in maximal_subgroups(G):
            for pair in chief_pairs_for_maximal(G, cls):
                if pair.L.order == 1:
                    continue
                d, l = naive(cls.indices) & naive(pair.K.indices), naive(pair.L.indices)
                section = sec(G, cls, pair=pair).group
                assert section.order == len(d) // len(l), (label, cls.order)
                want = _naive_quotient(table, d, l)
                assert brute_isomorphic(elements_of(section), want), (label, cls.order)
                if section.order > 1:
                    assert (element_table(section)._mul_table.tolist()
                            == coset_table_naive(table, d, l)[0]), (label, cls.order)
                orders.append(section.order)
    assert sorted(set(orders)) == [1, 6, 10, 12]


def test_a_quotient_over_the_trivial_group_is_the_subgroups_table(battery200):
    """Over L = 1, `coset_action` gives D's own element table: the table and
    generator indices that enumerating D's permutations gives, for every
    normal subgroup and every section over L = 1 of the battery groups of
    order <= 120."""
    for label, G in battery200:
        if G.order > 120:
            continue
        et = element_table(G)
        subgroups = [N.generator_indices for N in normal_subgroups(G)]
        for cls in maximal_subgroups(G):
            for pair in chief_pairs_for_maximal(G, cls):
                if pair.L.order == 1:
                    subgroups.append(et.extract_generators(cls.indices & pair.K.indices))
        for gens in subgroups:
            if not gens:
                continue
            quotient = element_table(groups.coset_action(et, gens, frozenset([0])))
            want = element_table(PermGroup(G.degree, [et.permutation(i) for i in gens]))
            assert quotient._mul_table.tolist() == want._mul_table.tolist(), label
            assert quotient.generator_indices == want.generator_indices, label


def _count_builds(monkeypatch):
    """From here on, counts the permutation groups constructed, each with its
    stabilizer chain, the element tables enumerated from permutations, and
    the table elements turned back into permutations."""
    built = {"PermGroup": 0, "ElementTable": 0, "permutation": 0}
    init, table_init = groups.PermGroup.__init__, ElementTable.__init__
    permutation = ElementTable.permutation

    def counting_init(self, *args, **kwargs):
        built["PermGroup"] += 1
        init(self, *args, **kwargs)

    def counting_table_init(self, *args, **kwargs):
        built["ElementTable"] += 1
        table_init(self, *args, **kwargs)

    def counting_permutation(self, i):
        built["permutation"] += 1
        return permutation(self, i)

    monkeypatch.setattr(groups.PermGroup, "__init__", counting_init)
    monkeypatch.setattr(ElementTable, "__init__", counting_table_init)
    monkeypatch.setattr(ElementTable, "permutation", counting_permutation)
    return built


def test_a_section_over_a_nontrivial_L_builds_one_group(monkeypatch):
    # SL(2,5) over its center: the maximal SL(2,3) has section A4 = SL(2,3)/Z,
    # a table group read off G's table, with no permutation group built
    G = named("SL", 2, 5)
    M = next(c for c in maximal_subgroups(G) if c.order == 24)
    pair, = (p for p in chief_pairs_for_maximal(G, M) if p.L.order == 2)
    built = _count_builds(monkeypatch)
    section = sections._section_group(G, M.indices, pair)
    assert isinstance(section, TableGroup) and section.order == 12
    assert built == {"PermGroup": 0, "ElementTable": 0, "permutation": 0}


@pytest.mark.parametrize("name,params,m_order,l_order", [
    ("Sym", (4,), 8, 4),   # D8 in S4: M cap A4 = V4 = L, quotiented by coset_action
    ("Sym", (3,), 2, 1),   # C2 in S3: M cap C3 = 1 = L
], ids=["S4_D8", "S3_C2"])
def test_a_trivial_section_builds_no_group_and_no_table(name, params, m_order, l_order,
                                                        monkeypatch):
    G = named(name, *params)
    M = next(c for c in maximal_subgroups(G) if c.order == m_order)
    pair, = chief_pairs_for_maximal(G, M)
    assert pair.L.order == l_order
    quotients = []
    coset_action = sections.coset_action

    def counting_coset_action(et, d_gens, l_set):
        quotients.append(list(d_gens))
        return coset_action(et, d_gens, l_set)

    built = _count_builds(monkeypatch)
    monkeypatch.setattr(sections, "coset_action", counting_coset_action)
    s = sec(G, M)
    assert s.group is groups.TRIVIAL_QUOTIENT
    assert (s.supersolvable, s.identified) == (True, GroupId("trivial", (), 1))
    assert built == {"PermGroup": 0, "ElementTable": 0, "permutation": 0}
    assert quotients == [[]]


def test_coset_action_with_no_generators_is_trivial():
    G = named("Sym", 4)
    et = element_table(G)
    v4 = next(N for N in normal_subgroups(G) if N.order == 4).indices
    for l_set in (frozenset([0]), v4):
        assert groups.coset_action(et, [], l_set).order == 1
    assert groups.coset_action(et, sorted(v4), v4) is groups.TRIVIAL_QUOTIENT


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_section_identity_is_invariant_under_conjugating_M(G):
    for cls in maximal_subgroups(G):
        M = as_subgroup(G, cls)
        want = sec(G, cls).identified
        assert sec(G, M).identified == want
        for g in G.generators:
            conjugate = PermGroup(G.degree, [h.conjugated_by(g) for h in M.generators])
            assert sec(G, conjugate).identified == want


def test_check_hypothesis_pgl2_7():
    report = check_hypothesis(named("PGL2", 7))
    assert report.status == "pass" and report.completeness
    assert report.evidence["witnesses"] == []
    rows = [(r["maximal_order"], r["section_order"], r["section_id"], r["supersolvable"])
            for r in report.evidence["rows"]]
    assert rows == [(168, 1, "1", True), (42, 21, "G(21)", True),
                    (16, 8, "D8", True), (12, 6, "D6", True)]


def test_check_hypothesis_s5_fails_on_s4():
    report = check_hypothesis(named("Sym", 5))
    assert report.status == "fail" and report.completeness
    assert report.evidence["witnesses"] == [{"maximal_order": 24, "section_id": "A4"}]


def _partial_list(G, count):
    """The first maximal classes of G, built by hand as a list not known to be
    complete."""
    return [SubgroupClass(c.table, c.indices, c.generator_indices, c.class_size,
                          verified_complete=False)
            for c in maximal_subgroups(G)[:count]]


def test_check_hypothesis_incomplete_class_list():
    G = named("PGL2", 7)
    found = _partial_list(G, 2)
    report = check_hypothesis(G, maximal_classes=found)
    assert not report.completeness
    assert report.status == "inconclusive"  # all sampled sections pass, list partial
    assert report.evidence["witnesses"] == []


def test_check_conclusion():
    r = check_conclusion(named("Sym", 4))
    assert r.status == "pass"
    assert r.evidence["factor_ids"] == ["C2", "C3", "C2", "C2"]
    assert r.evidence["factor_orders"] == [2, 3, 2, 2]

    r = check_conclusion(named("Sym", 5))
    assert r.status == "fail"
    assert r.evidence["witnesses"] == ["A5"]

    assert check_conclusion(named("PSL2", 7)).status == "pass"
    assert check_conclusion(product("Cyclic", [2], "PSL2", [7])).status == "pass"
    assert check_conclusion(named("Alt", 6)).status == "fail"


def test_conclusion_builds_no_permutation_group_after_the_input(monkeypatch):
    # SL(2,17)/Z is a chief factor of order 2,448, read off G's table
    G = named("SL", 2, 17)
    built = _count_builds(monkeypatch)
    assert check_conclusion(G).evidence["factor_orders"] == [2448, 2]
    assert built == {"PermGroup": 0, "ElementTable": 1, "permutation": 0}


def test_theorem_and_lemma1_build_no_group_and_one_table_after_the_input(battery500,
                                                                        monkeypatch):
    """Every subgroup and section is read off the input's table: on S5,
    PGL2(5) and PGL2(7) the minimal normal subgroup's lattice is walked on
    its table group, with no chain and no second table, and no element of
    any table is turned back into a permutation."""
    for _label, G in battery500:  # builds the `iso` reference groups once
        verify_theorem_instance(G)
        verify_lemma1(G)
    fresh = [(e.label, build_group(e.spec)) for e in builtin_battery(500)]
    built = _count_builds(monkeypatch)
    for label, G in fresh:
        built.update(PermGroup=0, ElementTable=0, permutation=0)
        verify_theorem_instance(G)
        verify_lemma1(G)
        assert built == {"PermGroup": 0, "ElementTable": 1, "permutation": 0}, label


def test_example_builds_one_group_and_one_table(monkeypatch):
    """Only G = PGL2(7) is built and enumerated; K, its lattice and K's
    maximal classes are table groups read off G's table."""
    verify_example(7)  # builds the `iso` reference groups once
    built = _count_builds(monkeypatch)
    assert verify_example(7).status == "pass"
    assert built == {"PermGroup": 1, "ElementTable": 1, "permutation": 0}


def test_check_conclusion_unidentified_simple_is_inconclusive(psl2_16):
    r = check_conclusion(psl2_16)
    assert r.status == "inconclusive"
    assert r.evidence["witnesses"] == []
    assert r.evidence["factor_ids"] == ["Simple(4080)"]


def test_unidentified_factor_is_inconclusive_not_fail():
    for kind in ("unknown_simple", "opaque"):
        assert sections._conclusion_factor_ok(GroupId(kind, (20160,), 20160)) is None
    assert sections._conclusion_factor_ok(GroupId("psl2", (7,), 168)) is True
    assert sections._conclusion_factor_ok(GroupId("alternating", (6,), 360)) is False


def test_check_conclusion_opaque_factor_is_inconclusive(monkeypatch):
    # An opaque factor needs order above the element cap; patch identify to reach the branch.
    monkeypatch.setattr(series, "identify", lambda f: GroupId("opaque", (f.order,), f.order))
    r = check_conclusion(named("PSL2", 7))
    assert r.status == "inconclusive"
    assert r.evidence["witnesses"] == []
    assert r.evidence["factor_ids"] == ["G(168)"]


def test_theorem_s5_vacuous_pass():
    report = verify_theorem_instance(named("Sym", 5))
    assert report.status == "pass" and report.completeness
    ev = report.evidence
    assert ev["vacuous"] is True
    assert ev["hypothesis"]["status"] == "fail"
    assert ev["hypothesis"]["witnesses"] == [{"maximal_order": 24, "section_id": "A4"}]
    assert ev["conclusion"]["status"] == "fail"
    assert ev["conclusion"]["witnesses"] == ["A5"]


def test_theorem_s4_nonvacuous_pass():
    report = verify_theorem_instance(named("Sym", 4))
    assert report.status == "pass"
    ev = report.evidence
    assert ev["vacuous"] is False
    assert ev["hypothesis"]["status"] == "pass"
    assert ev["conclusion"]["status"] == "pass"


def test_theorem_run_frees_its_table_with_its_group():
    # No table refers back to its group, so `del` alone frees them both.
    G = named("PSL2", 7)
    assert verify_theorem_instance(G).status == "pass"
    table = weakref.ref(element_table(G))
    del G
    assert table() is None


def test_a_dead_group_leaves_nothing_to_the_cycle_collector():
    """After theorem and lemma1, a group, its caches, its subgroup records
    and its tables are freed by reference counting alone."""
    specs = [e.spec for e in builtin_battery(200)[::7]] + [named_spec("PGL2", 7)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for spec in specs:
            G = build_group(spec)
            verify_theorem_instance(G)
            verify_lemma1(G)
            del G
        gc.collect()
        kinds = (ElementTable, TableGroup, PermGroup, SubgroupClass, memoryview)
        left = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, kinds))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert len(specs) == 11
    assert not left


def test_theorem_passes_through_conclusion_when_hypothesis_partial():
    G = named("PGL2", 7)
    found = _partial_list(G, 2)
    report = verify_theorem_instance(G, maximal_classes=found)
    assert report.status == "pass"
    assert report.evidence["vacuous"] is False
    assert report.evidence["hypothesis"]["status"] == "inconclusive"


def test_theorem_detects_counterexample_shape():
    # Deliberately truncated class list: the caller claims completeness, the
    # supplied sections all pass, and the conclusion fails, which must surface
    # as a theorem failure rather than be papered over.
    S5 = named("Sym", 5)
    benign = [c for c in maximal_subgroups(S5) if c.order == 12]
    report = verify_theorem_instance(S5, maximal_classes=benign)
    assert report.status == "fail"
    assert report.evidence["hypothesis"]["status"] == "pass"
    assert report.evidence["conclusion"]["status"] == "fail"


def test_lemma2a():
    r = verify_lemma2a(4)
    assert r.status == "pass" and r.subject == "A4"
    assert r.evidence["exception"] == "A4 has an index-3 subgroup"
    assert r.evidence["rows"] == [
        {"index": 2, "class_count": 0, "orders": [], "expected": 0},
        {"index": 3, "class_count": 1, "orders": [4], "expected": 1},
    ]

    r = verify_lemma2a(5)
    assert r.status == "pass"
    assert r.evidence["exception"] is None
    assert all(row["class_count"] == 0 for row in r.evidence["rows"])
    assert [row["index"] for row in r.evidence["rows"]] == [2, 3, 4]

    r = verify_lemma2a(6)
    assert r.status == "pass"
    assert all(row["class_count"] == 0 for row in r.evidence["rows"])
    assert [row["index"] for row in r.evidence["rows"]] == [2, 3, 4, 5]

    with pytest.raises(ValueError, match="supported degrees: 4, 5, 6"):
        verify_lemma2a(7)


def test_lemma3():
    r = verify_lemma3(5)
    assert r.status == "pass" and r.subject == "A5"
    assert (r.evidence["class_count"], r.evidence["expected"]) == (1, 1)
    assert r.evidence["class_sizes"] == [5]
    assert r.evidence["stabilizer_isomorphic"]

    r = verify_lemma3(6)
    assert r.status == "pass"
    assert (r.evidence["class_count"], r.evidence["expected"]) == (2, 2)
    assert r.evidence["class_sizes"] == [6, 6]

    r = verify_lemma3(7)
    assert r.status == "pass"
    assert (r.evidence["class_count"], r.evidence["expected"]) == (1, 1)
    assert r.evidence["class_sizes"] == [7]
    assert r.evidence["stabilizer_isomorphic"]

    with pytest.raises(ValueError, match="supported degrees: 5, 6, 7"):
        verify_lemma3(4)


LEMMA4_CASES = [
    (2, 4, 12, 12, 3),
    (2, 8, 56, 56, 7),
    (2, 9, 72, 36, 4),
    (3, 4, 576, 192, 3),
]


@pytest.mark.parametrize("n,q,vec,proj,census", LEMMA4_CASES,
                         ids=[f"SL{n}_{q}" for n, q, *_ in LEMMA4_CASES])
def test_lemma4(n, q, vec, proj, census):
    r = verify_lemma4(n, q)
    assert r.status == "pass" and r.completeness
    assert r.subject == f"SL({n},{q})"
    ev = r.evidence
    assert ev["trials"] == 100 and ev["failures"] == 0
    assert ev["multiplier_census"] == census
    assert ev["orders"] == {"vec": vec, "proj": proj}
    assert ev["expected_orders"] == ev["orders"]
    for side in ("vec", "proj"):
        side_ev = ev["sides"][side]
        assert side_ev["minimal_normal"] is True
        assert side_ev["non_supersolvable"] is True
        assert side_ev["normalizer_crosscheck"] is True
        assert side_ev["corner_order"] == q


def test_lemma4_extra_trials_and_rejection():
    r = verify_lemma4(2, 4, trials=150, seed=5)
    assert r.evidence["trials"] == 150 and r.evidence["failures"] == 0
    with pytest.raises(ValueError, match="supported"):
        verify_lemma4(2, 5)


def test_example_p7():
    report = verify_example(7)
    assert report.status == "pass" and report.completeness
    assert report.subject == "PGL2(7)"
    assert report.evidence["p"] == 7
    subs = report.evidence["sub_checks"]
    assert [s["name"] for s in subs] == [
        "unique_chief_series", "klein_classes_in_K", "fusion_in_G",
        "sections_supersolvable", "maximals_of_K"]
    assert all(s["status"] == "pass" for s in subs)
    assert subs[0]["normal_orders"] == [1, 168, 336]
    assert subs[1]["class_count"] == 2
    assert subs[1]["normalizer_orders"] == [24, 24]
    assert subs[3]["maximal_orders"] == [168, 42, 16, 12]
    k_rows = subs[4]["rows"]
    assert sorted(r["order"] for r in k_rows) == [21, 24, 24]
    assert {r["id"] for r in k_rows} == {"S4", "G(21)"}
    assert all(r["fits"] for r in k_rows)


def test_example_rejects_bad_parameters():
    for p in (2, 5, 9, 12):
        with pytest.raises(ValueError, match="prime congruent"):
            verify_example(p)
    with pytest.raises(CapExceededError):
        verify_example(23)  # PGL2(23) has 12144 elements, above the element cap


@pytest.mark.parametrize("p", [23, 8191, 65521])
def test_example_refuses_large_p_before_building_the_group(monkeypatch, p):
    # |PGL2(p)| = p(p^2 - 1) is above the element cap from p = 23 on;
    # the field, and so G, must not be built for such p.
    def no_field(q):
        raise AssertionError(f"field of order {q} built for a refused p")

    monkeypatch.setattr("csection.sections.field_make", no_field)
    with pytest.raises(CapExceededError, match=f"group order {p * (p * p - 1)} exceeds"):
        verify_example(p)


def test_example_p17_complete():
    report = verify_example(17)
    assert report.status == "pass" and report.completeness
    subs = report.evidence["sub_checks"]
    assert all(s["status"] == "pass" for s in subs)
    assert subs[0]["normal_orders"] == [1, 2448, 4896]
    # Dickson: PGL(2,17) has maximal PSL(2,17), 17:16, D36 and D32
    assert subs[3]["maximal_orders"] == [2448, 272, 36, 32]
    # and PSL(2,17) has 17:8, two classes of S4, D18 and D16
    assert [r["order"] for r in subs[4]["rows"]] == [136, 24, 24, 18, 16]


def test_unique_class_check():
    S4 = named("Sym", 4)
    c4 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    r = unique_class_check(S4, c4)
    assert r.status == "pass"
    assert r.evidence == {"iso_class_count": 1, "class_sizes": [3],
                          "subgroup_order": 4, "hypothesis_status": "pass",
                          "supersolvable_under_hypothesis": True}

    v4 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    r = unique_class_check(S4, v4)
    assert r.status == "fail"
    assert r.evidence == {"iso_class_count": 2, "class_sizes": [3, 1],
                          "subgroup_order": 4}

    a4 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                       Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    r = unique_class_check(S4, a4)
    assert r.status == "fail"
    assert r.evidence["iso_class_count"] == 1
    assert r.evidence["supersolvable_under_hypothesis"] is False
