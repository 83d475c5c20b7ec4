"""Acceptance gate: one test per published criterion.

Each test prints a single "ACCEPTANCE <n> <name>: PASS" line when the
criterion holds, so the -rP summary doubles as the acceptance sheet.
Tolerances are pinned in the asserts, wall-clock budgets included.
"""

import math
import time

from gtools import elements_of, every_chief_series_orders
from oracles import NaiveTable, is_supersolvable_naive

from csection.catalog import build_group, named_spec
from csection.lattice import subgroup_count
from csection.sections import (verify_example, verify_lemma1, verify_lemma2a,
                               verify_lemma3, verify_lemma4,
                               verify_theorem_instance)
from csection.series import chief_series, composition_factors, is_supersolvable


def _prime_power_refined(m):
    """[p] * k when m = p^k, else [m]."""
    p = next(d for d in range(2, m + 1) if m % d == 0)
    k, rest = 0, m
    while rest % p == 0:
        rest //= p
        k += 1
    return [p] * k if rest == 1 else [m]


def test_acceptance_1_worked_example():
    t0 = time.perf_counter()
    report = verify_example(7)
    elapsed = time.perf_counter() - t0
    assert report.status == "pass"
    assert report.completeness is True
    subs = {s["name"]: s for s in report.evidence["sub_checks"]}
    assert set(subs) == {"unique_chief_series", "klein_classes_in_K", "fusion_in_G",
                         "sections_supersolvable", "maximals_of_K"}
    assert all(s["status"] == "pass" for s in subs.values())
    assert subs["klein_classes_in_K"]["class_count"] == 2
    assert subs["klein_classes_in_K"]["normalizer_orders"] == [24, 24]
    assert subs["sections_supersolvable"]["maximal_orders"] == [168, 42, 16, 12]
    assert elapsed < 120.0
    print("ACCEPTANCE 1 worked example PGL2(7): PASS")


def test_acceptance_2_sections_well_defined(battery500, battery200):
    bad = []
    for label, G in battery200:
        report = verify_lemma1(G, subject=label)
        if report.status != "pass":
            bad.append((label, report.status))
    assert bad == []
    pgl27 = dict(battery500)["PGL2(7)"]
    report = verify_lemma1(pgl27, subject="PGL2(7)")
    assert report.status == "pass"
    assert [row["maximal_order"] for row in report.evidence["rows"]] == [168, 42, 16, 12]
    assert all(row["agree"] for row in report.evidence["rows"])
    print("ACCEPTANCE 2 section independence battery: PASS")


def test_acceptance_3_alternating_index_catalogue():
    for n in (4, 5, 6):
        rep = verify_lemma2a(n)
        assert rep.status == "pass", n
        if n == 4:
            assert rep.evidence["exception"] == "A4 has an index-3 subgroup"
            rows = {r["index"]: r for r in rep.evidence["rows"]}
            assert rows[3]["class_count"] == 1
        if n == 5:
            assert all(r["class_count"] == 0 for r in rep.evidence["rows"])
    sizes = {}
    for n in (5, 6, 7):
        rep = verify_lemma3(n)
        assert rep.status == "pass", n
        assert rep.evidence["stabilizer_isomorphic"] is True
        sizes[n] = rep.evidence["class_sizes"]
    assert sizes[5] == [5]
    assert sizes[6] == [6, 6]
    assert sizes[7] == [7]
    print("ACCEPTANCE 3 alternating index catalogue: PASS")


def test_acceptance_4_sylow_normalizer_battery():
    cases = [(2, 4, 12, 12), (2, 8, 56, 56), (2, 9, 72, 36), (3, 4, 576, 192)]
    for n, q, want_vec, want_proj in cases:
        rep = verify_lemma4(n, q, trials=100, seed=0)
        assert rep.status == "pass", (n, q)
        ev = rep.evidence
        assert ev["trials"] >= 100
        assert ev["failures"] == 0
        assert ev["orders"] == {"vec": want_vec, "proj": want_proj}
        for side in ("vec", "proj"):
            facts = ev["sides"][side]
            assert facts["minimal_normal"] is True
            assert facts["non_supersolvable"] is True
            assert facts["normalizer_crosscheck"] is True
    print("ACCEPTANCE 4 Sylow normalizer battery: PASS")


def test_acceptance_5_theorem_scan(battery500):
    t0 = time.perf_counter()
    reports = {label: verify_theorem_instance(G, subject=label)
               for label, G in battery500}
    elapsed = time.perf_counter() - t0
    assert all(r.status == "pass" for r in reports.values())
    vacuous = {label for label, r in reports.items() if r.evidence["vacuous"]}
    assert vacuous == {"S5", "A5", "A6", "PSL2(4)", "PSL2(5)", "PSL2(7)", "PSL2(9)",
                       "PGL2(4)", "PGL2(5)", "SL2(4)", "SL2(5)", "SL2(7)",
                       "C2xA5", "C2xPSL2(7)"}
    for label, r in reports.items():
        if not r.evidence["vacuous"]:
            assert r.completeness is True, label
    s5 = reports["S5"].evidence["hypothesis"]
    assert s5["status"] == "fail"
    assert {"maximal_order": 24, "section_id": "A4"} in s5["witnesses"]
    pgl = reports["PGL2(7)"].evidence
    assert pgl["vacuous"] is False
    assert pgl["hypothesis"]["status"] == "pass"
    assert pgl["conclusion"]["status"] == "pass"
    assert elapsed < 600.0
    print("ACCEPTANCE 5 theorem scan over the battery: PASS")


def test_acceptance_6_library_cross_checks(battery200):
    for n in range(1, 8):
        assert build_group(named_spec("Sym", n)).order == math.factorial(n)
    for n in range(3, 8):
        assert build_group(named_spec("Alt", n)).order == math.factorial(n) // 2
    assert build_group(named_spec("Alt", 7)).order == 2520
    assert build_group(named_spec("Sym", 7)).order == 5040

    for q in (4, 5, 7, 8, 9):
        G = build_group(named_spec("PSL2", q))
        assert G.order == q * (q * q - 1) // math.gcd(2, q - 1)

    assert subgroup_count(build_group(named_spec("Sym", 3))) == 6
    assert subgroup_count(build_group(named_spec("Dihedral", 4))) == 10
    assert subgroup_count(build_group(named_spec("Alt", 4))) == 10
    assert subgroup_count(build_group(named_spec("Sym", 4))) == 30

    for label, G in battery200:
        oracle = is_supersolvable_naive(NaiveTable(elements_of(G)))
        assert is_supersolvable(G) == oracle, label

    for label, G in battery200:
        orders = every_chief_series_orders(G)
        assert orders == sorted(chief_series(G).factor_orders()), label
        # below order 60^2 every nonabelian chief factor is simple
        refined = sorted(p for m in orders for p in _prime_power_refined(m))
        assert sorted(f.order for f in composition_factors(G)) == refined, label
    print("ACCEPTANCE 6 library cross-checks: PASS")
