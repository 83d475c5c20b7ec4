"""The benchmark's own test: one small slice of each workload, the verdict
gate, seed independence, tracing from outside, and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from workloads import Simple, Structure

# Cheap ops that still reach every layer their workload is predicted to
# move: one op each, except that large-groups needs PSL2(17) for the Cayley
# table, PSL2(11) for an isomorphism test against a reference, and SL(2,4)
# for the matrix groups.
SLICES = {
    "scan-theorem": ("A5",),
    "lemma1-sections": ("S4",),
    "large-groups": ("PSL2(11)", "PSL2(17)", "SL(2,4)"),
}


@pytest.fixture(scope="module")
def csection():
    return run.fresh_import()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_slice_is_correct_and_traced_from_outside(workload, csection, tmp_path):
    store = tmp_path / "store.jsonl" if workload == "scan-theorem" else None
    ops = workloads.make_ops(workload, 0, csection, str(store) if store else None)
    ops = [op for op in ops if op.label in SLICES[workload]]
    assert len(ops) == len(SLICES[workload])
    tally = run.Tally()
    plain = run.run_pass(ops, tally, store)[3]
    with spans.Tracer() as tracer:
        traced = run.run_pass(ops, tally, store)[3]
    assert tally.failed == 0, tally.problems
    assert traced == plain
    assert tracer.missing == []
    values = tracer.metrics(1)
    assert [n for n, _, _ in spans.metric_specs()] == list(values)
    zero = [m for m in spans.PREDICTED_NONZERO[workload] if not values[m]]
    assert zero == []


def test_tracer_rebinds_copies_and_restores(csection):
    original = csection.lattice.maximal_subgroups
    init = csection.groups.PermGroup.__init__
    with spans.Tracer():
        for mod in (csection, csection.sections, csection.series, csection.iso):
            if "maximal_subgroups" in vars(mod):
                assert mod.maximal_subgroups is not original
        assert csection.groups.PermGroup.__init__ is not init
    assert csection.sections.maximal_subgroups is original
    assert csection.lattice.maximal_subgroups is original
    assert csection.groups.PermGroup.__init__ is init


def test_second_seed_gives_identical_verdicts(csection):
    verdicts = []
    for seed in (0, 1):
        ops = workloads.make_ops("lemma1-sections", seed, csection)
        ops = sorted((op for op in ops if op.structure.order <= 24), key=lambda op: op.label)
        tally = run.Tally()
        reports = run.run_pass(ops, tally, None)[3]
        assert tally.failed == 0, tally.problems
        verdicts.append([(op.label, r["status"], r["evidence"]["maximal_classes"])
                         for op, r in zip(ops, reports)])
    assert verdicts[0] == verdicts[1]
    ops0 = workloads.make_ops("large-groups", 0, csection)
    ops1 = workloads.make_ops("large-groups", 1, csection)
    assert [op.argv for op in ops0] != [op.argv for op in ops1]


def _conclusion_report(csection, label):
    op = next(op for op in workloads.make_ops("large-groups", 0, csection) if op.label == label)
    rc, text = run.call(op.argv)
    return op, rc, json.loads(text)


def test_gate_counts_a_wrong_expected_verdict_as_failed(csection):
    op, rc, report = _conclusion_report(csection, "PSL2(11)")
    assert report["status"] == "fail"
    assert workloads.judge(op, rc, report) == ("ok", [])
    # The same report against a wrong expectation: L2(11) claimed admissible.
    op.structure = Structure(660, (Simple("l2", 7),), False)
    verdict, problems = workloads.judge(op, rc, report)
    assert verdict == "failed" and problems
    tally = run.Tally()
    tally.add(op.label, verdict, problems)
    assert (tally.attempted, tally.failed, tally.inconclusive) == (1, 1, 0)


def test_inconclusive_is_not_failed_and_a_crash_is():
    op = workloads.Op(label="PSL2(17)", argv=["conclusion"],
                      structure=Structure(2448, (Simple("l2", 17),)))
    report = {"status": "inconclusive", "check": "conclusion",
              "evidence": {"factor_ids": ["Simple(2448)"], "factor_orders": [2448],
                           "witnesses": []}}
    assert workloads.judge(op, 2, report) == ("inconclusive", [])
    assert workloads.judge(op, 1, dict(report, status="fail"))[0] == "failed"
    assert workloads.judge(op, 0, {"status": "pass", "check": "conclusion",
                                   "evidence": {}})[0] == "failed"
    assert workloads.judge(op, 2, dict(report, check="theorem"))[0] == "failed"


def test_expected_structures_agree_with_the_test_oracles(csection):
    oracles = run.load_oracles()
    ops = workloads.make_ops("scan-theorem", 0, csection)
    ops += [op for op in workloads.make_ops("large-groups", 0, csection) if op.structure]
    for op in ops:
        assert len(oracles.generated(op.degree, op.generators)) == op.structure.order, op.label
        if op.structure.supersolvable is not None and op.structure.order <= 64:
            elements = oracles.generated(op.degree, op.generators)
            table = oracles.NaiveTable(elements)
            assert oracles.is_supersolvable_naive(table) == op.structure.supersolvable, op.label
    by_label = {op.label: op.structure for op in ops}
    assert [by_label[f"{n}({q})"].conclusion() for n, q in workloads.CONCLUSION_GROUPS] == \
        ["fail", "fail", "fail", "fail", "pass"]


def test_tail_mean():
    assert run.tail_mean([0.1] * 5 + [0.9]) == (0.9, 1)
    xs = [i / 100 for i in range(1, 72)]
    value, k = run.tail_mean(xs)
    assert k == 8 and abs(value - sum(xs[-8:]) / 8) < 1e-12


def test_tail_percentile():
    assert run.tail([0.1] * 5 + [0.9]) == (0.9, 100.0, 0)
    xs = [i / 100 for i in range(1, 101)]
    assert run.tail(xs) == (0.9, 90.0, 10)


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_spec()
    spec = run.benchmark_spec()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert len(spec["per_layer"]) <= 128
    assert {m["name"] for m in spec["end_to_end"]} == {n for n, *_ in run.END_TO_END}


def test_exits_nonzero_without_the_program(tmp_path):
    """A checkout that holds only BENCHMARK.json and perfbench/ has nothing to run."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "large-groups",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
