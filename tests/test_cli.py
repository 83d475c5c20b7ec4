"""End-to-end tests for the command-line surface.

Everything runs in-process through main(argv); stdout and stderr come from
capsys and stores live under tmp_path.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from csection import __version__, cli
from csection.catalog import build_group, builtin_battery, parse_group_spec
from csection.cli import emit_report, main
from csection.groups import CapExceededError
from csection.sections import VerdictReport, check_hypothesis

S4 = '{"kind":"named","name":"Sym","params":[4]}'
S5 = '{"kind":"named","name":"Sym","params":[5]}'
V4 = '{"kind":"named","name":"ElemAbelian","params":[2,2]}'

REPORT_KEYS = {"subject", "check", "status", "evidence", "completeness", "version"}


def run_json(argv, capsys):
    code = main(argv + ["--json"])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_every_export_resolves():
    import csection
    missing = [name for name in csection.__all__ if not hasattr(csection, name)]
    assert missing == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_one_parser_serves_successive_calls(capsys):
    cli._parser.cache_clear()
    code, doc, _err = run_json(["theorem", "--group", S4], capsys)
    assert code == 0 and doc["check"] == "theorem"
    assert main(["theorem", "--group", S4]) == 0  # no --json left over from the first call
    out = capsys.readouterr().out
    assert out.startswith(f"[PASS] theorem: {parse_group_spec(S4).canonical()}")
    with pytest.raises(SystemExit) as exc:
        main(["order"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_missing_group_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_order_human_output(capsys):
    code = main(["order", "--group", S4])
    out = capsys.readouterr().out.splitlines()
    subject = parse_group_spec(S4).canonical()
    assert code == 0
    assert out[0] == f"[PASS] order: {subject} (complete=True)"
    assert "  order: 24" in out
    assert "  degree: 4" in out


def test_order_json_output(capsys):
    code, doc, _ = run_json(["order", "--group", S4], capsys)
    assert code == 0
    assert set(doc) == REPORT_KEYS
    assert doc["status"] == "pass"
    assert doc["evidence"] == {"order": 24, "degree": 4}
    assert doc["version"] == __version__


def test_group_spec_from_file(tmp_path, capsys):
    path = tmp_path / "s4.json"
    path.write_text(S4)
    code, doc, _ = run_json(["order", "--group", str(path)], capsys)
    assert code == 0
    assert doc["evidence"]["order"] == 24


@pytest.mark.parametrize("arg", [
    '{"name":',              # malformed JSON
    '{"name": "Sym"}',       # missing params
    "/no/such/spec.json",    # missing file
])
def test_bad_group_inputs_exit_3(arg, capsys):
    assert main(["order", "--group", arg]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_max_order_cap_enforced(capsys):
    assert main(["order", "--group", S5, "--max-order", "50"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    '{"kind":"named","name":"Cyclic","params":[100000]}',
    '{"kind":"named","name":"Sym","params":[4000]}',
    '{"kind":"named","name":"PSL2","params":[997]}',
], ids=["Cyclic100000", "Sym4000", "PSL2_997"])
def test_an_oversized_named_group_exits_3_before_it_is_built(spec):
    """Each of these took more than 15 s when the caps were checked only
    after the build; the closed form refuses it at once."""
    proc = _cli_process("order", "--group", spec)
    assert proc.returncode == 3
    assert "exceeds cap" in proc.stderr


def test_order_of_psl2_521_over_a_large_field():
    """GF(521) is tabled like every other field, so PSL2(521), past the
    default cap, is built on the 522 points of its projective line well
    inside the timeout."""
    proc = _cli_process("order", "--group", '{"kind":"named","name":"PSL2","params":[521]}',
                        "--max-order", "1000000000", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["evidence"] == {"order": 70_710_120, "degree": 522}


def _cli_process(*args):
    """`python -m csection.cli` on this checkout's src/, in a fresh process
    with a 10 s timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "csection.cli", *args],
                          capture_output=True, text=True, timeout=10, env=env)


@pytest.mark.parametrize("error,code", [
    (RuntimeError("chain broke\nat level 2"), 4),
    (AssertionError("class map is stale"), 4),
    (CapExceededError("element cap 10 exceeded"), 3),  # a RuntimeError, still input-sized
    (KeyError("frozenset({0, 3})"), 4),
    (TypeError("'NoneType' object is not subscriptable"), 4),
    (IndexError("list index out of range"), 4),
    (MemoryError("Cayley table of 4896 x 4896 cells"), 4),  # raised, not allocated
])
def test_internal_errors_get_their_own_exit_code(error, code, monkeypatch, capsys):
    def broken(G, subject):
        raise error
    monkeypatch.setattr(cli, "check_hypothesis", broken)
    assert main(["hypothesis", "--group", S4]) == code
    _assert_one_error_line(capsys, error, code)


def test_a_scan_workers_error_is_an_internal_error(monkeypatch, capsys):
    """A worker's exception is re-raised in the parent by the pool, and
    exits 4 like any other.  The workers fork, so they inherit the patch."""
    error = KeyError("lost class")

    def broken(G, subject):
        raise error
    monkeypatch.setattr(cli, "verify_theorem_instance", broken)
    assert main(["scan", "--max-order", "12", "--workers", "2"]) == 4
    _assert_one_error_line(capsys, error, 4)


def _assert_one_error_line(capsys, error, code):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    if code == 4:
        assert err[0] == f"internal error: {type(error).__name__}: {' '.join(str(error).split())}"
    else:
        assert err[0].startswith("error:")


def test_maximals_s4(capsys):
    code, doc, _ = run_json(["maximals", "--group", S4], capsys)
    assert code == 0
    assert doc["completeness"] is True
    assert doc["evidence"]["orders"] == [12, 8, 6]
    assert doc["evidence"]["class_counts"] == [1, 3, 4]
    assert doc["evidence"]["indices"] == [2, 3, 4]


def test_sec_top_maximal_of_s4(capsys):
    code, doc, _ = run_json(
        ["sec", "--group", S4, "--maximal-index", "0", "--verify"], capsys)
    assert code == 0
    ev = doc["evidence"]
    assert ev["maximal_order"] == 12
    assert ev["section_order"] == 1
    assert ev["section_id"] == "1"
    assert ev["supersolvable"] is True
    assert ev["pair"] == {"k_order": 24, "l_order": 12}


def test_sec_index_out_of_range(capsys):
    assert main(["sec", "--group", S4, "--maximal-index", "3"]) == 3
    assert "maximal-index out of range 0..2" in capsys.readouterr().err


def test_hypothesis_exit_codes(capsys):
    assert main(["hypothesis", "--group", S4]) == 0
    assert main(["hypothesis", "--group", S5]) == 1
    out = capsys.readouterr().out
    assert "[PASS] hypothesis:" in out
    assert "[FAIL] hypothesis:" in out


def test_conclusion_fails_on_s5(capsys):
    code, doc, _ = run_json(["conclusion", "--group", S5], capsys)
    assert code == 1
    assert doc["status"] == "fail"
    assert "A5" in doc["evidence"]["factor_ids"]
    assert doc["evidence"]["witnesses"] == ["A5"]


def test_theorem_vacuous_pass_on_s5(capsys):
    code, doc, _ = run_json(["theorem", "--group", S5], capsys)
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["evidence"]["vacuous"] is True
    assert doc["evidence"]["hypothesis"]["status"] == "fail"


def test_maximals_psl2_23_above_the_old_lattice_cap(capsys):
    # Dickson, q = 23 = 7 mod 8: 23:11, two classes of S4, D24 and D22
    code, doc, _ = run_json(["maximals", "--group", '{"kind":"named","name":"PSL2","params":[23]}'],
                            capsys)
    assert code == 0
    assert doc["completeness"] is True
    assert doc["evidence"]["orders"] == [253, 24, 24, 24, 22]


def test_theorem_on_pgl2_19_with_the_default_max_order(capsys):
    # |PGL2(19)| = 6840.  19 = 3 mod 8, so S4 is maximal in PGL2(19) but not
    # inside PSL2(19): its section over the chief factor PSL2(19)/1 is
    # S4 meet PSL2(19) = A4, which is not supersolvable, so the hypothesis
    # fails and the theorem holds vacuously.
    code, doc, _ = run_json(["theorem", "--group", '{"kind":"named","name":"PGL2","params":[19]}'],
                            capsys)
    assert code == 0
    assert doc["status"] == "pass" and doc["completeness"] is True
    assert doc["evidence"]["vacuous"] is True
    rows = doc["evidence"]["hypothesis"]["rows"]
    assert [r["maximal_order"] for r in rows] == [3420, 342, 40, 36, 24]
    s4 = rows[-1]
    assert s4["section_id"] == "A4" and s4["supersolvable"] is False


def test_verify_lemma1_cli(capsys):
    code, doc, _ = run_json(["verify", "lemma1", "--group", V4], capsys)
    assert code == 0
    assert doc["check"] == "lemma1"
    assert doc["status"] == "pass"


def test_verify_lemma2a_cli(capsys):
    assert main(["verify", "lemma2a", "--n", "5"]) == 0
    assert main(["verify", "lemma2a", "--n", "7"]) == 3
    assert "supported degrees" in capsys.readouterr().err


def test_verify_lemma4_cli(capsys):
    code, doc, _ = run_json(
        ["verify", "lemma4", "--n", "2", "--q", "4", "--trials", "5"], capsys)
    assert code == 0
    assert doc["evidence"]["trials"] == 5
    assert doc["evidence"]["failures"] == 0
    assert main(["verify", "lemma4", "--n", "2", "--q", "5"]) == 3
    capsys.readouterr()
    code, doc, _ = run_json(
        ["verify", "lemma4", "--n", "2", "--q", "4", "--trials", "5", "--seed", "3"], capsys)
    assert code == 0 and doc["evidence"]["trials"] == 5
    # --seed belongs to lemma4 alone, the one command with randomized trials
    with pytest.raises(SystemExit) as exc:
        main(["order", "--group", S4, "--seed", "3"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_lemma4_needs_a_trial(trials, capsys):
    assert main(["verify", "lemma4", "--n", "2", "--q", "4", "--trials", trials]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least one randomized trial" in err


def test_verify_example_cli(capsys):
    code, doc, _ = run_json(["verify", "example", "--p", "7"], capsys)
    assert code == 0
    assert doc["status"] == "pass"
    names = [sub["name"] for sub in doc["evidence"]["sub_checks"]]
    assert names == ["unique_chief_series", "klein_classes_in_K", "fusion_in_G",
                     "sections_supersolvable", "maximals_of_K"]
    assert all(sub["status"] == "pass" for sub in doc["evidence"]["sub_checks"])


def test_verify_example_rejects_bad_p(capsys):
    assert main(["verify", "example", "--p", "5"]) == 3
    assert "prime congruent" in capsys.readouterr().err
    for p in ("23", "8191", "65521"):
        assert main(["verify", "example", "--p", p]) == 3
        assert "exceeds element cap 10000" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "example", "--p", "17", "--allow-large"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


def test_report_round_trip():
    G = build_group(parse_group_spec(S4))
    report = check_hypothesis(G, subject="S4")
    doc = json.loads(emit_report(report))
    fields = ("subject", "check", "status", "evidence", "completeness")
    assert VerdictReport(**{k: doc[k] for k in fields}) == report
    assert doc["version"] == __version__


def test_store_appends_once(tmp_path, capsys):
    store = tmp_path / "reports.jsonl"
    for _ in range(2):
        assert main(["hypothesis", "--group", S4, "--store", str(store)]) == 0
    capsys.readouterr()
    lines = [ln for ln in store.read_text().splitlines() if ln]
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["check"] == "hypothesis"
    assert rec["version"] == __version__
    assert "timestamp" in rec


def test_store_append_after_torn_last_line(tmp_path, capsys):
    store = tmp_path / "reports.jsonl"
    assert main(["order", "--group", S4, "--store", str(store)]) == 0
    store.write_text(store.read_text().rstrip("\n"))  # a crash before the newline
    assert main(["hypothesis", "--group", S4, "--store", str(store)]) == 0
    assert main(["order", "--group", S4, "--store", str(store)]) == 0  # still a duplicate
    capsys.readouterr()
    records = [json.loads(ln) for ln in store.read_text().splitlines()]
    assert [rec["check"] for rec in records] == ["order", "hypothesis"]


def test_store_keeps_skipping_an_earlier_glued_line(tmp_path, capsys):
    store = tmp_path / "reports.jsonl"
    store.write_text('{"check": "order"}{"check": "hypothesis"}')
    assert main(["order", "--group", S4, "--store", str(store)]) == 0
    err = capsys.readouterr().err
    assert err == f"warning: store {store}: skipped 1 unreadable line(s)\n"
    lines = store.read_text().splitlines()
    assert lines[0] == '{"check": "order"}{"check": "hypothesis"}'
    assert len(lines) == 2 and json.loads(lines[1])["check"] == "order"


def test_store_warns_on_every_append_from_its_index(tmp_path, capsys):
    store = tmp_path / "reports.jsonl"
    store.write_text('{"check": "order"}{"check": "hypothesis"}\n')
    for group in (S4, S4, V4):
        assert main(["order", "--group", group, "--store", str(store)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: store {store}: skipped 1 unreadable line(s)\n"
    assert len(store.read_text().splitlines()) == 3


def test_store_append_reads_the_index_not_the_records(tmp_path, monkeypatch):
    store = str(tmp_path / "big.jsonl")
    records = [{"check": "order", "subject": f"G{i}", "status": "pass"} for i in range(5000)]
    assert cli._store_records(store, records) == 5000
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    assert cli._store_records(store, [dict(records[7], timestamp="later")]) == 0
    assert cli._store_records(store, [{"check": "order", "subject": "new", "status": "pass"}]) == 1
    assert parsed == []
    monkeypatch.undo()
    assert len(Path(store).read_text().splitlines()) == 5001


def test_store_rebuilds_a_stale_index(tmp_path):
    store = tmp_path / "reports.jsonl"
    a, b, c = ({"check": "order", "subject": s, "status": "pass"} for s in "abc")
    assert cli._store_records(str(store), [a]) == 1
    with open(store, "a", encoding="utf-8") as fh:  # a writer that skips the index
        fh.write(json.dumps(b, sort_keys=True) + "\n")
    assert cli._store_records(str(store), [b, c]) == 1
    assert [json.loads(ln)["subject"] for ln in store.read_text().splitlines()] == ["a", "b", "c"]
    store.write_text(json.dumps(c, sort_keys=True) + "\n")  # the index still lists a and b
    assert cli._store_records(str(store), [a, c]) == 1
    assert [json.loads(ln)["subject"] for ln in store.read_text().splitlines()] == ["c", "a"]
    Path(f"{store}.keys").write_text("garbage")  # a torn index
    assert cli._store_records(str(store), [a, b]) == 1


def _append_in_batches(path, records, stamp, barrier):
    key = cli._record_key

    def slow_key(doc):  # a slow dedup widens the gap between reading and appending
        time.sleep(0.002)
        return key(doc)

    cli._record_key = slow_key  # this process only
    for start in range(0, len(records), 10):
        barrier.wait()  # both writers take each batch at the same moment
        cli._store_records(path, [dict(rec, timestamp=stamp) for rec in records[start:start + 10]])


def test_store_concurrent_appends_keep_one_copy(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    store = tmp_path / "shared.jsonl"
    records = [{"check": "order", "subject": f"G{i}", "status": "pass"} for i in range(40)]
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_append_in_batches, args=(str(store), records, stamp, barrier))
               for stamp in ("first", "second")]
    for w in writers:
        w.start()
    for w in writers:
        w.join(60)
    assert [w.exitcode for w in writers] == [0, 0]
    text = store.read_text()
    assert text.endswith("\n")
    docs = [json.loads(ln) for ln in text.split("\n")[:-1]]  # a torn line fails to parse
    assert sorted(d["subject"] for d in docs) == sorted(r["subject"] for r in records)


def test_store_env_fallback_and_flag_override(tmp_path, capsys, monkeypatch):
    env_store = tmp_path / "env.jsonl"
    flag_store = tmp_path / "flag.jsonl"
    monkeypatch.setenv("CSECTION_STORE", str(env_store))
    assert main(["order", "--group", S4]) == 0
    assert main(["order", "--group", S4, "--store", str(flag_store)]) == 0
    capsys.readouterr()
    assert len(env_store.read_text().splitlines()) == 1
    assert len(flag_store.read_text().splitlines()) == 1


def test_scan_small_battery(capsys):
    battery = builtin_battery(30)
    code = main(["scan", "--max-order", "30", "--workers", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == len(battery) + 1
    for line, entry in zip(lines, battery):
        assert line == f"[PASS] {entry.label} order={entry.order}"
    assert lines[-1] == (f"scan: {len(battery)} groups, {len(battery)} pass, "
                         "0 fail, 0 inconclusive")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_scan_rejects_fewer_than_one_worker(workers, capsys):
    assert main(["scan", "--max-order", "12", "--workers", workers]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "--workers must be at least 1" in err


def test_scan_parallel_matches_serial(capsys):
    code1 = main(["scan", "--max-order", "24", "--workers", "1", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["scan", "--max-order", "24", "--workers", "2", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    docs = [json.loads(ln) for ln in out1.strip().splitlines()]
    assert docs[-1] == {"summary": {"pass": len(docs) - 1, "fail": 0,
                                    "inconclusive": 0}}
    assert all(set(doc) == REPORT_KEYS for doc in docs[:-1])


def test_scan_store_is_idempotent(tmp_path, capsys):
    store = tmp_path / "scan.jsonl"
    battery = builtin_battery(12)
    assert main(["scan", "--max-order", "12", "--workers", "1",
                 "--store", str(store)]) == 0
    first = capsys.readouterr().out
    assert f"store: {len(battery)} new record(s) -> {store}" in first
    assert main(["scan", "--max-order", "12", "--workers", "1",
                 "--store", str(store)]) == 0
    second = capsys.readouterr().out
    assert f"store: 0 new record(s) -> {store}" in second
    records = [json.loads(ln) for ln in store.read_text().splitlines() if ln]
    assert len(records) == len(battery)
    assert {rec["subject"] for rec in records} == {b.label for b in battery}
    for rec in records:
        assert "spec" in rec and "timestamp" in rec
