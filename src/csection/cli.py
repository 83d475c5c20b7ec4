"""Command-line surface.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 usage or input error,
4 internal error (a broken invariant or any other unexpected exception, never
a verdict).
Informational commands (order, maximals, sec) exit 0 on success.  The scan
command folds its battery of theorem checks into the worst verdict seen and
can persist line-delimited records to an append-only store; identical records
(timestamp aside) are never written twice.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import os
import sys
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .catalog import build_group, builtin_battery, parse_group_spec
from .groups import CapExceededError
from .sections import (VerdictReport, check_conclusion, check_hypothesis, sec,
                       verify_example, verify_lemma1, verify_lemma2a, verify_lemma3,
                       verify_lemma4, verify_theorem_instance)
from .tables import MAX_ORDER

_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}
USAGE_ERROR = 3
INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"error: {message}\n")


def report_to_dict(report: VerdictReport) -> dict:
    return {"subject": report.subject, "check": report.check, "status": report.status,
            "evidence": report.evidence, "completeness": report.completeness,
            "version": __version__}


def emit_report(report: VerdictReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def _print_report(report: VerdictReport, as_json: bool) -> None:
    if as_json:
        print(emit_report(report))
        return
    print(f"[{report.status.upper()}] {report.check}: {report.subject} "
          f"(complete={report.completeness})")
    for key, value in report.evidence.items():
        print(f"  {key}: {value}")


def _load_group(arg: str, max_order: int, degree_cap: int):
    text = arg
    if not arg.lstrip().startswith("{"):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec = parse_group_spec(text)
    return spec, build_group(spec, max_order=max_order, degree_cap=degree_cap)


def _store_path(args) -> Optional[str]:
    return args.store or os.environ.get("CSECTION_STORE")


def _store_records(path: str, records: list[dict]) -> int:
    """Append records not already present (content-addressed, timestamp aside).

    Lines that do not parse (say, two records glued by a crash) are skipped,
    left in place and counted in one warning on stderr.

    An exclusive lock on the store is held across the read, the dedup and the
    append, so concurrent writers never store a record twice; the new lines go
    out in one write to an append-only descriptor, so no line is torn.  The
    record keys live in an index beside the store (`_StoreIndex`), kept under
    the same lock, so an append reads the index, not every stored line.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        index = _StoreIndex.load(path, os.fstat(fd))
        if index is None:
            index = _StoreIndex.rebuild(path, fd)
        if index.skipped:
            print(f"warning: store {path}: skipped {index.skipped} unreadable line(s)",
                  file=sys.stderr)
        lines, keys = [], []
        for rec in records:
            key = _record_key(rec)
            if key in index.keys:
                continue
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
            keys.append(key)
            index.keys.add(key)
        if lines:
            # a torn last line (a crash before its newline) must not join the next
            size = os.fstat(fd).st_size
            torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
            payload = (("\n" if torn else "") + "".join(lines)).encode("utf-8")
            if os.write(fd, payload) != len(payload):
                raise OSError(f"short write to the store {path}")
        index.save(os.fstat(fd), keys)
    finally:
        os.close(fd)  # releases the lock
    return len(lines)


class _StoreIndex:
    """The record keys of a store, kept in `<store>.keys` under the store's lock.

    The file holds one key a line; each write ends with a stamp line
    `@<size> <mtime_ns> <skipped>` giving the store's size and modification
    time after that write and its count of unreadable lines.  The index is used
    only when its last stamp matches the store as it is now; otherwise (no
    index, a crash between the two writes, a store edited or appended by other
    means) it is rebuilt from the store's lines and written whole.
    """

    SUFFIX = ".keys"

    def __init__(self, path: str, keys: set[str], skipped: int,
                 stamp: Optional[tuple[int, int]]):
        self.path = path + self.SUFFIX
        self.keys = keys
        self.skipped = skipped
        self.stamp = stamp  # None when rebuilt: the file is missing or stale

    @classmethod
    def load(cls, path: str, st: os.stat_result) -> Optional["_StoreIndex"]:
        try:
            with open(path + cls.SUFFIX, "r", encoding="ascii") as fh:
                lines = fh.read().split("\n")
        except (OSError, UnicodeDecodeError):
            return None
        if len(lines) < 2 or lines[-1] or not lines[-2].startswith("@"):
            return None  # a torn or foreign file
        try:
            size, mtime, skipped = map(int, lines[-2][1:].split())
        except ValueError:
            return None
        if (size, mtime) != (st.st_size, st.st_mtime_ns):
            return None
        return cls(path, {ln for ln in lines[:-2] if not ln.startswith("@")}, skipped,
                   (size, mtime))

    @classmethod
    def rebuild(cls, path: str, fd: int) -> "_StoreIndex":
        with open(fd, "rb", closefd=False) as fh:
            fh.seek(0)
            data = fh.read()
        keys = set()
        skipped = 0
        for line in data.decode("utf-8").split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            keys.add(_record_key(doc))
        return cls(path, keys, skipped, None)

    def save(self, st: os.stat_result, new_keys: list[str]) -> None:
        """Record the keys added to a store that now has stat `st`.  A torn
        write leaves no stamp last, so the next append rebuilds the index."""
        stamp = (st.st_size, st.st_mtime_ns)
        if stamp == self.stamp:
            return  # nothing was appended
        tail = f"@{stamp[0]} {stamp[1]} {self.skipped}\n"
        if self.stamp is None:
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write("".join(k + "\n" for k in self.keys) + tail)
            os.replace(tmp, self.path)
        else:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, ("".join(k + "\n" for k in new_keys) + tail).encode("ascii"))
            finally:
                os.close(fd)


def _record_key(doc: dict) -> str:
    import hashlib  # it loads OpenSSL, about 3.6 MB of RSS that only store writes need

    core = {k: v for k, v in doc.items() if k != "timestamp"}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _scan_worker(payload: tuple[str, str, int, int]) -> dict:
    label, spec_json, max_order, degree_cap = payload
    spec = parse_group_spec(spec_json)
    G = build_group(spec, max_order=max_order, degree_cap=degree_cap)
    report = verify_theorem_instance(G, subject=label)
    return report_to_dict(report)


def _add_common(p: argparse.ArgumentParser, *, max_order_default: int = MAX_ORDER) -> None:
    p.add_argument("--max-order", type=int, default=max_order_default,
                   help="largest group order accepted (default %(default)s)")
    p.add_argument("--degree-cap", type=int, default=5000,
                   help="largest permutation degree accepted (default %(default)s)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--store", default=None,
                   help="append report to this JSONL store (or $CSECTION_STORE)")


def _finish(args, report: VerdictReport) -> int:
    _print_report(report, args.json)
    path = _store_path(args)
    if path:
        rec = report_to_dict(report)
        rec["timestamp"] = _timestamp()
        _store_records(path, [rec])
    return _EXIT[report.status]


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="csection",
                     description="maximal-subgroup section toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_order = subs.add_parser("order", parents=[], help="order of a group spec")
    p_order.add_argument("--group", required=True)
    _add_common(p_order)

    p_max = subs.add_parser("maximals", help="maximal subgroup classes")
    p_max.add_argument("--group", required=True)
    _add_common(p_max)

    p_sec = subs.add_parser("sec", help="section of one maximal class")
    p_sec.add_argument("--group", required=True)
    p_sec.add_argument("--maximal-index", type=int, default=0,
                       help="0-based index into the descending-order class list")
    p_sec.add_argument("--verify", action="store_true",
                       help="cross-check all chief pairs agree")
    _add_common(p_sec)

    p_hyp = subs.add_parser("hypothesis", help="all sections supersolvable?")
    p_hyp.add_argument("--group", required=True)
    _add_common(p_hyp)

    p_conc = subs.add_parser("conclusion", help="composition factor membership")
    p_conc.add_argument("--group", required=True)
    _add_common(p_conc)

    p_thm = subs.add_parser("theorem", help="hypothesis implies conclusion")
    p_thm.add_argument("--group", required=True)
    _add_common(p_thm)

    p_ver = subs.add_parser("verify", help="verify a named statement")
    vsubs = p_ver.add_subparsers(dest="statement", required=True)
    v1 = vsubs.add_parser("lemma1")
    v1.add_argument("--group", required=True)
    _add_common(v1)
    v2 = vsubs.add_parser("lemma2a")
    v2.add_argument("--n", type=int, required=True)
    _add_common(v2)
    v3 = vsubs.add_parser("lemma3")
    v3.add_argument("--n", type=int, required=True)
    _add_common(v3)
    v4 = vsubs.add_parser("lemma4")
    v4.add_argument("--n", type=int, required=True)
    v4.add_argument("--q", type=int, required=True)
    v4.add_argument("--trials", type=int, default=100)
    v4.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized trials (default %(default)s)")
    _add_common(v4)
    vex = vsubs.add_parser("example")
    vex.add_argument("--p", type=int, default=7)
    _add_common(vex)

    p_scan = subs.add_parser("scan", help="theorem check over the built-in battery")
    p_scan.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    _add_common(p_scan, max_order_default=500)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, CapExceededError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # MemoryError included: a bug must never read as `fail`
        message = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return INTERNAL_ERROR


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "order":
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        report = VerdictReport(subject=spec.canonical(), check="order", status="pass",
                               evidence={"order": G.order, "degree": G.degree},
                               completeness=True)
        return _finish(args, report)

    if cmd == "maximals":
        from .lattice import maximal_subgroups
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        classes = maximal_subgroups(G)
        complete = all(c.verified_complete for c in classes) if classes else True
        report = VerdictReport(
            subject=spec.canonical(), check="maximals",
            status="pass" if complete else "inconclusive",
            evidence={"orders": [c.order for c in classes],
                      "class_counts": [c.class_size for c in classes],
                      "indices": [G.order // c.order for c in classes]},
            completeness=complete)
        return _finish(args, report)

    if cmd == "sec":
        from .lattice import maximal_subgroups
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        classes = maximal_subgroups(G)
        if not 0 <= args.maximal_index < len(classes):
            raise ValueError(f"maximal-index out of range 0..{len(classes) - 1}")
        cls = classes[args.maximal_index]
        s = sec(G, cls, verify=args.verify)
        report = VerdictReport(
            subject=spec.canonical(), check="sec", status="pass",
            evidence={"maximal_order": cls.order, "section_order": s.order,
                      "section_id": str(s.identified),
                      "supersolvable": s.supersolvable,
                      "pair": {"k_order": s.source_pair.K.order,
                               "l_order": s.source_pair.L.order}},
            completeness=True)
        return _finish(args, report)

    if cmd == "hypothesis":
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        return _finish(args, check_hypothesis(G, subject=spec.canonical()))

    if cmd == "conclusion":
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        return _finish(args, check_conclusion(G, subject=spec.canonical()))

    if cmd == "theorem":
        spec, G = _load_group(args.group, args.max_order, args.degree_cap)
        return _finish(args, verify_theorem_instance(G, subject=spec.canonical()))

    if cmd == "verify":
        st = args.statement
        if st == "lemma1":
            spec, G = _load_group(args.group, args.max_order, args.degree_cap)
            return _finish(args, verify_lemma1(G, subject=spec.canonical()))
        if st == "lemma2a":
            return _finish(args, verify_lemma2a(args.n))
        if st == "lemma3":
            return _finish(args, verify_lemma3(args.n))
        if st == "lemma4":
            return _finish(args, verify_lemma4(args.n, args.q, trials=args.trials,
                                               seed=args.seed))
        if st == "example":
            return _finish(args, verify_example(args.p))
        raise ValueError(f"unknown statement {st!r}")

    if cmd == "scan":
        return _run_scan(args)

    raise ValueError(f"unknown command {cmd!r}")


def _run_scan(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    battery = builtin_battery(args.max_order)
    payloads = [(b.label, b.spec.canonical(), args.max_order, args.degree_cap)
                for b in battery]
    results: dict[str, dict] = {}
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 1.2 MB of RSS; parallel scans only

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for doc in pool.map(_scan_worker, payloads):
                results[doc["subject"]] = doc
    else:
        for payload in payloads:
            doc = _scan_worker(payload)
            results[doc["subject"]] = doc

    records = []
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for b in battery:
        doc = results[b.label]
        counts[doc["status"]] += 1
        if args.json:
            print(json.dumps(doc, sort_keys=True))
        else:
            vac = " (vacuous)" if doc["evidence"].get("vacuous") else ""
            print(f"[{doc['status'].upper()}] {b.label} order={b.order}{vac}")
        rec = dict(doc)
        rec["spec"] = b.spec.to_dict()
        rec["timestamp"] = _timestamp()
        records.append(rec)
    summary = (f"scan: {len(battery)} groups, {counts['pass']} pass, "
               f"{counts['fail']} fail, {counts['inconclusive']} inconclusive")
    print(summary if not args.json else json.dumps({"summary": counts}))
    path = _store_path(args)
    if path:
        written = _store_records(path, records)
        if not args.json:
            print(f"store: {written} new record(s) -> {path}")
    if counts["fail"]:
        return _EXIT["fail"]
    if counts["inconclusive"]:
        return _EXIT["inconclusive"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
