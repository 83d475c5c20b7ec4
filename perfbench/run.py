"""The csection benchmark: one workload, one Python process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Every op is a real command, `csection.cli.main(argv)`, called in-process with
stdout captured; its JSON report is checked against a verdict derived from
group theory (see workloads.py).  A run sets up (fresh import of the package
from `src/`, seeded spec generation, one warm-up pass that fills the
process-wide caches), then runs whole passes over the op list until
`--seconds` have passed, and at least two.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs one untraced pass,
then traced passes, and reports per-layer metrics per pass.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 20
SETUP_REPEATS = 3
WORK_DIR = HERE / "_work"

# name, unit, better, bound (allowed worsening as a share of the parent's
# median).  Timings get the largest bound allowed: on a shared 2-vCPU host the
# same pass varies up to 2x within a minute (CHOICES.md, "Noise").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("complete_share", "ratio", "higher", 0.01),
)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in spans.metric_specs()],
    }


# -- the program ----------------------------------------------------------------

def fresh_import():
    """Import csection from this checkout's src/, dropping any earlier copy so
    module-level caches start empty."""
    src = ROOT / "src"
    if not (src / "csection" / "__init__.py").is_file():
        raise SystemExit(f"error: no csection package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "csection" or m.startswith("csection.")]:
        del sys.modules[name]
    csection = importlib.import_module("csection")
    importlib.import_module("csection.cli")
    if not Path(csection.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported csection from {csection.__file__}, not {src}")
    return csection


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise SystemExit(f"error: no oracle module at {path}")
    spec = importlib.util.spec_from_file_location("csection_test_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["csection.cli"].main(argv)
    return rc, buf.getvalue()


# -- passes -----------------------------------------------------------------------

class Tally:
    """Verdict classes over every op run, plus the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.problems: list[str] = []

    def add(self, label: str, verdict: str, problems: list[str]) -> None:
        self.attempted += 1
        if verdict == "failed":
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")
        elif verdict == "inconclusive":
            self.inconclusive += 1

    def flag(self, problem: str, count: int = 1) -> None:
        """A failed check that is not one op's verdict."""
        self.failed += count
        self.problems.append(problem)


def run_pass(ops, tally: Tally, store: Path | None):
    """One pass over the op list; returns (wall s, cpu s, op latencies s, reports)."""
    if store is not None and store.exists():
        store.unlink()
    gc.collect()
    outputs = []
    latencies = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            outputs.append(call(op.argv))
        except (Exception, SystemExit) as e:     # a crash is a failed op, not a crashed run
            outputs.append(e)
        latencies.append(time.perf_counter() - s)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    stored = {}
    if store is not None and store.exists():
        for line in store.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            stored[doc["subject"]] = doc["status"]
    reports = []
    for op, out in zip(ops, outputs):
        if isinstance(out, BaseException):
            reports.append(None)
            tally.add(op.label, "failed", [f"raised {type(out).__name__}: {out}"])
            continue
        rc, text = out
        try:
            report = json.loads(text.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            reports.append(None)
            tally.add(op.label, "failed", [f"exit {rc}, no JSON report: {text[:200]!r}"])
            continue
        verdict, problems = workloads.judge(op, rc, report)
        if store is not None and stored.get(report["subject"]) != report["status"]:
            verdict, problems = "failed", problems + ["report missing from the store"]
        reports.append(report)
        tally.add(op.label, verdict, problems)
    return wall, cpu, latencies, reports


def measure(ops, tally, store, seconds: float, min_passes: int):
    """Whole passes until `seconds` have passed and at least `min_passes` ran."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tally, store))
    return passes


def tail_mean(latencies: list[float], share: float = 0.1) -> tuple[float, int]:
    """Mean latency of the slowest `share` of the ops (rounded up, at least
    one), as (value, ops averaged)."""
    xs = sorted(latencies, reverse=True)
    k = max(1, math.ceil(share * len(xs)))
    return sum(xs[:k]) / k, k


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above it,
    as (value, percentile, samples above); the maximum when that percentile
    would be below the median (fewer than 20 samples)."""
    xs = sorted(latencies)
    k = len(xs) - 10
    if len(xs) < 20:
        return xs[-1], 100.0, 0
    return xs[k - 1], 100.0 * k / len(xs), 10


# -- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    oracles = load_oracles()
    store = None
    if args.workload == "scan-theorem":
        WORK_DIR.mkdir(exist_ok=True)
        store = WORK_DIR / f"store-{os.getpid()}.jsonl"
    try:
        return _run(args, oracles, store)
    finally:
        if store is not None and store.exists():
            store.unlink()


def _run(args, oracles, store) -> int:
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        csection = fresh_import()
        ops = workloads.make_ops(args.workload, args.seed, csection,
                                 str(store) if store else None)
        setups.append(time.perf_counter() - t0)
    warm_wall = run_pass(ops, tally, store)[0]
    setup_s = statistics.median(setups) + warm_wall

    # Independent order check of every generated spec (untimed).
    for op in ops:
        if op.structure is not None and \
                len(oracles.generated(op.degree, op.generators)) != op.structure.order:
            tally.flag(f"{op.label}: spec does not generate a group of order {op.structure.order}")

    if args.trace:
        return _run_traced(args, ops, tally, store)

    passes = measure(ops, tally, store, args.seconds, min_passes=2)
    walls = [p[0] for p in passes]
    tails = [tail(p[2]) for p in passes]
    tail_means = [tail_mean(p[2]) for p in passes]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p[1] for p in passes),
        "op_p50_ms": 1000 * statistics.median(statistics.median(p[2]) for p in passes),
        "op_tail_ms": 1000 * statistics.median(t[0] for t in tail_means),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "complete_share": 1 - tally.inconclusive / tally.attempted,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} measured passes, setup {['%.3f' % s for s in setups]} s "
          f"+ warm-up pass {warm_wall:.3f} s")
    print(f"op_tail_ms is the mean of the slowest {tail_means[0][1]} of {len(ops)} ops "
          f"per pass, median over passes; p{tails[0][1]:.1f} ({tails[0][2]} ops beyond) "
          f"is {1000 * statistics.median(t[0] for t in tails):.6g} ms, median over passes")
    print(f"drift: first pass {walls[0]:.3f} s, last pass {walls[-1]:.3f} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return _finish(tally, {n: {"value": v, "unit": units[n]} for n, v in metrics.items()})


def _run_traced(args, ops, tally, store) -> int:
    ref_wall, _, _, ref_reports = run_pass(ops, tally, store)
    with spans.Tracer() as tracer:
        passes = measure(ops, tally, store, args.seconds, min_passes=1)
    mismatched = sum(1 for p in passes for a, b in zip(p[3], ref_reports) if a != b)
    if mismatched:
        tally.flag(f"{mismatched} traced reports differ from the untraced pass", mismatched)
    values = tracer.metrics(len(passes))
    traced_wall = statistics.median(p[0] for p in passes)
    zero = [m for m in spans.PREDICTED_NONZERO.get(args.workload, ()) if not values[m]]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} traced passes; "
          f"untraced pass {ref_wall:.3f} s, traced pass {traced_wall:.3f} s, "
          f"tracing overhead {traced_wall - ref_wall:+.3f} s")
    print("trace self-check: " + ("ok" if not zero and not tracer.missing else
                                  f"zero {zero}, missing {tracer.missing}"))
    units = {n: u for n, u, _ in spans.metric_specs()}
    return _finish(tally, {n: {"value": v, "unit": units[n]} for n, v in values.items()})


def _finish(tally: Tally, metrics: dict) -> int:
    for line in tally.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
