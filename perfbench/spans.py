"""Per-layer spans, recorded from outside the program.

The tracer replaces each listed function with a timing wrapper in every
`csection` module that holds a reference to it (names copied by `from .x
import f` included), and patches methods and constructors on their class.
A span's self time is its duration minus the time covered by child spans.
Nothing in the package is edited; `uninstall` restores the originals.  A
function that no longer exists is reported with zero calls, so the same
benchmark code can measure a later version of the program.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute): a function, a class (its constructor is timed), or a method.
SPANS = (
    ("catalog", "build_group"),
    ("groups", "PermGroup"),
    ("groups", "coset_action"),
    ("groups", "normalizer"),
    ("tables", "ElementTable"),
    ("tables", "element_table"),
    ("tables", "ElementTable.closure"),
    ("tables", "ElementTable.conjugacy_classes"),
    ("matgroups", "triangular_instance"),
    ("matgroups", "conjugation_check"),
    ("lattice", "all_subgroups"),
    ("lattice", "maximal_subgroups"),
    ("lattice", "certify_maximal"),
    ("lattice", "normal_subgroups"),
    ("series", "chief_series"),
    ("series", "composition_factors"),
    ("iso", "identify"),
    ("iso", "is_isomorphic"),
    ("iso", "fingerprint"),
    ("sections", "sec"),
    ("sections", "chief_pairs_for_maximal"),
    ("cli", "main"),
)

# Derived metrics beyond calls / s / self_s, with unit and direction.
EXTRAS = (
    ("tables.ElementTable.cayley", "count", "higher",
     "element tables that took the numpy Cayley-table path"),
    ("tables.element_table.hit_ratio", "ratio", "higher",
     "element_table calls answered from the group's memo, over calls"),
    ("tables.ElementTable.mul.calls", "count", "lower", "ElementTable.mul calls, counted, not timed"),
    ("tables.ElementTable.closure.aborted_ratio", "ratio", "lower",
     "closure calls that returned None, over calls"),
    ("lattice.all_subgroups.classes", "count", "lower", "subgroup classes returned"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for mod, attr in SPANS:
        base = f"{mod}.{attr}"
        out += [(f"{base}.calls", "count", "lower"), (f"{base}.s", "s", "lower"),
                (f"{base}.self_s", "s", "lower")]
    return out + [(name, unit, better) for name, unit, better, _ in EXTRAS]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts = {"cayley": 0, "mul": 0, "et_hits": 0, "aborted": 0, "classes": 0}
        self.missing: list[str] = []
        self._depth: dict[str, int] = {}
        self._stack: list[float] = []      # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        calls, total, selft, depth, stack = (self.calls, self.total, self.self_time,
                                             self._depth, self._stack)
        clock = time.perf_counter
        for d in (calls, total, selft):
            d[name] = 0 if d is calls else 0.0
        depth[name] = 0

        def wrapper(*args, **kwargs):
            depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[name] -= 1
                calls[name] += 1
                selft[name] += dt - child
                if depth[name] == 0:       # inclusive time counts the outermost call only
                    total[name] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "csection" or modname.startswith("csection.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    # -- install ------------------------------------------------------------

    def install(self) -> "Tracer":
        import csection  # noqa: F401  (the package must be importable first)
        counts = self.counts
        for modname, attr in SPANS:
            name = f"{modname}.{attr}"
            mod = sys.modules.get(f"csection.{modname}")
            head, _, method = attr.partition(".")
            target = getattr(mod, head, None)
            if isinstance(target, type):
                method = method or "__init__"
            if target is None or (method and method not in vars(target)):
                self.missing.append(name)
                for d in (self.calls, self.total, self.self_time):
                    d[name] = 0
                continue
            if method:
                after = None
                if attr == "ElementTable.closure":
                    def after(args, result):
                        if result is None:
                            counts["aborted"] += 1
                self._set(target, method, self._span(name, vars(target)[method], after))
            else:
                after = None
                if attr == "all_subgroups":
                    def after(args, result):
                        counts["classes"] += len(result)
                self._rebind(target, self._span(name, target, after))
        self._install_table_counters(sys.modules.get("csection.tables"))
        return self

    def _install_table_counters(self, tables) -> None:
        counts = self.counts
        cls = getattr(tables, "ElementTable", None)
        if cls is None:
            return
        if "mul" in vars(cls):
            mul = vars(cls)["mul"]

            def counted_mul(table, *args):
                counts["mul"] += 1
                return mul(table, *args)
            self._set(cls, "mul", counted_mul)
        if "_build_table" in vars(cls):
            build = vars(cls)["_build_table"]

            def counted_build(table):
                counts["cayley"] += 1
                return build(table)
            self._set(cls, "_build_table", counted_build)
        if "tables.element_table" not in self.missing:
            # A call that constructs no ElementTable was a memo hit.
            built = self.calls
            timed = vars(tables)["element_table"]   # the timing wrapper installed above

            def element_table(*args, **kwargs):
                before = built.get("tables.ElementTable", 0)
                result = timed(*args, **kwargs)
                if built.get("tables.ElementTable", 0) == before:
                    counts["et_hits"] += 1
                return result
            self._rebind(timed, element_table)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per pass."""
        out: dict[str, float] = {}
        for modname, attr in SPANS:
            name = f"{modname}.{attr}"
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.s"] = self.total[name] / passes
            out[f"{name}.self_s"] = self.self_time[name] / passes
        c = self.counts
        et_calls = self.calls["tables.element_table"]
        closures = self.calls["tables.ElementTable.closure"]
        out["tables.ElementTable.cayley"] = c["cayley"] / passes
        out["tables.element_table.hit_ratio"] = c["et_hits"] / et_calls if et_calls else 0.0
        out["tables.ElementTable.mul.calls"] = c["mul"] / passes
        out["tables.ElementTable.closure.aborted_ratio"] = c["aborted"] / closures if closures else 0.0
        out["lattice.all_subgroups.classes"] = c["classes"] / passes
        return out

# The layer metrics each workload is predicted to move (CHOICES.md has the
# full table); a traced run reports any of them that read zero, which means a
# wrapper missed its target.
PREDICTED_NONZERO = {
    "scan-theorem": ("lattice.all_subgroups.s", "lattice.maximal_subgroups.s",
                     "tables.ElementTable.closure.s", "tables.ElementTable.mul.calls",
                     "lattice.normal_subgroups.s", "iso.is_isomorphic.s", "iso.identify.s",
                     "sections.sec.s", "cli.main.self_s"),
    "lemma1-sections": ("lattice.all_subgroups.s", "lattice.maximal_subgroups.s",
                        "groups.PermGroup.calls", "groups.PermGroup.s", "groups.coset_action.s",
                        "sections.chief_pairs_for_maximal.s"),
    "large-groups": ("tables.ElementTable.closure.s", "tables.ElementTable.mul.calls",
                     "lattice.normal_subgroups.s", "tables.ElementTable.s",
                     "tables.ElementTable.cayley", "iso.is_isomorphic.s", "iso.identify.s",
                     "groups.normalizer.s", "matgroups.triangular_instance.s",
                     "matgroups.conjugation_check.s"),
}
