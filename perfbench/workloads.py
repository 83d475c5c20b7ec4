"""Seeded op lists for the four benchmark workloads, and the expected verdict
of every op, derived from group theory rather than from the program.

Each op is one `csection` command line.  Groups reach the program only as
explicit `perm` specs whose points the seed relabels, so a named constructor
never runs inside an op and no op inherits another op's cached group.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = {
    "scan-theorem": "theorem on all 71 battery groups of order <= 500, fresh store per pass; "
                    "full subgroup lattice on many small groups, the only cli/store workload",
    "lemma1-sections": "lemma1 on battery groups of order <= 200 plus PGL2(7); every chief pair "
                       "cut out and quotiented, so stabilizer chains and coset actions dominate",
    "large-groups": "conclusion on L2(11), L2(13), PGL2(9), PGL2(11), L2(17) and lemma4 on SL(n,q) "
                    "up to order 60480; no lattice: closure, Cayley tables, matrix groups, "
                    "orbit normalizer",
}

LEMMA4_CASES = ((2, 4), (2, 8), (2, 9), (3, 4))
CONCLUSION_GROUPS = (("PSL2", 11), ("PSL2", 13), ("PGL2", 9), ("PGL2", 11), ("PSL2", 17))


# -- group theory used by the expected verdicts --------------------------------



def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def l2_order(q: int) -> int:
    """|L2(q)| = q(q^2 - 1) / gcd(2, q - 1)."""
    return q * (q * q - 1) // math.gcd(2, q - 1)


@dataclass(frozen=True)
class Simple:
    """A nonabelian simple composition factor: A_n or L2(q)."""

    kind: str   # "alt" | "l2"
    param: int

    @property
    def order(self) -> int:
        return math.factorial(self.param) // 2 if self.kind == "alt" else l2_order(self.param)

    def allowed(self) -> bool:
        """The theorem's conclusion admits L2(p), p prime, p = +-1 mod 8.  The
        coincidences A5 = L2(4) = L2(5), A6 = L2(9) and L2(7) = L3(2) do not
        add a prime field size +-1 mod 8 to any factor here."""
        if self.kind == "alt":
            return False   # A5 = L2(5) with 5 = 5 mod 8, A6 = L2(9), A_n (n >= 7) not L2
        return _is_prime(self.param) and self.param % 8 in (1, 7)


@dataclass(frozen=True)
class Structure:
    """Order, nonabelian composition factors, and whether the group is
    known to be supersolvable (None when the rule below does not decide)."""

    order: int
    simples: tuple[Simple, ...] = ()
    supersolvable: Optional[bool] = None

    def conclusion(self) -> str:
        return "pass" if all(s.allowed() for s in self.simples) else "fail"


def _flat_structure(name: str, params: tuple) -> Structure:
    if name in ("Cyclic", "Dihedral", "ElemAbelian"):
        order = {"Cyclic": lambda n: n, "Dihedral": lambda m: 2 * m,
                 "ElemAbelian": lambda p, k: p ** k}[name](*params)
        return Structure(order, (), True)     # abelian and dihedral groups are supersolvable
    if name in ("Sym", "Alt"):
        n = params[0]
        order = math.factorial(n) // (1 if name == "Sym" else 2)
        simples = (Simple("alt", n),) if n >= 5 else ()
        return Structure(order, simples, n <= 3)   # S4 and A4 have the non-cyclic chief factor V4
    if name in ("PSL2", "PGL2", "SL"):
        q = params[-1]
        if name == "SL" and params[0] != 2:
            raise ValueError("only SL(2, q) appears as a named group")
        order = l2_order(q) if name == "PSL2" else q * (q * q - 1)
        if q == 2:
            return Structure(order, (), True)      # all three are S3
        if q == 3:
            return Structure(order, (), False)     # A4, S4, SL(2,3): chief factor E2^2
        return Structure(order, (Simple("l2", q),), False)
    raise ValueError(f"no structure rule for {name}")


def borel_orders(n: int, q: int) -> tuple[int, int]:
    """Orders of the Sylow p-normalizer of SL(n, q) (upper triangular,
    determinant 1) and of its image in PSL(n, q) (modulo the gcd(n, q-1)
    scalars)."""
    vec = q ** (n * (n - 1) // 2) * (q - 1) ** (n - 1)
    return vec, vec // math.gcd(n, q - 1)


def structure_of(spec_dict: dict, label: str) -> Structure:
    if spec_dict["kind"] == "perm":
        # The battery's only perm specs are the Sylow normalizers of lemma4: a
        # p-group extended by a diagonal torus, solvable, not supersolvable.
        side, rest = label.split("_")[1], label.split("_SL")[1]
        n, q = int(rest[0]), int(rest[2:-1])
        vec, proj = borel_orders(n, q)
        return Structure(vec if side == "vec" else proj, (), False)
    if spec_dict["name"] == "DirectProduct":
        a, b = (_flat_structure(f["name"], tuple(f["params"])) for f in spec_dict["params"])
        flags = (a.supersolvable, b.supersolvable)
        ss = False if False in flags else (None if None in flags else True)
        return Structure(a.order * b.order, a.simples + b.simples, ss)
    return _flat_structure(spec_dict["name"], tuple(spec_dict["params"]))


# -- ops ---------------------------------------------------------------------

@dataclass
class Op:
    """One command line plus what the harness knows about its group."""

    label: str
    argv: list[str]
    structure: Optional[Structure] = None
    lemma4: Optional[tuple[int, int]] = None
    generators: list[tuple[int, ...]] = field(default_factory=list, repr=False)
    degree: int = 0


def relabeled_spec(degree: int, generators, rng: random.Random) -> tuple[str, list[tuple[int, ...]]]:
    """An explicit perm spec (1-indexed cycles) of the group generated by the
    image tuples, with its points relabeled by a random permutation."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out_images, out_cycles = [], []
    for images in generators:
        new = [0] * degree
        for x, y in enumerate(images):
            new[sigma[x]] = sigma[y]
        out_images.append(tuple(new))
        seen, cycles = set(), []
        for start in range(degree):
            if start in seen or new[start] == start:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x + 1)
                x = new[x]
            cycles.append(cyc)
        out_cycles.append(cycles)
    spec = {"kind": "perm", "degree": degree, "generators": out_cycles}
    return json.dumps(spec, separators=(",", ":")), out_images


def _group_op(label, spec, command, csection, rng) -> Op:
    G = csection.build_group(spec)
    text, gens = relabeled_spec(G.degree, [g.images for g in G.generators], rng)
    return Op(label=label, argv=command + ["--group", text, "--json"],
              structure=structure_of(spec.to_dict(), label),
              generators=gens, degree=G.degree)


def make_ops(workload: str, seed: int, csection, store: Optional[str] = None) -> list[Op]:
    """The op list of one pass, relabeled and shuffled by the seed."""
    rng = random.Random(seed)
    if workload in ("scan-theorem", "lemma1-sections"):
        cap = 500 if workload == "scan-theorem" else 200
        entries = [(b.label, b.spec) for b in csection.builtin_battery(cap)]
        if workload == "scan-theorem":
            command = ["theorem"]
        else:
            command = ["verify", "lemma1"]
            entries.append(("PGL2(7)", csection.named_spec("PGL2", 7)))
        ops = [_group_op(label, spec, command, csection, rng) for label, spec in entries]
        if store is not None:
            for op in ops:
                op.argv += ["--store", store]
    elif workload == "large-groups":
        ops = [_group_op(f"{name}({q})", csection.named_spec(name, q), ["conclusion"],
                       csection, rng) for name, q in CONCLUSION_GROUPS]
        ops += [Op(label=f"SL({n},{q})",
                   argv=["verify", "lemma4", "--n", str(n), "--q", str(q),
                         "--seed", str(seed), "--json"], lemma4=(n, q))
                for n, q in LEMMA4_CASES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# -- verdict checks -------------------------------------------------------------

_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


def _check_factors(st: Structure, factor_orders: list[int], problems: list[str]) -> None:
    if math.prod(factor_orders) != st.order:
        problems.append(f"factor orders {factor_orders} do not multiply to {st.order}")
    nonprime = sorted(o for o in factor_orders if not _is_prime(o))
    if nonprime != sorted(s.order for s in st.simples):
        problems.append(f"nonabelian factor orders {nonprime} != {[s.order for s in st.simples]}")


def judge(op: Op, rc: int, report: dict) -> tuple[str, list[str]]:
    """Return (verdict class, problems).  The class is "inconclusive" for an
    inconclusive report with no structural problem, "failed" when anything is
    wrong (including a wrong definitive verdict), else "ok"."""
    problems: list[str] = []
    status = report.get("status")
    if _EXIT.get(status) != rc:
        problems.append(f"exit code {rc} does not match status {status!r}")
    ev = report.get("evidence", {})
    check = op.argv[1] if op.argv[0] == "verify" else op.argv[0]
    if report.get("check") != check:
        return "failed", problems + [f"report is for check {report.get('check')!r}, not {check!r}"]
    st = op.structure
    try:
        if check == "theorem":
            want = "pass"   # the paper's theorem holds for every finite group
            _check_factors(st, ev["conclusion"]["factor_orders"], problems)
            if ev["conclusion"]["status"] not in ("inconclusive", st.conclusion()):
                problems.append(f"conclusion {ev['conclusion']['status']}, "
                                f"expected {st.conclusion()}")
            if status == "pass":
                vacuous = ev["vacuous"]
                if vacuous != (ev["hypothesis"]["status"] == "fail"):
                    problems.append("vacuous flag disagrees with the hypothesis status")
                if st.conclusion() == "fail" and not vacuous:
                    problems.append("conclusion fails but the hypothesis was not refuted")
                if st.supersolvable and vacuous:
                    problems.append("supersolvable group, yet a section is not supersolvable")
                if op.label == "S5":
                    ids = [w["section_id"] for w in ev["hypothesis"]["witnesses"]]
                    if not vacuous or "A4" not in ids:
                        problems.append(f"S5 must pass vacuously with witness A4, got {ids}")
                if op.label == "PGL2(7)" and vacuous:
                    problems.append("PGL2(7) must pass non-vacuously")
        elif check == "lemma1":
            want = "pass"   # Lemma 1: the section does not depend on the chief pair
            rows = ev["rows"]
            if ev["maximal_classes"] != len(rows) or (st.order > 1 and not rows):
                problems.append("maximal class rows are missing")
            for row in rows:
                if not row["agree"] or len(set(row["section_orders"])) != 1:
                    problems.append(f"chief pairs disagree: {row}")
        elif check == "conclusion":
            want = st.conclusion()
            _check_factors(st, ev["factor_orders"], problems)
            if status == "fail" and not ev["witnesses"]:
                problems.append("fail without a witness factor")
        elif check == "lemma4":
            want = "pass"
            vec, proj = borel_orders(*op.lemma4)
            if ev["orders"] != {"vec": vec, "proj": proj} or ev["failures"] != 0:
                problems.append(f"normalizer orders {ev['orders']}, expected {vec}/{proj}")
            for side, flags in ev["sides"].items():
                if not all(flags[k] for k in ("minimal_normal", "non_supersolvable",
                                              "normalizer_crosscheck")):
                    problems.append(f"{side}: {flags}")
    except (KeyError, TypeError) as e:
        return "failed", problems + [f"report lacks {e}"]
    if status not in ("inconclusive", want):
        problems.append(f"status {status}, expected {want}")
    if problems:
        return "failed", problems
    return ("inconclusive" if status == "inconclusive" else "ok"), []
