"""Group specs (structured text in, groups out) and the built-in battery
used by the scan command.

A spec is either explicit generators ("perm" kind, cycles 1-indexed) or a
named constructor with integer parameters.  DirectProduct takes exactly two
flat named factors.  The battery is a curated, deterministic list of specs
covering the families the toolkit's verdicts are exercised on; entries are
filtered by a group-order bound at build time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .gf import FieldTable, _is_prime, _prime_power, field_of_order
from .groups import CapExceededError, InputError, PermGroup, trivial_group
from .perms import Permutation

NAMED = ("Sym", "Alt", "Cyclic", "Dihedral", "ElemAbelian", "PSL2", "PGL2", "SL",
         "DirectProduct")


@dataclass(frozen=True)
class GroupSpec:
    kind: str                                  # "perm" | "named"
    degree: int = 0
    generators: tuple = ()                     # perm: cycles, 1-indexed
    name: str = ""
    params: tuple = ()

    def to_dict(self) -> dict:
        if self.kind == "perm":
            return {"kind": "perm", "degree": self.degree,
                    "generators": [[list(c) for c in g] for g in self.generators]}
        if self.name == "DirectProduct":
            return {"kind": "named", "name": self.name,
                    "params": [{"name": n, "params": list(p)} for n, p in self.params]}
        return {"kind": "named", "name": self.name, "params": list(self.params)}

    def canonical(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def parse_group_spec(source: Union[str, dict]) -> GroupSpec:
    """Validate a JSON document (or dict) into a GroupSpec.

    Raises InputError with a distinct message per malformation class.
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except (json.JSONDecodeError, RecursionError) as e:  # nested past the parser's depth
            raise InputError(f"spec is not valid JSON: {e}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise InputError("spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "perm":
        degree = obj.get("degree")
        if not isinstance(degree, int) or degree < 1:
            raise InputError("perm spec needs a positive integer degree")
        gens = obj.get("generators")
        if not isinstance(gens, list):
            raise InputError("perm spec needs a list of generators")
        out = []
        for g in gens:
            if not isinstance(g, list):
                raise InputError("each generator must be a list of cycles")
            cycles = []
            for c in g:
                if (not isinstance(c, list) or not c
                        or any(not isinstance(x, int) for x in c)):
                    raise InputError("each cycle must be a nonempty list of integers")
                if any(x < 1 or x > degree for x in c):
                    raise InputError(f"cycle point out of range 1..{degree}: {c}")
                cycles.append(tuple(c))
            out.append(tuple(cycles))
        return GroupSpec(kind="perm", degree=degree, generators=tuple(out))
    if kind == "named":
        name = obj.get("name")
        if name not in NAMED:
            raise InputError(f"unknown constructor name {name!r}; expected one of {NAMED}")
        params = obj.get("params")
        if not isinstance(params, list):
            raise InputError("named spec needs a params list")
        if name == "DirectProduct":
            if len(params) != 2:
                raise InputError("DirectProduct takes exactly two factors")
            factors = []
            for f in params:
                if (not isinstance(f, dict) or f.get("name") not in NAMED
                        or f.get("name") == "DirectProduct"
                        or not isinstance(f.get("params"), list)
                        or any(not isinstance(x, int) for x in f["params"])):
                    raise InputError("DirectProduct factors must be flat named specs")
                factors.append((f["name"], tuple(f["params"])))
            return GroupSpec(kind="named", name=name, params=tuple(factors))
        if any(not isinstance(x, int) for x in params):
            raise InputError("named spec params must be integers")
        return GroupSpec(kind="named", name=name, params=tuple(params))
    raise InputError(f"unknown spec kind {kind!r}; expected 'perm' or 'named'")


# -- named constructors --------------------------------------------------------

def _sym(n: int) -> PermGroup:
    if n < 1:
        raise InputError("Sym needs n >= 1")
    if n == 1:
        return trivial_group(1)
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens)


def _alt(n: int) -> PermGroup:
    if n < 1:
        raise InputError("Alt needs n >= 1")
    if n <= 2:
        return trivial_group(max(n, 1))
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cyc]))
    return PermGroup(n, gens)


def _cyclic(n: int) -> PermGroup:
    if n < 1:
        raise InputError("Cyclic needs n >= 1")
    if n == 1:
        return trivial_group(1)
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))])])


def _dihedral(m: int) -> PermGroup:
    if m < 3:
        raise InputError("Dihedral needs m >= 3 (group order 2m)")
    rot = Permutation.from_cycles(m, [tuple(range(m))])
    flip = Permutation(tuple((m - i) % m for i in range(m)))
    return PermGroup(m, [rot, flip])


def _elem_abelian(p: int, k: int) -> PermGroup:
    if not _is_prime(p):
        raise InputError("ElemAbelian needs a prime p")
    if k < 1:
        raise InputError("ElemAbelian needs k >= 1")
    degree = p * k
    gens = [Permutation.from_cycles(degree, [tuple(range(i * p, (i + 1) * p))])
            for i in range(k)]
    return PermGroup(degree, gens)


def _field(q: int) -> FieldTable:
    """GF(q) for a named group's parameter q; a q that names no field the
    package tables is an input error."""
    try:
        return field_of_order(q)
    except ValueError as e:
        raise InputError(str(e)) from None


def _psl2(q: int) -> PermGroup:
    from .matgroups import psl_group
    return psl_group(2, _field(q))


def _pgl2(q: int) -> PermGroup:
    from .matgroups import pgl_group
    return pgl_group(_field(q))


def _sl(n: int, q: int) -> PermGroup:
    from .matgroups import sl_group
    if n < 2 or n > 3:
        raise InputError("SL supports dimensions 2 and 3")
    return sl_group(n, _field(q))


def _direct_product(A: PermGroup, B: PermGroup) -> PermGroup:
    dA, dB = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation._unsafe(tuple(g.images) + tuple(range(dA, dA + dB))))
    for h in B.generators:
        gens.append(Permutation._unsafe(tuple(range(dA)) + tuple(dA + x for x in h.images)))
    return PermGroup(dA + dB, gens)


_FLAT_BUILDERS = {
    "Sym": lambda p: _sym(*p),
    "Alt": lambda p: _alt(*p),
    "Cyclic": lambda p: _cyclic(*p),
    "Dihedral": lambda p: _dihedral(*p),
    "ElemAbelian": lambda p: _elem_abelian(*p),
    "PSL2": lambda p: _psl2(*p),
    "PGL2": lambda p: _pgl2(*p),
    "SL": lambda p: _sl(*p),
}

_PARAM_COUNTS = {"Sym": 1, "Alt": 1, "Cyclic": 1, "Dihedral": 1,
                 "ElemAbelian": 2, "PSL2": 1, "PGL2": 1, "SL": 2}


def _flat_size(name: str, params: Sequence[int]) -> Optional[tuple[int, int]]:
    """(degree, order) of a flat named group, from its closed form; None when
    the parameters are invalid, which its builder then reports."""
    from .matgroups import psl_order, sl_order
    if len(params) != _PARAM_COUNTS[name] or any(x < 1 for x in params):
        return None
    if name in ("Sym", "Alt", "Cyclic"):
        n = params[0]
        if name == "Cyclic":
            return n, n
        if name == "Alt" and n <= 2:
            return n, 1
        return n, math.factorial(n) // (2 if name == "Alt" else 1)
    if name == "Dihedral":
        return (params[0], 2 * params[0]) if params[0] >= 3 else None
    if name == "ElemAbelian":
        p, k = params
        return (p * k, p ** k) if _is_prime(p) else None
    n, q = (params[0] if name == "SL" else 2), params[-1]
    if n not in (2, 3) or _prime_power(q) is None:
        return None
    if name == "SL":
        return q ** n - 1, sl_order(n, q)
    return q + 1, psl_order(2, q) if name == "PSL2" else q * (q * q - 1)


def _check_caps(spec: GroupSpec, max_order: Optional[int], degree_cap: Optional[int]) -> None:
    """Refuses a named group past a cap from its closed form, before it is
    built; a direct product adds its factors' degrees and multiplies their
    orders."""
    factors = spec.params if spec.name == "DirectProduct" else [(spec.name, spec.params)]
    sizes = [_flat_size(name, params) for name, params in factors]
    if None in sizes:
        return
    degree, order = sum(d for d, _ in sizes), math.prod(o for _, o in sizes)
    if degree_cap is not None and degree > degree_cap:
        raise CapExceededError(f"degree {degree} exceeds cap {degree_cap}")
    if max_order is not None and order > max_order:
        # Sym(4000)'s order has 12,674 digits, too many for str()
        shown = order if order < 10 ** 20 else f"~10^{int(math.log10(order))}"
        raise CapExceededError(f"group order {shown} exceeds cap {max_order}")


def build_group(spec: GroupSpec, *, max_order: Optional[int] = None,
                degree_cap: Optional[int] = None) -> PermGroup:
    """The group of a spec.  A named group's degree and order are checked
    against the caps from their closed forms before it is built, and every
    group's again once it is."""
    if spec.kind == "perm":
        if degree_cap is not None and spec.degree > degree_cap:
            raise CapExceededError(f"degree {spec.degree} exceeds cap {degree_cap}")
        try:
            gens = [Permutation.from_cycles(spec.degree,
                                            [tuple(x - 1 for x in c) for c in g])
                    for g in spec.generators]
        except ValueError as e:  # a point repeated across one generator's cycles
            raise InputError(str(e)) from None
        G = PermGroup(spec.degree, gens)
    else:
        _check_caps(spec, max_order, degree_cap)
        if spec.name == "DirectProduct":
            (na, pa), (nb, pb) = spec.params
            A = _build_flat(na, pa)
            B = _build_flat(nb, pb)
            if degree_cap is not None and A.degree + B.degree > degree_cap:
                raise CapExceededError("product degree exceeds cap")
            G = _direct_product(A, B)
        else:
            G = _build_flat(spec.name, spec.params)
        if degree_cap is not None and G.degree > degree_cap:
            raise CapExceededError(f"degree {G.degree} exceeds cap {degree_cap}")
    if max_order is not None and G.order > max_order:
        raise CapExceededError(f"group order {G.order} exceeds cap {max_order}")
    return G


def _build_flat(name: str, params: Sequence[int]) -> PermGroup:
    want = _PARAM_COUNTS[name]
    if len(params) != want:
        raise InputError(f"{name} takes {want} parameter(s), got {len(params)}")
    return _FLAT_BUILDERS[name](tuple(params))


def spec_from_group(G: PermGroup) -> GroupSpec:
    """Explicit perm spec from a group's generators (1-indexed cycles)."""
    gens = tuple(tuple(tuple(c) for c in g.cycle_lists(base=1)) for g in G.generators)
    return GroupSpec(kind="perm", degree=G.degree, generators=gens)


def named_spec(name: str, *params) -> GroupSpec:
    return GroupSpec(kind="named", name=name, params=tuple(params))


def product_spec(name_a: str, params_a: Sequence[int],
                 name_b: str, params_b: Sequence[int]) -> GroupSpec:
    return GroupSpec(kind="named", name="DirectProduct",
                     params=((name_a, tuple(params_a)), (name_b, tuple(params_b))))


@dataclass(frozen=True)
class BatteryEntry:
    label: str
    spec: GroupSpec
    order: int


def builtin_battery(max_order: int = 500) -> list[BatteryEntry]:
    """The deterministic scan battery: curated named families plus the Sylow
    normalizer groups, kept to the given order bound."""
    raw: list[tuple[str, GroupSpec]] = []
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24, 30):
        raw.append((f"C{n}", named_spec("Cyclic", n)))
    for m in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16):
        raw.append((f"D{2*m}", named_spec("Dihedral", m)))
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        raw.append((f"E{p}^{k}", named_spec("ElemAbelian", p, k)))
    for n in (3, 4, 5, 6):
        raw.append((f"S{n}", named_spec("Sym", n)))
    for n in (4, 5, 6):
        raw.append((f"A{n}", named_spec("Alt", n)))
    for q in (2, 3, 4, 5, 7, 8, 9):
        raw.append((f"PSL2({q})", named_spec("PSL2", q)))
    for q in (2, 3, 4, 5, 7):
        raw.append((f"PGL2({q})", named_spec("PGL2", q)))
    for q in (2, 3, 4, 5, 7, 8, 9):
        raw.append((f"SL2({q})", named_spec("SL", 2, q)))
    products = [
        ("C2xA5", ("Cyclic", (2,)), ("Alt", (5,))),
        ("C2xS4", ("Cyclic", (2,)), ("Sym", (4,))),
        ("S3xS3", ("Sym", (3,)), ("Sym", (3,))),
        ("A4xA4", ("Alt", (4,)), ("Alt", (4,))),
        ("C3xD10", ("Cyclic", (3,)), ("Dihedral", (5,))),
        ("C4xS4", ("Cyclic", (4,)), ("Sym", (4,))),
        ("D8xD8", ("Dihedral", (4,)), ("Dihedral", (4,))),
        ("C2xPSL2(7)", ("Cyclic", (2,)), ("PSL2", (7,))),
    ]
    for label, (na, pa), (nb, pb) in products:
        raw.append((label, product_spec(na, pa, nb, pb)))
    for n, q in ((2, 4), (2, 8), (2, 9), (3, 4)):
        for side in ("vec", "proj"):
            raw.append((f"SylNorm_{side}_SL{n}({q})", _lemma4_normalizer_spec(n, q, side)))

    out = []
    for label, spec in raw:
        G = build_group(spec)
        if G.order <= max_order:
            out.append(BatteryEntry(label=label, spec=spec, order=G.order))
    return out


def _lemma4_normalizer_spec(n: int, q: int, side: str) -> GroupSpec:
    from .matgroups import triangular_group
    return spec_from_group(triangular_group(n, field_of_order(q), side == "proj"))
