"""Isomorphism testing and identification against a small reference catalog.

Abelian groups are classified completely by their invariant factors.  For
nonabelian pairs the test maps a short generating sequence of one group onto
candidate tuples in the other; a partial assignment survives only while the
subgroup of the direct product generated by the matched pairs stays the same
size as the subgroup generated on the source side (a subgroup of G x H is the
graph of a homomorphism exactly when projecting to G is injective).  The
first generator only ranges over conjugacy class representatives, since any
isomorphism can be composed with an inner automorphism.

The search returns the isomorphism it finds, as the images of that
generating sequence.  A group's isomorphism onto the reference group of its
order is memoized on the group (`reference_match`): `identify` reads it, and
`lattice` carries the reference's subgroup lattice through its index map,
which is built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .catalog import _alt, _psl2, _sym
from .gf import _is_p_power, _is_prime, _prime_factors
from .groups import PermGroup
from .lattice import _normal_join
from .tables import MAX_ORDER, ElementTable, element_table


# -- fingerprints ------------------------------------------------------------

def fingerprint(G: PermGroup) -> tuple:
    """Cheap iso-invariant: order statistics, class sizes, center, derived.
    Everything is read off G's element table; |G'| is the size of the normal
    closure of the generators' commutators, the `_normal_join` of the
    commutators onto the trivial subgroup."""
    cached = G._cache.get("fingerprint")
    if cached is not None:
        return cached
    et = element_table(G)
    mul, inv = et.mul, et.inverse
    order_counts: dict[int, int] = {}
    for i in range(et.n):
        o = et.element_order(i)
        order_counts[o] = order_counts.get(o, 0) + 1
    class_sizes = tuple(sorted(len(c) for c in et.conjugacy_classes()))
    gens = et.generator_indices
    center = sum(1 for i in range(et.n)
                 if all(et.mul(i, g) == et.mul(g, i) for g in gens))
    commutators = [mul(mul(inv[a], inv[b]), mul(a, b)) for i, a in enumerate(gens)
                   for b in gens[i + 1:]]
    derived = _normal_join(et, frozenset([0]), [], commutators)
    fp = (G.order, tuple(sorted(order_counts.items())), class_sizes, center, len(derived))
    G._cache["fingerprint"] = fp
    return fp


def abelian_invariants(G: PermGroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_k of an abelian group."""
    if not G.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    if G.order == 1:
        return ()
    if _is_prime(G.order):
        return (G.order,)  # cyclic, by Lagrange
    et = element_table(G)
    orders = [et.element_order(i) for i in range(et.n)]
    primary: dict[int, list[int]] = {}
    for p in _prime_factors(G.order):
        # s_k = log_p #{x : x^(p^k) = 1}; the differences give the conjugate
        # partition of the exponent partition of the p-component.
        s = [0]
        k = 1
        while True:
            pk = p ** k
            f = sum(1 for o in orders if pk % o == 0)
            e = 0
            while p ** e < f:
                e += 1
            if p ** e != f:
                raise RuntimeError("element order counts are not a prime power")
            s.append(e)
            if f == sum(1 for o in orders if _is_p_power(o, p)):
                break
            k += 1
        m = [s[i] - s[i - 1] for i in range(1, len(s))]  # m_k = #exponents >= k
        lam = []
        i = 1
        while True:
            cnt = sum(1 for x in m if x >= i)
            if cnt == 0:
                break
            lam.append(cnt)
            i += 1
        primary[p] = sorted((p ** e for e in lam), reverse=True)
    width = max(len(v) for v in primary.values())
    factors = []
    for j in range(width):
        d = 1
        for p, lst in primary.items():
            if j < len(lst):
                d *= lst[j]
        factors.append(d)
    factors.reverse()
    total = 1
    for d in factors:
        total *= d
    if total != G.order:
        raise RuntimeError("invariant factors do not multiply to the group order")
    return tuple(factors)


# -- the backtracking isomorphism test ---------------------------------------

def _generating_sequence(et: ElementTable) -> list[int]:
    """Short generating sequence, preferring elements of high order."""
    idxs = sorted(range(1, et.n), key=lambda i: (-et.element_order(i), i))
    gens: list[int] = []
    current: frozenset[int] = frozenset([0])
    for i in idxs:
        if i in current:
            continue
        grown = et.closure(current, gens, [i])
        assert grown is not None
        gens.append(i)
        current = grown
        if len(current) == et.n:
            break
    return gens


def _is_graph(etG: ElementTable, etH: ElementTable, src: Sequence[int],
              images: Sequence[int], bound: int) -> bool:
    """Whether the subgroup of G x H generated by the pairs (src_i, images_i)
    has at most `bound` elements.

    With `bound` the order of <src>, onto which that subgroup projects, this
    holds exactly when the subgroup is the graph of a homomorphism.  The walk
    runs on the two element tables, keys a pair (a, b) as a * |H| + b, and
    stops once it passes the bound.
    """
    nH = etH.n
    mulG, mulH = etG.mul, etH.mul
    pairs = list(zip(src, images))
    seen = {0}
    stack = [(0, 0)]
    while stack:
        a, b = stack.pop()
        for x, y in pairs:
            u, v = mulG(a, x), mulH(b, y)
            key = u * nH + v
            if key not in seen:
                seen.add(key)
                if len(seen) > bound:
                    return False
                stack.append((u, v))
    return True


def is_isomorphic(G: PermGroup, H: PermGroup) -> bool:
    """Whether G and H are isomorphic.  Against a reference H, G's memoized
    `reference_match` answers."""
    if G is H:
        return True
    if G.order != H.order:
        return False
    if G.order == 1:
        return True
    a_ab, b_ab = G.is_abelian(), H.is_abelian()
    if a_ab != b_ab:
        return False
    if a_ab:
        return abelian_invariants(G) == abelian_invariants(H)
    if H is _REFERENCES.get(_REFERENCE_OF_ORDER.get(G.order)):
        return reference_match(G) is not None
    return fingerprint(G) == fingerprint(H) and _backtrack_iso(G, H) is not None


def _element_stats(G: PermGroup) -> list[tuple[int, int]]:
    """(order, conjugacy class size) of every element, by index, memoized."""
    cached = G._cache.get("element_stats")
    if cached is None:
        et = element_table(G)
        size = [0] * et.n
        for c in et.conjugacy_classes():
            for x in c:
                size[x] = len(c)
        cached = G._cache["element_stats"] = [(et.element_order(i), size[i])
                                              for i in range(et.n)]
    return cached


def _backtrack_iso(G: PermGroup, H: PermGroup) -> Optional[tuple[list[int], list[int]]]:
    """An isomorphism from G onto H, as a generating sequence of G and the
    images in H of its elements, by index; None when there is none."""
    etG = element_table(G)
    etH = element_table(H)
    src = _generating_sequence(etG)
    k = len(src)

    # source prefix subgroup orders, for the graph-size prune
    prefix_orders = []
    current: frozenset[int] = frozenset([0])
    for i, g in enumerate(src):
        grown = etG.closure(current, src[:i], [g])
        assert grown is not None
        current = grown
        prefix_orders.append(len(current))

    statsG, statsH = _element_stats(G), _element_stats(H)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(1, etH.n):
        buckets.setdefault(statsH[i], []).append(i)
    first_reps = [c[0] for c in etH.conjugacy_classes()]

    def extend(depth: int, images: list[int]) -> bool:
        if depth == k:
            if len(etH.closure(None, [], images)) != etH.n:
                return False
            return _is_graph(etG, etH, src, images, G.order)
        want = statsG[src[depth]]
        if depth == 0:
            cands = [r for r in first_reps if r and statsH[r] == want]
        else:
            cands = buckets.get(want, [])
        for cand in cands:
            ok = True
            for j in range(depth):
                a = etG.element_order(etG.mul(src[j], src[depth]))
                b = etH.element_order(etH.mul(images[j], cand))
                if a != b:
                    ok = False
                    break
            if not ok:
                continue
            if depth >= 1 and not _is_graph(etG, etH, src[:depth + 1], images + [cand],
                                            prefix_orders[depth]):
                continue
            images.append(cand)
            if extend(depth + 1, images):
                return True
            images.pop()
        return False

    images: list[int] = []
    try:
        return (src, images) if extend(0, images) else None
    finally:
        del extend  # a recursive closure holds itself: break that cycle, and free the tables


# -- identification ----------------------------------------------------------

@dataclass(frozen=True)
class GroupId:
    """Canonical label for a group's isomorphism class."""

    kind: str
    params: tuple
    order: int

    def __str__(self) -> str:
        k, p = self.kind, self.params
        if k == "trivial":
            return "1"
        if k == "cyclic":
            return f"C{p[0]}"
        if k == "elementary_abelian":
            return f"E{p[0]}^{p[1]}"
        if k == "abelian":
            return "Ab(" + "x".join(f"C{d}" for d in p) + ")"
        if k == "dihedral":
            return f"D{2 * p[0]}"
        if k == "alternating":
            return f"A{p[0]}"
        if k == "symmetric":
            return f"S{p[0]}"
        if k == "psl2":
            return f"L2({p[0]})"
        if k == "unknown_simple":
            return f"Simple({self.order})"
        return f"G({self.order})"


_BUILDERS = {"alt": _alt, "sym": _sym, "psl2": _psl2}
_REFERENCES: dict[tuple[str, int], PermGroup] = {}


def _reference(kind: str, n: int) -> PermGroup:
    """The catalog's A_n, S_n or L2(n), built once per process."""
    g = _REFERENCES.get((kind, n))
    if g is None:
        g = _REFERENCES[(kind, n)] = _BUILDERS[kind](n)
    return g


# The reference of each order that `identify` tries: one per order.
_REFERENCE_OF_ORDER = {12: ("alt", 4), 60: ("alt", 5), 360: ("alt", 6), 2520: ("alt", 7),
                       24: ("sym", 4), 120: ("sym", 5), 720: ("sym", 6), 5040: ("sym", 7),
                       168: ("psl2", 7), 504: ("psl2", 8), 660: ("psl2", 11),
                       1092: ("psl2", 13)}
_KIND_NAMES = {"alt": "alternating", "sym": "symmetric", "psl2": "psl2"}


class ReferenceMatch(NamedTuple):
    """An isomorphism from a group G onto the reference of its order: the
    reference `group`, the catalog's `kind` ("alt", "sym" or "psl2") with
    parameter `k`, and the images there of a generating sequence `source` of
    G, all by index."""

    kind: str
    k: int
    group: PermGroup
    source: list[int]
    images: list[int]

    def from_reference(self, et: ElementTable) -> list[int]:
        """The inverse isomorphism as an index map into et, G's element
        table: entry t is the element of G sent to the reference's element
        t.  It is walked breadth-first from the identity by the images and
        their sources, and checked to be a bijection."""
        etT = element_table(self.group)
        into = [-1] * etT.n
        into[0] = 0
        pairs = list(zip(self.images, self.source))
        queue = [0]
        for t in queue:  # grows as elements are reached
            row, image_row = etT.rows[t], et.rows[into[t]]
            for a, b in pairs:
                u = row[a]
                if into[u] < 0:
                    into[u] = image_row[b]
                    queue.append(u)
        if len(queue) != etT.n or etT.n != et.n or len(set(into)) != et.n:
            raise RuntimeError("the isomorphism from the reference is not a bijection")
        return into


def reference_match(G: PermGroup) -> Optional[ReferenceMatch]:
    """G's isomorphism onto the reference of its order (the identity on the
    reference itself), found once and memoized on G; None when G has no
    isomorphic reference."""
    if "reference_match" in G._cache:
        return G._cache["reference_match"]
    match = None
    ref = _REFERENCE_OF_ORDER.get(G.order)
    if ref is not None and not G.is_abelian():
        T = _reference(*ref)
        if G is T:
            gens = [g for g in element_table(T).generator_indices if g]
            found: Optional[tuple[list[int], list[int]]] = (gens, gens)
        else:
            found = _backtrack_iso(G, T) if fingerprint(G) == fingerprint(T) else None
        if found is not None:
            match = ReferenceMatch(*ref, T, *found)
    G._cache["reference_match"] = match
    return match


def _try_dihedral(G: PermGroup) -> Optional[int]:
    """Return m when G is dihedral of order 2m with m >= 3, else None."""
    if G.order % 2 or G.order < 6 or G.is_abelian():
        return None
    m = G.order // 2
    et = element_table(G)
    r = next((i for i in range(1, et.n) if et.element_order(i) == m), None)
    if r is None:
        return None
    C = et.cyclic_subgroup(r)
    s = next(i for i in range(1, et.n) if i not in C)
    if et.element_order(s) != 2:
        return None
    rinv = et.inverse[r]
    if et.mul(et.mul(et.inverse[s], r), s) != rinv:
        return None
    return m


def identify(G: PermGroup) -> GroupId:
    """G's label, memoized on G.  Against the reference of G's order it reads
    G's `reference_match`, the isomorphism through which `lattice` may
    already have carried the reference's subgroup lattice into G, so no
    isomorphism is searched twice."""
    cached = G._cache.get("group_id")
    if cached is not None:
        return cached
    gid = _identify(G)
    G._cache["group_id"] = gid
    return gid


def _identify(G: PermGroup) -> GroupId:
    n = G.order
    if n == 1:
        return GroupId("trivial", (), 1)
    if _is_prime(n):
        return GroupId("cyclic", (n,), n)  # by Lagrange, with no element table
    if G.is_abelian():
        invs = abelian_invariants(G)
        if len(invs) == 1:
            return GroupId("cyclic", (invs[0],), n)
        if all(d == invs[0] for d in invs) and _is_prime(invs[0]):
            return GroupId("elementary_abelian", (invs[0], len(invs)), n)
        return GroupId("abelian", invs, n)
    m = _try_dihedral(G)
    if m is not None:
        return GroupId("dihedral", (m,), n)
    ref = _REFERENCE_OF_ORDER.get(n)
    if ref is not None and is_isomorphic(G, _reference(*ref)):
        return GroupId(_KIND_NAMES[ref[0]], (ref[1],), n)
    from .series import is_simple
    if n <= MAX_ORDER and is_simple(G):
        return GroupId("unknown_simple", (n,), n)
    return GroupId("opaque", (n,), n)


def l2_parameters(gid: GroupId) -> frozenset[int]:
    """Field sizes q with the identified group isomorphic to L2(q)."""
    if gid.kind == "alternating" and gid.params == (5,):
        return frozenset({4, 5})
    if gid.kind == "alternating" and gid.params == (6,):
        return frozenset({9})
    if gid.kind == "psl2":
        return frozenset({gid.params[0]})
    if gid.kind == "symmetric" and gid.params == (3,):
        return frozenset({2})
    if gid.kind == "dihedral" and gid.params == (3,):
        return frozenset({2})  # L2(2) is the symmetric group on 3 points
    if gid.kind == "alternating" and gid.params == (4,):
        return frozenset({3})
    return frozenset()
