"""Subgroup lattice enumeration up to conjugacy, with certified completeness.

The enumerator is Neubuser's cyclic extension method, run in index space
(Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, on
subgroup lattices).  Every cyclic subgroup is registered as a seed; then each
class representative R is extended to <R, C> by cyclic subgroups C until no
new class appears.  Three prunings keep the extensions few, and each keeps
both the class list and the maximality flags exact.

Prime-power candidates.  C runs only over cyclic subgroups of prime-power
order.  A subgroup H > 1 has a maximal subgroup R, and H is generated by its
elements of prime-power order, so one of them, x, lies outside R; then
H = <R, <x>>.  By induction on |H| some conjugate R^g is a representative,
and <R^g, <x>^g> = H^g reaches H's class.  For the flags: a proper class R
is not maximal exactly when some H with R < H < G has R maximal in it (take
H minimal), and the same x then gives a proper extension <R, <x>> = H.

Normalizer orbits.  <R, C^n> = <R, C>^n for n in N_G(R), so one C from each
N_G(R)-orbit stands for the whole orbit: the class reached, and whether the
extension is proper, are the same across it.  N_G(R) is generated by R's own
generators and the Schreier generators of the conjugation-orbit walk that
registered R's class, moved to the canonical representative; they are added
until the subgroup they span has |G| / (class size) elements, the
normalizer's order by orbit-stabilizer.

Prime-index marking.  When |<R, C> : R| is prime, R is maximal in
H = <R, C>, so every cyclic C' inside H but outside R gives <R, C'> = H
again, and its N_G(R)-orbit gives conjugates of H: none of them needs a
closure.  In the full-lattice search an extension past the largest proper
divisor of |G| is G itself, so when |G : R| is prime the first such
extension ends R's candidates.

Targeted searches prune by Lagrange: intermediate subgroups of an order-m
subgroup have order dividing m.  `maximal_subgroups` reads the classes that
no extension grew and still certifies each one directly before returning it.

Maximal subgroups off the normal structure.  After Eick & Hulpke,
"Computing the maximal subgroups of a permutation group I" (2001), and
Cannon & Holt, J. Symbolic Comput. 37 (2004).  Every candidate is still
certified directly; the arguments below show that no maximal class is
missed.

A nilpotent G: its maximal subgroups are normal of prime index, so they are
read off `normal_subgroups`, each a class of size one, and no lattice is
walked.

Otherwise let N be a minimal normal subgroup of G and M a maximal subgroup.
MN is a subgroup containing M, so either N <= M, or MN = G.  The subgroups
that contain N are the preimages of the subgroups of G/N, class for class
and with the same class sizes, and M is maximal in G exactly when M/N is
maximal in G/N; so the maximal subgroups that contain N are one pull-back of
G/N's maximal classes, for every N (`_maximal_above`; when |G : N| is prime
that is N alone, the preimage of G/N's trivial subgroup).  Every other
maximal M has MN = G:

N abelian (the first such N is taken).  The others are exactly the
complements of N:
- A maximal M with MN = G complements N.  M cap N is normalized by M, and
  by N since N is abelian, so by MN = G; it is a normal subgroup of G
  properly inside N (else N <= M), so it is 1 by minimality.
- A complement U of N is maximal.  Let U < H <= G.  By Dedekind's law
  H = U(H cap N), so H cap N > 1.  H cap N is normalized by H and by the
  abelian N, so by HN = G; by minimality H cap N = N, and H >= UN = G.

No minimal normal subgroup is abelian, and G is not simple (N is the first
one, so N < G).  Let U = M cap N.
- U = 1: M complements N.
- U > 1: U < N, as N is not inside M, so U is not normal in G, by
  minimality; but M normalizes U, so M <= N_G(U) < G and M = N_G(U).
  Since MN = G and M normalizes U, every conjugate U^(mn) is U^n: U's
  G-class is its N-class.
So M is a complement of N, or N_G(U) for a subgroup 1 < U < N whose G-class
is its N-class; U is N-conjugate to a class representative U^n of N's own
lattice, and N_G(U^n) = M^n.  Complements are found exactly by
`_complements`; N's classes come from N's table group
(`SubgroupClass.group`), and each G-class is walked on G's table.
Complements and normalizers of a nonabelian N need not be maximal.  A
normalizer that lies properly inside a conjugate of another is dropped at
once, and the certificate drops the others that are not maximal.

So G's whole lattice is needed only when G is simple; otherwise the
lattices read are those of G/N and of a nonabelian N.

Lattices carried from a reference.  An isomorphism carries subgroups to
subgroups, conjugates to conjugates and maximal ones to maximal ones.  When
a lattice is needed of a group H isomorphic to one of the reference groups
that `iso.identify` keeps (`iso.reference_match`: a matching fingerprint,
then an isomorphism found and checked to be a bijection), the reference's
own lattice, walked once per process, is carried into H through the
isomorphism, and H's lattice is not walked: for a simple G, for G/N and for
the nonabelian N above.  A class carried into G, or pulled back from G/N,
then gets the record the walk would give it: its least conjugate by sorted
indices, and generators extracted from that.  Only the classes used get
one: the maximal ones.
Each reference itself, and a group with no isomorphic reference, walks its
own lattice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain
from math import gcd
from typing import Iterable, Optional, Sequence

from .gf import _is_prime, _largest_proper_divisor, _prime_power
from .groups import NotASubgroupError, PermGroup, _coset_quotient, coset_action
from .tables import ClosureBase, ElementTable, TableGroup, coset_gather, element_table


@dataclass
class SubgroupClass:
    """A subgroup held by its indices in `table`, G's element table: the
    representative of a conjugacy class of `class_size` subgroups.  A normal
    subgroup is a class of size one.  This record is the one subgroup type:
    a caller's subgroup, a `PermGroup` on G's points, is read into one by
    `_as_class`, and a caller who wants permutations builds
    `PermGroup(G.degree, [table.permutation(i) for i in generator_indices])`."""

    table: ElementTable = field(repr=False)
    indices: frozenset[int] = field(repr=False)
    generator_indices: list[int] = field(repr=False)
    class_size: int
    verified_complete: bool
    # Set by the lattice walk when no extension of the class gave a proper
    # subgroup, and on every class maximal_subgroups returns.
    lattice_maximal: bool = field(default=False, repr=False)
    # Set once certify_maximal has confirmed the class.
    certified_maximal: bool = field(default=False, init=False, repr=False)
    _group: Optional[PermGroup | TableGroup] = field(default=None, init=False, repr=False,
                                                     compare=False)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def group(self) -> PermGroup | TableGroup:
        """The representative as a table group read off `table`, memoized:
        its element i is the representative's i-th least index."""
        if self._group is None:
            self._group = coset_action(self.table, self.generator_indices, frozenset([0]))
        return self._group

    def normalizer_order(self) -> int:
        """Orbit-stabilizer: |G| = class size * |normalizer|."""
        return self.table.n // self.class_size


class _Registry:
    """Dedup store: every conjugate of every registered subgroup is indexed.
    A class below `target` also keeps generators of its representative's
    normalizer, for the extension walk."""

    def __init__(self, et: ElementTable, target: int):
        self.et = et
        self.target = target
        self.seen: dict[frozenset[int], int] = {}
        self.reps: list[frozenset[int]] = []
        self.sizes: list[int] = []
        self.gens: list[list[int]] = []
        self.normalizer_gens: list[list[int]] = []

    def register(self, subset: frozenset[int]) -> tuple[int, bool]:
        found = self.seen.get(subset)
        if found is not None:
            return found, False
        et = self.et
        orbit, schreier = _conjugates(et, subset)
        cid = len(self.reps)
        canonical = min(orbit, key=sorted)
        for s in orbit:
            self.seen[s] = cid
        gens = et.extract_generators(canonical)
        self.reps.append(canonical)
        self.sizes.append(len(orbit))
        self.gens.append(gens)
        self.normalizer_gens.append(
            _normalizer_generators(et, canonical, gens, et.n // len(orbit),
                                   (et.conj(x, orbit[canonical]) for x in schreier))[1]
            if len(canonical) < self.target else [])
        return cid, True


def _normalizer_generators(et: ElementTable, rep: frozenset[int], rep_gens: list[int],
                           order: int, candidates: Iterable[int]
                           ) -> tuple[frozenset[int], list[int]]:
    """N_G(rep), a subgroup of the given order, and generators of it: rep's
    own generators, then those candidates (elements that normalize rep and
    together with rep generate N_G(rep)) that enlarge the span, until it
    reaches the order."""
    if order == et.n:
        return frozenset(range(et.n)), [g for g in et.generator_indices if g]
    gens = list(rep_gens)
    span = rep
    for x in candidates:
        if len(span) == order:
            break
        if x not in span:
            span = et.closure(span, gens, [x])
            gens.append(x)
    if len(span) != order:
        raise RuntimeError("Schreier generators do not span the normalizer's order")
    return span, gens


def _cyclic_subgroups(et: ElementTable, target: int
                      ) -> tuple[list[tuple[frozenset[int], int]], list[int]]:
    """Distinct cyclic subgroups with order dividing target, each with its least
    generator, and for every element x the position of <x> in that list (-1
    for the identity and for orders not dividing target)."""
    found: dict[frozenset[int], int] = {}
    owner: list[Optional[frozenset[int]]] = [None] * et.n
    for i in range(1, et.n):
        if owner[i] is not None or target % et.element_order(i):
            continue
        s = et.cyclic_subgroup(i)
        found[s] = i
        for x in s:
            if et.element_order(x) == len(s):
                owner[x] = s
    cyclics = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {s: k for k, (s, _gen) in enumerate(cyclics)}
    return cyclics, [-1 if s is None else position[s] for s in owner]


def _enumerate_classes(G: PermGroup, *, divisor_target: Optional[int] = None
                       ) -> tuple[list[int], _Registry, set[int]]:
    """Class ids found, the registry holding them, and the ids of the classes
    that some extension grew into a subgroup within the closure bound."""
    et = element_table(G)
    n = et.n
    target = divisor_target if divisor_target is not None else n
    registry = _Registry(et, target)
    cyclics, cyclic_id = _cyclic_subgroups(et, target)
    rows, inverse = et.rows, et.inverse
    # Only cyclic subgroups of prime-power order are candidates; the rest
    # start every representative's walk as done.
    not_candidate = bytes(_prime_power(len(s)) is None for s, _gen in cyclics)
    candidates = [(k, gen) for k, (_s, gen) in enumerate(cyclics) if not not_candidate[k]]

    queue: deque[int] = deque()
    found: set[int] = set()
    for s in [frozenset([0])] + [s for s, _gen in cyclics]:
        cid, new = registry.register(s)
        if new:
            found.add(cid)
            queue.append(cid)
    if target == n:
        # A partial closure above the largest proper divisor can only end at G.
        bound = _largest_proper_divisor(n)
        found.add(registry.register(frozenset(range(n)))[0])
    else:
        bound = target

    grew: set[int] = set()
    while queue:
        rid = queue.popleft()
        rep = registry.reps[rid]
        if len(rep) == target:
            continue  # nothing above the target order can matter
        base = ClosureBase(et, rep, registry.gens[rid])
        maximal_if_whole = target == n and _is_prime(n // len(rep))
        # conjugation y -> g^-1 * y * g by N_G(R)'s generators, as two row reads
        conjugators = [(rows[inverse[g]], g) for g in registry.normalizer_gens[rid]]
        done = bytearray(not_candidate)

        def walk_orbit(x: int) -> None:
            """Mark the N_G(R)-orbit of the cyclic subgroup generated by x."""
            done[cyclic_id[x]] = 1
            stack = [x]
            while stack:
                y = stack.pop()
                row = rows[y]
                for left, g in conjugators:
                    z = left[row[g]]
                    j = cyclic_id[z]
                    if not done[j]:
                        done[j] = 1
                        stack.append(z)

        for k, cgen in candidates:
            if done[k] or cgen in rep:
                continue
            walk_orbit(cgen)
            grown = et.closure(base, (), [cgen], abort_above=bound)
            if grown is None:
                if maximal_if_whole:
                    break  # R has prime index in G = <R, C>, so it is maximal
                continue
            grew.add(rid)
            if _is_prime(len(grown) // len(rep)):
                # R is maximal in grown: every cyclic inside it gives grown again
                for x in grown:
                    j = cyclic_id[x]
                    if j >= 0 and not done[j]:
                        walk_orbit(x)
            if target % len(grown):
                continue
            cid, new = registry.register(grown)
            if new:
                found.add(cid)
                queue.append(cid)
    return sorted(found), registry, grew


def _class_from_registry(registry: _Registry, cid: int,
                         lattice_maximal: bool = False) -> SubgroupClass:
    return _checked_class(registry.et, registry.reps[cid], registry.gens[cid],
                          registry.sizes[cid], lattice_maximal)


def _checked_class(et: ElementTable, indices: frozenset[int], gens: list[int],
                   class_size: int, lattice_maximal: bool) -> SubgroupClass:
    if et.closure(None, [], gens) != indices:
        raise RuntimeError("extracted generators do not span their subgroup")
    return SubgroupClass(et, indices, gens, class_size, True, lattice_maximal)


def _canonical_class(et: ElementTable, subset: frozenset[int], class_size: int,
                     lattice_maximal: bool) -> SubgroupClass:
    """The record the lattice walk gives the class of the subgroup `subset`,
    of `class_size` conjugates: the least conjugate by sorted indices, and
    generators extracted from it."""
    orbit = _conjugates(et, subset)[0]
    if len(orbit) != class_size:
        raise RuntimeError("a carried class has the wrong number of conjugates")
    canonical = min(orbit, key=sorted)
    return _checked_class(et, canonical, et.extract_generators(canonical), class_size,
                          lattice_maximal)


def all_subgroups(G: PermGroup | TableGroup) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups, sorted by order then lexicographically."""
    cached = G._cache.get("all_subgroups")
    if cached is None:
        cached = G._cache["all_subgroups"] = _lattice_classes(G, *_enumerate_classes(G))
    return cached


def _lattice_classes(G: PermGroup, ids: list[int], registry: _Registry,
                     grew: set[int]) -> list[SubgroupClass]:
    # With the whole group as target, a class that grew has a proper overgroup.
    classes = [_class_from_registry(registry, cid, len(registry.reps[cid]) < G.order
                                    and cid not in grew) for cid in ids]
    classes.sort(key=lambda c: (c.order, sorted(c.indices)))
    return classes


def _carried_lattice(H: PermGroup | TableGroup) -> Optional[list[SubgroupClass]]:
    """H's subgroup classes carried from the lattice of the reference group
    isomorphic to H (`iso.reference_match`), walked once per process; None
    when H has no such reference or is one.  Each representative and its
    generators are the images of the reference's, not H's canonical ones;
    the class sizes and the flags carry over unchanged."""
    from .iso import reference_match  # iso imports this module

    match = reference_match(H)
    if match is None or match.group is H:
        return None
    et = element_table(H)
    into = match.from_reference(et)
    return [SubgroupClass(et, frozenset(into[i] for i in c.indices),
                          [into[i] for i in c.generator_indices], c.class_size, True,
                          c.lattice_maximal)
            for c in all_subgroups(match.group)]


def _lattice_of(H: PermGroup | TableGroup) -> list[SubgroupClass]:
    """H's subgroup classes, carried from a reference or walked."""
    carried = _carried_lattice(H)
    return all_subgroups(H) if carried is None else carried


def _maximal_above(G: PermGroup, N: SubgroupClass) -> list[SubgroupClass]:
    """The maximal classes of G that contain the normal subgroup N: the
    preimages of the lattice-maximal classes of G/N.  A subgroup of G/N is a
    set of cosets of N, each the gather of N from the row of its least
    member; the preimage keeps the class size and gets the walk's record in
    G."""
    et = element_table(G)
    quotient, least = _coset_quotient(et, et.generator_indices, N.indices)
    coset = coset_gather(sorted(N.indices))
    rows = et.rows
    return [_canonical_class(et, frozenset(chain.from_iterable(
                coset(rows[least[q]]) for q in c.indices)), c.class_size, True)
            for c in _lattice_of(quotient) if c.lattice_maximal]


def subgroup_count(G: PermGroup) -> int:
    """Total number of subgroups (all conjugates counted)."""
    return sum(c.class_size for c in all_subgroups(G))


def subgroups_of_index(G: PermGroup, k: int) -> list[SubgroupClass]:
    """Classes of subgroups of index k; complete by the divisor-pruned search."""
    if k < 1:
        raise ValueError("index must be positive")
    if G.order % k:
        return []
    m = G.order // k
    ids, registry, _grew = _enumerate_classes(G, divisor_target=m)
    classes = [_class_from_registry(registry, cid)
               for cid in ids if len(registry.reps[cid]) == m]
    classes.sort(key=lambda c: (c.order, sorted(c.indices)))
    return classes


def certify_maximal(G: PermGroup, subset: frozenset[int], gens: Sequence[int],
                    et: Optional[ElementTable] = None) -> bool:
    """Direct maximality certificate: closure with anything outside is all of G."""
    if et is None:
        et = element_table(G)
    n = et.n
    if len(subset) == n:
        return False
    bound = _largest_proper_divisor(n)
    covered = [False] * n
    for x in subset:
        covered[x] = True
    base = ClosureBase(et, subset, gens)
    rows = et.rows
    for x in range(n):
        if covered[x]:
            continue
        grown = et.closure(base, (), [x], abort_above=bound)
        if grown is not None:
            return False  # a proper subgroup strictly above
        # mark the whole coset x*subset: <subset, x*h> = <subset, x> = G for them all
        for y in base.coset(rows[x]):
            covered[y] = True
    return True


def maximal_subgroups(G: PermGroup) -> list[SubgroupClass]:
    """Maximal subgroup classes, sorted by descending order.

    The candidates come from the normal structure (module docstring):
    - when G is nilpotent, its normal subgroups of prime index;
    - when G has an abelian minimal normal subgroup N (the first one), the
      preimages of the maximal classes of G/N, and the complements of N;
    - when G is not simple and N, its first minimal normal subgroup, is
      nonabelian, the same classes above N, the complements of N, and
      N_G(U) for the subgroups 1 < U < N whose G-class is their N-class;
    - otherwise (G simple) the classes of the whole lattice that no
      extension grew.
    The lattices of G/N, of N and of a simple G are carried from an
    isomorphic reference group's where there is one.
    Each is then certified directly rather than trusted from the search.  The
    complements and normalizers of the nonabelian case need not be maximal,
    and those that fail the certificate are dropped; any other candidate
    that fails it is an internal error.
    """
    cached = G._cache.get("maximal_subgroups")
    if cached is not None:
        return cached
    from .series import is_nilpotent  # series imports this module

    et = element_table(G)
    possible: list[SubgroupClass] = []
    if is_nilpotent(G):
        # copies, so that normal_subgroups' cached records keep their flags
        candidates = [replace(N, lattice_maximal=True) for N in normal_subgroups(G)
                      if _is_prime(G.order // N.order)]
    else:
        minimal = minimal_normal_subgroups(G)
        N = next((K for K in minimal if _prime_power(K.order) is not None), minimal[0])
        if N.order == G.order:  # G is simple
            carried = _carried_lattice(G)
            candidates = ([c for c in all_subgroups(G) if c.lattice_maximal] if carried is None
                          else [_canonical_class(et, c.indices, c.class_size, True)
                                for c in carried if c.lattice_maximal])
        else:
            candidates = _maximal_above(G, N)
            complements = _complements(et, N.indices)
            if _prime_power(N.order) is not None:
                candidates += complements
            else:
                possible = complements + _normalizers_in(et, N)
    for c in candidates:
        if not certify_maximal(G, c.indices, c.generator_indices, et):
            raise RuntimeError("maximal candidate failed direct certification")
        c.certified_maximal = True
    for c in possible:
        if certify_maximal(G, c.indices, c.generator_indices, et):
            c.certified_maximal = True
            candidates.append(c)
    candidates.sort(key=lambda c: (-c.order, sorted(c.indices)))
    G._cache["maximal_subgroups"] = candidates
    return candidates


def _normalizers_in(et: ElementTable, N: SubgroupClass) -> list[SubgroupClass]:
    """The classes of N_G(U), for the classes 1 < U < N of N's own lattice
    whose G-class is their N-class.  N's lattice is read on N's table group
    (carried from a reference, or walked), U's G-class is walked on G's
    table, and N_G(U) is spanned by the walk's Schreier generators up to
    its order |G| / |G-class|."""
    into_g = sorted(N.indices)  # N's index i is into_g[i] in G's
    registry = _Registry(et, 0)  # no normalizers: nothing extends a candidate
    found: list[int] = []
    for c in _lattice_of(N.group):
        if c.order in (1, N.order):
            continue
        u = frozenset(into_g[i] for i in c.indices)
        orbit, schreier = _conjugates(et, u)
        if len(orbit) != c.class_size:
            continue
        normalizer, _gens = _normalizer_generators(
            et, u, [into_g[i] for i in c.generator_indices], et.n // len(orbit), schreier)
        cid, new = registry.register(normalizer)
        if new:
            found.append(cid)
    # one inside a conjugate of another is not maximal, and its certificate can be slow
    return [_class_from_registry(registry, cid, True) for cid in found
            if not any(registry.reps[cid] < s for s in registry.seen)]


def _complements(et: ElementTable, normal: frozenset[int]) -> list[SubgroupClass]:
    """The conjugacy classes of complements of a normal subgroup N.

    A complement U meets each coset of N once, so for each generator g_j of G
    it holds exactly one g_j t_j with t_j in N, and U is generated by those
    of the g_j that enlarge the span mod N.  The search picks the t_j in
    turn.  A prefix P = <g_1 t_1, ..., g_i t_i> has PN = <N, g_1, ..., g_i>,
    so it meets N in 1 exactly when |P| = |PN| / |N|; a prefix that is
    larger meets N beyond 1 and is dropped, its closure aborted there, and
    so is one whose new generator has an order not dividing |PN| / |N|,
    with no closure.  Each full choice that survives is one complement, met
    once.
    """
    gens: list[int] = []
    bounds: list[int] = []
    n_gens = et.extract_generators(normal)
    span = normal
    for g in et.generator_indices:
        if g not in span:
            span = et.closure(span, n_gens + gens, [g])
            gens.append(g)
            bounds.append(len(span) // len(normal))
    registry = _Registry(et, et.n // len(normal))  # no normalizers: nothing extends a complement
    rows = et.rows
    found: list[int] = []
    stack = [(frozenset([0]), [])]
    while stack:
        subset, sgens = stack.pop()
        k = len(sgens)
        if k == len(gens):
            cid, new = registry.register(subset)
            if new:
                found.append(cid)
            continue
        base = ClosureBase(et, subset, sgens)
        row = rows[gens[k]]
        for t in normal:
            x = row[t]
            if bounds[k] % et.element_order(x):
                continue
            grown = et.closure(base, (), [x], abort_above=bounds[k])
            if grown is not None:
                stack.append((grown, sgens + [x]))
    return [_class_from_registry(registry, cid, True) for cid in found]


def _as_class(G: PermGroup | TableGroup, H: SubgroupClass | PermGroup) -> SubgroupClass:
    """H as a record of G's table, the one place a caller's subgroup is
    checked.  A record of G's own comes back as it is.  A caller's subgroup,
    a `PermGroup` on G's points, is read off G's table: each generator's
    index, their closure for its indices, and its class size off its
    conjugation orbit; none of H's elements is enumerated.  A record of
    another group's table, or a generator outside G or of another degree,
    raises NotASubgroupError."""
    et = element_table(G)
    if isinstance(H, SubgroupClass):
        if H.table is not et:
            raise NotASubgroupError("the subgroup record belongs to another group's table")
        return H
    gens = [et.index_of(g) for g in H.generators]
    indices = et.closure(None, [], gens)
    if len(indices) != H.order:
        raise RuntimeError("the subgroup's closure in the table disagrees with its order")
    return SubgroupClass(et, indices, gens, len(_conjugates(et, indices)[0]), True)


def _conjugates(et: ElementTable, subset: frozenset[int]
                ) -> tuple[dict[frozenset[int], int], list[int]]:
    """The conjugation orbit of a subgroup H, walked breadth-first from H by
    G's generators.  Each conjugate s maps to a transversal element t with
    t^-1 * H * t = s.  Also returns the walk's distinct nontrivial Schreier
    generators t_s * g * t_(s^g)^-1; by Schreier's lemma they generate N_G(H).
    """
    rows, inverse = et.rows, et.inverse
    orbit = {subset: 0}
    schreier: dict[int, None] = {}
    queue = deque([subset])
    while queue:
        s = queue.popleft()
        t = rows[orbit[s]]
        for g in et.generator_indices:
            u = et.conj_set(s, g)
            back = orbit.get(u)
            if back is None:
                orbit[u] = t[g]
                queue.append(u)
            else:
                x = rows[t[g]][inverse[back]]
                if x:
                    schreier[x] = None
    return orbit, list(schreier)


def _normal_join(et: ElementTable, s: frozenset[int], sgens: list[int],
                 xs: Iterable[int]) -> frozenset[int]:
    """Normal closure of a normal subgroup s and the elements xs.

    A subgroup is normal once the conjugates of its generators by G's
    generators lie in it; s is normal already, so only the elements added
    after sgens are checked.
    """
    gens = list(sgens)
    current = s
    pending = []
    for x in xs:
        if x not in current:
            current = et.closure(current, gens, [x])
            gens.append(x)
            pending.append(x)
    while pending:
        y = pending.pop()
        for g in et.generator_indices:
            z = et.conj(y, g)
            if z not in current:
                current = et.closure(current, gens, [z])
                gens.append(z)
                pending.append(z)
    return current


def normal_subgroups(G: PermGroup | TableGroup) -> list[SubgroupClass]:
    """All normal subgroups, as records of class size one, sorted by order,
    then by their sorted indices.

    Every normal subgroup is a product of normal closures of element
    conjugacy classes.  Each rational class's normal closure is computed
    once (the classes of x^k, k prime to |x|, share x's closure), and the
    distinct ones start the walk.  The walk joins every normal subgroup s
    found with every class closure N outside it; s*N is normal, so the join
    is one plain closure with no conjugation loop.  It is skipped when a
    normal subgroup already found has the product's order |s| |N| / |s cap N|
    and contains both, since that subgroup is s*N.
    """
    cached = G._cache.get("normal_subgroups")
    if cached is not None:
        return cached
    et = element_table(G)
    trivial = frozenset([0])
    # each distinct class closure, with the representative of the first class closed to it
    closures: dict[frozenset[int], int] = {}
    classes = et.conjugacy_classes()
    # x^k with k prime to |x| generates <x>, so its class has x's normal closure
    rational = bytearray(len(classes))
    for c in classes[1:]:  # the identity's class comes first
        x = c[0]
        if rational[et.class_of(x)]:
            continue
        closures.setdefault(_normal_join(et, trivial, [], [x]), x)
        order = et.element_order(x)
        y = x
        for k in range(1, order):
            if gcd(k, order) == 1:
                rational[et.class_of(y)] = 1
            y = et.mul(y, x)
    found: dict[frozenset[int], list[int]] = {trivial: []}
    by_order: dict[int, list[frozenset[int]]] = {}
    for N in closures:
        found[N] = et.extract_generators(N)
        by_order.setdefault(len(N), []).append(N)
    queue = deque(closures)
    while queue:
        s = queue.popleft()
        base = None
        for N, rep in closures.items():
            if rep in s:
                continue  # N is the normal closure of rep, so N lies inside s
            order = len(s) * len(N) // len(s & N)
            if any(s <= t and N <= t for t in by_order.get(order, ())):
                continue
            if base is None:
                base = ClosureBase(et, s, found[s])
            grown = et.closure(base, (), found[N])
            if len(grown) != order:
                raise RuntimeError("the join of two normal subgroups is not their product")
            found[grown] = et.extract_generators(grown)
            by_order.setdefault(order, []).append(grown)
            queue.append(grown)
    subs = [SubgroupClass(et, s, found[s], 1, True)
            for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
    G._cache["normal_subgroups"] = subs
    return subs


def _normal_covers(G: PermGroup | TableGroup) -> dict[frozenset[int], list[SubgroupClass]]:
    """The covering relation of the normal subgroup lattice: each normal index
    set maps to the normal subgroups directly above it, in `normal_subgroups`
    order.  A pair L < K of the relation is a chief factor K/L of G."""
    cached = G._cache.get("normal_covers")
    if cached is not None:
        return cached
    normals = normal_subgroups(G)
    sets = [n.indices for n in normals]
    covers: dict[frozenset[int], list[SubgroupClass]] = {}
    for i, s in enumerate(sets):
        # Normals come sorted by order, so any normal strictly between s and a
        # later t was met before t, and then so was a cover of s below t.
        above: list[int] = []
        for j in range(i + 1, len(sets)):
            if s < sets[j] and not any(sets[k] < sets[j] for k in above):
                above.append(j)
        covers[s] = [normals[j] for j in above]
    G._cache["normal_covers"] = covers
    return covers


def minimal_normal_subgroups(G: PermGroup | TableGroup) -> list[SubgroupClass]:
    """Atoms of the normal subgroup lattice (G itself counts when simple)."""
    return list(_normal_covers(G)[frozenset([0])])
