"""Normal series: chief series, derived and lower central series, and the
solvability family of predicates.

A chief series is built bottom-up from the complete list of normal subgroups,
always stepping to a minimal normal subgroup of the quotient (equivalently a
minimal member of the normals strictly above the current term).  The step
choice is deterministic unless an rng is supplied; the factor order multiset
is a group invariant either way, which the tests exercise by reshuffling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .catalog import _cyclic
from .gf import _prime_power
from .groups import (PermGroup, Subgroup, derived_subgroup, normal_closure,
                     quotient_group, whole_subgroup)
from .lattice import normal_subgroups


@dataclass
class FactorDescriptor:
    """One factor of a normal series, materialized as a permutation group."""

    group: PermGroup
    order: int
    abelian: bool
    prime_power: Optional[tuple[int, int]]

    @property
    def is_prime_order(self) -> bool:
        return self.prime_power is not None and self.prime_power[1] == 1


@dataclass
class ChiefSeries:
    group: PermGroup
    terms: list[Subgroup]            # descending: terms[0] = G, terms[-1] = 1
    factors: list[FactorDescriptor]  # factors[i] = terms[i] / terms[i+1]

    def factor_orders(self) -> list[int]:
        return [f.order for f in self.factors]


def _factor_group(K: Subgroup, L: Subgroup) -> PermGroup:
    if L.order == 1:
        if K.order == K.ambient.order:
            return K.ambient  # the factor G/1 is G itself; keep its caches warm
        return K.group
    inner = Subgroup(K.group, L.generators, check=False)
    return quotient_group(K.group, inner)


def chief_series(G: PermGroup, *, rng=None) -> ChiefSeries:
    """A chief series of G; deterministic unless an rng picks among the
    minimal normal steps."""
    normals = normal_subgroups(G)
    sets = {n._cache["ambient_indices"]: n for n in normals}
    b: frozenset[int] = frozenset([0])
    chain = [sets[b]]
    while len(b) < G.order:
        above = [s for s in sets if b < s]
        minimal = [s for s in above if not any(b < t < s for t in above)]
        minimal.sort(key=lambda s: (len(s), sorted(s)))
        chosen = minimal[0] if rng is None else minimal[rng.randrange(len(minimal))]
        b = chosen
        chain.append(sets[b])
    terms = list(reversed(chain))
    factors = []
    for i in range(len(terms) - 1):
        K, L = terms[i], terms[i + 1]
        g = _factor_group(K, L)
        order = K.order // L.order
        if g.order != order:
            raise RuntimeError("chief factor order disagrees with the index")
        factors.append(FactorDescriptor(group=g, order=order,
                                        abelian=g.is_abelian(),
                                        prime_power=_prime_power(order)))
    return ChiefSeries(group=G, terms=terms, factors=factors)


def is_supersolvable(G: PermGroup) -> bool:
    """True when every chief factor has prime order."""
    cached = G._cache.get("is_supersolvable")
    if cached is None:
        series = chief_series(G)
        cached = all(f.is_prime_order for f in series.factors)
        G._cache["is_supersolvable"] = cached
    return cached


def derived_series(G: PermGroup) -> list[Subgroup]:
    terms = [whole_subgroup(G)]
    while True:
        nxt = derived_subgroup(terms[-1].group)
        if nxt.order == terms[-1].order:
            break
        terms.append(Subgroup(G, nxt.generators, check=False))
        if nxt.order == 1:
            break
    return terms


def is_solvable(G: PermGroup) -> bool:
    return derived_series(G)[-1].order == 1


def is_nilpotent(G: PermGroup) -> bool:
    """Lower central series termination test."""
    current = whole_subgroup(G)
    while current.order > 1:
        comms = [g.inverse() * h.inverse() * g * h
                 for g in G.generators for h in current.generators]
        nxt = normal_closure(G, comms)
        if nxt.order == current.order:
            return False
        current = nxt
    return True


def composition_factors(G: PermGroup, *, rng=None) -> list[PermGroup]:
    """Simple factors of any composition series, as groups, refined from a
    chief series.  Abelian chief factors of order p^k contribute k cyclic
    groups of order p; a nonabelian chief factor is a power of one simple
    group, read off a minimal normal subgroup."""
    from .lattice import minimal_normal_subgroups

    out: list[PermGroup] = []
    series = chief_series(G, rng=rng)
    for f in series.factors:
        if f.abelian:
            pk = f.prime_power
            if pk is None:
                raise RuntimeError("abelian chief factor is not a prime power")
            p, k = pk
            cyc = _cyclic(p)
            out.extend([cyc] * k)
        else:
            mins = minimal_normal_subgroups(f.group)
            if mins[0].order == f.order:
                out.append(f.group)  # the chief factor is itself simple
                continue
            simple = mins[0].group
            t = 0
            order = f.order
            while order > 1 and order % simple.order == 0:
                order //= simple.order
                t += 1
            if order != 1 or simple.order ** t != f.order:
                raise RuntimeError("nonabelian chief factor is not a power of its socle factor")
            out.extend([simple] * t)
    total = 1
    for s in out:
        total *= s.order
    if total != G.order:
        raise RuntimeError("composition factor orders do not multiply to the group order")
    return out


def is_simple(G: PermGroup) -> bool:
    if G.order == 1:
        return False
    return len(normal_subgroups(G)) == 2
