"""Chief series and composition factors, and the predicates read off them or
off the element table: supersolvable, nilpotent, simple.

A chief series steps up the covering relation of the normal subgroup lattice,
always to the first normal subgroup directly above the current term.  Every
chief series has the same factor orders, which the tests check over all of
them.  A factor is described by its order; `_nonabelian_factors` builds a
nonabelian factor as a group only where its simple factors must be
identified, and an abelian one is never built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .gf import _is_prime, _prime_factors, _prime_power
from .groups import PermGroup, coset_action
from .iso import GroupId, identify
from .lattice import SubgroupClass, _normal_covers, minimal_normal_subgroups, normal_subgroups
from .tables import TableGroup, element_table


@dataclass
class FactorDescriptor:
    """One factor of a chief series, by its order."""

    order: int
    prime_power: Optional[tuple[int, int]]

    @property
    def abelian(self) -> bool:
        """A characteristically simple group is abelian iff its order is a prime power."""
        return self.prime_power is not None

    @property
    def is_prime_order(self) -> bool:
        return self.prime_power is not None and self.prime_power[1] == 1


@dataclass
class ChiefSeries:
    group: PermGroup
    terms: list[SubgroupClass]       # descending: terms[0] = G, terms[-1] = 1
    factors: list[FactorDescriptor]  # factors[i] = terms[i] / terms[i+1]

    def factor_orders(self) -> list[int]:
        return [f.order for f in self.factors]


def chief_series(G: PermGroup) -> ChiefSeries:
    """The chief series that steps from 1 to its first cover each time.  A
    factor of prime-power order must be abelian: two generators of K whose
    commutator falls outside L would show the covering relation wrong."""
    covers = _normal_covers(G)
    chain = [normal_subgroups(G)[0]]
    while chain[-1].order < G.order:
        chain.append(covers[chain[-1].indices][0])
    terms = list(reversed(chain))
    et = element_table(G)
    inv, mul = et.inverse, et.mul
    factors = []
    for K, L in zip(terms, terms[1:]):
        order = K.order // L.order
        pk = _prime_power(order)
        if pk is not None:
            l_set, gens = L.indices, K.generator_indices
            if any(mul(inv[x], mul(inv[y], mul(x, y))) not in l_set
                   for i, x in enumerate(gens) for y in gens[i + 1:]):
                raise RuntimeError("chief factor of prime-power order is not abelian")
        factors.append(FactorDescriptor(order=order, prime_power=pk))
    return ChiefSeries(group=G, terms=terms, factors=factors)


def is_supersolvable(G: PermGroup) -> bool:
    """True when every chief factor has prime order.  A group of order 1 or
    of prime order is trivial or cyclic, by Lagrange, and needs no series."""
    cached = G._cache.get("is_supersolvable")
    if cached is None:
        if G.order == 1 or _is_prime(G.order):
            cached = True
        else:
            cached = all(f.is_prime_order for f in chief_series(G).factors)
        G._cache["is_supersolvable"] = cached
    return cached


def is_nilpotent(G: PermGroup) -> bool:
    """True when G is the direct product of its Sylow subgroups, read off the
    element table.  A Sylow p-subgroup has |G|_p elements, all of p-power
    order, so G has at least |G|_p of them, and exactly |G|_p when every
    p-element lies in one Sylow p-subgroup, that is when it is normal.  So G is
    nilpotent exactly when, for each prime p, |G|_p elements have p-power
    order.  Above `MAX_ORDER` the table, and so the test, raises
    CapExceededError."""
    cached = G._cache.get("is_nilpotent")
    if cached is None:
        et = element_table(G)
        p_elements: Counter[int] = Counter()  # nontrivial elements of p-power order, per p
        for order, count in Counter(map(et.element_order, range(1, et.n))).items():
            pk = _prime_power(order)
            if pk is not None:
                p_elements[pk[0]] += count
        cached = all(p_elements[p] + 1 == _p_part(G.order, p) for p in _prime_factors(G.order))
        G._cache["is_nilpotent"] = cached
    return cached


def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    part = 1
    while n % (part * p) == 0:
        part *= p
    return part


def composition_factors(G: PermGroup) -> list[GroupId]:
    """The simple factors of any composition series, identified, refined
    from a chief series in its order.  An abelian chief factor of order p^k
    gives k factors C_p, with no group built; a nonabelian chief factor is a
    power of one simple group, read off a minimal normal subgroup."""
    ids: list[GroupId] = []
    series = chief_series(G)
    for K, L, f in zip(series.terms, series.terms[1:], series.factors):
        if f.abelian:
            p, k = f.prime_power
            ids.extend([GroupId("cyclic", (p,), p)] * k)
        else:
            ids.extend(identify(s) for s in _nonabelian_factors(G, K, L, f))
    total = 1
    for g in ids:
        total *= g.order
    if total != G.order:
        raise RuntimeError("composition factor orders do not multiply to the group order")
    return ids


def _nonabelian_factors(G: PermGroup, K: SubgroupClass, L: SubgroupClass,
                        f: FactorDescriptor) -> list[PermGroup | TableGroup]:
    """The simple composition factors of the nonabelian chief factor K/L of
    G: t copies of one simple group, read off a minimal normal subgroup of
    K/L.  Only this factor is built as a group, a table group read off G's
    table, and its socle factor off its own."""
    if L.order == 1 and K.order == G.order:
        g = G  # G/1 is G: keep its caches warm
    else:
        g = coset_action(element_table(G), K.generator_indices, L.indices)
    if g.order != f.order:
        raise RuntimeError("chief factor order disagrees with the index")
    mins = minimal_normal_subgroups(g)
    if mins[0].order == f.order:
        return [g]  # the chief factor is itself simple
    simple = mins[0].group
    t = 0
    order = f.order
    while order > 1 and order % simple.order == 0:
        order //= simple.order
        t += 1
    if order != 1 or simple.order ** t != f.order:
        raise RuntimeError("nonabelian chief factor is not a power of its socle factor")
    return [simple] * t


def is_simple(G: PermGroup) -> bool:
    if G.order == 1:
        return False
    return len(normal_subgroups(G)) == 2
