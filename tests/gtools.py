"""Small shared helpers for building test groups."""

from csection.catalog import build_group, named_spec, product_spec
from csection.groups import PermGroup
from csection.lattice import _normal_covers, normal_subgroups
from csection.perms import parse_cycle_lists


def named(name, *params):
    return build_group(named_spec(name, *params))


def product(name_a, params_a, name_b, params_b):
    return build_group(product_spec(name_a, params_a, name_b, params_b))


def from_cycles(degree, cycle_lists):
    """Group from 1-indexed cycle notation."""
    return PermGroup(degree, parse_cycle_lists(degree, cycle_lists))


def elements_of(G):
    return [p.images for p in G.elements()]


def quaternion():
    """Q8 in its regular representation: i and j as degree-8 permutations."""
    return from_cycles(8, [
        [[1, 3, 2, 4], [5, 8, 6, 7]],
        [[1, 5, 2, 6], [3, 7, 4, 8]],
    ])


def every_chief_series_orders(G):
    """The sorted chief factor orders that every chief series of G shares.

    A dynamic program down the covering relation of the normal subgroup
    lattice: from each normal N, every cover K must give the same multiset of
    factor orders from N up to G.  That checks every chief series without
    walking them one by one; the elementary abelian group of order 2^k alone
    has (2 - 1)(4 - 1)...(2^k - 1) of them.
    """
    covers = _normal_covers(G)
    up = {}
    for N in reversed(normal_subgroups(G)):
        s = N._cache["ambient_indices"]
        ways = {tuple(sorted(up[K._cache["ambient_indices"]] + (K.order // N.order,)))
                for K in covers[s]}
        assert len(ways) == (N.order < G.order), \
            f"chief series up from a normal subgroup of order {N.order}: {sorted(ways)}"
        up[s] = ways.pop() if ways else ()
    return list(up[frozenset([0])])
