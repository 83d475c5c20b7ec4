"""Small shared helpers for building test groups."""

import pytest
from hypothesis import strategies as st

from csection.catalog import build_group, named_spec, product_spec
from csection.groups import PermGroup
from csection.lattice import _normal_covers, normal_subgroups
from csection.perms import Permutation, parse_cycle_lists
from csection.tables import TableGroup


def named(name, *params):
    return build_group(named_spec(name, *params))


def product(name_a, params_a, name_b, params_b):
    return build_group(product_spec(name_a, params_a, name_b, params_b))


def from_cycles(degree, cycle_lists):
    """Group from 1-indexed cycle notation."""
    return PermGroup(degree, parse_cycle_lists(degree, cycle_lists))


def sympy_group(G):
    """G as a sympy permutation group (sympy's identity stands in for no generators)."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = [combinatorics.Permutation(list(g.images)) for g in G.generators]
    return combinatorics.PermutationGroup(
        gens or [combinatorics.Permutation(list(range(G.degree)))])


def as_subgroup(G, c):
    """A subgroup record of G's table as a permutation group on G's points,
    with a stabilizer chain of its own, built from the record's generator
    indices."""
    return PermGroup(G.degree, [c.table.permutation(i) for i in c.generator_indices])


def elements_of(G):
    """G's elements as image tuples: a permutation group's in lexicographic
    order, a table group's in index order."""
    if isinstance(G, TableGroup):
        return [p.images for p in G.elements()]
    return [tuple(row) for row in G.element_images().tolist()]


def element_tuples(et):
    """An element table's elements as image tuples, in index order."""
    return [et.permutation(i).images for i in range(et.n)]


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
        s = N.indices
        ways = {tuple(sorted(up[K.indices] + (K.order // N.order,)))
                for K in covers[s]}
        assert len(ways) == (N.order < G.order), \
            f"chief series up from a normal subgroup of order {N.order}: {sorted(ways)}"
        up[s] = ways.pop() if ways else ()
    return list(up[frozenset([0])])


def block_permutation(draw, blocks):
    """A random permutation of {0..n-1} mapping each block to itself."""
    images = list(range(sum(len(b) for b in blocks)))
    for block in blocks:
        for src, dst in zip(block, draw(st.permutations(block))):
            images[src] = dst
    return Permutation(images)


@st.composite
def small_groups(draw):
    """A group on at most 8 points, generated by 1 to 3 random permutations
    that preserve a random partition into blocks of at most 6 points, so the
    order stays at most |S6 x S2| = 1440."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 8))
    points = draw(st.permutations(range(sum(sizes))))
    blocks, start = [], 0
    for size in sizes:
        blocks.append(points[start:start + size])
        start += size
    count = draw(st.integers(1, 3))
    return PermGroup(len(points), [block_permutation(draw, blocks) for _ in range(count)])


@st.composite
def relabeled(draw):
    """A group from `small_groups` and a copy of it with its points relabeled
    and its generators shuffled."""
    G = draw(small_groups())
    sigma = Permutation(draw(st.permutations(range(G.degree))))
    gens = [g.conjugated_by(sigma) for g in draw(st.permutations(G.generators))]
    return G, PermGroup(G.degree, gens)
