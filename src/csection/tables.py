"""Indexed element tables for groups small enough to enumerate.

Most desk-scale computations (subgroup lattices, conjugacy classes, normal
subgroup enumeration) run in index space: elements become integers, subgroups
become frozensets of integers, and multiplication is one lookup in a uint16
Cayley table.  The table covers every group of order n <= 4096 and costs n*n
two-byte cells, 32 MiB at that bound.

The hot loops read the table a row at a time: `rows[i]` is a 1-D view of row
i, so a whole left coset u*H is one C-level gather, `itemgetter(*H)(rows[u])`,
and a conjugate g^-1*x*g is two cell reads.  Above the bound there is no
table; `rows` then composes image tuples on demand, so closures and
conjugations take the same code path at up to 10,000 elements.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .groups import CapExceededError, PermGroup
from .perms import Permutation

# Largest order that gets a Cayley table; uint16 cells hold every index.
_TABLE_MAX_ORDER = 4_096
# Products are keyed in row chunks of about this many, bounding the temporaries
# (about 1.5 MB; chunks of 2**16 raised peak RSS by 6% on battery scans).
_TABLE_CHUNK = 1 << 14


class ElementTable:
    """All elements of a group, indexed, with fast multiplication helpers.

    Index 0 is always the identity; elements are sorted by image tuple, so
    indices are stable across runs.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        tuples = sorted(g.images for g in group.elements())
        if len(tuples) != group.order:
            raise RuntimeError("element enumeration disagrees with the group order")
        self.tuples: list[tuple[int, ...]] = tuples
        self.index: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(tuples)}
        self.n = len(tuples)
        ident = tuple(range(group.degree))
        if self.index[ident] != 0:
            raise RuntimeError("identity did not sort first in the element table")
        self.inverse: list[int] = [0] * self.n
        for i, t in enumerate(tuples):
            inv = [0] * len(t)
            for a, b in enumerate(t):
                inv[b] = a
            self.inverse[i] = self.index[tuple(inv)]
        self.generator_indices: list[int] = [self.index[g.images] for g in group.generators]
        self._mul_table: Optional[np.ndarray] = None
        # rows[i][j] is the index of element_i * element_j
        self.rows: Sequence[Sequence[int]]
        if self.n <= _TABLE_MAX_ORDER:
            self._build_table()
        else:
            self.rows = _ComposedRows(self.tuples, self.index)
        self._orders: Optional[list[int]] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[list[int]] = None

    def _build_table(self) -> None:
        """Cayley table: row i, column j holds the index of element_i * element_j.

        An element is determined by its images of the base.  Sifting those
        images down the stabilizer chain yields one position per basic orbit,
        a mixed-radix key in [0, n) that `rank` maps to the element's index.
        Products are keyed the same way, a chunk of rows at a time.
        """
        group = self.group
        n = self.n
        images = np.array(self.tuples, dtype=np.int32).reshape(n, group.degree)
        levels = []
        for transversal in group.transversals:
            points = sorted(transversal)
            position = np.full(group.degree, -1, dtype=np.int32)
            position[points] = np.arange(len(points))
            inverses = np.array([transversal[p].inverse().images for p in points], dtype=np.int32)
            levels.append((position, inverses))

        def keys(at_base: np.ndarray) -> np.ndarray:
            key = np.zeros(at_base.shape[:-1], dtype=np.intp)
            for position, inverses in levels:
                pos = position[at_base[..., 0]]
                if (pos < 0).any():
                    raise RuntimeError("a product fell outside a basic orbit of the group")
                key = key * len(inverses) + pos
                at_base = inverses[pos[..., None], at_base[..., 1:]]
            return key

        at_base = images[:, list(group.base)]
        rank = np.full(n, -1, dtype=np.intp)
        rank[keys(at_base)] = np.arange(n)
        if (rank < 0).any():
            raise RuntimeError("base images do not tell the group's elements apart")
        table = np.empty((n, n), dtype=np.uint16)
        rows = max(1, _TABLE_CHUNK // n)
        for start in range(0, n, rows):
            # [j, r, k]: image of base point k under element_(start+r) * element_j
            products = images[:, at_base[start:start + rows]]
            table[start:start + rows] = rank[keys(products)].T
        self._mul_table = table
        # Views into the table's buffer, one per row; no copy is made.
        cells = memoryview(table.reshape(-1))
        self.rows = [cells[i * n:(i + 1) * n] for i in range(n)]

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def conj(self, i: int, g: int) -> int:
        """Index of g^-1 * element_i * g."""
        rows = self.rows
        return rows[self.inverse[g]][rows[i][g]]

    def conj_set(self, subset: Iterable[int], g: int) -> frozenset[int]:
        rows = self.rows
        left = rows[self.inverse[g]]
        return frozenset(left[rows[x][g]] for x in subset)

    def element_order(self, i: int) -> int:
        orders = self._orders
        if orders is None:
            orders = [Permutation._unsafe(t).order() for t in self.tuples]
            self._orders = orders
        return orders[i]

    def cyclic_subgroup(self, i: int) -> frozenset[int]:
        out = [0]
        x = i
        while x != 0:
            out.append(x)
            x = self.mul(x, i)
        return frozenset(out)

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Element conjugacy classes, each a sorted tuple, ordered by least member."""
        if self._classes is None:
            class_of = [-1] * self.n
            classes = []
            gens = self.generator_indices
            for start in range(self.n):
                if class_of[start] >= 0:
                    continue
                cid = len(classes)
                orbit = [start]
                class_of[start] = cid
                queue = deque([start])
                while queue:
                    x = queue.popleft()
                    for g in gens:
                        y = self.conj(x, g)
                        if class_of[y] < 0:
                            class_of[y] = cid
                            orbit.append(y)
                            queue.append(y)
                classes.append(tuple(sorted(orbit)))
            self._classes = classes
            self._class_of = class_of
        return self._classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        assert self._class_of is not None
        return self._class_of[i]

    def closure(self, base_set: Optional[Iterable[int]], base_gens: Sequence[int],
                new_gens: Sequence[int], *, abort_above: Optional[int] = None) -> Optional[frozenset[int]]:
        """Subgroup generated by a known subgroup and extra elements.

        `base_set` must be closed (a subgroup H) and `base_gens` must generate
        it.  The closure walks left cosets of H: for a coset representative t
        and a generator g, a new u = g*t brings in the whole coset u*H, one
        gather from row u (composed tuples above 4096 elements).  The result is
        closed under left multiplication by a generating set, so it is the
        subgroup; the cost is linear in its size, and the walk stops once it is
        the whole group.  Returns None when the result would exceed
        `abort_above`.
        """
        rows = self.rows
        if base_set is None:
            block = [0]
            S = {0}
        else:
            S = set(base_set)
            block = sorted(S)
        gens: list[int] = []
        for g in list(base_gens) + list(new_gens):
            if g and g not in gens:
                gens.append(g)
        if abort_above is not None and len(S) > abort_above:
            return None
        coset = coset_gather(block)
        left = [rows[g] for g in gens]
        queue = deque([0])
        while queue:
            t = queue.popleft()
            for row in left:
                u = row[t]
                if u not in S:
                    S.update(coset(rows[u]))
                    if abort_above is not None and len(S) > abort_above:
                        return None
                    if len(S) == self.n:
                        return frozenset(S)
                    queue.append(u)
        return frozenset(S)

    def extract_generators(self, subset: Iterable[int]) -> list[int]:
        """Small deterministic generating sequence for a closed subset."""
        gens: list[int] = []
        current: frozenset[int] = frozenset([0])
        for e in sorted(subset):
            if e and e not in current:
                gens.append(e)
                grown = self.closure(current, gens[:-1], [e])
                assert grown is not None
                current = grown
        return gens

    def permutation(self, i: int) -> Permutation:
        return Permutation._unsafe(self.tuples[i])

    def subset_to_perms(self, subset: Iterable[int]) -> list[Permutation]:
        return [Permutation._unsafe(self.tuples[i]) for i in sorted(subset)]


def coset_gather(block: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Reads the left coset u*H off row u, for H the sorted index list `block`."""
    if len(block) == 1:  # itemgetter of one index returns a scalar, not a tuple
        only = block[0]
        return lambda row: (row[only],)
    return itemgetter(*block)


class _ComposedRows:
    """Rows of the Cayley table for groups too large to tabulate: `rows[i][j]`
    composes the image tuples of elements i and j."""

    __slots__ = ("tuples", "index")

    def __init__(self, tuples: list[tuple[int, ...]], index: dict[tuple[int, ...], int]):
        self.tuples = tuples
        self.index = index

    def __getitem__(self, i: int) -> "_ComposedRow":
        return _ComposedRow(itemgetter(*self.tuples[i]), self.tuples, self.index)


class _ComposedRow:
    __slots__ = ("apply", "tuples", "index")

    def __init__(self, apply: Callable, tuples: list[tuple[int, ...]],
                 index: dict[tuple[int, ...], int]):
        self.apply = apply  # reads a tuple at element i's images
        self.tuples = tuples
        self.index = index

    def __getitem__(self, j: int) -> int:
        return self.index[self.apply(self.tuples[j])]


def element_table(group: PermGroup, cap: int = 10_000) -> ElementTable:
    """Memoized element table for a group.  The cap holds on a memo hit too, so
    whether a caller's cap is enforced does not depend on earlier calls."""
    if group.order > cap:
        raise CapExceededError(f"group order {group.order} exceeds element cap {cap}")
    cached = group._cache.get("element_table")
    if cached is not None and cached.n == group.order:
        return cached
    table = ElementTable(group)
    group._cache["element_table"] = table
    return table
