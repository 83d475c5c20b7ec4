"""Indexed element tables for groups small enough to enumerate.

Most desk-scale computations (subgroup lattices, conjugacy classes, normal
subgroup enumeration) run in index space: elements become integers, subgroups
become frozensets of integers, and multiplication is one lookup in a uint16
Cayley table.

One bound, `MAX_ORDER`, says which groups are small enough, and
`ElementTable` checks it before it enumerates a single element.  The table
has n*n two-byte cells: 48 MB at 4,896 elements, 200 MB at 10,000.  10,000
is the largest order that any pipeline entry accepts; uint16 cells would
index up to 65,536 elements.

The hot loops read the table a row at a time: `rows[i]` is a 1-D view of row
i, so a whole left coset u*H is one C-level gather, `itemgetter(*H)(rows[u])`,
and a conjugate g^-1*x*g is two cell reads.

An input group's elements are enumerated once, as one (n x degree) array of
images, `PermGroup.element_images`, with no Python object per element; its
rows are in lexicographic order, so element i is the i-th smallest image
tuple.  An element is found by its images of the chain's base points: the
table keeps those keys sorted and searches a whole array of them at once.
Each generator row of the Cayley table is one gather of the image array and
one such search, checked row for row; every other row is gathered from the
table itself.  A subgroup is held as a `lattice.SubgroupClass` record, its
indices in the parent's table; a caller's subgroup, a `PermGroup` on the
parent's points, is read into one by `index_of` on its generators.  Every
group the pipeline derives, a quotient D/L or a subgroup (a record's
`group`), is a `TableGroup`: its table is read off the parent's table, and
no element is enumerated.  A table does not refer back to its group, so a
group, its caches and its tables hold no reference cycle, and they are freed
as soon as the group is.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .groups import CapExceededError, NotASubgroupError, PermGroup, _row_keys
from .perms import Permutation

# Largest group order that gets an element table, the bound of every search.
MAX_ORDER = 10_000
# Rows are gathered in chunks of about this many cells, bounding the temporaries
# to about 0.2 MB.
_TABLE_CHUNK = 1 << 14


class ElementTable:
    """All elements of a group, indexed, with fast multiplication helpers.

    Index 0 is always the identity; elements are sorted by image tuple (a
    table group's come in the order its parent's table gave them), so
    indices are stable across runs.
    """

    def __init__(self, group: PermGroup):
        if group.order > MAX_ORDER:
            raise CapExceededError(f"group order {group.order} exceeds element cap {MAX_ORDER}")
        images = group.element_images()
        if len(images) != group.order or (images[1:] == images[:-1]).all(axis=1).any():
            raise RuntimeError("element enumeration disagrees with the group order")
        if (images[0] != np.arange(group.degree)).any():
            raise RuntimeError("identity did not sort first in the element table")
        # Row i holds element i's images; None for a table group, whose
        # elements are its indices.
        self.images: Optional[np.ndarray] = images
        self.n = len(images)
        # An element of the group is determined by its images of the base
        # points, so those key the index: the keys sorted, with each one's row.
        self._base = list(group.base) or [0]  # a trivial group has no base
        keys = _row_keys(images[:, self._base])
        self._key_rows = np.argsort(keys)
        self._keys = keys[self._key_rows]
        gens = np.array([g.images for g in group.generators], dtype=images.dtype)
        found = self._indices(gens.reshape(-1, group.degree))
        if found is None:
            raise RuntimeError("a generator is not among the enumerated elements")
        self.generator_indices: list[int] = found.tolist()
        self._build_table()

    @classmethod
    def _of_table(cls, table: np.ndarray, generator_indices: list[int]) -> "ElementTable":
        """The element table of a table group: its Cayley table, already read
        off a parent's table, and its generators by index."""
        et = cls.__new__(cls)
        et.images = None
        et.n = len(table)
        et.generator_indices = generator_indices
        et._adopt(table)
        return et

    def _build_table(self) -> None:
        """Cayley table: row i, column j holds the index of element_i * element_j.

        Only the generator rows are composed from the image array, each
        checked against it row for row.  Every other row follows from
        (a*b)*j = a*(b*j): row a*b is row a gathered at row b.
        Rows are filled breadth-first from the generators, a layer at a time;
        each element b of a layer yields g*b for every generator g, and b*b,
        so a cyclic group is crossed in O(log n) layers.
        """
        n = self.n
        images = self.images
        table = np.empty((n, n), dtype=np.uint16)
        table[0] = np.arange(n)
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        gens = np.array(sorted(set(self.generator_indices) - {0}), dtype=np.intp)
        for g in gens:
            # Row j of `products` is element g * element j: element j's images at g's.
            row = self._indices(np.take(images, images[g], axis=1))
            if row is None:
                raise RuntimeError("a generator's product fell outside the group's elements")
            table[g] = row
        seen[gens] = True
        cells = table.reshape(-1)
        rows = max(1, _TABLE_CHUNK // n)
        layer = gens
        while layer.size:
            # Row r of the products is gens[r] * layer, and the last row is layer * layer.
            lefts = np.empty((gens.size + 1, layer.size), dtype=np.intp)
            lefts[:-1] = gens[:, None]
            lefts[-1] = layer
            new, first = np.unique(table[lefts, layer], return_index=True)
            fresh = ~seen[new]
            new, first = new[fresh], first[fresh]
            seen[new] = True
            left, right = lefts.reshape(-1)[first], layer[first % layer.size]
            for start in range(0, new.size, rows):
                chunk = slice(start, start + rows)
                table[new[chunk]] = cells.take(table[right[chunk]] + (left[chunk] * n)[:, None])
            layer = new
        if not seen.all():
            raise RuntimeError("the generators do not reach every element of the group")
        self._adopt(table)

    def _adopt(self, table: np.ndarray) -> None:
        """Takes the (n x n) uint16 Cayley table and sets up its readers."""
        self._mul_table = table
        # Views into the table's buffer, one per row; no copy is made.
        # rows[i][j] is the index of element_i * element_j
        n = self.n
        buffer = memoryview(table.reshape(-1))
        self.rows: list[memoryview] = [buffer[i * n:(i + 1) * n] for i in range(n)]
        # The identity, index 0, sits once in every row, at the inverse's column.
        self.inverse: list[int] = table.argmin(axis=1).tolist()
        self._orders: Optional[list[int]] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[list[int]] = None

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
            orders = self._orders = self._element_orders()
        return orders[i]

    def _element_orders(self) -> list[int]:
        """Every element's order: x^(k+1) = x^k * x is one table gather over the
        elements whose powers have not yet reached the identity."""
        table = self._mul_table
        orders = np.ones(self.n, dtype=np.int64)
        live = np.arange(1, self.n)
        power = live.copy()
        k = 1
        while live.size:
            k += 1
            power = table[power, live]
            back = power == 0
            orders[live[back]] = k
            live, power = live[~back], power[~back]
        return orders.tolist()

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

    def closure(self, base_set: Iterable[int] | ClosureBase | None, base_gens: Sequence[int],
                new_gens: Sequence[int], *, abort_above: Optional[int] = None) -> Optional[frozenset[int]]:
        """Subgroup generated by a known subgroup and extra elements.

        `base_set` must be closed (a subgroup H) and `base_gens` must generate
        it; a caller that extends one H many times passes a `ClosureBase`
        instead, and its generators stand for `base_gens`.  The closure walks
        left cosets of H: for a coset representative t and a generator g, a new
        u = g*t brings in the whole coset u*H, one gather from row u.  The
        result is closed under left multiplication by a generating set, so it
        is the subgroup; the cost is linear in its size, and the walk stops
        once it is the whole group.
        Returns None when the result would exceed `abort_above`.
        """
        rows = self.rows
        base = base_set if isinstance(base_set, ClosureBase) else ClosureBase(
            self, (0,) if base_set is None else base_set, base_gens)
        S = set(base.elements)
        gens = list(base.gens)
        left = list(base.rows)
        for g in new_gens:
            if g and g not in gens:
                gens.append(g)
                left.append(rows[g])
        if abort_above is not None and len(S) > abort_above:
            return None
        coset = base.coset
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

    def _indices(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """The index of the element with each row of images, found by the
        row's base images and then compared whole; None when some row is no
        element's."""
        at = self._keys.searchsorted(_row_keys(rows[:, self._base]))
        found = self._key_rows.take(at, mode="clip")  # past the last key: some row
        return found if (self.images[found] == rows).all() else None

    def permutation(self, i: int) -> Permutation:
        """Element i as a permutation of the group's points.  A table group's
        points are its elements, and element i moves x to x*i: column i."""
        if self.images is None:
            return Permutation._unsafe(tuple(self._mul_table[:, i].tolist()))
        return Permutation._unsafe(tuple(self.images[i].tolist()))

    def index_of(self, p: Permutation) -> int:
        """The index of the element p, a permutation of the group's points:
        the inverse of `permutation`.  A table group's element i is column i,
        which moves the identity, point 0, to i; an input group's element is
        found by its base images and compared whole.  A permutation that is
        not an element, one of another degree included, raises
        NotASubgroupError."""
        if self.images is None:
            i = p.images[0]
            if i < self.n and self.permutation(i) == p:
                return i
        elif p.degree == self.images.shape[1]:
            found = self._indices(np.array([p.images], dtype=self.images.dtype))
            if found is not None:
                return int(found[0])
        raise NotASubgroupError(f"{p!r} is not an element of the group")


class TableGroup:
    """A group given by its Cayley table, read off a parent group's table: a
    quotient D/L, or a subgroup (L = 1).  Its elements are the indices
    0..n-1, with 0 the identity, and its generators are given by index.  As a
    permutation group it is its right regular representation: element i is
    column i of the table, so its degree is its order.  It has no stabilizer
    chain, so membership and normalizers are not offered."""

    __slots__ = ("_cache",)

    def __init__(self, table: np.ndarray, generator_indices: Sequence[int]):
        self._cache: dict = {
            "element_table": ElementTable._of_table(table, list(generator_indices))}

    @property
    def order(self) -> int:
        return self._cache["element_table"].n

    degree = order

    def is_abelian(self) -> bool:
        et = self._cache["element_table"]
        gens, rows = et.generator_indices, et.rows
        return all(rows[a][b] == rows[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def elements(self) -> Iterable[Permutation]:
        et = self._cache["element_table"]
        return (et.permutation(i) for i in range(et.n))

    def __repr__(self) -> str:
        return f"TableGroup(order={self.order})"


class ClosureBase:
    """A subgroup H made ready for many closures <H, X>: its elements, the
    gather of its left cosets and its generators' rows, built once."""

    __slots__ = ("elements", "gens", "rows", "coset")

    def __init__(self, et: ElementTable, elements: Iterable[int], gens: Sequence[int]):
        self.elements = frozenset(elements)  # no copy when given a frozenset
        self.gens: list[int] = []
        for g in gens:
            if g and g not in self.gens:
                self.gens.append(g)
        self.rows = [et.rows[g] for g in self.gens]
        self.coset = coset_gather(sorted(self.elements))


def coset_gather(block: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Reads the left coset u*H off row u, for H the sorted index list `block`."""
    if len(block) == 1:  # itemgetter of one index returns a scalar, not a tuple
        only = block[0]
        return lambda row: (row[only],)
    return itemgetter(*block)


def element_table(group: PermGroup | TableGroup) -> ElementTable:
    """Memoized element table for a group; a table group holds its own."""
    cached = group._cache.get("element_table")
    if cached is not None and cached.n == group.order:
        return cached
    table = ElementTable(group)
    group._cache["element_table"] = table
    return table
