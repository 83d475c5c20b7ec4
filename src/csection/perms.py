"""Permutations of {0..degree-1} with 1-indexed cycle notation at the I/O boundary."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence

# Identity image tuples by degree, for is_identity.
_IDENTITIES: dict[int, tuple[int, ...]] = {}


class Permutation:
    """An immutable bijection of {0, ..., degree-1} stored as its tuple of images.

    Products compose left to right: (p * q) maps x to q(p(x)).  All internal
    indices are 0-based; cycle strings are rendered 1-based because that is the
    convention used in input and output files.
    """

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        seen = [False] * len(images)
        for i in images:
            if not isinstance(i, int) or not 0 <= i < len(images) or seen[i]:
                raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
            seen[i] = True
        self.images = images

    @classmethod
    def _unsafe(cls, images: tuple[int, ...]) -> "Permutation":
        # Fast path for images already known to be a bijection.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        """Return the identity permutation on `degree` points."""
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls._unsafe(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]], *, base: int = 0) -> "Permutation":
        """Build a permutation from disjoint cycles, given 0-based or 1-based points."""
        images = list(range(degree))
        touched = [False] * degree
        for cyc in cycles:
            pts = [c - base for c in cyc]
            for pt in pts:
                if not 0 <= pt < degree:
                    raise ValueError(f"cycle point {pt + base} out of range for degree {degree}")
                if touched[pt]:
                    raise ValueError(f"point {pt + base} repeated across cycles")
                touched[pt] = True
            for i, pt in enumerate(pts):
                images[pt] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: apply self first, then other."""
        a = self.images
        if len(a) < 2:  # itemgetter with one index returns a scalar, not a tuple
            b = other.images
            return Permutation._unsafe(tuple(b[x] for x in a))
        return Permutation._unsafe(itemgetter(*a)(other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._unsafe(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g."""
        ginv = g.inverse().images
        p = self.images
        gi = g.images
        return Permutation._unsafe(tuple(gi[p[ginv[x]]] for x in range(len(p))))

    def is_identity(self) -> bool:
        images = self.images
        ident = _IDENTITIES.get(len(images))
        if ident is None:
            ident = _IDENTITIES[len(images)] = tuple(range(len(images)))
        return images == ident

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def cycle_string(self, *, base: int = 1) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + base) for p in c) + ")" for c in cycs)

    def cycle_lists(self, *, base: int = 1) -> list[list[int]]:
        """Cycles as plain lists, shifted for the requested index base."""
        return [[p + base for p in c] for c in self.cycles()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def parse_cycle_lists(degree: int, cycle_lists: Sequence[Sequence[Sequence[int]]]) -> list[Permutation]:
    """Parse a list of permutations, each given as a list of 1-indexed cycles."""
    return [Permutation.from_cycles(degree, cycles, base=1) for cycles in cycle_lists]
