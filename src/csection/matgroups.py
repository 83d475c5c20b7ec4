"""Matrix groups over small finite fields and their permutation images.

Provides SL(n, q) via transvection-plus-cycle generators, projective and
vector actions as permutation groups, and the triangular-subgroup
constructions (Sylow p-subgroup, its lower-triangular normalizer, and the
one-parameter corner subgroup) used by the Sylow-normalizer checks.  A
matrix acts on every point at once, through the field's table arithmetic on
numpy arrays, the same way over every field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gf import FieldTable
from .groups import PermGroup
from .perms import Permutation


class Matrix:
    """An immutable square matrix over a FieldTable."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldTable, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} outside GF({field.q})")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field: FieldTable, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def elementary(cls, field: FieldTable, n: int, i: int, j: int, a: int) -> "Matrix":
        """E + a*E_ij (a transvection when i != j)."""
        if i == j:
            raise ValueError("elementary transvection needs i != j")
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        rows[i][j] = a
        return cls(field, rows)

    @classmethod
    def diagonal(cls, field: FieldTable, entries: Sequence[int]) -> "Matrix":
        n = len(entries)
        return cls(field, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        F = self.field
        n = self.n
        brows = other.rows
        out = []
        for i in range(n):
            arow = self.rows[i]
            row = []
            for j in range(n):
                acc = 0
                for k in range(n):
                    if arow[k]:
                        acc = F.add(acc, F.mul(arow[k], brows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(F, out)

    def det(self) -> int:
        F = self.field
        n = self.n
        m = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = F.neg(det)
            det = F.mul(det, m[col][col])
            inv_p = F.inv(m[col][col])
            for r in range(col + 1, n):
                if m[r][col]:
                    factor = F.mul(m[r][col], inv_p)
                    for c in range(col, n):
                        m[r][c] = F.sub(m[r][c], F.mul(factor, m[col][c]))
        return det

    def inverse(self) -> "Matrix":
        F = self.field
        n = self.n
        m = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv_p = F.inv(m[col][col])
            m[col] = [F.mul(x, inv_p) for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(m[r], m[col])]
        return Matrix(F, [row[n:] for row in m])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows and self.field is other.field

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.rows})"


def nonzero_vectors(field: FieldTable, n: int) -> list[tuple[int, ...]]:
    return [v for v in itertools.product(range(field.q), repeat=n) if any(v)]


def projective_points(field: FieldTable, n: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1), sorted: k
    zeros, a 1, then any coordinates, with the points of more leading zeros
    first."""
    return [(0,) * k + (1,) + rest for k in range(n - 1, -1, -1)
            for rest in itertools.product(range(field.q), repeat=n - 1 - k)]


def _action_group(field: FieldTable, n: int, matrices: Sequence[Matrix],
                  points: list[tuple[int, ...]], projective: bool) -> PermGroup:
    """The matrices' action on the points (row vectors, normalized when
    projective) as a permutation group of degree len(points).

    A matrix acts on all points at once through the field's array
    arithmetic: coordinate j of v*m sums the products v_i * m_ij, a
    projective image is scaled by its leading entry's inverse, and an image
    point is found by its base-q code."""
    vectors = np.array(points, dtype=np.intp).reshape(len(points), n)
    radix = field.q ** np.arange(n - 1, -1, -1)
    codes = vectors @ radix
    by_code = np.argsort(codes)
    codes = codes[by_code]
    rows = np.arange(len(points))
    perms = []
    for m in matrices:
        entries = np.array(m.rows, dtype=np.intp)
        image = field.mul_array(vectors[:, :1], entries[0])
        for i in range(1, n):
            image = field.add_array(image, field.mul_array(vectors[:, i:i + 1], entries[i]))
        if projective:
            lead = image[rows, (image != 0).argmax(axis=1)]
            image = field.mul_array(field.inv_array(lead)[:, None], image)
        code = image @ radix
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        if (codes[at] != code).any():
            raise ValueError("a matrix moved a point outside the point set")
        perms.append(Permutation(by_code[at].tolist()))
    return PermGroup(len(points), perms)


def projective_perm_group(n: int, field: FieldTable, matrices: Sequence[Matrix]) -> PermGroup:
    """Image of the given matrices acting on projective (n-1)-space points."""
    return _action_group(field, n, matrices, projective_points(field, n), True)


def vector_perm_group(n: int, field: FieldTable, matrices: Sequence[Matrix]) -> PermGroup:
    """Image of the given matrices acting on the nonzero row vectors."""
    return _action_group(field, n, matrices, nonzero_vectors(field, n), False)


def sl_generators(n: int, field: FieldTable) -> list[Matrix]:
    """Transvections at position (0, 1) with basis coefficients, plus a cycle matrix.

    The transvections give one root subgroup over the whole field; conjugating
    by the cycle reaches the cyclically adjacent positions and commutators fill
    in the rest, so the set generates SL(n, q).
    """
    if n < 2:
        raise ValueError("SL needs n >= 2")
    zeta = field.primitive_element()
    gens = [Matrix.elementary(field, n, 0, 1, field.pow(zeta, k)) for k in range(field.f)]
    rows = [[0] * n for _ in range(n)]
    sign = 1 if n % 2 else field.neg(1)
    for i in range(n - 1):
        rows[i][i + 1] = 1
    rows[n - 1][0] = sign
    w = Matrix(field, rows)
    if w.det() != 1:
        raise RuntimeError("cycle generator is not in SL")
    gens.append(w)
    return gens


def gl_generators(n: int, field: FieldTable) -> list[Matrix]:
    """SL generators plus one diagonal of determinant a primitive element."""
    zeta = field.primitive_element()
    return sl_generators(n, field) + [Matrix.diagonal(field, [zeta] + [1] * (n - 1))]


def sl_order(n: int, q: int) -> int:
    order = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= q ** i - 1
    return order


def psl_order(n: int, q: int) -> int:
    return sl_order(n, q) // math.gcd(n, q - 1)


def sl_group(n: int, field: FieldTable) -> PermGroup:
    """SL(n, q) as a faithful permutation group on nonzero row vectors."""
    group = vector_perm_group(n, field, sl_generators(n, field))
    if group.order != sl_order(n, field.q):
        raise RuntimeError("SL generator set produced the wrong order")
    return group


def psl_group(n: int, field: FieldTable) -> PermGroup:
    """PSL(n, q) on projective points."""
    group = projective_perm_group(n, field, sl_generators(n, field))
    if group.order != psl_order(n, field.q):
        raise RuntimeError("projective SL image has the wrong order")
    return group


def pgl_group(field: FieldTable) -> PermGroup:
    """PGL(2, q) on the projective line."""
    group = projective_perm_group(2, field, gl_generators(2, field))
    q = field.q
    if group.order != q * (q - 1) * (q + 1):
        raise RuntimeError("projective GL image has the wrong order")
    return group


def lower_unitriangular_generators(n: int, field: FieldTable) -> list[Matrix]:
    """Adjacent lower transvections with basis coefficients; they generate the
    full lower unitriangular group (commutators reach the far corners)."""
    zeta = field.primitive_element()
    gens = []
    for i in range(n - 1):
        for k in range(field.f):
            gens.append(Matrix.elementary(field, n, i + 1, i, field.pow(zeta, k)))
    return gens


def lower_triangular_sl_generators(n: int, field: FieldTable) -> list[Matrix]:
    """Generators of the lower triangular subgroup of SL(n, q)."""
    zeta = field.primitive_element()
    gens = list(lower_unitriangular_generators(n, field))
    inv = field.inv(zeta)
    for i in range(n - 1):
        entries = [1] * n
        entries[i] = zeta
        entries[i + 1] = inv
        gens.append(Matrix.diagonal(field, entries))
    return gens


def corner_subgroup_generators(n: int, field: FieldTable) -> list[Matrix]:
    """The corner subgroup {E + a*E_{n,1}}, elementary abelian of order q."""
    zeta = field.primitive_element()
    return [Matrix.elementary(field, n, n - 1, 0, field.pow(zeta, k)) for k in range(field.f)]


def triangular_count(n: int, q: int) -> int:
    """Matrix count of the lower triangular determinant-one group."""
    return q ** (n * (n - 1) // 2) * (q - 1) ** (n - 1)


def triangular_group(n: int, field: FieldTable, projective: bool) -> PermGroup:
    """The lower triangular subgroup of SL(n, q), the normalizer of its
    lower unitriangular Sylow subgroup, on the nonzero vectors or, when
    projective, its image on the projective points; its order is checked
    against the closed form."""
    points = projective_points(field, n) if projective else nonzero_vectors(field, n)
    group = _action_group(field, n, lower_triangular_sl_generators(n, field), points, projective)
    kernel = math.gcd(n, field.q - 1) if projective else 1
    if group.order != triangular_count(n, field.q) // kernel:
        raise RuntimeError("triangular image has the wrong order")
    return group


@dataclass
class TriangularInstance:
    """SL(n, q) with its triangular subgroups realized on both actions, each
    a permutation group on its ambient group's points.

    `vec_*` subgroups live in the faithful action on nonzero vectors (matrix
    counts are orders there); `proj_*` subgroups live in the projective image,
    where the scalar kernel has been factored out.
    """

    n: int
    field: FieldTable
    vec_group: PermGroup
    proj_group: PermGroup
    vec_sylow: PermGroup
    proj_sylow: PermGroup
    vec_normalizer: PermGroup
    proj_normalizer: PermGroup
    vec_corner: PermGroup
    proj_corner: PermGroup
    kernel_order: int


def triangular_instance(n: int, field: FieldTable) -> TriangularInstance:
    """Build SL(n, q) with Sylow, normalizer, and corner subgroups on both actions."""
    slgens = sl_generators(n, field)
    vec_pts = nonzero_vectors(field, n)
    proj_pts = projective_points(field, n)
    vec_group = _action_group(field, n, slgens, vec_pts, False)
    proj_group = _action_group(field, n, slgens, proj_pts, True)
    if vec_group.order != sl_order(n, field.q):
        raise RuntimeError("vector action is not faithful for SL")

    syl = lower_unitriangular_generators(n, field)
    corner = corner_subgroup_generators(n, field)

    inst = TriangularInstance(
        n=n,
        field=field,
        vec_group=vec_group,
        proj_group=proj_group,
        vec_sylow=_action_group(field, n, syl, vec_pts, False),
        proj_sylow=_action_group(field, n, syl, proj_pts, True),
        vec_normalizer=triangular_group(n, field, False),
        proj_normalizer=triangular_group(n, field, True),
        vec_corner=_action_group(field, n, corner, vec_pts, False),
        proj_corner=_action_group(field, n, corner, proj_pts, True),
        kernel_order=math.gcd(n, field.q - 1),
    )
    # Order certifications against the closed forms.
    q = field.q
    if inst.vec_sylow.order != q ** (n * (n - 1) // 2):
        raise RuntimeError("Sylow image has the wrong order")
    if inst.vec_corner.order != q:
        raise RuntimeError("corner subgroup has the wrong order")
    return inst


def lemma_conjugation_trial(n: int, field: FieldTable, rng) -> tuple[bool, int]:
    """One random check of D^-1 (E + a E_{n,1}) D == E + a*a_nn^-1*a_11*E_{n,1}.

    Returns (identity holds, multiplier) where the multiplier is the corner
    entry of the conjugated matrix.
    """
    q = field.q
    # Random lower triangular D with determinant 1.
    diag = [1 + rng.randrange(q - 1) for _ in range(n - 1)]
    prod = 1
    for d in diag:
        prod = field.mul(prod, d)
    diag.append(field.inv(prod))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i):
            rows[i][j] = rng.randrange(q)
    D = Matrix(field, rows)
    a = 1 + rng.randrange(q - 1)
    X = Matrix.elementary(field, n, n - 1, 0, a)
    lhs = D.inverse() * X * D
    multiplier = field.mul(a, field.mul(field.inv(diag[n - 1]), diag[0]))
    rhs = Matrix.elementary(field, n, n - 1, 0, multiplier)
    return lhs == rhs, multiplier


def conjugation_check(n: int, field: FieldTable, trials: int, seed: int = 0) -> dict:
    """Randomized certification of the corner-conjugation identity.

    For n > 2 the diagonal can be chosen with a_nn = 1, so the multiplier set
    is a * (whole multiplicative group); for n = 2 it is a * (squares).
    """
    import random
    rng = random.Random(seed)
    failures = 0
    multipliers = set()
    for _ in range(trials):
        ok, mult = lemma_conjugation_trial(n, field, rng)
        if not ok:
            failures += 1
        multipliers.add(mult)
    # Exhaustive multiplier census for a = 1: {a11 * ann^-1}.
    census = set()
    q = field.q
    if n == 2:
        # a_22 = a_11^-1, so the multiplier is a_11 squared.
        for a11 in range(1, q):
            census.add(field.mul(a11, a11))
    else:
        # a_nn may be chosen 1, leaving a_11 free over the whole group.
        for a11 in range(1, q):
            census.add(a11)
    return {
        "trials": trials,
        "failures": failures,
        "sampled_multipliers": len(multipliers),
        "multiplier_census": len(census),
    }
