"""Matrix groups over small fields and their permutation actions."""

import random

import pytest

from csection.gf import field_make
from csection.groups import normalizer
from csection.matgroups import (Matrix, _action_group, conjugation_check,
                                corner_subgroup_generators,
                                gl_generators, lemma_conjugation_trial,
                                lower_triangular_sl_generators,
                                lower_unitriangular_generators, nonzero_vectors,
                                pgl_group, projective_points, psl_group,
                                psl_order, sl_generators, sl_group, sl_order,
                                triangular_count, triangular_instance,
                                vector_perm_group)
from gtools import elements_of
from oracles import SL34_SYLOW_NORMALIZER_GENERATORS, det_cofactor, matrix_action_naive


def _random_matrix(F, n, rng):
    return Matrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)])
def test_det_matches_cofactor_expansion(q, n):
    F = field_make(*_pf(q))
    rng = random.Random(q * 10 + n)
    for _ in range(40):
        m = _random_matrix(F, n, rng)
        assert m.det() == det_cofactor(F, m.rows)


def _pf(q):
    p = 2 if q % 2 == 0 else min(d for d in range(2, q + 1) if q % d == 0)
    f = 0
    while q > 1:
        q //= p
        f += 1
    return p, f


def test_det_is_multiplicative():
    F = field_make(3, 2)
    rng = random.Random(4)
    for _ in range(30):
        a = _random_matrix(F, 3, rng)
        b = _random_matrix(F, 3, rng)
        assert (a * b).det() == F.mul(a.det(), b.det())


def test_matrix_constructors_and_inverse():
    F = field_make(5)
    I = Matrix.identity(F, 3)
    assert I.det() == 1 and I == Matrix.diagonal(F, [1, 1, 1])
    E = Matrix.elementary(F, 3, 2, 0, 4)
    assert E.rows[2][0] == 4 and E.det() == 1
    D = Matrix.diagonal(F, [2, 3, 1])
    assert D.det() == F.mul(2, 3)
    rng = random.Random(1)
    count = 0
    while count < 20:
        m = _random_matrix(F, 3, rng)
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        assert m * m.inverse() == I
        count += 1


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (4, 3)])
def test_point_sets(q, n):
    F = field_make(*_pf(q))
    vecs = nonzero_vectors(F, n)
    assert len(vecs) == q ** n - 1
    assert len(set(vecs)) == len(vecs)
    pts = projective_points(F, n)
    assert len(pts) == (q ** n - 1) // (q - 1)
    assert pts == sorted(pts)
    for pt in pts:
        lead = next(x for x in pt if x)
        assert lead == 1


@pytest.mark.parametrize("n,q,order", [
    (2, 2, 6), (2, 3, 24), (2, 4, 60), (2, 5, 120), (2, 7, 336),
    (2, 8, 504), (2, 9, 720), (3, 2, 168), (3, 3, 5616),
])
def test_sl_orders(n, q, order):
    F = field_make(*_pf(q))
    assert sl_order(n, q) == order
    for m in sl_generators(n, F):
        assert m.det() == 1
    if order <= 1000:
        assert sl_group(n, F).order == order


@pytest.mark.parametrize("q,order", [(4, 60), (5, 60), (7, 168), (9, 360)])
def test_psl_orders(q, order):
    F = field_make(*_pf(q))
    assert psl_order(2, q) == order
    G = psl_group(2, F)
    assert G.order == order
    assert G.degree == q + 1


@pytest.mark.parametrize("q,order", [(2, 6), (3, 24), (4, 60), (5, 120), (7, 336)])
def test_pgl_orders(q, order):
    F = field_make(*_pf(q))
    G = pgl_group(F)
    assert G.order == order
    assert G.degree == q + 1


def test_gl_generators_span_determinants():
    F = field_make(5)
    dets = {m.det() for m in gl_generators(2, F)}
    assert 1 in dets and any(d != 1 for d in dets)


def test_vector_action_degree():
    F = field_make(7)
    G = vector_perm_group(2, F, sl_generators(2, F))
    assert G.degree == 48
    assert G.order == 336


TRIANGULAR_CASES = [
    # (n, q, sylow, normalizer_vec, normalizer_proj, kernel)
    (2, 4, 4, 12, 12, 1),
    (2, 8, 8, 56, 56, 1),
    (2, 9, 9, 72, 36, 2),
    (3, 4, 64, 576, 192, 3),
]


@pytest.mark.parametrize("n,q,syl,nvec,nproj,kernel", TRIANGULAR_CASES)
def test_triangular_instance_orders(n, q, syl, nvec, nproj, kernel):
    F = field_make(*_pf(q))
    assert triangular_count(n, q) == nvec
    ti = triangular_instance(n, F)
    assert ti.vec_group.order == sl_order(n, q)
    assert ti.proj_group.order == sl_order(n, q) // kernel
    assert ti.kernel_order == kernel
    assert ti.vec_sylow.order == syl
    assert ti.vec_normalizer.order == nvec
    assert ti.proj_normalizer.order == nproj
    assert ti.vec_corner.order == q
    assert ti.proj_corner.order == q
    # generator shapes: unitriangular dets are 1, triangular dets are 1
    for m in lower_unitriangular_generators(n, F) + lower_triangular_sl_generators(n, F):
        assert m.det() == 1
    for m in corner_subgroup_generators(n, F):
        assert m.det() == 1
        assert all(m.rows[i][i] == 1 for i in range(n))


@pytest.mark.parametrize("n,q,census", [(2, 4, 3), (2, 8, 7), (2, 9, 4), (3, 4, 3)])
def test_conjugation_check(n, q, census):
    F = field_make(*_pf(q))
    out = conjugation_check(n, F, trials=120, seed=3)
    assert out["trials"] == 120
    assert out["failures"] == 0
    assert out["multiplier_census"] == census
    # random trials also scale by a free unit, so the sample can cover all of F*
    assert 1 <= out["sampled_multipliers"] <= q - 1


def test_single_conjugation_trials_hold():
    F = field_make(3, 2)
    rng = random.Random(0)
    for _ in range(60):
        ok, mult = lemma_conjugation_trial(2, F, rng)
        assert ok
        assert 1 <= mult < F.q


@pytest.mark.parametrize("side", ["vec", "proj"])
def test_sl34_sylow_normalizer(side):
    ti = triangular_instance(3, field_make(2, 2))
    G, sylow, want = ((ti.vec_group, ti.vec_sylow, ti.vec_normalizer) if side == "vec"
                      else (ti.proj_group, ti.proj_sylow, ti.proj_normalizer))
    got = normalizer(G, sylow)
    assert set(elements_of(got)) == set(elements_of(want))
    assert [g.images for g in got.generators] == SL34_SYLOW_NORMALIZER_GENERATORS[side]


@pytest.mark.parametrize("p,f,n,sides", [(2, 2, 2, (False, True)), (3, 2, 2, (False, True)),
                                         (2, 2, 3, (False, True)), (521, 1, 2, (True,))],
                         ids=["GF4_2", "GF9_2", "GF4_3", "GF521_line"])
def test_action_without_field_tables_matches_the_table_path(p, f, n, sides):
    """The field's array arithmetic acts on all points at once; a pointwise
    reference with its own digit and polynomial arithmetic gives the same
    permutations, and both refuse a matrix that moves a point off the point
    set, the projective one through its zero image rows.  Over GF(521) only
    the projective line is built: its vector action has 271,440 points."""
    F = field_make(p, f)
    matrices = sl_generators(n, F) + lower_triangular_sl_generators(n, F) + gl_generators(n, F)
    zero = Matrix(F, [[0] * n for _ in range(n)])
    for projective in sides:
        points = projective_points(F, n) if projective else nonzero_vectors(F, n)
        tabled = _action_group(F, n, matrices, points, projective)
        with pytest.raises(ValueError, match="outside the point set"):
            _action_group(F, n, [zero], points, projective)
        pointwise = matrix_action_naive(p, f, F.modulus, [m.rows for m in matrices],
                                        points, projective)
        with pytest.raises(ValueError, match="outside the point set"):
            matrix_action_naive(p, f, F.modulus, [zero.rows], points, projective)
        assert [g.images for g in tabled.generators] == \
            [tuple(images) for images in pointwise if images != list(range(len(points)))]
