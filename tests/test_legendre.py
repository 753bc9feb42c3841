import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import latconv
from latconv import _config, examples, legendre
from latconv.errors import ResourceLimitError
from latconv.homogeneous import HomogeneousPolynomial
from latconv.legendre import (ConjugateEvaluator, _batched_solve,
                              conjugate_bounds_check, conjugate_compare,
                              weighted_norm)


@pytest.fixture(scope="module")
def ex73_poly(ex73_analysis):
    return ex73_analysis.points[0].classification.poly


@pytest.fixture(scope="module")
def srw3_poly():
    return latconv.analyze(examples.srw(3)).points[0].classification.poly


@pytest.fixture(scope="module")
def gauss1d_ev():
    return ConjugateEvaluator(
        HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,)))


def test_quadratic_closed_form(gauss1d_ev):
    # sup (x xi - xi^2) = x^2 / 4; the C_m remark gives 2^-1 - 2^-2 = 1/4 at x=1
    assert gauss1d_ev.conjugate(np.array([1.0])) == pytest.approx(0.25, abs=1e-10)
    assert gauss1d_ev.conjugate(np.array([-3.0])) == pytest.approx(2.25, abs=1e-9)
    assert gauss1d_ev.conjugate(np.array([0.0])) == 0.0


def test_cm_constant_formula():
    # single-term conjugate of xi^{2m}: C_m |x|^{2m/(2m-1)}
    for m in (1, 2, 3):
        P = HomogeneousPolynomial(1, {(2 * m,): 1.0}, np.eye(1), (m,))
        ev = ConjugateEvaluator(P)
        cm = (2 * m) ** (-1 / (2 * m - 1)) - (2 * m) ** (-2 * m / (2 * m - 1))
        for x in (0.5, 1.0, 2.5):
            expect = cm * x ** (2 * m / (2 * m - 1))
            assert ev.conjugate(np.array([x])) == pytest.approx(expect, rel=1e-9)


def test_ex71_closed_form(ex71_analysis):
    # separable: R#(x, y) = (5 / 3^{6/5}) |x|^{6/5} + (3/2) |y|^{4/3}.
    # The y coefficient follows from the single-term formula with a = 1/32,
    # 2m = 4 (and from the general family closed form); the printed value
    # (1 - 2^-5) is inconsistent with both.
    P = ex71_analysis.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    cx = 5.0 * 3.0 ** (-6.0 / 5.0)
    cy = 1.5
    assert ev.conjugate(np.array([1.0, 0.0])) == pytest.approx(cx, rel=1e-9)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-9, 9, size=(20, 2))
    vals, _ = ev.conjugate_batch(xs)
    expect = cx * np.abs(xs[:, 0]) ** 1.2 + cy * np.abs(xs[:, 1]) ** (4.0 / 3.0)
    assert np.max(np.abs(vals - expect) / expect) < 1e-6


def test_ex71_y_coefficient_oracle():
    # independent 1-d oracle: dense maximization of y t - t^4/32
    ts = np.linspace(-60, 60, 2_000_001)
    for y in (1.0, 2.0, 3.5):
        oracle = np.max(y * ts - ts ** 4 / 32.0)
        assert oracle == pytest.approx(1.5 * y ** (4.0 / 3.0), rel=1e-6)
        assert abs(oracle - (1 - 2.0 ** -5) * y ** (4.0 / 3.0)) > 0.2


def test_ex75_family_closed_form():
    # P_{m,lambda}#(x) = sum_j C_{m_j} (2^{m_j} |x_j|^{2 m_j} / l_j)^{1/(2m_j-1)}
    m = (1, 1)
    lam = (0.25, 0.25)
    ana = latconv.analyze(examples.ex75(m, lam))
    P = ana.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.uniform(-4, 4, size=2)
        expect = 0.0
        for j, (mj, lj) in enumerate(zip(m, lam)):
            cm = (2 * mj) ** (-1 / (2 * mj - 1)) \
                - (2 * mj) ** (-2 * mj / (2 * mj - 1))
            expect += cm * (2.0 ** mj * abs(x[j]) ** (2 * mj) / lj) \
                ** (1.0 / (2 * mj - 1))
        assert ev.conjugate(x) == pytest.approx(expect, rel=1e-8)


def test_conjugate_compare_band(intro_analysis, ex75_analysis):
    # R# =~ |x|_m in semi-elliptic coordinates: bounded ratio band
    for ana in (intro_analysis, ex75_analysis):
        P = ana.points[0].classification.poly
        ev = ConjugateEvaluator(P)
        rng = np.random.default_rng(5)
        ratios = [conjugate_compare(ev, rng.uniform(-6, 6, size=2))
                  for _ in range(12)]
        assert max(ratios) / min(ratios) < 25.0
        assert min(ratios) > 0.0


def test_single_axis_reduction(ex71_analysis):
    P = ex71_analysis.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    # on one axis the sup separates exactly
    got = ev.conjugate(np.array([0.0, 2.0]))
    assert got == pytest.approx(1.5 * 2.0 ** (4.0 / 3.0), rel=1e-9)


def test_ascent_at_least_grid(intro_analysis, rng):
    P = intro_analysis.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    for _ in range(6):
        x = rng.uniform(-5, 5, size=2)
        rho = ev._certified_radius(float(np.linalg.norm(x)))
        grid_val, _ = ev._grid_scan_batch(x[None, :], rho)
        assert ev.conjugate(x) >= grid_val[0] - 1e-12


def test_homogeneity_under_complementary_group(intro_analysis, ex73_analysis):
    for ana in (intro_analysis, ex73_analysis):
        P = ana.points[0].classification.poly
        ev = ConjugateEvaluator(P)
        F = (np.eye(2) - P.E).T
        rng = np.random.default_rng(9)
        for _ in range(6):
            x = rng.uniform(-3, 3, size=2)
            t = float(rng.uniform(0.3, 4.0))
            lhs = t * ev.conjugate(x)
            rhs = ev.conjugate(expm(np.log(t) * F) @ x)
            assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_monotone_under_objective_scaling():
    P1 = HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,))
    P2 = HomogeneousPolynomial(1, {(2,): 2.0}, np.eye(1), (1,))
    e1, e2 = ConjugateEvaluator(P1), ConjugateEvaluator(P2)
    for x in (0.5, 1.0, 4.0):
        assert e2.conjugate(np.array([x])) <= e1.conjugate(np.array([x])) + 1e-12


def test_bounds_check_gaussian():
    P = HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,))
    ev = ConjugateEvaluator(P)
    M, Mp, stable = conjugate_bounds_check(ev, P.E, radius=10.0)
    # |x| - x^2/4 is maximized at x = 2 with value 1
    assert M == pytest.approx(1.0, abs=1e-2)
    assert stable


def test_bounds_check_ex73(ex73_analysis):
    P = ex73_analysis.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    M, Mp, stable = conjugate_bounds_check(ev, P.E, radius=20.0, count=80)
    assert np.isfinite(M) and np.isfinite(Mp)
    assert stable


def test_weighted_norm():
    assert weighted_norm(np.array([2.0, 3.0]), (1, 2)) == pytest.approx(
        2.0 ** 2 + 3.0 ** (4.0 / 3.0))


def test_conjugate_cache_keeps_large_points_apart(srw2_analysis):
    # R#(x) = |x|^2 for srw:2; keys must not collide at |x_j| ~ 1e7
    P = srw2_analysis.minimal_points()[0].classification.poly
    ev = ConjugateEvaluator(P)
    first = ev.conjugate(np.array([1e7, 0.0]))
    second = ev.conjugate(np.array([2e7, 0.0]))
    fresh = ConjugateEvaluator(P).conjugate(np.array([2e7, 0.0]))
    assert second == pytest.approx(fresh, rel=1e-12)
    assert second == pytest.approx(4.0 * first, rel=1e-9)


@pytest.mark.parametrize("fixture", ["intro_analysis", "ex71_analysis",
                                     "ex73_analysis", "srw2_analysis"])
def test_conjugate_independent_of_call_history(fixture, request):
    P = request.getfixturevalue(fixture).points[0].classification.poly
    xs = np.random.default_rng(3).uniform(-6, 6, size=(12, 2))
    used = ConjugateEvaluator(P)
    used.conjugate(np.array([1e6, -1e6]))
    after = np.array([used.conjugate(x) for x in xs])
    fresh = np.array([ConjugateEvaluator(P).conjugate(x) for x in xs])
    assert np.array_equal(after, fresh)


def _full_batch_ascend(ev, xs, xis, iters=120, newton_iters=50):
    """Reference: every row is evaluated on every step, masked by np.where."""
    P = ev.P
    xs = np.asarray(xs, dtype=float)
    xi = np.array(xis, dtype=float)
    val = np.einsum("kd,kd->k", xi, xs) - P.real(xi)
    step = np.ones(len(xi))
    for _ in range(iters):
        g = xs - P.real_grad(xi)
        gn2 = np.einsum("kd,kd->k", g, g)
        active = gn2 > 1e-16
        if not active.any():
            break
        t = step.copy()
        accepted = np.zeros(len(xi), dtype=bool)
        for _ in range(30):
            trial = np.where(active & ~accepted, t, 0.0)
            cand = xi + trial[:, None] * g
            cval = np.einsum("kd,kd->k", cand, xs) - P.real(cand)
            good = active & ~accepted & (cval >= val + 0.25 * trial * gn2)
            xi[good] = cand[good]
            val[good] = cval[good]
            step[good] = np.minimum(t[good] * 2.0, 1e6)
            accepted |= good
            t = t * 0.5
            if (accepted | ~active).all():
                break
        if not accepted.any():
            break
    for _ in range(newton_iters):
        g = xs - P.real_grad(xi)
        gn = np.linalg.norm(g, axis=1)
        active = gn > 1e-10
        if not active.any():
            break
        cand = xi + _batched_solve(-P.real_hess(xi), -g)
        cval = np.einsum("kd,kd->k", cand, xs) - P.real(cand)
        ok = active & np.isfinite(cval) & (cval >= val - 1e-12)
        xi[ok] = cand[ok]
        val[ok] = cval[ok]
        stuck = active & ~ok
        if stuck.any():
            cand = xi + 1e-3 * g
            cval = np.einsum("kd,kd->k", cand, xs) - P.real(cand)
            better = stuck & (cval > val)
            xi[better] = cand[better]
            val[better] = cval[better]
    return val, xi


def _unit_circle(n):
    th = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


def _assert_same_ascent(ev, xs, starts, **kw):
    vals, args = ev._ascend_batch(xs, starts, **kw)
    ref_vals, ref_args = _full_batch_ascend(ev, xs, starts, **kw)
    assert np.array_equal(vals.view(np.uint64), ref_vals.view(np.uint64))
    assert np.array_equal(args, ref_args)


def _refine_rows(ev, xs):
    """The multi-start rows of conjugate_batch's refinement for xs."""
    rho = ev._certified_radius(float(np.linalg.norm(xs, axis=1).max()))
    _, grid_arg = ev._grid_scan_batch(xs, rho)
    scale = np.maximum(np.linalg.norm(grid_arg, axis=1), 1e-2)
    starts = (scale[:, None, None] * ev._starts[None, :, :]).reshape(-1, ev.dim)
    return np.repeat(xs, len(ev._starts), axis=0), starts


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis",
                                     "ex73_analysis", "ex75_analysis"])
def test_live_row_ascent_matches_full_batch_on_tables(fixture, request):
    # the shell table of _ConjugateField: 4,096 unit directions, grid starts
    ev = ConjugateEvaluator(request.getfixturevalue(fixture).points[0].classification.poly)
    dirs = _unit_circle(4096)
    _, grid_arg = ev._grid_scan_batch(dirs, ev._certified_radius(1.0))
    _assert_same_ascent(ev, dirs, grid_arg)


def test_live_row_ascent_matches_full_batch_on_refined_batches(ex71_analysis, srw3_poly):
    ev = ConjugateEvaluator(ex71_analysis.points[0].classification.poly)
    window = np.mgrid[-8:9, -8:9].reshape(2, -1).T.astype(float)
    _assert_same_ascent(ev, *_refine_rows(ev, window))
    ev = ConjugateEvaluator(srw3_poly)
    xs = np.random.default_rng(17).uniform(-6, 6, size=(40, 3))
    _assert_same_ascent(ev, *_refine_rows(ev, xs))


@pytest.mark.parametrize("fixture", ["intro_analysis", "ex73_analysis"])
def test_live_row_newton_matches_full_batch_from_raw_starts(fixture, request):
    # Newton from random starts, without the gradient phase, takes the
    # 1e-3 gradient fallback on tens of thousands of steps, and on ex73 a
    # few rows find no better point at all
    ev = ConjugateEvaluator(request.getfixturevalue(fixture).points[0].classification.poly)
    rng = np.random.default_rng(1)
    _assert_same_ascent(ev, rng.uniform(-6, 6, size=(2000, 2)),
                        rng.uniform(-4, 4, size=(2000, 2)), iters=0)


def test_ascent_evaluates_live_rows_only(ex71_analysis, monkeypatch):
    # the full-batch ascent evaluated Re P at 17.4M points on this window
    points = [0]
    real = HomogeneousPolynomial.real

    def counted(self, xi):
        points[0] += np.asarray(xi).size // self.dim
        return real(self, xi)

    monkeypatch.setattr(HomogeneousPolynomial, "real", counted)
    ev = ConjugateEvaluator(ex71_analysis.points[0].classification.poly)
    ev.conjugate_batch(np.mgrid[-4:5, -4:5].reshape(2, -1).T.astype(float))
    assert points[0] < 1_000_000


@pytest.mark.parametrize("fixture,counts", [
    ("ex73_poly", (1, 7, 9, 300, 515, 777)), ("srw3_poly", (1, 7, 9, 17, 26))])
def test_grid_scan_blocks_match_one_block(fixture, counts, request, monkeypatch):
    # row counts about the block sizes (256 rows in d = 2, 8 in d = 3)
    ev = ConjugateEvaluator(request.getfixturevalue(fixture))
    rng = np.random.default_rng(23)
    for rows in counts:
        xs = rng.uniform(-6, 6, size=(rows, ev.dim))
        rho = ev._certified_radius(float(np.linalg.norm(xs, axis=1).max()))
        vals, args = ev._grid_scan_batch(xs, rho)
        with monkeypatch.context() as m:
            m.setattr(legendre, "_SCAN_BLOCK_CELLS", 2 ** 40)
            one_vals, one_args = ev._grid_scan_batch(xs, rho)
        assert np.array_equal(vals.view(np.uint64), one_vals.view(np.uint64))
        assert np.array_equal(args, one_args)


def test_shell_table_memory(ex73_poly):
    # the grid scan's objective blocks are 8 MiB; one 4,096-row block
    # peaked at 256 MiB
    ev = ConjugateEvaluator(ex73_poly)
    tracemalloc.start()
    try:
        ev.conjugate_batch(_unit_circle(4096), refine_starts=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_grid_scan_respects_memory_cap(intro_analysis, monkeypatch):
    ev = ConjugateEvaluator(intro_analysis.points[0].classification.poly)
    monkeypatch.setattr(_config, "MEMORY_CAP_BYTES", 64 * 1024)
    with pytest.raises(ResourceLimitError, match=r"box \(64, 64\)"):
        ev.conjugate_batch(np.array([[1.0, 2.0]]))
