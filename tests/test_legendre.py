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
from latconv.legendre import (ConjugateEvaluator, conjugate_bounds_check,
                              conjugate_compare, weighted_norm)
from latconv.symbol import newton_ascent

from conftest import multi_start_conjugate, multi_start_rows


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


def test_conjugate_compare_non_orthogonal_basis():
    # R_A#(x) = R#(A^-T x) for any basis: the numerator is the conjugate of
    # the same coefficients in the identity basis
    P = HomogeneousPolynomial(2, {(2, 0): 1, (0, 4): 1}, [[1, 0.5], [0, 1]], (1, 2))
    ev = ConjugateEvaluator(P)
    ev_a = ConjugateEvaluator(HomogeneousPolynomial(2, P.semi_coeffs, np.eye(2),
                                                    P.weights))
    for x in np.random.default_rng(6).uniform(-6, 6, size=(8, 2)):
        num = conjugate_compare(ev, x) * weighted_norm(x, P.weights)
        assert num == pytest.approx(ev_a.conjugate(x), rel=1e-12)


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
        # R# is solved at u = t^-F x, on the grid of radius ev.rho
        t, u = P.polar(x[None, :])
        grid_val, _ = ev._grid_scan_batch(u, ev.rho)
        assert ev.conjugate(x) >= t[0] * grid_val[0] - 1e-12
    # the grid is certified for every u: the objective is negative on its boundary
    side = np.linspace(-ev.rho, ev.rho, 257)
    edge = np.concatenate([np.stack(np.broadcast_arrays(a, b), axis=1)
                           for a, b in ((side, ev.rho), (side, -ev.rho),
                                        (ev.rho, side), (-ev.rho, side))])
    th = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    _, us = P.polar(np.stack([np.cos(th), np.sin(th)], axis=1))
    assert np.max(us @ edge.T - P.real(edge)) < 0.0


def test_homogeneity_under_complementary_group(intro_analysis, ex73_analysis):
    for ana in (intro_analysis, ex73_analysis):
        P = ana.points[0].classification.poly
        ev = ConjugateEvaluator(P)
        F = (np.eye(2) - P.E).T
        rng = np.random.default_rng(9)
        # over 24 decades of t; solving at the raw x read R# up to 2% low
        # where |x| fell to 1e-8
        for t in np.geomspace(1e-12, 1e12, 7):
            x = rng.uniform(-3, 3, size=2)
            lhs = t * ev.conjugate(x)
            rhs = ev.conjugate(expm(np.log(t) * F) @ x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_monotone_under_objective_scaling():
    P1 = HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,))
    P2 = HomogeneousPolynomial(1, {(2,): 2.0}, np.eye(1), (1,))
    e1, e2 = ConjugateEvaluator(P1), ConjugateEvaluator(P2)
    for x in (0.5, 1.0, 4.0):
        assert e2.conjugate(np.array([x])) <= e1.conjugate(np.array([x])) + 1e-12


def test_bounds_check_gaussian():
    P = HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,))
    ev = ConjugateEvaluator(P)
    M, Mp, stable = conjugate_bounds_check(ev, radius=10.0)
    # |x| - x^2/4 is maximized at x = 2 with value 1
    assert M == pytest.approx(1.0, abs=1e-2)
    assert stable


def test_bounds_check_ex73(ex73_analysis):
    P = ex73_analysis.points[0].classification.poly
    ev = ConjugateEvaluator(P)
    M, Mp, stable = conjugate_bounds_check(ev, radius=20.0, count=80)
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


def test_conjugate_batch_overflow_reads_inf_not_nan(srw2_analysis):
    # where t = |c|^2 overflows, polar gives u = 0 and t R#(u) read inf * 0
    import warnings
    P = srw2_analysis.minimal_points()[0].classification.poly
    xs = np.array([[1e155, 0.0], [1e200, 0.0], [1e300, 1.0], [-1e300, -1e300],
                   [1e150, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, args = ConjugateEvaluator(P).conjugate_batch(xs)
    assert not np.isnan(vals).any() and not np.isnan(args).any()
    assert np.all(vals[:4] == np.inf) and np.all(args[:4] == np.inf)
    # R#(x) = |x|^2 on srw:2 stays finite below the overflow
    assert vals[4] == pytest.approx(1e300, rel=1e-9)
    assert np.isfinite(args[4]).all()


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


def _newton_phase(P, xs, xi):
    def objective(rows, p):
        obj = np.einsum("kd,kd->k", p, xs[rows]) - P.real(p)
        return obj, xs[rows] - P.real_grad(p), -P.real_hess(p)

    p, v, _ = newton_ascent(objective, xi, 1e-10, max_iter=50)
    return v, p


def _assert_same_ascent(ev, xs, starts, every=1):
    """The live-row ascent against ``newton_ascent`` from the same starts
    twice: on all rows in reverse order, so that each row has other
    neighbours, and one row at a time on every ``every``-th row, so that
    each row is also checked in a batch of 1."""
    vals, args = ev._ascend_batch(xs, starts)
    xs = np.asarray(xs, dtype=float)
    xi = np.asarray(starts, dtype=float)
    ref_vals, ref_args = _newton_phase(ev.P, xs[::-1], xi[::-1])
    assert np.array_equal(vals.view(np.uint64), ref_vals[::-1].view(np.uint64))
    assert np.array_equal(args, ref_args[::-1])
    for k in range(0, len(xs), every):
        v, p = _newton_phase(ev.P, xs[k:k + 1], xi[k:k + 1])
        assert vals[k:k + 1].view(np.uint64) == v.view(np.uint64), k
        assert np.array_equal(args[k], p[0]), k


def _fixed_gradient_ascend(ev, xs, xis, iters=120):
    """Reference: the Armijo gradient ascent that R# ran before its Newton
    steps, for all its iterations on every row that still moves, and
    Newton from where it stopped."""
    P = ev.P
    xs = np.asarray(xs, dtype=float)
    xi = np.array(xis, dtype=float)
    val = np.einsum("kd,kd->k", xi, xs) - P.real(xi)
    step = np.ones(len(xi))
    live = np.arange(len(xi))
    for _ in range(iters):
        g = xs[live] - P.real_grad(xi[live])
        gn2 = np.einsum("kd,kd->k", g, g)
        keep = gn2 > 1e-16
        live, g, gn2 = live[keep], g[keep], gn2[keep]
        t = step[live]
        moved = np.zeros(len(live), dtype=bool)
        todo = np.arange(len(live))
        for _ in range(30):
            if not len(todo):
                break
            rows = live[todo]
            cand = xi[rows] + t[todo, None] * g[todo]
            cval = np.einsum("kd,kd->k", cand, xs[rows]) - P.real(cand)
            good = cval >= val[rows] + 0.25 * t[todo] * gn2[todo]
            xi[rows[good]] = cand[good]
            val[rows[good]] = cval[good]
            step[rows[good]] = np.minimum(t[todo[good]] * 2.0, 1e6)
            moved[todo[good]] = True
            todo = todo[~good]
            t = t * 0.5
        live = live[moved]
        if not len(live):
            break

    return _newton_phase(P, xs, xi)


def _unit_circle(n):
    th = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis",
                                     "ex73_analysis", "ex75_analysis"])
def test_live_row_ascent_matches_full_batch_on_tables(fixture, request):
    # 4,096 unit-circle directions, grid starts
    ev = ConjugateEvaluator(request.getfixturevalue(fixture).points[0].classification.poly)
    dirs = _unit_circle(4096)
    _, grid_arg = ev._grid_scan_batch(dirs, ev.rho)
    _assert_same_ascent(ev, dirs, grid_arg)


def test_live_row_ascent_matches_full_batch_on_refined_batches(ex71_analysis, srw3_poly):
    ev = ConjugateEvaluator(ex71_analysis.points[0].classification.poly)
    window = np.mgrid[-8:9, -8:9].reshape(2, -1).T.astype(float)
    _assert_same_ascent(ev, *multi_start_rows(ev, window), every=50)
    ev = ConjugateEvaluator(srw3_poly)
    xs = np.random.default_rng(17).uniform(-6, 6, size=(40, 3))
    _assert_same_ascent(ev, *multi_start_rows(ev, xs), every=50)


@pytest.mark.parametrize("name,half", [("ex71", 8), ("intro", 4), ("ex73", 4),
                                       ("ex75:3,2", 4), ("srw:2", 4), ("ex74", 4),
                                       ("srw:3", None), ("ex75:3,2,2", None),
                                       ("ex75:2,1,1", None), ("phim:1,2,3", None)])
def test_grid_argmax_ascent_matches_multi_start(name, half):
    # the legendre CLI windows, and 40 points with |x| in [0.05, 20] in d = 3:
    # one ascent from each point's grid argmax against the best of it and a
    # further 64 (d = 2) or 512 (d = 3) starts per point (measured at most
    # 7.4e-14 low, on ex75:3,2); the objective at each argmax is its value
    # (measured within 9.4e-15, on ex73)
    P = latconv.analyze(examples.get(name)).minimal_points()[0].classification.poly
    ev = ConjugateEvaluator(P)
    if half is None:
        rng = np.random.default_rng(29)
        xs = rng.standard_normal((40, 3))
        xs *= np.exp(rng.uniform(np.log(0.05), np.log(20.0), 40))[:, None] \
            / np.linalg.norm(xs, axis=1)[:, None]
    else:
        xs = np.mgrid[-half:half + 1, -half:half + 1].reshape(2, -1).T.astype(float)
    vals, args = ev.conjugate_batch(xs)
    ref = multi_start_conjugate(ev, xs)
    assert np.all(vals <= ref)
    assert np.all(ref - vals <= 1e-12 * ref)
    at_args = np.einsum("kd,kd->k", args, xs) - P.real(args)
    assert np.all(np.abs(at_args - vals) <= 1e-12 * np.maximum(vals, 1e-300))


def test_newton_from_the_grid_argmax_matches_multi_start(ex73_analysis):
    # at +-(1.4137, 1.4137), two of these directions' maximisers, real_hess
    # is singular and the gradient lies along its null direction (1, -1):
    # a least-squares step dropped it and stopped 8.4e-4 low
    ev = ConjugateEvaluator(ex73_analysis.points[0].classification.poly)
    dirs = _unit_circle(4096)
    t, us = ev.P.polar(dirs)
    _, grid_arg = ev._grid_scan_batch(us, ev.rho)
    vals = t * _newton_phase(ev.P, us, grid_arg)[0]
    ref = multi_start_conjugate(ev, dirs)
    assert np.all(ref - vals <= 1e-12 * ref)


@pytest.mark.parametrize("fixture", ["intro_analysis", "ex73_analysis"])
def test_live_row_newton_matches_full_batch_from_raw_starts(fixture, request):
    # Newton from random starts meets indefinite Hessians: 180 of ex73's
    # 2,000 rows leave unconverged once a step gains nothing, and none of
    # intro's (259 when singular Hessians took least-squares steps)
    ev = ConjugateEvaluator(request.getfixturevalue(fixture).points[0].classification.poly)
    rng = np.random.default_rng(1)
    _assert_same_ascent(ev, rng.uniform(-6, 6, size=(2000, 2)),
                        rng.uniform(-4, 4, size=(2000, 2)))


@pytest.mark.parametrize("fixture,half", [("ex73_analysis", None),
                                          ("intro_analysis", None), ("ex71_analysis", 8)])
def test_newton_is_below_the_gradient_phase_by_rounding_only(fixture, half, request,
                                                             monkeypatch):
    # 4,096 unit-circle directions and the ex71 CLI window: Newton alone
    # from the grid argmax reads R# at most 1.8e-15 relative below the
    # Armijo gradient phase followed by Newton (ex71), and 7.8e-15 above it
    ev = ConjugateEvaluator(request.getfixturevalue(fixture).points[0].classification.poly)
    if half is None:
        xs = _unit_circle(4096)
    else:
        xs = np.mgrid[-half:half + 1, -half:half + 1].reshape(2, -1).T.astype(float)
    vals, _ = ev.conjugate_batch(xs)
    monkeypatch.setattr(ConjugateEvaluator, "_ascend_batch", _fixed_gradient_ascend)
    ref, _ = ev.conjugate_batch(xs)
    assert np.all(vals >= ref - 1e-13 * np.abs(ref))


def test_ascent_evaluates_few_gradient_rows(ex71_analysis, monkeypatch):
    # real_grad evaluated 1.56M rows on this window when the gradient phase
    # ran all its 120 iterations, 4,524 with its hand-off and 1,638 with
    # Newton alone
    rows = [0]
    real_grad = HomogeneousPolynomial.real_grad

    def counted(self, xi):
        rows[0] += np.asarray(xi).size // self.dim
        return real_grad(self, xi)

    monkeypatch.setattr(HomogeneousPolynomial, "real_grad", counted)
    ev = ConjugateEvaluator(ex71_analysis.points[0].classification.poly)
    ev.conjugate_batch(np.mgrid[-8:9, -8:9].reshape(2, -1).T.astype(float))
    assert rows[0] <= 1_560_000 // 2


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
        vals, args = ev._grid_scan_batch(xs, ev.rho)
        with monkeypatch.context() as m:
            m.setattr(legendre, "_SCAN_BLOCK_CELLS", 2 ** 40)
            one_vals, one_args = ev._grid_scan_batch(xs, ev.rho)
        assert np.array_equal(vals.view(np.uint64), one_vals.view(np.uint64))
        assert np.array_equal(args, one_args)


def test_shell_table_memory(ex73_poly):
    # the grid scan's objective blocks are 8 MiB; one 4,096-row block
    # peaked at 256 MiB
    ev = ConjugateEvaluator(ex73_poly)
    tracemalloc.start()
    try:
        ev.conjugate_batch(_unit_circle(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_grid_scan_respects_memory_cap(intro_analysis):
    ev = ConjugateEvaluator(intro_analysis.points[0].classification.poly)
    with _config.memory_cap(64 * 1024), \
            pytest.raises(ResourceLimitError, match=r"box \(64, 64\)"):
        ev.conjugate_batch(np.array([[1.0, 2.0]]))


def test_grid_scan_peak_within_its_budget(intro_analysis, monkeypatch):
    # one objective block is held at a time: 600 points of intro (two blocks
    # of 300 rows) peaked at 9.7 MiB against a budget of 16.2 MiB, and at
    # 19.0 MiB while the next block was built beside the last
    budget = []

    def check_box(shape, complex_arrays=2):
        budget.append(int(np.prod(shape)) * 16 * complex_arrays)
        return check(shape, complex_arrays)

    check = legendre._check_box
    monkeypatch.setattr(legendre, "_check_box", check_box)
    ev = ConjugateEvaluator(intro_analysis.points[0].classification.poly)
    xs = np.random.default_rng(7).uniform(-8, 8, size=(600, 2))
    tracemalloc.start()
    try:
        ev._grid_scan_batch(xs, ev.rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(budget) == 1
    assert peak <= budget[0]
