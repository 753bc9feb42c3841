import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import latconv
from latconv import _config, attractor, examples
from latconv.attractor import (attractor_eval, attractor_grid, box_halfwidths,
                               llt_approx)
from latconv.cli import main
from latconv.errors import ResourceLimitError
from latconv.homogeneous import (HomogeneousPolynomial, from_quadratic_form,
                                 sphere_samples)


@pytest.fixture(scope="module")
def gauss1d():
    return HomogeneousPolynomial(1, {(2,): 1.0}, np.eye(1), (1,))


def test_gaussian_1d_at_zero(gauss1d):
    v = attractor_eval(gauss1d, 1.0, np.array([0.0]))
    assert v == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-10)


def test_gaussian_closed_form_2d():
    C = np.array([[1.0, 0.3], [0.3, 2.0]])
    P = from_quadratic_form(C)
    Ci = np.linalg.inv(C)
    det = np.linalg.det(C)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [3.5, 0.5], [-4.0, -6.0]])
    got = attractor_eval(P, 1.0, pts)
    expect = [(2 * math.pi) ** (-1) / math.sqrt(det)
              * math.exp(-(x @ Ci @ x) / 2) for x in pts]
    assert_allclose(got, expect, atol=1e-10)


def test_ex72_closed_form(ex72_analysis):
    gamma = math.sqrt(2.0) - 1.0
    pa = ex72_analysis.points[0]
    P = pa.classification.poly
    n = 9
    pts = np.array([[0.0, 0.0], [2.0, -3.0], [5.0, 7.0]])
    got = attractor_eval(P, n, pts)
    expect = [1.0 / (2 * math.pi * n * np.sqrt(gamma * (1 + 1j * gamma)))
              * np.exp(-x ** 2 / (n * (1 + 1j * gamma)) - y ** 2 / (4 * n * gamma))
              for x, y in pts]
    assert_allclose(got, expect, atol=1e-7)


def test_eval_rejects_nonpositive_t(gauss1d):
    with pytest.raises(ValueError):
        attractor_eval(gauss1d, 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        attractor_grid(gauss1d, -1.0, [(-2, 2)])


def test_eval_rejects_non_finite_points(gauss1d):
    # a point sizes its own grid, so it must have a size
    with pytest.raises(ValueError, match="finite"):
        attractor_eval(gauss1d, 1.0, np.array([[0.0], [np.inf]]))


def test_grid_matches_pointwise(intro_analysis):
    P = intro_analysis.points[0].classification.poly
    t = 25.0
    grid = attractor_grid(P, t, [(-10, 10), (-10, 10)])
    pts = np.array([[0, 0], [3, -2], [-7, 5], [10, 10]])
    direct = attractor_eval(P, t, pts.astype(float))
    for p, v in zip(pts, direct):
        assert abs(grid.value_at(p) - v) < 1e-7


def test_grid_with_fractional_shifts_matches_pointwise(ex72_analysis):
    # the nodes start at -pi K, so W already carries the shift's factor
    # e^{i pi K shift}; applied twice it put the grid 1.1e-2 off at
    # (0.5, 0), against values of at most 7.9e-3, and left (2.5, 1.5) alone
    P = ex72_analysis.points[0].classification.poly
    xs = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij"),
                  axis=-1).reshape(-1, 2).astype(float)
    for shift in ((0.5, 0.0), (0.25, -0.75), (2.5, 1.5), (-1 / 3, 0.1)):
        grid = attractor_grid(P, 30.0, [(-3, 3), (-3, 3)], shift=np.array(shift))
        direct = attractor_eval(P, 30.0, xs + shift).reshape(7, 7)
        assert np.abs(grid.values - direct).max() < 1e-15


def test_grid_is_checked_against_the_cap(intro_analysis, tmp_path, capsys):
    # a +-600 window at t = 100 takes a 1232^2 grid, 23 MiB, beside a 22 MiB
    # output window; a 16 MiB cap still admits intro's torus scan
    P = intro_analysis.points[0].classification.poly
    window = [(-600, 600)] * 2
    with _config.memory_cap(16 * 2 ** 20), \
            pytest.raises(ResourceLimitError, match=r"box \(1232, 1232\)"):
        attractor_grid(P, 100.0, window)
    assert main(["--memory-cap", str(16 / 1024), "attractor", "--example", "intro",
                 "--n", "100", "--window=-600:600,-600:600",
                 "--out", str(tmp_path)]) == 4
    assert "box (1232, 1232)" in capsys.readouterr().err


def test_grid_gaussian_window():
    C = np.eye(2)
    P = from_quadratic_form(C)
    grid = attractor_grid(P, 1.0, [(-10, 10), (-10, 10)])
    xs = np.arange(-10, 11)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    expect = (2 * math.pi) ** (-1) * np.exp(-(X ** 2 + Y ** 2) / 2)
    assert np.abs(grid.values - expect).max() < 1e-8


def test_scaling_identity(ex71_analysis, rng):
    P = ex71_analysis.points[0].classification.poly
    mu = float(P.mu)
    E = P.E
    for t in (4.0, 16.0):
        xs = rng.standard_normal((5, 2)) * 2.0
        lhs = attractor_eval(P, t, xs)
        mapped = xs @ expm(-np.log(t) * E.T).T
        rhs = t ** (-mu) * attractor_eval(P, 1.0, mapped)
        assert_allclose(lhs, rhs, atol=1e-8)


def test_grid_scaling_consistency(ex73_analysis):
    P = ex73_analysis.points[0].classification.poly
    grid4 = attractor_grid(P, 4.0, [(-6, 6), (-6, 6)])
    mu = float(P.mu)
    E = P.E
    for p in [(0, 0), (2, 1), (-3, 3)]:
        x = np.array(p, dtype=float)
        direct = grid4.value_at(p)
        scaled = 4.0 ** (-mu) * attractor_eval(
            P, 1.0, expm(-np.log(4.0) * E.T) @ x)
        assert abs(direct - scaled) < 1e-6 * (1.0 + abs(direct))


def test_quadrature_doubling_stable(intro_analysis):
    P = intro_analysis.points[0].classification.poly
    t = 10.0
    x = np.array([1.0, 2.0])
    base = attractor_grid(P, t, [(1, 1), (2, 2)])
    fine = attractor_grid(P, t, [(1, 1), (2, 2)], oversample=4)
    assert abs(base.values[0, 0] - fine.values[0, 0]) < 1e-9


def test_llt_approx_intro_prefactor(intro_analysis):
    # phi^(n) ~ e^{-i pi y / 3} H_P^n(x, y)
    n = 20
    window = [(-4, 4), (-4, 4)]
    approx = llt_approx(intro_analysis, n, window)
    P = intro_analysis.points[0].classification.poly
    grid = attractor_grid(P, n, window)
    for p, v in zip(approx.points, approx.values):
        x, y = p
        expect = np.exp(-1j * np.pi * y / 3.0) * grid.value_at(p)
        # the detected omega point sits ~5e-9 off (0, pi/3) for the
        # double-rounded input, which leaks into the prefactor phase
        assert abs(v - expect) < 1e-9


def test_llt_approx_ex73_prefactor(ex73_analysis):
    # phi^(n) ~ (1 + cos(pi (x + y))) H_P^n(x, y)
    n = 16
    window = [(-5, 5), (-5, 5)]
    approx = llt_approx(ex73_analysis, n, window)
    P = ex73_analysis.points[0].classification.poly
    grid = attractor_grid(P, n, window)
    for p, v in zip(approx.points, approx.values):
        pref = 1.0 + math.cos(math.pi * (p[0] + p[1]))
        assert abs(v - pref * grid.value_at(p)) < 1e-9


def test_llt_approx_classic_reformulation(srw2_analysis):
    # n^{-d/2} Theta(n, x) G_phi(x / sqrt(n)) equals the two-term sum
    from latconv.verify import theta, walk_profile
    prof = walk_profile(examples.srw(2))
    n = 12
    window = [(-6, 6), (-6, 6)]
    approx = llt_approx(srw2_analysis, n, window)
    C = prof.covariance
    G = from_quadratic_form(C)
    xs = approx.points.astype(float)
    gs = attractor_eval(G, 1.0, xs / math.sqrt(n))
    for p, v, g in zip(approx.points, approx.values, gs):
        expect = n ** (-1.0) * theta(prof, n, np.asarray(p, float)) * g
        assert abs(v - expect) < 1e-8


def test_llt_real_for_real_inputs(ex73_analysis):
    approx = llt_approx(ex73_analysis, 24, [(-8, 8), (-8, 8)])
    assert np.abs(approx.values.imag).max() < 1e-9


def test_llt_requires_classified(rng):
    ana = latconv.analyze(latconv.delta((1, 0)))
    with pytest.raises(ValueError):
        llt_approx(ana, 4, [(-2, 2), (-2, 2)])


def _scalar_ray_reach(P, t, u, target):
    """Reference: one ray at a time, doubling then 60 bisection steps."""
    r = 1e-3
    for _ in range(120):
        if t * P.real(r * u) >= target:
            break
        r *= 2.0
    else:
        raise ValueError("Re P does not grow along a ray; invalid polynomial")
    lo, hi = r / 2.0, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if t * P.real(mid * u) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=None)
def _scalar_cut_boundary(P):
    """Reference: the boundary point r u of {Re P < T_CUT} on each sampled
    ray u and coordinate half-axis, one ray at a time at t = 1."""
    d = P.dim
    dirs = sphere_samples(d, 256 * d, seed=attractor._BOUNDARY_DIRS_SEED)
    dirs = np.concatenate([dirs, np.eye(d), -np.eye(d)])
    return [(_scalar_ray_reach(P, 1, u, _config.T_CUT) * u).tolist() for u in dirs]


def _scalar_box_halfwidths(P, t):
    """Reference: the boundary points at t = 1, each mapped to t by
    t^-E = A diag(t^-lam) A^-1 in Python floats, then face certification
    at t."""
    d = P.dim
    M = (P.basis @ np.diag(float(t) ** -P.lam) @ P.basis_inv).tolist()
    L = np.zeros(d)
    for p in _scalar_cut_boundary(P):
        for j in range(d):
            q = p[0] * M[j][0]
            for k in range(1, d):
                q = q + p[k] * M[j][k]
            L[j] = max(L[j], 1.25 * abs(q))
    for _ in range(8):
        if attractor._boundary_min(P, t, L) >= _config.T_CUT:
            return L
        L = L * 1.35
    raise ValueError("could not certify the quadrature box; invalid polynomial")


def _per_t_box_halfwidths(P, t):
    """Reference: the former rule, a batched ray search for t Re P at each t."""
    d = P.dim
    dirs = sphere_samples(d, 256 * d, seed=attractor._BOUNDARY_DIRS_SEED)
    dirs = np.concatenate([dirs, np.eye(d), -np.eye(d)])
    r = np.full(len(dirs), 1e-3)
    active = np.arange(len(dirs))
    for _ in range(120):
        active = active[t * P.real(r[active, None] * dirs[active]) < _config.T_CUT]
        if not active.size:
            break
        r[active] *= 2.0
    lo, hi = r / 2.0, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = t * P.real(mid[:, None] * dirs) >= _config.T_CUT
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    L = (1.25 * hi[:, None] * np.abs(dirs)).max(axis=0)
    for _ in range(8):
        if attractor._boundary_min(P, t, L) >= _config.T_CUT:
            return L
        L = L * 1.35
    raise ValueError("could not certify the quadrature box; invalid polynomial")


@pytest.mark.parametrize("name", ["intro", "ex71", "ex73", "ex75:3,2", "ex72"])
def test_box_halfwidths_match_scalar_search(name, request):
    fixture = {"ex75:3,2": "ex75"}.get(name, name) + "_analysis"
    analysis = request.getfixturevalue(fixture)
    polys = []
    for pa in analysis.minimal_points():
        # ex73's two minimal points share one P; check it once
        if all(pa.classification.poly.coeffs != Q.coeffs for Q in polys):
            polys.append(pa.classification.poly)
    for P in polys:
        for t in (1, 32, 256):
            assert np.array_equal(box_halfwidths(P, t),
                                  _scalar_box_halfwidths(P, t)), (name, t)


BOX_CORPUS = ["intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2", "ex75:2,3", "srw:2",
              "srw:3", "phim:2,1", "phim:2,3", "phim:1,2", "ex75:3", "ex75:2,1,1"]


@pytest.mark.parametrize("name", BOX_CORPUS)
def test_box_from_homogeneity_is_certified_and_near_the_per_t_search(name):
    # t^-E maps boundary points found at t = 1; on the corpus the mapped
    # box is within 2.3e-3 of a search at each t (ex73 at t = 4)
    analysis = latconv.analyze(examples.get(name))
    polys = []
    for pa in analysis.minimal_points():
        if all(pa.classification.poly is not Q for Q in polys):
            polys.append(pa.classification.poly)
    for P in polys:
        for t in (1, 4, 32, 256, 4096):
            L = box_halfwidths(P, t)
            assert attractor._boundary_min(P, t, L) >= _config.T_CUT, (name, t)
            ref = _per_t_box_halfwidths(P, t)
            assert np.all(np.abs(L - ref) <= 0.01 * ref), (name, t, L, ref)


def test_polynomial_construction_runs_no_ray_search(monkeypatch):
    calls = []
    search = attractor._ray_reach
    monkeypatch.setattr(attractor, "_ray_reach",
                        lambda *args: calls.append(1) or search(*args))
    P = latconv.analyze(examples.ex73()).points[0].classification.poly
    Q = from_quadratic_form(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert calls == [] and P.cut_boundary is None and Q.cut_boundary is None
    for t in (1, 9.5, 300):
        box_halfwidths(P, t)
    assert len(calls) == 1 and P.cut_boundary is not None


def _per_point_llt_dense(analysis, n, window):
    """Reference: _llt_dense with one attractor grid per minimal point."""
    d = analysis.function.dim
    total = np.zeros(tuple(b - a + 1 for a, b in window), dtype=np.complex128)
    axes = [np.arange(a, b + 1) for a, b in window]
    for pa in analysis.minimal_points():
        cls = pa.classification
        vals = attractor_grid(cls.poly, n, window, shift=-n * cls.alpha).values
        vals *= np.exp(1j * n * pa.phase)
        for j in range(d):
            vals *= attractor._along(np.exp(-1j * axes[j] * pa.xi[j]), j, d)
        total += vals
    return total


@pytest.mark.parametrize("name, grids", [("ex72", 2), ("ex73", 1), ("srw:2", 1),
                                         ("phim:2,3", 1)])
def test_llt_dense_one_grid_per_classification(name, grids, monkeypatch):
    from latconv.verify import default_llt_window
    analysis = latconv.analyze(examples.get(name))
    for n in (16, 64):
        window = default_llt_window(analysis, n)
        want = _per_point_llt_dense(analysis, n, window)
        calls = []
        monkeypatch.setattr(attractor, "attractor_grid",
                            lambda *a, **k: calls.append(1) or attractor_grid(*a, **k))
        got = attractor._llt_dense(analysis, n, window)
        monkeypatch.undo()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, n)
        assert len(calls) == grids, (name, n)


@pytest.mark.parametrize("name", ["ex72", "intro", "phim:2,3"])
def test_llt_dense_peak_within_its_cap_check(name, monkeypatch):
    # _llt_dense counts its grids, total and one copy in one check before it
    # makes any of them; attractor_grid's own weight grid, which it checks
    # itself, is left out by handing back a copy of each grid made beforehand;
    # 256 KiB covers the interpreter's own small objects.  Each point's copy
    # was made while the last point's was still held, one window over
    import tracemalloc
    from types import SimpleNamespace
    from latconv.verify import default_llt_window
    analysis, n = latconv.analyze(examples.get(name)), 256
    window = default_llt_window(analysis, n)
    made = {id(pa.classification.poly): attractor_grid(
        pa.classification.poly, n, window, shift=-n * pa.classification.alpha).values
        for pa in analysis.minimal_points()}
    want = attractor._llt_dense(analysis, n, window)
    requests = []
    check = attractor._check_box

    def spy(shape, complex_arrays=2):
        requests.append(16 * complex_arrays * math.prod(shape))
        return check(shape, complex_arrays)

    monkeypatch.setattr(attractor, "_check_box", spy)
    monkeypatch.setattr(attractor, "attractor_grid", lambda P, t, window, shift=None:
                        SimpleNamespace(values=made[id(P)].copy()))
    tracemalloc.start()
    try:
        got = attractor._llt_dense(analysis, n, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(requests) == 1
    assert requests[0] == 16 * (len(made) + 2) * want.size
    assert peak <= requests[0] + 2 ** 18, (peak, requests)


def test_box_halfwidths_rejects_flat_ray():
    # Re P = xi_1^2 vanishes on the xi_2 axis, so that ray never reaches T_CUT
    P = HomogeneousPolynomial(2, {(2, 0): 1.0}, np.eye(2), (1, 1),
                              validate=False)
    with pytest.raises(ValueError, match="does not grow"):
        box_halfwidths(P, 10.0)
    with pytest.raises(ValueError, match="does not grow"):
        _scalar_box_halfwidths(P, 10.0)


# -- tensor-grid weights and the BLAS-free contraction -----------------------

def _pointwise_weight_grid(P, t, nodes):
    """Reference: e^{-t P} at the stacked grid points, as the weight grid was
    formed before it was evaluated on the tensor grid itself."""
    mesh = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return np.exp(-t * P(pts)).reshape(mesh[0].shape)


def _tensordot_eval(P, t, xs):
    """Reference: attractor_eval's quadrature contracted with tensordot."""
    L = box_halfwidths(P, t)
    xmax = np.abs(xs).max(axis=0)
    N = [max(256, int(np.ceil(8.0 * L[j] * xmax[j] / np.pi)) + 1)
         for j in range(P.dim)]
    nodes = [np.linspace(-L[j], L[j], N[j]) for j in range(P.dim)]
    W = _pointwise_weight_grid(P, t, nodes)
    for j in range(P.dim):
        for end in (0, -1):
            W[(slice(None),) * j + (end,)] *= 0.5
    vol = np.prod([g[1] - g[0] for g in nodes]) / (2.0 * np.pi) ** P.dim
    out = []
    for x in xs:
        red = W
        for j in range(P.dim):
            red = np.tensordot(np.exp(-1j * x[j] * nodes[j]), red, axes=(0, 0))
        out.append(red * vol)
    return np.array(out)


@pytest.mark.parametrize("name", ["intro", "ex71", "ex72", "ex73", "ex75:3,2"])
def test_weight_grid_bit_identical_to_pointwise(name, request):
    fixture = {"ex75:3,2": "ex75"}.get(name, name) + "_analysis"
    P = request.getfixturevalue(fixture).points[0].classification.poly
    for t in (1.0, 30):
        L = box_halfwidths(P, t)
        # attractor_eval's nodes, then attractor_grid's
        nodes = [np.linspace(-L[0], L[0], 61), np.linspace(-L[1], L[1], 47)]
        assert np.array_equal(attractor._weight_grid(P, t, nodes),
                              _pointwise_weight_grid(P, t, nodes)), (name, t)
        nodes = [-np.pi * 2 + 4.0 * np.pi * np.arange(n) / n for n in (64, 50)]
        assert np.array_equal(attractor._weight_grid(P, t, nodes),
                              _pointwise_weight_grid(P, t, nodes)), (name, t)


def test_eval_matches_tensordot_reference(ex72_analysis, intro_analysis):
    pts = np.array([[0.0, 0.0], [2.0, -3.0], [5.0, 7.0], [-1.5, 0.5]])
    for P, t in ((ex72_analysis.points[0].classification.poly, 9.0),
                 (intro_analysis.points[0].classification.poly, 4.0)):
        # relative to the largest value: far out, H is a small sum of
        # terms of the central size, and both orders round at that size
        got = attractor_eval(P, t, pts)
        want = _tensordot_eval(P, t, pts)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (got, want)


def test_eval_point_does_not_depend_on_its_batch(ex73_analysis):
    # each point's quadrature grid follows its own |x_j|, so a point's value
    # is bit for bit the same alone, in any order and in any company, also
    # beside a far point that takes a larger grid
    P = ex73_analysis.points[0].classification.poly
    pts = np.array([[60.0, -60.0], [1.0, 2.0], [-3.5, 0.25], [0.0, 0.0], [6.0, -6.0]])
    whole = attractor_eval(P, 5.0, pts)
    assert np.array_equal(attractor_eval(P, 5.0, pts[::-1]), whole[::-1])
    for k in range(len(pts)):
        assert attractor_eval(P, 5.0, pts[k]) == whole[k]
        for m in range(k + 1, len(pts)):
            assert np.array_equal(attractor_eval(P, 5.0, pts[[k, m]]), whole[[k, m]])


def test_eval_grid_is_checked_against_the_cap(intro_analysis):
    # x = (60, 60) at t = 25 takes a 423 x 661 grid: 4.3 MiB, and 1.5 MiB of
    # on_grid slab temporaries beside it (5.76 MiB asked, a 5.94 MiB peak)
    P = intro_analysis.points[0].classification.poly
    x = np.array([60.0, 60.0])
    with _config.memory_cap(5 * 2 ** 20), \
            pytest.raises(ResourceLimitError, match=r"box \(423, 661\)"):
        attractor_eval(P, 25.0, x)
    with _config.memory_cap(8 * 2 ** 20):
        assert np.isfinite(attractor_eval(P, 25.0, x))


def test_grid_peak_is_within_its_cap_budget(intro_analysis):
    # the cap budgets one complex grid (the FFT runs in place), on_grid's
    # slab temporaries and the output window; numpy's cast buffers and the
    # per-axis tables come on top
    import tracemalloc

    from latconv._poly import grid_scratch
    P = intro_analysis.points[0].classification.poly
    box_halfwidths(P, 100.0)
    tracemalloc.start()
    try:
        grid = attractor_grid(P, 100.0, [(-300, 300)] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = grid.grid_sizes
    cells = np.prod(N)
    assert peak >= 16 * cells
    assert peak <= 16 * (cells + grid_scratch(N) + grid.values.size) + 256 * 1024
