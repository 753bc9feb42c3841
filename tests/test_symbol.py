import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import latconv
from latconv import _config, _fft, examples, symbol
from latconv.cli import main
from latconv.errors import NotNormalizedError, ResourceLimitError, ZeroFunctionError
from latconv.lattice import LatticeFunction, translate
from latconv.symbol import SymbolView, phase_consistency_check

from conftest import random_function, torus_dist


def test_evaluate_delta():
    s = SymbolView(latconv.delta((0, 0)))
    for xi in ([0.0, 0.0], [1.2, -0.7], [np.pi, np.pi]):
        assert s.evaluate(np.array(xi)) == pytest.approx(1.0)


def test_evaluate_bernoulli_is_cosine():
    b = LatticeFunction.from_dict({(1,): 0.5, (-1,): 0.5})
    s = SymbolView(b)
    for xi in np.linspace(-3, 3, 11):
        assert s.evaluate(np.array([xi])) == pytest.approx(math.cos(xi), abs=1e-15)


def test_intro_maximum_value():
    s = SymbolView(examples.intro())
    assert s.evaluate(np.array([0.0, np.pi / 3])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["intro", "ex71", "ex73", "srw:3", "ex75:3,2", "phim:2,3"])
def test_evaluate_rows_do_not_depend_on_the_batch(name):
    # as matrix products, 240-257 of these 257 rows (114 on phim:2,3)
    # rounded differently in the batch and alone
    sym = SymbolView(examples.get(name))
    rng = np.random.default_rng(31)
    z = rng.uniform(-np.pi, np.pi, size=(257, sym.dim))
    for pts in (z, z + 0.1j * rng.standard_normal(z.shape)):
        alone = np.array([sym.evaluate(p) for p in pts])
        assert np.array_equal(sym.evaluate(pts), alone)
        beta = (1,) + (2,) * (sym.dim - 1)
        alone = np.array([sym.derivative(beta, p) for p in pts])
        assert np.array_equal(sym.derivative(beta, pts[::-1])[::-1], alone)
    if name == "intro":
        # its supremum 1 is no longer rounded to 0.9999999999999999
        assert latconv.normalize(sym.source)[1] == 1.0


def test_normalize_probability_scale_one():
    g, scale = latconv.normalize(examples.srw(2))
    assert scale == pytest.approx(1.0, abs=1e-12)


def test_normalize_linearity():
    f = examples.intro().scale(2.0)
    _, scale = latconv.normalize(f)
    assert scale == pytest.approx(0.5, abs=1e-12)


def test_normalize_random_function(rng):
    # oracle: dense grid + refinement confirms the post-scaling sup is one
    for _ in range(3):
        f = random_function(rng, 2, max_points=5, normalized=False)
        g, _ = latconv.normalize(f)
        s = SymbolView(g)
        grid = np.linspace(-np.pi, np.pi, 700)
        vals = np.abs(s.evaluate(
            np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)))
        assert vals.max() <= 1.0 + 1e-9
        sup, _ = latconv.locate_sup(s)
        assert sup == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_function():
    with pytest.raises(ZeroFunctionError):
        latconv.normalize(LatticeFunction(1))


def test_find_omega_intro():
    g, _ = latconv.normalize(examples.intro())
    om = latconv.find_omega(SymbolView(g))
    assert len(om) == 1
    assert_allclose(om.points[0], [0.0, np.pi / 3], atol=1e-8)


def test_find_omega_ex73():
    g, _ = latconv.normalize(examples.ex73())
    om = latconv.find_omega(SymbolView(g))
    assert len(om) == 2
    assert_allclose(om.points, [[0.0, 0.0], [np.pi, np.pi]], atol=1e-10)
    assert_allclose(om.values, [1.0, 1.0], atol=1e-10)


def test_find_omega_ex72():
    g, _ = latconv.normalize(examples.ex72())
    om = latconv.find_omega(SymbolView(g))
    assert len(om) == 4
    expected = {(0.5, 0.75), (0.5, -0.25), (-0.5, -0.75), (-0.5, 0.25)}
    got = {tuple(np.round(p / np.pi, 8)) for p in om.points}
    assert got == expected
    ipow = np.exp(1j * 5 * np.pi / 8)  # (i)^{5/4}
    for v in om.values:
        assert min(abs(v - ipow), abs(v + ipow)) < 1e-9


@pytest.mark.parametrize("M", [[[2, 1], [1, 1]], [[1, 2], [1, 3]], [[2, 3], [1, 2]]])
def test_find_omega_keeps_quiet_on_seeds_that_end_on_omega(M):
    # sheared ex72: 2 to 5 seeds stop short of converging on the Omega
    # points at xi_2 = +-pi, which other seeds report
    import warnings
    f = examples.ex72()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ana = latconv.analyze(LatticeFunction(2, f.points @ np.array(M).T, f.values))
    assert len(ana.omega) == 4 and ana.mu_phi == 1


def test_find_omega_warns_on_a_lost_seed():
    import dataclasses
    g, _ = latconv.normalize(examples.srw(2))
    sym = SymbolView(g)
    scan = symbol.locate_sup(sym)
    lost = dataclasses.replace(
        scan, seeds=np.vstack([scan.seeds, [[1.5, 0.0]]]),
        endpoints=np.vstack([scan.endpoints, [[1.5, 0.2]]]),
        converged=np.append(scan.converged, False))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        om = latconv.find_omega(sym, scan=lost)
    assert np.array_equal(om.points, latconv.find_omega(sym, scan=scan).points)


def test_find_omega_requires_normalized():
    f = examples.intro().scale(3.0)
    with pytest.raises(NotNormalizedError):
        latconv.find_omega(SymbolView(f))


def test_von_neumann():
    assert latconv.check_von_neumann(SymbolView(examples.srw(2))).satisfied
    bad = LatticeFunction.from_dict({(0,): 1.0, (1,): 1.0})
    res = latconv.check_von_neumann(SymbolView(bad))
    assert not res.satisfied
    assert res.maximum == pytest.approx(2.0, abs=1e-9)
    assert_allclose(res.argmax, [0.0], atol=1e-6)
    res_u = latconv.check_von_neumann(SymbolView(examples.unstable1d()))
    assert res_u.satisfied
    assert res_u.maximum == pytest.approx(1.0, abs=1e-9)


def test_multiplicativity(rng):
    f = random_function(rng, 2, max_points=6)
    g = random_function(rng, 2, max_points=6)
    sf, sg = SymbolView(f), SymbolView(g)
    sfg = SymbolView(latconv.convolve(f, g))
    xs = rng.uniform(-np.pi, np.pi, size=(100, 2))
    assert_allclose(sfg.evaluate(xs), sf.evaluate(xs) * sg.evaluate(xs),
                    atol=1e-12)


def test_derivative_matches_finite_differences(rng):
    f = random_function(rng, 2, max_points=6)
    s = SymbolView(f)
    xi = rng.uniform(-2, 2, size=2)
    h = 1e-2
    for beta in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2), (3, 1), (0, 4)]:
        # 5-point central stencil applied per axis
        def eval_shifted(shifts):
            return s.evaluate(xi + np.array(shifts))

        approx = _fd(s, xi, beta, h)
        exact = s.derivative(beta, xi)
        assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def _fd(s, xi, beta, h):
    # iterated 5-point first derivative: O(h^4) per application
    def d_axis(func, axis):
        def inner(x):
            e = np.zeros_like(x)
            e[axis] = 1.0
            return (-func(x + 2 * h * e) + 8 * func(x + h * e)
                    - 8 * func(x - h * e) + func(x - 2 * h * e)) / (12 * h)
        return inner

    func = s.evaluate
    for axis, b in enumerate(beta):
        for _ in range(b):
            func = d_axis(func, axis)
    return func(xi)


def test_omega_group_closure_probability():
    for f in (examples.srw(2), examples.phim((2, 1))):
        g, _ = latconv.normalize(f)
        om = latconv.find_omega(SymbolView(g))
        pts = {tuple(np.round(p, 9)) for p in om.points}
        for p in om.points:
            neg = np.mod(-p + np.pi, 2 * np.pi) - np.pi
            neg[neg <= -np.pi + 1e-9] += 2 * np.pi
            assert tuple(np.round(neg, 9)) in pts
        assert phase_consistency_check(g, om)


def test_torus_periodicity(rng):
    f = random_function(rng, 3, max_points=8)
    s = SymbolView(f)
    xi = rng.uniform(-2, 2, size=3)
    for j in range(3):
        shifted = xi.copy()
        shifted[j] += 2 * np.pi
        assert abs(s.evaluate(xi) - s.evaluate(shifted)) < 1e-12


def test_phim_omega_count():
    g, _ = latconv.normalize(examples.phim((2, 1)))
    om = latconv.find_omega(SymbolView(g))
    assert len(om) == 4
    expected = {(0.0, 0.0), (1.0, 0.0), (-0.5, 1.0), (0.5, 1.0)}
    got = {tuple(np.round(p / np.pi, 8)) for p in om.points}
    assert got == expected


# -- Omega points against an extended-precision reference --------------------

CORPUS = ["intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2", "ex75:2,3",
          "srw:2", "srw:3", "phim:2,1", "phim:2,3", "phim:1,2", "unstable1d"]


def _abs2_grad_hess(sym, xi):
    g, grad, hess = sym.abs2_grad_hess(np.asarray(xi, dtype=float)[None])
    return g[0], grad[0], hess[0]


def _ascent_step(hess, grad, unit):
    """Scalar reference of ``symbol._newton_steps`` with max_step 0.5: the
    Newton step when every eigenvalue is concave and it is at most 0.5
    long; else Newton along the concave eigen-directions and the gradient
    over max(max |lam|, unit) along the rest, cut to 0.5 long."""
    lam, vec = np.linalg.eigh(hess)
    top = np.abs(lam).max()
    concave = lam < -symbol.CONCAVE_SPLIT * top
    if concave.all():
        step = np.linalg.solve(hess, -grad)
        if np.linalg.norm(step) <= 0.5:
            return step
    step = vec @ ((vec.T @ grad) / np.where(concave, -lam, max(top, unit)))
    length = np.linalg.norm(step)
    return step if length <= 0.5 else step * (0.5 / length)


def _newton_polish(sym, xi0, max_iter=100):
    """Scalar reference of the ascent ``locate_sup`` makes from one seed:
    Newton on |phi-hat|^2 with tolerances relative to |phi-hat(xi0)|^2,
    backtracking up to the rounding of g; returns (xi, converged)."""
    xi = np.array(xi0, dtype=float)
    unit = _abs2_grad_hess(sym, xi)[0] or 1.0
    for _ in range(max_iter):
        g, grad, hess = _abs2_grad_hess(sym, xi)
        gn = np.linalg.norm(grad)
        if gn < 1e-12 * unit:
            return xi, True
        step = _ascent_step(hess, grad, unit)
        t = 1.0
        for _ in range(30):
            g_new = _abs2_grad_hess(sym, xi + t * step)[0]
            if g_new >= g - 4 * symbol.EPS * unit:
                break
            t *= 0.5
        xi = xi + t * step
    return xi, np.linalg.norm(_abs2_grad_hess(sym, xi)[1]) < 1e-12 * unit


def _mp_newton(f, xi, digits=60, max_iter=250):
    """Reference Newton on grad |phi-hat|^2 = 0 at ``digits`` digits, from
    xi: a step longer than 0.5 is replaced by a short gradient step, and it
    stops once |grad| < 10^(-2 digits / 3)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        pts = [[mp.mpf(int(c)) for c in p] for p in f.points]
        vals = [mp.mpc(v) for v in f.values]
        d = f.dim
        x = [mp.mpf(float(c)) for c in xi]
        tol = mp.mpf(10) ** (-(2 * digits) // 3)
        for _ in range(max_iter):
            e = [mp.exp(mp.mpc(0, sum(p[j] * x[j] for j in range(d)))) for p in pts]
            val = sum(v * ek for v, ek in zip(vals, e))
            grad = [sum(mp.mpc(0, 1) * p[j] * v * ek for p, v, ek in zip(pts, vals, e))
                    for j in range(d)]
            gg = [2 * (mp.conj(val) * grad[j]).real for j in range(d)]
            gn = mp.sqrt(sum(c * c for c in gg))
            if gn < tol:
                break
            hess = mp.matrix(d, d)
            for j in range(d):
                for k in range(j, d):
                    hjk = sum(-p[j] * p[k] * v * ek for p, v, ek in zip(pts, vals, e))
                    hess[j, k] = hess[k, j] = 2 * ((mp.conj(grad[j]) * grad[k]).real
                                                   + (mp.conj(val) * hjk).real)
            try:
                step = mp.lu_solve(hess, mp.matrix([-c for c in gg]))
                too_long = mp.sqrt(sum(step[j] ** 2 for j in range(d))) > mp.mpf("0.5")
            except ZeroDivisionError:
                too_long = True
            if too_long:
                step = mp.matrix([c / max(gn, mp.mpf(1)) * mp.mpf("0.1") for c in gg])
            for j in range(d):
                x[j] += step[j]
        return np.array([float(c) for c in x])


def _per_seed_omega(sym, tol=1e-9):
    """Omega points from one extended-precision Newton per converged seed,
    then the modulus check and a 1e-6 dedupe, from the seeds of a 512-point
    grid (64 in d = 3)."""
    f = sym.source
    n = 512 if f.dim <= 2 else 64
    vals = symbol._grid_abs(f, n)
    local = np.ones(vals.shape, dtype=bool)
    for axis in range(f.dim):
        for shift in (1, -1):
            local &= vals >= np.roll(vals, shift, axis=axis)
    seeds = np.argwhere((vals ** 2 > 1.0 - 1e-3) & local)
    seeds = seeds[np.argsort(-vals[tuple(seeds.T)], kind="stable")]
    found = []
    for idx in seeds:
        xi0 = symbol._wrap_torus(idx.astype(float) * symbol.TWO_PI / n)
        xi, converged = _newton_polish(sym, xi0)
        if not converged:
            continue
        xi = symbol._wrap_torus(_mp_newton(f, xi))
        if abs(sym.evaluate(xi)) < 1.0 - tol:
            continue
        if any(torus_dist(xi, p) < symbol.DEDUPE_RADIUS for p in found):
            continue
        found.append(xi)
    return np.array(found).reshape(-1, f.dim)


@pytest.mark.parametrize("name", CORPUS)
def test_analyze_points_match_the_extended_precision_reference(name):
    # intro at scale 1 sits on a saddle of the rounded symbol, whose maxima
    # the reference finds 4.96e-9 to either side; its point is (0, pi/3)
    ana = latconv.analyze(examples.get(name))
    if name == "intro":
        reference = np.array([[0.0, np.pi / 3]])
    else:
        reference = _per_seed_omega(SymbolView(ana.function))
    assert len(ana.points) == len(reference)
    assert np.array_equal(ana.omega.points, [pa.xi for pa in ana.points])
    for pa in ana.points:
        assert min(torus_dist(pa.xi, p) for p in reference) <= 1e-14


def _scan_of(points):
    """A converged ``TorusScan`` whose Newton endpoints are ``points``."""
    pts = np.asarray(points, dtype=float)
    return symbol.TorusScan(sup=1.0, argmax=pts[0], seeds=pts, endpoints=pts,
                            converged=np.ones(len(pts), dtype=bool), grid=0,
                            slack=0.0)


def test_endpoints_of_one_maximum_merge_and_neighbouring_peaks_do_not():
    # ex75:4 is flat to order 8 at 0: endpoints 2e-2 apart are one point,
    # reported as the first of them
    g, _ = latconv.normalize(examples.get("ex75:4"))
    om = symbol.find_omega(SymbolView(g), scan=_scan_of([[1e-2], [-1e-2]]))
    assert len(om) == 1 and om.points[0, 0] == pytest.approx(1e-2, abs=1e-15)
    # the peaks of the lazy product lie 2 pi / 12 apart, with a valley between
    lazy = SymbolView(_lazy_product(12))
    peak = np.full(2, np.pi / 512)
    step = 2 * np.pi / 12
    near = [peak, peak + [step, 0.0], peak + [0.0, step], peak + [step, step]]
    assert len(symbol.find_omega(lazy, scan=_scan_of(near))) == 4
    # the midpoint of two points of phim:2,3 can be a third one; the path
    # between them still leaves the unit-modulus set
    g, _ = latconv.normalize(examples.get("phim:2,3"))
    sym = SymbolView(g)
    ends = [[0.0, 2 * np.pi / 3], [np.pi, 0.0]]
    assert abs(sym.evaluate(np.array([-np.pi / 2, np.pi / 3]))) == pytest.approx(1.0)
    assert len(symbol.find_omega(sym, scan=_scan_of(ends))) == 2


@pytest.mark.parametrize("name", CORPUS)
def test_omega_phases_are_principal(name):
    # np.angle gives -pi where phi-hat = -1 - 6e-33j (srw:3 at (pi, pi, pi),
    # two points of phim:2,3); OmegaSet documents (-pi, pi]
    f = examples.get(name)
    for g in (f, translate(f, (1,) * f.dim)):
        h, _, scan = symbol._normalize(g)
        om = symbol.find_omega(SymbolView(h), scan=scan)
        assert np.all((om.phases > -np.pi) & (om.phases <= np.pi)), om.phases
        assert np.abs(np.exp(1j * om.phases) - om.values).max() < 1e-9


def test_point_mass_phase_is_principal():
    # a point mass skips find_omega; its phi-hat is -1 - 5e-301j here
    ana = latconv.analyze(LatticeFunction(2, [[3, 1]], [complex(-2.0, -1e-300)]))
    assert ana.omega.phases[0] == ana.points[0].phase == np.pi


# -- one certified scan -------------------------------------------------------

def _two_grid_sup(sym):
    """The scan ``locate_sup`` used to make, kept as the reference: the best
    grid point's Newton endpoint, on the default grid and then on grids of
    doubling density, until two successive maxima agree to 1e-12."""
    f = sym.source
    n = 512 if f.dim <= 2 else 64
    prev = -np.inf
    best = 0.0
    while True:
        vals = symbol._grid_abs(f, n)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        xi0 = symbol._wrap_torus(np.array(idx, dtype=float) * symbol.TWO_PI / n)
        xi, _ = _newton_polish(sym, xi0)
        cur = abs(sym.evaluate(symbol._wrap_torus(xi)))
        best = max(best, cur)
        if abs(cur - prev) < 1e-12:
            return best
        prev = cur
        n *= 2


@st.composite
def _small_functions(draw):
    # criterion-11 style: up to 12 points of [-2, 2]^d ([-1, 1]^3 in d = 3)
    dim = draw(st.integers(1, 3))
    radius = 2 if dim < 3 else 1
    entry = st.tuples(
        st.tuples(*[st.integers(-radius, radius)] * dim),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                           allow_nan=False, allow_infinity=False))
    return dim, dict(draw(st.lists(entry, min_size=1, max_size=12)))


# Degenerate maxima: |phi-hat| is maximal along a whole line, where the
# Hessian of |phi-hat|^2 is singular, so a Newton solve fails or steps far
# along the line.  The first must give |a| + |b|; on the second, an ascent
# that stalls short of the top sends the reference doubling its grid to a
# 512^3 one that the memory cap refuses.
@settings(max_examples=30, deadline=None)
@given(_small_functions())
@example((3, {(0, 1, 1): 0.16351699901963146 + 0.7475562875551698j,
              (-1, 1, 1): 0.6879541991729652 - 1.5728990584508225j}))
@example((3, {(-1, 1, 1): 0.16245597856115435 - 1.0755990117304364j,
              (1, 0, 0): 0.16245597856115435 - 1.2621894807715153j,
              (0, 0, 0): 0.1}))
def test_locate_sup_matches_two_grid_reference(spec):
    dim, entries = spec
    f = LatticeFunction.from_dict(entries, dim=dim)
    sym = SymbolView(f)
    sup, _ = latconv.locate_sup(sym)
    if len(f) <= 2:
        # two exponentials always come into phase: sup = |a| + |b|
        closed = float(np.abs(f.values).sum())
        assert abs(sup - closed) <= 1e-12 * closed
    ref = _two_grid_sup(sym)
    assert abs(sup - ref) <= 1e-12 * ref


def _lazy_product(K):
    """Product of step-K lazy walks on {-K, 0, K}^2, modulated so that each of
    its K^2 peaks sits half a 512-grid cell off the grid in both axes."""
    w = {-K: 0.25, 0: 0.5, K: 0.25}
    pts = np.array([(a, b) for a in w for b in w])
    vals = np.array([w[a] * w[b] for a, b in pts.tolist()])
    return LatticeFunction(2, pts, vals * np.exp(-1j * pts.sum(axis=1) * np.pi / 512))


@pytest.mark.parametrize("K", [6, 8, 12])
def test_narrow_peaks_are_all_found(K):
    # the 512 grid used to see no peak above 1 - 1e-3 at K = 8 and only 32
    # of 36 at K = 6; K = 12 needs Newton's last, rounding-level step
    ana = latconv.analyze(_lazy_product(K))
    assert len(ana.omega) == K * K
    assert ana.mu_phi == 1
    shift = np.pi / 512
    lattice = np.mod(ana.omega.points - shift, 2 * np.pi / K)
    assert np.all(np.minimum(lattice, 2 * np.pi / K - lattice) < 1e-9)


def _omega_on_grid(f, monkeypatch, factor=1):
    """(scan, Omega) of f with the scan grid ``factor`` times its own size."""
    size = symbol._grid_size
    with monkeypatch.context() as m:
        m.setattr(symbol, "_grid_size", lambda g: factor * size(g))
        g, _, scan = symbol._normalize(f)
        return scan, symbol.find_omega(SymbolView(g), scan=scan)


def _full_rank_function(rng, dim):
    """Criterion-11 style: 3 to 12 random complex values on [-2, 2]^d
    ({0, 1}^3 in d = 3) whose support spans a rank-d lattice; every other
    draw lies on a proper sublattice: the image under [[2, 1], [0, 1]], or
    in d = 3 the even-sum points of the cube.  (On a lower-rank support
    Omega is a continuum, which no grid resolves.)"""
    axis = range(-2, 3) if dim < 3 else (0, 1)
    cube = np.array(list(itertools.product(*[axis] * dim)))
    sub = rng.integers(2)
    if sub and dim == 3:
        cube = cube[cube.sum(axis=1) % 2 == 0]
    while True:
        size = rng.integers(min(3, dim + 1), min(12, len(cube)) + 1)
        pts = cube[rng.choice(len(cube), size=size, replace=False)]
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == dim:
            break
    if sub and dim < 3:
        pts = pts @ np.array([[2, 1], [0, 1]])[:dim, :dim]
    return LatticeFunction(dim, pts, rng.standard_normal(len(pts))
                           + 1j * rng.standard_normal(len(pts)))


@pytest.mark.parametrize("case", [f"seed{k}" for k in range(24)]
                         + [f"lazy{K}" for K in (6, 8, 12)])
def test_bernstein_grid_misses_nothing_a_denser_grid_finds(case, monkeypatch):
    if case.startswith("lazy"):
        f = _lazy_product(int(case[4:]))
    else:
        k = int(case[4:])
        f = _full_rank_function(np.random.default_rng(4100 + k), 1 + k % 3)
    scan, om = _omega_on_grid(f, monkeypatch)
    dense, ref = _omega_on_grid(f, monkeypatch, factor=4)
    assert dense.grid == 4 * scan.grid
    assert abs(scan.sup - dense.sup) <= 1e-15 * dense.sup
    assert len(om) == len(ref) > 0
    for p in ref.points:
        assert min(torus_dist(p, q) for q in om.points) <= 1e-12


def test_bernstein_grid_is_never_larger_than_the_doubled_default():
    # the scan used to start at 512 per axis (64 in d >= 3) and double while
    # s > SLACK_MAX; a fast length within the bound never exceeds that
    rng = np.random.default_rng(4200)
    cases = [LatticeFunction.from_dict({(0,) * d: 1.0, (k,) + (0,) * (d - 1): 1.0})
             for d in (1, 2, 3) for k in range(1, 400, 3)]
    cases += [random_function(rng, d, radius=r) for d in (1, 2, 3) for r in (1, 2, 5, 40)]
    for f in cases:
        old = 512 if f.dim <= 2 else 64
        while symbol._slack(f, old) > symbol.SLACK_MAX:
            old *= 2
        n = symbol._grid_size(f)
        assert n <= old and symbol._slack(f, n) <= symbol.SLACK_MAX


def test_seed_depth_is_the_grid_slack(monkeypatch):
    # Newton starts from grid local maxima within the slack s of the grid
    # maximum; a support of two or more points has n >= 10, and the worst
    # gap between 11-smooth lengths from there on is 12 to 14, so s never
    # falls below 0.05 (12/14)^2 = 0.0367
    depths = []
    seeds = symbol._grid_seeds
    monkeypatch.setattr(symbol, "_grid_seeds",
                        lambda vals, depth: depths.append(depth) or seeds(vals, depth))
    rng = np.random.default_rng(4300)
    cases = [examples.get(name) for name in CORPUS]
    cases += [LatticeFunction.from_dict({(0,) * d: 1.0, (k,) + (0,) * (d - 1): 0.5})
              for d in (1, 2) for k in range(1, 13)]
    cases += [random_function(rng, d, radius=r) for d in (1, 2, 3) for r in (1, 2)
              for _ in range(4)]
    for f in cases:
        if len(f) < 2:
            continue
        scan = symbol.locate_sup(SymbolView(f))
        assert depths.pop() == scan.slack >= 0.05 * (12 / 14) ** 2


def test_newton_steps_climb_along_a_singular_direction():
    # ex73's R# objective at (1.4137, 1.4137): Hessian eigenvalues -0.5
    # along (1, 1) and 0 along (1, -1), where the gradient lies; the
    # least-squares step dropped that direction and the ascent stopped
    u, v = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    hess = np.stack([-0.5 * np.outer(u, u), -2.0 * np.eye(2)])
    grad = np.stack([4.6e-3 * v, [0.8, 0.4]])
    step = symbol._newton_steps(hess, grad, np.ones(2), 0.5)
    assert_allclose(step[0], 4.6e-3 * v, rtol=1e-12)
    assert np.array_equal(step[1], [0.4, 0.2])  # concave: the Newton step
    # a long step is cut to max_step: Newton 2 along u, the gradient 4.6 along v
    step = symbol._newton_steps(hess[:1], 1e3 * grad[:1] + u, np.ones(1), 0.5)
    full = 2.0 * u + 4.6 * v
    assert_allclose(step[0], 0.5 * full / np.linalg.norm(full), rtol=1e-12)


# -- one batched ascent -------------------------------------------------------

@pytest.mark.parametrize("make,count", [(examples.ex73, 10),
                                        (lambda: _lazy_product(12), 144)],
                         ids=["ex73", "lazy12"])
def test_newton_ascent_rows_do_not_depend_on_the_batch(make, count):
    sym = SymbolView(make())
    scan = latconv.locate_sup(sym)
    assert len(scan.seeds) == count

    def ascend(x0):
        return symbol.newton_ascent(lambda rows, xi: sym.abs2_grad_hess(xi),
                                    x0, 1e-12, max_step=0.5, relative=True)

    x, val, converged = ascend(scan.seeds)
    assert np.array_equal(x, scan.endpoints) and converged.all()
    for k, xi0 in enumerate(scan.seeds):
        xk, vk, ck = ascend(xi0[None])
        assert np.array_equal(xk[0].view(np.uint64), x[k].view(np.uint64))
        assert vk[0] == val[k] and ck[0] == converged[k]


def test_locate_sup_batches_its_ascent(monkeypatch):
    # one Newton loop per seed made 996 calls on ex73's 30 seeds of a 512^2
    # grid; its 80^2 grid has 10
    calls = []
    real = SymbolView.abs2_grad_hess
    monkeypatch.setattr(SymbolView, "abs2_grad_hess",
                        lambda self, xi: calls.append(len(xi)) or real(self, xi))
    scan = latconv.locate_sup(SymbolView(examples.ex73()))
    assert len(scan.seeds) == 10 and scan.converged.all()
    assert len(calls) < 100


def test_scan_grid_is_the_smallest_fast_length_within_the_slack():
    # K = 50 about the box centre: s = 0.0503 on 990 points, 0.0493 on 1000
    f = LatticeFunction.from_dict({(0,): 1.0, (100,): 1.0})
    scan = latconv.locate_sup(SymbolView(f))
    assert scan.grid == 1000 and scan.slack <= symbol.SLACK_MAX
    assert all(symbol._slack(f, m) > symbol.SLACK_MAX for m in range(1, 1000)
               if _fft.next_fast_len(m) == m)
    assert scan.sup == pytest.approx(2.0, abs=1e-12)


def test_point_mass_needs_no_scan(monkeypatch):
    # |phi-hat| is flat for c delta_y: every grid point would seed Newton
    ascents, grids = [], []
    newton, grid_abs = symbol.newton_ascent, symbol._grid_abs
    monkeypatch.setattr(symbol, "newton_ascent",
                        lambda *a, **k: ascents.append(a) or newton(*a, **k))
    monkeypatch.setattr(symbol, "_grid_abs",
                        lambda *a, **k: grids.append(a) or grid_abs(*a, **k))
    ana = latconv.analyze(latconv.delta((3, 1)))
    assert len(ana.omega) == 1
    sup, arg = latconv.locate_sup(SymbolView(latconv.delta((3, 1)).scale(-2.5j)))
    assert sup == 2.5 and np.array_equal(arg, [0.0, 0.0])
    assert ascents == [] and grids == []


def test_scan_grid_is_checked_against_the_cap(capsys):
    # ex71's 120^2 grid is budgeted at two complex arrays, 450 KiB
    with _config.memory_cap(256 * 2 ** 10), \
            pytest.raises(ResourceLimitError, match=r"\(120, 120\)"):
        latconv.locate_sup(SymbolView(examples.ex71()))
    assert main(["--memory-cap", str(256 / 2 ** 20),
                 "analyze", "--example", "ex71"]) == 4
    assert "resource error" in capsys.readouterr().err
    with _config.memory_cap(512 * 2 ** 10):
        ana = latconv.analyze(examples.ex71())
    assert len(ana.omega) == 1 and ana.mu_phi == Fraction(5, 12)


def test_scan_grid_that_cannot_fit_is_refused_before_allocation():
    # radius 16 in d = 3 needs 560^3 points (5.2 GiB) for s <= SLACK_MAX
    f = LatticeFunction.from_dict({(-16, 0, 0): 0.5, (16, 0, 0): 0.5})
    with pytest.raises(ResourceLimitError, match=r"\(560, 560, 560\)"):
        latconv.locate_sup(SymbolView(f))
