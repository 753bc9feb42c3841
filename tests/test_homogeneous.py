import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import latconv
from latconv import examples, homogeneous
from latconv.homogeneous import (HomogeneousPolynomial, contraction_check,
                                 from_quadratic_form, is_exponent,
                                 matrix_power_t, p_fitted,
                                 trace_invariance_check)


# Term-by-term reference evaluators on the coefficient dict; the library
# evaluates through one compiled form (latconv._poly.CompiledPoly).

def ref_eval(coeffs, xi):
    """Evaluate at xi of shape (..., d); returns complex array of shape (...)."""
    xi = np.asarray(xi)
    scalar = xi.ndim == 1
    pts = xi[None, :] if scalar else xi
    out = np.zeros(pts.shape[:-1], dtype=np.complex128)
    for beta, c in coeffs.items():
        term = np.ones(pts.shape[:-1])
        for j, b in enumerate(beta):
            if b:
                term = term * pts[..., j] ** b
        out += c * term
    return out[0] if scalar else out


def ref_real(coeffs, xi):
    """Evaluate the real part Re P (coefficientwise real part) at real xi."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi[None, :] if scalar else xi
    out = np.zeros(pts.shape[:-1])
    for beta, c in coeffs.items():
        cr = c.real if isinstance(c, complex) else float(np.real(c))
        if cr == 0.0:
            continue
        term = np.full(pts.shape[:-1], cr)
        for j, b in enumerate(beta):
            if b:
                term = term * pts[..., j] ** b
        out += term
    return out[0] if scalar else out


def ref_grad(coeffs, xi):
    """Gradient of Re P at real xi of shape (..., d); same leading shape + (d,)."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi[None, :] if scalar else xi
    d = pts.shape[-1]
    out = np.zeros(pts.shape[:-1] + (d,))
    for beta, c in coeffs.items():
        cr = float(np.real(c))
        if cr == 0.0:
            continue
        for j, bj in enumerate(beta):
            if not bj:
                continue
            term = np.full(pts.shape[:-1], cr * bj)
            for k, bk in enumerate(beta):
                p = bk - 1 if k == j else bk
                if p:
                    term = term * pts[..., k] ** p
            out[..., j] += term
    return out[0] if scalar else out


def ref_hess(coeffs, xi):
    """Hessian of Re P at real xi of shape (d,) -> (d, d) or (k, d) -> (k, d, d)."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi[None, :] if scalar else xi
    d = pts.shape[-1]
    out = np.zeros(pts.shape[:-1] + (d, d))
    for beta, c in coeffs.items():
        cr = float(np.real(c))
        if cr == 0.0:
            continue
        for j, bj in enumerate(beta):
            if not bj:
                continue
            for k, bk in enumerate(beta):
                if k == j:
                    if bj < 2:
                        continue
                    factor = cr * bj * (bj - 1)
                else:
                    if not bk:
                        continue
                    factor = cr * bj * bk
                term = np.full(pts.shape[:-1], factor)
                for l, bl in enumerate(beta):
                    p = bl - (l == j) - (l == k)
                    if p:
                        term = term * pts[..., l] ** p
                out[..., j, k] += term
    return out[0] if scalar else out


_REFERENCES = (("__call__", ref_eval), ("real", ref_real),
               ("real_grad", ref_grad), ("real_hess", ref_hess))


@pytest.fixture(scope="module")
def corpus_polys(intro_analysis, ex71_analysis, ex72_analysis, ex73_analysis,
                 ex74_analysis, ex75_analysis, srw2_analysis):
    polys = [pa.classification.poly
             for ana in (intro_analysis, ex71_analysis, ex72_analysis,
                         ex73_analysis, ex74_analysis, ex75_analysis,
                         srw2_analysis)
             for pa in ana.points]
    # a non-orthogonal basis and complex coefficients
    A = np.array([[1.0, 0.4], [0.2, 1.0]])
    polys.append(HomogeneousPolynomial(
        2, {(4, 0): 1.0, (0, 2): 0.5 + 0.3j, (2, 1): 0.1j}, A, (2, 1)))
    polys.append(from_quadratic_form(np.array([[2.0, 0.3, 0.1],
                                               [0.3, 1.0, 0.2],
                                               [0.1, 0.2, 1.5]])))
    return polys


@pytest.fixture(scope="module")
def abs2_poly():
    # P = |xi|^2 on R^2
    return HomogeneousPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}, np.eye(2), (1, 1))


def test_group_action_identity(abs2_poly):
    xi = np.array([0.3, -1.2])
    assert_allclose(abs2_poly.group_action(1.0, xi), xi, atol=1e-15)


def test_group_action_componentwise():
    P = HomogeneousPolynomial(2, {(4, 0): 1.0, (0, 2): 1.0}, np.eye(2), (2, 1))
    assert_allclose(P.E, np.diag([0.25, 0.5]))
    assert_allclose(P.group_action(16.0, np.array([1.0, 1.0])), [2.0, 4.0],
                    atol=1e-12)


def test_group_law(abs2_poly, rng):
    for _ in range(10):
        s, t = rng.uniform(0.1, 5.0, size=2)
        xi = rng.standard_normal(2)
        lhs = abs2_poly.group_action(s * t, xi)
        rhs = abs2_poly.group_action(s, abs2_poly.group_action(t, xi))
        assert_allclose(lhs, rhs, atol=1e-12)


def test_is_exponent_abs2(abs2_poly):
    ok, dev = is_exponent(abs2_poly, np.eye(2) / 2)
    assert ok
    # antisymmetric perturbations stay inside Exp(|.|^2)
    skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
    ok, _ = is_exponent(abs2_poly, np.eye(2) / 2 + skew)
    assert ok
    ok, dev = is_exponent(abs2_poly, np.diag([0.5, 0.25]))
    assert not ok
    assert dev > 1e-3


def test_trace_invariance(abs2_poly, ex73_analysis):
    skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
    assert trace_invariance_check(abs2_poly, np.eye(2) / 2,
                                  np.eye(2) / 2 + skew)
    P = ex73_analysis.points[0].classification.poly
    E = P.E
    A = P.basis
    diag = A.T @ E @ A
    assert trace_invariance_check(P, E, E)
    assert abs(np.trace(E) - 0.75) < 1e-10
    assert abs(np.trace(diag) - 0.75) < 1e-10
    with pytest.raises(ValueError):
        trace_invariance_check(abs2_poly, np.eye(2) / 2, np.diag([0.5, 0.25]))


def test_contraction(ex73_analysis):
    assert contraction_check(np.diag([0.25, 0.5]))
    assert contraction_check(ex73_analysis.points[0].classification.poly.E)
    assert not contraction_check(np.zeros((2, 2)))


def test_semi_elliptic_form_ex73(ex73_analysis):
    P = ex73_analysis.points[0].classification.poly
    A, m, semi = P.semi_elliptic_form()
    # one quadratic axis at 1/4 and one quartic axis; coefficient per weight
    by_weight = {}
    for j, mj in enumerate(m):
        beta = tuple(2 * mj if k == j else 0 for k in range(2))
        by_weight[mj] = semi[beta]
    assert by_weight[1] == pytest.approx(0.25, abs=1e-8)
    # realized quartic coefficient (the printed 23/96 is inconsistent with
    # the function's own Taylor expansion; see test_expansion)
    assert by_weight[2] == pytest.approx(0.25, abs=1e-8)
    # round trip: composing the normal form back with A^{-1} restores P
    from latconv._poly import poly_compose_linear
    back = poly_compose_linear(semi, np.linalg.inv(A))
    for k in set(back) | set(P.coeffs):
        assert abs(back.get(k, 0.0) - P.coeffs.get(k, 0.0)) < 1e-10


def test_semi_elliptic_form_ex71(ex71_analysis):
    P = ex71_analysis.points[0].classification.poly
    A, m, semi = P.semi_elliptic_form()
    assert_allclose(A, np.eye(2), atol=1e-12)
    assert m == (3, 2)
    assert semi[(6, 0)] == pytest.approx(1 / 64, abs=1e-10)
    assert semi[(0, 4)] == pytest.approx(2 / 64, abs=1e-10)
    assert semi[(3, 2)] == pytest.approx(-2j / 64, abs=1e-10)


def test_semi_elliptic_form_quadratic():
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    P = from_quadratic_form(C)
    A, m, semi = P.semi_elliptic_form()
    assert m == (1, 1)
    evals = np.linalg.eigvalsh(C)
    got = sorted(semi[k].real for k in semi)
    assert_allclose(got, np.sort(evals) / 2, atol=1e-12)
    xi = np.array([0.7, -0.4])
    assert P(xi) == pytest.approx(xi @ C @ xi / 2, abs=1e-12)


def test_p_fitted():
    # standard basis is fitted for semi-elliptic (diagonal) polynomials
    f75 = examples.get("ex75:3,2")
    ana = latconv.analyze(f75)
    P = ana.points[0].classification.poly
    ok, weights = p_fitted(P, [np.array([1, 0]), np.array([0, 1])])
    assert ok and weights == (3, 2)
    ok, _ = p_fitted(P, [np.array([0, 0]), np.array([0, 0])])
    assert ok


def test_p_fitted_rejects_rotated(ex73_analysis):
    P = ex73_analysis.points[0].classification.poly
    ok, _ = p_fitted(P, [np.array([1, 0]), np.array([0, 1])])
    assert not ok
    # vectors along the rotated axes are fitted
    v1 = np.array([1, -1])
    v2 = np.array([1, 1])
    cols = [P.basis.T @ v1, P.basis.T @ v2]
    vecs = [v1, v2] if abs(cols[0][1]) < 1e-9 else [v2, v1]
    ok, _ = p_fitted(P, vecs)
    assert ok


def test_axis_positivity_and_even_orders(intro_analysis, ex71_analysis,
                                         ex73_analysis, srw2_analysis):
    for ana in (intro_analysis, ex71_analysis, ex73_analysis, srw2_analysis):
        for pa in ana.points:
            P = pa.classification.poly
            _, m, semi = P.semi_elliptic_form()
            for j, mj in enumerate(m):
                beta = tuple(2 * mj if k == j else 0 for k in range(P.dim))
                assert semi[beta].real > 0.0


def test_operator_norm_bound(ex73_analysis, rng):
    # ||t^E|| <= C t^{lambda_max} for t >= 1 with a fitted constant
    E = ex73_analysis.points[0].classification.poly.E
    lam_max = float(np.linalg.eigvalsh(E).max())
    ts = np.geomspace(1.0, 1e4, 40)
    ratios = [np.linalg.norm(matrix_power_t(E, t), 2) / t ** lam_max
              for t in ts]
    C = max(ratios)
    assert np.isfinite(C)
    ts2 = np.geomspace(1e4, 1e6, 10)
    for t in ts2:
        assert np.linalg.norm(matrix_power_t(E, t), 2) <= (C + 1e-9) * t ** lam_max


def test_expm_matches_extended_precision_and_scipy(corpus_polys):
    # t^E for t in [1e-3, 1e6]: the Taylor expm against a 40-digit expm of
    # the same matrix; scipy's Pade expm is itself up to 5.7e-13 off there
    mp = pytest.importorskip("mpmath")
    slinalg = pytest.importorskip("scipy.linalg")

    def rel(a, b):
        return np.linalg.norm(a - b, 1) / np.linalg.norm(b, 1)

    for P in corpus_polys:
        for t in np.geomspace(1e-3, 1e6, 19):
            A = np.log(t) * P.E
            with mp.workdps(40):
                ref = np.array(mp.expm(mp.matrix(A.tolist())).tolist(), dtype=float)
            got = homogeneous.expm(A)
            assert rel(got, ref) <= 1e-13
            assert rel(got, slinalg.expm(A)) <= 1e-12


def test_sphere_to_space_coverage(intro_analysis, rng):
    # every nonzero xi is t^E eta for a sphere point eta: solve for t by
    # bisection on |t^{-E} xi| = 1
    P = intro_analysis.points[0].classification.poly
    for _ in range(100):
        xi = rng.standard_normal(2) * float(rng.uniform(0.1, 50.0))
        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            r = np.linalg.norm(np.linalg.inv(
                matrix_power_t(P.E, mid)) @ xi)
            if r > 1.0:
                lo = mid
            else:
                hi = mid
        t = math.sqrt(lo * hi)
        eta = np.linalg.inv(matrix_power_t(P.E, t)) @ xi
        assert abs(np.linalg.norm(eta) - 1.0) < 1e-6
        assert_allclose(P.group_action(t, eta), xi, rtol=1e-6, atol=1e-9)


def test_mu_exact_rational(ex71_analysis):
    P = ex71_analysis.points[0].classification.poly
    assert P.mu == Fraction(1, 6) + Fraction(1, 4)
    assert isinstance(P.mu, Fraction)


def test_invalid_construction():
    with pytest.raises(ValueError):
        # |beta:2m| != 1
        HomogeneousPolynomial(1, {(3,): 1.0}, np.eye(1), (2,))
    with pytest.raises(ValueError):
        # not positive
        HomogeneousPolynomial(1, {(2,): -1.0}, np.eye(1), (1,))


def test_evaluator_matches_term_by_term_reference(corpus_polys, rng):
    for P in corpus_polys:
        pts = 2.0 * rng.standard_normal((64, P.dim))
        for method, ref in _REFERENCES:
            want = ref(P.coeffs, pts)
            got = getattr(P, method)(pts)
            assert got.shape == want.shape
            # entries that cancel to ~0 are held to the scale of the output
            atol = 1e-13 * np.abs(want).max()
            assert_allclose(got, want, rtol=1e-13, atol=atol)
            one, one_want = getattr(P, method)(pts[0]), ref(P.coeffs, pts[0])
            assert np.shape(one) == np.shape(one_want)
            assert_allclose(one, one_want, rtol=1e-13, atol=atol)


def test_evaluator_rows_bit_identical_to_single_points(corpus_polys, rng):
    for P in corpus_polys:
        pts = 2.0 * rng.standard_normal((257, P.dim))
        for method, _ in _REFERENCES:
            batch = getattr(P, method)(pts)
            single = np.array([getattr(P, method)(x) for x in pts])
            assert np.array_equal(batch, single), method


def test_evaluator_blocks_bit_identical(corpus_polys, rng, monkeypatch):
    from latconv import _poly
    pts = 2.0 * rng.standard_normal((257, 2))
    polys = [P for P in corpus_polys if P.dim == 2]
    whole = [[getattr(P, m)(pts) for m, _ in _REFERENCES] for P in polys]
    monkeypatch.setattr(_poly, "_BLOCK_CELLS", 1000)
    for P, want in zip(polys, whole):
        for (method, _), w in zip(_REFERENCES, want):
            assert np.array_equal(getattr(P, method)(pts), w), method


def test_evaluator_keeps_leading_shape(corpus_polys, rng):
    P = corpus_polys[0]
    pts = rng.standard_normal((3, 4, P.dim))
    assert P(pts).shape == (3, 4)
    assert P.real_hess(pts).shape == (3, 4, P.dim, P.dim)
    assert np.array_equal(P.real_grad(pts).reshape(12, P.dim),
                          P.real_grad(pts.reshape(12, P.dim)))


def test_evaluator_peak_is_result_plus_one_block(ex73_analysis):
    # each block sums its terms into a fresh array, so a block's product of
    # terms is released when the block ends: ex73's Re P at 200,000 points
    # peaked at 5.0 MiB for a 1.5 MiB result (14.8 MiB when every block
    # kept its product)
    import tracemalloc

    from latconv import _poly
    P = ex73_analysis.points[0].classification.poly
    xi = np.random.default_rng(7).standard_normal((200_000, 2))
    tracemalloc.start()
    try:
        out = P.real(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + _poly._BLOCK_CELLS * out.itemsize


def _grid_nodes(rng, sizes):
    return [np.sort(2.0 * rng.standard_normal(n)) for n in sizes]


def _pointwise_on_grid(fn, nodes):
    """Reference: the stacked grid points through the pointwise evaluator."""
    mesh = np.meshgrid(*nodes, indexing="ij")
    vals = fn(np.stack([m.reshape(-1) for m in mesh], axis=-1))
    return vals.reshape(mesh[0].shape + vals.shape[1:])


def test_on_grid_bit_identical_to_pointwise(corpus_polys, rng, monkeypatch):
    from latconv import _poly
    polys = corpus_polys + [HomogeneousPolynomial(1, {(4,): 1.0 + 0.5j}, np.eye(1),
                                                  (2,))]
    sizes = {1: [(17,), (1,)], 2: [(9, 13), (1, 7), (6, 1)], 3: [(5, 4, 3), (1, 3, 1)]}
    for P in polys:
        for shape in sizes[P.dim]:
            nodes = _grid_nodes(rng, shape)
            for real, fn in ((False, P.__call__), (True, P.real)):
                want = _pointwise_on_grid(fn, nodes)
                got = P.on_grid(nodes, real=real)
                assert got.shape == shape and got.dtype == want.dtype
                assert np.array_equal(got, want), (P, shape, real)
    # coefficient arrays (the stacked gradient) and grids that span several
    # slabs: 8 numbers per slab is one row of a 4-wide grid
    monkeypatch.setattr(_poly, "_BLOCK_CELLS", 8)
    monkeypatch.setattr(_poly, "_SLAB_CELLS", 8)
    for P in polys:
        nodes = _grid_nodes(rng, (7,) + (4,) * (P.dim - 1))
        assert np.array_equal(P.on_grid(nodes), _pointwise_on_grid(P, nodes))
        assert np.array_equal(P._grad.on_grid(nodes),
                              _pointwise_on_grid(P.real_grad, nodes))


def test_on_grid_peak_is_result_plus_its_scratch(ex73_analysis):
    # beside its result, on_grid holds one real monomial and one complex
    # term per slab cell, which grid_scratch counts in complex numbers; the
    # power tables and numpy's real-to-complex cast buffers come on top
    import tracemalloc

    from latconv._poly import grid_scratch
    P = ex73_analysis.points[0].classification.poly
    nodes = [np.linspace(-3, 3, 700), np.linspace(-2, 2, 900)]
    tracemalloc.start()
    try:
        out = P.on_grid(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_scratch(out.shape) < out.size
    assert peak <= out.nbytes + 16 * grid_scratch(out.shape) + 256 * 1024


def test_sphere_samples_are_drawn_once_per_process_and_read_only(monkeypatch):
    # classify and HomogeneousPolynomial._validate ask for the same 1000 d
    # samples; the corpus used to draw them 27 times for 14 classifications
    draws = []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: draws.append(seed) or rng(seed))
    homogeneous.sphere_samples.cache_clear()
    for name in ("intro", "ex73", "ex74", "srw:2"):
        latconv.analyze(examples.get(name))
    # the homogeneity spot check draws its own points from the next seed
    assert draws.count(homogeneous._SAMPLE_SEED) == 1
    pts = homogeneous.sphere_samples(2, 2000)
    assert homogeneous.sphere_samples(2, 2000) is pts
    assert not pts.flags.writeable
    fresh = rng(homogeneous._SAMPLE_SEED).standard_normal((2000, 2))
    assert np.array_equal(pts, fresh / np.linalg.norm(fresh, axis=1, keepdims=True))
