import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import latconv
from latconv import _poly, examples, expansion, symbol
from latconv.expansion import (VERDICT_INDETERMINATE, VERDICT_NOT, VERDICT_PHT,
                               _shifted_series, classify, gamma_taylor)
from latconv.homogeneous import sphere_samples
from latconv.lattice import LatticeFunction
from latconv.symbol import SymbolView

from conftest import torus_dist

S3 = math.sqrt(3.0)


def test_gamma_taylor_delta_is_linear():
    g, _ = latconv.normalize(latconv.delta((1,)))
    series = gamma_taylor(SymbolView(g), np.zeros(1), 6)
    assert series.coeffs[(1,)] == pytest.approx(1j, abs=1e-14)
    others = {k: v for k, v in series.coeffs.items() if k != (1,)}
    assert all(abs(v) < 1e-12 for v in others.values())


def test_gamma_taylor_intro_matches_printed_expansion():
    # displayed coefficients: -1/(11+s3) eta^4, (7-6 s3)/118 eta^2 zeta,
    # -2/(11+s3) zeta^2
    g, _ = latconv.normalize(examples.intro())
    xi0 = np.array([0.0, np.pi / 3.0])
    series = gamma_taylor(SymbolView(g), xi0, 4)
    c = series.coeffs
    assert c[(4, 0)] == pytest.approx(-1.0 / (11 + S3), abs=1e-8)
    assert c[(2, 1)] == pytest.approx((7 - 6 * S3) / 118.0, abs=1e-8)
    assert c[(0, 2)] == pytest.approx(-2.0 / (11 + S3), abs=1e-8)
    # the two printed forms of the mixed coefficient agree exactly
    assert (7 - 6 * S3) / 118.0 == pytest.approx(-(S3 - 1) / (22 + 2 * S3),
                                                 abs=1e-15)
    # quadratic/cubic terms absent apart from the zeta^2 one
    for beta in [(2, 0), (1, 1), (3, 0), (1, 2), (0, 3)]:
        assert abs(c.get(beta, 0.0)) < 1e-8


def test_gamma_taylor_ex71():
    g, _ = latconv.normalize(examples.ex71())
    series = gamma_taylor(SymbolView(g), np.zeros(2), 6)
    c = series.coeffs
    assert c[(6, 0)] == pytest.approx(-1.0 / 64.0, abs=1e-10)
    assert c[(0, 4)] == pytest.approx(-2.0 / 64.0, abs=1e-10)
    assert c[(3, 2)] == pytest.approx(2j / 64.0, abs=1e-10)
    for beta in [(2, 0), (0, 2), (1, 1), (4, 0), (2, 2)]:
        assert abs(c.get(beta, 0.0)) < 1e-10


def test_gamma_requires_unit_modulus():
    g, _ = latconv.normalize(examples.intro())
    from latconv.errors import NotNormalizedError
    with pytest.raises(NotNormalizedError):
        gamma_taylor(SymbolView(g), np.array([0.5, 0.5]), 4)


def test_classify_intro(intro_analysis):
    pa = intro_analysis.points[0]
    cls = pa.classification
    assert cls.verdict == VERDICT_PHT
    assert_allclose(cls.alpha, [0.0, 0.0], atol=1e-10)
    assert_allclose(cls.E, np.diag([0.25, 0.5]), atol=1e-8)
    assert cls.mu == Fraction(3, 4)
    den = 22 + 2 * S3
    assert cls.poly.coeffs[(4, 0)] == pytest.approx(2 / den, abs=1e-8)
    assert cls.poly.coeffs[(2, 1)] == pytest.approx((S3 - 1) / den, abs=1e-8)
    assert cls.poly.coeffs[(0, 2)] == pytest.approx(4 / den, abs=1e-8)


@pytest.mark.parametrize("name", ["intro", "unstable1d", "ex74", "ex72"])
def test_rounding_dust_reads_zero(name):
    # the moment sums left intro's alpha at (0, 6.9e-18), unstable1d's at
    # -1.35e-16, an imaginary part of 8.2e-34 on intro's P[0,2], of 1.3e-33
    # on two of ex74's coefficients and of up to 4.1e-16 on ex72's P[0,2],
    # whose drifts are +-0.414 and whose P[2,0] is complex
    ana = latconv.analyze(examples.get(name))
    for pa in ana.points:
        cls = pa.classification
        if name == "ex72":
            assert np.abs(cls.alpha[1]) == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
            assert cls.poly.semi_coeffs[(0, 2)].imag == 0.0
            assert cls.poly.semi_coeffs[(2, 0)].imag > 0.1
        if name in ("intro", "unstable1d"):
            assert np.array_equal(cls.alpha, np.zeros(len(cls.alpha)))
        if name in ("intro", "ex74"):
            assert all(c.imag == 0.0 for c in cls.poly.semi_coeffs.values())


def test_poly_prune_drops_each_small_part():
    got = _poly.poly_prune({(2,): 1.0 + 1e-20j, (1,): 1e-20 - 1e-20j, (0,): complex(-0.0, 2.0),
                            (3,): complex(0.5, -0.0)}, 1e-13)
    assert got == {(2,): 1.0, (0,): 2.0j, (3,): 0.5}
    assert math.copysign(1.0, got[(0,)].real) == -1.0
    assert math.copysign(1.0, got[(3,)].imag) == -1.0


def test_classify_ex73(ex73_analysis):
    assert len(ex73_analysis.points) == 2
    for pa in ex73_analysis.points:
        cls = pa.classification
        assert cls.verdict == VERDICT_PHT
        assert_allclose(cls.E, [[0.375, 0.125], [0.125, 0.375]], atol=1e-8)
        assert cls.mu == Fraction(3, 4)
        assert_allclose(cls.alpha, [0.0, 0.0], atol=1e-10)
    assert ex73_analysis.mu_phi == Fraction(3, 4)


def test_ex73_printed_polynomial_is_inconsistent_with_its_taylor():
    # The displayed Taylor coefficients -23/384 eta^4 + 25/96 eta^3 zeta
    # - 23/64 eta^2 zeta^2 + ... evaluate along the quartic axis (1,-1)/sqrt(2)
    # to exactly 1/4, while the displayed polynomial (23/384)(eta-zeta)^4
    # gives 23/96 there.  The homogeneous part P must reproduce the realized
    # axis value, so its normal-form coefficient is 1/4, not 23/96.
    printed = {(4, 0): 23 / 384, (3, 1): -25 / 96, (2, 2): 23 / 64,
               (1, 3): -25 / 96, (0, 4): 23 / 384}
    u = np.array([1 / math.sqrt(2), -1 / math.sqrt(2)])
    axis_val = sum(c * u[0] ** b[0] * u[1] ** b[1] for b, c in printed.items())
    assert axis_val == pytest.approx(0.25, abs=1e-12)
    assert abs(axis_val - 23 / 96) > 1e-2
    # and the numerically realized quartic along that axis is 1/4 as well
    g, _ = latconv.normalize(examples.ex73())
    s = SymbolView(g)
    h = 5e-3
    xi = h * u
    gamma = complex(np.log(s.evaluate(xi)))
    assert -gamma.real / h ** 4 == pytest.approx(0.25, rel=1e-3)


def test_classify_unstable1d_rejected():
    g, _ = latconv.normalize(examples.unstable1d())
    s = SymbolView(g)
    series = gamma_taylor(s, np.zeros(1), 6)
    assert series.coeffs[(2,)] == pytest.approx(-0.25j, abs=1e-12)
    assert series.coeffs[(4,)] == pytest.approx(-1 / 32 + 1j / 48, abs=1e-12)
    cls = classify(s, np.zeros(1))
    assert cls.verdict == VERDICT_NOT


# the two rejections classify makes before it tries any weights
@pytest.mark.parametrize("entries, xi0, reason", [
    # |phi-hat| = 1.6 |cos(xi / 2)| is 1 here, on its slope
    ({(0,): 0.8, (1,): 0.8}, 2 * math.acos(0.625), "linear term has a real component"),
    # |phi-hat| = |2 - e^{i xi}| has its minimum 1 at 0
    ({(0,): 2.0, (1,): -1.0}, 0.0, "quadratic real part is indefinite"),
])
def test_classify_rejects_a_unit_point_off_a_maximum(entries, xi0, reason):
    f = LatticeFunction.from_dict(entries)
    cls = classify(SymbolView(f), np.array([xi0]))
    assert cls.verdict == VERDICT_NOT
    assert cls.diagnostics["reason"] == reason
    assert cls.poly is None


def test_classify_pure_translation():
    ana = latconv.analyze(latconv.delta((3, 1)))
    assert ana.mu_phi is None
    assert ana.points[0].classification.verdict == VERDICT_NOT
    assert "translation" in ana.points[0].classification.diagnostics["reason"]


def test_classify_indeterminate_when_order_too_low():
    # phi-hat = 1 - lam (1 - cos xi)^7: leading order 14 > m_max
    f = examples.ex75((7,), (2.0 ** -6 / 2,))
    g, _ = latconv.normalize(f)
    cls = classify(SymbolView(g), np.zeros(1), m_max=12)
    assert cls.verdict == VERDICT_INDETERMINATE
    cls_hi = classify(SymbolView(g), np.zeros(1), m_max=14)
    assert cls_hi.verdict == VERDICT_PHT
    assert cls_hi.mu == Fraction(1, 14)


def test_analyze_ex74(ex74_analysis):
    ana = ex74_analysis
    assert ana.mu_phi == Fraction(2, 3)
    assert len(ana.points) == 2
    mus = {tuple(np.round(p.xi, 6)): p.classification.mu for p in ana.points}
    assert mus[(0.0, 0.0)] == Fraction(2, 3)
    assert mus[(round(np.pi, 6), 0.0)] == Fraction(1, 1)
    assert [tuple(np.round(ana.points[i].xi, 6)) for i in ana.minimal] \
        == [(0.0, 0.0)]


def test_analyze_ex75_mu(ex75_analysis):
    assert ex75_analysis.mu_phi == Fraction(1, 6) + Fraction(1, 4)


def test_analyze_srw(srw2_analysis):
    ana = srw2_analysis
    assert ana.mu_phi == Fraction(1, 1)
    assert len(ana.points) == 2
    for pa in ana.points:
        cls = pa.classification
        assert cls.verdict == VERDICT_PHT
        assert cls.poly.coeffs[(2, 0)] == pytest.approx(0.25, abs=1e-10)
        assert cls.poly.coeffs[(0, 2)] == pytest.approx(0.25, abs=1e-10)
        assert abs(cls.poly.coeffs.get((1, 1), 0.0)) < 1e-10


def test_classify_order_stability(intro_analysis, ex73_analysis):
    # classifying at order m and m + 2 gives identical polynomials
    for ana in (intro_analysis, ex73_analysis):
        s = SymbolView(ana.function)
        for pa in ana.points:
            c1 = classify(s, pa.xi, m_max=10)
            c2 = classify(s, pa.xi, m_max=12)
            assert c1.verdict == c2.verdict == VERDICT_PHT
            keys = set(c1.poly.coeffs) | set(c2.poly.coeffs)
            for k in keys:
                assert abs(c1.poly.coeffs.get(k, 0.0)
                           - c2.poly.coeffs.get(k, 0.0)) < 1e-8


def test_classify_search_order_uniqueness(ex73_analysis, ex71_analysis):
    for ana in (ex73_analysis, ex71_analysis):
        s = SymbolView(ana.function)
        for pa in ana.points:
            fwd = classify(s, pa.xi)
            rev = classify(s, pa.xi, reverse_search=True)
            assert fwd.verdict == rev.verdict
            assert_allclose(fwd.alpha, rev.alpha, atol=1e-10)
            keys = set(fwd.poly.coeffs) | set(rev.poly.coeffs)
            for k in keys:
                assert abs(fwd.poly.coeffs.get(k, 0.0)
                           - rev.poly.coeffs.get(k, 0.0)) < 1e-8


def test_classified_polynomial_homogeneity(intro_analysis, rng):
    P = intro_analysis.points[0].classification.poly
    for _ in range(20):
        t = float(rng.uniform(0.2, 6.0))
        xi = rng.standard_normal(2)
        lhs = t * P(xi)
        rhs = P(P.group_action(t, xi))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_residual_shrinks_with_scale(intro_analysis, ex73_analysis):
    for ana in (intro_analysis, ex73_analysis):
        res = ana.points[0].classification.residual_norms
        assert res[10.0] > res[100.0] > res[1000.0]


@pytest.mark.parametrize("name", ["intro", "ex71", "ex72", "ex73", "ex74",
                                  "ex75:3,2", "ex75:2,3", "srw:2", "srw:3",
                                  "phim:2,1", "phim:2,3", "unstable1d"])
def test_residual_norms_match_three_evaluations(name):
    # reference: all of Q at t^-E xi for each t, less P, as three calls; its
    # own cancellation rounds at a few eps of |P|, which the one-call form
    # avoids (2.2e-12 relative on srw:2 at t = 1000, against a long-double sum)
    classes = [p.classification for p in latconv.analyze(examples.get(name)).points
               if p.classification.ok]
    assert classes
    for cls in classes:
        P = cls.poly
        samples = sphere_samples(P.dim, 1000 * P.dim)
        norms = cls.residual_norms
        lam = np.array([1.0 / (2 * m) for m in P.weights])
        Q = _poly.CompiledPoly(cls.q_rot, P.dim)
        p_vals = _poly.CompiledPoly(P.semi_coeffs, P.dim)(samples)
        rounding = 16 * np.finfo(float).eps * np.abs(p_vals).max()
        for t in (10.0, 100.0, 1000.0):
            ref = np.abs(Q(samples * t ** (-lam)) * t - p_vals).max()
            assert abs(norms[t] - ref) <= 1e-12 * ref + rounding


def test_residual_norms_are_made_on_request(monkeypatch):
    # analyze makes no residual norms.  The first read of a point's makes
    # them once, from the Q and kept keys the classification keeps, bit for
    # bit what an eager call on classify's kept dict and samples gives
    real, calls, made = expansion._residual_norms, [], []
    monkeypatch.setattr(expansion, "_residual_norms",
                        lambda *a: calls.append(a) or real(*a))
    build = expansion.HomogeneousPolynomial

    def polynomial(dim, kept, basis, weights):
        made.append((build(dim, kept, basis, weights), kept))
        return made[-1][0]

    monkeypatch.setattr(expansion, "HomogeneousPolynomial", polynomial)
    for name in ("intro", "ex72", "ex73", "srw:3", "phim:2,3", "unstable1d"):
        made.clear()
        ana = latconv.analyze(examples.get(name))
        assert not calls
        classes = {id(p.classification): p.classification for p in ana.points}
        for cls in classes.values():
            if not cls.ok:
                assert cls.residual_norms is None
                continue
            kept = next(k for poly, k in made if poly is cls.poly)
            d = cls.poly.dim
            eager = real(cls.q_rot, kept, cls.poly.weights, sphere_samples(d, 1000 * d))
            norms = cls.residual_norms
            assert cls.residual_norms is norms
            assert list(norms) == list(eager) == [10.0, 100.0, 1000.0]
            assert np.array(list(norms.values())).tobytes() == \
                np.array(list(eager.values())).tobytes()
        assert len(calls) == sum(c.ok for c in classes.values())
        calls.clear()


def test_drift_equals_mean_for_probability(srw2_analysis):
    from latconv.verify import walk_profile
    prof = walk_profile(examples.srw(2))
    for pa in srw2_analysis.points:
        assert_allclose(pa.classification.alpha, prof.mean, atol=1e-10)
    lazy = LatticeFunction.from_dict({(0,): 0.4, (1,): 0.35, (-1,): 0.25})
    ana = latconv.analyze(lazy)
    prof = walk_profile(lazy)
    assert_allclose(ana.points[0].classification.alpha, prof.mean, atol=1e-10)


def test_ex72_classification(ex72_analysis):
    gamma = math.sqrt(2.0) - 1.0
    assert ex72_analysis.mu_phi == Fraction(1, 1)
    drifts = sorted(round(p.classification.alpha[1], 8)
                    for p in ex72_analysis.points)
    assert drifts == [round(-gamma, 8)] * 2 + [round(gamma, 8)] * 2
    for pa in ex72_analysis.points:
        cls = pa.classification
        assert abs(pa.classification.alpha[0]) < 1e-8
        c20 = cls.poly.coeffs[(2, 0)]
        c02 = cls.poly.coeffs[(0, 2)]
        assert c20 == pytest.approx((1 + 1j * gamma) / 4, abs=1e-8)
        assert c02 == pytest.approx(gamma, abs=1e-8)


# -- dense series arithmetic against the dict arithmetic it replaced ---------

def _dict_mul(a, b, max_degree=None):
    out = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            key = tuple(x + y for x, y in zip(ba, bb))
            if max_degree is not None and sum(key) > max_degree:
                continue
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _dict_add(a, b, scale=1.0):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + scale * v
    return out


def _dict_log1p(u, order):
    out = {}
    power_u = dict(u)
    sign = 1.0
    for k in range(1, order + 1):
        if k > 1:
            power_u = _dict_mul(power_u, u, max_degree=order)
            if not power_u:
                break
        out = _dict_add(out, power_u, scale=sign / k)
        sign = -sign
    return out


def _dict_compose_linear(coeffs, mat):
    d = mat.shape[0]
    forms = []
    for i in range(d):
        forms.append({tuple(1 if k == j else 0 for k in range(d)): mat[i, j]
                      for j in range(d) if mat[i, j] != 0.0})
    out = {}
    for beta, c in coeffs.items():
        term = {(0,) * d: complex(c)}
        for i, b in enumerate(beta):
            for _ in range(b):
                term = _dict_mul(term, forms[i])
        out = _dict_add(out, term)
    return out


def _assert_matches_reference(got, ref):
    scale = max(abs(v) for v in ref.values())
    for key in set(got) | set(ref):
        assert abs(got.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-15 * scale, key


def _taylor_u(name):
    g, _ = latconv.normalize(examples.get(name))
    sym = SymbolView(g)
    return _shifted_series(sym, latconv.find_omega(sym).points[0], 12)


@pytest.mark.parametrize("name", ["srw:3", "ex73", "intro", "phim:2,3"])
def test_dense_log1p_matches_dict_reference(name):
    u = _taylor_u(name)
    _assert_matches_reference(_poly.from_dense(_poly.log1p_series(u)),
                              _dict_log1p(_poly.from_dense(u), 12))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_log1p_matches_dict_reference_random(dim):
    rng = np.random.default_rng(100 + dim)
    m = 12
    shape = (m + 1,) * dim
    deg = np.indices(shape).sum(axis=0)
    u = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.5 ** deg
    u[(deg == 0) | (deg > m) | (rng.random(shape) < 0.3)] = 0.0
    _assert_matches_reference(_poly.from_dense(_poly.log1p_series(u)),
                              _dict_log1p(_poly.from_dense(u), m))


# non-orthogonal, with entries of modulus <= 1: both paths round at the size of
# the terms they sum, which grows as |M|^12 (with a 1.3 entry the two agree
# only to 4.9e-15 on ex73, each 3e-15 from the exact rational composition)
@pytest.mark.parametrize("name, mat", [
    ("ex73", [[0.9, 0.4], [-0.3, 0.8]]),
    ("intro", [[0.8, -0.6], [0.3, 0.9]]),
    ("srw:3", [[1.0, 0.4, 0.0], [-0.2, 0.9, 0.3], [0.1, 0.0, 0.8]]),
])
def test_dense_compose_linear_matches_dict_reference(name, mat):
    mat = np.array(mat)
    coeffs = _poly.from_dense(_poly.log1p_series(_taylor_u(name)))
    _assert_matches_reference(_poly.poly_compose_linear(coeffs, mat),
                              _dict_compose_linear(coeffs, mat))


# the corpus examples no other test classifies: |Omega|, verdict, weights,
# mu_phi and the minimal E, as pinned before the dense series arithmetic
@pytest.mark.parametrize("name, n_omega, weights, mu, E", [
    ("srw:3", 2, (1, 1, 1), Fraction(3, 2), np.eye(3) / 2),
    ("phim:2,3", 12, (1, 1), Fraction(1), np.eye(2) / 2),
    ("phim:1,2", 4, (1, 1), Fraction(1), np.eye(2) / 2),
    ("ex75:2,3", 1, (2, 3), Fraction(5, 12), np.diag([1 / 4, 1 / 6])),
])
def test_classify_rest_of_corpus(name, n_omega, weights, mu, E):
    ana = latconv.analyze(examples.get(name))
    assert len(ana.omega) == n_omega
    assert ana.verdict == VERDICT_PHT
    for p in ana.points:
        assert p.classification.diagnostics["weights"] == weights
    assert ana.mu_phi == mu
    assert ana.minimal
    for p in ana.minimal_points():
        assert_allclose(p.classification.E, E, atol=1e-8)


# analyze classifies one Omega point per coset of 2 pi L*
@pytest.mark.parametrize("name, calls", [
    ("intro", 1), ("ex72", 2), ("ex73", 1), ("ex74", 2), ("srw:2", 1),
    ("srw:3", 1), ("phim:2,1", 1), ("phim:2,3", 1), ("unstable1d", 2),
])
def test_analyze_classifies_once_per_coset(monkeypatch, name, calls):
    from latconv import expansion
    seen = []

    def counting(sym, xi0, **kwargs):
        seen.append(xi0)
        return classify(sym, xi0, **kwargs)

    monkeypatch.setattr(expansion, "classify", counting)
    ana = latconv.analyze(examples.get(name))
    assert len(seen) == calls
    assert len({id(p.classification) for p in ana.points}) == calls


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("name", ["ex72", "ex73", "srw:2", "srw:3",
                                  "phim:2,1", "phim:2,3"])
def test_shared_classification_matches_fresh_classify(name, shift):
    f = examples.get(name)
    if shift:
        f = latconv.translate(f, np.ones(f.dim, dtype=np.int64))
    ana = latconv.analyze(f)
    sym = SymbolView(ana.function)
    for pa in ana.points:
        got, ref = pa.classification, classify(sym, pa.xi)
        assert got.verdict == ref.verdict
        assert got.mu == ref.mu
        assert_allclose(got.alpha, ref.alpha, rtol=0, atol=1e-12)
        assert_allclose(got.E, ref.E, rtol=0, atol=1e-12)
        assert set(got.poly.coeffs) == set(ref.poly.coeffs)
        for beta, c in ref.poly.coeffs.items():
            assert abs(got.poly.coeffs[beta] - c) <= 1e-12


def test_unrelated_points_keep_their_own_classification(ex74_analysis):
    a, b = (p.classification for p in ex74_analysis.points)
    assert a is not b
    assert not np.allclose(a.E, b.E)


# -- flat points off the grid: each weight assignment is tried at its centre --

def _modulated(f, theta):
    """phi(x) e^{i theta.x}: Omega moves by -theta, and nothing else of the
    classification changes."""
    theta = np.asarray(theta, dtype=float)
    return LatticeFunction(f.dim, f.points, f.values * np.exp(1j * (f.points @ theta)))


@pytest.mark.parametrize("name, theta", [
    ("ex75:2", (1.0,)), ("ex75:3", (1.0,)), ("ex75:4", (1.0,)), ("ex75:5", (1.0,)),
    ("ex75:3,2", (1.0, 0.7)), ("ex71", (1.0, 0.7)), ("ex73", (1.0, 0.7)),
    ("ex74", (1.0, 0.7)), ("intro", (1.0, 0.7)),
])
def test_modulation_moves_omega_and_keeps_the_classification(name, theta):
    # the rounded input moves a flat maximum by up to 2.1e-2 (ex75:4), where
    # the polish used to report not-PHT, indeterminate or mu = 1/4 for 1/6
    plain = latconv.analyze(examples.get(name))
    moved = latconv.analyze(_modulated(examples.get(name), theta))
    assert moved.verdict == plain.verdict == VERDICT_PHT
    assert moved.mu_phi == plain.mu_phi
    assert len(moved.points) == len(plain.points)
    for pa in moved.points:
        ref = min(plain.points, key=lambda p: torus_dist(pa.xi, p.xi - theta))
        assert torus_dist(pa.xi, ref.xi - theta) <= 1e-11
        got, want = pa.classification, ref.classification
        assert got.diagnostics["weights"] == want.diagnostics["weights"]
        assert got.mu == want.mu
        assert np.abs(got.E - want.E).max() <= 1e-12
        assert abs(pa.value) == pytest.approx(1.0, abs=1e-15)


def test_weights_follow_their_axes_into_the_basis_of_the_centre():
    # intro with its axes swapped, modulated: at the Newton endpoint the
    # quadratic part is not diagonal, and its eigenbasis puts the flat axis
    # first; at the centre it is diagonal, and the natural order puts it last
    f = examples.intro()
    pts = f.points[:, ::-1]
    ana = latconv.analyze(LatticeFunction(2, pts, f.values * np.exp(1j * (pts @ [0.7, 1.0]))))
    cls = ana.points[0].classification
    assert ana.mu_phi == Fraction(3, 4) and cls.diagnostics["weights"] == (1, 2)
    assert cls.diagnostics["centre_steps"] > 0
    assert np.array_equal(cls.poly.basis, np.eye(2))
    assert torus_dist(ana.points[0].xi, [np.pi / 3 - 0.7, -1.0]) <= 1e-11


@pytest.mark.parametrize("m", [(2,), (3,), (4,), (5,), (3, 2)])
def test_flat_points_are_centred_from_endpoints_off_them(m):
    # ex75:m i^(x_1 + ... + x_d) has exact values and its Omega point at
    # -pi/2 on every axis; Newton ascents started 1e-2 off it stop short of
    # it along the flat axes
    f = examples.ex75(m)
    d = f.dim
    powers = np.array([1.0, 1j, -1.0, -1j])[f.points.sum(axis=1) % 4]
    sym = SymbolView(LatticeFunction(d, f.points, f.values * powers))
    exact = np.full(d, -np.pi / 2)
    starts = exact + 1e-2 * np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    ends, _, converged = symbol.newton_ascent(
        lambda rows, xi: sym.abs2_grad_hess(xi), starts, 1e-12, max_step=0.5,
        relative=True)
    assert converged.all()
    assert max(torus_dist(end, exact) for end in ends) > 1e-5
    for end in ends:
        cls = classify(sym, end)
        assert cls.mu == sum(Fraction(1, 2 * k) for k in m)
        assert torus_dist(end + cls.shift, exact) <= 1e-12
        assert cls.diagnostics["centre_shift"] == pytest.approx(
            np.linalg.norm(cls.shift), rel=1e-15)


@pytest.mark.parametrize("shift", [100, 300])
@pytest.mark.parametrize("name", ["intro", "ex71", "ex74"])
def test_far_translates_keep_their_classification(name, shift):
    # Gamma's moments are taken about the support's box centre: about the
    # origin they lose |y|^k eps at order k, which left ex71 translated by
    # 100 with survivors above tolerance, and centre steps of 4e-11 on intro
    f = examples.get(name)
    plain = latconv.analyze(f)
    far = latconv.analyze(latconv.translate(f, (shift,) * f.dim))
    assert far.mu_phi == plain.mu_phi
    for p, q in zip(plain.points, far.points):
        assert torus_dist(p.xi, q.xi) <= 1e-14
        assert_allclose(q.classification.alpha, p.classification.alpha + shift,
                        rtol=0, atol=1e-10)
        assert np.abs(q.classification.E - p.classification.E).max() <= 1e-14
