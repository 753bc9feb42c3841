import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import latconv
from latconv import examples, verify
from latconv.lattice import LatticeFunction

from conftest import power_oracle


def test_sup_decay_intro(intro_analysis):
    rep = verify.sup_decay_report(examples.intro(), intro_analysis,
                                  [16, 32, 64, 128, 256])
    assert rep.verdict == "bounded-band"
    scaled = rep.column("scaled")
    assert scaled.max() / scaled.min() < 2.0


def test_sup_decay_delta_not_applicable():
    d = latconv.delta((1, 1))
    ana = latconv.analyze(d)
    rep = verify.sup_decay_report(d, ana, [2, 4, 8])
    assert rep.verdict == "not-applicable"
    assert_allclose(rep.column("sup"), 1.0)


def test_llt_error_scaled_decreases(intro_analysis):
    e10 = verify.llt_error(examples.intro(), intro_analysis, 10)
    e100 = verify.llt_error(examples.intro(), intro_analysis, 100)
    assert e100[1] < e10[1]


def test_llt_error_ex74_slope(ex74_analysis):
    # the non-minimal point's contribution dies like n^{-1/3} relative to the
    # leading term: the scaled-error log-log slope is negative, magnitude <= 0.5
    ns = [32, 64, 128, 256]
    rep = verify.llt_error_ladder(examples.ex74(), ex74_analysis, ns)
    scaled = rep.column("scaled")
    slope = np.polyfit(np.log(ns), np.log(scaled), 1)[0]
    assert slope < 0.0
    assert abs(slope) <= 0.5


def test_llt_error_lazy_walk_classical():
    # classical LLT for a 1-d lazy walk; oracle is direct convolution
    lazy = LatticeFunction.from_dict({(0,): 0.5, (1,): 0.25, (-1,): 0.25})
    ana = latconv.analyze(lazy)
    assert ana.mu_phi == Fraction(1, 2)
    e32 = verify.llt_error(lazy, ana, 32)
    e256 = verify.llt_error(lazy, ana, 256)
    assert e256[1] < e32[1] < 0.05


def test_gaussian_bound_srw(srw2_analysis):
    ns = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    rep = verify.gaussian_bound_fit(examples.srw(2), srw2_analysis, ns)
    assert rep.verdict == "fit"
    assert rep.constants["M"] >= 0.05
    assert rep.constants["octave_ratio"] <= 1.5


def test_gaussian_bound_ex72_redirects(ex72_analysis):
    rep = verify.gaussian_bound_fit(examples.ex72(), ex72_analysis, [2, 4, 8])
    assert rep.verdict == "hypothesis-violated"
    assert "subexp" in rep.notes


def test_subexp_bound_ex72(ex72_analysis):
    ns = [4, 8, 16, 32, 64]
    rep = verify.subexp_bound_fit(examples.ex72(), ex72_analysis, ns, N=4)
    assert rep.verdict == "fit"
    assert np.isfinite(rep.constants["C_N"])


def test_subexp_bound_ex74(ex74_analysis):
    rep = verify.subexp_bound_fit(examples.ex74(), ex74_analysis,
                                  [4, 8, 16, 32, 64], N=6)
    assert rep.verdict == "fit"


def test_subexp_delta_not_applicable():
    d = latconv.delta((2,))
    ana = latconv.analyze(d)
    rep = verify.subexp_bound_fit(d, ana, [2, 4], N=4)
    assert rep.verdict == "not-applicable"


def test_stability_verdicts():
    rep = verify.stability_report(examples.ex73(), 128)
    assert rep.verdict == "stable"
    rep_u = verify.stability_report(examples.unstable1d(), 512)
    assert rep_u.verdict == "unstable"
    assert rep_u.constants["growth_ratio"] >= 2.0
    rows = rep_u.rows
    assert all(rows[i][0] < rows[i + 1][0] for i in range(len(rows) - 1))


def test_stability_probability_mass():
    rep = verify.stability_report(examples.srw(2), 64)
    assert_allclose(rep.column("l1"), 1.0, atol=1e-12)


def test_space_diff_exact():
    psi = LatticeFunction.from_dict({(0, 0): 1.0, (1, 0): 2.0})
    d = verify.space_diff(psi, (1, 0))
    # D_w psi(x) = psi(x + w) - psi(x)
    assert d.value_at((0, 0)) == pytest.approx(1.0)   # 2 - 1
    assert d.value_at((1, 0)) == pytest.approx(-2.0)
    assert d.value_at((-1, 0)) == pytest.approx(1.0)


def test_space_diff_delta_pair():
    psi = latconv.delta((0,))
    d = verify.space_diff(psi, (2,))
    assert d.to_dict() == {(-2,): 1.0, (0,): -1.0}


def test_space_diff_commutes(rng):
    from conftest import random_function
    psi = random_function(rng, 2, max_points=8)
    w1, w2 = (1, 0), (0, 2)
    lhs = verify.space_diff(verify.space_diff(psi, w1), w2)
    rhs = verify.space_diff(verify.space_diff(psi, w2), w1)
    for k in set(lhs.to_dict()) | set(rhs.to_dict()):
        assert abs(lhs.value_at(k) - rhs.value_at(k)) < 1e-12


def test_ex73_derivative_counterexample(ex73_analysis):
    # |D_{(0,1)} phi^(n)(0,0)| >= eps n^{-3/4}: the parity zero at (0,1)
    # keeps the difference at full size
    f = examples.ex73()
    powers = verify.direct_powers(f, [16, 32, 64])
    for n, g in powers.items():
        diff = verify.space_diff(g, (0, 1))
        val = abs(diff.value_at((0, 0)))
        assert val >= 0.05 * n ** (-0.75)
        assert g.value_at((0, 1)) == 0.0


def test_derivative_bound_fit_ex75(ex75_analysis):
    vectors = [np.array([1, 0]), np.array([0, 1])]
    ns = [4, 8, 16, 32, 64]
    rep = verify.derivative_bound_fit(examples.get("ex75:3,2"), ex75_analysis,
                                      vectors, (1, 0), ns)
    assert rep.verdict == "fit"
    assert rep.constants["M"] > 0


def test_derivative_bound_fit_rejects_ex73(ex73_analysis):
    vectors = [np.array([1, 0]), np.array([0, 1])]
    rep = verify.derivative_bound_fit(examples.ex73(), ex73_analysis,
                                      vectors, (1, 0), [4, 8])
    assert rep.verdict == "hypothesis-violated"


def test_time_diff_simple(ex75_analysis):
    # alpha = 0, phihat(0) = 1: partial_1 psi = psi - phi * psi
    f = examples.get("ex75:3,2")
    pa = ex75_analysis.points[0]
    g = ex75_analysis.function
    psi = latconv.power(g, 4, method="direct")
    got = verify.time_diff(g, pa, 1, psi)
    expect_dict = {}
    p5 = latconv.power(g, 5, method="direct")
    for k in set(psi.to_dict()) | set(p5.to_dict()):
        expect_dict[k] = psi.value_at(k) - p5.value_at(k)
    for k, v in expect_dict.items():
        assert abs(got.value_at(k) - v) < 1e-12


def test_time_diff_double_application(ex75_analysis):
    # partial_1 partial_1 psi = (delta - 2 phi + phi^(2)) * psi
    g = ex75_analysis.function
    pa = ex75_analysis.points[0]
    psi = latconv.power(g, 3, method="direct")
    got = verify.time_diff(g, pa, 1, verify.time_diff(g, pa, 1, psi))
    kernel = LatticeFunction.from_dict({(0, 0): 1.0})
    two_phi = g.scale(2.0)
    phi2 = latconv.power(g, 2, method="direct")
    expect = {}
    for k in (set(kernel.to_dict()) | set(two_phi.to_dict())
              | set(phi2.to_dict())):
        expect[k] = (kernel.value_at(k) - two_phi.value_at(k)
                     + phi2.value_at(k))
    expect_f = latconv.convolve(LatticeFunction.from_dict(expect, dim=2), psi)
    for k in set(got.to_dict()) | set(expect_f.to_dict()):
        assert abs(got.value_at(k) - expect_f.value_at(k)) < 1e-12


def test_time_diff_commutes(ex75_analysis):
    g = ex75_analysis.function
    pa = ex75_analysis.points[0]
    psi = latconv.power(g, 2, method="direct")
    a = verify.time_diff(g, pa, 1, verify.time_diff(g, pa, 2, psi))
    b = verify.time_diff(g, pa, 2, verify.time_diff(g, pa, 1, psi))
    for k in set(a.to_dict()) | set(b.to_dict()):
        assert abs(a.value_at(k) - b.value_at(k)) < 1e-12


def test_time_diff_nonlattice_drift(ex72_analysis):
    pa = ex72_analysis.points[0]
    with pytest.raises(ValueError, match="lattice"):
        verify.time_diff(ex72_analysis.function, pa, 1,
                         ex72_analysis.function)


def test_time_diff_scaled_band(ex75_analysis):
    # sup |partial_1 phi^(n)| decays like n^{-(mu + 1)}
    g = ex75_analysis.function
    pa = ex75_analysis.points[0]
    mu = float(ex75_analysis.mu_phi)
    powers = verify.direct_powers(g, [16, 32, 64, 128])
    scaled = []
    for n in (16, 32, 64, 128):
        d = verify.time_diff(g, pa, 1, powers[n])
        scaled.append(latconv.norm_linf(d) * n ** (mu + 1.0))
    assert max(scaled) / min(scaled) < 2.0


def test_walk_profile_srw():
    prof = verify.walk_profile(examples.srw(2))
    assert_allclose(prof.mean, [0.0, 0.0], atol=1e-15)
    assert_allclose(prof.covariance, np.eye(2) / 2, atol=1e-15)
    assert prof.genuinely_d_dimensional


def test_walk_profile_phim():
    prof = verify.walk_profile(examples.phim((2, 1)))
    assert_allclose(prof.mean, [0.0, 0.0], atol=1e-15)
    assert_allclose(prof.covariance, np.diag([2.0, 0.5]), atol=1e-15)


def test_walk_profile_delta_not_genuine():
    prof = verify.walk_profile(latconv.delta((1, 1)))
    assert not prof.genuinely_d_dimensional


def test_walk_profile_rejects_nonprobability():
    with pytest.raises(ValueError):
        verify.walk_profile(examples.intro())


def test_theta_srw_parity():
    prof = verify.walk_profile(examples.srw(2))
    assert verify.theta(prof, 2, (1, 1)) == pytest.approx(2.0, abs=1e-12)
    assert verify.theta(prof, 1, (0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert verify.theta(prof, 5, (2, 1)) == pytest.approx(2.0, abs=1e-12)


def test_theta_phim_rule():
    prof = verify.walk_profile(examples.phim((2, 1)))
    # 2 prod m_j = 4 when m_j | x_j and n - |x:m| even, else 0
    assert verify.theta(prof, 2, (2, 1)) == pytest.approx(4.0, abs=1e-12)
    assert verify.theta(prof, 2, (2, 0)) == pytest.approx(0.0, abs=1e-12)
    assert verify.theta(prof, 3, (1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert verify.theta(prof, 4, (4, 2)) == pytest.approx(4.0, abs=1e-12)


def test_theta_cosine_form_agrees():
    for f in (examples.srw(2), examples.phim((2, 1))):
        prof = verify.walk_profile(f)
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            x = rng.integers(-6, 7, size=2)
            a = verify.theta(prof, n, x.astype(float))
            b = verify.theta_cosine(prof, n, x.astype(float))
            assert abs(a - b) < 1e-10


def test_support_periodicity():
    srw = examples.srw(2)
    prof = verify.walk_profile(srw)
    assert verify.support_periodicity_check(srw, prof, 32)
    # probability analogue supported on the ex73 lattice {x + y even}
    analog = LatticeFunction.from_dict({
        (0, 0): 0.4, (1, 1): 0.15, (-1, -1): 0.15,
        (1, -1): 0.1, (-1, 1): 0.1, (2, -2): 0.05, (-2, 2): 0.05})
    prof_a = verify.walk_profile(analog)
    assert verify.support_periodicity_check(analog, prof_a, 24)
    lazy = LatticeFunction.from_dict({(0,): 0.5, (1,): 0.25, (-1,): 0.25})
    prof_l = verify.walk_profile(lazy)
    assert verify.support_periodicity_check(lazy, prof_l, 24)


def test_direct_powers_match_oracle():
    f = examples.ex73()
    powers = verify.direct_powers(f, [1, 3, 5])
    oracle = power_oracle(f.to_dict(), 5)
    for k, v in oracle.items():
        assert abs(powers[5].value_at(k) - v) < 1e-14


def test_direct_powers_cap_counts_kept_powers(monkeypatch):
    # the earlier powers are kept while the sweep runs on: tracemalloc measured
    # 3.53 boxes of the final size here, so a cap of 3.25 boxes must either
    # refuse the run or hold it
    import tracemalloc

    from latconv import _config
    from latconv.errors import ResourceLimitError
    f, ns = examples.intro(), [1, 2, 4, 8, 16, 32, 64, 128, 256]
    lo, hi = f.extent()
    cap = int(3.25 * 16 * np.prod(ns[-1] * (hi - lo) + 1))
    monkeypatch.setattr(_config, "MEMORY_CAP_BYTES", cap)
    tracemalloc.start()
    try:
        verify.direct_powers(f, ns)
        peak = tracemalloc.get_traced_memory()[1]
    except ResourceLimitError:
        peak = 0
    finally:
        tracemalloc.stop()
    assert peak <= cap


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis", "ex71_analysis",
                                     "ex73_analysis", "ex75_analysis"])
def test_conjugate_field_interpolation_error(fixture, request):
    # halfway between table directions, where linear interpolation is
    # furthest from its nodes (measured 4.4e-16 to 2.7e-5)
    P = request.getfixturevalue(fixture).points[0].classification.poly
    field = verify._ConjugateField(P)
    th = np.linspace(-np.pi, np.pi, field.n_angles, endpoint=False) + np.pi / field.n_angles
    mid = np.stack([np.cos(th), np.sin(th)], axis=-1)
    exact, _ = field.ev.conjugate_batch(mid, refine_starts=False)
    assert np.max(np.abs(field.values(mid) / exact - 1.0)) <= 1e-4


def test_conjugate_field_rejects_non_orthogonal_basis():
    from types import SimpleNamespace

    from latconv.homogeneous import HomogeneousPolynomial

    P = HomogeneousPolynomial(2, {(2, 0): 1, (0, 4): 1}, [[1, 0.5], [0, 1]], (1, 2))
    with pytest.raises(ValueError, match="not orthogonal"):
        verify._ConjugateField(P)
    point = SimpleNamespace(classification=SimpleNamespace(poly=P, alpha=np.zeros(2)))
    analysis = SimpleNamespace(mu_phi=P.mu, points=[point], function=examples.srw(2))
    with pytest.raises(ValueError, match="not orthogonal"):
        verify.subexp_bound_fit(analysis.function, analysis, [1, 2])


def _bisection_scale(field, xs):
    """The former fixed-bracket bisection for t, kept as a reference."""
    y = xs @ field.vecs
    lo = np.full(xs.shape[0], 1e-12)
    hi = np.full(xs.shape[0], 1e12)
    for _ in range(96):
        mid = np.sqrt(lo * hi)
        r = np.linalg.norm(y * mid[:, None] ** (-field.evals[None, :]), axis=1)
        take = r > 1.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return np.sqrt(lo * hi)


@pytest.mark.parametrize("fixture", ["intro_analysis", "srw2_analysis"])
def test_conjugate_field_scale_over_sixteen_decades(fixture, request, monkeypatch):
    # intro has a non-scalar F = diag(3/4, 1/2); srw:2 has F = I/2
    P = request.getfixturevalue(fixture).points[0].classification.poly
    field = verify._ConjugateField(P)
    rng = np.random.default_rng(5)
    dirs = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((12, 2))])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xs = (np.geomspace(1e-8, 1e8, 33)[:, None, None] * dirs[None]).reshape(-1, 2)
    t = field._solve_scale(xs)
    r = np.linalg.norm((xs @ field.vecs) * t[:, None] ** (-field.evals), axis=1)
    assert np.abs(r - 1.0).max() <= 1e-14
    got = field.values(xs)
    t_old = _bisection_scale(field, xs)
    inside = (t_old > 1.01e-12) & (t_old < 1e12 / 1.01)
    assert (~inside).any()
    monkeypatch.setattr(field, "_solve_scale", lambda pts: _bisection_scale(field, pts))
    ref = field.values(xs)
    assert np.abs(got[inside] / ref[inside] - 1.0).max() <= 1e-14


def test_conjugate_field_is_not_clamped(srw2_analysis):
    # R#(x) = |x|^2 for srw:2, so t = |x|^2 leaves [1e-12, 1e12] here
    P = srw2_analysis.points[0].classification.poly
    field = verify._ConjugateField(P)
    xs = np.array([[1e7, 0.0], [1e-7, 0.0]])
    got = field.values(xs)
    assert got == pytest.approx([1e14, 1e-14], rel=1e-12)
    exact, _ = field.ev.conjugate_batch(xs)
    assert got == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("name", ["ex72", "ex74"])
def test_power_near_drifts_matches_full_box(monkeypatch, name):
    # ex72 has four Omega points with drifts (0, +-gamma); ex74 has a
    # non-minimal point.  At n = 512 the drift box aliases the first axis of
    # both, and l1 and linf must equal those of the full box
    from latconv import lattice
    shapes = []
    dense = lattice.power_dense

    def spy(f, n, shape=None):
        out = dense(f, n, shape)
        shapes.append(out[0].shape)
        return out

    f, n = examples.get(name), 512
    ana = latconv.analyze(f)
    full = latconv.power(f, n, method="spectral")
    monkeypatch.setattr(lattice, "power_dense", spy)
    near = verify.power_near_drifts(f, ana, n)
    flo, fhi = f.extent()
    assert len(shapes) == 1 and shapes[0][0] < n * (fhi - flo)[0] + 1
    assert latconv.norm_l1(near) == pytest.approx(latconv.norm_l1(full), rel=1e-12)
    assert latconv.norm_linf(near) == pytest.approx(latconv.norm_linf(full), rel=1e-12)


def test_drift_box_covers_every_omega_point():
    ana = latconv.analyze(examples.ex72())
    lo, hi = verify.drift_box(ana, 100)
    for pa in ana.points:
        centre = 100 * pa.classification.alpha
        assert np.all(lo < centre) and np.all(centre < hi)
    win = verify.default_llt_window(ana, 100)
    assert np.all(lo <= [a for a, _ in win]) and np.all(hi >= [b for _, b in win])
