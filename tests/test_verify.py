import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import latconv
from latconv import examples, verify
from latconv.lattice import LatticeFunction

from conftest import multi_start_conjugate, power_oracle


def test_sup_decay_intro(intro_analysis):
    rep = verify.sup_decay_report(examples.intro(), intro_analysis,
                                  [16, 32, 64, 128, 256])
    assert rep.verdict == "bounded-band"
    scaled = rep.column("scaled")
    assert scaled.max() / scaled.min() < 2.0


def test_sup_decay_powers_the_normalized_function():
    # srw:2 times 0.9 normalizes back to srw:2, whose sups hold the n^-1 band;
    # the scaled walk's own fall by a further 0.9^n.  Where the scale is
    # exactly 1 the rows are those of f's own powers
    f = examples.srw(2)
    ana = latconv.analyze(f.scale(0.9))
    rep = verify.sup_decay_report(f.scale(0.9), ana, [64, 128, 256])
    assert rep.verdict == "bounded-band"
    assert rep.rows == verify.sup_decay_report(ana.function, ana, [64, 128, 256]).rows
    intro = examples.intro()
    ana = latconv.analyze(intro)
    assert ana.scale == 1.0
    assert verify.sup_decay_report(intro, ana, [16, 32]).column("sup").tolist() == [
        latconv.norm_linf(verify.power_near_drifts(intro, ana, n)) for n in (16, 32)]


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


def test_llt_error_ex72_drift_decreases(ex72_analysis):
    # n alpha = (0, -+0.414 n) is never integral: with the attractor grid's
    # shift phase applied twice the scaled errors read 0.865, 0.874, 0.682
    # and 0.948
    rep = verify.llt_error_ladder(examples.ex72(), ex72_analysis, (16, 32, 64, 128))
    assert rep.verdict == "decreasing"
    assert rep.column("scaled")[-1] < 0.05


def test_llt_error_lazy_walk_classical():
    # classical LLT for a 1-d lazy walk; oracle is direct convolution
    lazy = LatticeFunction.from_dict({(0,): 0.5, (1,): 0.25, (-1,): 0.25})
    ana = latconv.analyze(lazy)
    assert ana.mu_phi == Fraction(1, 2)
    e32 = verify.llt_error(lazy, ana, 32)
    e256 = verify.llt_error(lazy, ana, 256)
    assert e256[1] < e32[1] < 0.05


@pytest.mark.parametrize("fixture", ["ex72_analysis", "intro_analysis"])
def test_llt_error_peak_is_the_box_beside_the_approximation(fixture, request, monkeypatch):
    # the error is taken in place of the approximation, so at n = 256 the
    # peak is the torus box beside what _llt_dense allocates alone, or the
    # torus's own transform if that is larger: 23.77 against 4.21 + 19.54
    # MiB on ex72; on intro the torus's 9.95 MiB against 2.14 + 7.02 for the
    # dense phase.  A zeroed window holding the box and |full - approx| took
    # 33.98 and 13.06 with slabs of 2^18 numbers
    import tracemalloc
    ana, n = request.getfixturevalue(fixture), 256
    torus, dense = verify.power_torus, verify._llt_dense
    seen = {}

    def power_torus(f, n, lo, hi):
        seen["torus"] = (f, n, lo, hi)
        seen["box"] = torus(f, n, lo, hi)
        return seen["box"]

    def llt_dense(analysis, n, window):
        seen["window"] = window
        return dense(analysis, n, window)

    monkeypatch.setattr(verify, "power_torus", power_torus)
    monkeypatch.setattr(verify, "_llt_dense", llt_dense)
    peaks = []
    for call in (lambda: verify.llt_error(ana.function, ana, n),
                 lambda: dense(ana, n, seen["window"]),
                 lambda: torus(*seen["torus"])):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= max(peaks[2], seen["box"][0].nbytes + peaks[1]) + 2 ** 18, peaks


def test_llt_error_ex72_is_refused_within_18_mib(ex72_analysis):
    # the torus box, 4.21 MiB, is held while _llt_dense asks for its four
    # windows, 16.82 MiB.  Each layer checked alone, the run went on to a
    # 25.57 MiB peak, its largest request attractor_grid's 17.09 MiB
    import tracemalloc

    from latconv import _config
    from latconv.errors import ResourceLimitError
    cap = 18 * 2 ** 20
    tracemalloc.start()
    try:
        with _config.memory_cap(cap), pytest.raises(ResourceLimitError, match="4.21 MiB held"):
            verify.llt_error(ex72_analysis.function, ex72_analysis, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap, peak


def test_gaussian_bound_srw(srw2_analysis):
    ns = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    rep = verify.gaussian_bound_fit(examples.srw(2), srw2_analysis, ns)
    assert rep.verdict == "fit"
    assert rep.constants["M"] >= 0.05
    assert rep.constants["octave_ratio"] <= 1.5


def test_gaussian_bound_srw3_to_n16_under_the_default_cap():
    # d = 3 evaluates every point of each power by conjugate_batch, one
    # ascent row per point: 3,281 rows at n = 16 must fit the 2 GiB cap
    f = examples.srw(3)
    rep = verify.gaussian_bound_fit(f, latconv.analyze(f), [1, 2, 4, 8, 16])
    assert rep.verdict == "fit"
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


def test_gaussian_bound_unstable_not_applicable():
    f = examples.unstable1d()
    rep = verify.gaussian_bound_fit(f, latconv.analyze(f), [2, 4])
    assert rep.verdict == "not-applicable"
    assert rep.notes == "analysis verdict: not-positive-homogeneous-type"


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


def test_derivative_bound_fit_not_applicable_when_indeterminate():
    # (1 - cos xi)^7 leads: order 14 is past m_max = 12
    f = examples.ex75((7,), (2.0 ** -7,))
    ana = latconv.analyze(f)
    assert ana.verdict == "indeterminate" and len(ana.points) == 1
    rep = verify.derivative_bound_fit(f, ana, [np.array([1])], (1,), [2, 4])
    assert rep.verdict == "not-applicable"


def test_derivative_bound_fit_needs_a_fitted_collection(intro_analysis):
    vectors = [np.array([1, 1]), np.array([1, -1])]
    rep = verify.derivative_bound_fit(examples.intro(), intro_analysis,
                                      vectors, (1, 0), [2, 4])
    assert rep.verdict == "hypothesis-violated"
    assert rep.notes == "collection is not P-fitted"


@pytest.mark.parametrize("beta", [(-1, 0), (0, -2), (1,), (1, 0, 0)])
def test_derivative_bound_fit_rejects_bad_orders(ex75_analysis, beta):
    # a negative order takes no difference, and zip would drop unpaired ones
    vectors = [np.array([1, 0]), np.array([0, 1])]
    with pytest.raises(ValueError, match="order >= 0"):
        verify.derivative_bound_fit(examples.get("ex75:3,2"), ex75_analysis,
                                    vectors, beta, [2, 4])


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


@pytest.mark.parametrize("y", [(0,), (2, -1), (5,), (0, 0, 3)])
def test_walk_profile_point_mass(y):
    # |phi-hat| is 1 everywhere: Omega is reported by its representative 0
    prof = verify.walk_profile(latconv.delta(y))
    assert not prof.genuinely_d_dimensional
    assert prof.mean.tolist() == list(y)
    assert prof.omega_points.tolist() == [[0.0] * len(y)]
    assert prof.omega_phases.tolist() == [0.0]


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


def test_direct_powers_cap_counts_kept_powers():
    # the earlier powers are kept while the sweep runs on: tracemalloc measured
    # 3.53 boxes of the final size here, so a cap of 3.25 boxes must either
    # refuse the run or hold it
    import tracemalloc

    from latconv import _config
    from latconv.errors import ResourceLimitError
    f, ns = examples.intro(), [1, 2, 4, 8, 16, 32, 64, 128, 256]
    lo, hi = f.extent()
    cap = int(3.25 * 16 * np.prod(ns[-1] * (hi - lo) + 1))
    tracemalloc.start()
    try:
        with _config.memory_cap(cap):
            verify.direct_powers(f, ns)
        peak = tracemalloc.get_traced_memory()[1]
    except ResourceLimitError:
        peak = 0
    finally:
        tracemalloc.stop()
    assert peak <= cap


def test_conjugate_batch_cap_counts_the_ascent_rows(monkeypatch):
    # 40,000 points of ex75:3, with a grid-scan check of 260 KiB:
    # the ascent's check counts 12 numbers per row of the batch and 31 per
    # row of one ascent block, 7.54 MiB, and tracemalloc read 5.43 MiB.  A
    # cap just below refuses the batch and that cap holds it; with all
    # 40,000 rows in one block the check counts 13.1 MiB and refuses it
    import tracemalloc

    from latconv import _config, lattice, legendre
    from latconv.errors import ResourceLimitError
    from latconv.legendre import ConjugateEvaluator
    ev = ConjugateEvaluator(latconv.analyze(examples.get("ex75:3")).points[0].classification.poly)
    xs = np.random.default_rng(7).uniform(-6, 6, size=(40_000, 1))
    monkeypatch.setattr(legendre, "_SCAN_BLOCK_CELLS", 2 ** 14)
    batch, ascent = ev._row_numbers()
    budget = 8 * (batch * len(xs) + ascent * lattice._TILE_CELLS)
    for cap, block, refused in ((budget - 2 ** 16, None, True), (budget, None, False),
                                (budget, len(xs), True)):
        if block is not None:
            monkeypatch.setattr(lattice, "_TILE_CELLS", block)
        tracemalloc.start()
        try:
            with _config.memory_cap(cap):
                ev.conjugate_batch(xs)
            peak = tracemalloc.get_traced_memory()[1]
        except ResourceLimitError:
            peak = None
        finally:
            tracemalloc.stop()
        assert (peak is None) == refused
        assert peak is None or peak <= cap


@pytest.mark.parametrize("f, n", [
    (examples.srw(2), 96),
    (LatticeFunction.from_dict({(0, 0): 0.5, (1, 0): 0.125, (-1, 0): 0.125,
                                (0, 1): 0.125, (0, -1): 0.125}), 96)], ids=["srw:2", "lazy"])
def test_support_periodicity_cap_counts_theta(f, n):
    # beside the power, Theta over the support's points: tracemalloc read 2.45
    # final boxes on srw:2 (half the cells) and 3.18 on the lazy walk (all of
    # them), where the sweep alone budgets 1.72.  Each cap must refuse the
    # check or hold it, and the largest must hold it
    import tracemalloc

    from latconv import _config
    from latconv.errors import ResourceLimitError
    prof = verify.walk_profile(f)
    lo, hi = f.extent()
    box = 16 * np.prod(n * (hi - lo) + 1)
    for boxes in (2.0, 4.25):
        tracemalloc.start()
        try:
            with _config.memory_cap(int(boxes * box)):
                assert verify.support_periodicity_check(f, prof, n)
            peak = tracemalloc.get_traced_memory()[1]
        except ResourceLimitError:
            peak = None
        finally:
            tracemalloc.stop()
        assert peak is None or peak <= boxes * box
    assert peak is not None


def _ledger_cases():
    """``{name: make(request, monkeypatch)}``, ``make`` returning the call of
    a public entry point that checks the cap, at small n, with its inputs."""
    from latconv import attractor, lattice, symbol
    from latconv.legendre import ConjugateEvaluator

    def intro(request):
        return request.getfixturevalue("intro_analysis")

    def conjugate_batch(request, monkeypatch):
        ev = ConjugateEvaluator(intro(request).points[0].classification.poly)
        xs = np.random.default_rng(1).uniform(-6, 6, size=(20_000, 2))
        return lambda: ev.conjugate_batch(xs)

    def fit(name, fixture, ns, *args):
        # the fits reduce blocks of 1,024 rows, with the R# table made
        # beforehand, so that the power's checks bound the peak
        def make(request, monkeypatch):
            ana = request.getfixturevalue(fixture)
            if name.endswith("_fit"):
                field = verify._ConjugateField(ana.points[0].classification.poly)
                monkeypatch.setattr(verify, "_ConjugateField", lambda poly: field)
                monkeypatch.setattr(lattice, "_TILE_CELLS", 1024)
            return lambda: getattr(verify, name)(ana.function, ana, *args, ns)
        return make

    def plain(call):
        return lambda request, monkeypatch: call

    def poly(request):
        return intro(request).points[0].classification.poly

    def convolve(g):
        # the larger factor is a power of intro: one shift of a point mass
        # takes temporaries of its size, many shifts of a power small ones
        def make(request, monkeypatch):
            f = verify.direct_powers(examples.intro(), [16])[16]
            h = verify.direct_powers(examples.intro(), [g])[g] if g else latconv.delta((1, 0))
            return lambda: latconv.convolve(f, h)
        return make

    return {
        "power-direct": plain(lambda: latconv.power(examples.intro(), 64, method="direct")),
        "power-spectral": plain(lambda: latconv.power(examples.intro(), 128)),
        "power-direct-srw:3": plain(lambda: latconv.power(examples.get("srw:3"), 32,
                                                          method="direct")),
        "power-spectral-srw:3": plain(lambda: latconv.power(examples.get("srw:3"), 32)),
        "convolve": convolve(8),
        "convolve-shift": convolve(0),
        "llt_approx": lambda request, monkeypatch: lambda: attractor.llt_approx(
            intro(request), 64, [(-60, 60), (-60, 60)]),
        "power_near_drifts": fit("power_near_drifts", "ex71_analysis", 512),
        "llt_error": fit("llt_error", "ex72_analysis", 64),
        "llt_error_ladder": fit("llt_error_ladder", "intro_analysis", [16, 32, 64]),
        "direct_powers": plain(lambda: verify.direct_powers(examples.intro(),
                                                            [1, 2, 4, 8, 16, 32, 64])),
        "gaussian_bound_fit": fit("gaussian_bound_fit", "intro_analysis", [16, 32, 64]),
        "subexp_bound_fit": fit("subexp_bound_fit", "intro_analysis", [16, 32, 64]),
        "derivative_bound_fit": fit("derivative_bound_fit", "ex75_analysis", [8, 16, 32],
                                    list(np.eye(2, dtype=np.int64)), (1, 1)),
        "stability-direct": plain(lambda: verify.stability_report(examples.intro(), 64,
                                                                  method="direct")),
        "stability-spectral": plain(lambda: verify.stability_report(examples.intro(), 128,
                                                                    method="spectral")),
        "sup_decay_report": fit("sup_decay_report", "intro_analysis", [16, 32, 64, 128]),
        "conjugate_batch": conjugate_batch,
        "locate_sup": plain(lambda: symbol.locate_sup(latconv.SymbolView(examples.ex71()))),
        "attractor_grid": lambda request, monkeypatch: lambda: attractor.attractor_grid(
            poly(request), 64, [(-60, 60), (-60, 60)]),
        "attractor_eval": lambda request, monkeypatch: lambda: attractor.attractor_eval(
            poly(request), 16, np.array([[0.0, 0.0], [30.0, -20.0], [80.0, 5.0]])),
        "support_periodicity_check": plain(lambda: verify.support_periodicity_check(
            examples.srw(2), verify.walk_profile(examples.srw(2)), 64)),
    }


@pytest.mark.parametrize("name", sorted(_ledger_cases()))
def test_cap_at_the_ledger_high_water_mark_bounds_the_peak(name, request, monkeypatch):
    # the largest held + request that any check saw at the default cap,
    # rounded up to whole bytes, is the run's high-water mark H.  A cap of H
    # admits the run, and its tracemalloc peak stays within H plus 256 KiB,
    # for what no check counts: the interpreter's own objects, numpy's
    # iterator buffers (8,192 elements an operand), on_grid's per-axis power
    # tables, and a fit's temporaries for one block of rows, which is bounded
    # whatever n is: at most 19 float64 numbers a row, 152 KiB in the
    # 1,024-row blocks used here.  A cap one byte below H refuses the run,
    # and every hold is released either way
    import sys
    import tracemalloc

    from latconv import _config, lattice
    from latconv.errors import ResourceLimitError
    call = _ledger_cases()[name](request, monkeypatch)
    check, seen = lattice._check_box, []

    def spy(shape, complex_arrays=2):
        seen.append(_config._HELD.get() + 16 * complex_arrays * math.prod(int(s) for s in shape))
        return check(shape, complex_arrays)

    for module in [m for key, m in sys.modules.items() if key.startswith("latconv")]:
        if getattr(module, "_check_box", None) is check:
            monkeypatch.setattr(module, "_check_box", spy)
    call()
    high = math.ceil(max(seen))
    assert _config._HELD.get() == 0
    tracemalloc.start()
    try:
        with _config.memory_cap(high):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= high + 2 ** 18, (peak, high)
    with _config.memory_cap(high - 1), pytest.raises(ResourceLimitError):
        call()
    assert _config._HELD.get() == 0


@pytest.mark.parametrize("fixture", ["intro_analysis", "srw2_analysis"])
def test_gaussian_fit_cap_counts_what_a_step_holds(fixture, request, monkeypatch):
    # with the shell table built beforehand, tracemalloc read 9.3 boxes of the
    # final size on intro and 3.3 on srw:2.  A fit that keeps every power
    # budgets 3.9 and 3.4 boxes here and peaks at 11.5 and 3.7, so it fails
    # at a cap of 6 and 3.5 boxes; each cap must refuse the fit or hold it,
    # and the largest must hold it
    import tracemalloc

    from latconv import _config
    from latconv.errors import ResourceLimitError
    ana = request.getfixturevalue(fixture)
    field = verify._ConjugateField(ana.points[0].classification.poly)
    monkeypatch.setattr(verify, "_ConjugateField", lambda poly: field)
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    lo, hi = ana.function.extent()
    box = 16 * np.prod(ns[-1] * (hi - lo) + 1)
    for boxes in (3.5, 6.0, 13.0):
        cap = int(boxes * box)
        tracemalloc.start()
        try:
            with _config.memory_cap(cap):
                verify.gaussian_bound_fit(ana.function, ana, ns)
            peak = tracemalloc.get_traced_memory()[1]
        except ResourceLimitError:
            peak = None
        finally:
            tracemalloc.stop()
        assert peak is None or peak <= cap
    assert peak is not None


@pytest.mark.parametrize("name, ns", [("intro", (16, 32, 64)), ("srw:3", (4, 8, 16))])
def test_fit_step_peak_is_one_block_beside_the_power(name, ns, monkeypatch):
    # blocks of 1,024 rows, and in d = 3 a grid scan of 16^3 points in blocks
    # of 8 rows.  Each fit's tracemalloc peak is within the largest held +
    # request of its checks: the sweep's steps, the extractions beside the
    # sweep's array, and in d = 3 the grid scan beside the power.  Read in
    # boxes of the last power: peaks of 3.18 of 3.55 on intro, and of 3.02
    # of 4.01 (Gaussian) and 1.47 of 1.45 (subexp) on srw:3, where an
    # extraction that counted every cell as kept read 4.05 and 5.27, and the
    # stream's one check with a block per row read 4.19, and 8.95 plus a scan
    # of 2.54.  The subexp peak falls in the last extraction, whose request
    # is exact: the arrays alive there (the sweep's array, the mask, the
    # points, the values, one chunk's flat indices, coordinates and product)
    # take 427,897 of the 429,097 bytes it asks, and the interpreter's
    # objects beside them (about 7 KiB in some 115 allocations: the holds'
    # context managers, the generators' frames, the arrays' headers), which
    # no check counts, put the peak 7,312 bytes over; 16 KiB allows for
    # them.  Its block loop peaks at 0.99 boxes.  Unblocked, the envelope
    # alone holds 9 numbers per point on intro (4.5 boxes) and about 130 on
    # srw:3
    import tracemalloc

    from latconv import _config, lattice, legendre
    monkeypatch.setattr(lattice, "_TILE_CELLS", 1024)
    monkeypatch.setattr(legendre, "_SCAN_AXIS", 16)
    monkeypatch.setattr(legendre, "_SCAN_BLOCK_CELLS", 2 ** 12)
    ana = latconv.analyze(examples.get(name))
    field = verify._ConjugateField(ana.points[0].classification.poly)
    monkeypatch.setattr(verify, "_ConjugateField", lambda poly: field)
    seen = []

    def spy(module):
        check = module._check_box

        def check_box(shape, complex_arrays=2):
            seen.append(_config._HELD.get() + 16 * complex_arrays * math.prod(shape))
            return check(shape, complex_arrays)
        monkeypatch.setattr(module, "_check_box", check_box)

    spy(lattice)
    spy(legendre)
    box = 16 * math.prod(verify.support_lattice(ana.function).box(ns[-1]))
    for fit in (verify.gaussian_bound_fit, verify.subexp_bound_fit):
        seen.clear()
        tracemalloc.start()
        try:
            fit(ana.function, ana, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(seen) + 2 ** 14, (fit.__name__, peak / box, max(seen) / box)


@pytest.mark.parametrize("name, ns", [("ex75:3", (64, 96, 128)), ("ex75:3,2", (4, 6, 8, 12)),
                                      ("srw:3", (1, 2, 3, 4)), ("ex75:2,1,1", (1, 2, 3))])
def test_fits_bit_identical_at_any_block_size(name, ns, monkeypatch):
    # a row's arithmetic does not depend on the rows beside it, so running
    # maxima over blocks and R#'s ascent in blocks give the same bits; the
    # powers and the R# field are made once, at the default block size
    from latconv import lattice
    ana = latconv.analyze(examples.get(name))
    d = ana.function.dim
    powers = verify.direct_powers(ana.function, ns)
    field = verify._ConjugateField(ana.points[0].classification.poly)
    monkeypatch.setattr(verify, "_direct_stream",
                        lambda f, n_values: sorted(powers.items()))
    monkeypatch.setattr(verify, "_ConjugateField", lambda poly: field)
    vectors, beta = list(np.eye(d, dtype=np.int64)), (1,) + (0,) * (d - 1)
    xs = np.random.default_rng(26).uniform(-6, 6, size=(40, d))

    def results():
        fits = [verify.gaussian_bound_fit(ana.function, ana, ns),
                verify.subexp_bound_fit(ana.function, ana, ns),
                verify.derivative_bound_fit(ana.function, ana, vectors, beta, ns)]
        vals, args = field.ev.conjugate_batch(xs)
        return ([(r.rows, r.constants, r.verdict) for r in fits],
                vals.view(np.uint64), args.view(np.uint64))

    want = results()
    assert all(rows for rows, _, _ in want[0][:2]) and (want[0][2][0] or name == "srw:3")
    for block in (1, 7):
        monkeypatch.setattr(lattice, "_TILE_CELLS", block)
        got = results()
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def _reference_envelope_fit(fields, mu_exponent, conj_field, alpha, normalizer=1.0):
    """The envelope fit over every power's points at once, kept as a reference.

    ``fields`` maps n to (points, |values|) arrays of the bounded quantity.
    """
    ns = sorted(fields)
    logs = {}
    for n, (pts, mags) in fields.items():
        keep = mags > 0.0
        pts, mags = pts[keep], mags[keep]
        y = (pts - n * alpha) / n
        r = conj_field.values(y)
        logs[n] = (np.log(mags) + mu_exponent * np.log(n)
                   - np.log(normalizer), n * r)
    n_top = ns[-1]
    oct1 = [n for n in ns if n > n_top / 2]
    oct2 = [n for n in ns if n_top / 4 < n <= n_top / 2]
    best = None
    M = 1.0
    for _ in range(13):
        def s_over(sub):
            vals = [np.max(logs[n][0] + M * logs[n][1]) for n in sub if len(logs[n][0])]
            return max(vals) if vals else -np.inf
        s1, s2 = s_over(oct1), s_over(oct2)
        ratio = float(np.exp(abs(s1 - s2)))
        if np.isfinite(s1) and np.isfinite(s2) and ratio <= 1.5:
            c_all = float(np.exp(max(s_over(ns), s1)))
            best = {"M": M, "C": c_all, "octave_ratio": ratio}
            break
        M *= 0.5
    return best


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis"])
def test_gaussian_fit_matches_reference_bitwise(fixture, request):
    ana = request.getfixturevalue(fixture)
    ns = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    mu = float(ana.mu_phi)
    cls = ana.points[0].classification
    fields, rows = {}, []
    for n, pn in verify.direct_powers(ana.function, ns).items():
        mags = np.abs(pn.values)
        fields[n] = (pn.points.astype(float), mags)
        rows.append((n, float(mags.max()), n ** mu * float(mags.max())))
    ref = _reference_envelope_fit(fields, mu, verify._ConjugateField(cls.poly),
                                  cls.alpha)
    rep = verify.gaussian_bound_fit(ana.function, ana, ns)
    assert ref is not None and rep.constants == ref and rep.rows == rows


def test_derivative_fit_matches_reference_bitwise(ex75_analysis):
    from latconv.homogeneous import p_fitted
    vectors, beta, ns = [np.array([1, 0]), np.array([0, 1])], (1, 0), [4, 8, 16, 32, 64]
    pa = ex75_analysis.points[0]
    poly = pa.classification.poly
    _, weights = p_fitted(poly, vectors)
    exponent = float(poly.mu) + sum(float(Fraction(b, 2 * m))
                                    for b, m in zip(beta, weights))
    fields, rows = {}, []
    for n, pn in verify.direct_powers(ex75_analysis.function, ns).items():
        # the prefactored power as a sorted construction gives it
        pref = verify._prefactor(pn, pa, n)
        phase = np.exp(1j * (pn.points.astype(float) @ pa.xi))
        ref = LatticeFunction(pn.dim, pn.points,
                              pn.values * phase * np.exp(-1j * n * pa.phase))
        assert np.array_equal(pref.points, ref.points)
        assert np.array_equal(pref.values.view(np.uint64), ref.values.view(np.uint64))
        diffed = verify.space_diff_multi(pref, vectors, beta)
        mags = np.abs(diffed.values)
        fields[n] = (diffed.points.astype(float), mags)
        rows.append((n, float(mags.max()), float(mags.max()) * n ** exponent))
    ref = _reference_envelope_fit(fields, exponent, verify._ConjugateField(poly),
                                  pa.classification.alpha)
    rep = verify.derivative_bound_fit(ex75_analysis.function, ex75_analysis,
                                      vectors, beta, ns)
    assert ref is not None and rep.constants == ref and rep.rows == rows


def test_subexp_fit_matches_reference_bitwise(ex72_analysis):
    ns, N = [4, 8, 16, 32, 64], 4
    powers = verify.direct_powers(ex72_analysis.function, ns)
    rows = []
    for n in ns:
        pts = powers[n].points.astype(float)
        mags = np.abs(powers[n].values)
        env = np.zeros_like(mags)
        for pa in ex72_analysis.points:
            cls = pa.classification
            # n^-E* = A^-T diag(n^-lam) A^T with lam_j = 1/(2 m_j)
            lam = np.array([1.0 / (2 * m) for m in cls.poly.weights])
            y = (((pts - n * cls.alpha) @ cls.poly.basis) * float(n) ** -lam) @ cls.poly.basis_inv
            env += n ** (-float(cls.poly.mu)) * (1.0 + np.linalg.norm(y, axis=1)) ** (-float(N))
        rows.append((n, float(np.max(mags / env))))
    ratio = (max(c for n, c in rows if n > ns[-1] / 2)
             / max(c for n, c in rows if ns[-1] / 4 < n <= ns[-1] / 2))
    rep = verify.subexp_bound_fit(ex72_analysis.function, ex72_analysis, ns, N=N)
    assert rep.rows == rows
    assert rep.constants == {"C_N": max(c for _, c in rows), "N": N,
                             "octave_ratio": ratio}


@pytest.mark.parametrize("name, n_max", [("srw:2", 64), ("ex73", 128),
                                         ("unstable1d", 512)])
def test_direct_stability_matches_kept_powers_bitwise(name, n_max, monkeypatch):
    # the report again, on every power kept at once
    f = examples.get(name)
    rep = verify.stability_report(f, n_max, method="direct")
    powers = verify.direct_powers(f, verify._dyadic_ns(n_max))
    monkeypatch.setattr(verify, "_direct_stream",
                        lambda f, ns: sorted(powers.items()))
    ref = verify.stability_report(f, n_max, method="direct")
    assert (rep.rows, rep.constants, rep.verdict) == (ref.rows, ref.constants, ref.verdict)


@pytest.fixture(scope="module")
def field_of(request):
    """One _ConjugateField per example fixture, shared by the table tests."""
    fields = {}

    def get(fixture):
        if fixture not in fields:
            P = request.getfixturevalue(fixture).points[0].classification.poly
            fields[fixture] = verify._ConjugateField(P)
        return fields[fixture]
    return get


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis", "ex71_analysis",
                                     "ex73_analysis", "ex75_analysis"])
def test_conjugate_field_interpolation_error(fixture, field_of):
    # halfway between table angles, where linear interpolation is furthest
    # from its nodes, on the unit circle and on the E-adapted sphere
    # (measured 5.6e-16 to 3.6e-6)
    field = field_of(fixture)
    th = np.linspace(-np.pi, np.pi, field.n_angles, endpoint=False) + np.pi / field.n_angles
    for mid in (np.stack([np.cos(th), np.sin(th)], axis=-1), field.sphere(th)):
        exact, _ = field.ev.conjugate_batch(mid)
        assert np.max(np.abs(field.values(mid) / exact - 1.0)) <= 1e-4


@pytest.mark.parametrize("fixture", ["srw2_analysis", "intro_analysis", "ex71_analysis",
                                     "ex73_analysis", "ex75_analysis"])
def test_conjugate_field_table_nodes_match_multi_start(fixture, field_of):
    # every 8th node against the best of a further 64 starts per node
    # (measured at most 7.4e-14 low)
    field = field_of(fixture)
    th = np.linspace(-np.pi, np.pi, field.n_angles, endpoint=False)[::8]
    exact = multi_start_conjugate(field.ev, field.sphere(th))
    assert np.max(np.abs(field.table[:-1:8] / exact - 1.0)) <= 1e-12


def test_conjugate_field_and_subexp_fit_on_non_orthogonal_basis():
    from types import SimpleNamespace

    from scipy.linalg import expm

    from latconv.homogeneous import HomogeneousPolynomial

    # E is not symmetric here; the coordinates come from (A, m) all the same
    P = HomogeneousPolynomial(2, {(2, 0): 1, (0, 4): 1}, [[1, 0.5], [0, 1]], (1, 2))
    field = verify._ConjugateField(P)
    xs = np.random.default_rng(8).uniform(-6, 6, size=(40, 2))
    exact, _ = field.ev.conjugate_batch(xs)
    assert np.max(np.abs(field.values(xs) / exact - 1.0)) <= 1e-4
    point = SimpleNamespace(classification=SimpleNamespace(poly=P, alpha=np.zeros(2)))
    analysis = SimpleNamespace(mu_phi=P.mu, points=[point], function=examples.srw(2))
    rep = verify.subexp_bound_fit(analysis.function, analysis, [1, 2])
    # n^-E* by the matrix exponential
    for n, c_n in rep.rows:
        pn = verify.direct_powers(analysis.function, [n])[n]
        r = np.linalg.norm(pn.points @ expm(-np.log(n) * P.E.T).T, axis=1)
        env = n ** -float(P.mu) * (1.0 + r) ** -4.0
        assert c_n == pytest.approx(np.max(np.abs(pn.values) / env), rel=1e-12)


@pytest.mark.parametrize("fixture", ["intro_analysis", "srw2_analysis"])
def test_conjugate_field_polar_coordinates_over_sixteen_decades(fixture, field_of):
    # intro has a non-scalar F = diag(3/4, 1/2); srw:2 has F = I/2
    field = field_of(fixture)
    rng = np.random.default_rng(5)
    dirs = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((12, 2))])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    norms = np.repeat(np.geomspace(1e-8, 1e8, 33), len(dirs))
    xs = norms[:, None] * np.tile(dirs, (33, 1))
    P = field.P
    t, u = P.polar(xs)
    l = 1.0 - 1.0 / (2.0 * np.array(P.weights))  # F's eigenvalues
    assert np.abs((np.abs(u @ P.basis) ** (1.0 / l)).sum(axis=1) - 1.0).max() <= 1e-14
    c = P.adapted(xs)
    assert np.abs(field.sphere(np.arctan2(c[:, 1], c[:, 0])) - u).max() <= 1e-14
    # each whole decade against conjugate_batch, which returns the
    # objective at the ascent's end point, a lower bound of R#:
    # homogeneous to 1e-10 against its values on the unit sphere (solving at
    # the raw x read intro up to 2% low at |x| = 1e-8), and within the
    # table's interpolation error of the field
    decade = np.repeat(np.arange(33) % 2 == 0, len(dirs))
    xs, t, u = xs[decade], t[decade], u[decade]
    exact, _ = field.ev.conjugate_batch(xs)
    unit, _ = field.ev.conjugate_batch(u)
    assert np.abs(exact / (t * unit) - 1.0).max() <= 1e-10
    rel = field.values(xs) / exact - 1.0
    assert np.abs(rel).max() <= (1e-12 if fixture == "srw2_analysis" else 1e-4)


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


# the ladders of stability_report's spectral path, sup_decay_report and
# llt_error_ladder that the corpus and the benchmark run: (kind, name, n)
_LADDERS = ([("stability", name, 64 if name == "srw:3" else 512)
             for name in ("intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2", "srw:2",
                          "srw:3", "phim:2,1", "phim:2,3", "unstable1d")]
            + [("sup_decay", name, (64, 128, 256, 512))
               for name in ("intro", "ex73", "ex74", "phim:2,3")]
            + [("llt", "intro", (32, 64, 128, 256)), ("llt", "ex71", (32, 64, 128)),
               ("llt", "ex75:3,2", (32, 64, 128)), ("llt", "ex73", (32, 64)),
               ("llt", "ex72", (16, 32, 64, 128, 256)),
               ("llt", "ex74", (16, 32, 64, 128, 256))])
_LADDER_IDS = [f"{kind}-{name}" for kind, name, _ in _LADDERS]


def _ladder_report(kind, name, n):
    f = examples.get(name)
    if kind == "stability":
        return verify.stability_report(f, n, method="spectral")
    ana = latconv.analyze(f)
    if kind == "sup_decay":
        return verify.sup_decay_report(f, ana, n)
    return verify.llt_error_ladder(f, ana, n)


def _drift_box_ladder(f, analysis, n_values):
    """The per-n reference of :func:`verify._certified_ladder`: a torus on
    drift_box, or the full box, at every n."""
    for n in sorted(n_values):
        box = (verify.drift_box(analysis, n) if analysis.mu_phi is not None
               else [n * e for e in f.extent()])
        yield (n, *verify.power_torus(f, n, *box))


def _count_transforms(monkeypatch):
    from collections import Counter
    from latconv import lattice
    per_n = Counter()
    dense = lattice.power_dense

    def spy(f, n, shape=None):
        per_n[n] += 1
        return dense(f, n, shape)

    monkeypatch.setattr(lattice, "power_dense", spy)
    return per_n


@pytest.mark.parametrize("kind,name,n", _LADDERS, ids=_LADDER_IDS)
def test_ladder_rungs_after_the_first_certify_at_the_first_transform(kind, name, n,
                                                                     monkeypatch):
    per_n = _count_transforms(monkeypatch)
    _ladder_report(kind, name, n)
    assert all(per_n[m] == 1 for m in sorted(per_n)[1:]), dict(per_n)
    if (kind, name) == ("stability", "phim:2,3"):
        # drift_box ignores P's coefficients and doubles phim:2,3 from n = 64
        # on, single-n; the ladder sizes its later rungs from the rung before
        assert sum(per_n.values()) == len(per_n), dict(per_n)
        per_n.clear()
        f = examples.get(name)
        ana = latconv.analyze(f)
        for m in (64, 128, 256, 512):
            verify.power_near_drifts(f, ana, m)
        assert sum(per_n.values()) - len(per_n) == 4, dict(per_n)


@pytest.mark.parametrize("kind,name,n", _LADDERS, ids=_LADDER_IDS)
def test_ladder_agrees_with_the_drift_box_path(kind, name, n, monkeypatch):
    # only the tori change, so every row is the drift_box path's within
    # roundoff.  The LLT error is a difference of two quantities of size
    # max|phi^(n)|, so its roundoff is bounded by the torus's own noise,
    # the alias threshold: intro's at n = 256 moves by 1.3e-16, 1.4e-12 of
    # the error and 0.15 of that threshold
    from latconv.lattice import _alias_threshold
    got = _ladder_report(kind, name, n)
    sups = {}

    def ladder(f, analysis, n_values):
        for m, arr, lo in _drift_box_ladder(f, analysis, n_values):
            sups[m] = float(np.abs(arr).max())
            yield m, arr, lo

    monkeypatch.setattr(verify, "_certified_ladder", ladder)
    want = _ladder_report(kind, name, n)
    assert got.verdict == want.verdict
    assert [r[0] for r in got.rows] == [r[0] for r in want.rows]
    for g, w in zip(got.rows, want.rows):
        for a, b in zip(g[1:], w[1:]):
            tol = 1e-12 * abs(b)
            if kind == "llt":
                # b / w[1] is 1 for the error and n^mu for the scaled error
                tol = max(tol, _alias_threshold(g[0], sups[g[0]]) * b / w[1])
            assert abs(a - b) <= tol, (g, w)


@pytest.mark.parametrize("name,n", [("intro", 512), ("ex73", 128), ("phim:2,3", 64),
                                    ("ex72", 256), ("unstable1d", 64)])
def test_kept_extent_is_that_of_the_kept_points(name, n):
    from latconv.lattice import _sparse_above_floor
    f = examples.get(name)
    ana = latconv.analyze(f)
    [(_, arr, lo)] = _drift_box_ladder(f, ana, [n])
    first, last = verify._kept_extent(arr, lo, n)
    kept = _sparse_above_floor(f.dim, arr, lo, n)
    assert first.tolist() == kept.points.min(axis=0).tolist()
    assert last.tolist() == kept.points.max(axis=0).tolist()


# tracemalloc peaks (MiB) of the ladder, and after them those of the
# drift_box path at every n: each bound leaves 1.6-2.0 MiB of slack above the ladder's
# peak and lies 3.5 MiB or more below the drift_box path's
@pytest.mark.parametrize("kind,name,n,mib", [
    ("stability", "intro", 512, 8.5),                  # 6.89 (+1.61), 19.23
    ("sup_decay", "intro", (64, 128, 256, 512), 8.5),  # 6.66 (+1.84), 18.76
    ("llt", "intro", (32, 64, 128, 256), 7.0),         # 5.37 (+1.63), 10.91
    ("stability", "ex73", 512, 9.0),                   # 7.03 (+1.97), 12.56
], ids=["stability-intro", "sup_decay-intro", "llt-intro", "stability-ex73"])
def test_ladder_peak_memory(kind, name, n, mib):
    import tracemalloc
    _ladder_report(kind, name, n)
    tracemalloc.start()
    try:
        _ladder_report(kind, name, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("name", ["intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2",
                                  "ex75:2,3", "srw:2", "srw:3", "phim:2,1", "phim:2,3",
                                  "phim:1,2", "unstable1d"])
def test_direct_work_estimate_equals_the_loop(name):
    # every term and partial sum is an integer below 2^53, so the vectorized
    # sum is exact and stability_report's auto picks the same path
    f = examples.get(name)
    lo, hi = f.extent()
    for n_max in (64, 512):
        loop = 0.0
        for n in range(1, n_max + 1):
            loop += len(f) * float(np.prod(n * (hi - lo).astype(float) + 1.0))
        assert verify._direct_work_estimate(f, n_max) == loop, (name, n_max)
