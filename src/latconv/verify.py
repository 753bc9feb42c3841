"""Verification suites: decay, local-limit error, pointwise bounds, stability,
discrete differences, and random-walk specializations.

The theorems assert existential constants; each suite fits the constant on a
dyadic ladder of n and reports whether the fit is stable across scale octaves.
That is the strongest falsifiable desk-scale reading of an asymptotic bound.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _config
from .attractor import _llt_dense
from .errors import DimensionMismatchError
from .expansion import analyze
from .lattice import (ZERO_DROP, LatticeFunction, _blocks, _cell_points, _check_box,
                      _direct_stream, _fft_noise_floor, _nbytes, _sparse_above_floor,
                      convolve, norm_l1, norm_linf, power, power_torus,
                      support_lattice, sweep, translate)
from .legendre import ConjugateEvaluator


@dataclass
class BoundReport:
    """Per-n rows plus fitted constants and a verdict flag."""

    kind: str
    columns: tuple
    rows: list
    constants: dict = field(default_factory=dict)
    verdict: str = ""
    notes: str = ""

    def column(self, name):
        j = self.columns.index(name)
        return np.array([r[j] for r in self.rows])

    @property
    def passed(self):
        return self.verdict in ("bounded-band", "stable", "fit")


@dataclass
class WalkProfile:
    mean: np.ndarray
    covariance: np.ndarray
    genuinely_d_dimensional: bool
    omega_points: np.ndarray
    omega_phases: np.ndarray


def _dyadic_ns(n_max):
    """The powers of two up to n_max, and n_max."""
    return sorted({2 ** k for k in range(int(n_max).bit_length())} | {n_max})


def direct_powers(f, n_values):
    """{n: phi^(n)} from :func:`~latconv.lattice._direct_stream`, every power
    kept (oracle of record) and held while the sweep goes on."""
    powers = {}
    with contextlib.ExitStack() as kept:
        for n, p in _direct_stream(f, n_values):
            powers[n] = p
            kept.enter_context(_config.holding(_nbytes(p)))
    return powers


def sup_decay_report(f, analysis, n_values):
    """Rows (n, ||phi^(n)||_inf, n^mu ||phi^(n)||_inf); band verdict on top octave.

    Each power is of ``analysis.function``, the normalized f, as in the
    bound fits, and comes from :func:`_certified_ladder`: certified tori
    about the drifts for a positive-homogeneous analysis, the full box otherwise.
    """
    sups = [(n, float(np.abs(arr).max()))
            for n, arr, _ in _certified_ladder(analysis.function, analysis, n_values)]
    if analysis.mu_phi is None:
        return BoundReport(kind="sup-decay", columns=("n", "sup", "scaled"),
                           rows=[(n, sup, float("nan")) for n, sup in sups],
                           verdict="not-applicable",
                           notes=f"analysis verdict: {analysis.verdict}")
    mu = float(analysis.mu_phi)
    rows = [(n, sup, n ** mu * sup) for n, sup in sups]
    n_top = rows[-1][0]
    octave = [r[2] for r in rows if r[0] >= n_top / 2]
    ratio = max(octave) / min(octave)
    verdict = "bounded-band" if ratio <= 2.0 else "band-violation"
    return BoundReport(kind="sup-decay", columns=("n", "sup", "scaled"),
                       rows=rows, constants={"band_ratio": ratio},
                       verdict=verdict)


def _lambda_max(points):
    """max 1/(2m) over the points' weights: the fastest growth rate of t^E*."""
    return max(1.0 / (2 * m) for pa in points for m in pa.classification.poly.weights)


def _window_half(analysis, points, n):
    """6 n^(lambda_max) sqrt(d), lambda_max from :func:`_lambda_max`."""
    return 6.0 * n ** _lambda_max(points) * np.sqrt(analysis.function.dim)


def _covering_box(centers, half):
    lo = np.floor(np.min(centers, axis=0) - half).astype(np.int64)
    hi = np.ceil(np.max(centers, axis=0) + half).astype(np.int64)
    return lo, hi


def default_llt_window(analysis, n):
    """Covering box for |rotated(x - n alpha)| <= 6 n^(lambda_max) per axis."""
    points = analysis.minimal_points()
    lo, hi = _covering_box([n * pa.classification.alpha for pa in points],
                           _window_half(analysis, points, n))
    return [(int(a), int(b)) for a, b in zip(lo, hi)]


def drift_box(analysis, n):
    """``(lo, hi)`` covering ``n alpha_q`` plus a margin for every Omega point q.

    The margin is :func:`default_llt_window`'s half-width taken over all the
    points, times ``max(1, m_max - 1)`` for their largest weight ``m_max``.
    Along a weight-m axis the decay bound's tail exp(-c |y|^(2m/(2m-1)))
    flattens as m grows, so phi^(n) reaches further past that window: on the
    corpus, the entries above the alias threshold reach at most 0.85 of the
    half-width when every weight is 1 or 2, and 1.91 of it with a weight of
    3 (ex71).  The margin ignores P's coefficients, so it is too wide on most
    inputs and too narrow on some: phim:2,1 doubles from n = 128 on and
    phim:2,3 from n = 64.  Single-n paths take this box; a ladder of n
    takes it for its first rung only (:func:`_certified_ladder`).
    """
    points = analysis.points
    m_max = max(m for pa in points for m in pa.classification.poly.weights)
    return _covering_box([n * pa.classification.alpha for pa in points],
                         max(1, m_max - 1) * _window_half(analysis, points, n))


# a ladder rung's box widens the drift hull on each side by the previous
# rung's reach beyond its hull, scaled by homogeneity, times this factor and
# plus these cells.  Without the factor, ex71, ex74 and phim:2,3 double in
# their stability ladders to 512; without the cells, no corpus ladder does
_LADDER_MARGIN = 1.1
_LADDER_CELLS = 2


def _kept_extent(arr, lo, n):
    """The first and last lattice coordinate per axis of the entries of
    ``arr`` (at ``lo + i``) that :func:`~latconv.lattice._sparse_above_floor`
    keeps."""
    _check_box(arr.shape, complex_arrays=9 / 16)  # magnitudes and mask beside arr
    mag = np.abs(arr)
    keep = mag > _fft_noise_floor(n, float(mag.max()))
    del mag
    first, last = np.empty_like(lo), np.empty_like(lo)
    for k in range(arr.ndim):
        cells = np.flatnonzero(keep.any(axis=tuple(j for j in range(arr.ndim) if j != k)))
        first[k], last[k] = lo[k] + cells[0], lo[k] + cells[-1]
    return first, last


def _certified_ladder(f, analysis, n_values):
    """Yield ``(n, arr, lo)``, phi^(n) on a certified box from
    :func:`~latconv.lattice.power_torus`, for the sorted ``n_values``;
    ``analysis`` is that of f, and ``arr`` may be consumed.

    By homogeneity, ``H_P^t(x) = t^-mu H_P^1(t^-E* x)``, the region where
    phi^(n) stands above noise grows about the drifts by at most
    ``(n / n_prev)^lambda_max`` per axis from one n to the next.  The first
    rung takes :func:`drift_box`.  Each later rung widens the hull of the
    drifts ``n alpha_q`` on each side by the previous rung's reach beyond
    its own hull (its entries above the extraction floor), scaled by that
    factor and :data:`_LADDER_MARGIN`, plus :data:`_LADDER_CELLS`; the box
    is not clipped to the drift box.  ``power_torus``'s acceptance test and
    doubling stay the certificate.  A non-positive-homogeneous f takes the
    full box at every rung.  Each box is held until the next replaces it.
    """
    points = analysis.points
    prev, arr = None, np.empty(0)
    ns = sorted(n_values)
    for n in ns:
        if analysis.mu_phi is None:
            lo, hi = (n * e for e in f.extent())
        else:
            hull_lo, hull_hi = _covering_box([n * pa.classification.alpha for pa in points], 0.0)
            if prev is None:
                lo, hi = drift_box(analysis, n)
            else:
                n_prev, below, above = prev
                scale = _LADDER_MARGIN * (n / n_prev) ** _lambda_max(points)
                lo = hull_lo - np.ceil(scale * below).astype(np.int64) - _LADDER_CELLS
                hi = hull_hi + np.ceil(scale * above).astype(np.int64) + _LADDER_CELLS
        with _config.holding(arr.nbytes):
            arr, lo = power_torus(f, n, lo, hi)
            if analysis.mu_phi is not None and n < ns[-1]:
                with _config.holding(arr.nbytes):
                    first, last = _kept_extent(arr, lo, n)
                prev = n, np.maximum(hull_lo - first, 0), np.maximum(last - hull_hi, 0)
        with _config.holding(arr.nbytes):
            yield n, arr, lo


def power_near_drifts(f, analysis, n, window=None):
    """phi^(n) above the transform-noise floor, near its drifts.

    ``analysis`` is that of f.  This is :func:`~latconv.lattice.power_torus`
    on :func:`drift_box` when f is of positive homogeneous type, and on the
    full ``n * span + 1`` box otherwise, united with ``window`` (per-axis
    ``(a, b)`` ranges) if one is given, so only the certified box is
    transformed.
    """
    if analysis.mu_phi is None:
        lo, hi = (n * e for e in f.extent())
    else:
        lo, hi = drift_box(analysis, n)
    if window is not None:
        lo = np.minimum(lo, [a for a, _ in window])
        hi = np.maximum(hi, [b for _, b in window])
    arr, lo = power_torus(f, n, lo, hi)
    with _config.holding(arr.nbytes):
        return _sparse_above_floor(f.dim, arr, lo, n)


def llt_error(f, analysis, n, window=None):
    """(sup error, n^mu * sup error) over the drift box united with the window.

    phi^(n) comes from :func:`~latconv.lattice.power_torus` on
    :func:`drift_box`, the first rung of :func:`_certified_ladder`; outside
    that box it is certified to be at noise level.
    """
    [(_, err, scaled)] = llt_error_ladder(f, analysis, [n], window).rows
    return err, scaled


def llt_error_ladder(f, analysis, n_values, window=None):
    """:func:`llt_error`'s rows per n, with the powers from :func:`_certified_ladder`."""
    if analysis.mu_phi is None:
        raise ValueError(f"analysis verdict is {analysis.verdict}")
    rows = []
    for n, arr, lo in _certified_ladder(analysis.function, analysis, n_values):
        win = default_llt_window(analysis, n) if window is None else window
        box_lo = np.minimum(lo, np.array([w[0] for w in win], dtype=np.int64))
        box_hi = np.maximum(lo + np.array(arr.shape) - 1,
                            np.array([w[1] for w in win], dtype=np.int64))
        # the error in place of the approximation: |a - b| = |b - a| bit for bit
        diff = _llt_dense(analysis, n, list(zip(box_lo, box_hi)))
        diff[tuple(slice(int(l - bl), int(l - bl) + s)
                   for l, bl, s in zip(lo, box_lo, arr.shape))] -= arr
        err = float(np.abs(diff).max())
        rows.append((n, err, n ** float(analysis.mu_phi) * err))
        # freed before the next rung's torus is made
        del diff
    verdict = "decreasing" if all(rows[i + 1][2] < rows[i][2]
                                  for i in range(len(rows) - 1)) else "non-monotone"
    return BoundReport(kind="llt-error", columns=("n", "sup_error", "scaled"),
                       rows=rows, verdict=verdict)


# -- conjugate evaluation on the E-adapted unit sphere (vectorized) ---------

class _ConjugateField:
    """Vectorized R#((x - n a)/n) evaluation via homogeneity.

    R# scales as t R#(x) = R#(t^F x) with F = (I - E)^T.  In the E-adapted
    coordinates c of x (``HomogeneousPolynomial.adapted``, from (A, m) for
    any basis), x = t^F u for t = |c|^2 and u at the angle atan2(c_2, c_1)
    on the E-adapted unit sphere.  R# is tabulated at 2 (d = 1) or 4,096
    (d = 2) equally spaced angles and interpolated linearly: at mid-angles
    and at 2,000 random x with |x| in [0.05, 20] the relative error was
    6.7e-16 on srw:2, 3.6e-6 on intro, 7.1e-8 on ex71, 2.0e-7 on ex73,
    1.4e-8 on ex75:3,2 and 8.2e-9 on ex74 (a test pins 1e-4).  d >= 3 has no
    table and evaluates the points of a call, one fit block, in one
    ``conjugate_batch``, whose scan keeps 1.4-3.2% of its 64^3 grid: the
    Gaussian fit to n = 64 took 2.9 s on srw:3, 11.1 s on ex75:2,1,1 (2 cores).
    """

    def __init__(self, poly):
        self.P, self.dim = poly, poly.dim
        self.ev = ConjugateEvaluator(poly)
        self.table = None
        if self.dim <= 2:
            self.n_angles = 4096 if self.dim == 2 else 2
            th = np.linspace(-np.pi, np.pi, self.n_angles, endpoint=False)
            table, _ = self.ev.conjugate_batch(self.sphere(th))
            self.angles = np.append(th, np.pi)
            self.table = np.append(table, table[0])

    def sphere(self, th):
        """The points of angle ``th`` on the E-adapted unit sphere."""
        trig = np.stack([np.cos(th), np.sin(th)], axis=-1)[:, :self.dim]
        return self.P.unadapted(trig)

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.table is None:
            return self.ev.conjugate_batch(xs)[0]
        c = self.P.adapted(xs)
        th = np.arctan2(c[:, 1] if self.dim == 2 else 0.0, c[:, 0])
        return np.einsum("kd,kd->k", c, c) * np.interp(th, self.angles, self.table)


# the halving grid of the envelope fits' M: 1, 1/2, ..., 2^-12
_M_GRID = tuple(0.5 ** k for k in range(13))


def _envelope_peaks(points, values, n, exponent, conj_field, alpha, normalizer=1.0):
    """``(max |v|, peaks)`` for the values v at ``points``, with the peaks
    max_x(log|v(x)| + exponent log n - log normalizer + M n R#((x - n alpha)/n))
    for each M on :data:`_M_GRID` (0 and -inf when there are no points).

    Both are running maxima over blocks of rows, so they do not depend on
    the block size."""
    sup, peaks = 0.0, np.full(len(_M_GRID), -np.inf)
    for block in _blocks(len(values)):
        mags = np.abs(values[block])
        sup = max(sup, float(mags.max()))
        r = n * conj_field.values((points[block] - n * alpha) / n)
        logs = np.log(mags) + exponent * np.log(n) - np.log(normalizer)
        np.maximum(peaks, [np.max(logs + M * r) for M in _M_GRID], out=peaks)
    return sup, peaks


def _envelope_fit(peaks):
    """Largest M on the halving grid with octave-stable C(M); see gaussian fit.

    ``peaks`` maps n to the :func:`_envelope_peaks` of the bounded quantity.
    """
    ns = sorted(peaks)
    n_top = ns[-1]
    oct1 = [n for n in ns if n > n_top / 2]
    oct2 = [n for n in ns if n_top / 4 < n <= n_top / 2]
    for k, M in enumerate(_M_GRID):
        s1, s2, s_all = (max((peaks[n][k] for n in sub), default=-np.inf)
                         for sub in (oct1, oct2, ns))
        ratio = float(np.exp(abs(s1 - s2)))
        if np.isfinite(s1) and np.isfinite(s2) and ratio <= 1.5:
            return {"M": M, "C": float(np.exp(s_all)), "octave_ratio": ratio}
    return None


def gaussian_bound_fit(f, analysis, n_values):
    """Fit (C, M) in |phi^(n)(x)| <= C n^-mu exp(-n M R#((x - n alpha)/n)).

    Requires every Omega point to share one drift and one polynomial; distinct
    drifts or polynomials get a hypothesis-violated report directing to
    :func:`subexp_bound_fit`.  Each power is reduced one block of its points
    at a time (:func:`_envelope_peaks`).
    """
    if analysis.mu_phi is None:
        return BoundReport(kind="gaussian-bound", columns=(), rows=[],
                           verdict="not-applicable",
                           notes=f"analysis verdict: {analysis.verdict}")
    pas = analysis.points
    alpha0 = pas[0].classification.alpha
    poly0 = pas[0].classification.poly
    for pa in pas[1:]:
        cls = pa.classification
        if (np.max(np.abs(cls.alpha - alpha0)) > 1e-8
                or _poly_differs(cls.poly, poly0)):
            return BoundReport(
                kind="gaussian-bound", columns=(), rows=[],
                verdict="hypothesis-violated",
                notes="Omega points carry distinct drifts or polynomials; "
                      "use subexp_bound_fit")
    mu = float(analysis.mu_phi)
    conj_field = _ConjugateField(poly0)
    rows, peaks = [], {}
    # the exact direct path carries true zeros outside the reachable support;
    # transform noise there would otherwise dominate the envelope max
    for n, pn in _direct_stream(analysis.function, n_values):
        with _config.holding(_nbytes(pn)):
            sup, peaks[n] = _envelope_peaks(pn.points, pn.values, n, mu, conj_field, alpha0)
        rows.append((n, sup, n ** mu * sup))
        del pn
    fit = _envelope_fit(peaks)
    return BoundReport(kind="gaussian-bound", columns=("n", "sup", "scaled"),
                       rows=rows, constants=fit or {},
                       verdict="fit" if fit else "no-stable-fit")


def _poly_differs(p1, p2, tol=1e-8):
    keys = set(p1.coeffs) | set(p2.coeffs)
    return any(abs(p1.coeffs.get(k, 0.0) - p2.coeffs.get(k, 0.0)) > tol
               for k in keys)


def subexp_bound_fit(f, analysis, n_values, N=4):
    """Fit C_N in |phi^(n)(x)| <= C_N sum_q n^-mu_q (1 + |n^-Eq*(x - n a_q)|)^-N,
    reducing each power one block of its points at a time."""
    if analysis.mu_phi is None:
        return BoundReport(kind="subexp-bound", columns=(), rows=[],
                           verdict="not-applicable",
                           notes=f"analysis verdict: {analysis.verdict}")
    rows = []
    for n, pn in _direct_stream(analysis.function, n_values):
        c_n = 0.0
        with _config.holding(_nbytes(pn)):
            for block in _blocks(len(pn)):
                pts = pn.points[block].astype(float)
                mags = np.abs(pn.values[block])
                env = np.zeros_like(mags)
                for pa in analysis.points:
                    poly, a_q = pa.classification.poly, pa.classification.alpha
                    # n^-Eq* = A^-T diag(n^-lam) A^T, row by row
                    y = ((pts - n * a_q) @ poly.basis) * float(n) ** -poly.lam
                    r = np.linalg.norm(y @ poly.basis_inv, axis=1)
                    env += n ** -float(poly.mu) * (1.0 + r) ** (-float(N))
                c_n = max(c_n, float(np.max(mags / env)))
        rows.append((n, c_n))
        del pn, pts, mags, env, y, r  # the last block's arrays too
    n_top = rows[-1][0]
    oct1 = max(c for n, c in rows if n > n_top / 2)
    oct2_vals = [c for n, c in rows if n_top / 4 < n <= n_top / 2]
    ratio = oct1 / max(oct2_vals) if oct2_vals else float("nan")
    stable = np.isfinite(ratio) and max(ratio, 1.0 / ratio) <= 1.5
    return BoundReport(kind="subexp-bound", columns=("n", "C_N"), rows=rows,
                       constants={"C_N": max(c for _, c in rows), "N": N,
                                  "octave_ratio": ratio},
                       verdict="fit" if stable else "no-stable-fit")


def _direct_work_estimate(f, n_max):
    """Products of the sweeps to phi^(n_max): len(f) times the bounding box
    of phi^(n), summed over n.  Each term and partial sum is an integer, so
    the sum is exact while it stays below 2^53."""
    lo, hi = f.extent()
    n = np.arange(1, n_max + 1, dtype=float)[:, None]
    return float((len(f) * np.prod(n * (hi - lo) + 1.0, axis=1)).sum())


def stability_report(f, n_max, method="auto"):
    """l^1 ladder over dyadic n plus endpoints; Thm-style plateau verdict.

    Stable when the top-half maximum exceeds the bottom-half maximum by at
    most 2 percent; unstable when the final l^1 at n_max is at least twice
    the value at n_max / 32.  ``method`` picks the power path: the exact
    direct sweep (mass conservation holds to the last bit) or per-n spectral
    powers; ``auto`` uses direct when the sweep is cheap.  Its work estimate
    counts the bounding box of Z^d, not the sweep's smaller box on the
    support's lattice, so ``auto`` takes the same path as when the sweep
    ran on the bounding box, and no verdict changes path.  The spectral path
    analyzes f and takes :func:`_certified_ladder`'s powers above the
    extraction floor: certified tori about the drifts when f is of positive
    homogeneous type, the full box otherwise.
    """
    n_values = _dyadic_ns(n_max)
    if method == "auto":
        method = "direct" if _direct_work_estimate(f, n_max) <= 3e8 else "spectral"
    if method == "direct":
        powers = _direct_stream(f, n_values)
    elif method not in ("fast", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    else:
        powers = ((n, _sparse_above_floor(f.dim, arr, lo, n))
                  for n, arr, lo in _certified_ladder(f, analyze(f), n_values))
    rows = []
    for n, p in powers:
        with _config.holding(_nbytes(p)):
            _check_box((len(p),), complex_arrays=0.5)  # the magnitudes each norm takes
        rows.append((n, norm_l1(p), norm_linf(p)))
        del p  # freed before the next power is made
    l1 = {n: r for n, r, _ in rows}
    top = max(v for n, v in l1.items() if n > n_max / 2)
    bottom = max(v for n, v in l1.items() if n <= n_max / 2)
    ref = min((n for n in l1 if n >= max(1, n_max / 32)), key=lambda n: n)
    growth = l1[n_max] / l1[ref]
    if l1[n_max] >= 2.0 * l1[ref]:
        verdict = "unstable"
    elif top <= 1.02 * bottom:
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return BoundReport(kind="stability", columns=("n", "l1", "linf"), rows=rows,
                       constants={"plateau_ratio": top / bottom,
                                  "growth_ratio": growth},
                       verdict=verdict)


# -- discrete difference operators -------------------------------------------

def space_diff(psi, w):
    """D_w psi(x) = psi(x + w) - psi(x), exact on the sparse form."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (psi.dim,):
        raise DimensionMismatchError("shift dimension mismatch")
    # the shift, negation and merge: tracemalloc read 19.1-22.4 numbers a point
    _check_box((len(psi),), complex_arrays=psi.dim + 9)
    return translate(psi, -w) - psi


def space_diff_multi(psi, vectors, beta):
    """D_v^beta = prod_j (D_{v_j})^{beta_j}, holding psi and the last difference."""
    out = psi
    for v, b in zip(vectors, beta):
        for _ in range(int(b)):
            with _config.holding(_nbytes(psi) + (out is not psi) * _nbytes(out)):
                out = space_diff(out, v)
    return out


def time_diff(f, point_analysis, l, psi):
    """partial_l psi = psi - phihat(xi0)^{-l} (delta_{-l alpha} * phi^(l)) * psi.

    Requires l * alpha integral (the recentred power must stay on the lattice).
    """
    cls = point_analysis.classification
    alpha = cls.alpha
    la = l * alpha
    if np.max(np.abs(la - np.round(la))) > 1e-9:
        raise ValueError(f"l alpha = {la} is not a lattice point")
    la = np.round(la).astype(np.int64)
    phi_l = power(f, l, method="direct") if l > 1 else f
    kernel = translate(phi_l, -la).scale(point_analysis.value ** (-l))
    return psi - convolve(kernel, psi)


def _prefactor(g, point_analysis, n):
    """e^{-i n phase} e^{i x.xi0} g(x): a unit factor keeps g's canonical
    order, so only values that fall below ``ZERO_DROP`` leave."""
    # the phase and two products, or the phase, values, |values| and kept copy
    _check_box((len(g),), complex_arrays=(g.dim + 7) / 2)
    phase = np.exp(1j * (g.points.astype(float) @ point_analysis.xi))
    values = g.values * phase * np.exp(-1j * n * point_analysis.phase)
    keep = np.abs(values) >= ZERO_DROP
    if keep.all():
        return LatticeFunction._from_sorted(g.dim, g.points, values)
    return LatticeFunction._from_sorted(g.dim, g.points[keep], values[keep])


def derivative_bound_fit(f, analysis, vectors, beta, n_values):
    """Fit C_beta for |D_v^beta (prefactored phi^(n))| against the weighted envelope.

    Hypotheses: a single Omega point and a P-fitted collection v; violations
    yield an explicit hypothesis-violated report.  The differences take whole
    supports; their envelope is reduced one block of points at a time.
    Raises ValueError unless ``beta`` holds one order >= 0 per vector.
    """
    from .homogeneous import p_fitted

    if len(beta) != len(vectors) or min(beta, default=0) < 0:
        raise ValueError(f"beta {tuple(beta)} needs one order >= 0 for each "
                         f"of {len(vectors)} vectors")

    if len(analysis.points) != 1:
        return BoundReport(kind="derivative-bound", columns=(), rows=[],
                           verdict="hypothesis-violated",
                           notes=f"Omega has {len(analysis.points)} points; "
                                 "theorem needs a singleton")
    pa = analysis.points[0]
    if not pa.classification.ok:
        return BoundReport(kind="derivative-bound", columns=(), rows=[],
                           verdict="not-applicable")
    poly = pa.classification.poly
    fitted, weights = p_fitted(poly, vectors)
    if not fitted:
        return BoundReport(kind="derivative-bound", columns=(), rows=[],
                           verdict="hypothesis-violated",
                           notes="collection is not P-fitted")
    mu = float(poly.mu)
    exponent = mu + sum(float(Fraction(b, 2 * m))
                        for b, m in zip(beta, weights))
    normalizer = float(np.prod([max(np.linalg.norm(v), 1.0) ** b
                                for v, b in zip(vectors, beta)]))
    conj_field = _ConjugateField(poly)
    rows, peaks = [], {}
    for n, pn in _direct_stream(analysis.function, n_values):
        with _config.holding(_nbytes(pn)):
            diffed = space_diff_multi(_prefactor(pn, pa, n), vectors, beta)
            with _config.holding(_nbytes(diffed)):
                sup, peaks[n] = _envelope_peaks(diffed.points, diffed.values, n, exponent,
                                                conj_field, pa.classification.alpha, normalizer)
        rows.append((n, sup, sup * n ** exponent))
        del pn, diffed
    fit = _envelope_fit(peaks)
    return BoundReport(kind="derivative-bound", columns=("n", "sup", "scaled"),
                       rows=rows, constants=fit or {},
                       verdict="fit" if fit else "no-stable-fit")


# -- random-walk specializations ---------------------------------------------

def walk_profile(f, omega=None):
    """Mean, covariance, genuineness and Theta inputs for a probability input."""
    if not f.is_probability():
        raise ValueError("walk_profile requires a probability distribution")
    pts = f.points.astype(float)
    w = f.values.real
    mean = pts.T @ w
    centered = pts - mean
    cov = (centered * w[:, None]).T @ centered
    if omega is None:
        from .symbol import SymbolView, find_omega
        omega = find_omega(SymbolView(f))
    return WalkProfile(mean=mean, covariance=cov,
                       genuinely_d_dimensional=len(support_lattice(f).basis) == f.dim,
                       omega_points=omega.points.copy(),
                       omega_phases=omega.phases.copy())


def theta(profile, n, x):
    """Theta(n, x) = sum_xi e^{i(n omega(xi) - x.xi)}; real for probability walks."""
    x = np.asarray(x, dtype=float)
    z = np.exp(1j * (n * profile.omega_phases - profile.omega_points @ x))
    total = complex(z.sum())
    if abs(total.imag) > 1e-9:
        raise ValueError(f"Theta has imaginary residue {total.imag:.3e}; "
                         "Omega detection is suspect")
    return float(total.real)


def theta_cosine(profile, n, x):
    """Cosine form of Theta; equals :func:`theta` for genuine probability walks."""
    x = np.asarray(x, dtype=float)
    return float(np.cos(n * profile.omega_phases - profile.omega_points @ x).sum())


def support_periodicity_check(f, profile, n_max, tol=1e-8):
    """Exact inclusion supp(phi^(n)) within supp(Theta(n, .)) for n <= n_max.

    Theta is summed one Omega point at a time over the support's points.
    Beside each power, the cap counts what the check holds if every cell is
    in the support: ``np.argwhere``'s coordinates and their stacked copy
    (d/2 boxes each), or the float coordinates, Theta and one Omega point's
    phases and exponentials (d/2 + 2.5).
    """
    if not f.is_probability():
        raise ValueError("support periodicity check requires a probability input")
    lattice = support_lattice(f)
    n = 0  # no enumerate, whose result tuple would keep arr through the next step
    for arr, lo in sweep(f, n_max, lattice):
        n += 1
        _check_box(arr.shape, complex_arrays=max(f.dim, f.dim / 2 + 2.5))
        cells = np.argwhere(arr)
        del arr
        points = np.empty((len(cells), f.dim))
        _cell_points(cells.T, lo, lattice.basis, points)
        del cells
        theta_vals = np.zeros(len(points), dtype=complex)
        for xi, phase in zip(profile.omega_points, profile.omega_phases):
            z = 1j * (n * phase - points @ xi)
            theta_vals += np.exp(z, out=z)
        if np.any(np.abs(theta_vals) <= tol):
            return False
    return True
