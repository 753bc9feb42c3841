"""Verification suites: decay, local-limit error, pointwise bounds, stability,
discrete differences, and random-walk specializations.

The theorems assert existential constants; each suite fits the constant on a
dyadic ladder of n and reports whether the fit is stable across scale octaves.
That is the strongest falsifiable desk-scale reading of an asymptotic bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .attractor import llt_approx
from .errors import DimensionMismatchError
from .expansion import analyze
from .lattice import (LatticeFunction, _check_box, _embed_dense,
                      _extract_sparse, _sparse_above_floor, _sparse_boxes,
                      convolve, norm_l1, norm_linf, power, power_torus, sweep,
                      translate)
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


def _dyadic_ns(n_max, extra=()):
    ns = set(extra)
    k = 1
    while k <= n_max:
        ns.add(k)
        k *= 2
    ns.add(n_max)
    return sorted(ns)


def direct_powers(f, n_values):
    """{n: phi^(n)} via one exact :func:`~latconv.lattice.sweep` (oracle of record)."""
    n_values = sorted(set(int(n) for n in n_values))
    if n_values[0] < 1:
        raise ValueError("n values must be >= 1")
    flo, fhi = f.extent()
    span = fhi - flo
    cells = [np.prod(n * span + 1, dtype=float) for n in n_values]
    # the sweep's boxes or the last extraction, beside the sparse copies
    # (values and d coordinates per cell) of the powers already kept
    kept = (1.0 + f.dim / 2) * sum(cells[:-1]) / cells[-1]
    _check_box(n_values[-1] * span + 1,
               complex_arrays=max(3.0, 1.0 + _sparse_boxes(f.dim)) + kept)
    return {n: _extract_sparse(f.dim, arr, lo, 0.0)
            for n, (arr, lo) in enumerate(sweep(f, n_values[-1]), start=1)
            if n in n_values}


def sup_decay_report(f, analysis, n_values):
    """Rows (n, ||phi^(n)||_inf, n^mu ||phi^(n)||_inf); band verdict on top octave.

    Each power comes from :func:`power_near_drifts`: a certified torus about
    the drifts for a positive-homogeneous analysis, the full box otherwise.
    """
    sups = [(n, norm_linf(power_near_drifts(f, analysis, n)))
            for n in sorted(n_values)]
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


def _window_half(analysis, points, n):
    """6 n^(lambda_max) sqrt(d), lambda_max = max 1/(2m) over the points' weights."""
    lam_max = max(1.0 / (2 * m) for pa in points
                  for m in pa.classification.poly.weights)
    return 6.0 * n ** lam_max * np.sqrt(analysis.function.dim)


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
    3 (ex71).
    """
    points = analysis.points
    m_max = max(m for pa in points for m in pa.classification.poly.weights)
    return _covering_box([n * pa.classification.alpha for pa in points],
                         max(1, m_max - 1) * _window_half(analysis, points, n))


def power_near_drifts(f, analysis, n, window=None):
    """phi^(n) above the transform-noise floor, near its drifts.

    ``analysis`` is that of f.  When f is of positive homogeneous type this
    is :func:`~latconv.lattice.power_torus` on :func:`drift_box`, united with
    ``window`` (per-axis ``(a, b)`` ranges) if one is given, so only the
    certified box is transformed; otherwise it is the full-box
    ``power(f, n, "spectral")``.
    """
    if analysis.mu_phi is None:
        return power(f, n, method="spectral")
    lo, hi = drift_box(analysis, n)
    if window is not None:
        lo = np.minimum(lo, [a for a, _ in window])
        hi = np.maximum(hi, [b for _, b in window])
    arr, lo = power_torus(f, n, lo, hi)
    return _sparse_above_floor(f.dim, arr, lo, n)


def llt_error(f, analysis, n, window=None):
    """(sup error, n^mu * sup error) over the drift box united with the window.

    phi^(n) comes from :func:`~latconv.lattice.power_torus` on
    :func:`drift_box`; outside that box it is certified to be at noise level.
    """
    if analysis.mu_phi is None:
        raise ValueError(f"analysis verdict is {analysis.verdict}")
    g = analysis.function
    arr, lo = power_torus(g, n, *drift_box(analysis, n))
    if window is None:
        window = default_llt_window(analysis, n)
    wlo = np.array([w[0] for w in window], dtype=np.int64)
    whi = np.array([w[1] for w in window], dtype=np.int64)
    box_lo = np.minimum(lo, wlo)
    box_hi = np.maximum(lo + np.array(arr.shape) - 1, whi)
    full = np.zeros(tuple(int(b - a + 1) for a, b in zip(box_lo, box_hi)),
                    dtype=np.complex128)
    sl = tuple(slice(int(l - bl), int(l - bl) + s)
               for l, bl, s in zip(lo, box_lo, arr.shape))
    full[sl] = arr
    approx = llt_approx(analysis, n, list(zip(box_lo, box_hi)))
    approx_arr = approx.values.reshape(full.shape) if len(approx) == full.size \
        else _embed_dense(approx, full.shape, box_lo)
    err = float(np.abs(full - approx_arr).max())
    return err, float(analysis.mu_phi and n ** float(analysis.mu_phi) * err)


def llt_error_ladder(f, analysis, n_values, window=None):
    rows = []
    for n in sorted(n_values):
        err, scaled = llt_error(f, analysis, n, window=window)
        rows.append((n, err, scaled))
    verdict = "decreasing" if all(rows[i + 1][2] < rows[i][2]
                                  for i in range(len(rows) - 1)) else "non-monotone"
    return BoundReport(kind="llt-error", columns=("n", "sup_error", "scaled"),
                       rows=rows, verdict=verdict)


# -- shell-table conjugate evaluation (vectorized over many x) ---------------

class _ConjugateField:
    """Vectorized R#((x - n a)/n) evaluation via homogeneity.

    R# scales as t R#(x) = R#(t^F x) with F = (I - E)^T, so values on a shell
    table of unit directions extend to all of R^d by solving for the scale.
    d = 1 tabulates the two unit points; d >= 3 has no table and evaluates
    every point in one ``conjugate_batch``.  In d = 2 the table is
    interpolated linearly between 4,096 angles: halfway between them the
    relative error is at most 1e-4 on srw:2, intro, ex71, ex73 and ex75:3,2
    (measured 4.4e-16 to 2.7e-5, and pinned by a test, not checked at run
    time, where it would double the cost of the table).
    """

    def __init__(self, poly, n_angles=4096):
        self.ev = ConjugateEvaluator(poly)
        self.dim = poly.dim
        E = poly.E
        self.F = (np.eye(self.dim) - E).T
        self.evals, self.vecs = _eigh_symmetric(self.F)
        if self.dim == 1:
            self.table, _ = self.ev.conjugate_batch(np.array([[-1.0], [1.0]]))
        elif self.dim == 2:
            th = np.linspace(-np.pi, np.pi, n_angles, endpoint=False)
            dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
            # grid + Newton suffices on the unit shell, so the table skips
            # the multi-start refinement
            self.table, _ = self.ev.conjugate_batch(dirs, refine_starts=False)
            self.n_angles = n_angles
        else:
            self.table = None

    def _solve_scale(self, xs):
        """t(x) with |t^{-F} x| = 1, by Newton in s = log t.

        With y the eigen-coordinates of x, h(s) = log sum_j y_j^2 e^{-2 l_j s}
        is convex and decreasing, and h >= 0 at the start
        s0 = min(log|y| / l_max, log|y| / l_min), so the iterates rise to the
        root without overshoot.  s0 is the root when F is scalar.
        """
        y = xs @ self.vecs
        lam = self.evals
        log_y = np.log(np.linalg.norm(y, axis=1))
        s = np.minimum(log_y / lam.max(), log_y / lam.min())
        for _ in range(64):
            u2 = (y * np.exp(s)[:, None] ** -lam) ** 2
            total = u2.sum(axis=1)
            step = np.log(total) * total / (2.0 * (u2 * lam).sum(axis=1))
            s = s + step
            if np.all(np.abs(step) <= 4e-15 * np.maximum(1.0, np.abs(s))):
                break
        return np.exp(s)

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        nz = np.linalg.norm(xs, axis=1) > 1e-300
        out = np.zeros(xs.shape[0])
        if not nz.any():
            return out
        pts = xs[nz]
        if self.table is None:
            out[nz], _ = self.ev.conjugate_batch(pts)
            return out
        t = self._solve_scale(pts)
        u = (pts @ self.vecs) * t[:, None] ** (-self.evals[None, :])
        u = u @ self.vecs.T
        if self.dim == 1:
            base = self.table[(u[:, 0] > 0).astype(int)]
        else:
            th = np.arctan2(u[:, 1], u[:, 0])
            pos = (th + np.pi) / (2.0 * np.pi) * self.n_angles
            i0 = np.floor(pos).astype(int) % self.n_angles
            i1 = (i0 + 1) % self.n_angles
            w = pos - np.floor(pos)
            base = (1.0 - w) * self.table[i0] + w * self.table[i1]
        out[nz] = t * base
        return out


def _eigh_symmetric(M):
    """Eigen-decomposition of M, which is symmetric only in an orthogonal basis."""
    asym = float(np.max(np.abs(M - M.T)))
    if asym > 1e-12:
        raise ValueError(f"exponent matrix is not symmetric (max |E - E^T| = "
                         f"{asym:.3e}): the polynomial's basis is not orthogonal")
    return np.linalg.eigh((M + M.T) / 2.0)


def _envelope_fit(fields, mu_exponent, conj_field, alpha, normalizer=1.0):
    """Largest M on a halving grid with octave-stable C(M); see gaussian fit.

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


def gaussian_bound_fit(f, analysis, n_values):
    """Fit (C, M) in |phi^(n)(x)| <= C n^-mu exp(-n M R#((x - n alpha)/n)).

    Requires every Omega point to share one drift and one polynomial; distinct
    drifts or polynomials get a hypothesis-violated report directing to
    :func:`subexp_bound_fit`.
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
    g = analysis.function
    mu = float(analysis.mu_phi)
    conj_field = _ConjugateField(poly0)
    # the exact direct path carries true zeros outside the reachable support;
    # transform noise there would otherwise dominate the envelope max
    powers = direct_powers(g, sorted(n_values))
    fields = {}
    rows = []
    for n in sorted(n_values):
        pn = powers[n]
        mags = np.abs(pn.values)
        fields[n] = (pn.points.astype(float), mags)
        sup = float(mags.max())
        rows.append((n, sup, n ** mu * sup))
    fit = _envelope_fit(fields, mu, conj_field, alpha0)
    if fit is None:
        return BoundReport(kind="gaussian-bound",
                           columns=("n", "sup", "scaled"), rows=rows,
                           verdict="no-stable-fit")
    return BoundReport(kind="gaussian-bound", columns=("n", "sup", "scaled"),
                       rows=rows, constants=fit, verdict="fit")


def _poly_differs(p1, p2, tol=1e-8):
    keys = set(p1.coeffs) | set(p2.coeffs)
    return any(abs(p1.coeffs.get(k, 0.0) - p2.coeffs.get(k, 0.0)) > tol
               for k in keys)


def subexp_bound_fit(f, analysis, n_values, N=4):
    """Fit C_N in |phi^(n)(x)| <= C_N sum_q n^-mu_q (1 + |n^-Eq*(x - n a_q)|)^-N."""
    if analysis.mu_phi is None:
        return BoundReport(kind="subexp-bound", columns=(), rows=[],
                           verdict="not-applicable",
                           notes=f"analysis verdict: {analysis.verdict}")
    g = analysis.function
    terms = []
    for pa in analysis.points:
        cls = pa.classification
        evals, vecs = _eigh_symmetric(cls.poly.E)
        terms.append((float(cls.poly.mu), cls.alpha, evals, vecs))
    rows = []
    worst = {}
    ns = sorted(n_values)
    powers = direct_powers(g, ns)
    for n in ns:
        pn = powers[n]
        pts = pn.points.astype(float)
        mags = np.abs(pn.values)
        env = np.zeros_like(mags)
        for mu_q, a_q, evals, vecs in terms:
            y = (pts - n * a_q) @ vecs
            y = y * (float(n) ** (-evals))[None, :]
            r = np.linalg.norm(y @ vecs.T, axis=1)
            env += n ** (-mu_q) * (1.0 + r) ** (-float(N))
        c = float(np.max(mags / env))
        worst[n] = c
        rows.append((n, c))
    n_top = ns[-1]
    oct1 = max(worst[n] for n in ns if n > n_top / 2)
    oct2_vals = [worst[n] for n in ns if n_top / 4 < n <= n_top / 2]
    ratio = oct1 / max(oct2_vals) if oct2_vals else float("nan")
    stable = np.isfinite(ratio) and max(ratio, 1.0 / ratio) <= 1.5
    return BoundReport(kind="subexp-bound", columns=("n", "C_N"), rows=rows,
                       constants={"C_N": max(worst.values()), "N": N,
                                  "octave_ratio": ratio},
                       verdict="fit" if stable else "no-stable-fit")


def _direct_work_estimate(f, n_max):
    lo, hi = f.extent()
    ext = (hi - lo).astype(float)
    total = 0.0
    for n in range(1, n_max + 1):
        total += len(f) * float(np.prod(n * ext + 1.0))
    return total


def stability_report(f, n_max, method="auto"):
    """l^1 ladder over dyadic n plus endpoints; Thm-style plateau verdict.

    Stable when the top-half maximum exceeds the bottom-half maximum by at
    most 2 percent; unstable when the final l^1 at n_max is at least twice
    the value at n_max / 32.  ``method`` picks the power path: the exact
    direct sweep (mass conservation holds to the last bit) or per-n spectral
    powers; ``auto`` uses direct when the sweep is cheap.  The spectral path
    analyzes f and takes :func:`power_near_drifts`: a certified torus about
    the drifts when f is of positive homogeneous type, the full box
    otherwise.
    """
    n_values = _dyadic_ns(n_max)
    if method == "auto":
        method = "direct" if _direct_work_estimate(f, n_max) <= 3e8 else "spectral"
    if method == "direct":
        powers = direct_powers(f, n_values)
    elif method not in ("fast", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    else:
        analysis = analyze(f)
        powers = {n: power_near_drifts(f, analysis, n) for n in n_values}
    rows = [(n, norm_l1(powers[n]), norm_linf(powers[n])) for n in n_values]
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
    return translate(psi, -w) - psi


def space_diff_multi(psi, vectors, beta):
    """D_v^beta = prod_j (D_{v_j})^{beta_j}."""
    out = psi
    for v, b in zip(vectors, beta):
        for _ in range(int(b)):
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
    xi0 = point_analysis.xi
    phase = np.exp(1j * (g.points.astype(float) @ xi0))
    pref = np.exp(-1j * n * point_analysis.phase)
    return LatticeFunction(g.dim, g.points, g.values * phase * pref)


def derivative_bound_fit(f, analysis, vectors, beta, n_values):
    """Fit C_beta for |D_v^beta (prefactored phi^(n))| against the weighted envelope.

    Hypotheses: a single Omega point and a P-fitted collection v; violations
    yield an explicit hypothesis-violated report.
    """
    from .homogeneous import p_fitted

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
    g = analysis.function
    powers = direct_powers(g, sorted(n_values))
    fields = {}
    rows = []
    for n in sorted(n_values):
        base = _prefactor(powers[n], pa, n)
        diffed = space_diff_multi(base, vectors, beta)
        mags = np.abs(diffed.values)
        fields[n] = (diffed.points.astype(float), mags)
        sup = float(mags.max()) if mags.size else 0.0
        rows.append((n, sup, sup * n ** exponent))
    fit = _envelope_fit(fields, exponent, conj_field, pa.classification.alpha,
                        normalizer=normalizer)
    if fit is None:
        return BoundReport(kind="derivative-bound",
                           columns=("n", "sup", "scaled"), rows=rows,
                           verdict="no-stable-fit")
    return BoundReport(kind="derivative-bound", columns=("n", "sup", "scaled"),
                       rows=rows, constants=fit, verdict="fit")


# -- random-walk specializations ---------------------------------------------

def _integer_rank(vectors):
    """Exact rank of integer vectors by fraction-free Gaussian elimination."""
    from fractions import Fraction as F
    rows = [[F(int(c)) for c in v] for v in vectors]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                fac = rows[i][col] / rows[rank][col]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def walk_profile(f, omega=None):
    """Mean, covariance, genuineness and Theta inputs for a probability input."""
    if not f.is_probability():
        raise ValueError("walk_profile requires a probability distribution")
    pts = f.points.astype(float)
    w = f.values.real
    mean = pts.T @ w
    centered = pts - mean
    cov = (centered * w[:, None]).T @ centered
    anchor = f.points[0]
    rank = _integer_rank((f.points - anchor).tolist()) if len(f) > 1 else 0
    if len(f) == 1:
        # point mass: |phi-hat| is constant one, Omega is the whole torus;
        # report the canonical representative only
        return WalkProfile(mean=mean, covariance=cov,
                           genuinely_d_dimensional=False,
                           omega_points=np.zeros((1, f.dim)),
                           omega_phases=np.zeros(1))
    if omega is None:
        from .symbol import SymbolView, find_omega
        omega = find_omega(SymbolView(f))
    return WalkProfile(mean=mean, covariance=cov,
                       genuinely_d_dimensional=(rank == f.dim),
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
    """Exact inclusion supp(phi^(n)) within supp(Theta(n, .)) for n <= n_max."""
    if not f.is_probability():
        raise ValueError("support periodicity check requires a probability input")
    for n, (arr, lo) in enumerate(sweep(f, n_max), start=1):
        points = np.argwhere(arr) + lo
        phases = (n * profile.omega_phases[None, :]
                  - points.astype(float) @ profile.omega_points.T)
        theta_vals = np.exp(1j * phases).sum(axis=1)
        if np.any(np.abs(theta_vals) <= tol):
            return False
    return True
