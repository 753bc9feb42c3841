"""Taylor expansion of the log-symbol and classification of unit-modulus points.

For xi0 with |phi-hat(xi0)| = 1 the function Gamma(xi) = log(phi-hat(xi + xi0)
/ phi-hat(xi0)) is expanded about 0 by composing the exact Taylor coefficients
of the shifted, renormalized symbol with the log(1+u) series.  Both series are
dense truncated arrays (``_poly.series_mul`` multiplies them), and so is Gamma
until the kept part, which becomes a coefficient dict.  Classification then
asks whether Gamma = i a.xi - P(xi) + o(Re P) for a polynomial P whose
real part is positive definite and which scales as t P(xi) = P(t^E xi): the
quadratic part of Re(-Gamma) fixes the weight-one directions, remaining axes
are searched over even orders, sub-homogeneous coefficients must vanish, and
the kept part must have positive real part, each weight assignment at its
own centre (a Newton endpoint on a flat maximum lies off it; see _centre).

When supp phi - x0 spans a proper sublattice L of Z^d, Omega is a union of
cosets of 2 pi L*, and Gamma is one function on each coset: xi = xi' + delta
with e^{i delta.(x - x0)} = 1 on supp phi gives phi-hat(. + xi) =
e^{i delta.x0} phi-hat(. + xi'), whose ratio to its value at 0 is the same.
:func:`analyze` therefore classifies one point per coset.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotNormalizedError
from .homogeneous import (HomogeneousPolynomial, _canonical_signs,
                          sphere_samples)
from .lattice import LatticeFunction, _check_box
from .symbol import (OmegaSet, SymbolView, _normalize, _principal_angle,
                     _one_maximum, _wrap_torus, find_omega)

from . import _poly

VERDICT_PHT = "positive-homogeneous-type"
VERDICT_NOT = "not-positive-homogeneous-type"
VERDICT_INDETERMINATE = "indeterminate"

DRIFT_REAL_TOL = 1e-8
SUBHOMOGENEOUS_TOL = 1e-8
NULL_EIGENVALUE_TOL = 1e-9
# eigenvalue up to which an axis may be flat, seen e off its centre: about
# C(2m, 2) a_2m e^(2m - 2), 8.4e-9 on ex73; its even orders come before 2
FLAT_EIGENVALUE_TOL = 1e-6
# see _centre; rounding leaves steps of 2e-15 at most on the corpus
CENTRE_STEPS, CENTRE_STEP_TOL, CENTRE_TOL = 3, 1e-13, 1e-9
# |e^{i (xi - xi').(x - x0)} - 1| on supp phi below which xi and xi' share a
# classification; the tolerance of symbol.phase_consistency_check
COSET_TOL = 1e-9


@dataclass
class TaylorSeries:
    """Taylor coefficients of Gamma about 0, orders 1..m, as a dense series."""

    dim: int
    order: int
    series: np.ndarray

    @property
    def coeffs(self):
        """The non-zero coefficients, as a dict made afresh from the series."""
        return _poly.from_dense(self.series)

    def linear(self):
        return self.series[tuple(np.eye(self.dim, dtype=int))]


@dataclass
class Classification:
    verdict: str
    alpha: np.ndarray | None = None
    poly: HomogeneousPolynomial | None = None
    diagnostics: dict = field(default_factory=dict)
    shift: np.ndarray | None = None     # centre minus the classified point
    # Q in the basis of P at the centre, which residual_norms reads
    q_rot: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self):
        return self.verdict == VERDICT_PHT

    @property
    def E(self):
        return None if self.poly is None else self.poly.E

    @property
    def mu(self):
        return None if self.poly is None else self.poly.mu

    @functools.cached_property
    def residual_norms(self):
        """{t: max |t Q(t^-E xi) - P(xi)|} over the classifier's sphere
        samples at t = 10, 100, 1000 (:func:`_residual_norms`), made on the
        first read; None unless the point is of positive homogeneous type."""
        if self.poly is None:
            return None
        P = self.poly
        return _residual_norms(self.q_rot, P.semi_coeffs, P.weights,
                               sphere_samples(P.dim, 1000 * P.dim))


def gamma_taylor(sym, xi0, m):
    """Taylor series of Gamma_{xi0} = log(phi-hat(.+xi0)/phi-hat(xi0)) to order m.

    The log is a formal composition of :func:`_shifted_series` with log(1+u)
    truncated at total order m.  Moments are taken about the centre c of the
    support's box, and i c.xi added back: about 0 a translate of phi loses
    |c|^k eps to cancellation at order k.
    """
    lo, hi = sym.source.extent()
    series = _poly.log1p_series(_shifted_series(sym, xi0, m))
    series[tuple(np.eye(sym.dim, dtype=int))] += 0.5j * (lo + hi)
    series[series == 0] = 0.0  # an absent term reads +0, never -0
    return TaylorSeries(dim=sym.dim, order=m, series=series)


def _shifted_series(sym, xi0, m):
    """Dense Taylor series u of e^{-i c.xi} phi-hat(xi + xi0)/phi-hat(xi0) - 1
    to order m, c the centre of the support's bounding box, from the exact
    moment formula about c."""
    if m < 2:
        raise ValueError("expansion order must be >= 2")
    f = sym.source
    d = f.dim
    xi0 = np.asarray(xi0, dtype=float)
    v0 = sym.evaluate(xi0)
    if abs(abs(v0) - 1.0) > 1e-9:
        raise NotNormalizedError(f"|phi-hat(xi0)| = {abs(v0):.12g}, not unit modulus")
    lo, hi = f.extent()
    pts = f.points - (lo + hi) / 2.0
    psi = f.values * np.exp(1j * (pts @ xi0))
    psi /= psi.sum()
    ipts = 1j * pts
    # tab[j, b] = (i x_j)^b; the betas of one set of non-zero axes form their
    # rows psi (i x)^beta in one batch, multiplied in axis order
    tab = np.array([[ipts[:, j] ** b for b in range(m + 1)] for j in range(d)])
    fact = np.array([math.factorial(k) for k in range(m + 1)], dtype=object)
    betas = np.argwhere(_poly.weighted_degree(m, (1,) * d) <= m)[1:]  # 0 < |beta|
    axes = (betas > 0) @ (1 << np.arange(d))  # bit j set where beta_j > 0
    u = np.zeros((m + 1,) * d, dtype=np.complex128)
    for mask in range(1, 1 << d):
        rows = betas[axes == mask]
        term = psi
        for j in range(d):
            if mask >> j & 1:
                term = term * tab[j, rows[:, j]]
        s = term.sum(axis=-1)
        div = np.prod(fact[rows], axis=1).astype(float)
        # CPython's complex / int: (re + im * 0) / k, (im - re * 0) / k, not * (1 / k)
        u.real[tuple(rows.T)] = (s.real + s.imag * 0.0) / div
        u.imag[tuple(rows.T)] = (s.imag - s.real * 0.0) / div
    return u


def _quadratic_hessian(q, dim):
    """Symmetric H with Re(quadratic part of Q)(xi) = xi . H xi."""
    eye = np.eye(dim, dtype=int)
    c = q[tuple(np.moveaxis(eye[:, None] + eye, -1, 0))]  # c[j, k] = q[e_j + e_k]
    # a zero coefficient gives +0, whatever the sign of its zero parts
    return np.where(c != 0, c.real, 0.0) / np.where(eye, 1.0, 2.0)


def _weight_assignments(evals, m_max, reverse=False):
    """All weight tuples: 1 on quadratic axes; on the others the even orders
    4..m_max (reversed with ``reverse``), then 2 where the eigenvalue is above
    ``NULL_EIGENVALUE_TOL``."""
    flat = tuple(range(4, m_max + 1, 2))[::-1 if reverse else 1]
    choices = [(2,) if lam > FLAT_EIGENVALUE_TOL
               else flat + ((2,) if lam > NULL_EIGENVALUE_TOL else ())
               for lam in evals]
    for combo in itertools.product(*choices):
        yield tuple(order // 2 for order in combo)


def _split_by_weight(q, weights):
    """(largest |coefficient| below homogeneity, dense kept part at
    |beta:2m| = 1), |beta:2m| read exactly as the integer |beta:2m| lcm(2 m_j)."""
    lcm = math.lcm(*(2 * m for m in weights))
    h = _poly.weighted_degree(q.shape[0] - 1, tuple(lcm // (2 * m) for m in weights))
    return np.abs(q[h < lcm]).max(initial=0.0), np.where(h == lcm, q, 0.0)


# Gamma about one point: its linear coefficient, the largest |coefficient| of
# Q = -(Gamma - i alpha.xi) (orders 2..m), the eigenvalues and basis A of Q's
# quadratic real part (A = I when that is diagonal to 1e-9), and Q in
# A-coordinates
_Expansion = namedtuple("_Expansion", "lin q_max evals A q_rot")


def _expand(sym, xi, m_max):
    d = sym.dim
    series = gamma_taylor(sym, xi, m_max)
    q = -series.series
    q[tuple(np.eye(d, dtype=int))] = 0.0
    H = _quadratic_hessian(q, d)
    off = np.abs(H - np.diag(np.diag(H))).max() if d > 1 else 0.0
    if off <= 1e-9 * max(1.0, np.abs(H).max()):
        A, evals = np.eye(d), np.diag(H).copy()
    else:
        A = _canonical_signs(np.linalg.eigh(H)[1])
        evals = np.diag(A.T @ H @ A)
    return _Expansion(series.linear(), np.abs(q).max(), evals, A,
                      _poly.series_compose_linear(q, A))


def _centre(sym, xi0, ex, weights, m_max):
    """(centre, its expansion, the weights there, steps) of xi0's maximum for
    ``weights``, or None.  A step moves each weight-m axis of A by
    -a_(2m-1) / (2m a_(2m)), zeroing the order 2m - 1 term of Re Q along it
    (a_1 is minus Gamma's real linear term; an a_(2m) <= SUBHOMOGENEOUS_TOL
    fails the sign certification anyway), and expands again, until the step
    left is at most ``CENTRE_STEP_TOL``.  Weights too low for an axis cut its
    offset by a fixed factor (2/3 for 1 on a quartic axis) and run out of
    ``CENTRE_STEPS``; a step off xi0's maximum (within ``CENTRE_TOL``, the
    tolerance of gamma_taylor) gives up too.  Weights follow their axes."""
    d, x, steps = len(weights), xi0, 0
    while True:
        step = np.zeros(d)
        for j, m in enumerate(weights):
            lo, hi = (ex.q_rot[tuple(k if i == j else 0 for i in range(d))].real
                      for k in (2 * m - 1, 2 * m))
            lo = -(ex.A[:, j] @ ex.lin.real) if m == 1 else lo
            if lo and hi > SUBHOMOGENEOUS_TOL:
                step[j] = -lo / (2 * m * hi)
        if np.abs(step).max() <= CENTRE_STEP_TOL:
            return x, ex, weights, steps
        new = x + ex.A @ step
        if steps == CENTRE_STEPS or not _one_maximum(sym, xi0, new, CENTRE_TOL)[0]:
            return None
        nxt = _expand(sym, new, m_max)
        match = np.abs(ex.A.T @ nxt.A).argmax(axis=0)
        if len(set(match.tolist())) < len(match):
            return None
        x, ex, steps = new, nxt, steps + 1
        weights = tuple(weights[k] for k in match)


def classify(sym, xi0, m_max=12, reverse_search=False):
    """Classify xi0 in Omega(phi) as positive-homogeneous type or not.

    Each weight assignment is tried at its own centre (``_centre``): on a
    flat maximum the Newton endpoint xi0 lies off it.
    ``reverse_search`` flips the null-axis order search direction; the result
    must not depend on it (uniqueness of the leading polynomial).
    """
    d = sym.dim
    xi0 = np.asarray(xi0, dtype=float)
    first = _expand(sym, xi0, m_max)
    diagnostics = {"order": m_max, "centre_steps": 0, "centre_shift": 0.0}
    if np.max(np.abs(first.lin.real)) > DRIFT_REAL_TOL:
        diagnostics["reason"] = "linear term has a real component"
        return Classification(VERDICT_NOT, diagnostics=diagnostics)
    alpha = _drift(sym, first)
    if first.q_max <= SUBHOMOGENEOUS_TOL:
        reason = ("pure translation (log-symbol is linear)"
                  if len(sym.source) == 1 else
                  f"no nonlinear content through order {m_max}")
        verdict = VERDICT_NOT if len(sym.source) == 1 else VERDICT_INDETERMINATE
        diagnostics["reason"] = reason
        return Classification(verdict, alpha=alpha, diagnostics=diagnostics)
    if first.evals.min() < -1e-6:
        diagnostics["reason"] = "quadratic real part is indefinite"
        return Classification(VERDICT_NOT, alpha=alpha, diagnostics=diagnostics)

    samples = sphere_samples(d, 1000 * d)
    vanishing_at = None  # Q where a pure term vanished, if one did
    for weights in _weight_assignments(first.evals, m_max, reverse=reverse_search):
        at = _centre(sym, xi0, first, weights, m_max)
        if at is None:
            continue
        x, ex, weights, steps = at
        survivor, kept = _split_by_weight(ex.q_rot, weights)
        if survivor > SUBHOMOGENEOUS_TOL:
            continue
        # sign certification on each axis: the pure monomial xi_j^{2 m_j}
        # must be present with positive real part
        pure = [kept[tuple(2 * m if k == j else 0 for k in range(d))]
                for j, m in enumerate(weights)]
        bad = next((c for c in pure
                    if abs(c) <= SUBHOMOGENEOUS_TOL or c.real <= 0.0), None)
        if bad is not None:
            if abs(bad) <= SUBHOMOGENEOUS_TOL:
                vanishing_at = ex
            continue
        if _poly.CompiledPoly(kept, d)(samples).real.min() <= 0.0:
            continue
        kept = _poly.poly_prune(_poly.from_dense(kept), 1e-13 * np.abs(kept).max())
        poly = HomogeneousPolynomial(d, kept, ex.A, weights)
        diagnostics["weights"] = weights
        diagnostics["centre_steps"] = steps
        diagnostics["centre_shift"] = float(np.linalg.norm(x - xi0))
        return Classification(VERDICT_PHT, alpha=_drift(sym, ex), poly=poly,
                              diagnostics=diagnostics, shift=x - xi0, q_rot=ex.q_rot)

    # indeterminate unless every assignment has a surviving lower-order term
    if vanishing_at is not None and not all(
            _split_by_weight(vanishing_at.q_rot, w)[0] > SUBHOMOGENEOUS_TOL
            for w in _weight_assignments(first.evals, m_max)):
        diagnostics["reason"] = (
            f"order {m_max} insufficient: some null axis carries no "
            "sub-homogeneous obstruction but no positive pure term either")
        return Classification(VERDICT_INDETERMINATE, alpha=alpha,
                              diagnostics=diagnostics)
    diagnostics["reason"] = ("every admissible weight assignment leaves a "
                             "surviving sub-homogeneous term or a "
                             "non-positive kept part")
    return Classification(VERDICT_NOT, alpha=alpha, diagnostics=diagnostics)


def _drift(sym, ex):
    """Im of Gamma's linear term, less each non-zero component within the
    rounding of its first-moment sum, eps sum_x |psi(x)| |x_j - c_j| (see
    :func:`_shifted_series`; |psi| = |phi| at a unit-modulus point)."""
    f = sym.source
    lo, hi = f.extent()
    dust = np.finfo(float).eps * (np.abs(f.values) @ np.abs(f.points - (lo + hi) / 2.0))
    alpha = ex.lin.imag.copy()
    alpha[(0.0 < np.abs(alpha)) & (np.abs(alpha) <= dust)] = 0.0
    return alpha


def _residual_norms(q_rot, kept, weights, samples):
    """Numerical surrogate for Upsilon = o(Re P): max |t Q(t^-E xi) - P(xi)|
    over the samples at t = 10, 100, 1000, for the ``kept`` keys of P.

    t Q(t^-E xi) - P(xi) is the polynomial with coefficients
    q_beta t^(1 - |beta:2m|) less the kept ones, stacked over the three t and
    evaluated once; |beta:2m| is exact, so P's terms cancel exactly.  Only
    :attr:`Classification.residual_norms` calls it, on its first read; the
    cap counts one evaluation block, each of its numbers as a complex one
    (4 MiB at most; 4.07 MiB on intro with the power table beside it).
    """
    ts = np.array([10.0, 100.0, 1000.0])
    lcm = math.lcm(*(2 * m for m in weights))
    h = _poly.weighted_degree(q_rot.shape[0] - 1, tuple(lcm // (2 * m) for m in weights))
    rest = q_rot != 0
    rest[tuple(zip(*kept))] = False
    keys = [tuple(beta) for beta in np.argwhere(rest).tolist()]
    coef = q_rot[rest][:, None] * ts ** ((lcm - h[rest]) / lcm)[:, None]
    # a zero constant term fixes the coefficient shape when all of Q is kept
    residual = {(0,) * len(weights): np.zeros(len(ts)), **dict(zip(keys, coef))}
    poly = _poly.CompiledPoly(residual, len(weights))
    _check_box(poly.block_shape(len(samples)), complex_arrays=1)
    norms = np.abs(poly(samples)).max(axis=0)
    return dict(zip(ts.tolist(), norms.tolist()))


@dataclass
class PointAnalysis:
    xi: np.ndarray
    value: complex
    phase: float
    classification: Classification


@dataclass
class SpectralAnalysis:
    """Full spectral classification of a lattice function."""

    function: LatticeFunction          # normalized copy
    scale: float
    scan: object                       # symbol.TorusScan that normalized it
    omega: object                      # OmegaSet
    points: list
    mu_phi: Fraction | None
    minimal: list                      # indices attaining mu_phi

    @property
    def verdict(self):
        if not self.points:
            return VERDICT_NOT
        verdicts = {p.classification.verdict for p in self.points}
        if verdicts == {VERDICT_PHT}:
            return VERDICT_PHT
        if VERDICT_INDETERMINATE in verdicts:
            return VERDICT_INDETERMINATE
        return VERDICT_NOT

    def minimal_points(self):
        return [self.points[i] for i in self.minimal]


def analyze(f, m_max=12):
    """Normalize, locate Omega, classify every point, take the rational minimum.

    ``find_omega`` works from the Newton endpoints of the scan that
    normalized f, so f is scanned once.  A single-point support (c delta_y)
    has |phi-hat| constant equal to one, so Omega is the whole torus; its
    scan reports the canonical representative 0, which classifies as a pure
    translation, instead of a continuum.

    A point is classified only when no point classified before it lies in
    its coset of 2 pi L*, L the lattice spanned by supp phi - x0 (x0 the
    first support point): xi and xi' share a coset when
    |e^{i (xi - xi').(x - x0)} - 1| <= ``COSET_TOL`` on supp phi.  Both then
    hold the same :class:`Classification` object.  This is exact, since
    phi-hat(eta + xi) = e^{i (xi - xi').x0} phi-hat(eta + xi') for every eta,
    so Gamma_xi = Gamma_xi'.

    A positive-homogeneous-type point is reported at the centre its
    classification found (its ``shift`` from the Newton endpoint, which a
    coset shares), with phi-hat's value and phase there; ``omega`` holds the
    reported points.
    """
    g, scale, scan = _normalize(f)
    sym = SymbolView(g)
    omega = find_omega(sym, scan=scan)
    offsets = (g.points - g.points[0]).astype(float)
    classified = []  # (xi, classification) of each point classify() saw
    points = []
    for xi, val, ph in zip(omega.points, omega.values, omega.phases):
        cls = next((c for xr, c in classified
                    if np.max(np.abs(np.exp(1j * (offsets @ (xi - xr))) - 1.0))
                    <= COSET_TOL), None)
        if cls is None:
            cls = classify(sym, xi, m_max=m_max)
            classified.append((xi, cls))
        if cls.ok and cls.shift.any():
            xi = _wrap_torus(xi + cls.shift)
            val = sym.evaluate(xi)
            ph = _principal_angle(np.array([val]))[0]
        points.append(PointAnalysis(xi=xi, value=complex(val), phase=float(ph),
                                    classification=cls))
    omega = OmegaSet(points=np.array([p.xi for p in points]).reshape(-1, g.dim),
                     values=np.array([p.value for p in points], dtype=np.complex128),
                     phases=np.array([p.phase for p in points]))
    mus = [p.classification.mu for p in points]
    mu_phi = min(mus) if points and all(p.classification.ok for p in points) else None
    minimal = [i for i, m in enumerate(mus) if mu_phi is not None and m == mu_phi]
    return SpectralAnalysis(function=g, scale=scale, scan=scan, omega=omega,
                            points=points, mu_phi=mu_phi, minimal=minimal)
