"""Taylor expansion of the log-symbol and classification of unit-modulus points.

For xi0 with |phi-hat(xi0)| = 1 the function Gamma(xi) = log(phi-hat(xi + xi0)
/ phi-hat(xi0)) is expanded about 0 by composing the exact Taylor coefficients
of the shifted, renormalized symbol with the log(1+u) series.  Both series are
dense truncated arrays (``_poly.series_mul`` multiplies them); the result is
handed on as the coefficient dict of :class:`TaylorSeries`.  Classification
then asks whether Gamma = i a.xi - P(xi) + o(Re P) for a polynomial P whose
real part is positive definite and which scales as t P(xi) = P(t^E xi): the
quadratic part of Re(-Gamma) fixes the weight-one directions, remaining axes
are searched over even orders, sub-homogeneous coefficients must vanish, and
the kept part must have positive real part.

When supp phi - x0 spans a proper sublattice L of Z^d, Omega is a union of
cosets of 2 pi L*, and Gamma is one function on each coset: xi = xi' + delta
with e^{i delta.(x - x0)} = 1 on supp phi gives phi-hat(. + xi) =
e^{i delta.x0} phi-hat(. + xi'), whose ratio to its value at 0 is the same.
:func:`analyze` therefore classifies one point per coset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotNormalizedError
from .homogeneous import (HomogeneousPolynomial, _canonical_signs,
                          sphere_samples)
from .lattice import LatticeFunction
from .symbol import (OmegaSet, SymbolView, _normalize, _principal_angle,
                     find_omega)

from . import _poly

VERDICT_PHT = "positive-homogeneous-type"
VERDICT_NOT = "not-positive-homogeneous-type"
VERDICT_INDETERMINATE = "indeterminate"

DRIFT_REAL_TOL = 1e-8
SUBHOMOGENEOUS_TOL = 1e-8
NULL_EIGENVALUE_TOL = 1e-9
# |e^{i (xi - xi').(x - x0)} - 1| on supp phi below which xi and xi' share a
# classification; the tolerance of symbol.phase_consistency_check
COSET_TOL = 1e-9


@dataclass
class TaylorSeries:
    """Taylor coefficients of Gamma about 0, orders 1..m (no constant term)."""

    dim: int
    order: int
    coeffs: dict

    def linear(self):
        units = np.eye(self.dim, dtype=int).tolist()
        return np.array([self.coeffs.get(tuple(e), 0.0) for e in units],
                        dtype=np.complex128)


@dataclass
class Classification:
    verdict: str
    alpha: np.ndarray | None = None
    poly: HomogeneousPolynomial | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict == VERDICT_PHT

    @property
    def E(self):
        return None if self.poly is None else self.poly.E

    @property
    def mu(self):
        return None if self.poly is None else self.poly.mu


def gamma_taylor(sym, xi0, m):
    """Taylor series of Gamma_{xi0} = log(phi-hat(.+xi0)/phi-hat(xi0)) to order m.

    The log is a formal composition of :func:`_shifted_series` with log(1+u)
    truncated at total order m; only the result becomes a dict.
    """
    series = _poly.log1p_series(_shifted_series(sym, xi0, m))
    return TaylorSeries(dim=sym.dim, order=m, coeffs=_poly.from_dense(series))


def _shifted_series(sym, xi0, m):
    """Dense Taylor series u of phi-hat(. + xi0)/phi-hat(xi0) - 1 to order m,
    from the exact moment formula."""
    if m < 2:
        raise ValueError("expansion order must be >= 2")
    f = sym.source
    d = f.dim
    xi0 = np.asarray(xi0, dtype=float)
    v0 = sym.evaluate(xi0)
    if abs(abs(v0) - 1.0) > 1e-9:
        raise NotNormalizedError(f"|phi-hat(xi0)| = {abs(v0):.12g}, not unit modulus")
    psi = f.values * np.exp(1j * (f.points.astype(float) @ xi0)) / v0
    ipts = 1j * f.points.astype(float)
    u = np.zeros((m + 1,) * d, dtype=np.complex128)
    for beta in itertools.product(*(range(m + 1),) * d):
        total = sum(beta)
        if total == 0 or total > m:
            continue
        term = psi.copy()
        fact = 1.0
        for j, b in enumerate(beta):
            if b:
                term = term * ipts[:, j] ** b
                fact *= math.factorial(b)
        u[beta] = complex(term.sum()) / fact
    return u


def _quadratic_hessian(q_coeffs, dim):
    """Symmetric H with Re(quadratic part of Q)(xi) = xi . H xi."""
    H = np.zeros((dim, dim))
    for beta, c in q_coeffs.items():
        if sum(beta) == 2:
            j, k = np.repeat(np.arange(dim), beta)
            H[j, k] = H[k, j] = c.real if j == k else c.real / 2.0
    return H


def _weight_assignments(null_axes, quad_axes, m_max, reverse=False):
    """All weight tuples: 1 on quadratic axes, even orders on null axes."""
    orders = range(4, m_max + 1, 2)
    for combo in itertools.product(orders[::-1] if reverse else orders,
                                   repeat=len(null_axes)):
        weights = [1] * (len(null_axes) + len(quad_axes))
        for j, two_m in zip(null_axes, combo):
            weights[j] = two_m // 2
        yield tuple(weights)


def _split_by_weight(coeffs, weights):
    """(survivors below homogeneity, kept part at |beta:2m| = 1)."""
    kept, survivors = {}, {}
    for beta, c in coeffs.items():
        h = sum(Fraction(b, 2 * m) for b, m in zip(beta, weights))
        if h == 1:
            kept[beta] = c
        elif h < 1:
            survivors[beta] = c
    return survivors, kept


def classify(sym, xi0, m_max=12, reverse_search=False):
    """Classify xi0 in Omega(phi) as positive-homogeneous type or not.

    ``reverse_search`` flips the null-axis order search direction; the result
    must not depend on it (uniqueness of the leading polynomial).
    """
    d = sym.dim
    series = gamma_taylor(sym, xi0, m_max)
    lin = series.linear()
    diagnostics = {"order": m_max}
    if np.max(np.abs(lin.real)) > DRIFT_REAL_TOL:
        diagnostics["reason"] = "linear term has a real component"
        return Classification(VERDICT_NOT, diagnostics=diagnostics)
    alpha = lin.imag.copy()

    # Q = -(Gamma - i alpha . xi): orders 2..m_max
    q = {beta: -c for beta, c in series.coeffs.items() if sum(beta) >= 2}
    if not q or max(abs(c) for c in q.values()) <= SUBHOMOGENEOUS_TOL:
        reason = ("pure translation (log-symbol is linear)"
                  if len(sym.source) == 1 else
                  f"no nonlinear content through order {m_max}")
        verdict = VERDICT_NOT if len(sym.source) == 1 else VERDICT_INDETERMINATE
        diagnostics["reason"] = reason
        return Classification(verdict, alpha=alpha, diagnostics=diagnostics)

    H = _quadratic_hessian(q, d)
    # off-diagonal mass below the sub-homogeneity tolerance is
    # indistinguishable from zero: keep the natural axis order then
    off = np.abs(H - np.diag(np.diag(H))).max() if d > 1 else 0.0
    if off <= 1e-9 * max(1.0, np.abs(H).max()):
        A = np.eye(d)
        evals = np.diag(H).copy()
    else:
        evals, A = np.linalg.eigh(H)
        A = _canonical_signs(A)
        evals = np.diag(A.T @ H @ A)
    if evals.min() < -1e-6:
        diagnostics["reason"] = "quadratic real part is indefinite"
        return Classification(VERDICT_NOT, alpha=alpha, diagnostics=diagnostics)

    quad_axes = [j for j in range(d) if evals[j] > NULL_EIGENVALUE_TOL]
    null_axes = [j for j in range(d) if evals[j] <= NULL_EIGENVALUE_TOL]
    q_rot = _poly.poly_compose_linear(q, A)

    samples = sphere_samples(d, 1000 * d)
    saw_vanishing_null_axis = False
    for weights in _weight_assignments(null_axes, quad_axes, m_max,
                                       reverse=reverse_search):
        survivors, kept = _split_by_weight(q_rot, weights)
        if survivors and max(abs(c) for c in survivors.values()) > SUBHOMOGENEOUS_TOL:
            continue
        # sign certification on each axis: the pure monomial xi_j^{2 m_j}
        # must be present with positive real part
        pure = [kept.get(tuple(2 * m if k == j else 0 for k in range(d)), 0.0)
                for j, m in enumerate(weights)]
        bad = next((c for c in pure
                    if abs(c) <= SUBHOMOGENEOUS_TOL or c.real <= 0.0), None)
        if bad is not None:
            saw_vanishing_null_axis |= abs(bad) <= SUBHOMOGENEOUS_TOL
            continue
        if _poly.CompiledPoly(kept, d)(samples).real.min() <= 0.0:
            continue
        kept = _poly.poly_prune(kept, 1e-13 * max(abs(c) for c in kept.values()))
        poly = HomogeneousPolynomial(d, kept, A, weights)
        res_norms = _residual_norms(q_rot, kept, weights, samples)
        diagnostics["residual_norms"] = res_norms
        diagnostics["weights"] = weights
        return Classification(VERDICT_PHT, alpha=alpha, poly=poly,
                              diagnostics=diagnostics)

    if saw_vanishing_null_axis and not _any_survivor_everywhere(
            q_rot, null_axes, quad_axes, m_max):
        diagnostics["reason"] = (
            f"order {m_max} insufficient: some null axis carries no "
            "sub-homogeneous obstruction but no positive pure term either")
        return Classification(VERDICT_INDETERMINATE, alpha=alpha,
                              diagnostics=diagnostics)
    diagnostics["reason"] = ("every admissible weight assignment leaves a "
                             "surviving sub-homogeneous term or a "
                             "non-positive kept part")
    return Classification(VERDICT_NOT, alpha=alpha, diagnostics=diagnostics)


def _any_survivor_everywhere(q_rot, null_axes, quad_axes, m_max):
    """True when every assignment is blocked by a surviving lower-order term."""
    return all(max(map(abs, _split_by_weight(q_rot, w)[0].values()), default=0.0)
               > SUBHOMOGENEOUS_TOL
               for w in _weight_assignments(null_axes, quad_axes, m_max))


def _residual_norms(q_rot, kept, weights, samples):
    """Numerical surrogate for Upsilon = o(Re P): max |t Q(t^-E xi) - P(xi)|
    over the samples at t = 10, 100, 1000.

    t Q(t^-E xi) - P(xi) is the polynomial with coefficients
    q_beta t^(1 - |beta:2m|) less the kept ones, stacked over the three t and
    evaluated once; |beta:2m| is exact, so P's terms cancel exactly.
    """
    ts = np.array([10.0, 100.0, 1000.0])
    # a zero constant term fixes the coefficient shape when all of Q is kept
    residual = {(0,) * len(weights): np.zeros(len(ts))}
    for beta, c in q_rot.items():
        if beta not in kept:
            h = sum(Fraction(b, 2 * m) for b, m in zip(beta, weights))
            residual[beta] = c * ts ** float(1 - h)
    norms = np.abs(_poly.CompiledPoly(residual, len(weights))(samples)).max(axis=0)
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
    def ok(self):
        return (len(self.points) > 0
                and all(p.classification.ok for p in self.points))

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

    A single-point support (c delta_y) has |phi-hat| constant equal to one, so
    Omega is the whole torus; the analysis reports the canonical representative
    0 with the pure-translation diagnostic instead of enumerating a continuum.
    ``find_omega`` works from the Newton endpoints of the scan that
    normalized f, so f is scanned once.

    A point is classified only when no point classified before it lies in
    its coset of 2 pi L*, L the lattice spanned by supp phi - x0 (x0 the
    first support point): xi and xi' share a coset when
    |e^{i (xi - xi').(x - x0)} - 1| <= ``COSET_TOL`` on supp phi.  Both then
    hold the same :class:`Classification` object.  This is exact, since
    phi-hat(eta + xi) = e^{i (xi - xi').x0} phi-hat(eta + xi') for every eta,
    so Gamma_xi = Gamma_xi'.
    """
    g, scale, scan = _normalize(f)
    sym = SymbolView(g)
    if len(g) == 1:
        xi = np.zeros(g.dim)
        val = sym.evaluate(xi)
        cls = Classification(VERDICT_NOT,
                             alpha=g.points[0].astype(float),
                             diagnostics={"reason": "pure translation "
                                                    "(log-symbol is linear)"})
        phase = _principal_angle(np.array([val]))
        pa = PointAnalysis(xi=xi, value=complex(val), phase=float(phase[0]),
                           classification=cls)
        omega = OmegaSet(points=xi[None, :], values=np.array([val]), phases=phase)
        return SpectralAnalysis(function=g, scale=scale, scan=scan, omega=omega,
                                points=[pa], mu_phi=None, minimal=[])
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
        points.append(PointAnalysis(xi=xi, value=complex(val), phase=float(ph),
                                    classification=cls))
    mu_phi = None
    minimal = []
    if points and all(p.classification.ok for p in points):
        mus = [p.classification.mu for p in points]
        mu_phi = min(mus)
        minimal = [i for i, m in enumerate(mus) if m == mu_phi]
    return SpectralAnalysis(function=g, scale=scale, scan=scan, omega=omega,
                            points=points, mu_phi=mu_phi, minimal=minimal)
