"""Exact evaluation of phi-hat as a trigonometric polynomial, normalization,
and location of the unit-modulus set Omega(phi).

phi-hat(xi) = sum_x phi(x) e^{i x.xi} is evaluated term by term (exact to
rounding, valid for complex arguments); derivatives come from the moment
formula d^beta phi-hat(xi) = sum_x (ix)^beta phi(x) e^{i x.xi}, never from
finite differences.  The global maximum of |phi-hat| is located by a uniform
torus grid scan (FFT-sampled, adaptively refined) followed by Newton ascent on
|phi-hat|^2 using exact derivatives.  Grid density is a practical choice, not
a certificate; pathologically narrow peaks would need a finer starting grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from . import _config
from .errors import NotNormalizedError, ZeroFunctionError
from .lattice import LatticeFunction

TWO_PI = 2.0 * np.pi
DEDUPE_RADIUS = 1e-6
# Newton endpoints this close share one extended-precision polish: on the
# corpus the worst endpoint lies 7.9e-5 from its Omega point (ex73), and
# distinct Omega points lie at least 1.9 apart
CLUSTER_RADIUS = 1e-3


class SymbolView:
    """Trigonometric-polynomial view of phi-hat, evaluated term by term."""

    def __init__(self, source):
        if not len(source):
            raise ZeroFunctionError("cannot build a symbol for the zero function")
        self.source = source
        self.dim = source.dim

    def evaluate(self, z):
        """phi-hat(z) for real or complex z of shape (d,) or (..., d)."""
        return self.derivative((0,) * self.dim, z)

    def derivative(self, beta, z):
        """d^beta phi-hat at z via the exact moment formula."""
        z = np.asarray(z)
        scalar = z.ndim == 1
        pts = z[None, :] if scalar else z
        f = self.source
        w = f.values.copy()
        for j, b in enumerate(beta):
            if b:
                w = w * (1j * f.points[:, j]) ** b
        phase = pts @ f.points.T.astype(float) if not np.iscomplexobj(pts) \
            else pts @ f.points.T.astype(complex)
        out = np.exp(1j * phase) @ w
        return complex(out[0]) if scalar else out

    # -- gradient / hessian of g = |phi-hat|^2 (exact) -----------------------

    def abs2_grad_hess(self, xi):
        """(g, grad g, hess g) for g = |phi-hat|^2 at a real point."""
        f = self.source
        phase = f.points.astype(float) @ np.asarray(xi, dtype=float)
        e = np.exp(1j * phase)
        val = e @ f.values
        grad = np.array([(1j * f.points[:, j] * e) @ f.values
                         for j in range(self.dim)])
        hess = np.empty((self.dim, self.dim), dtype=np.complex128)
        for j in range(self.dim):
            for k in range(j, self.dim):
                hjk = (-(f.points[:, j] * f.points[:, k]).astype(float) * e) @ f.values
                hess[j, k] = hess[k, j] = hjk
        g = (val * val.conjugate()).real
        gg = 2.0 * (np.conjugate(val) * grad).real
        gh = 2.0 * (np.outer(np.conjugate(grad), grad)
                    + np.conjugate(val) * hess).real
        return g, gg, gh


@dataclass(frozen=True)
class OmegaSet:
    """Unit-modulus points of phi-hat on the fundamental torus (-pi, pi]^d."""

    points: np.ndarray      # (k, d) radians
    values: np.ndarray      # (k,) phi-hat there
    phases: np.ndarray      # (k,) principal arguments in (-pi, pi]

    def __len__(self):
        return self.points.shape[0]


def _grid_abs(f, n):
    """|phi-hat| sampled on the uniform torus grid xi_k = 2 pi k / n (exact FFT)."""
    shape = (n,) * f.dim
    emb = np.zeros(shape, dtype=np.complex128)
    idx = tuple(np.mod(f.points[:, k], n) for k in range(f.dim))
    np.add.at(emb, idx, f.values)
    vals = sfft.ifftn(emb, workers=_config.FFT_WORKERS) * (n ** f.dim)
    return np.abs(vals)


def _default_grid(dim):
    return _config.OMEGA_GRID_DEFAULT if dim <= 2 else _config.OMEGA_GRID_HIGH_DIM


def _newton_polish(sym, xi0, max_iter=100):
    """Ascend |phi-hat|^2 to a stationary point; returns (xi, converged)."""
    xi = np.array(xi0, dtype=float)
    for _ in range(max_iter):
        g, grad, hess = sym.abs2_grad_hess(xi)
        gn = np.linalg.norm(grad)
        if gn < 1e-12:
            return xi, True
        step = None
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            pass
        if step is None or not np.all(np.isfinite(step)) or np.linalg.norm(step) > 0.5:
            step = grad / max(gn, 1.0) * 0.1
        # backtrack on the ascent condition
        t = 1.0
        for _ in range(30):
            g_new = sym.abs2_grad_hess(xi + t * step)[0]
            if g_new >= g - 1e-18:
                break
            t *= 0.5
        xi = xi + t * step
    return xi, np.linalg.norm(sym.abs2_grad_hess(xi)[1]) < 1e-12


def _mp_polish(f, xi, digits=60, max_iter=250):
    """Extended-precision Newton on grad |phi-hat|^2 = 0.

    Flat (quartic or higher) directions leave the double-precision gradient
    below its own rounding noise while the point is still ~1e-5 off; a few
    Newton steps at ``digits`` (60) digits close the gap to well under 1e-12.
    ``find_omega`` runs it once per cluster of Newton endpoints, not once
    per seed.
    """
    import mpmath as mp

    with mp.workdps(digits):
        pts = [[mp.mpf(int(c)) for c in p] for p in f.points]
        vals = [mp.mpc(v) for v in f.values]
        d = f.dim
        x = [mp.mpf(float(c)) for c in xi]
        tol = mp.mpf(10) ** (-(2 * digits) // 3)
        for _ in range(max_iter):
            e = [mp.exp(mp.mpc(0, sum(p[j] * x[j] for j in range(d))))
                 for p in pts]
            val = sum(v * ek for v, ek in zip(vals, e))
            grad = [sum(mp.mpc(0, 1) * p[j] * v * ek
                        for p, v, ek in zip(pts, vals, e)) for j in range(d)]
            gg = [2 * (mp.conj(val) * grad[j]).real for j in range(d)]
            gn = mp.sqrt(sum(c * c for c in gg))
            if gn < tol:
                break
            hess = mp.matrix(d, d)
            for j in range(d):
                for k in range(j, d):
                    hjk = sum(-p[j] * p[k] * v * ek
                              for p, v, ek in zip(pts, vals, e))
                    h = 2 * ((mp.conj(grad[j]) * grad[k]).real
                             + (mp.conj(val) * hjk).real)
                    hess[j, k] = hess[k, j] = h
            try:
                step = mp.lu_solve(hess, mp.matrix([-c for c in gg]))
                too_long = mp.sqrt(sum(step[j] ** 2 for j in range(d))) > mp.mpf("0.5")
            except Exception:
                too_long = True
            if too_long:
                step = mp.matrix([c / max(gn, mp.mpf(1)) * mp.mpf("0.1")
                                  for c in gg])
            for j in range(d):
                x[j] += step[j]
        return np.array([float(c) for c in x])


def _wrap_torus(xi):
    """Canonicalize into (-pi, pi]^d; near-boundary points map to +pi."""
    out = np.mod(np.asarray(xi, dtype=float) + np.pi, TWO_PI) - np.pi
    out[out <= -np.pi + DEDUPE_RADIUS] += TWO_PI
    return out


def _torus_dist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.linalg.norm(np.minimum(d, TWO_PI - d))


def locate_sup(sym, grid_n=None):
    """Global maximum of |phi-hat|: adaptive grid scan plus Newton polish.

    The scan is doubled until the polished maximum moves by < 1e-12 (the raw
    grid maximum only converges quadratically in the spacing, so the polished
    value is the stable quantity).  Returns (sup value, argmax point).
    """
    f = sym.source
    n = grid_n or _default_grid(f.dim)
    prev = -np.inf
    best = (0.0, np.zeros(f.dim))
    while True:
        vals = _grid_abs(f, n)
        flat = int(np.argmax(vals))
        idx = np.unravel_index(flat, vals.shape)
        xi0 = _wrap_torus(np.array(idx, dtype=float) * TWO_PI / n)
        xi, _ = _newton_polish(sym, xi0)
        xi = _wrap_torus(xi)
        cur = abs(sym.evaluate(xi))
        if cur > best[0]:
            best = (cur, xi)
        if abs(cur - prev) < 1e-12:
            break
        cells = (2 * n) ** f.dim
        if cells * 16 > _config.MEMORY_CAP_BYTES:
            break
        prev = cur
        n *= 2
    return best


def normalize(f, grid_n=None):
    """Rescale so sup |phi-hat| = 1; returns (function, applied scale).

    The scale is the real positive multiplier 1 / sup |phi-hat|.
    """
    if not len(f):
        raise ZeroFunctionError("cannot normalize the zero function")
    sup, _ = locate_sup(SymbolView(f), grid_n=grid_n)
    if sup < 1e-300:
        raise ZeroFunctionError("symbol has vanishing supremum")
    scale = 1.0 / sup
    return f.scale(scale), scale


def find_omega(sym, grid_n=None, tol=1e-9):
    """Locate Omega(phi) = {xi : |phi-hat(xi)| = 1} for a normalized symbol.

    Seeds are grid local maxima with |phi-hat|^2 > 1 - 1e-3, polished by
    Newton ascent on |phi-hat|^2.  Converged endpoints are clustered in seed
    order (radius ``CLUSTER_RADIUS``) and only the first of each cluster gets
    the extended-precision polish, plus any member farther than the radius
    from that polished point.  Polished points within tol of modulus one are
    kept and deduplicated (radius 1e-6 in the torus metric).
    """
    f = sym.source
    n = grid_n or _default_grid(f.dim)
    vals = _grid_abs(f, n)
    sup = float(vals.max())
    if abs(sup - 1.0) > 1e-3:
        raise NotNormalizedError(
            f"grid sup |phi-hat| = {sup:.6g}; normalize first")
    mask = vals ** 2 > 1.0 - 1e-3
    # keep only seeds that are cyclic local maxima: each peak/plateau
    # contributes a handful of starts instead of its whole basin
    local = np.ones_like(mask)
    for axis in range(f.dim):
        for shift in (1, -1):
            local &= vals >= np.roll(vals, shift, axis=axis)
    seeds = np.argwhere(mask & local)
    order = np.argsort(-vals[tuple(seeds.T)], kind="stable")
    seeds = seeds[order]

    found_pts, found_vals = [], []
    clusters = []  # (first Newton endpoint, its polished point) per cluster
    for idx in seeds:
        xi0 = _wrap_torus(idx.astype(float) * TWO_PI / n)
        end, converged = _newton_polish(sym, xi0)
        if not converged:
            warnings.warn(f"Newton ascent did not converge from seed {xi0}; dropped",
                          RuntimeWarning)
            continue
        rep = next((c for c in clusters
                    if _torus_dist(end, c[0]) <= CLUSTER_RADIUS), None)
        if rep is not None and _torus_dist(end, rep[1]) <= CLUSTER_RADIUS:
            continue  # it would polish onto rep[1], already kept or rejected
        xi = _wrap_torus(_mp_polish(f, end))
        if rep is None:
            clusters.append((end, xi))
        val = sym.evaluate(xi)
        if abs(val) < 1.0 - tol:
            continue
        if any(_torus_dist(xi, p) < DEDUPE_RADIUS for p in found_pts):
            continue
        found_pts.append(xi)
        found_vals.append(val)
    pts = np.array(found_pts).reshape(-1, f.dim)
    order = np.lexsort(pts.T[::-1])
    vals_arr = np.array(found_vals, dtype=np.complex128)[order]
    return OmegaSet(points=pts[order], values=vals_arr, phases=np.angle(vals_arr))


@dataclass(frozen=True)
class VonNeumannResult:
    satisfied: bool
    maximum: float
    argmax: np.ndarray

    def __bool__(self):
        return self.satisfied


def check_von_neumann(sym, grid_n=None):
    """sup |phi-hat| <= 1 + 1e-9, with the located maximum."""
    sup, arg = locate_sup(sym, grid_n=grid_n)
    return VonNeumannResult(satisfied=sup <= 1.0 + 1e-9, maximum=sup, argmax=arg)


def phase_consistency_check(f, omega, tol=1e-9):
    """For probability inputs: e^{i x.xi} = e^{i omega(xi)} on supp(phi)."""
    for xi, ph in zip(omega.points, omega.phases):
        z = np.exp(1j * (f.points.astype(float) @ xi))
        if np.max(np.abs(z - np.exp(1j * ph))) > tol:
            return False
    return True
