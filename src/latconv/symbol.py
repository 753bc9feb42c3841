"""Exact evaluation of phi-hat as a trigonometric polynomial, normalization,
and location of the unit-modulus set Omega(phi).

phi-hat(xi) = sum_x phi(x) e^{i x.xi} is evaluated term by term (exact to
rounding, valid for complex arguments); derivatives come from the moment
formula d^beta phi-hat(xi) = sum_x (ix)^beta phi(x) e^{i x.xi}, never from
finite differences.  The global maximum of |phi-hat| and the set Omega(phi)
come from one uniform torus grid scan (FFT-sampled) and one batched Newton
ascent on |phi-hat|^2, using exact derivatives, from all of its seeds
(``newton_ascent``, the one ascent of the package, which the Legendre
transform shares), all in double precision; ``expansion.classify`` centres
flat maxima.

The grid is sized by Bernstein's inequality for exponential sums.  Let K be
the Euclidean radius of supp phi about the centre c of its bounding box.
Along any line, e^{-i c.xi} phi-hat is an exponential sum whose frequencies
are at most K in modulus, so |(|phi-hat|^2)''| <= 4 K^2 sup^2.  A global
maximiser has zero gradient and lies at most sqrt(d) pi / n from a point of
the n-per-axis grid, where therefore |phi-hat|^2 >= (1 - s) sup^2 with slack
s = 2 K^2 d (pi / n)^2.  The grid is the smallest 11-smooth n with s <=
``SLACK_MAX``, so its density comes from the bound alone, and Newton starts
from every cyclic grid local maximum with |phi-hat|^2 >= (1 - s) times the
grid maximum squared: the grid point next to every global maximiser clears
that threshold, however narrow its peak.  The depth s is never small: the
worst gap between 11-smooth lengths at or above 12 is from 12 to 14, and a
support of two or more points has n >= 10, so s >= 0.05 (12/14)^2 = 0.037.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import NotNormalizedError, ZeroFunctionError
from .lattice import _check_box

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps
DEDUPE_RADIUS = 1e-6
# the scan grid is the smallest fast length whose Bernstein slack s is at
# most this; on the corpus s lies in [0.0439, 0.0494]
SLACK_MAX = 0.05
# a Hessian eigenvalue below -CONCAVE_SPLIT times the largest in modulus is a
# concave direction for ``_newton_steps``.  ex74 modulated by e^{i (1, 0.7).x}
# has an Omega seed whose sextic axis reads -2.66e-9 relative: a split at 1e-8
# counts it flat, and that seed stalls at |grad| = 2.75e-12 and is dropped
CONCAVE_SPLIT = 1e-12


class SymbolView:
    """Trigonometric-polynomial view of phi-hat, evaluated term by term.

    Terms are formed elementwise, their phases summed in axis order, and
    added along the support axis, not by matrix products, so a row rounds
    the same in any batch.
    """

    def __init__(self, source):
        if not len(source):
            raise ZeroFunctionError("cannot build a symbol for the zero function")
        self.source = source
        self.dim = source.dim
        self._pts = source.points.T.astype(float)            # (d, m)

    def _terms(self, z, w):
        """w e^{i z.x} per support point x: shape (..., m) for z (..., d)."""
        return np.exp(1j * (z[..., :, None] * self._pts).sum(axis=-2)) * w

    def evaluate(self, z):
        """phi-hat(z) for real or complex z of shape (d,) or (..., d)."""
        return self.derivative((0,) * self.dim, z)

    def derivative(self, beta, z):
        """d^beta phi-hat at z via the exact moment formula."""
        z = np.asarray(z)
        scalar = z.ndim == 1
        f = self.source
        w = f.values
        for j, b in enumerate(beta):
            if b:
                w = w * (1j * f.points[:, j]) ** b
        out = self._terms(z[None, :] if scalar else z, w).sum(axis=-1)
        return complex(out[0]) if scalar else out

    # -- gradient / hessian of g = |phi-hat|^2 (exact) -----------------------

    def abs2_grad_hess(self, xi):
        """(g, grad g, hess g) for g = |phi-hat|^2 at real points xi (k, d),
        one row each."""
        pts = self._pts
        terms = self._terms(np.asarray(xi, dtype=float), self.source.values)
        val = terms.sum(axis=-1)
        grad = (terms[:, None, :] * (1j * pts)).sum(axis=-1)
        hess = (terms[:, None, None, :] * -(pts[:, None, :] * pts)).sum(axis=-1)
        cval = val.conjugate()
        g = (val * cval).real
        gg = 2.0 * (cval[:, None] * grad).real
        gh = 2.0 * (grad.conjugate()[:, :, None] * grad[:, None, :]
                    + cval[:, None, None] * hess).real
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
    """|phi-hat| sampled on the uniform torus grid xi_k = 2 pi k / n (exact FFT).

    The embedding is transformed in place, so the grid costs one complex and
    one real array; the cap budgets two complex arrays before any is made.
    """
    shape = (n,) * f.dim
    _check_box(shape, complex_arrays=2)
    emb = np.zeros(shape, dtype=np.complex128)
    idx = tuple(np.mod(f.points[:, k], n) for k in range(f.dim))
    np.add.at(emb, idx, f.values)
    return np.abs(_fft.ifftn(emb, norm="forward"))


def _slack(f, n):
    """Bernstein slack s = 2 K^2 d (pi / n)^2 of an n-per-axis grid."""
    lo, hi = f.extent()
    radius2 = ((f.points - (lo + hi) / 2.0) ** 2).sum(axis=1).max()
    return 2.0 * float(radius2) * f.dim * (np.pi / n) ** 2


def _grid_size(f):
    """Smallest 11-smooth n per axis with Bernstein slack s <= ``SLACK_MAX``:
    s falls as 1 / n^2, so n >= sqrt(s_1 / SLACK_MAX), s_1 the slack at n = 1."""
    return _fft.next_fast_len(math.ceil(math.sqrt(_slack(f, 1) / SLACK_MAX)))


def _grid_seeds(vals, depth):
    """Grid indices of the cyclic local maxima with vals^2 >= (1 - depth)
    vals.max()^2, by value descending (stable in row-major order)."""
    keep = vals ** 2 >= (1.0 - depth) * float(vals.max()) ** 2
    # only cyclic local maxima: each peak/plateau contributes a handful of
    # starts instead of its whole basin
    for axis in range(vals.ndim):
        for shift in (1, -1):
            keep &= vals >= np.roll(vals, shift, axis=axis)
    seeds = np.argwhere(keep)
    return seeds[np.argsort(-vals[tuple(seeds.T)], kind="stable")]


def _newton_steps(hess, grad, unit, max_step):
    """One ascent step per row, from the eigen-decomposition of its Hessian.

    A row whose eigenvalues all lie below -``CONCAVE_SPLIT`` times the
    largest in modulus takes the Newton step ``-hess^-1 grad`` (``solve``)
    when it is at most ``max_step`` long.  Every other row takes Newton,
    ``-(v.grad) / lam``, along each such concave eigen-direction v and the
    gradient component ``(v.grad) / max(max |lam|, unit)`` along each flat
    or convex one, cut to ``max_step`` long: a step that is always uphill.

    A degenerate maximum (a support on a line, say) makes the Hessian
    singular along a flat direction: Newton then fails or steps far along
    it, while this step climbs the concave directions at Newton's rate and
    keeps the gradient along the flat one.  ``eigh`` and ``solve`` factor
    each row's matrix alone, so a row's step does not depend on the rows
    beside it.
    """
    lam, vec = np.linalg.eigh(hess)
    top = np.abs(lam).max(axis=1)
    concave = lam < -CONCAVE_SPLIT * top[:, None]
    newton = concave.all(axis=1)
    step = np.zeros_like(grad)
    step[newton] = np.linalg.solve(hess[newton], -grad[newton, :, None])[..., 0]
    rest = ~(newton & (np.linalg.norm(step, axis=1) <= max_step))
    if rest.any():
        lam, vec, concave = lam[rest], vec[rest], concave[rest]
        comp = (vec * grad[rest, :, None]).sum(axis=1)   # v.grad per eigen-direction
        rate = np.where(concave, -lam, np.maximum(top[rest], unit[rest])[:, None])
        cut = (vec * (comp / rate)[:, None, :]).sum(axis=2)
        step[rest] = cut * np.minimum(1.0, max_step / np.linalg.norm(cut, axis=1))[:, None]
    return step


def newton_ascent(fun, x0, tol, max_step=np.inf, relative=False, max_iter=100):
    """Damped Newton ascent of one objective per row of x0.

    ``fun(rows, x)`` gives the value (k,), gradient (k, d) and Hessian
    (k, d, d) of the objectives of ``rows`` (indices into x0) at the points
    x (k, d).  A row has converged once |grad| < ``tol`` times its unit: 1,
    or with ``relative`` its value at x0 (1 where that is 0), so that a
    positive multiple of the objective ascends the same way.  Each step (see
    ``_newton_steps``) is halved, up to 29 times, until the value falls by
    at most the rounding slack 4 eps max(|value|, unit): at the top, the
    last Newton step can lower the computed value by an ulp, and refusing it
    would leave the gradient above tolerance for good.  A row also leaves
    when its step gains nothing, that is when no length is accepted or when
    the accepted one is shortened and does not raise the value.  Only live
    rows are evaluated, and the evaluation at an accepted point serves the
    next step, so a row's arithmetic does not depend on the rows beside it
    when ``fun``'s does not.

    Returns (x, value, converged) after at most ``max_iter`` steps per row.
    """
    x = np.array(x0, dtype=float)
    rows = np.arange(len(x))
    val, grad, hess = fun(rows, x)
    unit = np.where(val != 0.0, np.abs(val), 1.0) if relative else np.ones(len(x))
    converged = np.zeros(len(x), dtype=bool)
    for it in range(max_iter + 1):
        gn = np.linalg.norm(grad, axis=1)
        done = gn < tol * unit[rows]
        converged[rows[done]] = True
        live = ~done
        rows, grad, hess = rows[live], grad[live], hess[live]
        if it == max_iter or not len(rows):
            break
        step = _newton_steps(hess, grad, unit[rows], max_step)
        cur = val[rows]
        slack = 4 * EPS * np.maximum(np.abs(cur), unit[rows])
        moved = np.zeros(len(rows), dtype=bool)
        todo = np.arange(len(rows))  # positions in rows with no accepted length
        t = 1.0
        for _ in range(30):
            cand = x[rows[todo]] + t * step[todo]
            cval, cgrad, chess = fun(rows[todo], cand)
            ok = cval >= cur[todo] - slack[todo]
            gain = ok & ((t == 1.0) | (cval > cur[todo]))
            hit = todo[gain]
            x[rows[hit]] = cand[gain]
            val[rows[hit]] = cval[gain]
            grad[hit], hess[hit] = cgrad[gain], chess[gain]
            moved[hit] = True
            todo = todo[~ok]
            if not len(todo):
                break
            t *= 0.5
        rows, grad, hess = rows[moved], grad[moved], hess[moved]
    return x, val, converged


def _wrap_torus(xi):
    """Canonicalize into (-pi, pi]^d; near-boundary points map to +pi."""
    out = np.mod(np.asarray(xi, dtype=float) + np.pi, TWO_PI) - np.pi
    out[out <= -np.pi + DEDUPE_RADIUS] += TWO_PI
    return out


def _one_maximum(sym, a, bs, tol):
    """Per row b of ``bs``: whether |phi-hat| >= 1 - tol at the midpoint of
    the shortest torus path from a to b and then at points of it at most
    sqrt(2 SLACK_MAX) / K apart, up to b: by Bernstein's bound |phi-hat|^2
    stays above 1 - 2 tol - SLACK_MAX on the whole path.  (A midpoint can be
    a third point of Omega: phim:2,3.)"""
    diff = np.mod(np.atleast_2d(bs) - a + np.pi, TWO_PI) - np.pi
    up = np.abs(sym.evaluate(a + diff / 2.0)) >= 1.0 - tol
    K = math.sqrt(_slack(sym.source, 1) / (2 * sym.dim * np.pi ** 2))
    for j in np.flatnonzero(up):
        n = max(2, math.ceil(np.linalg.norm(diff[j]) * K / math.sqrt(2 * SLACK_MAX)))
        path = a + np.arange(1, n + 1)[:, None] / n * diff[j]
        up[j] = (np.abs(sym.evaluate(path)) >= 1.0 - tol).all()
    return up


@dataclass(frozen=True)
class TorusScan:
    """One grid scan of |phi-hat| and the Newton ascent from each of its seeds.

    Unpacks as ``(sup, argmax)``.
    """

    sup: float              # largest |phi-hat| over the endpoints
    argmax: np.ndarray      # (d,) that endpoint, in (-pi, pi]^d
    seeds: np.ndarray       # (k, d) seed grid points, by grid value descending
    endpoints: np.ndarray   # (k, d) Newton endpoint of each seed, not wrapped
    converged: np.ndarray   # (k,) whether Newton converged there
    grid: int               # points per axis; 0 when nothing was scanned
    slack: float            # Bernstein slack s of that grid

    def __iter__(self):
        return iter((self.sup, self.argmax))


def locate_sup(sym):
    """Global maximum of |phi-hat|: one certified grid scan plus Newton ascent.

    The grid has the fewest points per axis, n, that is 11-smooth and keeps
    the Bernstein slack s = 2 K^2 d (pi/n)^2 at most ``SLACK_MAX`` (see the
    module docstring), and is checked against the memory cap before it is
    allocated: ``ResourceLimitError`` when the certified density does not
    fit.  One batched ``newton_ascent`` on |phi-hat|^2 (gradient tolerance
    1e-12 relative, steps at most 0.5 long) runs from every cyclic grid
    local maximum with |phi-hat|^2 >= (1 - s) times the grid maximum
    squared; the supremum is the largest |phi-hat| over the endpoints,
    which ``analyze`` hands on to ``find_omega``.  A single-point
    support c delta_y has the flat symbol |phi-hat| = |c|, so it gets |c| at
    0 with no scan and no ascent.

    Returns a ``TorusScan``, which unpacks as (sup value, argmax point).
    """
    f = sym.source
    if len(f) == 1:
        zero = np.zeros((1, f.dim))
        return TorusScan(sup=float(abs(f.values[0])), argmax=zero[0], seeds=zero,
                         endpoints=zero, converged=np.ones(1, dtype=bool),
                         grid=0, slack=0.0)
    n = _grid_size(f)
    slack = _slack(f, n)
    idx = _grid_seeds(_grid_abs(f, n), slack)
    seeds = _wrap_torus(idx.astype(float) * TWO_PI / n)
    endpoints, _, converged = newton_ascent(
        lambda rows, xi: sym.abs2_grad_hess(xi), seeds, 1e-12, max_step=0.5,
        relative=True)
    tops = [_wrap_torus(end) for end in endpoints]
    values = [abs(sym.evaluate(xi)) for xi in tops]
    best = int(np.argmax(values))
    return TorusScan(sup=values[best], argmax=tops[best], seeds=seeds,
                     endpoints=endpoints, converged=converged, grid=n, slack=slack)


def _normalize(f):
    """``normalize``, plus the ``TorusScan`` of f that found the supremum."""
    if not len(f):
        raise ZeroFunctionError("cannot normalize the zero function")
    scan = locate_sup(SymbolView(f))
    if scan.sup < 1e-300:
        raise ZeroFunctionError("symbol has vanishing supremum")
    scale = 1.0 / scan.sup
    return f.scale(scale), scale, scan


def normalize(f):
    """Rescale so sup |phi-hat| = 1; returns (function, applied scale).

    The scale is the real positive multiplier 1 / sup |phi-hat|, with the
    supremum from ``locate_sup``.
    """
    g, scale, _ = _normalize(f)
    return g, scale


def find_omega(sym, tol=1e-9, scan=None):
    """Locate Omega(phi) = {xi : |phi-hat(xi)| = 1} for a normalized symbol.

    The Newton endpoints come from ``scan``, a ``locate_sup`` result for phi
    or a positive multiple of it (``analyze`` passes the scan that normalized
    its input); without one, ``locate_sup(sym)`` runs here.  Its
    seeds are the cyclic grid local maxima with |phi-hat|^2 >= (1 - s) times
    the grid maximum squared, s the grid's Bernstein slack.  Converged
    endpoints within tol of modulus one are taken in seed order, less those
    on the maximum of a kept one (``_one_maximum``): on a flat maximum they
    can lie 2e-2 off it, and ``expansion.classify`` finds its centre.  A seed
    whose ascent did not converge is dropped, with a warning unless its
    endpoint is on the maximum of a kept point.  Points
    are ordered by coordinates rounded to 1e-9; phases are the principal
    arguments in (-pi, pi] (see ``_principal_angle``).
    """
    f = sym.source
    if scan is None:
        scan = locate_sup(sym)
    sup = abs(sym.evaluate(scan.argmax))
    if abs(sup - 1.0) > 1e-3:
        raise NotNormalizedError(f"sup |phi-hat| = {sup:.6g}; normalize first")

    found_pts, found_vals, lost = [], [], []
    for xi0, end, converged in zip(scan.seeds, scan.endpoints, scan.converged):
        xi = _wrap_torus(end)
        if not converged:
            lost.append((xi0, xi))
            continue
        val = sym.evaluate(xi)
        if abs(val) < 1.0 - tol:
            continue
        if found_pts and _one_maximum(sym, xi, found_pts, tol).any():
            continue  # one maximum with a kept endpoint
        found_pts.append(xi)
        found_vals.append(val)
    for xi0, xi in lost:
        if not (found_pts and _one_maximum(sym, xi, found_pts, tol).any()):
            warnings.warn(f"Newton ascent did not converge from seed {xi0}; dropped",
                          RuntimeWarning)
    pts = np.array(found_pts).reshape(-1, f.dim)
    order = np.lexsort(np.round(pts, 9).T[::-1])  # not reordered by rounding
    vals_arr = np.array(found_vals, dtype=np.complex128)[order]
    return OmegaSet(points=pts[order], values=vals_arr,
                    phases=_principal_angle(vals_arr))


def _principal_angle(z):
    """arg z in (-pi, pi].  ``np.angle`` returns -pi at a negative real z
    whose imaginary part is -0.0 or rounds below the real axis (-1 - 6e-33j
    at srw:3's (pi, pi, pi)); that is folded to pi."""
    ph = np.angle(z)
    return np.where(ph == -np.pi, np.pi, ph)


@dataclass(frozen=True)
class VonNeumannResult:
    satisfied: bool
    maximum: float
    argmax: np.ndarray


def check_von_neumann(sym):
    """sup |phi-hat| <= 1 + 1e-9, with the maximum ``locate_sup`` found."""
    sup, arg = locate_sup(sym)
    return VonNeumannResult(satisfied=sup <= 1.0 + 1e-9, maximum=sup, argmax=arg)


def phase_consistency_check(f, omega, tol=1e-9):
    """For probability inputs: e^{i x.xi} = e^{i omega(xi)} on supp(phi)."""
    for xi, ph in zip(omega.points, omega.phases):
        z = np.exp(1j * (f.points.astype(float) @ xi))
        if np.max(np.abs(z - np.exp(1j * ph))) > tol:
            return False
    return True
