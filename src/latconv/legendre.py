"""Numerical Legendre-Fenchel transform of R = Re P.

R need not be convex (the expansion can keep mixed terms), so the conjugate
R#(x) = sup_xi {x.xi - R(xi)} is solved at unit scale, R#(x) = t R#(u) for
x = t^F u (``HomogeneousPolynomial.polar``), by a certified coarse-grid scan
and one ascent per point from its grid argmax: one grid radius per evaluator,
grown until the objective is negative on the boundary for every u, pins the
maximizer inside whatever the batch, and a point never returns less than its
grid value.  The ascent is ``symbol.newton_ascent``, the one the Omega scan
runs: Newton along the objective's concave eigen-directions and its gradient
along the rest, so it climbs where R is not convex or its Hessian is
singular.  On the corpus this one ascent is within 7.4e-14 relative of the
best of a further 64 (d = 2) or 512 (d = 3) random starts per point.
``conjugate_batch`` is the one evaluation path: the query points form one
batch of numpy rows, and a row leaves once it stops moving.
"""

from __future__ import annotations

import numpy as np

from .homogeneous import sphere_samples
from .lattice import _block_boxes, _blocks, _check_box
from .symbol import newton_ascent

_SEED = 4242
# grid points per axis of the scan whose argmax starts each ascent
_SCAN_AXIS = 64
# objective cells per block of the grid scan (8 MiB of float64)
_SCAN_BLOCK_CELLS = 2 ** 20


class ConjugateEvaluator:
    """Evaluator of the convex conjugate of Re P."""

    def __init__(self, P):
        self.P = P
        self.dim = P.dim
        # the grid radius: the objective is < 0 on the grid boundary for
        # every u of the E-adapted unit sphere, where |u| <= ||A^-1||_2
        umax = float(np.linalg.norm(P.basis_inv, 2))
        dirs = sphere_samples(self.dim, 64 * self.dim, seed=_SEED + 9)
        self.rho, sqrt_d = 1.0, np.sqrt(self.dim)
        for _ in range(200):
            if P.real(self.rho * dirs).min() > umax * self.rho * sqrt_d + 1.0:
                break
            self.rho *= 2.0

    # -- batched ascent ------------------------------------------------------

    def _ascend_batch(self, xs, xis):
        """Maximize xi.x - R(xi) from xis (one start per row) by
        ``newton_ascent`` (|grad| < 1e-10, steps of any length, 50 steps).

        Where R is not convex the step climbs the objective's concave
        directions by Newton and the others by its gradient, so an ascent
        does not stop where ``real_hess`` is singular, as it is at two of
        ex73's 4,096 unit-circle directions.
        """
        xs = np.asarray(xs, dtype=float)

        def objective(rows, x):
            value = np.einsum("kd,kd->k", x, xs[rows]) - self.P.real(x)
            return value, xs[rows] - self.P.real_grad(x), -self.P.real_hess(x)

        xi, val, _ = newton_ascent(objective, xis, 1e-10, max_iter=50)
        return val, xi

    def _grid_scan_batch(self, xs, rho):
        """Best grid point of the objective per query row, in blocks of rows.

        A block holds about ``_SCAN_BLOCK_CELLS`` objective cells and at least
        8 rows: a one-row block takes numpy's matrix-vector product, whose
        rounding differs from the matrix product's.
        """
        cells = _SCAN_AXIS ** self.dim
        block = max(8, _SCAN_BLOCK_CELLS // cells)
        n_blocks = max(1, len(xs) // block)
        # float arrays: the mesh and the points (d each), Re P and one block
        _check_box((_SCAN_AXIS,) * self.dim,
                   complex_arrays=(2 * self.dim + 1 + min(len(xs), 2 * block)) / 2)
        axes = [np.linspace(-rho, rho, _SCAN_AXIS)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        # the points as contiguous coordinate rows (d, cells), so that a
        # block's objective is row-major (rows, cells) and each row's argmax
        # runs along contiguous memory
        pts_t = np.stack([m.reshape(-1) for m in mesh])
        rvals = self.P.real(pts_t.T)
        out_val = np.empty(len(xs))
        out_arg = np.empty((len(xs), self.dim))
        for rows in np.array_split(np.arange(len(xs)), n_blocks):
            obj = xs[rows] @ pts_t
            obj -= rvals
            best = np.argmax(obj, axis=1)
            out_val[rows] = obj[np.arange(len(rows)), best]
            out_arg[rows] = pts_t[:, best].T
            del obj  # before the next block's product is allocated
        return out_val, out_arg

    def _row_numbers(self):
        """Float64 numbers per row that :meth:`conjugate_batch` allocates
        beside its input, ``(per query row, per ascent row)``.  Per query
        row: t, u, the grid's and the ascent's values and points (3d + 3)
        and ``polar``'s or the final scaling's temporaries (3d + 3).  Per
        row of one ascent block, at the line search: ``newton_ascent``'s
        point, value, unit, row, gradient and Hessian and their copies for
        the moving rows (2d^2 + 3d + 5), the step, gathered point and
        candidate and the search's value, slack and position (3d + 3), the
        objective's value terms, two gathers of the query row, gradient,
        difference, Hessian and negation (2d^2 + 4d + 3), the accepted
        copies (d^2 + 2d + 1) and the Hessian evaluator's numbers per point.
        """
        d = self.dim
        return 6 * d + 6, 5 * d * d + 12 * d + 12 + self.P._hess._per_point

    # -- public API -----------------------------------------------------------

    def conjugate_batch(self, xs):
        """R# and its maximiser at many points, each solved at unit scale:
        R#(x) = t R#(u) and xi(x) = t^E xi(u) for x = t^F u."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        batch, ascent = self._row_numbers()
        _check_box((len(xs),), complex_arrays=batch / 2 + _block_boxes(ascent, len(xs)))
        t, us = self.P.polar(xs)
        grid_val, grid_arg = self._grid_scan_batch(us, self.rho)
        vals, args = np.empty(len(xs)), np.empty_like(us)
        for block in _blocks(len(xs)):
            vals[block], args[block] = self._ascend_batch(us[block], grid_arg[block])
        worse = grid_val > vals
        vals = np.where(worse, grid_val, vals)
        args[worse] = grid_arg[worse]
        vals = np.maximum(vals, 0.0)  # R#(u) >= u.0 - R(0) = 0
        # where t = |c|^2 overflows, polar gives u = 0 and t R#(u) would read
        # inf * 0; R#(x) overflows there too, so those rows read +inf
        over = np.isinf(t)
        t = np.where(over, 1.0, t)
        # t^E xi = A diag(t^lam) A^-1 xi, row by row
        args = ((args @ self.P.basis_inv.T) * t[:, None] ** self.P.lam) @ self.P.basis.T
        vals = t * vals
        vals[over] = np.inf
        args[over] = np.inf
        return vals, args

    def conjugate(self, x):
        """R#(x) as a one-row :meth:`conjugate_batch`."""
        return float(self.conjugate_batch(x)[0][0])


def weighted_norm(x, weights):
    """|x|_m = sum_j |x_j|^{2 m_j / (2 m_j - 1)}."""
    x = np.asarray(x, dtype=float)
    return sum(np.abs(x[..., j]) ** (2.0 * m / (2.0 * m - 1.0))
               for j, m in enumerate(weights))


def conjugate_compare(ev, x):
    """Ratio R_A#(x) / |x|_m for x in the stored semi-elliptic coordinates.

    R_A = R o L_A gives R_A#(x) = R#(A^-T x) for any basis A.
    """
    x = np.asarray(x, dtype=float)
    num = ev.conjugate(x @ ev.P.basis_inv)
    den = weighted_norm(x, ev.P.weights)
    if den == 0.0:
        raise ValueError("x must be nonzero")
    return num / den


def legendre_norm_bound(P):
    """N_E(x) exponent profile from the appendix norm estimate, for E = P.E."""
    lmax, lmin = float(P.lam.max()), float(P.lam.min())

    def N_E(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        big = r ** (1.0 / (1.0 - lmax))
        small = r ** (1.0 / (1.0 - lmin))
        return np.where(r >= 1.0, big, small)

    return N_E


def conjugate_bounds_check(ev, radius=20.0, count=200, seed=_SEED + 1):
    """Fit M, M' in |x| - M <= R#(x) <= M' N_E(x), E = ev.P.E; check
    stability at 2x radius.

    Returns (M, M', stable).
    """
    rng = np.random.default_rng(seed)
    N_E = legendre_norm_bound(ev.P)

    def fit(rad):
        xs = rng.uniform(-rad, rad, size=(count, ev.dim))
        vals, _ = ev.conjugate_batch(xs)
        norms = np.linalg.norm(xs, axis=1)
        M = float(np.max(norms - vals))
        Mp = float(np.max(vals / np.maximum(N_E(xs), 1e-300)))
        return M, Mp

    M1, Mp1 = fit(radius)
    M2, Mp2 = fit(2.0 * radius)
    stable = (np.isfinite([M1, M2, Mp1, Mp2]).all()
              and M2 <= max(1.5 * max(M1, 1e-6), M1 + 1e-6)
              and Mp2 <= 1.5 * Mp1 + 1e-6)
    return max(M1, M2), max(Mp1, Mp2), bool(stable)
