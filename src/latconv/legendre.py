"""Numerical Legendre-Fenchel transform of R = Re P.

R need not be convex (the expansion can keep mixed terms), so the conjugate
R#(x) = sup_xi {x.xi - R(xi)} is computed by multi-start gradient ascent with
a certified coarse-grid fallback: the grid radius is grown until the objective
is negative on the boundary, which pins the maximizer inside.  The ascent
result is always at least the grid value.  ``conjugate_batch`` is the one
evaluation path: all starts and all query points form one batch of numpy
rows, and a row leaves the batch once it stops moving, so each step evaluates
only the rows still in play.  A row's arithmetic does not depend on which rows
share its step, but the ascent stops for all rows together, and nothing is
kept between calls, so a value depends only on the batch it was computed in.
"""

from __future__ import annotations

import numpy as np

from .homogeneous import sphere_samples
from .lattice import _check_box

_START_SEED = 4242
# objective cells per block of the grid scan (8 MiB of float64)
_SCAN_BLOCK_CELLS = 2 ** 20


def _batched_solve(H, g):
    """Solve H s = g for stacked (k, d, d); singular systems fall back to g."""
    k, d = g.shape
    ridge = 1e-14 * (1.0 + np.abs(np.trace(H, axis1=1, axis2=2)))[:, None, None]
    Hr = H + ridge * np.eye(d)[None, :, :]
    try:
        return np.linalg.solve(Hr, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(g)
        for i in range(k):
            try:
                out[i] = np.linalg.solve(Hr[i], g[i])
            except np.linalg.LinAlgError:
                out[i] = g[i]
        return out


class ConjugateEvaluator:
    """Evaluator of the convex conjugate of Re P."""

    def __init__(self, P):
        self.P = P
        self.dim = P.dim
        n_starts = 8 ** min(self.dim, 3)
        n_shells = {1: 4, 2: 4, 3: 8}.get(self.dim, 8)
        per_shell = max(1, n_starts // n_shells)
        dirs = sphere_samples(self.dim, per_shell, seed=_START_SEED)
        shells = np.geomspace(0.25, 8.0, n_shells)
        self._starts = (shells[:, None, None] * dirs[None, :, :]).reshape(-1, self.dim)

    # -- batched ascent ------------------------------------------------------

    def _ascend_batch(self, xs, xis, iters=120, newton_iters=50):
        """Maximize xi.x - R(xi) from xis (one start per row), vectorized.

        Only the rows still moving are evaluated: a row with no accepted step
        would repeat the same arithmetic on the next pass, so it leaves.
        """
        xs = np.asarray(xs, dtype=float)
        xi = np.array(xis, dtype=float)
        val = np.einsum("kd,kd->k", xi, xs) - self.P.real(xi)
        step = np.ones(len(xi))
        live = np.arange(len(xi))
        for _ in range(iters):
            g = xs[live] - self.P.real_grad(xi[live])
            gn2 = np.einsum("kd,kd->k", g, g)
            keep = gn2 > 1e-16
            live, g, gn2 = live[keep], g[keep], gn2[keep]
            t = step[live]
            moved = np.zeros(len(live), dtype=bool)
            todo = np.arange(len(live))  # positions in live not yet accepted
            for _ in range(30):
                if not len(todo):
                    break
                rows = live[todo]
                cand = xi[rows] + t[todo, None] * g[todo]
                cval = np.einsum("kd,kd->k", cand, xs[rows]) - self.P.real(cand)
                good = cval >= val[rows] + 0.25 * t[todo] * gn2[todo]
                xi[rows[good]] = cand[good]
                val[rows[good]] = cval[good]
                step[rows[good]] = np.minimum(t[todo[good]] * 2.0, 1e6)
                moved[todo[good]] = True
                todo = todo[~good]
                t = t * 0.5
            live = live[moved]
            if not len(live):
                break
        # Newton polish towards grad = 0 (descent on -objective)
        live = np.arange(len(xi))
        for _ in range(newton_iters):
            g = xs[live] - self.P.real_grad(xi[live])
            keep = np.linalg.norm(g, axis=1) > 1e-10
            live, g = live[keep], g[keep]
            if not len(live):
                break
            cand = xi[live] + _batched_solve(-self.P.real_hess(xi[live]), -g)
            cval = np.einsum("kd,kd->k", cand, xs[live]) - self.P.real(cand)
            moved = np.isfinite(cval) & (cval >= val[live] - 1e-12)
            xi[live[moved]] = cand[moved]
            val[live[moved]] = cval[moved]
            stuck = np.flatnonzero(~moved)
            if len(stuck):
                rows = live[stuck]
                cand = xi[rows] + 1e-3 * g[stuck]
                cval = np.einsum("kd,kd->k", cand, xs[rows]) - self.P.real(cand)
                better = cval > val[rows]
                xi[rows[better]] = cand[better]
                val[rows[better]] = cval[better]
                moved[stuck[better]] = True
            live = live[moved]
            if not len(live):
                break
        return val, xi

    def _certified_radius(self, xmax):
        """rho with objective < 0 on the grid boundary for every |x| <= xmax."""
        rho = 1.0
        dirs = sphere_samples(self.dim, 64 * self.dim, seed=_START_SEED + 9)
        for _ in range(200):
            vals = self.P.real(rho * dirs)
            if vals.min() > xmax * rho * np.sqrt(self.dim) + 1.0:
                break
            rho *= 2.0
        return rho

    def _grid_scan_batch(self, xs, rho, n_axis=64):
        """Best grid point of the objective per query row, in blocks of rows.

        A block holds about ``_SCAN_BLOCK_CELLS`` objective cells and at least
        8 rows: a one-row block takes numpy's matrix-vector product, whose
        rounding differs from the matrix product's.
        """
        cells = n_axis ** self.dim
        block = max(8, _SCAN_BLOCK_CELLS // cells)
        n_blocks = max(1, len(xs) // block)
        # float arrays: the mesh and the points (d each), Re P and one block
        _check_box((n_axis,) * self.dim,
                   complex_arrays=(2 * self.dim + 1 + min(len(xs), 2 * block)) / 2)
        axes = [np.linspace(-rho, rho, n_axis)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        rvals = self.P.real(pts)
        out_val = np.empty(len(xs))
        out_arg = np.empty((len(xs), self.dim))
        for rows in np.array_split(np.arange(len(xs)), n_blocks):
            obj = pts @ xs[rows].T
            obj -= rvals[:, None]
            best = np.argmax(obj, axis=0)
            out_val[rows] = obj[best, np.arange(len(rows))]
            out_arg[rows] = pts[best]
        return out_val, out_arg

    # -- public API -----------------------------------------------------------

    def conjugate_batch(self, xs, refine_starts=True):
        """R# at many points; shared certified grid + batched ascent."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        norms = np.linalg.norm(xs, axis=1)
        rho = self._certified_radius(float(norms.max()) if len(xs) else 1.0)
        grid_val, grid_arg = self._grid_scan_batch(xs, rho)
        vals, args = self._ascend_batch(xs, grid_arg)
        if refine_starts:
            scale = np.maximum(np.linalg.norm(grid_arg, axis=1), 1e-2)
            n_st = len(self._starts)
            big_x = np.repeat(xs, n_st, axis=0)
            big_s = (scale[:, None, None]
                     * self._starts[None, :, :]).reshape(-1, self.dim)
            sv, sa = self._ascend_batch(big_x, big_s)
            sv = sv.reshape(len(xs), n_st)
            sa = sa.reshape(len(xs), n_st, self.dim)
            best = np.argmax(sv, axis=1)
            better = sv[np.arange(len(xs)), best] > vals
            vals = np.where(better, sv[np.arange(len(xs)), best], vals)
            args[better] = sa[np.arange(len(xs)), best][better]
        worse = grid_val > vals
        vals = np.where(worse, grid_val, vals)
        args[worse] = grid_arg[worse]
        vals = np.maximum(vals, 0.0)  # R#(x) >= x.0 - R(0) = 0
        return vals, args

    def conjugate(self, x):
        """R#(x) as a one-row :meth:`conjugate_batch`."""
        return float(self.conjugate_batch(x)[0][0])


def conjugate(P, x):
    """One-shot R#(x) for R = Re P."""
    return ConjugateEvaluator(P).conjugate(x)


def weighted_norm(x, weights):
    """|x|_m = sum_j |x_j|^{2 m_j / (2 m_j - 1)}."""
    x = np.asarray(x, dtype=float)
    out = 0.0
    for j, m in enumerate(weights):
        out += np.abs(x[..., j]) ** (2.0 * m / (2.0 * m - 1.0))
    return out


def conjugate_compare(ev, x):
    """Ratio R_A#(x) / |x|_m for x in the stored semi-elliptic coordinates.

    Valid because R_A = R o L_A with orthogonal A gives R_A#(x) = R#(A x).
    """
    x = np.asarray(x, dtype=float)
    if not np.allclose(ev.P.basis @ ev.P.basis.T, np.eye(ev.dim), atol=1e-10):
        raise ValueError("comparison requires an orthogonal stored basis")
    num = ev.conjugate(ev.P.basis @ x)
    den = weighted_norm(x, ev.P.weights)
    if den == 0.0:
        raise ValueError("x must be nonzero")
    return num / den


def legendre_norm_bound(E):
    """N_E(x) exponent profile from the appendix norm estimate."""
    evals = np.linalg.eigvals(np.asarray(E, dtype=float)).real
    lmax, lmin = float(evals.max()), float(evals.min())

    def N_E(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        big = r ** (1.0 / (1.0 - lmax))
        small = r ** (1.0 / (1.0 - lmin))
        return np.where(r >= 1.0, big, small)

    return N_E


def conjugate_bounds_check(ev, E, radius=20.0, count=200, seed=_START_SEED + 1):
    """Fit M, M' in |x| - M <= R#(x) <= M' N_E(x); check stability at 2x radius.

    Returns (M, M', stable).
    """
    rng = np.random.default_rng(seed)
    N_E = legendre_norm_bound(E)

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
