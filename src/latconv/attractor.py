"""Numerical evaluation of the attractor H_P^t and local-limit assembly.

H_P^t(x) = (2 pi)^-d integral e^{-t P(xi)} e^{-i x.xi} dxi is computed by
tensor trapezoid quadrature over a box on which t Re P >= T_CUT = 46 at the
boundary (integrand below ~1e-20 there), so truncation dominates nothing and
the trapezoid rule is effectively spectral.  P is positive homogeneous,
t P(xi) = P(t^E xi), so the region {t Re P < T_CUT} is t^-E applied to the
region at t = 1.  Its boundary points along every sampled ray are found once
per polynomial, by a batched ray search at t = 1 (doubling then bisection on
all directions at once), and kept on P; the box half-widths at any t come
from those points mapped by t^-E, and t Re P is then certified on sampled
box faces at t, which expands the box until it holds.  A grid variant
evaluates whole lattice windows with one FFT of the sampled weight e^{-t P}.

The weight and the box faces are tensor grids, so P is evaluated on them
from per-axis power tables (``CompiledPoly.on_grid``): bit for bit the
pointwise values, with no stacked point array.  ``attractor_eval`` sizes
each point's grid by that point alone and contracts its weight one axis at
a time with a fixed-order ``einsum`` per point instead of a BLAS product, so
a point's value depends neither on the other points of the call nor on the
BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _config, _fft
from ._poly import grid_scratch
from .homogeneous import sphere_samples
from .lattice import _check_box, _extract_sparse

_BOUNDARY_DIRS_SEED = 777


def _ray_reach(P, dirs, target):
    """Smallest r with Re P(r u) >= target along each ray u (row of dirs).

    All rays are searched together: each doubles its own r from 1e-3 and
    leaves the active set once it passes, then 60 bisection steps run on
    the whole batch.  Every ray sees the same float operations as a scalar
    search along it alone.
    """
    r = np.full(len(dirs), 1e-3)
    active = np.arange(len(dirs))
    for _ in range(120):
        hit = P.real(r[active, None] * dirs[active]) >= target
        active = active[~hit]
        if not active.size:
            break
        r[active] *= 2.0
    else:
        raise ValueError("Re P does not grow along a ray; invalid polynomial")
    lo, hi = r / 2.0, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = P.real(mid[:, None] * dirs) >= target
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    return hi


def _cut_boundary(P):
    """Points r_u u on the boundary of {Re P < T_CUT}, one per sampled
    direction u and per coordinate half-axis, searched on P's first use and
    kept in ``P.cut_boundary``."""
    if P.cut_boundary is None:
        d = P.dim
        dirs = np.concatenate([sphere_samples(d, 256 * d, seed=_BOUNDARY_DIRS_SEED),
                               np.eye(d), -np.eye(d)])
        P.cut_boundary = _ray_reach(P, dirs, _config.T_CUT)[:, None] * dirs
    return P.cut_boundary


def box_halfwidths(P, t):
    """Per-axis half-widths L with t Re P >= T_CUT on the box boundary.

    t^-E = A diag(t^-lam) A^-1 maps the boundary points of {Re P < T_CUT}
    (:func:`_cut_boundary`) to boundary points of {t Re P < T_CUT}, since
    t P(xi) = P(t^E xi).  L_j is 1.25 times the largest |coordinate j| of
    the mapped points; t Re P is then certified on sampled box faces, and
    the box grows by 1.35 until it holds.  Points are mapped, not the box,
    so a non-diagonal E loses no tightness.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    pts = _cut_boundary(P)
    M = P.basis @ np.diag(float(t) ** -P.lam) @ P.basis_inv
    L = np.empty(P.dim)
    for j in range(P.dim):
        # row j of t^-E on every point, summed in axis order without BLAS
        q = pts[:, 0] * M[j, 0]
        for k in range(1, P.dim):
            q += pts[:, k] * M[j, k]
        L[j] = 1.25 * np.abs(q).max()
    for _ in range(8):
        if _boundary_min(P, t, L) >= _config.T_CUT:
            return L
        L = L * 1.35
    raise ValueError("could not certify the quadrature box; invalid polynomial")


def _boundary_min(P, t, L, n_face=33):
    """Smallest t Re P over the 2d faces of the box [-L, L], each face a
    tensor grid of ``n_face`` nodes per free axis."""
    grids = [np.linspace(-L[j], L[j], n_face) for j in range(P.dim)]
    worst = np.inf
    for j in range(P.dim):
        for sgn in (-1.0, 1.0):
            face = grids[:j] + [np.array([sgn * L[j]])] + grids[j + 1:]
            worst = min(worst, float(t * P.on_grid(face, real=True).min()))
    return worst


def _along(v, j, d):
    """The 1-D array v broadcast along axis j of a d-dimensional grid."""
    return v.reshape((-1,) + (1,) * (d - 1 - j))


def _check_grid(shape, extra=0):
    """Refuse a weight grid the memory cap cannot hold: the complex grid, the
    slab temporaries of ``on_grid`` beside it and ``extra`` complex numbers
    held with it (an FFT output window)."""
    cells = math.prod(int(s) for s in shape)
    _check_box(shape, complex_arrays=1.0 + (grid_scratch(shape) + extra) / cells)


def _weight_grid(P, t, nodes):
    """e^{-t P} on the tensor grid of per-axis nodes, formed in place."""
    W = P.on_grid(nodes)
    np.multiply(W, -t, out=W)
    return np.exp(W, out=W)


def attractor_eval(P, t, x):
    """H_P^t at one or more real points x (shape (d,) or (k, d)).

    Tensor trapezoid with >= 8 quadrature points per oscillation of
    e^{-i x.xi} at each point's own |x_j|, at least 256 per axis: one
    weight grid per distinct grid size among the points, each checked
    against the memory cap.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    xs = x[None, :] if scalar else x
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    d = P.dim
    L = box_halfwidths(P, t)
    sizes = np.maximum(256, np.ceil(8.0 * L * np.abs(xs) / np.pi).astype(np.int64) + 1)
    out = np.empty(xs.shape[0], dtype=np.complex128)
    for N in dict.fromkeys(map(tuple, sizes.tolist())):
        _check_grid(N)
        nodes = [np.linspace(-L[j], L[j], N[j]) for j in range(d)]
        W = _weight_grid(P, t, nodes)
        # trapezoid end weights (integrand ~ 1e-20 there; kept for form)
        for j in range(d):
            sl = [slice(None)] * d
            for end in (0, -1):
                sl[j] = end
                W[tuple(sl)] *= 0.5
        h = np.array([nodes[j][1] - nodes[j][0] for j in range(d)])
        vol = float(np.prod(h)) / (2.0 * np.pi) ** d
        for k in np.flatnonzero((sizes == N).all(axis=1)):
            red = W
            for j in range(d):
                red = np.einsum("a,a...->...", np.exp(-1j * xs[k, j] * nodes[j]), red)
            out[k] = red * vol
        del W
    return complex(out[0]) if scalar else out


@dataclass
class AttractorGrid:
    """H_P^t(x + shift) over an integer window, evaluated by one FFT."""

    P: object
    t: float
    lo: np.ndarray            # window lower corner (integers)
    values: np.ndarray        # dense complex array over the window
    shift: np.ndarray         # real offset applied to every lattice point
    box_halfwidths: np.ndarray
    grid_sizes: tuple

    def value_at(self, x):
        idx = tuple(int(c) - int(l) for c, l in zip(x, self.lo))
        return complex(self.values[idx])


def attractor_grid(P, t, window, shift=None, oversample=2):
    """Evaluate H_P^t(x + shift) for all integer x in the window.

    ``window`` is a sequence of per-axis (lo, hi) inclusive integer bounds.
    The quadrature box is rounded up to [-pi K_j, pi K_j] so the lattice sum
    collapses to an FFT; the per-axis size keeps alias images of the Schwartz
    tail at least one window width away.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    d = P.dim
    lo = np.array([int(a) for a, _ in window], dtype=np.int64)
    hi = np.array([int(b) for _, b in window], dtype=np.int64)
    if np.any(hi < lo):
        raise ValueError("empty window")
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    L = box_halfwidths(P, t)
    K = np.maximum(1, np.ceil(L / np.pi).astype(int))
    reach = np.maximum(np.abs(lo + np.floor(shift)), np.abs(hi + np.ceil(shift)))
    N = [_fft.next_fast_len(max(256, oversample * K[j] * (reach[j] + 16)))
         for j in range(d)]
    _check_grid(N, extra=math.prod((hi - lo + 1).tolist()))
    nodes = [(-np.pi * K[j] + 2.0 * np.pi * K[j] * np.arange(N[j]) / N[j])
             for j in range(d)]
    W = _weight_grid(P, t, nodes)
    for j in range(d):
        # fold the real shift into the weight
        W *= _along(np.exp(-1j * shift[j] * nodes[j]), j, d)
    spec = _fft.fftn(W)
    hstep = np.array([2.0 * np.pi * K[j] / N[j] for j in range(d)])
    vol = float(np.prod(hstep)) / (2.0 * np.pi) ** d
    idx = []
    phase = []
    for j in range(d):
        xj = np.arange(lo[j], hi[j] + 1)
        idx.append(np.mod(xj * K[j], N[j]))
        # e^{-i x (-pi K)} factor from the grid origin; the shift's own
        # factor e^{i pi K shift} is already in W
        phase.append(np.exp(1j * np.pi * K[j] * xj))
    vals = spec[np.ix_(*idx)]
    for j in range(d):
        vals *= _along(phase[j], j, d)
    vals *= vol
    return AttractorGrid(P=P, t=float(t), lo=lo, values=vals, shift=shift,
                         box_halfwidths=L, grid_sizes=tuple(N))


def _llt_dense(analysis, n, window):
    """Local-limit approximation as a dense array over an integer window.

    Sums e^{-i x.xi_q} phi-hat(xi_q)^n H_{P_q}^n(x - n alpha_q) over the
    mu-minimal points of the analysis; unit-modulus powers are taken as
    e^{i n omega_q} for stability.  The points of one coset share their
    ``Classification``, so P_q and alpha_q: its attractor grid is computed
    once, and each point multiplies its own phases into a copy, one at a
    time, added in the order of the points.  Entry i is the value at
    ``lo + i`` for the window's lower corner ``lo``.  One cap check, made
    before any of them, counts the windows this holds: the grids, ``total``
    and a copy, of which it holds the first two around :func:`attractor_grid`.
    """
    if analysis.mu_phi is None:
        raise ValueError(f"analysis verdict is {analysis.verdict}; no local limit")
    d = analysis.function.dim
    lo = np.array([int(a) for a, _ in window], dtype=np.int64)
    hi = np.array([int(b) for _, b in window], dtype=np.int64)
    shape = tuple(int(h - l + 1) for l, h in zip(lo, hi))
    points = analysis.minimal_points()
    _check_box(shape, complex_arrays=len({id(pa.classification) for pa in points}) + 2)
    total = np.zeros(shape, dtype=np.complex128)
    axes = [np.arange(lo[j], hi[j] + 1) for j in range(d)]
    grids = {}
    for pa in points:
        cls = pa.classification
        if id(cls) not in grids:
            with _config.holding(total.nbytes * (1 + len(grids))):
                grids[id(cls)] = attractor_grid(cls.poly, n, window, shift=-n * cls.alpha).values
        vals = grids[id(cls)].copy()
        vals *= np.exp(1j * n * pa.phase)
        for j in range(d):
            vals *= _along(np.exp(-1j * axes[j] * pa.xi[j]), j, d)
        total += vals
        del vals  # freed before the next point makes its copy
    return total


def llt_approx(analysis, n, window):
    """Local-limit approximation over an integer window as a function; see
    :func:`_llt_dense`."""
    total = _llt_dense(analysis, n, window)
    with _config.holding(total.nbytes):
        return _extract_sparse(total.ndim, total, np.array([int(a) for a, _ in window]), 0.0)
