"""Multi-index polynomial arithmetic.

At the API boundary a polynomial is a dict mapping exponent tuples to
coefficients: keys are plain int tuples of a fixed length d, values may be
complex.  :class:`CompiledPoly` is the one evaluator; derivatives are taken on
the dict.  Products and linear changes of variable run on dense truncated
series instead: an array of shape (m+1,)*d whose entry beta is the coefficient
of xi^beta, kept zero wherever |beta| > m (Brent & Kung, *Fast algorithms for
manipulating formal power series*, 1978).  A truncated product is one
gather, multiply and in-order accumulation over the pairs of that simplex, and
composing with the identity matrix passes the series through.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK_CELLS = 1 << 18  # numbers held per block: points x terms x (d + coef size)
_SLAB_CELLS = 1 << 16  # numbers per on_grid slab


class CompiledPoly:
    """A polynomial compiled once into exponents and stacked coefficients.

    Coefficients are all scalars or all arrays of one shape S, so a gradient
    or Hessian is one polynomial; at points of shape (..., d) the value has
    shape (...) + S.  Powers come from per-axis tables of repeated products
    and terms are added elementwise in a fixed order, so a point's value is
    bit-identical however it is batched (a BLAS reduction would not be).
    """

    __slots__ = ("dim", "degree", "_rows", "_coef", "_to_points", "_per_point")

    def __init__(self, coeffs, dim):
        if isinstance(coeffs, np.ndarray):  # a dense series
            coeffs = from_dense(coeffs)
        self.dim = int(dim)
        keys = sorted(coeffs) or [(0,) * self.dim]
        vals = [coeffs.get(b, 0.0) for b in keys]
        exps = np.array(keys, dtype=np.intp).reshape(len(keys), self.dim)
        self.degree = max(1, int(exps.max()))
        # row of x_j^e in the power table flattened to (powers * d, points)
        self._rows = exps * self.dim + np.arange(self.dim)
        # the point axis is last inside a block and first in the result
        self._coef = np.array(vals, dtype=np.result_type(float, *vals))[..., None]
        # np.moveaxis(out, -1, 0), precomputed: moveaxis costs ~1/5 of a small call
        self._to_points = (self._coef.ndim - 2,) + tuple(range(self._coef.ndim - 2))
        self._per_point = len(keys) * (self.dim + self._coef[0].size)

    def block_shape(self, count):
        """(points, numbers per point) of one block of a call at ``count``
        points: the block's factors, monomials and terms, about
        ``_BLOCK_CELLS`` numbers, at least one point."""
        return max(1, min(count, _BLOCK_CELLS // self._per_point)), self._per_point

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        pts = xi.reshape(-1, self.dim)
        step = self.block_shape(len(pts))[0]
        blocks = [self._block(pts[s:s + step])
                  for s in range(0, max(len(pts), 1), step)]
        out = np.concatenate(blocks, axis=-1) if len(blocks) > 1 else blocks[0]
        out = out.transpose(self._to_points)
        # [()] turns the 0-d value at a single point into a numpy scalar
        return out.reshape(xi.shape[:-1] + out.shape[1:])[()]

    def on_grid(self, nodes):
        """Values on the tensor grid of the per-axis ``nodes``, shape
        ``(len(nodes[0]), ..., len(nodes[d-1])) + S``.

        Each axis gets one power table, each monomial is the outer product
        of its axis powers taken in axis order, and terms are added in key
        order: at every grid point these are the IEEE operations of
        ``__call__``, so the values are bit-identical to it, whatever the
        slab size.  The grid is filled in slabs along axis 0 of about
        ``_SLAB_CELLS`` numbers, so the temporaries beside the result stay
        within a fixed block.
        """
        nodes = [np.asarray(g, dtype=float).reshape(-1) for g in nodes]
        shape = tuple(len(g) for g in nodes)
        tabs = [self._powers(g) for g in nodes]
        exps = (self._rows // self.dim).tolist()
        coef = self._coef[..., 0]
        lift = (Ellipsis,) + (None,) * (coef.ndim - 1)
        out = np.empty(shape + coef.shape[1:], dtype=coef.dtype)
        step = _slab_rows(shape, coef[0].size)
        for start in range(0, shape[0], step):
            slab = out[start:start + step]
            for k, beta in enumerate(exps):
                mono = tabs[0][beta[0], start:start + step]
                for j in range(1, self.dim):
                    mono = mono[..., None] * tabs[j][beta[j]]
                if k:
                    slab += mono[lift] * coef[k]
                else:
                    np.multiply(mono[lift], coef[k], out=slab)
        return out

    def _powers(self, x):
        """x^0, ..., x^degree by repeated products, stacked on a new axis 0."""
        tab = np.empty((self.degree + 1,) + x.shape)
        tab[0] = 1.0
        tab[1] = x
        for p in range(2, self.degree + 1):
            np.multiply(tab[p - 1], tab[1], out=tab[p])
        return tab

    def _block(self, pts):
        tab = self._powers(pts.T)
        fac = tab.reshape(-1, len(pts))[self._rows]
        mono = fac[:, 0]
        for j in range(1, self.dim):
            mono = mono * fac[:, j]
        terms = mono.reshape(mono.shape[:1] + (1,) * (self._coef.ndim - 2)
                             + mono.shape[1:]) * self._coef
        # a fresh array: a view of terms[0] would keep all of terms alive
        out = terms[0].copy()
        for term in terms[1:]:
            out += term
        return out


def _slab_rows(shape, size=1):
    """Rows of axis 0 in one ``on_grid`` slab: about ``_SLAB_CELLS``
    numbers of ``size`` each, at least one row."""
    rest = int(np.prod(shape[1:], dtype=np.int64)) * size
    return max(1, _SLAB_CELLS // max(1, rest))


def grid_scratch(shape):
    """Complex numbers' worth of temporaries ``on_grid`` holds beside its
    result on a grid of ``shape`` with scalar coefficients: one real
    monomial and one complex term per slab cell."""
    rows = min(int(shape[0]), _slab_rows(shape))
    return 1.5 * rows * int(np.prod(shape[1:], dtype=np.int64))


def poly_diff(coeffs, j):
    """Coefficients of the partial derivative along axis j."""
    out = {}
    for beta, c in coeffs.items():
        if beta[j]:
            out[beta[:j] + (beta[j] - 1,) + beta[j + 1:]] = beta[j] * c
    return out


def poly_stack(polys, shape):
    """One polynomial with coefficient arrays of ``shape``, filled row-major."""
    keys = set().union(*polys)
    return {b: np.reshape([p.get(b, 0.0) for p in polys], shape) for b in keys}


def poly_prune(coeffs, tol=0.0):
    """``coeffs`` with each real or imaginary part of modulus at most ``tol``
    set to 0 (a zero part keeps its sign), less the coefficients left 0."""
    out = {}
    for k, v in coeffs.items():
        re, im = (0.0 if 0.0 < abs(p) <= tol else p for p in (v.real, v.imag))
        if re or im:
            out[k] = complex(re, im)
    return out


@functools.lru_cache(maxsize=None)
def weighted_degree(m, scales):
    """sum_j scales_j beta_j at every entry beta of a dense series of order m,
    one read-only array shared by every caller."""
    deg = sum(s * i for s, i in zip(scales, np.indices((m + 1,) * len(scales))))
    deg.flags.writeable = False
    return deg


@functools.lru_cache(maxsize=None)
def _product_pairs(m, d):
    """Read-only flat indices (gamma, gamma - beta, beta), in the smallest
    integer type, of every pair beta <= gamma with |gamma| <= m in a dense
    series of order m, gamma and then beta in row-major order."""
    flat = np.flatnonzero(weighted_degree(m, (1,) * d) <= m)
    below = np.ones((len(flat),) * 2, dtype=bool)
    for i in np.unravel_index(flat, (m + 1,) * d):
        below &= i <= i[:, None]
    g, b = (flat[k] for k in np.nonzero(below))
    pairs = np.stack([g, g - b, b]).astype(np.min_scalar_type(flat[-1]))
    pairs.flags.writeable = False
    return pairs


def from_dense(arr):
    """Coefficient dict of the non-zero entries of a dense series."""
    nz = np.nonzero(arr)
    return dict(zip(map(tuple, np.transpose(nz).tolist()), arr[nz].tolist()))


def series_mul(a, b):
    """Product of two finite dense series of order m, truncated at total degree m.

    Entry gamma is +0 plus a[gamma - beta] b[beta] added in row-major order
    of beta <= gamma: the products of :func:`_product_pairs` form in one
    batch and ``np.add.at`` adds them in that order, less those with a zero
    factor, whose +-0 changes no bit of such a sum.
    """
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    out_idx, a_idx, b_idx = _product_pairs(a.shape[0] - 1, a.ndim)
    a, b = a.reshape(-1), b.reshape(-1)
    keep = np.flatnonzero(a[a_idx] != 0)
    keep = keep[b[b_idx[keep]] != 0]
    np.add.at(out.reshape(-1), out_idx[keep], a[a_idx[keep]] * b[b_idx[keep]])
    return out


def log1p_series(u):
    """Dense log(1 + u) = sum_k (-1)^(k+1) u^k / k for a dense series u with
    no constant term, truncated at u's order."""
    out = u.copy()
    power = u
    for k in range(2, u.shape[0]):
        power = series_mul(power, u)
        out += ((-1) ** (k + 1) / k) * power
    return out


def series_compose_linear(q, mat):
    """Dense series of xi -> Q(M xi) for a dense series Q and a d x d matrix M;
    for M = I, Q with each zero part read as +0, as the loop gives it."""
    mat = np.asarray(mat, dtype=float)
    d, m = q.ndim, q.shape[0] - 1
    if np.array_equal(mat, np.eye(d)):
        return q + 0j
    one = np.zeros(q.shape)
    one[(0,) * d] = 1.0
    # pows[i][p] = L_i^p for the linear forms L_i(xi) = sum_j M[i, j] xi_j
    pows = []
    for row in mat:
        form = np.zeros_like(one)
        form[tuple(np.eye(d, dtype=int))] = row
        pows.append([one])
        while len(pows[-1]) <= m:
            pows[-1].append(series_mul(pows[-1][-1], form))
    out = np.zeros(q.shape, dtype=np.complex128)
    for beta in np.argwhere(q).tolist():
        term = pows[0][beta[0]]
        for p, b in zip(pows[1:], beta[1:]):
            if b:
                term = series_mul(term, p[b])
        out += q[tuple(beta)] * term
    return out


def poly_compose_linear(coeffs, mat):
    """Coefficients of xi -> P(M xi) for a d x d matrix M."""
    q = np.zeros((max([1, *map(sum, coeffs)]) + 1,) * len(mat), dtype=complex)
    for beta, c in coeffs.items():
        q[beta] = c
    return from_dense(series_compose_linear(q, mat))
