"""Multi-index polynomial arithmetic on coefficient dicts.

A polynomial is a dict mapping exponent tuples to complex coefficients.
Keys are plain int tuples of a fixed length d; values may be complex.
:class:`CompiledPoly` is the one evaluator; derivatives are taken on the dict.
"""

from __future__ import annotations

import numpy as np

_BLOCK_CELLS = 1 << 18  # numbers held per block: points x terms x (d + coef size)


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

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        pts = xi.reshape(-1, self.dim)
        step = max(1, _BLOCK_CELLS // self._per_point)
        blocks = [self._block(pts[s:s + step])
                  for s in range(0, max(len(pts), 1), step)]
        out = np.concatenate(blocks, axis=-1) if len(blocks) > 1 else blocks[0]
        out = out.transpose(self._to_points)
        # [()] turns the 0-d value at a single point into a numpy scalar
        return out.reshape(xi.shape[:-1] + out.shape[1:])[()]

    def _block(self, pts):
        tab = np.empty((self.degree + 1, self.dim, len(pts)))
        tab[0] = 1.0
        tab[1] = pts.T
        for p in range(2, self.degree + 1):
            np.multiply(tab[p - 1], tab[1], out=tab[p])
        fac = tab.reshape(-1, len(pts))[self._rows]
        mono = fac[:, 0]
        for j in range(1, self.dim):
            mono = mono * fac[:, j]
        terms = mono.reshape(mono.shape[:1] + (1,) * (self._coef.ndim - 2)
                             + mono.shape[1:]) * self._coef
        out = terms[0]
        for term in terms[1:]:
            out += term
        return out


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


def poly_mul(a, b, max_degree=None):
    out = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            key = tuple(x + y for x, y in zip(ba, bb))
            if max_degree is not None and sum(key) > max_degree:
                continue
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_add(a, b, scale=1.0):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + scale * v
    return out


def poly_prune(coeffs, tol=0.0):
    return {k: v for k, v in coeffs.items() if abs(v) > tol}


def poly_compose_linear(coeffs, mat):
    """Coefficients of xi -> P(M xi) for a d x d matrix M."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    zero = tuple([0] * d)
    # linear forms L_i(xi) = sum_j M[i, j] xi_j as degree-1 polynomials
    forms = []
    for i in range(d):
        form = {}
        for j in range(d):
            if mat[i, j] != 0.0:
                key = tuple(1 if k == j else 0 for k in range(d))
                form[key] = mat[i, j]
        forms.append(form)
    out = {}
    for beta, c in coeffs.items():
        term = {zero: complex(c)}
        for i, b in enumerate(beta):
            for _ in range(b):
                term = poly_mul(term, forms[i])
        out = poly_add(out, term)
    return poly_prune(out, 0.0)


def log1p_series(u, order):
    """Truncated composition log(1 + u) for a series u with no constant term."""
    d = len(next(iter(u))) if u else 0
    out = {}
    power_u = dict(u)
    sign = 1.0
    for k in range(1, order + 1):
        if k > 1:
            power_u = poly_mul(power_u, u, max_degree=order)
            if not power_u:
                break
        out = poly_add(out, power_u, scale=sign / k)
        sign = -sign
    return poly_prune(out, 0.0) if d else out
