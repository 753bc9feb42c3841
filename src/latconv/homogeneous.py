"""Positive homogeneous polynomials, exponent matrices and one-parameter groups.

A :class:`HomogeneousPolynomial` stores its semi-elliptic normal form: a basis
matrix A, per-axis even orders 2*m_j, and coefficients a_beta (in A-coordinates)
whose exponents satisfy |beta : 2m| = 1 exactly.  The exponent matrix is
E = A diag(1/(2 m_j)) A^{-1} and mu = tr E is kept as an exact rational.
P, Re P and the gradient and Hessian of Re P (derived as polynomials) are
compiled once at construction for the one evaluator of ``_poly``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ._poly import (CompiledPoly, poly_compose_linear, poly_diff, poly_prune,
                    poly_stack)

POSITIVITY_SAMPLES_PER_DIM = 1000
_TAYLOR_DEGREE = 14
_SAMPLE_SEED = 20240915


@functools.lru_cache(maxsize=None)
def sphere_samples(dim, count, seed=_SAMPLE_SEED):
    """Seeded uniform unit vectors, drawn once per process and read-only."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts.flags.writeable = False
    return pts


class HomogeneousPolynomial:
    """Positive homogeneous polynomial with stored semi-elliptic normal form."""

    __slots__ = ("dim", "basis", "basis_inv", "weights", "semi_coeffs", "coeffs",
                 "E", "lam", "mu", "_p", "_re", "_grad", "_hess", "cut_boundary")

    def __init__(self, dim, semi_coeffs, basis, weights, validate=True):
        self.dim = int(dim)
        self.basis = np.asarray(basis, dtype=float).reshape(dim, dim)
        self.weights = tuple(int(m) for m in weights)
        if any(m < 1 for m in self.weights):
            raise ValueError("weights must be positive integers")
        self.semi_coeffs = poly_prune({tuple(k): complex(v)
                                       for k, v in semi_coeffs.items()})
        self.basis_inv = np.linalg.inv(self.basis)
        # P(xi) = P_A(A^{-1} xi)
        self.coeffs = poly_compose_linear(self.semi_coeffs, self.basis_inv)
        self.lam = np.array([1.0 / (2 * m) for m in self.weights])  # E's eigenvalues
        self.E = self.basis @ np.diag(self.lam) @ self.basis_inv
        self.mu = sum(Fraction(1, 2 * m) for m in self.weights)
        d = self.dim
        re = {b: c.real for b, c in self.coeffs.items() if c.real != 0.0}
        grad = [poly_diff(re, j) for j in range(d)]
        hess = [poly_diff(g, k) for g in grad for k in range(d)]
        self._p = CompiledPoly(self.coeffs, d)
        self._re = CompiledPoly(re, d)
        self._grad = CompiledPoly(poly_stack(grad, (d,)), d)
        self._hess = CompiledPoly(poly_stack(hess, (d, d)), d)
        # boundary points of {Re P < T_CUT}, searched on first use by
        # attractor.box_halfwidths
        self.cut_boundary = None
        if validate:
            self._validate()

    def _validate(self):
        for beta in self.semi_coeffs:
            if sum(Fraction(b, 2 * m) for b, m in zip(beta, self.weights)) != 1:
                raise ValueError(f"monomial {beta} violates |beta:2m| = 1")
        samples = sphere_samples(self.dim, POSITIVITY_SAMPLES_PER_DIM * self.dim)
        if self._re(samples).min() <= 0.0:
            raise ValueError("Re P is not positive on the sample sphere")
        # spot check t P(xi) = P(t^E xi)
        rng = np.random.default_rng(_SAMPLE_SEED + 1)
        xi = rng.standard_normal((16, self.dim))
        for t in (0.37, 2.0, 11.0):
            lhs = t * self(xi)
            rhs = self(self.group_action(t, xi))
            if np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) > 1e-8:
                raise ValueError("stored normal form fails the homogeneity identity")

    # -- evaluation (class methods, so that a profiler can wrap them there) --

    def __call__(self, xi):
        return self._p(xi)

    def real(self, xi):
        return self._re(xi)

    def real_grad(self, xi):
        return self._grad(xi)

    def real_hess(self, xi):
        return self._hess(xi)

    def on_grid(self, nodes, real=False):
        """P, or Re P with ``real``, on the tensor grid of the per-axis
        ``nodes``: the pointwise values, bit for bit (``CompiledPoly.on_grid``)."""
        return (self._re if real else self._p).on_grid(nodes)

    # -- scaling structure ---------------------------------------------------

    def group_action(self, t, xi):
        """t^E xi in diagonalizable closed form (no matrix exponential series)."""
        if t <= 0:
            raise ValueError("group parameter t must be positive")
        mat = self.basis @ np.diag(float(t) ** self.lam) @ self.basis_inv
        return np.asarray(xi, dtype=float) @ mat.T

    def adapted(self, xs):
        """c_j = sign(y_j) |y_j|^(1/(2 l_j)) per row x: y = A^T x in the
        eigenbasis of F = (I - E)^T (the columns of A^-T), l = 1 - lam its
        eigenvalues.  x = t^F u for t = |c|^2 and u = unadapted(c / |c|) on
        the E-adapted unit sphere sum_j |y_j|^(1/l_j) = 1 (Folland & Stein)."""
        y = np.asarray(xs, dtype=float) @ self.basis
        return np.copysign(np.abs(y) ** (0.5 / (1.0 - self.lam)), y, out=y)

    def unadapted(self, c):
        """x = A^-T y with y_j = sign(c_j) |c_j|^(2 l_j): :meth:`adapted`'s inverse."""
        c = np.asarray(c, dtype=float)
        return np.copysign(np.abs(c) ** (2.0 * (1.0 - self.lam)), c) @ self.basis_inv

    def polar(self, xs):
        """(t, u) with x = t^F u, u on the E-adapted unit sphere, per row x
        (t = 0 and u = 0 at x = 0).  |u| <= ||A^-1||_2, since |y|^2 <=
        sum_j |y_j|^(1/l_j) = 1 when every |y_j| <= 1 and 1/l_j <= 2."""
        c = self.adapted(xs)
        t = np.einsum("kd,kd->k", c, c)
        s = np.sqrt(t)[:, None]
        return t, self.unadapted(np.divide(c, s, out=c, where=s > 0))

    def semi_elliptic_form(self):
        """(A, m, coefficients in A-coordinates) of the stored normal form."""
        return self.basis.copy(), self.weights, dict(self.semi_coeffs)

    def __repr__(self):
        return (f"HomogeneousPolynomial(dim={self.dim}, weights={self.weights}, "
                f"mu={self.mu})")


def from_quadratic_form(C):
    """P(xi) = xi . C xi / 2 for symmetric positive definite C."""
    C = np.asarray(C, dtype=float)
    d = C.shape[0]
    evals, evecs = np.linalg.eigh(C)
    if evals.min() <= 0:
        raise ValueError("quadratic form is not positive definite")
    evecs = _canonical_signs(evecs)
    semi = {}
    for j in range(d):
        beta = tuple(2 if k == j else 0 for k in range(d))
        semi[beta] = evals[j] / 2.0
    return HomogeneousPolynomial(d, semi, evecs, (1,) * d)


def _canonical_signs(mat):
    """Flip eigenvector columns so the largest-|.| component is positive."""
    mat = mat.copy()
    for j in range(mat.shape[1]):
        k = int(np.argmax(np.abs(mat[:, j])))
        if mat[k, j] < 0:
            mat[:, j] = -mat[:, j]
    return mat


def expm(A):
    """exp(A) of a real square matrix by scaling and squaring a Taylor sum.

    A is scaled by 2^-s, exactly, until its 1-norm is below 1/2; the Taylor
    polynomial of degree ``_TAYLOR_DEGREE`` of the scaled matrix is summed
    by Horner's rule and squared s times (Moler and Van Loan, SIAM Review 45
    (2003), method 3).  Below norm 1/2 the omitted tail is under
    2^-15 / 15! < eps / 9.
    """
    A = np.asarray(A, dtype=float)
    s = max(0, math.frexp(float(np.abs(A).sum(axis=0).max()))[1] + 1)
    X = A / 2.0 ** s
    eye = np.eye(A.shape[0])
    out = eye + X / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        out = eye + X @ out / k
    for _ in range(s):
        out = out @ out
    return out


def matrix_power_t(E, t):
    """t^E = exp((log t) E) for a general real matrix (candidate exponents)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return expm(np.log(float(t)) * np.asarray(E, dtype=float))


def write_polynomial(P, path):
    """Serialize as CSV rows beta_1,..,beta_d,re,im (A-coordinates) with a
    header block carrying the basis A (row-major), weights m, and mu."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# dim: {P.dim}\n")
        fh.write("# A: " + " ".join(f"{v:.17g}" for v in P.basis.reshape(-1))
                 + "\n")
        fh.write("# m: " + " ".join(str(m) for m in P.weights) + "\n")
        fh.write(f"# mu: {P.mu.numerator}/{P.mu.denominator}\n")
        fh.write(",".join([f"beta_{j + 1}" for j in range(P.dim)]
                          + ["re", "im"]) + "\n")
        for beta, c in sorted(P.semi_coeffs.items()):
            fh.write(",".join(str(b) for b in beta)
                     + f",{c.real:.17g},{c.imag:.17g}\n")


def read_polynomial(path):
    """Inverse of :func:`write_polynomial`."""
    dim = None
    basis = None
    weights = None
    coeffs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, rest = line[1:].strip().partition(":")
                rest = rest.strip()
                if key == "dim":
                    dim = int(rest)
                elif key == "A":
                    basis = np.array([float(t) for t in rest.split()])
                elif key == "m":
                    weights = tuple(int(t) for t in rest.split())
                continue
            if line.startswith("beta_1"):
                continue
            parts = line.split(",")
            beta = tuple(int(t) for t in parts[:dim])
            coeffs[beta] = complex(float(parts[dim]), float(parts[dim + 1]))
    if dim is None or basis is None or weights is None:
        raise ValueError(f"{path}: missing polynomial header block")
    return HomogeneousPolynomial(dim, coeffs, basis.reshape(dim, dim), weights)


def is_exponent(P, E_cand, samples=64, seed=_SAMPLE_SEED + 2):
    """Test t P(xi) = P(t^E xi) on a log-spaced t grid x random sphere points.

    Returns (ok, max relative deviation).
    """
    E_cand = np.asarray(E_cand, dtype=float)
    xi = sphere_samples(P.dim, samples, seed=seed)
    worst = 0.0
    for t in np.geomspace(1.0 / 8.0, 8.0, 13):
        lhs = t * P(xi)
        rhs = P(xi @ matrix_power_t(E_cand, t).T)
        dev = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
        worst = max(worst, float(dev))
    return worst < 1e-8, worst


def trace_invariance_check(P, E1, E2):
    """tr E is the same for any two exponents of P (both must pass is_exponent)."""
    ok1, dev1 = is_exponent(P, E1)
    ok2, dev2 = is_exponent(P, E2)
    if not (ok1 and ok2):
        raise ValueError(
            f"candidate is not an exponent (deviations {dev1:.2e}, {dev2:.2e})")
    return abs(float(np.trace(np.asarray(E1))) - float(np.trace(np.asarray(E2)))) < 1e-10


def contraction_check(E):
    """Operator norms of t^E decreasing over t in {1e-2, 1e-4, 1e-6}, < 0.5 at 1e-6."""
    norms = [np.linalg.norm(matrix_power_t(E, t), 2) for t in (1e-2, 1e-4, 1e-6)]
    decreasing = norms[0] > norms[1] > norms[2]
    return bool(decreasing and norms[2] < 0.5)


def p_fitted(P, vectors, tol=1e-9):
    """Whether the ordered lattice vectors are P-fitted: A^T v_j in span(e_j).

    Returns (fitted, weights of the collection).
    """
    A = P.basis
    for j, v in enumerate(vectors):
        w = A.T @ np.asarray(v, dtype=float)
        off = np.abs(np.delete(w, j))
        if off.size and off.max() >= tol:
            return False, P.weights
    return True, P.weights
