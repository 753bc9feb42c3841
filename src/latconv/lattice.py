"""Finitely supported complex functions on Z^d and convolution arithmetic.

A :class:`LatticeFunction` is stored in canonical sparse form: a
lexicographically sorted integer point array plus matching complex values,
with entries of magnitude below 1e-300 (true zeros) dropped.  All operations
are pure; results are new canonical functions.

Powers take one of two paths: the exact dense :func:`sweep` (the oracle of
record, bit-identical to iterated pairwise :func:`convolve`) or one spectral
transform (:func:`power_dense`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sfft

from . import _config
from .errors import DimensionMismatchError, ResourceLimitError

ZERO_DROP = 1e-300


def _canonical(dim, points, values):
    points = np.ascontiguousarray(np.asarray(points, dtype=np.int64).reshape(-1, dim))
    values = np.asarray(values, dtype=np.complex128).reshape(-1)
    if points.shape[0] != values.shape[0]:
        raise ValueError("points/values length mismatch")
    keep = np.abs(values) >= ZERO_DROP
    points, values = points[keep], values[keep]
    if points.shape[0]:
        order = np.lexsort(points.T[::-1])
        points, values = points[order], values[order]
        if points.shape[0] > 1:
            dup = np.all(points[1:] == points[:-1], axis=1)
            if dup.any():
                # merge duplicate keys (first occurrence keeps the sum)
                uniq_start = np.concatenate(([True], ~dup))
                group = np.cumsum(uniq_start) - 1
                merged = np.zeros(group[-1] + 1, dtype=np.complex128)
                np.add.at(merged, group, values)
                points = points[uniq_start]
                values = merged
                keep = np.abs(values) >= ZERO_DROP
                points, values = points[keep], values[keep]
    return points, values


class LatticeFunction:
    """Finitely supported phi: Z^d -> C in canonical sparse form."""

    __slots__ = ("dim", "points", "values", "_lookup")

    def __init__(self, dim, points=None, values=None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if points is None:
            points = np.empty((0, dim), dtype=np.int64)
            values = np.empty((0,), dtype=np.complex128)
        pts, vals = _canonical(dim, points, values)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_lookup", None)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeFunction is immutable")

    @classmethod
    def from_dict(cls, entries, dim=None):
        entries = dict(entries)
        if dim is None:
            if not entries:
                raise ValueError("dimension required for an empty function")
            dim = len(next(iter(entries)))
        pts = np.array([tuple(k) for k in entries], dtype=np.int64).reshape(-1, dim)
        vals = np.array(list(entries.values()), dtype=np.complex128)
        return cls(dim, pts, vals)

    def to_dict(self):
        return {tuple(int(c) for c in p): complex(v)
                for p, v in zip(self.points, self.values)}

    def _ensure_lookup(self):
        if self._lookup is None:
            lut = {tuple(int(c) for c in p): complex(v)
                   for p, v in zip(self.points, self.values)}
            object.__setattr__(self, "_lookup", lut)
        return self._lookup

    def value_at(self, point):
        return self._ensure_lookup().get(tuple(int(c) for c in point), 0.0 + 0.0j)

    def __len__(self):
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        return (self.dim == other.dim
                and self.points.shape == other.points.shape
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.values, other.values))

    def __add__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        # _canonical merges the keys the two supports share
        return LatticeFunction(self.dim, np.concatenate((self.points, other.points)),
                               np.concatenate((self.values, other.values)))

    def __sub__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        # 0 - v, not -v: a zero component gives +0, as a scalar subtraction does
        return self + LatticeFunction(other.dim, other.points, 0.0 - other.values)

    def __repr__(self):
        return f"LatticeFunction(dim={self.dim}, support={len(self)})"

    def scale(self, c):
        return LatticeFunction(self.dim, self.points, self.values * c)

    def extent(self):
        """Per-axis (min, max) of the support; zeros for the empty function."""
        if not len(self):
            z = np.zeros(self.dim, dtype=np.int64)
            return z, z
        return self.points.min(axis=0), self.points.max(axis=0)

    def is_probability(self, tol=1e-12):
        if not len(self):
            return False
        if np.any(np.abs(self.values.imag) > tol) or np.any(self.values.real < -tol):
            return False
        return abs(self.values.real.sum() - 1.0) <= tol


def delta(y):
    """Point mass at y (dimension inferred from the coordinate tuple)."""
    y = tuple(int(c) for c in np.atleast_1d(y))
    return LatticeFunction(len(y), np.array([y]), np.array([1.0 + 0.0j]))


def translate(f, y):
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.shape != (f.dim,):
        raise DimensionMismatchError(f"shift has dimension {y.shape}, function {f.dim}")
    return LatticeFunction(f.dim, f.points + y, f.values)


def norm_l1(f):
    return float(np.abs(f.values).sum())


def norm_linf(f):
    return float(np.abs(f.values).max()) if len(f) else 0.0


def _check_box(shape, complex_arrays=2):
    cells = int(np.prod([int(s) for s in shape], dtype=np.int64))
    need = cells * 16 * complex_arrays
    if need > _config.MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"box {tuple(int(s) for s in shape)} needs ~{need / 2**30:.2f} GiB "
            f"(cap {_config.MEMORY_CAP_BYTES / 2**30:.2f} GiB)")
    return cells


def _flat_points(flat, shape, lo):
    """Lattice points of row-major flat indices into a box with corner ``lo``."""
    return np.stack(np.unravel_index(flat, shape), axis=-1).astype(np.int64) + lo


def convolve(f, g):
    """Exact convolution (f*g)(x) = sum_y f(x-y) g(y).

    This is the pairwise double-sum oracle: every product is accumulated in a
    fixed deterministic order with no thresholding.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim {f.dim} vs {g.dim}")
    if not len(f) or not len(g):
        return LatticeFunction(f.dim)
    # iterate the smaller support in the outer loop; the indices of one shift
    # are distinct, so the fancy-index add needs no np.add.at
    if len(f) < len(g):
        f, g = g, f
    (flo, fhi), (glo, ghi) = f.extent(), g.extent()
    shape = tuple(int(s) for s in (fhi - flo + ghi - glo + 1))
    _check_box(shape, complex_arrays=1)
    out = np.zeros(shape, dtype=np.complex128).reshape(-1)
    base = np.ravel_multi_index(tuple((f.points - flo).T), shape)
    shifts = np.ravel_multi_index(tuple((g.points - glo).T), shape)
    for shift, v in zip(shifts, g.values):
        out[base + shift] += f.values * v
    nz = np.flatnonzero(np.abs(out) >= ZERO_DROP)
    return LatticeFunction(f.dim, _flat_points(nz, shape, flo + glo), out[nz])


def sweep(f, n_max):
    """Yield ``(array, lo)`` with ``array[i] = phi^(n)(lo + i)`` for n = 1..n_max.

    Each step adds ``phi(y) * phi^(n-1)`` into the shifted slice of the next
    box for every y in supp phi, then zeroes entries below ``ZERO_DROP``, as
    :func:`convolve` drops them.  Every cell then receives the same non-zero
    products, multiplied in the same operand order and added in the same
    order as iterated ``convolve(phi^(n-1), phi)``, so the values are
    bit-identical to that oracle.  The yielded arrays are fresh each step.
    """
    flo, fhi = f.extent()
    span = fhi - flo
    # a step holds phi^(n-1), phi^(n) and the product phi(y) * phi^(n-1)
    _check_box(tuple(int(n_max * s + 1) for s in span), complex_arrays=3)
    offsets = f.points - flo
    cur = _embed_dense(f, tuple(int(s + 1) for s in span), flo)
    yield cur, flo
    for n in range(2, n_max + 1):
        nxt = np.zeros(tuple(int(n * s + 1) for s in span), dtype=np.complex128)
        # mirror convolve(phi^(n-1), phi): when supp phi^(n-1) is the smaller
        # support it loops over that, which reaches each cell in reverse order
        # of y, with the factors of the product swapped
        forward = np.count_nonzero(cur) >= len(f)
        order = range(len(f)) if forward else range(len(f) - 1, -1, -1)
        for j in order:
            sl = tuple(slice(o, o + s) for o, s in zip(offsets[j], cur.shape))
            v = f.values[j]
            nxt[sl] += cur * v if forward else v * cur
        nxt[np.abs(nxt) < ZERO_DROP] = 0.0
        cur = nxt
        yield cur, n * flo


def tensor(f, g):
    """Tensor product: (f (x) g)((x, y)) = f(x) g(y) on Z^(d1+d2)."""
    if not len(f) or not len(g):
        return LatticeFunction(f.dim + g.dim)
    kf, kg = len(f), len(g)
    pts = np.empty((kf * kg, f.dim + g.dim), dtype=np.int64)
    pts[:, :f.dim] = np.repeat(f.points, kg, axis=0)
    pts[:, f.dim:] = np.tile(g.points, (kf, 1))
    vals = (f.values[:, None] * g.values[None, :]).reshape(-1)
    return LatticeFunction(f.dim + g.dim, pts, vals)


def _embed_dense(f, shape, lo):
    arr = np.zeros(shape, dtype=np.complex128)
    idx = tuple((f.points[:, k] - lo[k]) for k in range(f.dim))
    arr[idx] = f.values
    return arr


def _extract_sparse(dim, arr, lo, floor):
    flat = arr.reshape(-1)
    nz = np.flatnonzero(np.abs(flat) > floor)
    return LatticeFunction(dim, _flat_points(nz, arr.shape, lo), flat[nz])


def _fft_noise_floor(n, vmax):
    # transform roundoff scale; genuine entries below it are indistinguishable
    # from FFT noise, true entries above survive untouched
    return 64.0 * np.finfo(float).eps * max(1.0, math.log2(max(n, 2))) * vmax


def power_dense(f, n, pad_to=None):
    """phi^(n) on its minimal dense box via one spectral transform.

    Returns ``(array, lo)`` with ``array[i] = phi^(n)(lo + i)``.  Shared by the
    spectral sparse path and by verification code that wants the dense field
    without sparsification.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(f):
        return np.zeros((0,) * f.dim, dtype=np.complex128), np.zeros(f.dim, np.int64)
    flo, fhi = f.extent()
    ext = n * (fhi - flo) + 1
    shape = tuple(sfft.next_fast_len(int(e)) for e in ext)
    if pad_to is not None:
        shape = tuple(max(s, p) for s, p in zip(shape, pad_to))
    _check_box(shape, complex_arrays=3)
    emb = _embed_dense(f, shape, flo)
    fr = sfft.fftn(emb, workers=_config.FFT_WORKERS)
    np.power(fr, n, out=fr)
    out = sfft.ifftn(fr, workers=_config.FFT_WORKERS)
    return out, n * flo


def power(f, n, method="spectral"):
    """n-fold convolution power of f.

    ``direct`` runs the exact :func:`sweep` (the oracle of record),
    ``spectral`` samples phi-hat^n on a torus grid covering the support box
    and inverts, dropping entries below the transform-noise floor; ``fast``
    is an alias of ``spectral``.  The paths agree entrywise within 1e-10 at
    desk scale.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("direct", "fast", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    if not len(f) or n == 1:
        return f
    if method == "direct":
        for arr, lo in sweep(f, n):
            pass
        return _extract_sparse(f.dim, arr, lo, 0.0)
    arr, lo = power_dense(f, n)
    vmax = float(np.abs(arr).max())
    return _extract_sparse(f.dim, arr, lo, _fft_noise_floor(n, vmax))


def read_function(path):
    """Read the UTF-8 function file format (``dim d`` header, one entry per line)."""
    dim = None
    pts, vals = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if dim is None:
                if tokens[0] != "dim" or len(tokens) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'dim <d>' header")
                dim = int(tokens[1])
                if dim < 1:
                    raise ValueError(f"{path}:{lineno}: dimension must be >= 1")
                continue
            if len(tokens) != dim + 2:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} coordinates plus re/im")
            try:
                coords = [int(t) for t in tokens[:dim]]
                re, im = float(tokens[dim]), float(tokens[dim + 1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed entry: {exc}") from exc
            pts.append(coords)
            vals.append(complex(re, im))
    if dim is None:
        raise ValueError(f"{path}: missing 'dim <d>' header")
    return LatticeFunction(dim, np.array(pts, np.int64).reshape(-1, dim),
                           np.array(vals, np.complex128))


def write_function(f, path):
    """Write in the function file format, lexicographic order, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {f.dim}\n")
        for p, v in zip(f.points, f.values):
            coords = " ".join(str(int(c)) for c in p)
            fh.write(f"{coords} {v.real:.17g} {v.imag:.17g}\n")
