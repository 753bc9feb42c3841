"""Finitely supported complex functions on Z^d and convolution arithmetic.

A :class:`LatticeFunction` is stored in canonical sparse form: a
lexicographically sorted integer point array plus matching complex values,
with entries of magnitude below 1e-300 (true zeros) dropped.  All operations
are pure; results are new canonical functions.

Every power comes from one of two producers, each with its own cap checks:
:func:`_direct_stream`, which extracts the requested powers from one exact
dense :func:`sweep` on the lattice that the support spans (the oracle of
record, bit-identical to iterated pairwise :func:`convolve`; float64 when
phi is real), or :func:`power_torus`, which certifies a box of phi^(n) from
one spectral transform (:func:`power_dense`, the spectrum raised to the n-th
power by binary powering) and is exact on the full ``n * span + 1`` box.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _config, _fft
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


def _row_keys(a, b):
    """Row-major flat indices of the points ``a`` and ``b`` in the box that
    holds both, which order them as lexicographic order does; None when the
    box has 2^63 cells or more, so that an index would overflow int64."""
    lo = np.minimum(a.min(axis=0), b.min(axis=0)).tolist()
    hi = np.maximum(a.max(axis=0), b.max(axis=0)).tolist()
    strides, cells = [], 1
    for l, h in zip(lo[::-1], hi[::-1]):
        strides.append(cells)
        cells *= h - l + 1
    if cells >= 2 ** 63:
        return None
    strides = np.array(strides[::-1], dtype=np.int64)
    return (a - lo) @ strides, (b - lo) @ strides


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
    def _from_sorted(cls, dim, points, values):
        """Wrap arrays already in canonical form (lexicographic, unique, no
        true zeros) without another sort and copy."""
        self = object.__new__(cls)
        for name, value in (("dim", dim), ("points", points), ("values", values),
                            ("_lookup", None)):
            object.__setattr__(self, name, value)
        return self

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
        if not len(self) or not len(other):
            return self if len(self) else other
        keys = _row_keys(self.points, other.points)
        if keys is None:
            # _canonical merges the keys the two supports share
            return LatticeFunction(self.dim, np.concatenate((self.points, other.points)),
                                   np.concatenate((self.values, other.values)))
        # merge the two sorted supports: other's new keys go in at their
        # insertion points, and a shared key keeps self's slot
        ka, kb = keys
        pos = np.searchsorted(ka, kb)
        shared = pos < len(ka)
        shared[shared] = ka[pos[shared]] == kb[shared]
        new = ~shared
        ins = pos[new]
        ia = np.arange(len(ka))
        at_self = ia + np.searchsorted(ins, ia, side="right")
        at_other = ins + np.arange(len(ins))
        points = np.empty((len(ka) + len(ins), self.dim), dtype=np.int64)
        points[at_self] = self.points
        points[at_other] = other.points[new]
        values = np.empty(len(points), dtype=np.complex128)
        if not shared.any():
            values[at_self] = self.values
            values[at_other] = other.values
            return LatticeFunction._from_sorted(self.dim, points, values)
        # the bits of _canonical's sums from zero: every value becomes 0 + v,
        # which turns a -0 part into +0, and a shared key (0 + a) + b
        sums = 0.0 + self.values
        sums[pos[shared]] += other.values[shared]
        values[at_self] = sums
        values[at_other] = 0.0 + other.values[new]
        keep = np.abs(values) >= ZERO_DROP
        if keep.all():
            return LatticeFunction._from_sorted(self.dim, points, values)
        return LatticeFunction._from_sorted(self.dim, points[keep], values[keep])

    def __sub__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        # 0 - v, not -v: a zero component gives +0, as a scalar subtraction does
        return self + LatticeFunction._from_sorted(other.dim, other.points,
                                                   0.0 - other.values)

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
    # a shift keeps the canonical order
    return LatticeFunction._from_sorted(f.dim, f.points + y, f.values)


def _nbytes(f):
    # the values' buffer, a whole box when they were extracted in place
    return f.points.nbytes + (f.values if f.values.base is None else f.values.base).nbytes


def norm_l1(f):
    return float(np.abs(f.values).sum())


def norm_linf(f):
    return float(np.abs(f.values).max()) if len(f) else 0.0


def _check_box(shape, complex_arrays=2):
    """Refuse ``complex_arrays`` complex boxes of ``shape`` beside the held bytes past the cap."""
    shape = tuple(int(s) for s in shape)
    need = math.prod(shape) * 16 * complex_arrays
    held, cap = _config._HELD.get(), _config._MEMORY_CAP.get()
    if held + need > cap:
        size = [f"{b / 2**30:.2f} GiB" if b >= 2**30 else f"{b / 2**20:.2f} MiB"
                for b in (need, held, cap)]
        raise ResourceLimitError("box {} needs ~{} beside {} held (cap {})".format(shape, *size))


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
    # the sum, and 6 int64 a point of f for a shift (d + 1 for its indices)
    _check_box(shape, complex_arrays=1 + max(f.dim + 1, 6) * len(f) / (2 * math.prod(shape)))
    out = np.zeros(shape, dtype=np.complex128)
    flat = out.reshape(-1)
    base = np.ravel_multi_index(tuple((f.points - flo).T), shape)
    shifts = np.ravel_multi_index(tuple((g.points - glo).T), shape)
    for shift, v in zip(shifts, g.values):
        flat[base + shift] += f.values * v
    with _config.holding(out.nbytes):
        return _extract_sparse(f.dim, out, flo + glo, 0.0, consume=True)


class SupportLattice(NamedTuple):
    """The integer lattice ``L`` spanned by the differences of support points.

    ``supp phi = origin + coords @ basis``: the ``r`` rows of ``basis`` are
    a basis of ``L`` (``r`` its rank, 0 for a point mass), and ``coords``
    holds the integer coordinates ``z`` of each support point, in the order
    of ``f.points``, with 0 the least on each axis, so that ``origin`` is
    the corner of the support's ``z``-box.  The basis is in row-echelon
    form with positive pivots, so row-major order of ``z`` is lexicographic
    order of the points ``origin + z @ basis``; when ``L = Z^d`` it is the
    identity.  phi^(n) lives on ``n origin + z @ basis`` for ``z`` in the
    box of shape :meth:`box`.
    """

    origin: np.ndarray
    basis: np.ndarray
    coords: np.ndarray

    def box(self, n):
        """Shape of the ``z``-box that holds phi^(n): ``n`` times the
        support's ``z``-extent, plus one, per lattice axis."""
        return tuple(int(n * s + 1) for s in self.coords.max(axis=0, initial=0))


def _hermite_rows(vectors):
    """Hermite normal form rows of the lattice spanned by integer ``vectors``.

    Integer row reduction (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4.2): each vector is merged into the echelon rows,
    and where it meets a pivot column the pair (row, vector) is replaced by
    a unimodular combination (extended Euclid) that leaves the gcd in the
    row and 0 in the vector.  Then the entries above each pivot are reduced
    modulo it, so that ``Z^d`` gives the identity.
    """
    rows = []
    for v in vectors:
        for i, row in enumerate(rows):
            lead = next((c for c, a in enumerate(v) if a), len(v))
            col = next(c for c, a in enumerate(row) if a)
            if lead < col:
                break
            if lead == col:
                g, a, b = _ext_gcd(row[col], v[col])
                p, q = v[col] // g, row[col] // g
                rows[i] = [a * x + b * y for x, y in zip(row, v)]
                v = [p * x - q * y for x, y in zip(row, v)]
        else:
            i = len(rows)
        if any(v):
            lead = next(a for a in v if a)
            rows.insert(i, [-a for a in v] if lead < 0 else v)
    for k, row in enumerate(rows):
        col = next(c for c, a in enumerate(row) if a)
        for j in range(k):
            q = rows[j][col] // row[col]
            rows[j] = [x - q * y for x, y in zip(rows[j], row)]
    return rows


def _ext_gcd(x, y):
    """(g, a, b) with a x + b y = g = gcd(x, y) > 0, for x != 0."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    return (x, a0, b0) if x > 0 else (-x, -a0, -b0)


def support_lattice(f):
    """The :class:`SupportLattice` of ``f``, with a basis that keeps its ``z``-box small.

    Integer row reduction of supp phi less its first point gives an echelon basis;
    then, while it narrows the support's extent along a later axis, that
    axis's coordinate takes ± an earlier one (the earlier basis row takes
    ± the later), which keeps the echelon form.  The extent is convex in
    the multiple taken, so ±1 steps reach each pair's best.
    """
    diffs = f.points - (f.points[0] if len(f) else 0)
    rows = _hermite_rows(diffs.tolist())
    basis = np.array(rows, dtype=np.int64).reshape(len(rows), f.dim)
    coords = np.empty((len(f), len(rows)), dtype=np.int64)
    rest = diffs.copy()
    for k, row in enumerate(basis):
        # rows after k vanish on row k's pivot column, rows before it are taken off
        col = np.flatnonzero(row)[0]
        coords[:, k] = rest[:, col] // row[col]
        rest -= coords[:, k:k + 1] * row
    if rest.any():
        raise ArithmeticError("support lattice basis does not reproduce the support")
    narrowed = True
    while narrowed:
        narrowed = False
        for i in range(len(basis)):
            for j in range(i):
                for s in (1, -1):
                    c = coords[:, i] - s * coords[:, j]
                    if np.ptp(c) < np.ptp(coords[:, i]):
                        coords[:, i] = c
                        basis[j] += s * basis[i]
                        narrowed = True
    low = coords.min(axis=0, initial=0)
    origin = (f.points[0] if len(f) else np.zeros(f.dim, dtype=np.int64)) + low @ basis
    return SupportLattice(origin, basis, coords - low)


# Cells of phi^(n) that a sweep step finishes at a time: a complex tile of
# phi^(n), its product tile and the runs of phi^(n-1) that land in it take
# about 0.8 MiB, which stays in a 2 MiB L2 cache.  Also the rows of one
# block of the per-point stages (:func:`_blocks`)
_TILE_CELLS = 2 ** 14


def _blocks(count):
    """Slices of at most ``_TILE_CELLS`` rows that cover ``range(count)``.
    The per-point stages take one block at a time; a row's arithmetic does
    not depend on the rows beside it, so nor do their results."""
    return [slice(s, s + _TILE_CELLS) for s in range(0, count, _TILE_CELLS)]


def _block_boxes(numbers, cells):
    """Complex boxes of ``cells`` cells that one block of at most ``cells``
    rows of ``numbers`` float64 numbers takes."""
    return numbers * min(_TILE_CELLS, cells) / (2 * max(cells, 1))


def sweep(f, n_max, lattice=None):
    """Yield ``(array, lo)`` for n = 1..n_max, ``array[i] = phi^(n)(lo + i @ B)``.

    ``B`` is the basis of ``lattice`` (default :func:`support_lattice`),
    so the array is phi^(n) on its ``z``-box, ``lattice.box(n)``, and
    ``lo = n * lattice.origin``; when ``B`` is the identity that is the
    bounding box of Z^d.  Each step copies phi^(n-1) once into a buffer
    laid out with phi^(n)'s widths on every axis but the first, so that
    ``phi(y_j) * phi^(n-1)`` lands at ``y_j``'s offset as one contiguous run
    of phi^(n).  It then walks phi^(n) in flat tiles of ``_TILE_CELLS``
    cells; in each tile it takes the support points in canonical order,
    multiplies the part of each one's run that lands in the tile into one
    product tile and adds that into the tile; then it zeroes the tile's
    entries below ``ZERO_DROP``, as :func:`convolve` drops them, and counts
    its non-zeros for the next step's order, while the tile is in cache.
    Every cell receives the same non-zero products, multiplied in the same
    operand order by the same contiguous loop and added in the same order
    as in iterated ``convolve(phi^(n-1), phi)``, whatever the tile size;
    the buffer's padding and the cells off ``n supp`` only add ±0 to
    accumulators that start at +0, which changes no non-zero sum and no
    sign of zero, so the values are bit-identical to that oracle.  A real
    phi sweeps in float64 and yields float64 arrays: with zero imaginary
    parts a complex product's real part is ``ar * br - 0`` and its
    imaginary part accumulates to +0, so the real arithmetic gives the
    same bits.  The yielded arrays are fresh each step.  A step builds the
    relaid copy first and drops phi^(n-1) before it allocates phi^(n), so
    it holds two boxes, when the caller has dropped the previous array,
    as :func:`_direct_stream` does.  Each step checks the cap for those two
    boxes and its tile buffers, and holds its array and the tile buffers
    across ``yield``.
    """
    if lattice is None:
        lattice = support_lattice(f)
    real = _is_real(f)
    cells = math.prod(lattice.box(n_max))
    values = f.values.real if real else f.values
    span = lattice.coords.max(axis=0, initial=0).tolist()
    coords = lattice.coords.tolist()
    cur = np.zeros(lattice.box(1), dtype=values.dtype)
    cur.reshape(-1)[_flat_offsets(coords, cur.shape)] = values
    yield cur, lattice.origin
    # the products go to their own tile, never in place: numpy would take a
    # one-cell in-place multiply for a reduction, whose scalar loop rounds
    # differently from convolve's
    tile = min(_TILE_CELLS, cells)
    product = np.empty(tile, dtype=cur.dtype)
    magnitudes = product.view(np.float64)[:tile]
    small = np.empty(tile, dtype=bool)
    count = len(f)
    for n in range(2, n_max + 1):
        shape = tuple(n * s + 1 for s in span)
        # two boxes: phi^(n-1) beside its copy in phi^(n)'s row widths, then
        # that copy beside phi^(n); and a product tile that also takes its
        # magnitudes and a byte mask
        _check_box(shape, complex_arrays=(
            2 * cur.itemsize + tile * (cur.itemsize + 1) / math.prod(shape)) / 16)
        # the run of phi^(n-1) ends at its last cell; on one axis it is cur
        size = _flat_offsets([[c - 1 for c in cur.shape]], shape)[0] + 1
        if cur.ndim <= 1:
            source = cur.reshape(-1)
        else:
            source = np.zeros(cur.shape[:1] + shape[1:], dtype=cur.dtype)
            source[tuple(slice(0, s) for s in cur.shape)] = cur
            source = source.reshape(-1)[:size]
        del cur  # source alone holds phi^(n-1) now
        nxt = np.zeros(shape, dtype=source.dtype)
        flat = nxt.reshape(-1)
        # mirror convolve(phi^(n-1), phi): when supp phi^(n-1) is the smaller
        # support it loops over that, which reaches each cell in reverse order
        # of y, with the factors of the product swapped
        forward = count >= len(f)
        runs = list(zip(_flat_offsets(coords, shape), values))
        if not forward:
            runs.reverse()
        count = 0
        for t0 in range(0, flat.size, tile):
            t1 = min(t0 + tile, flat.size)
            for start, v in runs:
                a = start if start > t0 else t0
                b = start + size if start + size < t1 else t1
                if a < b:
                    out = product[:b - a]
                    if forward:
                        np.multiply(source[a - start:b - start], v, out=out)
                    else:
                        np.multiply(v, source[a - start:b - start], out=out)
                    dst = flat[a:b]
                    np.add(dst, out, out=dst)
            dst, mag, drop = flat[t0:t1], magnitudes[:t1 - t0], small[:t1 - t0]
            np.abs(dst, out=mag)
            np.less(mag, ZERO_DROP, out=drop)
            dst[drop] = 0.0
            count += t1 - t0 - np.count_nonzero(drop)
        # phi^(n) keeps one name, which the next step drops
        cur = nxt
        del source, nxt, flat, dst
        with _config.holding(cur.nbytes + tile * (cur.itemsize + 1)):
            yield cur, n * lattice.origin


def _direct_stream(f, n_values):
    """Yield ``(n, phi^(n))`` for each requested n from one exact :func:`sweep`.

    Each power is extracted when the sweep reaches it, from the array the
    sweep holds, and the sweep waits while the caller reduces it; a caller
    that keeps no power drops it before it asks for the next.  The last
    power is extracted once the sweep has freed its tile buffers, and when
    it is the only one, from the sweep's own array, in place when it is
    complex.  That array is dropped before the last ``yield``, unless the
    power's values stay in it.
    """
    n_values = sorted(set(int(n) for n in n_values))
    if n_values[0] < 1:
        raise ValueError("n values must be >= 1")
    *early, last = n_values
    lattice = support_lattice(f)
    # no enumerate: its reused result tuple would keep the last array alive
    # while the sweep makes the next
    n = 0
    for arr, lo in sweep(f, last, lattice):
        n += 1
        if n in early:
            yield n, _extract_sparse(f.dim, arr, lo, 0.0, basis=lattice.basis)
        if n < last:
            del arr  # the sweep drops its own name once it has relaid it
    with _config.holding(arr.nbytes):
        p = _extract_sparse(f.dim, arr, lo, 0.0, consume=not early, basis=lattice.basis)
    del arr
    yield last, p


def _flat_offsets(cells, shape):
    """Row-major flat index of each cell (a list of coordinates) in ``shape``."""
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    return [sum(i * s for i, s in zip(cell, strides)) for cell in cells]


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


# Fewest cells that _extract_sparse takes per chunk: below it each chunk's
# Python loop step costs more than its arithmetic, so a box of fewer cells
# is one chunk
_EXTRACT_CHUNK_CELLS = 2 ** 14


def _extract_chunk(cells):
    """Cells per chunk of :func:`_extract_sparse` on a box of ``cells`` cells:
    a 64th of the box, but at least ``_EXTRACT_CHUNK_CELLS``."""
    return max(_EXTRACT_CHUNK_CELLS, -(-cells // 64))


def _extract_sparse(dim, arr, lo, floor, consume=False, basis=None):
    """The entries of ``arr`` above ``floor`` as a function, ``arr[i]`` at ``lo + i @ basis``.

    ``basis`` defaults to the identity; a :class:`SupportLattice` basis is
    in echelon form with positive pivots, so in either case row-major order
    is lexicographic point order, the entries come out canonical and are
    copied once, one chunk of cells at a time; entries below ``ZERO_DROP``
    are dropped as :func:`_canonical` drops them.  With ``consume`` a
    complex ``arr`` is overwritten: the kept values move to the front of
    its buffer, which the result keeps unless fewer than half of the cells
    are kept.  The caller holds ``arr``; the cap is checked for the keep mask
    and one chunk's magnitudes, then beside the mask for the points, the
    values and one chunk's flat indices, coordinates and basis product.
    """
    if basis is None:
        basis = np.eye(dim, dtype=np.int64)
    flat = arr.reshape(-1)
    # |v| > floor, written as |v| >= the next float so that it also covers ZERO_DROP
    cut = max(np.nextafter(floor, np.inf), ZERO_DROP)
    step = _extract_chunk(flat.size)
    chunk, cells = min(step, flat.size), max(flat.size, 1)
    _check_box(arr.shape, complex_arrays=(cells + 8 * chunk) / (16 * cells))
    keep = np.empty(flat.size, dtype=bool)
    for s in range(0, flat.size, step):
        np.greater_equal(np.abs(flat[s:s + step]), cut, out=keep[s:s + step])
    count = int(np.count_nonzero(keep))
    in_place = consume and flat.dtype == np.complex128
    copied = 0 if in_place and 2 * count >= flat.size else count
    _check_box(arr.shape, complex_arrays=(cells + 8 * dim * count + 16 * copied
                                          + 8 * (dim + 2) * min(chunk, count)) / (16 * cells))
    points = np.empty((count, dim), dtype=np.int64)
    values = flat if in_place else np.empty(count, dtype=np.complex128)
    pos = 0
    for s in range(0, flat.size, step):
        nz = np.flatnonzero(keep[s:s + step])
        nz += s
        # in place, pos + nz.size <= s + step: only cells already read are written
        values[pos:pos + nz.size] = flat[nz]
        # a point mass sweeps a 0-d array, which unravel_index refuses
        _cell_points(np.unravel_index(nz, arr.shape or (1,)), lo, basis,
                     points[pos:pos + nz.size])
        pos += nz.size
    values = values[:count]
    if in_place and 2 * count < flat.size:
        values = values.copy()
    return LatticeFunction._from_sorted(dim, points, values)


def _cell_points(cells, lo, basis, out):
    """``out[m] = lo + i_m @ basis`` for the cells ``i_m`` whose coordinates
    along each axis are the arrays ``cells``."""
    for k in range(out.shape[1]):
        col = out[:, k]
        col[:] = lo[k]
        for c, b in zip(cells, basis[:, k]):
            if b:
                col += c if b == 1 else b * c


def _fft_noise_floor(n, vmax):
    # transform roundoff scale; genuine entries below it are indistinguishable
    # from FFT noise, true entries above survive untouched
    return 64.0 * np.finfo(float).eps * max(1.0, math.log2(max(n, 2))) * vmax


def _alias_threshold(n, vmax):
    # raising the symbol to the n-th power multiplies its relative roundoff by
    # n, so a torus's own noise grows with n past the extraction floor
    return max(_fft_noise_floor(n, vmax), n * np.finfo(float).eps * vmax)


def _is_real(f):
    return not np.any(f.values.imag)


def power_dense(f, n, shape=None):
    """phi^(n) on a dense torus via one spectral transform.

    Returns ``(array, lo)`` with ``array[i] = sum_k phi^(n)(lo + i + k * shape)``
    and ``lo = n * min(supp phi)``.  The default shape holds the whole
    ``n * span + 1`` box, so the sum has the single term ``k = 0``; a smaller
    shape gives the periodisation of phi^(n) on that torus (Poisson
    summation), which :func:`power_torus` certifies.  A real phi runs
    ``rfftn``/``irfftn`` and gives a real array.  A complex embedding is
    transformed in place, and the spectrum is raised by :func:`_binary_power`
    once ``emb`` is freed, so the peak stays two arrays of the spectrum's
    size.  This is the only caller of the transform; :func:`power_torus`,
    its only caller, checks the cap.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(f):
        return np.zeros((0,) * f.dim, dtype=np.complex128), np.zeros(f.dim, np.int64)
    real = _is_real(f)
    flo, fhi = f.extent()
    if shape is None:
        shape = tuple(_fft.next_fast_len(e, real) for e in n * (fhi - flo) + 1)
    shape = tuple(int(s) for s in shape)
    emb = np.zeros(shape, dtype=np.float64 if real else np.complex128)
    # wrapped on the torus; points of phi that alias onto one cell add up
    np.add.at(emb, tuple(((f.points - flo) % shape).T),
              f.values.real if real else f.values)
    fr = _fft.rfftn(emb) if real else _fft.fftn(emb)
    del emb
    fr = _binary_power(fr, n)
    return (_fft.irfftn(fr, shape) if real else _fft.ifftn(fr)), n * flo


def _binary_power(z, n):
    """``z ** n`` elementwise for an integer n >= 1, in one new array.

    Left-to-right binary powering (Knuth, TAOCP vol. 2, 4.6.3): one in-place
    squaring per bit of n after the leading one, and one multiply by ``z``
    per set bit.  Its relative error stays within ``n * eps / 2`` near
    ``|z| = 1``, where numpy's complex ``power`` switches to
    ``exp(n log z)`` for n >= 100, which is slower than a transform and less
    accurate.
    """
    out = z.copy()
    for bit in bin(n)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, z, out=out)
    return out


def power_torus(f, n, lo, hi):
    """phi^(n) on the lattice box ``[lo, hi]`` from a certified aliased torus.

    The torus has twice the box's width per axis, a guard band of half the
    width on each side, and at least phi's span on each side, so that the
    tail of a phi^(n) that lives on a sublattice shows in it.
    :func:`power_dense` gives the periodisation of phi^(n) on the torus.  It
    is accepted only when every entry outside the box is below
    :func:`_alias_threshold`, so that phi^(n) is at noise level there and the
    aliases folded into the box are smaller still.  Otherwise the box doubles
    about its centre.  An axis whose torus would reach the full
    ``n * span + 1`` extent takes that extent and does not alias; when every
    axis does, this is the exact-extent :func:`power_dense`.  Each torus is
    checked before its transform, beside what the caller holds, for two
    spectra (of ``N // 2 + 1`` cells on the last axis for a real phi) and,
    when it aliases, a complex torus box more for its magnitudes and the box
    copy; a caller holds the box around any :func:`_extract_sparse` of it.

    Returns ``(array, lo)`` like :func:`power_dense`, covering every point of
    ``[lo, hi]`` where phi^(n) can be non-zero.
    """
    n = int(n)
    if not len(f):
        return power_dense(f, n)
    real = _is_real(f)
    flo, fhi = f.extent()
    slo, shi = n * flo, n * fhi
    full = np.array([_fft.next_fast_len(e, real) for e in shi - slo + 1])
    lo = np.clip(np.asarray(lo, dtype=np.int64), slo, shi)
    hi = np.clip(np.asarray(hi, dtype=np.int64), lo, shi)
    span = fhi - flo
    while True:
        width = hi - lo + 1
        shape = np.array([_fft.next_fast_len(max(2 * w, w + 2 * s), real)
                          for w, s in zip(width, span)])
        exact = shape >= full
        shape = np.where(exact, full, shape)
        lo, hi = np.where(exact, slo, lo), np.where(exact, shi, hi)
        width = hi - lo + 1
        spectrum = (shape[-1] // 2 + 1) / shape[-1] if real else 1.0
        _check_box(tuple(shape), complex_arrays=2 * spectrum + (not exact.all()))
        if exact.all():
            return power_dense(f, n)
        arr, tlo = power_dense(f, n, tuple(shape))
        # centre the box on the torus: cell j of axis k holds tlo_k + j (mod N_k)
        idx = np.ix_(*[(l - t + np.arange(w)) % s
                       for l, t, w, s in zip(lo, tlo, width, shape)])
        mag = np.abs(arr)
        box = arr[idx]
        vmax = float(mag[idx].max())
        mag[idx] = 0.0
        if float(mag.max()) < _alias_threshold(n, vmax):
            return box, lo
        del arr, mag, box  # freed before the next torus is made
        grow = (width + 1) // 2
        lo, hi = np.maximum(lo - grow, slo), np.minimum(hi + grow, shi)


def power(f, n, method="spectral"):
    """n-fold convolution power of f on its full ``n * span + 1`` box.

    ``direct`` is the one-power case of :func:`_direct_stream` (the oracle
    of record); ``spectral`` is :func:`power_torus` on the full box, where
    every axis is exact (``rfftn`` when phi is real), without the entries
    below the transform-noise floor; ``fast`` is an alias of ``spectral``.
    The paths agree entrywise within 1e-10 at desk scale.  The memory cap
    covers the path's arrays and the sparse copy beside the dense result.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("direct", "fast", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    if not len(f) or n == 1:
        return f
    if method == "direct":
        [(_, p)] = _direct_stream(f, [n])
        return p
    flo, fhi = f.extent()
    arr, lo = power_torus(f, n, n * flo, n * fhi)
    with _config.holding(arr.nbytes):
        return _sparse_above_floor(f.dim, arr, lo, n)


def _sparse_above_floor(dim, arr, lo, n):
    """The spectral result ``arr`` of :func:`power_torus`, which the caller
    holds and which is consumed, without the entries below the noise floor;
    its maximum is taken one extraction chunk at a time."""
    flat, step = arr.reshape(-1), _extract_chunk(arr.size)
    vmax = max(float(np.abs(flat[s:s + step]).max()) for s in range(0, flat.size, step))
    return _extract_sparse(dim, arr, lo, _fft_noise_floor(n, vmax), consume=True)


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
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"{path}:{lineno}: value {re} + {im}i is not finite")
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
