"""The batched series kernels of ``_poly`` and ``expansion`` against the loops
they replaced, bit for bit.

The references below are the per-coefficient loops: one shifted-slice add
per term for the truncated product, one numpy chain per multi-index for the
moments, and one product chain per term for a linear change of variable.
Every comparison reads the float64 parts as uint64, so a -0 against a +0 or
a last-bit difference fails.
"""

import itertools
import math

import numpy as np
import pytest

import latconv
from latconv import _poly, examples
from latconv.expansion import _shifted_series
from latconv.lattice import LatticeFunction
from latconv.symbol import SymbolView

CORPUS = ["intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2", "ex75:2,1,1",
          "srw:2", "srw:3", "phim:2,3", "phim:1,2,3", "unstable1d"]


def _slice_series_mul(a, b):
    m = a.shape[0] - 1
    deg = np.indices(a.shape).sum(axis=0)
    low = deg[a != 0].min(initial=m + 1)
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    for beta in np.argwhere((b != 0) & (deg <= m - low)).tolist():
        dst = tuple(slice(k, None) for k in beta)
        src = tuple(slice(None, m + 1 - k) for k in beta)
        out[dst] += a[src] * b[tuple(beta)]
    out[deg > m] = 0.0
    return out


def _slice_log1p(u):
    out = u.copy()
    power = u
    for k in range(2, u.shape[0]):
        power = _slice_series_mul(power, u)
        out += ((-1) ** (k + 1) / k) * power
    return out


def _loop_compose_linear(q, mat):
    mat = np.asarray(mat, dtype=float)
    d, m = q.ndim, q.shape[0] - 1
    one = np.zeros(q.shape)
    one[(0,) * d] = 1.0
    pows = []
    for row in mat:
        form = np.zeros_like(one)
        form[tuple(np.eye(d, dtype=int))] = row
        pows.append([one])
        while len(pows[-1]) <= m:
            pows[-1].append(_slice_series_mul(pows[-1][-1], form))
    out = np.zeros(q.shape, dtype=np.complex128)
    for beta in np.argwhere(q).tolist():
        term = pows[0][beta[0]]
        for p, b in zip(pows[1:], beta[1:]):
            if b:
                term = _slice_series_mul(term, p[b])
        out += q[tuple(beta)] * term
    return out


def _per_beta_shifted_series(sym, xi0, m):
    f = sym.source
    d = f.dim
    lo, hi = f.extent()
    pts = f.points - (lo + hi) / 2.0
    psi = f.values * np.exp(1j * (pts @ np.asarray(xi0, dtype=float)))
    psi /= psi.sum()
    ipts = 1j * pts
    u = np.zeros((m + 1,) * d, dtype=np.complex128)
    for beta in itertools.product(*(range(m + 1),) * d):
        if 0 < sum(beta) <= m:
            term = psi
            for j, b in enumerate(beta):
                if b:
                    term = term * ipts[:, j] ** b
            u[beta] = complex(term.sum()) / math.prod(map(math.factorial, beta))
    return u


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _corpus_point(name):
    g, _ = latconv.normalize(examples.get(name))
    sym = SymbolView(g)
    return sym, latconv.find_omega(sym).points[0]


def _random_series(rng, d, m, complex_=True):
    """A dense series of order m with exact zeros, -0 parts, and entries of
    a few binary digits, so that sums of products cancel exactly."""
    shape = (m + 1,) * d
    deg = np.indices(shape).sum(axis=0)

    def part():
        x = rng.integers(-3, 4, shape) * 0.5 ** rng.integers(0, 3, shape)
        x[rng.random(shape) < 0.2] = -0.0
        return x

    u = part() + 1j * part() if complex_ else part()
    u[(deg > m) | (rng.random(shape) < 0.25)] = 0.0
    u[rng.random(shape) < 0.1] *= -1.0  # some zeros turn -0
    return u


@pytest.mark.parametrize("name", CORPUS)
def test_series_kernels_match_the_loops_on_the_corpus(name):
    sym, xi = _corpus_point(name)
    u = _per_beta_shifted_series(sym, xi, 12)
    _assert_same_bits(_shifted_series(sym, xi, 12), u)
    power = u
    for _ in range(3):
        _assert_same_bits(_poly.series_mul(power, u), _slice_series_mul(power, u))
        power = _poly.series_mul(power, u)
    log = _poly.log1p_series(u)
    _assert_same_bits(log, _slice_log1p(u))
    d = sym.dim
    rng = np.random.default_rng(7)
    for mat in (np.eye(d), np.linalg.qr(rng.standard_normal((d, d)))[0]):
        _assert_same_bits(_poly.series_compose_linear(-log, mat),
                          _loop_compose_linear(-log, mat))


@pytest.mark.parametrize("name, shift", [("intro", 1), ("ex73", -2), ("srw:3", 1),
                                         ("phim:1,2,3", -2), ("ex75:2,3", 1)])
def test_shifted_series_matches_the_loop_translated_and_at_low_order(name, shift):
    f = examples.get(name)
    g, _ = latconv.normalize(LatticeFunction(f.dim, f.points + shift, f.values))
    sym = SymbolView(g)
    xi = latconv.find_omega(sym).points[0]
    for m in (2, 3, 12):
        _assert_same_bits(_shifted_series(sym, xi, m), _per_beta_shifted_series(sym, xi, m))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_series_kernels_match_the_loops_on_random_series(d):
    rng = np.random.default_rng(30 + d)
    one, last = (0,) * d, (0,) * (d - 1) + (1,)
    for m in (1, 2, 5, 12 if d < 3 else 8):
        for trial in range(6):
            a = _random_series(rng, d, m, complex_=trial % 3 != 2)
            b = _random_series(rng, d, m, complex_=trial % 2 == 0)
            # (1 + x_d)(1 - x_d): the products at x_d cancel to an exact +0
            a[one], a[last], b[one], b[last] = 1.0, 1.0, 1.0, -1.0
            want = _slice_series_mul(a, b)
            assert want[last] == 0 and not np.signbit(want[last].real)
            _assert_same_bits(_poly.series_mul(a, b), want)
            q = a + 0j
            for mat in (np.eye(d), rng.integers(-2, 3, (d, d)) * 0.5):
                _assert_same_bits(_poly.series_compose_linear(q, mat),
                                  _loop_compose_linear(q, mat))


def test_identity_composition_reads_zero_parts_as_plus_zero():
    q = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)],
                  [complex(0.0, -3.0), -0.0, 0.0], [0.0, 0.0, 0.0]])
    got = _poly.series_compose_linear(q, np.eye(2))
    _assert_same_bits(got, _loop_compose_linear(q, np.eye(2)))
    assert not np.signbit(got.real[got.real == 0]).any()
    assert not np.signbit(got.imag[got.imag == 0]).any()
    assert np.array_equal(got, q)
    _assert_same_bits(_poly.series_compose_linear(q.real, np.eye(2)),
                      _loop_compose_linear(q.real, np.eye(2)))


def test_series_products_are_counted(monkeypatch):
    # composing with I forms no product; log(1 + u) takes u^2, ..., u^m
    sym, xi = _corpus_point("srw:3")
    u = _shifted_series(sym, xi, 12)
    calls = []
    real = _poly.series_mul
    monkeypatch.setattr(_poly, "series_mul", lambda a, b: calls.append(1) or real(a, b))
    _poly.series_compose_linear(u, np.eye(3))
    assert calls == []
    _poly.log1p_series(u)
    assert len(calls) <= u.shape[0] - 2


def test_shared_index_tables_are_read_only():
    deg = _poly.weighted_degree(4, (1, 1))
    with pytest.raises(ValueError):
        deg[0, 0] = 7
    for table in _poly._product_pairs(4, 2):
        with pytest.raises(ValueError):
            table[0] = 1
    assert _poly.weighted_degree(4, (1, 1))[0, 0] == 0
