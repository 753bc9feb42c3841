"""latconv's transforms on numpy.fft against scipy.fft, and an import of
latconv that loads no scipy module."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from latconv import _fft

SHAPES = [(1,), (7,), (16,), (15, 6), (16, 9), (9, 1), (5, 6, 7), (6, 4, 9),
          (12, 10, 8)]


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_import_loads_no_scipy():
    code = ("import sys, latconv, latconv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_matches_scipy(real):
    sfft = pytest.importorskip("scipy.fft")
    ours = [_fft.next_fast_len(n, real) for n in range(1, 20_001)]
    assert ours == [sfft.next_fast_len(n, real) for n in range(1, 20_001)]


@pytest.mark.parametrize("shape", SHAPES)
def test_transforms_match_scipy(shape):
    sfft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = rng.standard_normal(shape)
    assert _rel(_fft.fftn(z.copy()), sfft.fftn(z)) <= 1e-13
    assert _rel(_fft.ifftn(z.copy()), sfft.ifftn(z)) <= 1e-13
    assert _rel(_fft.ifftn(z.copy(), norm="forward"),
                sfft.ifftn(z, norm="forward")) <= 1e-13
    assert _rel(_fft.rfftn(x), sfft.rfftn(x)) <= 1e-13
    half = sfft.rfftn(x)
    # an odd last axis needs s to be told apart from the even one below it
    assert _rel(_fft.irfftn(half.copy(), shape), sfft.irfftn(half, s=shape)) <= 1e-13


def test_transforms_run_in_place():
    z = np.ones((64, 48), dtype=np.complex128)
    assert _fft.fftn(z) is z and _fft.ifftn(z) is z


def test_real_transforms_hold_half_a_box():
    # numpy's own rfftn and irfftn hold a second half spectrum (1.0 box)
    x = np.random.default_rng(3).standard_normal((512, 512))
    box = x.size * 16
    tracemalloc.start()
    try:
        spec = _fft.rfftn(x)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = _fft.irfftn(spec, x.shape)
        inverse = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward <= 0.51 * box and inverse <= 0.51 * box
    assert _rel(back, x) <= 1e-13
