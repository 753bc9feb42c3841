"""The discrete Fourier transforms latconv uses, on ``numpy.fft``.

Every transform runs through ``out=`` (numpy >= 2.0), so no call allocates
more than its result: ``fftn`` and ``ifftn`` transform a complex array in
place, ``rfftn`` is a 1-D ``rfft`` on the last axis followed by an in-place
``fftn`` over the others, and ``irfftn`` mirrors it.  numpy's own
``rfftn``/``irfftn`` hold a second half-spectrum while they run.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(target, real=False):
    """Smallest n >= target with no prime factor above 5 (``real``) or 11."""
    n = int(target)
    if n < 1:
        raise ValueError("target must be a positive integer")
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    while True:
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def fftn(a):
    """Forward transform of the complex array ``a`` over every axis, in place."""
    return np.fft.fftn(a, out=a)


def ifftn(a, norm=None):
    """Inverse transform of the complex array ``a`` over every axis, in place."""
    return np.fft.ifftn(a, norm=norm, out=a)


def rfftn(a):
    """Half spectrum of the real array ``a``, in one new complex array."""
    spec = np.fft.rfft(a, axis=-1)
    if a.ndim > 1:
        np.fft.fftn(spec, axes=tuple(range(a.ndim - 1)), out=spec)
    return spec


def irfftn(spec, s):
    """Real array of shape ``s`` with half spectrum ``spec``; ``spec`` may be
    overwritten."""
    if spec.ndim > 1:
        np.fft.ifftn(spec, axes=tuple(range(spec.ndim - 1)), out=spec)
    return np.fft.irfft(spec, n=s[-1], axis=-1)
