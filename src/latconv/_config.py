"""The run context (the memory cap and the bytes held under it, which
``lattice._check_box`` alone reads, so a run is refused before the
allocation that would take held + request past the cap) and fixed knobs."""

import contextlib
import contextvars

_MEMORY_CAP = contextvars.ContextVar("memory_cap", default=2 * 1024 ** 3)
_HELD = contextvars.ContextVar("held", default=0)

# e^{-T_CUT} ~ 1e-20: integrand magnitude at the quadrature box boundary.
T_CUT = 46.0

# numpy.fft runs every transform on one thread.  Not a setting: the benchmark
# reports it beside the BLAS thread count.
FFT_WORKERS = 1


@contextlib.contextmanager
def memory_cap(nbytes):
    """Refuse boxes above ``nbytes`` bytes inside the block, and only there."""
    if not 1 <= nbytes < float("inf"):
        raise ValueError("memory cap must be finite and positive")
    token = _MEMORY_CAP.set(int(nbytes))
    try:
        yield
    finally:
        _MEMORY_CAP.reset(token)


@contextlib.contextmanager
def holding(nbytes):
    """Count ``nbytes`` as held beside every check inside the block; it adds
    and subtracts, as a generator's hold and its caller's interleave."""
    _HELD.set(_HELD.get() + int(nbytes))
    try:
        yield
    finally:
        _HELD.set(_HELD.get() - int(nbytes))
