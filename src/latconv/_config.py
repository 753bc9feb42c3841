"""Package-wide knobs with spec'd defaults."""

import contextlib
import contextvars

# Fast-path / grid allocations above this size are refused (bytes).  A context
# variable, so each thread and each ``memory_cap`` block reads its own.
_MEMORY_CAP = contextvars.ContextVar("memory_cap", default=2 * 1024 ** 3)

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
