"""Package-wide knobs with spec'd defaults."""

# Fast-path / grid allocations above this size are refused (bytes).
MEMORY_CAP_BYTES = 2 * 1024 ** 3

# e^{-T_CUT} ~ 1e-20: integrand magnitude at the quadrature box boundary.
T_CUT = 46.0

# numpy.fft runs every transform on one thread.  Not a setting: the benchmark
# reports it beside the BLAS thread count.
FFT_WORKERS = 1


def set_memory_cap(nbytes):
    global MEMORY_CAP_BYTES
    if nbytes <= 0:
        raise ValueError("memory cap must be positive")
    MEMORY_CAP_BYTES = int(nbytes)
