"""Per-layer spans recorded around calls into latconv, from outside the package.

Each wrapped function records a span: its duration, and the part of that
duration covered by wrapped calls it made (its child spans). A layer's self
time is the duration minus the child part. Counters (cells, points, calls)
are taken at the same boundaries.

The package imports functions by name (``from .symbol import find_omega``),
so :func:`install` replaces a function in every latconv module that holds
it, not only in the module that defines it. Methods are replaced on their
class. Callers in this benchmark must reach latconv through module
attributes (``latconv.power``, ``cli.main``) so that they see the wrappers.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Self time, call counts and counters per span name, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # seconds covered by child spans, one slot per open span

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        ``(args, kwargs)``; ``count(counts, args, kwargs, result)`` adds
        counters after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += duration
                tracer.self_s[span] += duration - children
                tracer.calls[span] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced


def _power_name(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "fast")
    return f"lattice.power.{method}"


def _count_convolve(counts, args, kwargs, result):
    f, g = args[0], args[1]
    if len(f) and len(g):
        (flo, fhi), (glo, ghi) = f.extent(), g.extent()
        counts["lattice.convolve.cells"] += float(np.prod(fhi - flo + ghi - glo + 1.0))


def _count_power_dense(counts, args, kwargs, result):
    counts["lattice.power_dense.cells"] += float(result[0].size)


def _count_omega(counts, args, kwargs, result):
    counts["symbol.omega_points"] += len(result)


def _count_eval(counts, args, kwargs, result):
    poly, xi = args[0], np.asarray(args[1])
    counts["homogeneous.eval.points"] += xi.size // poly.dim


def _count_grid(counts, args, kwargs, result):
    counts["attractor.attractor_grid.cells"] += float(np.prod(result.grid_sizes))


def _count_batch(counts, args, kwargs, result):
    counts["legendre.conjugate_batch.points"] += len(result[0])


# (module, function, span name, counter); every latconv module holding the
# function gets the wrapper
_FUNCTIONS = (
    ("symbol", "locate_sup", "symbol.locate_sup", None),
    ("symbol", "find_omega", "symbol.find_omega", _count_omega),
    ("expansion", "gamma_taylor", "expansion.gamma_taylor", None),
    ("expansion", "classify", "expansion.classify", None),
    ("expansion", "analyze", "expansion.analyze", None),
    ("lattice", "convolve", "lattice.convolve", _count_convolve),
    ("lattice", "power", _power_name, None),
    ("lattice", "power_dense", "lattice.power_dense", _count_power_dense),
    ("attractor", "box_halfwidths", "attractor.box_halfwidths", None),
    ("attractor", "attractor_grid", "attractor.attractor_grid", _count_grid),
    ("attractor", "attractor_eval", "attractor.attractor_eval", None),
    ("attractor", "llt_approx", "attractor.llt_approx", None),
    ("verify", "direct_powers", "verify.direct_powers", None),
    ("verify", "sup_decay_report", "verify.sup_decay_report", None),
    ("verify", "llt_error", "verify.llt_error", None),
    ("verify", "gaussian_bound_fit", "verify.gaussian_bound_fit", None),
    ("verify", "subexp_bound_fit", "verify.subexp_bound_fit", None),
    ("verify", "stability_report", "verify.stability_report", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer):
    """Replace latconv's layer entry points with span-recording wrappers."""
    from latconv import cli  # noqa: F401  (loaded so that it is patched too)
    from latconv.homogeneous import HomogeneousPolynomial
    from latconv.legendre import ConjugateEvaluator

    modules = [m for name, m in sys.modules.items()
               if name == "latconv" or name.startswith("latconv.")]
    for module, func, span, count in _FUNCTIONS:
        original = getattr(sys.modules[f"latconv.{module}"], func)
        traced = tracer.wrap(span, original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)

    for method in ("__call__", "real", "real_grad", "real_hess"):
        original = getattr(HomogeneousPolynomial, method)
        setattr(HomogeneousPolynomial, method,
                tracer.wrap("homogeneous.eval", original, _count_eval))

    ConjugateEvaluator.conjugate_batch = tracer.wrap(
        "legendre.conjugate_batch", ConjugateEvaluator.conjugate_batch, _count_batch)
    single = tracer.wrap("legendre.conjugate", ConjugateEvaluator.conjugate)

    def conjugate(self, *args, **kwargs):
        before = tracer.calls["legendre.conjugate_batch"]
        result = single(self, *args, **kwargs)
        if tracer.calls["legendre.conjugate_batch"] == before:
            tracer.counts["legendre.conjugate.hits"] += 1
        return result

    ConjugateEvaluator.conjugate = conjugate


def layer_metrics(tracer):
    """Per-layer metrics as ``{name: (value, unit)}``; idle layers read 0."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out = {}

    def timed(span, with_calls=True):
        out[f"{span}.s"] = (s[span], "s")
        if with_calls:
            out[f"{span}.calls"] = (calls[span], "count")

    timed("symbol.locate_sup")
    timed("symbol.find_omega")
    out["symbol.omega_points"] = (counts["symbol.omega_points"], "count")
    timed("expansion.gamma_taylor")
    timed("expansion.classify")
    timed("expansion.analyze", with_calls=False)

    timed("homogeneous.eval")
    points = counts["homogeneous.eval.points"]
    out["homogeneous.eval.points"] = (points, "count")
    out["homogeneous.eval.points_per_call"] = (
        points / calls["homogeneous.eval"] if calls["homogeneous.eval"] else 0.0, "count")

    timed("lattice.convolve")
    out["lattice.convolve.cells"] = (counts["lattice.convolve.cells"], "cells")
    for method in ("direct", "fast", "spectral"):
        timed(f"lattice.power.{method}")
    timed("lattice.power_dense")
    cells = counts["lattice.power_dense.cells"]
    out["lattice.power_dense.cells"] = (cells, "cells")
    # three complex128 boxes, as latconv.lattice._check_box budgets them
    out["lattice.power_dense.bytes"] = (cells * 16 * 3, "B-computed")

    timed("attractor.box_halfwidths")
    timed("attractor.attractor_grid")
    out["attractor.attractor_grid.cells"] = (counts["attractor.attractor_grid.cells"], "cells")
    timed("attractor.attractor_eval")
    timed("attractor.llt_approx", with_calls=False)

    timed("legendre.conjugate_batch")
    out["legendre.conjugate_batch.points"] = (counts["legendre.conjugate_batch.points"], "count")
    single = calls["legendre.conjugate"]
    out["legendre.conjugate.calls"] = (single, "count")
    out["legendre.conjugate.hit_ratio"] = (
        counts["legendre.conjugate.hits"] / single if single else 0.0, "ratio")

    for func in ("direct_powers", "sup_decay_report", "llt_error",
                 "gaussian_bound_fit", "subexp_bound_fit", "stability_report"):
        timed(f"verify.{func}")
    timed("cli.main")
    return out

