import numpy as np
import pytest

import latconv
from latconv import examples
from latconv.homogeneous import sphere_samples


def conv_oracle(fd, gd):
    """Independent brute-force double-sum convolution on plain dicts."""
    out = {}
    for x, a in fd.items():
        for y, b in gd.items():
            k = tuple(xi + yi for xi, yi in zip(x, y))
            out[k] = out.get(k, 0.0) + a * b
    return {k: v for k, v in out.items() if v != 0.0}


def torus_dist(a, b):
    """Euclidean distance on the torus (R / 2 pi Z)^d."""
    d = np.abs(np.asarray(a) - b) % (2 * np.pi)
    return np.linalg.norm(np.minimum(d, 2 * np.pi - d))


def power_oracle(fd, n):
    out = dict(fd)
    for _ in range(n - 1):
        out = conv_oracle(out, fd)
    return out


def random_function(rng, dim, max_points=12, radius=2, normalized=True):
    k = rng.integers(1, max_points + 1)
    pts = rng.integers(-radius, radius + 1, size=(k, dim))
    vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    f = latconv.LatticeFunction(dim, pts, vals)
    if normalized and len(f):
        f = f.scale(1.0 / latconv.norm_l1(f))
    return f


def multi_start_rows(ev, xs):
    """Reference ascent rows for R# at ``xs``: each point at unit scale u
    beside 8 (d = 1), 64 (d = 2) or 512 (d = 3) starts, on geometric shells
    of radius 0.25 to 8 in sphere directions of seed 4242, scaled by the
    norm of u's grid argmax (at least 1e-2).  Returns (rows of u, starts)."""
    n_starts = 8 ** min(ev.dim, 3)
    n_shells = {1: 4, 2: 4, 3: 8}.get(ev.dim, 8)
    dirs = sphere_samples(ev.dim, max(1, n_starts // n_shells), seed=4242)
    shells = np.geomspace(0.25, 8.0, n_shells)
    starts = (shells[:, None, None] * dirs[None, :, :]).reshape(-1, ev.dim)
    _, us = ev.P.polar(np.asarray(xs, dtype=float).reshape(-1, ev.dim))
    _, grid_arg = ev._grid_scan_batch(us)
    scale = np.maximum(np.linalg.norm(grid_arg, axis=1), 1e-2)
    rows = (scale[:, None, None] * starts[None, :, :]).reshape(-1, ev.dim)
    return np.repeat(us, len(starts), axis=0), rows


def multi_start_conjugate(ev, xs):
    """Reference R#(xs) (finite t only): the larger of ``conjugate_batch``
    and the best ascent from the :func:`multi_start_rows` of each point."""
    xs = np.asarray(xs, dtype=float).reshape(-1, ev.dim)
    t, _ = ev.P.polar(xs)
    best = ev._ascend_batch(*multi_start_rows(ev, xs))[0].reshape(len(xs), -1).max(axis=1)
    return np.maximum(ev.conjugate_batch(xs)[0], t * best)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def intro_analysis():
    return latconv.analyze(examples.intro())


@pytest.fixture(scope="session")
def ex71_analysis():
    return latconv.analyze(examples.ex71())


@pytest.fixture(scope="session")
def ex72_analysis():
    return latconv.analyze(examples.ex72())


@pytest.fixture(scope="session")
def ex73_analysis():
    return latconv.analyze(examples.ex73())


@pytest.fixture(scope="session")
def ex74_analysis():
    return latconv.analyze(examples.ex74())


@pytest.fixture(scope="session")
def ex75_analysis():
    return latconv.analyze(examples.get("ex75:3,2"))


@pytest.fixture(scope="session")
def srw2_analysis():
    return latconv.analyze(examples.srw(2))
