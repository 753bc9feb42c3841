import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import latconv
from latconv import examples
from latconv.errors import DimensionMismatchError, ResourceLimitError
from latconv.lattice import LatticeFunction

from conftest import conv_oracle, power_oracle, random_function


def test_delta_is_identity():
    f = examples.intro()
    g = latconv.convolve(latconv.delta((0, 0)), f)
    assert g == f


def test_bernoulli_square():
    b = LatticeFunction.from_dict({(1,): 0.5, (-1,): 0.5})
    sq = latconv.convolve(b, b)
    assert sq.to_dict() == {(-2,): 0.25, (0,): 0.5, (2,): 0.25}
    assert latconv.power(b, 2, method="direct") == sq


def test_intro_selfconvolution_matches_double_sum_oracle():
    f = examples.intro()
    expected = conv_oracle(f.to_dict(), f.to_dict())
    got = latconv.convolve(f, f)
    assert set(got.to_dict()) == set(expected)
    for k, v in expected.items():
        assert abs(got.value_at(k) - v) < 1e-15


def test_power_translation():
    g = latconv.power(latconv.delta((2, -1)), 7, method="direct")
    assert g.to_dict() == {(14, -7): pytest.approx(1.0)}


def test_power_intro_n10_matches_direct_oracle():
    f = examples.intro()
    direct = latconv.power(f, 10, method="direct")
    oracle = power_oracle(f.to_dict(), 10)
    sup_direct = max(abs(v) for v in direct.to_dict().values())
    sup_oracle = max(abs(v) for v in oracle.values())
    assert abs(sup_direct - sup_oracle) < 1e-10
    fast = latconv.power(f, 10, method="fast")
    for k, v in oracle.items():
        assert abs(fast.value_at(k) - v) < 1e-10


def test_norms():
    f = examples.srw(3)
    assert latconv.norm_l1(f) == pytest.approx(1.0)
    d = latconv.delta((4, 5))
    assert latconv.norm_l1(d) == 1.0
    assert latconv.norm_linf(d) == 1.0
    intro = examples.intro()
    expected = sum(abs(v) for v in intro.to_dict().values())
    assert latconv.norm_l1(intro) == pytest.approx(expected, abs=1e-15)


def test_tensor_ex74_table():
    phi = examples.ex74()
    assert phi.value_at((0, 0)) == pytest.approx(19.0 / 128.0)
    assert phi.value_at((1, 1)) == pytest.approx(1.0 / 8.0)
    assert phi.value_at((4, 1)) == pytest.approx(1.0 / 512.0)
    assert phi.value_at((-2, 0)) == pytest.approx(-5.0 / 64.0)


def test_tensor_delta():
    t = latconv.tensor(latconv.delta((0,)), latconv.delta((0,)))
    assert t.to_dict() == {(0, 0): 1.0}


def test_tensor_power_identity():
    phi1, phi2 = examples.ex74_parts()
    lhs = latconv.power(latconv.tensor(phi1, phi2), 3, method="direct")
    rhs = latconv.tensor(latconv.power(phi1, 3, method="direct"),
                         latconv.power(phi2, 3, method="direct"))
    keys = set(lhs.to_dict()) | set(rhs.to_dict())
    for k in keys:
        assert abs(lhs.value_at(k) - rhs.value_at(k)) < 1e-12


def test_translate_identities():
    f = examples.ex73()
    assert latconv.translate(latconv.delta((0, 0)), (3, -2)) == latconv.delta((3, -2))
    assert latconv.translate(f, (0, 0)) == f
    assert latconv.translate(latconv.translate(f, (5, 1)), (-5, -1)) == f
    with pytest.raises(DimensionMismatchError):
        latconv.translate(f, (1, 2, 3))


def test_convolve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        latconv.convolve(examples.intro(), examples.unstable1d())


def test_power_rejects_n_zero():
    with pytest.raises(ValueError):
        latconv.power(examples.intro(), 0)


def test_memory_cap():
    from latconv import _config
    with _config.memory_cap(10_000), pytest.raises(ResourceLimitError):
        latconv.power(examples.intro(), 64, method="fast")


def test_memory_cap_holds_per_thread():
    # two threads each run under their own cap while the other's is set, and
    # neither changes the cap that the caller reads.  Each also holds 1 GiB:
    # were the holds one count, the 2 GiB thread would see 2 GiB held and
    # refuse its power
    import threading

    from latconv import _config
    barrier, got, held = threading.Barrier(2), {}, {}

    def run(cap):
        with _config.memory_cap(cap), _config.holding(2 ** 30):
            barrier.wait()
            held[cap] = _config._HELD.get()
            try:
                got[cap] = len(latconv.power(examples.intro(), 64, method="spectral"))
            except ResourceLimitError as exc:
                got[cap] = exc
            barrier.wait()

    threads = [threading.Thread(target=run, args=(cap,)) for cap in (10_000, 2 * 2 ** 30)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert isinstance(got[10_000], ResourceLimitError)
    assert got[2 * 2 ** 30] == 4923
    assert held == {10_000: 2 ** 30, 2 * 2 ** 30: 2 ** 30}
    assert _config._MEMORY_CAP.get() == 2 * 2 ** 30
    assert _config._HELD.get() == 0


def test_direct_power_cap_counts_what_a_step_holds():
    # a complex sweep step holds two complex boxes of the final size (phi^(n-1)
    # beside its relaid copy, then that copy beside phi^(n)) and the sweep's
    # tile buffers (a complex product tile and a byte mask), as the sweep's
    # last step counts them; a cap just under that budget must refuse the
    # sweep and the budget must admit it.  The direct power's sparse copy
    # beside the last array asks for more (2.80 boxes against 2.53 here), so
    # the sweep runs alone.  A real phi sweeps in half boxes and would not
    # test this
    from latconv import _config
    from latconv.lattice import _TILE_CELLS, support_lattice, sweep
    f, n = examples.intro(), 64
    cells = int(np.prod(support_lattice(f).box(n)))
    need = 32 * cells + 17 * min(_TILE_CELLS, cells)
    with _config.memory_cap(math.ceil(need) - 1), pytest.raises(ResourceLimitError):
        for arr, _ in sweep(f, n):
            del arr
    with _config.memory_cap(math.ceil(need)):
        assert sum(1 for _ in sweep(f, n)) == n


def test_stream_step_holds_two_boxes(monkeypatch):
    # a sweep step relays phi^(n-1) and drops it before it allocates phi^(n),
    # and _direct_stream drops each array before it asks for the next, so a
    # step of intro's stream to n = 128 holds two boxes of phi^(128) and the
    # tile buffers: tracemalloc read 2.14 boxes, where a step that kept
    # phi^(n-1) beside its copy and phi^(n) read 3.13
    import tracemalloc

    from latconv import lattice
    from latconv.lattice import _TILE_CELLS, support_lattice
    real, peaks = lattice.sweep, []

    def sweep(*args):
        steps = real(*args)
        while True:
            tracemalloc.reset_peak()
            try:
                item = next(steps)
            except StopIteration:
                return
            peaks.append(tracemalloc.get_traced_memory()[1])
            yield item
            del item

    monkeypatch.setattr(lattice, "sweep", sweep)
    f, n = examples.intro(), 128
    cells = int(np.prod(support_lattice(f).box(n)))
    tracemalloc.start()
    try:
        [(_, p)] = lattice._direct_stream(f, [n])
    finally:
        tracemalloc.stop()
    assert len(peaks) == n and len(p)
    assert max(peaks) <= 32 * cells + 17 * min(_TILE_CELLS, cells) + 2 ** 18, \
        max(peaks) / (16 * cells)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_sweep_peak_memory_within_its_budget(n):
    # the tile buffers are a larger share of a smaller box: with each array
    # dropped before the next step, tracemalloc read 3.21 boxes at n = 16,
    # 2.54 at 64 and 2.03 at 256, against 3.54, 2.56 and 2.04 budgeted
    import tracemalloc
    from latconv.lattice import _TILE_CELLS, sweep
    f = examples.intro()
    lo, hi = f.extent()
    cells = int(np.prod(n * (hi - lo) + 1))
    tracemalloc.start()
    try:
        for arr, _ in sweep(f, n):
            del arr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two complex boxes and the tile buffers, as the last step counts them
    assert peak <= 32 * cells + 17 * min(_TILE_CELLS, cells) + 2 ** 14, peak / (16 * cells)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_convolution_commutative_associative(data):
    dim = data.draw(st.integers(1, 2))
    entry = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * dim),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                           allow_infinity=False))
    fd = dict(data.draw(st.lists(entry, min_size=1, max_size=5)))
    gd = dict(data.draw(st.lists(entry, min_size=1, max_size=5)))
    hd = dict(data.draw(st.lists(entry, min_size=1, max_size=5)))
    f = LatticeFunction.from_dict(fd, dim=dim)
    g = LatticeFunction.from_dict(gd, dim=dim)
    h = LatticeFunction.from_dict(hd, dim=dim)
    fg = latconv.convolve(f, g)
    gf = latconv.convolve(g, f)
    for k in set(fg.to_dict()) | set(gf.to_dict()):
        assert abs(fg.value_at(k) - gf.value_at(k)) < 1e-12
    lhs = latconv.convolve(fg, h)
    rhs = latconv.convolve(f, latconv.convolve(g, h))
    for k in set(lhs.to_dict()) | set(rhs.to_dict()):
        assert abs(lhs.value_at(k) - rhs.value_at(k)) < 1e-12


def test_power_paths_agree(rng):
    for _ in range(12):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 33 if dim < 3 else 17))
        f = random_function(rng, dim, radius=2 if dim < 3 else 1)
        direct = latconv.power(f, n, method="direct")
        fast = latconv.power(f, n, method="fast")
        spectral = latconv.power(f, n, method="spectral")
        keys = (set(direct.to_dict()) | set(fast.to_dict())
                | set(spectral.to_dict()))
        for k in keys:
            v = direct.value_at(k)
            assert abs(fast.value_at(k) - v) < 1e-10
            assert abs(spectral.value_at(k) - v) < 1e-10


def test_support_in_minkowski_sum(rng):
    for _ in range(6):
        f = random_function(rng, 2, max_points=5, radius=2)
        n = int(rng.integers(2, 7))
        g = latconv.power(f, n, method="direct")
        base = set(map(tuple, f.points.tolist()))
        allowed = {(0, 0)}
        for _ in range(n):
            allowed = {(a[0] + b[0], a[1] + b[1]) for a in allowed for b in base}
        assert set(map(tuple, g.points.tolist())) <= allowed


def test_l1_submultiplicative(rng):
    for _ in range(8):
        f = random_function(rng, 2, normalized=False)
        g = random_function(rng, 2, normalized=False)
        prod = latconv.norm_l1(latconv.convolve(f, g))
        assert prod <= latconv.norm_l1(f) * latconv.norm_l1(g) + 1e-12


def test_file_roundtrip(tmp_path):
    f = examples.intro()
    path = tmp_path / "intro.fn"
    latconv.write_function(f, path)
    g = latconv.read_function(path)
    assert g == f
    text = path.read_text()
    assert text.splitlines()[0] == "dim 2"


def test_file_format_errors(tmp_path):
    bad = tmp_path / "bad.fn"
    bad.write_text("dim 2\n1 2 3\n")
    with pytest.raises(ValueError, match="bad.fn:2"):
        latconv.read_function(bad)
    bad.write_text("nodim\n")
    with pytest.raises(ValueError, match="dim"):
        latconv.read_function(bad)
    # a NaN would be dropped as a true zero, and an inf would reach the analysis
    for entry in ("nan 0", "0.5 inf", "-inf 0"):
        bad.write_text(f"dim 1\n0 0.5 0\n1 {entry}\n")
        with pytest.raises(ValueError, match="bad.fn:3: .* not finite"):
            latconv.read_function(bad)


def test_file_comments_and_order(tmp_path):
    path = tmp_path / "f.fn"
    path.write_text("# comment\ndim 1\n2 1.5 0\n-1 0.25 -0.5\n")
    f = latconv.read_function(path)
    assert f.to_dict() == {(2,): 1.5, (-1,): 0.25 - 0.5j}
    out = tmp_path / "g.fn"
    latconv.write_function(f, out)
    lines = out.read_text().splitlines()
    assert lines[1].startswith("-1 ")


def test_canonical_form_drops_zeros():
    f = LatticeFunction.from_dict({(0,): 1.0, (1,): 0.0})
    assert len(f) == 1
    g = LatticeFunction(1, np.array([[0], [0]]), np.array([1.0, -1.0]))
    assert len(g) == 0


def _assert_bit_identical(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def _check_direct_paths(f, n):
    """power(direct) and direct_powers against iterated pairwise convolve."""
    from latconv import verify

    ns = sorted({1, max(1, n // 2), n})
    powers = verify.direct_powers(f, ns)
    out = f
    for k in range(1, n + 1):
        if k > 1:
            out = latconv.convolve(out, f)
        if k in ns:
            _assert_bit_identical(powers[k], out)
    _assert_bit_identical(latconv.power(f, n, method="direct"), out)
    assert latconv.power(f, n, method="fast") == latconv.power(f, n, method="spectral")


@pytest.mark.parametrize("name,n", [("intro", 96), ("ex73", 128), ("srw:3", 24),
                                    ("unstable1d", 256), ("phim:2,3", 32)])
def test_direct_sweep_bit_identical_to_convolve(name, n):
    _check_direct_paths(examples.get(name), n)


def test_direct_sweep_bit_identical_random():
    rng = np.random.default_rng(77)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        radius = 2 if dim < 3 else 1
        n = int(np.exp(rng.uniform(0.0, np.log(64.0))))
        _check_direct_paths(random_function(rng, dim, max_points=12, radius=radius), n)
    # products with the tiny entries fall below 1e-300, so phi^(2) has fewer
    # points than phi and convolve iterates supp phi^(n-1) instead of supp phi
    entries = {(0,): 1e-60 * (1 + 0.3j), (1,): 1e-60 * (0.7 - 0.2j),
               (2,): 1e-60 * (-0.4 + 0.9j)}
    entries.update({(k,): 1e-250 * (1 + 1j) for k in range(5, 9)})
    f = LatticeFunction.from_dict(entries)
    assert len(latconv.convolve(f, f)) < len(f)
    _check_direct_paths(f, 6)


def _sweep_against_convolve(f, n, refs):
    """Every power of ``sweep(f, n)`` against iterated pairwise ``convolve``;
    ``refs`` caches the iterated powers of ``f``."""
    from latconv.lattice import _extract_sparse, support_lattice, sweep
    want = refs.setdefault((f.dim, f.points.tobytes(), f.values.tobytes()), [f])
    while len(want) < n:
        want.append(latconv.convolve(want[-1], f))
    lattice = support_lattice(f)
    for k, (arr, lo) in enumerate(sweep(f, n, lattice)):
        got = _extract_sparse(f.dim, arr.copy(), lo, 0.0, basis=lattice.basis)
        _assert_bit_identical(got, want[k])


@pytest.fixture(scope="module")
def convolve_refs():
    return {}


@pytest.mark.parametrize("tile", [1, 2, 7, 64, None])
def test_sweep_bit_identical_at_any_tile_size(tile, monkeypatch, convolve_refs):
    # a run that crosses tiles is multiplied and added in pieces; one-cell
    # pieces at tile 1 and runs that start inside a tile at 2 and 7
    from latconv import lattice
    if tile is not None:
        monkeypatch.setattr(lattice, "_TILE_CELLS", tile)
    n = 6 if tile is not None and tile < 7 else 16
    cases = [examples.intro(), examples.ex72(), latconv.translate(examples.ex73(), (1, 1)),
             examples.get("srw:3"), examples.get("unstable1d"), examples.get("phim:2,3")]
    rng = np.random.default_rng(22)
    for dim in (1, 2, 3):
        for _ in range(2):
            cases.append(random_function(rng, dim, max_points=8, radius=2 if dim < 3 else 1))
    for f in cases:
        _sweep_against_convolve(f, min(n, 8) if f.dim == 3 else n, convolve_refs)


@pytest.mark.parametrize("tile", [1, 2, 7, 64, None])
def test_sweep_step_direction_follows_the_smaller_support(tile, monkeypatch,
                                                         convolve_refs):
    # products with the tiny entries fall below 1e-300, so phi^(2) has fewer
    # points than phi and the step that makes phi^(3) runs in reverse order,
    # with the scalar first in each product
    from latconv import lattice
    if tile is not None:
        monkeypatch.setattr(lattice, "_TILE_CELLS", tile)
    entries = {(0,): 1e-60 * (1 + 0.3j), (1,): 1e-60 * (0.7 - 0.2j),
               (2,): 1e-60 * (-0.4 + 0.9j)}
    entries.update({(k,): 1e-250 * (1 + 1j) for k in range(5, 9)})
    f = LatticeFunction.from_dict(entries)
    _sweep_against_convolve(f, 6, convolve_refs)

    class Recorder:
        def __init__(self):
            self.scalar_first = []

        def __getattr__(self, name):
            return getattr(np, name)

        def multiply(self, a, b, out=None):
            self.scalar_first.append(np.ndim(a) == 0)
            return np.multiply(a, b, out=out)

    recorder = Recorder()
    monkeypatch.setattr(lattice, "np", recorder)
    reverse = []
    for n, (arr, _) in enumerate(lattice.sweep(f, 6), start=1):
        if n > 1:
            assert set(recorder.scalar_first) == {not forward}
            reverse.append(not forward)
        recorder.scalar_first.clear()
        forward = np.count_nonzero(arr) >= len(f)
    assert any(reverse) and not all(reverse)


def test_add_sub_merge_shared_points():
    f = LatticeFunction.from_dict({(0,): 1.0, (1,): 2.0 + 1j})
    g = LatticeFunction.from_dict({(1,): 2.0 + 1j, (3,): 0.5})
    assert (f - g).to_dict() == {(0,): 1.0, (3,): -0.5}
    assert (f + g).to_dict() == {(0,): 1.0, (1,): 4.0 + 2j, (3,): 0.5}
    with pytest.raises(DimensionMismatchError):
        f + examples.intro()


def test_add_merges_sorted_supports_as_canonical_does():
    # against the concatenation sorted and summed by _canonical: shared keys,
    # sums that cancel or fall below 1e-300, parts of -0 (which a sum from
    # zero turns to +0), empty operands, and a box too large for int64 keys
    rng = np.random.default_rng(41)

    def drawn(dim, k, span):
        pts = rng.integers(-span, span + 1, size=(k, dim))
        vals = rng.choice([1.0, -1.0, 0.5, 1e-301, 3e-300], size=k) * rng.choice(
            [1.0, 1j, complex(1.0, -0.0), complex(-0.0, 1.0), 1.0 + 0.25j], size=k)
        return LatticeFunction(dim, pts, vals)

    cases = []
    for dim in (1, 2, 3):
        for k in (0, 1, 5, 40):
            for _ in range(6):
                f = drawn(dim, k, 3)
                cases.append((f, drawn(dim, int(rng.integers(0, 40)), 3)))
                cases.append((f, f.scale(-1.0)))
                cases.append((f, LatticeFunction._from_sorted(dim, f.points, 0.0 - f.values)))
    far = LatticeFunction.from_dict({(-2 ** 62, 0): 1.0, (2 ** 62, 5): 2.0, (0, 0): 1j})
    cases.append((far, LatticeFunction.from_dict({(2 ** 62, 5): -2.0, (1, 1): 0.5})))
    merged = 0
    for f, g in cases:
        points = np.concatenate((f.points, g.points))
        want = LatticeFunction(f.dim, points, np.concatenate((f.values, g.values)))
        _assert_bit_identical(f + g, want)
        _assert_bit_identical(f - g, LatticeFunction(
            f.dim, points, np.concatenate((f.values, 0.0 - g.values))))
        merged += len(f) + len(g) > len(want)
    assert merged > 50


# -- memory cap, sparse extraction and the certified torus ------------------

def _budget_and_peak(monkeypatch, call):
    """(largest held + _check_box request, tracemalloc peak) of ``call()``."""
    import tracemalloc
    from latconv import _config, lattice
    requests = []
    check = lattice._check_box

    def spy(shape, complex_arrays=2):
        requests.append(_config._HELD.get()
                        + 16 * complex_arrays * int(np.prod([int(s) for s in shape])))
        return check(shape, complex_arrays)

    monkeypatch.setattr(lattice, "_check_box", spy)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(requests), peak


@pytest.mark.parametrize("name,n,method", [
    ("intro", 256, "direct"), ("intro", 256, "spectral"), ("ex71", 128, "direct"),
    ("ex71", 256, "spectral"), ("srw:3", 40, "direct"), ("srw:3", 32, "direct"),
    ("srw:3", 32, "spectral"), ("ex73", 128, "spectral"),
    ("unstable1d", 2 ** 18, "spectral")])
def test_power_peak_memory_within_its_budget(monkeypatch, name, n, method):
    # the cap is checked before anything is allocated, so what a power path
    # allocates, its dense-to-sparse copy included, must fit in what it asked
    # the cap for; 256 KiB covers the interpreter's own small objects.  The
    # extraction counts the cells it keeps and a real spectrum its N // 2 + 1
    # cells on the last axis, so the budget is also near the peak: it read
    # 2.59-3.08 times the peak when the callers counted every cell as kept
    f = examples.get(name)
    budget, peak = _budget_and_peak(monkeypatch,
                                    lambda: latconv.power(f, n, method=method))
    assert peak <= budget + 2 ** 18, (peak, budget)
    assert budget <= 1.5 * peak + 2 ** 18, (peak, budget)


def test_power_torus_peak_memory_within_its_budget(monkeypatch):
    f = examples.ex71()
    budget, peak = _budget_and_peak(
        monkeypatch, lambda: latconv.power_torus(f, 4096, (-10, -10), (10, 10)))
    assert peak <= budget + 2 ** 18, (peak, budget)


@pytest.mark.parametrize("name, n, box", [
    ("intro", 64, None), ("ex73", 32, None), ("srw:3", 8, None), ("unstable1d", 500, None),
    ("ex72", 64, "drift"), ("intro", 256, "drift"), ("ex71", 4096, "drift"),
    ("unstable1d", 64, "drift"), ("intro", 256, 5), ("ex72", 256, 4)])
def test_one_cap_check_per_torus(monkeypatch, name, n, box):
    # a spectral power, power_near_drifts and a box that doubles five times
    # (the last two cases) make one check per torus, each right before its
    # transform; the extraction of the accepted box then makes its own two
    # checks, for its mask and for its copy, after the last transform
    from latconv import _config, lattice, verify
    f = examples.get(name)
    ana = latconv.analyze(f)
    calls = []
    for fn in ("_check_box", "power_dense"):
        monkeypatch.setattr(lattice, fn, lambda *a, _fn=getattr(lattice, fn), **k:
                            calls.append(_fn.__name__) or _fn(*a, **k))
    if box is None:
        def run():
            return latconv.power(f, n, method="spectral")
    elif box == "drift":
        def run():
            return verify.power_near_drifts(f, ana, n)
    else:
        def run():
            arr, lo = lattice.power_torus(f, n, (-box,) * f.dim, (box,) * f.dim)
            return lattice._sparse_above_floor(f.dim, arr, lo, n)
    run()
    *tori, extraction = " ".join(calls).split("power_dense")
    assert tori and all(t.split() == ["_check_box"] for t in tori), calls
    assert extraction.split() == ["_check_box"] * 2, calls
    assert box not in (4, 5) or len(tori) >= 5
    calls.clear()
    # the smallest first torus here, unstable1d's at n = 64, asks 8,448 bytes,
    # and that whole run fits in 10,000
    with _config.memory_cap(4_000), pytest.raises(ResourceLimitError):
        run()
    assert calls == ["_check_box"]


def test_extract_sparse_is_canonical_and_consume_keeps_values():
    from latconv.lattice import _extract_sparse
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    arr[rng.random((7, 5)) < 0.4] = 0.0
    arr[0, 0] = 1e-301  # a true zero by the ZERO_DROP rule
    lo = np.array([-3, 4])
    pts = np.argwhere(arr) + lo
    want = LatticeFunction(2, pts, arr[arr != 0])
    assert _extract_sparse(2, arr.copy(), lo, 0.0) == want
    assert _extract_sparse(2, arr.copy(), lo, 0.0, consume=True) == want
    floor = 0.5
    big = np.abs(arr) > floor
    assert _extract_sparse(2, arr.copy(), lo, floor) == LatticeFunction(
        2, np.argwhere(big) + lo, arr[big])


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_extract_sparse_bit_identical_at_any_chunk_floor(chunk, monkeypatch):
    # chunks of at least _EXTRACT_CHUNK_CELLS cells, or of a 64th of the box
    # at floor 1, or of 7 cells where a small box makes a 64th smaller still;
    # intro at n = 64 (33,153 cells) takes several chunks at every floor
    from latconv import lattice
    from latconv.lattice import _extract_sparse, support_lattice, sweep
    cases = [(examples.ex75((3,)), 40), (examples.intro(), 64), (examples.srw(2), 12),
             (examples.ex73(), 9), (examples.get("srw:3"), 6),
             (examples.get("phim:2,3"), 5)]
    want = []
    for f, n in cases:
        basis = support_lattice(f).basis
        for arr, lo in sweep(f, n):
            pass
        arr = arr.astype(np.complex128)
        floor = 1e-3 * float(np.abs(arr).max())
        want.append([_extract_sparse(f.dim, arr.copy(), lo, fl, consume=consume, basis=basis)
                     for fl in (0.0, floor) for consume in (False, True)])
    assert any(not np.array_equal(support_lattice(f).basis, np.eye(f.dim)) for f, _ in cases)
    if chunk is not None:
        monkeypatch.setattr(lattice, "_EXTRACT_CHUNK_CELLS", chunk)
    for (f, n), ref in zip(cases, want):
        basis = support_lattice(f).basis
        for arr, lo in sweep(f, n):
            pass
        arr = arr.astype(np.complex128)
        floor = 1e-3 * float(np.abs(arr).max())
        got = [_extract_sparse(f.dim, arr.copy(), lo, fl, consume=consume, basis=basis)
               for fl in (0.0, floor) for consume in (False, True)]
        for g, w in zip(got, ref):
            _assert_bit_identical(g, w)


def _torus_vs_direct(f, n, lo, hi):
    arr, alo = latconv.power_torus(f, n, lo, hi)
    exact = latconv.power(f, n, method="direct")
    inside = np.all((exact.points >= alo) & (exact.points < alo + arr.shape), axis=1)
    got = np.zeros(len(exact), dtype=complex)
    got[inside] = arr[tuple((exact.points[inside] - alo).T)]
    # every entry phi^(n) has in the returned region agrees with the oracle,
    # and what lies outside it is at noise level
    assert np.abs(got - exact.values).max() < 1e-10
    covered = np.zeros(arr.shape, dtype=bool)
    covered[tuple((exact.points[inside] - alo).T)] = True
    assert np.abs(arr[~covered]).max(initial=0.0) < 1e-10
    return arr, alo


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_torus_matches_direct(data):
    # a random walk, optionally modulated by a character (complex, same
    # moduli): one lobe about n * mean, on a box from a point to 3 sqrt(n)
    dim = data.draw(st.integers(1, 2))
    pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=2,
                             max_size=6, unique=True))
    w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(pts),
                                    max_size=len(pts))))
    theta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.7, 2.0]),
                                        min_size=dim, max_size=dim)))
    pts = np.array(pts)
    f = LatticeFunction(dim, pts, w / w.sum() * np.exp(1j * (pts @ theta)))
    n = data.draw(st.integers(1, 40))
    half = data.draw(st.floats(0.0, 3.0)) * np.sqrt(n)
    centre = n * (pts.T @ (w / w.sum()))
    _torus_vs_direct(f, n, np.floor(centre - half), np.ceil(centre + half))


def test_power_torus_doubles_a_box_that_is_too_tight(monkeypatch):
    # phi^(n) of ex71 at n = 512 is above the alias threshold out to about
    # +-77; a +-4 box must be rejected and doubled, never returned as is
    from latconv import lattice
    shapes = []
    dense = lattice.power_dense

    def spy(f, n, shape=None):
        out = dense(f, n, shape)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(lattice, "power_dense", spy)
    f, n = examples.ex71(), 512
    arr, lo = latconv.power_torus(f, n, (-4, -4), (4, 4))
    assert len(shapes) >= 3 and np.all(lo <= -77) and np.all(lo + arr.shape > 77)
    assert all(np.prod(a) < np.prod(b) for a, b in zip(shapes, shapes[1:]))
    full, flo = dense(f, n)
    sl = tuple(slice(int(a - b), int(a - b) + s) for a, b, s in zip(lo, flo, arr.shape))
    assert np.abs(arr - full[sl]).max() < 1e-13
    # nothing above the noise floor is left outside the returned region
    floor = lattice._fft_noise_floor(n, np.abs(full).max())
    assert np.abs(full).sum(where=np.abs(full) > floor) == pytest.approx(
        np.abs(arr).sum(where=np.abs(arr) > floor), rel=1e-12)


# -- power kernels: binary powering and the real sweep ----------------------

@pytest.mark.parametrize("n", [2, 99, 100, 512, 10000])
def test_binary_power_accurate_near_the_unit_circle(n):
    # against 40 digits, on the annulus where a symbol's powers are taken;
    # numpy's complex power leaves repeated squaring for exp(n log z) at
    # n >= 100 and misses the same bound there (1.36 n eps at n = 100)
    import mpmath
    from latconv.lattice import _binary_power
    rng = np.random.default_rng(10)
    z = rng.uniform(0.97, 1.0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    with mpmath.workdps(40):
        exact = [mpmath.mpc(complex(v)) ** n for v in z]

        def max_rel_err(w):
            return max(float(abs(mpmath.mpc(complex(a)) - e) / abs(e))
                       for a, e in zip(w, exact))

        bound = 0.5 * n * np.finfo(float).eps
        assert max_rel_err(_binary_power(z, n)) <= bound
        if n == 100:
            assert max_rel_err(np.power(z, n)) > bound


def _complex_sweep_reference(f, n_max):
    """The sweep in complex arithmetic for every phi, as it was before real
    phi swept in float64."""
    from latconv.lattice import ZERO_DROP
    flo, fhi = f.extent()
    span = fhi - flo
    offsets = f.points - flo
    cur = np.zeros(tuple(int(s + 1) for s in span), dtype=np.complex128)
    cur[tuple(offsets.T)] = f.values
    yield cur, flo
    for n in range(2, n_max + 1):
        nxt = np.zeros(tuple(int(n * s + 1) for s in span), dtype=np.complex128)
        forward = np.count_nonzero(cur) >= len(f)
        order = range(len(f)) if forward else range(len(f) - 1, -1, -1)
        for j in order:
            sl = tuple(slice(o, o + s) for o, s in zip(offsets[j], cur.shape))
            v = f.values[j]
            nxt[sl] += cur * v if forward else v * cur
        nxt[np.abs(nxt) < ZERO_DROP] = 0.0
        cur = nxt
        yield cur, n * flo


def _check_real_sweep(f, n):
    from latconv import verify
    from latconv.lattice import _extract_sparse
    ns = sorted({1, n // 3, n - 1, n})
    want = {k: _extract_sparse(f.dim, arr.copy(), lo, 0.0)
            for k, (arr, lo) in enumerate(_complex_sweep_reference(f, n), start=1)
            if k in ns}
    _assert_bit_identical(latconv.power(f, n, method="direct"), want[n])
    for k, g in verify.direct_powers(f, ns).items():
        _assert_bit_identical(g, want[k])
    return want[n]


@pytest.mark.parametrize("name,n", [("ex73", 128), ("ex71", 64), ("srw:3", 24),
                                    ("phim:2,3", 40)])
def test_real_sweep_bit_identical_to_complex_sweep(name, n):
    _check_real_sweep(examples.get(name), n)


def test_real_sweep_bit_identical_random_mixed_signs():
    rng = np.random.default_rng(31)
    cancelled = 0
    for dim, radius, n in ((1, 3, 40), (2, 2, 16), (3, 1, 10)):
        for _ in range(4):
            k = int(rng.integers(3, 9))
            pts = rng.integers(-radius, radius + 1, size=(k, dim))
            _check_real_sweep(LatticeFunction(dim, pts, rng.standard_normal(k)), n)
            # small integers: products and sums are exact, so opposite signs
            # cancel to true zeros inside the support's box
            f = LatticeFunction(dim, pts, rng.choice([-2.0, -1.0, 1.0, 2.0], size=k))
            got = _check_real_sweep(f, n)
            reach = latconv.power(LatticeFunction(dim, f.points, np.abs(f.values)),
                                  n, method="direct")
            cancelled += len(reach) - len(got)
    assert cancelled > 0


# -- the sweep on the support's own lattice ---------------------------------

def _minors_gcd(diffs):
    """gcd of the d x d minors of the difference vectors: the index of the
    lattice they span, computed without a basis."""
    import itertools
    import math
    d = diffs.shape[1]
    return math.gcd(*(round(abs(np.linalg.det(diffs[list(rows)])))
                      for rows in itertools.combinations(range(len(diffs)), d)))


@pytest.mark.parametrize("name,index", [
    ("intro", 1), ("ex71", 1), ("unstable1d", 1), ("srw:2", 2), ("srw:3", 2),
    ("ex72", 2), ("ex73", 2), ("phim:2,3", 12)])
def test_support_lattice_basis(name, index):
    from latconv.lattice import support_lattice
    f = examples.get(name)
    lattice = support_lattice(f)
    assert lattice.coords.dtype == np.int64 and lattice.basis.dtype == np.int64
    assert np.array_equal(lattice.origin + lattice.coords @ lattice.basis, f.points)
    assert round(abs(np.linalg.det(lattice.basis))) == index
    assert _minors_gcd(f.points - f.points[0]) == index
    if index == 1:
        assert np.array_equal(lattice.basis, np.eye(f.dim, dtype=np.int64))
    # echelon with positive pivots: row-major z order is lexicographic order
    pivots = [np.flatnonzero(row)[0] for row in lattice.basis]
    assert pivots == sorted(set(pivots))
    assert all(row[c] > 0 for row, c in zip(lattice.basis, pivots))
    # the z-box of n supp is smaller than the bounding box by the index or more
    lo, hi = f.extent()
    assert np.prod(lattice.box(32)) * index <= np.prod(32 * (hi - lo) + 1) * 1.05


def test_support_lattice_drops_axes_and_points():
    from latconv.lattice import support_lattice
    line = LatticeFunction.from_dict({(1, 2, 3): 0.5, (3, 6, 9): 0.25, (-1, -2, -3): 0.25})
    lattice = support_lattice(line)
    assert lattice.basis.tolist() == [[2, 4, 6]] and lattice.box(5) == (11,)
    mass = LatticeFunction.from_dict({(4, -1): 0.6 - 0.8j})
    assert support_lattice(mass).basis.shape == (0, 2)
    assert support_lattice(mass).box(7) == ()
    _check_direct_paths(line, 6)
    _check_direct_paths(mass, 5)


@st.composite
def _sublattice_functions(draw):
    """phi on x0 + z @ B for integer B with |det B| in 2..4, or on a line."""
    dim = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    if dim > 1 and draw(st.booleans()):
        # a line: one direction, possibly not primitive
        basis = np.array([draw(st.lists(small, min_size=dim, max_size=dim).filter(any))])
    else:
        diag = np.ones(dim, dtype=int)
        diag[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([2, 3, 4]))
        upper = np.triu(np.array(draw(st.lists(small, min_size=dim * dim, max_size=dim * dim)))
                        .reshape(dim, dim), 1)
        shear = np.tril(np.array(draw(st.lists(st.integers(-1, 1), min_size=dim * dim,
                                               max_size=dim * dim))).reshape(dim, dim), -1)
        basis = (np.eye(dim, dtype=int) + shear) @ (np.diag(diag) + upper)
    r = len(basis)
    coords = np.array(draw(st.lists(st.tuples(*[small] * r), min_size=2, max_size=6,
                                    unique=True)))
    x0 = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
    k = len(coords)
    kind = draw(st.sampled_from(["real", "complex", "integer"]))
    if kind == "integer":
        # products and sums are exact, so opposite signs cancel to true zeros
        values = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
                                        min_size=k, max_size=k)))
    else:
        real = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
        values = np.array(draw(st.lists(real, min_size=k, max_size=k)), dtype=complex)
        if kind == "complex":
            values += 1j * np.array(draw(st.lists(real, min_size=k, max_size=k)))
    return LatticeFunction(dim, x0 + coords @ basis, values), draw(st.integers(2, 9))


@settings(max_examples=40, deadline=None)
@given(_sublattice_functions())
def test_direct_paths_bit_identical_on_sublattices(case):
    f, n = case
    _check_direct_paths(f, n)


@pytest.mark.parametrize("name,n", [("ex73", 64), ("srw:3", 24)])
def test_sweep_peak_memory_on_a_sublattice(name, n):
    # the sweep holds boxes of the lattice's z-box, about half the bounding box
    import tracemalloc
    from latconv.lattice import _TILE_CELLS, support_lattice, sweep
    f = examples.get(name)
    lattice = support_lattice(f)
    cells = int(np.prod(lattice.box(n)))
    lo, hi = f.extent()
    assert cells < 0.55 * np.prod(n * (hi - lo) + 1)
    tracemalloc.start()
    try:
        for arr, _ in sweep(f, n, lattice):
            del arr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two real boxes and the tile buffers, as the last step counts them
    assert peak <= 16 * cells + 9 * min(_TILE_CELLS, cells) + 2 ** 14, peak / (16 * cells)


def test_sweep_dtype_follows_phi():
    from latconv.lattice import sweep
    assert all(arr.dtype == np.float64 for arr, _ in sweep(examples.ex73(), 4))
    assert all(arr.dtype == np.complex128 for arr, _ in sweep(examples.intro(), 4))


def test_real_direct_power_peak_memory_within_its_budget(monkeypatch):
    # a dense real result is copied into new complex values beside its float
    # array, where a complex one is compacted in place
    rng = np.random.default_rng(3)
    pts = np.argwhere(np.ones((3, 3, 3))) - 1
    f = LatticeFunction(3, pts, rng.uniform(0.5, 1.0, len(pts)))
    budget, peak = _budget_and_peak(monkeypatch,
                                    lambda: latconv.power(f, 40, method="direct"))
    assert peak <= budget + 2 ** 18, (peak, budget)
