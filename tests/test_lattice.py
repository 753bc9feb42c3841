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


def test_memory_cap(monkeypatch):
    from latconv import _config
    monkeypatch.setattr(_config, "MEMORY_CAP_BYTES", 10_000)
    with pytest.raises(ResourceLimitError):
        latconv.power(examples.intro(), 64, method="fast")


def test_direct_power_cap_counts_what_a_step_holds(monkeypatch):
    # a sweep step holds three complex boxes (tracemalloc: 3.0 boxes of the
    # final size for ex73 at n = 256), so a cap between two and three boxes
    # must refuse the run
    from latconv import _config
    f, n = examples.ex73(), 64
    lo, hi = f.extent()
    box_bytes = 16 * int(np.prod(n * (hi - lo) + 1))
    monkeypatch.setattr(_config, "MEMORY_CAP_BYTES", int(2.5 * box_bytes))
    with pytest.raises(ResourceLimitError):
        latconv.power(f, n, method="direct")
    monkeypatch.setattr(_config, "MEMORY_CAP_BYTES", 3 * box_bytes)
    assert len(latconv.power(f, n, method="direct"))


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


def test_add_sub_merge_shared_points():
    f = LatticeFunction.from_dict({(0,): 1.0, (1,): 2.0 + 1j})
    g = LatticeFunction.from_dict({(1,): 2.0 + 1j, (3,): 0.5})
    assert (f - g).to_dict() == {(0,): 1.0, (3,): -0.5}
    assert (f + g).to_dict() == {(0,): 1.0, (1,): 4.0 + 2j, (3,): 0.5}
    with pytest.raises(DimensionMismatchError):
        f + examples.intro()
