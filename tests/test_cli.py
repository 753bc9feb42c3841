import os
import re

import numpy as np
import pytest

import latconv
from latconv.cli import main


def run(tmp_path, *argv, capsys=None):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_analyze_intro_reports_mu(tmp_path, capsys):
    code, out = run(tmp_path, "analyze", "--example", "intro")
    text = capsys.readouterr().out
    assert code == 0
    assert "mu = 3/4" in text
    assert "mu_phi = 3/4" in text
    assert (out / "omega.csv").exists()
    assert (out / "classification.csv").exists()
    header = (out / "omega.csv").read_text().splitlines()[0]
    assert header == "xi_1,xi_2,re,im,omega"


def test_analyze_reports_the_torus_scan(tmp_path, capsys):
    # ex71's support has K = 4: the bound asks for 113 points per axis, and
    # 120 is the next fast length; one grid peak seeds Newton
    code, _ = run(tmp_path, "analyze", "--example", "ex71")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == "torus scan: 120 per axis, slack = 0.04386, 1 seeds, 1 converged"


def test_analyze_reports_how_far_each_point_was_centred(tmp_path, capsys):
    # ex73 modulated by e^{i (x_1 + 0.7 x_2)}: Newton stops 7.7e-5 off both
    # points along their quartic axis, and classify centres them
    f = latconv.examples.ex73()
    path = tmp_path / "ex73_modulated.txt"
    latconv.write_function(
        latconv.LatticeFunction(2, f.points, f.values * np.exp(1j * (f.points @ [1.0, 0.7]))),
        path)
    code, _ = run(tmp_path, "analyze", "--input", str(path))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and "mu_phi = 3/4" in lines
    moves = [re.fullmatch(r"   centred: moved (\S+) in (\d) steps", line)
             for line in lines if "centred" in line]
    assert len(moves) == 2 and all(moves)
    for m in moves:
        assert 5e-5 < float(m.group(1)) < 1e-4 and int(m.group(2)) >= 1


def test_attractor_reports_its_box_and_fft_grid(tmp_path, capsys):
    from latconv.attractor import attractor_grid
    from latconv.verify import default_llt_window
    code, out = run(tmp_path, "attractor", "--example", "ex73", "--n", "16")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and (out / "attractor_t16.csv").exists()
    ana = latconv.analyze(latconv.examples.ex73())
    grid = attractor_grid(ana.minimal_points()[0].classification.poly, 16,
                          default_llt_window(ana, 16))
    L = ", ".join(f"{v:.17g}" for v in grid.box_halfwidths)
    N = " x ".join(str(v) for v in grid.grid_sizes)
    assert lines[1] == f"quadrature box half-widths ({L}), FFT grid {N}"
    assert N == "256 x 256"


def test_stability_unstable_exit_code(tmp_path, capsys):
    code, out = run(tmp_path, "stability", "--example", "unstable1d",
                    "--nmax", "512")
    text = capsys.readouterr().out
    assert code == 3
    assert "unstable" in text
    first = (out / "stability.csv").read_text().splitlines()[0]
    assert first == "# verdict: unstable"


@pytest.mark.parametrize("argv, line", [
    (["llt", "--n", "8"], "no local limit"),
    (["attractor", "--n", "8"], "no attractor"),
    (["legendre"], "no conjugate"),
])
def test_unstable_input_has_no_attractor_exit_code(tmp_path, capsys, argv, line):
    code, out = run(tmp_path, *argv, "--example", "unstable1d")
    assert code == 3
    assert capsys.readouterr().out == (
        f"analysis verdict: not-positive-homogeneous-type; {line}\n")
    assert not out.exists()


def test_stability_stable_exit_code(tmp_path, capsys):
    code, _ = run(tmp_path, "stability", "--example", "srw:2", "--nmax", "32")
    capsys.readouterr()
    assert code == 0


def test_power_csv_deterministic(tmp_path, capsys):
    code, out1 = run(tmp_path / "a", "power", "--example", "ex73",
                     "--n", "12", "--window=-12:12,-12:12")
    code2, out2 = run(tmp_path / "b", "power", "--example", "ex73",
                      "--n", "12", "--window=-12:12,-12:12")
    capsys.readouterr()
    assert code == code2 == 0
    b1 = (out1 / "power_n12.csv").read_bytes()
    b2 = (out2 / "power_n12.csv").read_bytes()
    assert b1 == b2


def test_power_graymap(tmp_path, capsys):
    code, out = run(tmp_path, "power", "--example", "ex73", "--n", "8",
                    "--window=-10:10,-10:10", "--pgm")
    capsys.readouterr()
    assert code == 0
    pgm = (out / "power_n8_re.pgm").read_bytes()
    assert pgm.startswith(b"P5\n21 21\n255\n")
    assert len(pgm) == len(b"P5\n21 21\n255\n") + 21 * 21
    sidecar = (out / "power_n8_re.pgm.txt").read_text()
    assert "min:" in sidecar and "max:" in sidecar


def test_examples_emit_roundtrip(tmp_path, capsys):
    code, out = run(tmp_path, "examples", "emit", "intro")
    capsys.readouterr()
    assert code == 0
    f = latconv.read_function(out / "intro.fn")
    g = latconv.examples.intro()
    assert f.dim == g.dim and len(f) == len(g)
    assert np.array_equal(f.points, g.points)
    assert np.allclose(f.values, g.values, atol=0, rtol=0)


def test_examples_list(capsys):
    code = main(["examples", "list"])
    text = capsys.readouterr().out
    assert code == 0
    for name in ("intro", "ex71", "ex72", "ex73", "ex74", "unstable1d"):
        assert name in text


def test_unknown_example_is_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "analyze", "--example", "nope")
    capsys.readouterr()
    assert code == 2


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.fn"
    bad.write_text("dim 2\n0 0 oops 0\n")
    code, _ = run(tmp_path, "analyze", "--input", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.fn:2" in err


def test_usage_error_exit():
    assert main(["analyze", "--bogus"]) == 2


def test_resource_cap_exit(tmp_path, capsys):
    code = main(["--memory-cap", "0.0001", "power", "--example", "ex71",
                 "--n", "4096", "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 4


def test_window_of_2_64_cells_is_refused(tmp_path, capsys):
    # counted in int64 the window's 2^64 cells wrapped to 0 and passed the
    # cap, and numpy refused the array with a traceback
    code = main(["llt", "--example", "srw:2", "--n", "4",
                 "--window=-2147483648:2147483647,-2147483648:2147483647",
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert "box (4294967296, 4294967296)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["legendre", "--example", "ex71", "--window=-500:500,-500:500"],
    ["theta", "--example", "srw:2", "--n", "4", "--window=-150:150,-150:150"]])
def test_query_mesh_is_checked_before_it_is_built(tmp_path, capsys, argv):
    # without the check the legendre mesh peaked at 31.8 MiB before the batch
    # refused it, and theta ran to the end at 13.6 MiB
    import tracemalloc
    cap = 0.001
    tracemalloc.start()
    try:
        code = main(["--memory-cap", str(cap)] + argv + ["--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and "resource error" in capsys.readouterr().err
    assert peak < cap * 2 ** 30, peak


def test_theta_rows_stream_within_the_cap(tmp_path, capsys):
    # the 90,601 rows are written as they are made, and the legendre and
    # power columns convert one block of rows at a time: a list of every
    # row peaked at 13.6 MiB
    import tracemalloc
    cap = 0.004
    tracemalloc.start()
    try:
        code = main(["--memory-cap", str(cap), "theta", "--example", "srw:2", "--n", "4",
                     "--window=-150:150,-150:150", "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert "theta evaluated on 90601 (n, x) pairs" in capsys.readouterr().out
    assert peak <= cap * 2 ** 30 + 2 ** 18, peak


def test_theta_csv(tmp_path, capsys):
    code, out = run(tmp_path, "theta", "--example", "srw:2", "--n", "1,2",
                    "--window=-1:1,-1:1")
    capsys.readouterr()
    assert code == 0
    lines = (out / "theta.csv").read_text().splitlines()
    assert lines[0] == "n,x_1,x_2,theta"
    table = {}
    for line in lines[1:]:
        n, x1, x2, th = line.split(",")
        table[(int(n), int(x1), int(x2))] = float(th)
    assert table[(2, 1, 1)] == pytest.approx(2.0)
    assert table[(1, 0, 0)] == pytest.approx(0.0)


def test_theta_row_that_raises_leaves_no_csv(tmp_path):
    # rows are made as they are written; at n = 10^9 the phase n*pi leaves
    # an imaginary residue above 1e-9 after the n = 1 rows were written
    with pytest.raises(ValueError, match="imaginary residue"):
        main(["theta", "--example", "srw:2", "--n", "1,1000000000",
              "--out", str(tmp_path / "o")])
    assert not list((tmp_path / "o").iterdir())


def test_vonneumann_violated_exit(tmp_path, capsys):
    bad = tmp_path / "grow.fn"
    bad.write_text("dim 1\n0 1 0\n1 1 0\n")
    code = main(["vonneumann", "--input", str(bad), "--out",
                 str(tmp_path / "o")])
    text = capsys.readouterr().out
    assert code == 3
    assert "violated" in text


def test_bounds_gaussian_cli(tmp_path, capsys):
    code, out = run(tmp_path, "bounds", "--example", "srw:2",
                    "--n", "2,4,8,16,32", "--kind", "gaussian")
    text = capsys.readouterr().out
    assert code == 0
    assert "verdict: fit" in text
    assert (out / "bounds_gaussian.csv").exists()


def test_cli_restores_run_configuration(monkeypatch):
    # --memory-cap holds for its run only, and a run without it keeps the
    # caller's cap
    from latconv import _config, cli
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "examples",
                        lambda args: seen.append(_config._MEMORY_CAP.get()))
    main(["--memory-cap", "0.0001", "examples", "list"])
    with _config.memory_cap(12_345):
        main(["examples", "list"])
        main(["--memory-cap", "0.0001", "examples", "list"])
        assert _config._MEMORY_CAP.get() == 12_345
    assert seen == [int(0.0001 * 2 ** 30), 12_345, int(0.0001 * 2 ** 30)]
    assert _config._MEMORY_CAP.get() == 2 * 2 ** 30
    latconv.power(latconv.examples.intro(), 64, method="spectral")


@pytest.mark.parametrize("argv", [
    ["power", "--example", "srw:x", "--n", "2"],
    ["power", "--example", "ex75:3,2:1,1", "--n", "2"],
    ["power", "--input", "missing.fn", "--n", "2"],
    ["power", "--example", "srw:2", "--n", "2:x"],
    ["power", "--example", "srw:2", "--n", "1:8:0"],
    ["power", "--example", "srw:2", "--n", "2", "--window=-1:a,0:1"],
    ["power", "--example", "srw:2", "--n", "2", "--window=1:-1,0:1"],
    ["bounds", "--example", "srw:2", "--n", "2,4", "--kind", "derivative",
     "--beta", "1,x"],
    ["theta", "--example", "intro", "--n", "1"],
    ["examples", "emit", "nope"],
    ["--memory-cap", "0", "examples", "list"],
    ["--memory-cap", "-1", "examples", "list"],
    ["--memory-cap", "nan", "examples", "list"],
    ["--memory-cap", "inf", "examples", "list"],
    ["analyze", "--example", "srw:2", "--window=1:2"],
    # graymaps need d = 2, checked before any power is written
    ["power", "--example", "srw:1", "--n", "4,8", "--pgm"],
    ["llt", "--example", "srw:1", "--n", "4,8", "--pgm"],
    ["attractor", "--example", "srw:1", "--n", "8", "--pgm"],
    # a negative order would take no difference but count in the exponent
    ["bounds", "--example", "ex75:3,2", "--n", "2:32", "--kind", "derivative",
     "--beta=-1,0"],
    ["stability", "--example", "srw:2", "--nmax", "0"],
    ["stability", "--example", "srw:2", "--nmax", "-3"],
    # a NaN entry was dropped and an inf one ended in a traceback
    ["analyze", "--input", "nan.fn"],
    ["analyze", "--input", "inf.fn"],
])
def test_input_errors_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.fn").write_text("dim 1\n0 nan 0\n1 0.5 0\n-1 0.5 0\n")
    (tmp_path / "inf.fn").write_text("dim 1\n0 0.5 0\n1 0.5 -inf\n")
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_internal_error_is_not_usage_error(tmp_path, monkeypatch):
    from latconv import cli

    def broken(f):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "analyze", broken)
    # the exception propagates, so the process exits 1 with a traceback
    with pytest.raises(ValueError, match="internal failure"):
        main(["analyze", "--example", "intro", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "2:x"],
    ["bounds", "--n", "2:8", "--kind", "derivative", "--beta=-1,0"],
    ["llt", "--n", "8", "--window=1:a,0:1"],
    ["attractor", "--n", "x"],
    ["legendre", "--window=1:0,0:1"],
    ["theta", "--n", "x"],
])
def test_arguments_are_parsed_before_any_analysis(tmp_path, capsys, monkeypatch, argv):
    from latconv import cli

    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran before the arguments were parsed")

    monkeypatch.setattr(cli, "analyze", analysis)
    monkeypatch.setattr(cli, "walk_profile", analysis)
    assert main(argv + ["--example", "srw:2", "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_legendre_grid_matches_closed_form_and_batch(tmp_path, capsys):
    code, out = run(tmp_path, "legendre", "--example", "ex71",
                    "--window=-3:3,-3:3")
    capsys.readouterr()
    assert code == 0
    table = np.loadtxt(out / "legendre.csv", delimiter=",", skiprows=1)
    assert table.shape == (49, 5)
    xs, got, argmax = table[:, :2], table[:, 2], table[:, 3:]
    # criterion 2: R#(x, y) = (5/3^{6/5})|x|^{6/5} + (3/2)|y|^{4/3}
    want = (5.0 * 3.0 ** (-6.0 / 5.0) * np.abs(xs[:, 0]) ** (6.0 / 5.0)
            + 1.5 * np.abs(xs[:, 1]) ** (4.0 / 3.0))
    big = np.linalg.norm(xs, axis=1) >= 1.0
    assert np.all(np.abs(got - want)[big] <= 1e-6 * want[big])
    assert np.all(np.abs(got - want)[~big] <= 1e-6)
    P = latconv.analyze(latconv.examples.ex71()).points[0].classification.poly
    vals, args = latconv.ConjugateEvaluator(P).conjugate_batch(xs)
    assert np.array_equal(got, vals)
    assert np.array_equal(argmax, args)
    # the objective at each printed maximiser is the printed value
    obj = np.einsum("kd,kd->k", xs, argmax) - P.real(argmax)
    assert np.all(np.abs(obj - got) <= 1e-12 * got)
    assert got[np.all(xs == 0, axis=1)].tolist() == [0.0]


HEADLINE = ["power", "--example", "ex71", "--n", "10000", "--window=-50:50,-50:50"]


def _csv_table(path):
    lines = path.read_text().splitlines()[1:]
    table = {}
    for line in lines:
        x1, x2, re, im = line.split(",")
        table[(int(x1), int(x2))] = complex(float(re), float(im))
    return table


def test_readme_headline_runs(tmp_path, capsys, monkeypatch):
    # the full n * span box would need ~144 GiB; the drift torus is 720 x 720
    # and certifies at the first transform
    from latconv import lattice
    shapes = []
    dense = lattice.power_dense
    monkeypatch.setattr(
        lattice, "power_dense",
        lambda f, n, shape=None: shapes.append(shape) or dense(f, n, shape))
    code, out = run(tmp_path, *HEADLINE, "--pgm")
    text = capsys.readouterr().out
    assert code == 0 and len(shapes) == 1
    assert "sup |phi^n| = 0.00863" in text
    assert len(_csv_table(out / "power_n10000.csv")) == 101 * 101
    assert (out / "power_n10000_abs.pgm").read_bytes().startswith(b"P5\n101 101\n255\n")


def test_power_window_agrees_with_full_box(tmp_path, capsys, monkeypatch):
    argv = ["power", "--example", "ex71", "--n", "512", "--window=-50:50,-50:50"]
    code, out = run(tmp_path / "torus", *argv)
    near = _csv_table(out / "power_n512.csv")
    monkeypatch.setattr(
        "latconv.cli.power_near_drifts",
        lambda f, ana, n, window: latconv.power(f, n, method="spectral"))
    code_full, out_full = run(tmp_path / "full", *argv)
    full = _csv_table(out_full / "power_n512.csv")
    capsys.readouterr()
    assert code == code_full == 0 and len(near) > 9000
    for key in near.keys() | full.keys():
        assert abs(near.get(key, 0.0) - full.get(key, 0.0)) < 1e-10


def test_power_window_cap_refuses_the_first_torus(tmp_path, capsys, monkeypatch):
    from latconv import lattice
    transforms = []
    monkeypatch.setattr(lattice, "power_dense", lambda *a, **k: transforms.append(a))
    # 10 MiB is below the first torus's ~16.6 MB; the cap is checked before it
    code = main(["--memory-cap", str(10 / 1024)] + HEADLINE
                + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4 and "resource error" in err
    assert transforms == []


def _reference_grid_field(f, window):
    """The per-point grid fill that the numpy masks replaced."""
    lo = np.array([w[0] for w in window])
    shape = tuple(w[1] - w[0] + 1 for w in window)
    out = np.zeros(shape, dtype=np.complex128)
    for p, v in zip(f.points, f.values):
        idx = tuple(int(c - l) for c, l in zip(p, lo))
        if all(0 <= i < s for i, s in zip(idx, shape)):
            out[idx] = v
    return out


def _reference_power_files(g, n, window, out):
    """CSV and graymaps of ``power --pgm`` written by the per-point filter."""
    from latconv import cli
    os.makedirs(out)
    rows = [tuple(int(c) for c in p) + (v.real, v.imag)
            for p, v in zip(g.points, g.values)
            if all(a <= c <= b for c, (a, b) in zip(p, window))]
    cli._write_csv(str(out / f"power_n{n}.csv"), "x_1,x_2,re,im", rows)
    field = _reference_grid_field(g, window)
    cli._write_pgm(str(out / f"power_n{n}_re.pgm"), field.real, "Re phi^n")
    cli._write_pgm(str(out / f"power_n{n}_abs.pgm"), np.abs(field), "abs phi^n")


@pytest.mark.parametrize("method", ["direct", "spectral"])
@pytest.mark.parametrize("window", [[(-15, 13), (-14, 16)], [(-30, 27), (-26, 31)]])
def test_power_window_files_byte_identical_to_per_point_reference(
        tmp_path, capsys, monkeypatch, method, window):
    # ex73^(12) lives on [-24, 24]^2: the first window clips it on every
    # side, the second reaches past it on every side
    from latconv import cli
    powers = []

    def spy(call):
        def recorded(*args, **kwargs):
            powers.append(call(*args, **kwargs))
            return powers[-1]
        return recorded

    for name in ("power", "power_near_drifts"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    spec = ",".join(f"{a}:{b}" for a, b in window)
    code, out = run(tmp_path, "power", "--example", "ex73", "--n", "12",
                    f"--window={spec}", "--method", method, "--pgm")
    capsys.readouterr()
    assert code == 0 and len(powers) == 1
    _reference_power_files(powers[0], 12, window, tmp_path / "ref")
    names = sorted(os.listdir(tmp_path / "ref"))
    assert sorted(os.listdir(out)) == names and len(names) == 5
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_readme_commands_parse(tmp_path, capsys):
    # every command in the README's command block parses and runs to the exit
    # code that its comment states (3 where it says "exits 3", else 0), and
    # every subcommand has a line there
    import shlex
    from pathlib import Path

    from latconv import cli
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("latconv ")]
    parser = cli.build_parser()
    seen = set()
    for k, line in enumerate(lines):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        seen.add(argv[0])
        if "|" in argv:  # the `examples list | emit` synopsis
            continue
        assert parser.parse_args(argv).command == argv[0]
        want = 3 if "exits 3" in comment else 0
        assert main(argv + ["--out", str(tmp_path / str(k))]) == want, line
    capsys.readouterr()
    assert seen == set(cli._COMMANDS)


def _reference_write_csv(path, header, rows):
    """The per-value writer that cli._write_csv replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def test_write_csv_matches_per_value_reference(tmp_path):
    from latconv.cli import _columns, _write_csv
    rng = np.random.default_rng(11)
    floats = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1e300, 5e-324, 1e16, 0.1,
         2.0 ** 53 + 2.0, 123456789.0],
        rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)])
    n = len(floats)
    columns = [np.arange(-n // 2, n - n // 2, dtype=np.int64),
               np.array(["positive-homogeneous-type", "", "3/4", "x,y"] * n)[:n],
               floats, -floats[::-1], rng.integers(0, 2 ** 40, n)]
    _write_csv(tmp_path / "new.csv", "a,b,c,d,e", _columns(*columns))
    rows = list(zip(*(c.tolist() for c in columns)))
    _reference_write_csv(tmp_path / "ref.csv", "a,b,c,d,e", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # numpy scalars in the rows, as the LLT rows once had them
    rows = list(zip(columns[0], columns[2]))
    _write_csv(tmp_path / "new.csv", "a,c", rows)
    _reference_write_csv(tmp_path / "ref.csv", "a,c", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # header only when there are no rows
    _write_csv(tmp_path / "empty.csv", "a,b", [])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
