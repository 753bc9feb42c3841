"""latconv command line: analysis reports, power/attractor/legendre grids,
bound and stability diagnostics, and the builtin example corpus.

Exit codes: 0 success, 2 usage error (arguments, example names, input
files), 3 verdict failure (bound violation or instability), 4 resource-cap
error.  Any other failure is internal and ends with a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import _config, examples
from .attractor import attractor_grid, llt_approx
from .errors import ResourceLimitError
from .expansion import analyze
from .lattice import _blocks, _check_box, norm_linf, power, read_function, write_function
from .legendre import ConjugateEvaluator
from .symbol import SymbolView, check_von_neumann
from .verify import (default_llt_window, derivative_bound_fit, gaussian_bound_fit,
                     llt_error_ladder, power_near_drifts, stability_report,
                     subexp_bound_fit, theta, walk_profile)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERDICT = 3
EXIT_RESOURCE = 4


def _fmt(x):
    return f"{x:.17g}"


class SystemExit2(Exception):
    pass


def _example(name):
    try:
        return examples.get(name)
    except (KeyError, ValueError) as exc:
        raise SystemExit2(exc.args[0]) from exc


def _load_function(args):
    if args.example:
        f = _example(args.example)
    elif args.input:
        try:
            f = read_function(args.input)
        except (OSError, ValueError) as exc:
            raise SystemExit2(str(exc)) from exc
    else:
        raise SystemExit2("one of --example or --input is required")
    if not len(f):
        raise SystemExit2("the function is identically zero")
    if getattr(args, "pgm", False) and f.dim != 2:
        raise SystemExit2("graymap output needs a 2-d function")
    return f


def _parse_ints(spec, sep, what):
    try:
        return [int(t) for t in spec.split(sep)]
    except ValueError as exc:
        raise SystemExit2(f"bad {what} {spec!r}") from exc


def _parse_n_list(spec):
    out = []
    for token in spec.split(","):
        parts = _parse_ints(token.strip(), ":", "n value or range")
        if len(parts) == 1:
            out.append(parts[0])
            continue
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] < 1):
            raise SystemExit2(f"bad n range {token!r}")
        out.extend(range(parts[0], parts[1] + 1, *parts[2:]))
    if not out or min(out) < 1:
        raise SystemExit2("n values must be positive")
    return sorted(set(out))


def _parse_window(spec, dim):
    parts = spec.split(",")
    if len(parts) != dim:
        raise SystemExit2(f"window needs {dim} axis ranges, got {len(parts)}")
    out = []
    for p in parts:
        bounds = _parse_ints(p, ":", "window range")
        if len(bounds) != 2 or bounds[0] > bounds[1]:
            raise SystemExit2(f"bad window range {p!r}")
        out.append(tuple(bounds))
    return out


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _columns(*columns):
    """Rows, as tuples of Python scalars, of equal-length arrays, made one
    block of rows at a time."""
    for block in _blocks(len(columns[0])):
        yield from zip(*(c[block].tolist() for c in columns))


def _write_csv(path, header, rows):
    """Row tuples as CSV through one format, set by the first row's types:
    a float as ``_fmt`` writes it, anything else as ``str`` does.  The rows
    go to a sibling file that replaces ``path`` once the last is written, so
    a row that raises leaves no partial file."""
    rows = iter(rows)
    first = next(rows, None)
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            if first is not None:
                fmt = ",".join("%.17g" if isinstance(v, float) else "%s"
                               for v in first) + "\n"
                fh.write(fmt % first)
                fh.writelines(fmt % row for row in rows)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise
    os.replace(part, path)


def _write_report_csv(path, report):
    comments = [f"# verdict: {report.verdict}"] + [
        f"# {key}: {val}" for key, val in sorted(report.constants.items())]
    _write_csv(path, "\n".join(comments + [",".join(report.columns)]), report.rows)


def _write_pgm(path, field, label):
    lo, hi = float(field.min()), float(field.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((field - lo) / span * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.shape[1]} {field.shape[0]}\n255\n".encode())
        fh.write(scaled.tobytes())
    with open(path + ".txt", "w", encoding="utf-8") as fh:
        fh.write(f"field: {label}\nmin: {_fmt(lo)}\nmax: {_fmt(hi)}\n"
                 "mapping: linear min->0 max->255, row-major, origin at "
                 "window lower corner\n")


def _in_window(f, window):
    """Boolean mask of the points of f inside the per-axis ``(a, b)`` ranges."""
    lo, hi = np.array(window, dtype=np.int64).T
    return np.all((f.points >= lo) & (f.points <= hi), axis=1)


def _grid_field(f, window):
    lo, hi = np.array(window, dtype=np.int64).T
    out = np.zeros(tuple(hi - lo + 1), dtype=np.complex128)
    inside = _in_window(f, window)
    out[tuple((f.points[inside] - lo).T)] = f.values[inside]
    return out


def cmd_analyze(args):
    f = _load_function(args)
    ana = analyze(f)
    print(f"normalization scale = {_fmt(ana.scale)}")
    scan = ana.scan
    print(f"torus scan: {scan.grid} per axis, slack = {scan.slack:.4g}, "
          f"{len(scan.seeds)} seeds, {int(scan.converged.sum())} converged")
    print(f"omega points: {len(ana.omega)}")
    om = ana.omega
    d = f.dim
    header = ",".join([f"xi_{j + 1}" for j in range(d)] + ["re", "im", "omega"])
    _write_csv(_out_path(args, "omega.csv"), header,
               _columns(*om.points.T, om.values.real, om.values.imag,
                        om.phases))
    cls_rows = []
    coef_rows = []
    for i, pa in enumerate(ana.points):
        cls = pa.classification
        print(f"-- point {i}: xi = ({', '.join(_fmt(float(c)) for c in pa.xi)})")
        print(f"   verdict = {cls.verdict}")
        print(f"   centred: moved {cls.diagnostics.get('centre_shift', 0.0):.2g} "
              f"in {cls.diagnostics.get('centre_steps', 0)} steps")
        if cls.alpha is not None:
            print(f"   alpha = ({', '.join(_fmt(float(a)) for a in cls.alpha)})")
        if cls.ok:
            E = cls.poly.E
            print("   E = " + "  ".join(_fmt(float(v)) for v in E.reshape(-1)))
            mu = cls.mu
            print(f"   mu = {mu.numerator}/{mu.denominator}")
            print(f"   weights = {cls.poly.weights}")
            for beta, c in sorted(cls.poly.coeffs.items()):
                print(f"   P[{','.join(str(b) for b in beta)}] = "
                      f"{_fmt(c.real)} {_fmt(c.imag)}")
                coef_rows.append((i,) + beta + (c.real, c.imag))
            cls_rows.append((i, cls.verdict, f"{mu.numerator}/{mu.denominator}")
                            + tuple(float(a) for a in cls.alpha)
                            + tuple(float(v) for v in E.reshape(-1)))
        else:
            print(f"   reason: {cls.diagnostics.get('reason', '')}")
            cls_rows.append((i, cls.verdict, "") + (float("nan"),) * (d + d * d))
    _write_csv(_out_path(args, "classification.csv"),
               ",".join(["point", "verdict", "mu"]
                        + [f"alpha_{j + 1}" for j in range(d)]
                        + [f"E_{j + 1}{k + 1}" for j in range(d) for k in range(d)]),
               cls_rows)
    _write_csv(_out_path(args, "p_coefficients.csv"),
               ",".join(["point"] + [f"beta_{j + 1}" for j in range(d)]
                        + ["re", "im"]),
               coef_rows)
    from .homogeneous import write_polynomial
    for i, pa in enumerate(ana.points):
        if pa.classification.ok:
            write_polynomial(pa.classification.poly,
                             _out_path(args, f"polynomial_{i}.csv"))
    if ana.mu_phi is not None:
        print(f"mu_phi = {ana.mu_phi.numerator}/{ana.mu_phi.denominator}")
        print("minimal points: "
              + "; ".join(f"({', '.join(_fmt(float(c)) for c in ana.points[i].xi)})"
                          for i in ana.minimal))
    else:
        print(f"overall verdict: {ana.verdict}")
    return EXIT_OK


def cmd_power(args):
    f = _load_function(args)
    window = _parse_window(args.window, f.dim) if args.window else None
    # a spectral power with a window is computed near the drifts only
    analysis = analyze(f) if window and args.method != "direct" else None
    for n in _parse_n_list(args.n):
        if analysis is not None:
            g = power_near_drifts(f, analysis, n, window)
        else:
            g = power(f, n, method=args.method)
        if not args.window:
            lo, hi = g.extent()
            window = list(zip(lo.tolist(), hi.tolist()))
        inside = _in_window(g, window)
        vals = g.values[inside]
        header = ",".join([f"x_{j + 1}" for j in range(f.dim)] + ["re", "im"])
        _write_csv(_out_path(args, f"power_n{n}.csv"), header,
                   _columns(*g.points[inside].T, vals.real, vals.imag))
        print(f"n = {n}: support {len(g)}, sup |phi^n| = {_fmt(norm_linf(g))}")
        if args.pgm:
            field = _grid_field(g, window)
            _write_pgm(_out_path(args, f"power_n{n}_re.pgm"),
                       field.real, "Re phi^n")
            _write_pgm(_out_path(args, f"power_n{n}_abs.pgm"),
                       np.abs(field), "abs phi^n")
    return EXIT_OK


def cmd_llt(args):
    f = _load_function(args)
    n_values = _parse_n_list(args.n)
    window = _parse_window(args.window, f.dim) if args.window else None
    ana = analyze(f)
    if ana.mu_phi is None:
        print(f"analysis verdict: {ana.verdict}; no local limit")
        return EXIT_VERDICT
    rep = llt_error_ladder(f, ana, n_values, window=window)
    _write_report_csv(_out_path(args, "llt_error.csv"), rep)
    for n, err, scaled in rep.rows:
        print(f"n={n}: sup error = {_fmt(err)}, scaled = {_fmt(scaled)}")
    print(f"verdict: {rep.verdict}")
    n_last = n_values[-1]
    win = window or default_llt_window(ana, n_last)
    approx = llt_approx(ana, n_last, win)
    header = ",".join([f"x_{j + 1}" for j in range(f.dim)] + ["re", "im"])
    _write_csv(_out_path(args, f"llt_approx_n{n_last}.csv"), header,
               _columns(*approx.points.T, approx.values.real,
                        approx.values.imag))
    if args.pgm:
        field = _grid_field(approx, win)
        _write_pgm(_out_path(args, f"llt_approx_n{n_last}_re.pgm"),
                   field.real, "Re llt approximation")
        _write_pgm(_out_path(args, f"llt_approx_n{n_last}_abs.pgm"),
                   np.abs(field), "abs llt approximation")
    return EXIT_OK


def cmd_attractor(args):
    f = _load_function(args)
    n = _parse_n_list(args.n)[-1]
    window = _parse_window(args.window, f.dim) if args.window else None
    ana = analyze(f)
    if ana.mu_phi is None:
        print(f"analysis verdict: {ana.verdict}; no attractor")
        return EXIT_VERDICT
    window = window or default_llt_window(ana, n)
    pa = ana.minimal_points()[0]
    grid = attractor_grid(pa.classification.poly, n, window)
    coords = np.indices(grid.values.shape).reshape(f.dim, -1) + grid.lo[:, None]
    vals = grid.values.reshape(-1)
    header = ",".join([f"x_{j + 1}" for j in range(f.dim)] + ["re", "im"])
    _write_csv(_out_path(args, f"attractor_t{n}.csv"), header,
               _columns(*coords, vals.real, vals.imag))
    print(f"attractor H_P^{n} over {window}: max |H| = "
          f"{_fmt(float(np.abs(grid.values).max()))}")
    print("quadrature box half-widths ("
          + ", ".join(_fmt(float(v)) for v in grid.box_halfwidths)
          + f"), FFT grid {' x '.join(str(int(v)) for v in grid.grid_sizes)}")
    if args.pgm:
        _write_pgm(_out_path(args, f"attractor_t{n}_re.pgm"),
                   grid.values.real, "Re H_P^t")
        _write_pgm(_out_path(args, f"attractor_t{n}_abs.pgm"),
                   np.abs(grid.values), "abs H_P^t")
    return EXIT_OK


def cmd_legendre(args):
    f = _load_function(args)
    window = (_parse_window(args.window, f.dim) if args.window
              else [(-8, 8)] * f.dim)
    _check_box([b - a + 1 for a, b in window], complex_arrays=f.dim)  # the mesh and its stack
    ana = analyze(f)
    if ana.mu_phi is None:
        print(f"analysis verdict: {ana.verdict}; no conjugate")
        return EXIT_VERDICT
    pa = ana.minimal_points()[0]
    ev = ConjugateEvaluator(pa.classification.poly)
    axes = [np.arange(a, b + 1) for a, b in window]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    with _config.holding(2 * pts.nbytes):  # the points and their float copy
        vals, argmax = ev.conjugate_batch(pts.astype(float))
    header = ",".join([f"x_{j + 1}" for j in range(f.dim)] + ["value"]
                      + [f"argmax_{j + 1}" for j in range(f.dim)])
    _write_csv(_out_path(args, "legendre.csv"), header,
               _columns(*pts.T, vals, *argmax.T))
    print(f"legendre transform evaluated at {len(pts)} points")
    return EXIT_OK


def cmd_bounds(args):
    f = _load_function(args)
    n_values = _parse_n_list(args.n)
    if args.kind == "derivative":
        beta = (tuple(_parse_ints(args.beta, ",", "multi-index")) if args.beta
                else tuple([1] + [0] * (f.dim - 1)))
        if len(beta) != f.dim:
            raise SystemExit2(f"--beta needs {f.dim} entries, got {len(beta)}")
        if min(beta) < 0:
            raise SystemExit2(f"--beta entries must be >= 0, got {args.beta}")
    ana = analyze(f)
    if args.kind == "gaussian":
        rep = gaussian_bound_fit(f, ana, n_values)
    elif args.kind == "subexp":
        rep = subexp_bound_fit(f, ana, n_values, N=args.decay_order)
    else:
        vectors = [np.eye(f.dim, dtype=np.int64)[j] for j in range(f.dim)]
        rep = derivative_bound_fit(f, ana, vectors, beta, n_values)
    _write_report_csv(_out_path(args, f"bounds_{args.kind}.csv"), rep)
    print(f"verdict: {rep.verdict}")
    for key, val in sorted(rep.constants.items()):
        print(f"  {key} = {val}")
    if rep.notes:
        print(f"  note: {rep.notes}")
    return EXIT_OK if rep.passed else EXIT_VERDICT


def cmd_stability(args):
    if args.nmax < 1:
        raise SystemExit2("n values must be positive")
    f = _load_function(args)
    rep = stability_report(f, args.nmax)
    _write_report_csv(_out_path(args, "stability.csv"), rep)
    for n, l1, linf in rep.rows:
        print(f"n={n}: l1 = {_fmt(l1)}, linf = {_fmt(linf)}")
    print(f"verdict: {rep.verdict}")
    return EXIT_OK if rep.verdict == "stable" else EXIT_VERDICT


def cmd_theta(args):
    f = _load_function(args)
    if not f.is_probability():
        raise SystemExit2("theta requires a probability distribution")
    n_values = _parse_n_list(args.n)
    window = (_parse_window(args.window, f.dim) if args.window
              else [(-4, 4)] * f.dim)
    _check_box([b - a + 1 for a, b in window], complex_arrays=f.dim)  # the mesh and its stack
    profile = walk_profile(f)
    axes = [np.arange(a, b + 1) for a, b in window]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    # made as they are written
    rows = ((n,) + tuple(int(c) for c in pt) + (theta(profile, n, pt.astype(float)),)
            for n in n_values for pt in pts)
    header = ",".join(["n"] + [f"x_{j + 1}" for j in range(f.dim)] + ["theta"])
    _write_csv(_out_path(args, "theta.csv"), header, rows)
    print(f"theta evaluated on {len(n_values) * len(pts)} (n, x) pairs")
    return EXIT_OK


def cmd_vonneumann(args):
    f = _load_function(args)
    res = check_von_neumann(SymbolView(f))
    state = "satisfied" if res.satisfied else "violated"
    print(f"von Neumann condition {state}: sup |phi-hat| = {_fmt(res.maximum)} "
          f"at ({', '.join(_fmt(float(c)) for c in res.argmax)})")
    return EXIT_OK if res.satisfied else EXIT_VERDICT


def cmd_examples(args):
    if args.action == "list":
        for name in examples.names():
            print(name)
        return EXIT_OK
    if not args.name:
        raise SystemExit2("examples emit requires a name")
    f = _example(args.name)
    safe = args.name.replace(":", "_").replace(",", "_")
    path = _out_path(args, f"{safe}.fn")
    write_function(f, path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latconv",
        description="convolution powers of finitely supported functions on Z^d")
    parser.add_argument("--memory-cap", type=float, default=None,
                        help="dense box cap in GiB (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False, window=True, pgm=False):
        p.add_argument("--example", help="builtin example name")
        p.add_argument("--input", help="function file path")
        p.add_argument("--out", default="out", help="output directory")
        if needs_n:
            p.add_argument("--n", required=True,
                           help="n values: comma list and a:b[:step] ranges")
        if window:
            p.add_argument("--window", help="per-axis a:b, comma separated")
        if pgm:
            p.add_argument("--pgm", action="store_true",
                           help="emit 8-bit P5 graymaps with scale sidecars")

    common(sub.add_parser("analyze", help="spectral classification report"),
           window=False)
    p = sub.add_parser("power", help="phi^(n) as CSV (optionally graymap)")
    common(p, needs_n=True, pgm=True)
    # "fast" is kept as an alias of "spectral"
    p.add_argument("--method", choices=("direct", "fast", "spectral"),
                   default="spectral")
    common(sub.add_parser("llt", help="local-limit approximation and error"),
           needs_n=True, pgm=True)
    common(sub.add_parser("attractor", help="attractor grid"), needs_n=True,
           pgm=True)
    common(sub.add_parser(
        "legendre", help="Legendre-Fenchel transform grid",
        description="Writes legendre.csv: R#(x) = sup_xi {x.xi - Re P(xi)} and "
        "a maximiser xi at each window point.  The argmax columns carry 17 "
        "digits but are fixed only as far as the ascent's gradient tolerance "
        "(1e-10) fixes them: to about (1e-10)^(1/(2m-1)) along an axis where "
        "Re P is flat to degree 2m at the maximiser (5e-4 for quartic, 1e-2 "
        "for sextic flatness), and where maximisers tie, either may be "
        "printed.  The value column does not depend on those digits."))
    p = sub.add_parser("bounds", help="gaussian/subexp/derivative bound fits")
    common(p, needs_n=True, window=False)
    p.add_argument("--kind", choices=("gaussian", "subexp", "derivative"),
                   default="gaussian")
    p.add_argument("--decay-order", type=int, default=4)
    p.add_argument("--beta", help="multi-index for derivative fits, e.g. 1,0")
    p = sub.add_parser("stability", help="l^1 stability ladder")
    common(p, window=False)
    p.add_argument("--nmax", type=int, default=256)
    common(sub.add_parser("theta", help="prefactor Theta(n, x) table"),
           needs_n=True)
    common(sub.add_parser("vonneumann", help="check sup |phi-hat| <= 1"),
           window=False)
    p = sub.add_parser("examples", help="list or emit builtin examples")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default="out")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "power": cmd_power,
    "llt": cmd_llt,
    "attractor": cmd_attractor,
    "legendre": cmd_legendre,
    "bounds": cmd_bounds,
    "stability": cmd_stability,
    "theta": cmd_theta,
    "vonneumann": cmd_vonneumann,
    "examples": cmd_examples,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    cap = args.memory_cap
    try:
        if cap is not None and not 1 <= cap * 2 ** 30 < np.inf:
            raise SystemExit2("--memory-cap must be finite and positive")
        with (contextlib.nullcontext() if cap is None
              else _config.memory_cap(cap * 2 ** 30)):
            return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
