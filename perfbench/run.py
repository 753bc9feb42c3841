"""Lab benchmark for latconv: one workload, one seed, cold passes.

    python3 perfbench/run.py --workload {classify,powers,llt,bounds} --seed N
                             [--seconds S] [--trace 0|1]

Each pass runs the whole workload in a fresh Python process (one_pass.py),
so it pays for ``import latconv`` and nothing is warmed first, as a CLI
invocation would. Passes repeat while the next one is expected to end
within ``--seconds`` (at least one; with ``--trace 1`` untraced and traced
passes alternate, at least one of each). More processes that only import
latconv and build the inputs bring set-up to ``SETUP_SAMPLES`` samples.
Library defaults are kept (FFT workers 1, 2 GiB memory cap); BLAS threads
are capped at the number of usable cores.

End-to-end metrics (``--trace 0``), medians over the untraced passes:
  wall_s        wall time of the workload's calls into latconv, after set-up
  setup_s       process start until the inputs are ready
  peak_rss_mib  peak resident memory of a pass process
``wall_s`` and ``setup_s`` are given at the reference CPU speed of speed.py:
the CPU speed of a shared host drifts by tens of percent within minutes, and
the raw wall times, printed beside them, drift with it.

The fraction of failed operations is printed as ``fail_frac`` and carried by
the ``attempted`` and ``failed`` fields; it is not an end-to-end metric
because it reads 0 on a healthy tree. Known defects of latconv that the
workloads meet are printed as KNOWN DEFECT lines on every run and are not
counted as failed: the README headline command hits the memory cap, and some
translations of intro move its Omega point just past the 1e-8 of criterion 1. ``--trace 1`` reports the per-layer
metrics of spans.py from the traced passes, with the tracing overhead (traced
minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without latconv's
sources next to this directory, or when a pass crashes or overruns, the
command exits 1 and prints no result.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


class Passes:
    """Runs one_pass.py processes within the run's time limit."""

    def __init__(self, workload, seed, start):
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.start = start
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(len(os.sched_getaffinity(0)))
        self.env = env

    def run(self, *flags):
        left = TIME_LIMIT_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("time limit reached")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "one_pass.py"), *self.args,
               "--t0", repr(t0), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass overran the time limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(lines[-1])
        result["elapsed"] = time.monotonic() - t0
        return result


def measure(workload, seed, seconds, trace):
    start = time.monotonic()
    passes = Passes(workload, seed, start)
    modes = [False, True] if trace else [False]
    done = {False: [], True: []}
    longest = 0.0
    i = 0
    while True:
        traced = modes[i % len(modes)]
        res = passes.run(*(["--trace"] if traced else []))
        done[traced].append(res)
        longest = max(longest, res["elapsed"])
        i += 1
        if i >= len(modes) and time.monotonic() - start + longest > seconds:
            break
    every = done[False] + done[True]
    setups = every[:]
    while len(setups) < SETUP_SAMPLES:
        setups.append(passes.run("--setup-only"))
    return done, setups


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if not (ROOT / "src" / "latconv" / "__init__.py").is_file():
        print("error: latconv sources not found under src/", file=sys.stderr)
        return 1

    try:
        done, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain, traced = done[False], done[True]
    raw_setups = [r["setup_raw_s"] for r in setups]
    setups = [r["setup_s"] for r in setups]
    every = plain + traced
    attempted = sum(r["attempted"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    print("env " + json.dumps({
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "fft_workers": every[0]["fft_workers"], "blas_threads": every[0]["blas_threads"],
        "git_commit": git_commit()}))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced cold passes, {len(setups)} set-ups")

    wall = median_of(plain, "wall_s")
    end_to_end = {"wall_s": (wall, "s"),
                  "setup_s": (statistics.median(setups), "s"),
                  "peak_rss_mib": (median_of(plain, "peak_rss_mib"), "MiB")}
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value!r} {unit}")
    print(f"raw wall time {median_of(plain, 'wall_raw_s')!r} s, raw set-up "
          f"{statistics.median(raw_setups)!r} s, speed kernel "
          f"{median_of(every, 'kernel_s') * 1e3!r} ms (reference "
          f"{REF_KERNEL_S * 1e3!r} ms)")
    metrics = end_to_end
    if args.trace:
        layers = {}
        for name, (_, unit) in traced[0]["layers"].items():
            layers[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
        layers["lattice.fft_vs_direct.max_err"] = (
            max(r["fft_max_err"] for r in traced), "abs")
        layers["symbol.intro_omega.err"] = (
            max(r["intro_omega_err"] for r in traced), "rad")
        layers["cli.headline.failed"] = (
            float(any(r["headline_exit"] not in (None, 0) for r in traced)), "count")
        traced_wall = median_of(traced, "wall_s")
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["run.wall_raw_s"] = (median_of(plain, "wall_raw_s"), "s")
        layers["run.kernel_s"] = (median_of(every, "kernel_s"), "s")
        declared = {m["name"] for m in spec["per_layer"]}
        if declared != set(layers):
            print(f"error: per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(declared ^ set(layers))}", file=sys.stderr)
            return 1
        for name, (value, unit) in layers.items():
            print(f"{name} = {value!r} {unit}")
        metrics = layers

    print(f"fail_frac = {len(failures) / attempted!r} 1 "
          f"({len(failures)} of {attempted} operations failed)")
    for failure in failures:
        print(f"FAILED {failure}")
    for known in dict.fromkeys(k for r in every for k in r["known"]):
        print(f"KNOWN DEFECT (not counted as failed) {known}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
