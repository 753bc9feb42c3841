"""One cold pass of a workload in a fresh process; prints one JSON line.

Started by run.py, never warmed: the pass pays for ``import latconv`` and for
building its inputs, which is its set-up time, counted from ``--t0`` (a
``time.monotonic()`` reading taken by the parent just before the start).
Times are reported raw and at the reference CPU speed of speed.py.

    python3 perfbench/one_pass.py --workload llt --seed 1 --t0 <t> [--trace] [--setup-only]
"""

import argparse
import json
import os
import resource
import shutil
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def main():
    sampler = speed.SpeedSampler()
    sampler.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import spans
    import workloads
    from latconv import _config

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_raw_s = time.monotonic() - args.t0
    setup_end = sampler.mark()
    result = {"setup_raw_s": setup_raw_s,
              "setup_s": setup_raw_s * sampler.scale(0, setup_end)}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(out_dir)
    try:
        workloads.WORKLOADS[args.workload](run, inputs)
    finally:
        sampler.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    scale = sampler.scale(setup_end, sampler.mark())
    result.update({
        "wall_raw_s": run.wall_s,
        "wall_s": run.wall_s * scale,
        "kernel_s": speed.REF_KERNEL_S / scale,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failures": run.failures,
        "known": run.known,
        "headline_exit": run.headline_exit,
        "fft_max_err": run.fft_max_err,
        "intro_omega_err": run.intro_omega_err,
        "fft_workers": _config.FFT_WORKERS,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    })
    if tracer is not None:
        result["layers"] = {name: (value * scale if unit == "s" else value, unit)
                            for name, (value, unit) in spans.layer_metrics(tracer).items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
