"""The benchmark's per-layer wrappers (perfbench/spans.py) still attach.

``spans.install`` patches latconv's modules and classes, so it runs in a
child process.  A refactor that renames or moves a wrapped function or
method would otherwise only show up as a crash of ``run.py --trace 1``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import latconv
import spans

P = latconv.from_quadratic_form(np.array([[2.0, 0.5], [0.5, 1.0]]))
tracer = spans.Tracer()
spans.install(tracer)
pts = np.ones((5, 2))
P(pts), P.real(pts), P.real_grad(pts), P.real_hess(pts[0])
latconv.power(latconv.examples.intro(), 4, method="direct")
print(json.dumps({k: v for k, (v, _) in spans.layer_metrics(tracer).items()}))
"""


def test_spans_install_wraps_evaluator_and_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["homogeneous.eval.calls"] == 4
    assert metrics["homogeneous.eval.points"] == 16
    assert metrics["lattice.power.direct.calls"] == 1


CONJUGATE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import latconv
import spans

P = latconv.from_quadratic_form(np.array([[2.0, 0.5], [0.5, 1.0]]))
tracer = spans.Tracer()
spans.install(tracer)
ev = latconv.ConjugateEvaluator(P)
ev.conjugate(np.array([1.0, 0.0]))
ev.conjugate_batch(np.ones((3, 2)))
print(json.dumps({k: v for k, (v, _) in spans.layer_metrics(tracer).items()}))
"""


def test_spans_install_wraps_conjugate_methods():
    # conjugate is a one-row conjugate_batch, so the batch span counts both
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CONJUGATE_SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["legendre.conjugate.calls"] == 1
    assert metrics["legendre.conjugate_batch.calls"] == 2
    assert metrics["legendre.conjugate_batch.points"] == 4


ANALYZE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import latconv
import spans

tracer = spans.Tracer()
spans.install(tracer)
latconv.analyze(latconv.examples.ex71())
print(json.dumps({k: v for k, (v, _) in spans.layer_metrics(tracer).items()}))
"""


def test_spans_install_wraps_classify_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", ANALYZE_SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["expansion.gamma_taylor.calls"] == 1
    assert metrics["symbol.find_omega.calls"] == 1
    assert metrics["symbol.omega_points"] == 1


SCAN_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import latconv
from latconv import symbol
import spans

tracer = spans.Tracer()
spans.install(tracer)
scans = []
grid_abs = symbol._grid_abs
symbol._grid_abs = lambda *a, **k: scans.append(a) or grid_abs(*a, **k)
latconv.analyze(latconv.examples.ex71())
out = {k: v for k, (v, _) in spans.layer_metrics(tracer).items()}
out["scans"] = len(scans)
print(json.dumps(out))
"""


def test_analyze_scans_the_torus_once():
    # normalize's scan and Newton ascent are the ones find_omega works from
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCAN_SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["symbol.locate_sup.calls"] == 1
    assert metrics["symbol.find_omega.calls"] == 1
    assert metrics["scans"] == 1
