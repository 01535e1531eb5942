"""The benchmark's tracer (bench/tracing.py) wraps beambvp functions where
their callers look them up and reads fields of what they return. This runs
a solve, a verify and a classify under it, in a fresh interpreter because
the tracer patches modules for good, so that a package change which breaks
a hook, or leaves a counted layer unseen, fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import beambvp

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import Tracer
tracer = Tracer()
tracer.install()
import beambvp.cli
codes = []
for op, argv in enumerate({argvs!r}):
    tracer.begin(op)
    codes.append(beambvp.cli.main(argv))
    tracer.end()
print(json.dumps({{"codes": codes, "metrics": tracer.layer_metrics(len(codes))}}))
"""


@pytest.mark.skipif(not (BENCH / "tracing.py").is_file(), reason="no bench/ in this checkout")
def test_the_tracer_runs_its_hooks_on_solve_verify_and_classify(tmp_path):
    problem = ["--f", "u^2*(exp(-u)+1)", "--a", "t^2"]
    argvs = [["solve", *problem, "--out", str(tmp_path / "solve")],
             ["verify", "--out", str(tmp_path / "verify")],
             ["classify", *problem, "--out", str(tmp_path / "classify")]]
    src = str(Path(beambvp.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(src=src, bench=str(BENCH),
                                                               argvs=argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    assert metrics["solver.build_operator.bytes_computed"] > 0
    assert metrics["solver.newton.iters"] > 0
