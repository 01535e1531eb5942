"""beambvp benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload solve-multistart --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/,
so the parent commit and a change are run the same way. Workloads are listed
in bench/workloads.py. One client runs operations back to back (closed loop)
in whole passes over the workload's inputs until --seconds have passed. Every
operation is checked after it ran, outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with spans around every layer, and prints the per-layer
metrics. Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

# cap BLAS threads before numpy loads; child processes inherit the cap
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

from grading import CLASSES, WRONG, FDReference, grade, read_outputs  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WARMUP_OPS = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 60

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("err_rel_max", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Record:
    index: int         # position of the input in the pass
    seconds: float     # wall time of the operation alone
    rc: int | None     # exit code; None if the command raised
    stdout: str
    data: dict


class Runner:
    """Runs one operation at a time into workdir/op<index> and reads what it
    wrote; tracer is set for the traced half of a --trace 1 run."""

    def __init__(self, workdir, config_path):
        self.workdir, self.config_path, self.tracer = workdir, config_path, None

    def run(self, index, inp, op_id):
        outdir = self.workdir / f"op{index}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [inp.command, *inp.args]
        if self.config_path is not None and inp.command == "solve":
            argv += ["--config", str(self.config_path)]
        seconds, rc, stdout = self._execute(argv + ["--out", str(outdir)], index, op_id)
        data = read_outputs(inp.command, outdir)
        if self.tracer:
            self.tracer.counts["cli.artifact_bytes"] += data["artifact_bytes"]
        return Record(index, seconds, rc, stdout, data)


class InProcessRunner(Runner):
    """Calls beambvp.cli.main in this process. main is looked up at every
    call so that, when traced, the tracer's wrapper is what runs."""

    def __init__(self, workdir, config_path):
        super().__init__(workdir, config_path)
        import beambvp.cli
        self.cli = beambvp.cli

    def _execute(self, argv, index, op_id):
        out = io.StringIO()
        if self.tracer:
            self.tracer.begin(op_id)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash is this operation's outcome (class "error"), not the run's
            rc = None
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.end()
        return seconds, rc, out.getvalue()


class SubprocessRunner(Runner):
    """One fresh interpreter per operation: python -m beambvp, or
    bench/child.py, which records the same spans, when traced."""

    def _execute(self, argv, index, op_id):
        spans = self.workdir / f"spans{index}.npz"
        if self.tracer:
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "beambvp", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
            rc, stdout = proc.returncode, proc.stdout + proc.stderr
        except subprocess.TimeoutExpired:
            rc, stdout = None, f"timed out after {OP_TIMEOUT_S} s"
        seconds = time.perf_counter() - start
        if self.tracer and spans.exists():
            self.tracer.merge(spans, op_id)
            spans.unlink()
        return seconds, rc, stdout


def measure(runner, inputs, seconds):
    """Whole passes over the inputs until `seconds` have passed."""
    records = []
    start = time.perf_counter()
    while True:
        for index, inp in enumerate(inputs):
            records.append(runner.run(index, inp, len(records)))
        if time.perf_counter() - start >= seconds:
            return records


def setup_time(workload, seed, workdir):
    """Median wall time of fresh interpreters that import beambvp and prepare
    this workload's inputs: what a run pays before its first operation."""
    script = (
        "import sys\nfrom pathlib import Path\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import beambvp.cli\nfrom workloads import WORKLOADS\n"
        f"WORKLOADS[{workload.name!r}].prepare({seed}, Path({str(workdir)!r}))\n"
    )
    return statistics.median(_timed_subprocess([sys.executable, "-c", script])[0]
                             for _ in range(SETUP_REPEATS))


def process_metrics():
    """Interpreter start, import cost by -X importtime, and whether
    scipy.linalg is loaded by `import beambvp.cli`."""
    interpreter = statistics.median(_timed_subprocess([sys.executable, "-c", "pass"])[0]
                                    for _ in range(SETUP_REPEATS))
    probe = "import sys, beambvp.cli; print(int('scipy.linalg' in sys.modules))"
    samples = []
    for _ in range(IMPORT_REPEATS):
        _, proc = _timed_subprocess([sys.executable, "-X", "importtime", "-c", probe])
        samples.append((*_import_seconds(proc.stderr), int(proc.stdout)))
    return {
        "process.interpreter_s": interpreter,
        "process.import_beambvp_s": statistics.median(s[0] for s in samples),
        "process.import_scipy_s": statistics.median(s[1] for s in samples),
        "process.scipy_on_path": max(s[2] for s in samples),
    }


def _timed_subprocess(cmd):
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=True)
    return time.perf_counter() - start, proc


def _import_seconds(stderr):
    """Cumulative seconds of the outermost beambvp and scipy imports.

    -X importtime prints each module after its children, indented two spaces
    per level; read backwards, every parent comes before its children.
    """
    totals = {"beambvp": 0.0, "scipy": 0.0}
    path = []
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        name = parts[2].strip()
        path = path[:level] + [name.split(".")[0]]
        if path[-1] in totals and path[-1] not in path[:-1]:
            totals[path[-1]] += int(parts[1]) * 1e-6
    return totals["beambvp"], totals["scipy"]


def grade_all(records, inputs, reference):
    """Outcomes of the records, and the (class, error) of each input, which
    every pass must repeat exactly."""
    outcomes = [grade(inputs[r.index], r.rc, r.stdout, r.data, reference) for r in records]
    per_input, repeatable = {}, True
    for r, o in zip(records, outcomes):
        repeatable &= per_input.setdefault(r.index, (o.cls, o.err)) == (o.cls, o.err)
    return outcomes, per_input, repeatable


def throughput(records):
    return len(records) / sum(r.seconds for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "beambvp" / "__init__.py").is_file():
        print(f"error: no beambvp source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, config_path = workload.prepare(args.seed, workdir)
    runner = (InProcessRunner if workload.runner == "inprocess" else SubprocessRunner)(
        workdir, config_path)
    for i in range(WARMUP_OPS):
        runner.run(i % len(inputs), inputs[i % len(inputs)], -1)

    if args.trace == 0:
        records = measure(runner, inputs, args.seconds)
        usage = resource.RUSAGE_SELF if workload.runner == "inprocess" else resource.RUSAGE_CHILDREN
        peak_mib = resource.getrusage(usage).ru_maxrss / 1024.0
        setup_s = setup_time(workload, args.seed, workdir)
        outcomes, per_input, repeatable = grade_all(records, inputs, FDReference())
        graded = outcomes
        traced_agrees = True
    else:
        plain = measure(runner, inputs, args.seconds / 2)
        tracer = Tracer()
        if workload.runner == "inprocess":
            tracer.install()
        runner.tracer = tracer
        records = measure(runner, inputs, args.seconds / 2)
        tracer.dump(WORK / f"{workload.name}.spans.npz")
        reference = FDReference()
        plain_outcomes, plain_per_input, plain_repeatable = grade_all(plain, inputs, reference)
        outcomes, per_input, repeatable = grade_all(records, inputs, reference)
        repeatable &= plain_repeatable
        traced_agrees = plain_per_input == per_input
        graded = plain_outcomes + outcomes
        layers = tracer.layer_metrics(len(records))
        layers.update(process_metrics())
        layers["trace.overhead_ratio"] = throughput(records) / throughput(plain)

    counts = {cls: sum(o.cls == cls for o in outcomes) for cls in CLASSES}
    failed_ops = len(records) - counts["ok"]
    fail_ratio = failed_ops / len(records)
    errors = [o.err for o in outcomes if o.err is not None]
    # with no solution to compare, the reference is missed on its whole scale
    err_max = max(errors) if errors else 1.0
    shares = [o.ref_err / o.err for o in outcomes if o.ref_err is not None and o.err]
    latencies = [r.seconds for r in records]
    tail = float(np.percentile(latencies, workload.tail_pct))
    beyond = sum(x > tail for x in latencies)
    passes = len(records) // len(inputs)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(records)} ops = {passes} passes x {len(inputs)} inputs  ({workload.size})")
    print("outcomes  " + "  ".join(f"{cls}={counts[cls]}" for cls in CLASSES)
          + f"  fail_ratio={fail_ratio:.6g}  failing inputs "
          + f"{sum(cls != 'ok' for cls, _ in per_input.values())}/{len(per_input)} "
          + str(sorted(i for i, (cls, _) in per_input.items() if cls != "ok")))
    if args.trace == 0:
        metrics = {
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "throughput_ops_s": throughput(records),
            "err_rel_max": err_max,
            "setup_s": setup_s,
            "peak_rss_mb": peak_mib,
        }
        notes = {
            "latency_tail_s": f"p{workload.tail_pct:g} of {len(latencies)} ops, {beyond} beyond it"
                              + ("" if beyond >= 10 else ", fewer than ten"),
            "throughput_ops_s": workload.size,
            "err_rel_max": (f"reference's own error <= {max(shares):.2g} of the error it judges"
                            if shares else ""),
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "peak_rss_mb": "children" if workload.runner != "inprocess" else "this process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<17} {metrics[name]:<13.6g} {unit:<5} {notes.get(name, '')}")
        print(f"  {'fail_ratio':<17} {fail_ratio:<13.6g} {'ratio':<5} "
              f"{failed_ops} failed of {len(records)} attempted")
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}
    else:
        for name, unit, moves in PER_LAYER:
            print(f"  {name:<37} {layers[name]:<13.6g} {unit:<8} should move {moves}")
        if tracer.unwrapped:
            print(f"  not traced, absent at this commit: {', '.join(tracer.unwrapped)}")
        print(f"  traced and untraced passes agree on every input's class and error: "
              f"{traced_agrees}")
        result_metrics = {name: {"value": layers[name], "unit": unit}
                          for name, unit, _ in PER_LAYER}
    wrong = [o for o in graded if o.cls in WRONG]
    for o in wrong[:5]:
        print(f"  {o.cls}: {o.detail}")
    provenance = {
        "workload": workload.name, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "input_size": workload.size, "passes": passes,
        "warmup_ops": WARMUP_OPS, "setup_repeats": SETUP_REPEATS,
        "tail_percentile": workload.tail_pct, "tail_beyond": beyond,
        "nproc": NPROC, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "inputs": [asdict(i) for i in inputs],
    }
    print("provenance " + json.dumps(provenance))
    # every pass repeats the same inputs with the same outcomes (else correct
    # is false), so attempted and failed count distinct inputs: they depend on
    # the seed alone, not on how many passes the measured time held
    print(json.dumps({
        "correct": not wrong and repeatable and traced_agrees,
        "attempted": len(per_input),
        "failed": sum(cls != "ok" for cls, _ in per_input.values()),
        "metrics": result_metrics,
    }))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
