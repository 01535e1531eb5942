"""Spans around every beambvp layer, recorded from the benchmark's side.

Tracer.install replaces each public function at the module attribute its
caller looks up (cli.solve_auto, solver.picard, verify.formula_solve_linear,
...) with a functools.wraps wrapper, so solve_auto's DomainError stub still
reads run.__name__. Each call records a span: name, start, end, parent span
and operation id. Spans stay in memory until the run ends; self time and the
per-layer metrics are derived from them. Counts (points, iterations, computed
bytes and flops) are recorded at the same boundaries.

Module names are the layer names. Every per-layer metric is reported per
operation, so a commit that completes more operations in the same time reads
the same.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> modules (under beambvp.) whose attribute of that name is wrapped;
# the attribute is the last part of the span name
SITES = {
    "cli.main": ("cli",),
    "expressions.parse": ("cli", "analysis", "verify"),
    "quadrature.make_quadrature": ("cli", "quadrature"),
    "quadrature.integrate": ("analysis", "kernel", "solver", "verify", "oracle", "cli"),
    "kernel.green": ("kernel", "solver", "oracle", "verify", "cli"),
    "kernel.kernel_weight": ("solver", "cli"),
    "analysis.make_problem": ("cli", "verify"),
    "analysis.validate_hypotheses": ("cli",),
    "analysis.certificate": ("cli",),
    "solver.build_operator": ("cli", "solver", "verify"),
    "solver.solve_auto": ("cli",),
    "solver.picard": ("solver",),
    "solver.newton": ("solver",),
    "solver.residuals": ("solver",),
    "solver.interpolate": ("solver", "verify"),
    "oracle.formula_solve_linear": ("verify",),
    "oracle.fd_solve_linear": ("verify",),
    "verify.run_checks": ("cli",),
}
EVAL = "expressions.eval"   # Expression.__call__, wrapped on the class

# name, unit, and the end-to-end metric and workload it should move
PER_LAYER = (
    ("cli.main.self_s", "s/op", "latency_p50_s on solve-fine"),
    ("cli.artifact_bytes", "B/op", "latency_p50_s on solve-fine"),
    ("expressions.parse.busy_s", "s/op", "little anywhere: f and a are parsed once per operation"),
    ("expressions.eval.calls", "count/op", "latency_p50_s on solve-multistart"),
    ("expressions.eval.points", "count/op", "latency_p50_s on solve-multistart"),
    ("expressions.eval.busy_s", "s/op", "latency_p50_s on solve-multistart"),
    ("quadrature.make_quadrature.busy_s", "s/op", "little anywhere: one rule per operation"),
    ("quadrature.integrate.calls", "count/op", "latency_p50_s on verify-suite"),
    ("kernel.green.calls", "count/op", "latency_p50_s on solve-multistart and verify-suite"),
    ("kernel.green.points", "count/op", "latency_p50_s on solve-multistart and verify-suite"),
    ("kernel.green.points_ld", "count/op", "latency_p50_s on solve-multistart (residual path)"),
    ("kernel.green.busy_s", "s/op", "latency_p50_s on solve-multistart and verify-suite"),
    ("kernel.kernel_weight.busy_s", "s/op", "latency_p50_s on solve-fine"),
    ("analysis.make_problem.busy_s", "s/op", "little anywhere: once per operation"),
    ("analysis.validate_hypotheses.busy_s", "s/op", "little anywhere: once per solve"),
    ("analysis.certificate.busy_s", "s/op", "latency_p50_s on cli-cold (classify)"),
    ("solver.build_operator.calls", "count/op", "latency_p50_s on solve-fine"),
    ("solver.build_operator.busy_s", "s/op", "latency_p50_s on solve-fine"),
    ("solver.build_operator.bytes_computed", "B/op", "latency_p50_s on solve-fine"),
    ("solver.solve_auto.busy_s", "s/op", "latency_p50_s on solve-multistart"),
    ("solver.attempts", "count/op", "latency_p50_s on solve-multistart"),
    ("solver.accept_ratio", "ratio", "latency_p50_s on solve-multistart"),
    ("solver.picard.iters", "count/op", "latency_p50_s on solve-multistart"),
    ("solver.picard.busy_s", "s/op", "latency_p50_s on solve-multistart"),
    ("solver.newton.iters", "count/op", "latency_p50_s on solve-multistart"),
    ("solver.newton.busy_s", "s/op", "latency_p50_s on solve-multistart"),
    ("solver.newton.flops_computed", "flop/op", "latency_p50_s on solve-multistart"),
    ("solver.residuals.calls", "count/op", "latency_p50_s on solve-multistart, none on solve-fine"),
    ("solver.residuals.busy_s", "s/op", "latency_p50_s on solve-multistart, none on solve-fine"),
    ("solver.residuals.useful_ratio", "ratio", "latency_p50_s on solve-multistart, none on solve-fine"),
    ("solver.interpolate.busy_s", "s/op", "latency_p50_s on verify-suite"),
    ("oracle.formula_solve_linear.calls", "count/op", "latency_p50_s on verify-suite"),
    ("oracle.formula_solve_linear.points", "count/op", "latency_p50_s on verify-suite"),
    ("oracle.formula_solve_linear.busy_s", "s/op", "latency_p50_s on verify-suite"),
    ("oracle.fd_solve_linear.busy_s", "s/op", "latency_p50_s on verify-suite"),
    ("verify.run_checks.self_s", "s/op", "latency_p50_s on verify-suite"),
    ("verify.checks_passed_ratio", "ratio", "failed operations on verify-suite"),
    ("process.interpreter_s", "s", "setup_s everywhere, latency_p50_s on cli-cold"),
    ("process.import_beambvp_s", "s", "setup_s everywhere, latency_p50_s on cli-cold"),
    ("process.import_scipy_s", "s", "setup_s everywhere, latency_p50_s on cli-cold"),
    ("process.scipy_on_path", "bool", "setup_s everywhere, latency_p50_s on cli-cold"),
    ("trace.overhead_ratio", "ratio", "nothing: traced over untraced throughput"),
)


class Tracer:
    """Span recorder. active is true only while an operation runs, so the
    benchmark's own calls into beambvp (the references) are not counted."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.counts = defaultdict(float)
        self.returned = set()    # attempt spans whose report solve_auto returned
        self.unwrapped = []      # sites absent at this commit
        self.active = False
        self._stack = []
        self._attempts = []
        self._op = -1

    # -- recording -------------------------------------------------------

    def begin(self, op_id):
        self._op, self._stack, self._attempts = op_id, [], []
        self.active = True

    def end(self):
        self.active = False

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self._op)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, modules in SITES.items():
            attr = name.rsplit(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(f"beambvp.{module_name}")
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(name, getattr(module, attr)))
                else:
                    self.unwrapped.append(f"{module_name}.{attr}")
        from beambvp.expressions import Expression
        Expression.__call__ = self.wrap(EVAL, Expression.__call__)

    # -- persistence -------------------------------------------------------

    def dump(self, path):
        keys = sorted(self.counts)
        np.savez(path, names=np.array(self.names, dtype=str),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64),
                 op=np.array(self.ops, dtype=np.int64),
                 returned=np.array(sorted(self.returned), dtype=np.int64),
                 count_keys=np.array(keys, dtype=str),
                 count_values=np.array([self.counts[k] for k in keys]))

    def merge(self, path, op_id):
        """Append the spans a traced child process dumped, as operation op_id."""
        with np.load(path) as data:
            offset = len(self.starts)
            parent = data["parent"]
            self.names.extend(data["names"].tolist())
            self.starts.extend(data["start"].tolist())
            self.ends.extend(data["end"].tolist())
            self.parents.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.ops.extend([op_id] * len(parent))
            self.returned.update((data["returned"] + offset).tolist())
            for key, value in zip(data["count_keys"].tolist(), data["count_values"].tolist()):
                self.counts[key] += value

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, n_ops):
        """Per-operation layer metrics from the recorded spans and counts."""
        names = np.array(self.names, dtype=str)
        dur = np.array(self.ends) - np.array(self.starts)
        parent = np.array(self.parents, dtype=np.int64)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        def calls(name):
            return float(np.count_nonzero(names == name))

        def busy(name):
            return float(dur[names == name].sum())

        residual = np.flatnonzero(names == "solver.residuals")
        useful = sum(1 for i in residual if parent[i] in self.returned)
        attempts = calls("solver.picard") + calls("solver.newton")
        checks = self.counts["verify.checks_total"]
        totals = {
            "cli.main.self_s": float(self_time[names == "cli.main"].sum()),
            "cli.artifact_bytes": self.counts["cli.artifact_bytes"],
            "expressions.parse.busy_s": busy("expressions.parse"),
            "expressions.eval.calls": calls(EVAL),
            "expressions.eval.points": self.counts["expressions.eval.points"],
            "expressions.eval.busy_s": busy(EVAL),
            "quadrature.make_quadrature.busy_s": busy("quadrature.make_quadrature"),
            "quadrature.integrate.calls": calls("quadrature.integrate"),
            "kernel.green.calls": calls("kernel.green"),
            "kernel.green.points": self.counts["kernel.green.points"],
            "kernel.green.points_ld": self.counts["kernel.green.points_ld"],
            "kernel.green.busy_s": busy("kernel.green"),
            "kernel.kernel_weight.busy_s": busy("kernel.kernel_weight"),
            "analysis.make_problem.busy_s": busy("analysis.make_problem"),
            "analysis.validate_hypotheses.busy_s": busy("analysis.validate_hypotheses"),
            "analysis.certificate.busy_s": busy("analysis.certificate"),
            "solver.build_operator.calls": calls("solver.build_operator"),
            "solver.build_operator.busy_s": busy("solver.build_operator"),
            "solver.build_operator.bytes_computed": self.counts["solver.build_operator.bytes_computed"],
            "solver.solve_auto.busy_s": busy("solver.solve_auto"),
            "solver.attempts": attempts,
            "solver.picard.iters": self.counts["solver.picard.iters"],
            "solver.picard.busy_s": busy("solver.picard"),
            "solver.newton.iters": self.counts["solver.newton.iters"],
            "solver.newton.busy_s": busy("solver.newton"),
            "solver.newton.flops_computed": self.counts["solver.newton.flops_computed"],
            "solver.residuals.calls": float(len(residual)),
            "solver.residuals.busy_s": busy("solver.residuals"),
            "solver.interpolate.busy_s": busy("solver.interpolate"),
            "oracle.formula_solve_linear.calls": calls("oracle.formula_solve_linear"),
            "oracle.formula_solve_linear.points": self.counts["oracle.formula_solve_linear.points"],
            "oracle.formula_solve_linear.busy_s": busy("oracle.formula_solve_linear"),
            "oracle.fd_solve_linear.busy_s": busy("oracle.fd_solve_linear"),
            "verify.run_checks.self_s": float(self_time[names == "verify.run_checks"].sum()),
        }
        metrics = {name: value / n_ops for name, value in totals.items()}
        # ratios are over their own base, not per operation; 0 when the base is empty
        metrics["solver.accept_ratio"] = _ratio(self.counts["solver.accepted"], attempts)
        metrics["solver.residuals.useful_ratio"] = _ratio(useful, len(residual))
        metrics["verify.checks_passed_ratio"] = _ratio(self.counts["verify.checks_passed"], checks)
        return metrics


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


# -- counts recorded at span boundaries ------------------------------------


def _count_eval(tracer, index, args, kwargs, result):
    tracer.counts["expressions.eval.points"] += np.size(args[1])


def _count_green(tracer, index, args, kwargs, result):
    t, s = (np.asarray(v) for v in args[:2])
    size = np.broadcast(t, s).size
    tracer.counts["kernel.green.points"] += size
    if np.result_type(t, s) == np.longdouble:
        tracer.counts["kernel.green.points_ld"] += size


def _count_build(tracer, index, args, kwargs, result):
    # computed from the node count, not measured: the dense float64 N x N matrix
    n = result.quad.npoints
    tracer.counts["solver.build_operator.bytes_computed"] += 8 * n * n


def _count_picard(tracer, index, args, kwargs, result):
    tracer.counts["solver.picard.iters"] += result.iterations
    tracer._attempts.append((index, result))


def _count_newton(tracer, index, args, kwargs, result):
    # computed, not measured: one dense LU solve, 2/3 N^3 flops, per iteration
    n = args[0].quad.npoints
    tracer.counts["solver.newton.iters"] += result.iterations
    tracer.counts["solver.newton.flops_computed"] += result.iterations * 2.0 / 3.0 * n**3
    tracer._attempts.append((index, result))


def _count_solve_auto(tracer, index, args, kwargs, result):
    if result.converged and result.positive:
        tracer.counts["solver.accepted"] += 1
    tracer.returned.update(i for i, report in tracer._attempts if report is result)
    tracer._attempts = []


def _count_formula(tracer, index, args, kwargs, result):
    nodes = args[3] if len(args) > 3 else kwargs["eval_nodes"]
    tracer.counts["oracle.formula_solve_linear.points"] += np.size(nodes)


def _count_checks(tracer, index, args, kwargs, result):
    tracer.counts["verify.checks_total"] += len(result["checks"])
    tracer.counts["verify.checks_passed"] += sum(bool(c["passed"]) for c in result["checks"])


_HOOKS = {
    EVAL: _count_eval,
    "kernel.green": _count_green,
    "solver.build_operator": _count_build,
    "solver.picard": _count_picard,
    "solver.newton": _count_newton,
    "solver.solve_auto": _count_solve_auto,
    "oracle.formula_solve_linear": _count_formula,
    "verify.run_checks": _count_checks,
}
