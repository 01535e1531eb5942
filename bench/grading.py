"""Outcome classes and kernel-free references for benchmark operations.

Every operation is sorted into exactly one class, outside the timed region:

    ok             the output is what the command promises, checked below
    trivial_only   solve reported "trivial solution only" on a problem the
                   existence theorem covers (all benchmark problems are)
    not_positive   solve exited 0 but its solution is negative somewhere or
                   outside the cone
    off_reference  the solution misses the finite-difference reference, a
                   classification disagrees with the theorem, or a verify
                   check missed its tolerance
    error          any other exit code, a crash, or missing artifacts

Only ok counts as success. The solve reference is fd_solve_nonlinear, which
never touches the kernel, extrapolated twice in the grid step so that its own
error sits far below the collocation error it judges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = ("ok", "trivial_only", "not_positive", "off_reference", "error")
WRONG = ("not_positive", "off_reference", "error")

# min u below -POSITIVITY_TOL * max(1, sup u) is negative
POSITIVITY_TOL = 1e-6
CONE_SLACK = 1e-10
# sup|u - u_ref| / sup|u_ref| above this misses the reference; the default
# grid's own error is ~3e-6 on the benchmark families
REFERENCE_TOL = 1e-4
# finite-difference grids; each doubles the last. The error expands in h^2
# then h^3 (one-sided boundary stencils), so two Richardson steps leave
# O(h^4). Grids past 8001 points gain nothing: rounding takes over.
FD_GRIDS = (1001, 2001, 4001, 8001)
INTERP_DEGREE = 7
PATH_CHECK = "linear_path_agreement"


@dataclass(frozen=True)
class Outcome:
    cls: str
    err: float | None = None      # sup|u - u_ref| / sup|u_ref|, when defined
    ref_err: float | None = None  # the reference's own error, same scale
    detail: str = ""


def read_outputs(command: str, outdir: Path) -> dict:
    """Artifacts of one operation, read right after it ran."""
    data = {"artifact_bytes": sum(p.stat().st_size for p in outdir.glob("*"))
            if outdir.is_dir() else 0}
    try:
        if command == "solve":
            data["report"] = json.loads((outdir / "report.json").read_text())
            table = np.loadtxt(outdir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
            data["t"], data["u"] = table[:, 0], table[:, 1]
        elif command == "classify":
            data["report"] = json.loads((outdir / "classify.json").read_text())
        else:
            data["report"] = json.loads((outdir / "verify.json").read_text())
    except (OSError, ValueError) as exc:
        data["missing"] = f"{type(exc).__name__}: {exc}"
    return data


def grade(inp, rc, stdout: str, data: dict, reference) -> Outcome:
    """Sort one operation into its class. reference(inp, t, u) returns
    (u_ref at t, its own error) or raises ReferenceFailure."""
    if inp.command == "solve":
        if rc == 2 and stdout.startswith("trivial solution only"):
            return Outcome("trivial_only")
        if rc != 0:
            return Outcome("error", detail=f"exit {rc}: {stdout.strip()[:200]}")
        if "missing" in data:
            return Outcome("error", detail=data["missing"])
        return _grade_solution(inp, data, reference)
    if inp.command == "classify":
        if rc != 0 or "missing" in data:
            return Outcome("error", detail=data.get("missing", f"exit {rc}"))
        label = data["report"].get("classification")
        if label != inp.growth:
            return Outcome("off_reference", detail=f"classified {label}, theorem says {inp.growth}")
        return Outcome("ok")
    if rc not in (0, 4) or "missing" in data:
        return Outcome("error", detail=data.get("missing", f"exit {rc}"))
    checks = {c["name"]: c for c in data["report"]["checks"]}
    if PATH_CHECK not in checks:
        return Outcome("error", detail=f"verify.json has no {PATH_CHECK} check")
    # verify has no solution to compare; its error is the worst gap between
    # the two kernel-free oracles, as a share of the gap the check allows
    path = checks[PATH_CHECK]
    err = path["margin"] / path["tolerance"]
    if rc == 4 or not data["report"]["all_passed"]:
        failed = [name for name, c in checks.items() if not c["passed"]]
        return Outcome("off_reference", err, detail=f"failed checks: {failed}")
    return Outcome("ok", err)


def _grade_solution(inp, data, reference):
    t, u, report = data["t"], data["u"], data["report"]
    sup = float(np.max(np.abs(u)))
    scale = max(1.0, sup)
    theta, gamma = report["theta"], report["gamma"]
    strip = (t >= theta) & (t <= 1.0 - theta)
    cone_ok = not np.any(strip) or float(np.min(u[strip])) >= gamma * sup - CONE_SLACK * scale
    try:
        u_ref, ref_err = reference(inp, t, u)
    except ReferenceFailure as exc:
        return Outcome("off_reference", detail=str(exc))
    err = float(np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref)))
    if float(np.min(u)) < -POSITIVITY_TOL * scale or not report["in_cone"] or not cone_ok:
        return Outcome("not_positive", err, ref_err,
                       f"min u = {float(np.min(u)):.6g}, in_cone = {report['in_cone']}")
    if not err <= REFERENCE_TOL:
        return Outcome("off_reference", err, ref_err, f"relative error {err:.3g}")
    return Outcome("ok", err, ref_err)


class ReferenceFailure(Exception):
    """The finite-difference path found no solution near the reported one."""


class FDReference:
    """Extrapolated finite-difference solutions, one per distinct input.

    Newton on each grid starts from the reported solution, so the reference
    is the finite-difference solution on that branch; a reported fixed point
    with no solution of the differential equation nearby fails to converge.
    """

    def __init__(self):
        from beambvp import BeamBVPError, DiscreteFunction, fd_solve_nonlinear, parse
        self._error = BeamBVPError
        self._start = DiscreteFunction
        self._solve = fd_solve_nonlinear
        self._parse = parse
        self._cache = {}

    def __call__(self, inp, t, u):
        key = inp.args
        if key not in self._cache:
            try:
                self._cache[key] = self._extrapolate(inp, t, u)
            except ReferenceFailure as exc:
                self._cache[key] = exc
        result = self._cache[key]
        if isinstance(result, ReferenceFailure):
            raise result
        nodes, fine, coarse = result
        if not np.array_equal(nodes, t):
            raise ReferenceFailure("solution nodes differ between runs of one input")
        return fine, float(np.max(np.abs(fine - coarse)) / np.max(np.abs(fine)))

    def _extrapolate(self, inp, t, u):
        args = dict(zip(inp.args[::2], inp.args[1::2]))
        f, a = self._parse(args["--f"], "u"), self._parse(args["--a"], "t")
        start = self._start(t, u)
        values = {}
        for n in FD_GRIDS:
            try:
                sol = self._solve(f, a, n, start)
            except (self._error, ArithmeticError, np.linalg.LinAlgError) as exc:
                raise ReferenceFailure(f"finite differences failed on n={n}: {exc}") from exc
            if not sol.converged:
                raise ReferenceFailure(f"finite-difference Newton did not converge on n={n}")
            values[n] = sol.values
        fine = _richardson(values, FD_GRIDS[1:])
        coarse = _richardson(values, FD_GRIDS[:3])
        return t, _interpolate(*fine, t), _interpolate(*coarse, t)


def _richardson(values, grids):
    """Two Richardson steps (h^2, then h^3) on three doubling grids, on the
    points of the coarsest one."""
    n1, n2, n3 = grids
    v1, v2, v3 = values[n1], values[n2][::2], values[n3][::4]
    r2 = (4.0 * v2 - v1) / 3.0
    r3 = (4.0 * v3 - v2) / 3.0
    return np.linspace(0.0, 1.0, n1), (8.0 * r3 - r2) / 7.0


def _interpolate(grid, values, x):
    """Local Lagrange interpolation of degree INTERP_DEGREE on a uniform grid."""
    m = INTERP_DEGREE + 1
    h = grid[1] - grid[0]
    first = np.clip(np.rint(x / h).astype(int) - m // 2, 0, len(grid) - m)
    idx = first[:, None] + np.arange(m)
    xs, ys = grid[idx], values[idx]
    out = np.zeros_like(x)
    for j in range(m):
        weight = np.ones_like(x)
        for k in range(m):
            if k != j:
                weight *= (x - xs[:, k]) / (xs[:, j] - xs[:, k])
        out += weight * ys[:, j]
    return out
