"""Invariant suites behind the `verify` CLI command.

Each check recomputes one of the quantitative facts the solver relies
on (kernel sign and envelopes, representation-vs-finite-difference
agreement, cone inequalities) and reports its worst margin. A
green_offset can be injected to confirm that a corrupted kernel is
actually caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import make_problem
from .errors import InvalidConfig
from .expressions import parse
from .kernel import green, lower_envelope, strip_lower_bound, upper_envelope
from .oracle import fd_solve_linear, formula_solve_linear
from .quadrature import default_quadrature, integrate
from .solver import apply, build_operator, cone_gap, DiscreteFunction

# Calibrated against the second-order scheme: worst observed sup-error / h^2
# is 0.229 over 5 seeds x {t, t^2, 1/2} x 20 quintic forcings x n in
# {201, 401}. The constant was frozen with 3x headroom over the 0.675 that a
# 5-point fourth-difference scheme reached, and stays there so that a run's
# margin keeps its scale against the tolerance.
PATH_EQUIVALENCE_C = 2.0


@dataclass
class CheckResult:
    name: str
    margin: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {"name": self.name, "margin": self.margin,
                "tolerance": self.tolerance, "passed": self.passed}


def run_checks(seed: int = 20240901, green_offset: float = 0.0,
               grid_m: int = 1001, theta: float = 0.25) -> dict:
    """Run every suite; returns a scorecard dict ready for JSON.

    The strip and cone checks run at the standard thetas plus the one
    requested (the bounds hold for every theta below one half).
    """
    rng = np.random.default_rng(seed)
    thetas = sorted({0.1, 0.25, 0.4, theta})
    grid = np.linspace(0.0, 1.0, max(grid_m, 0))
    for th in thetas:
        # a strip check over no grid point could not fail
        if not np.any((grid >= th) & (grid <= 1.0 - th)):
            raise InvalidConfig(f"a {grid_m}-point grid has no point in the "
                                f"strip [{th}, {1.0 - th}]")
    checks = []
    checks.extend(_kernel_checks(green_offset, grid_m, thetas, rng))
    checks.extend(_path_checks(rng))
    checks.extend(_cone_checks(theta, rng))
    return {
        "seed": seed,
        "green_offset": green_offset,
        "grid_m": grid_m,
        "theta": theta,
        "checks": [c.as_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


def _kernel_checks(offset, m, thetas, rng):
    def kernel(t, s):
        return green(t, s) + offset

    ts = np.linspace(0.0, 1.0, m)[:, None]
    ss = np.linspace(0.0, 1.0, m)[None, :]
    g = kernel(ts, ss)

    results = [
        _floor("green_nonnegative", float(np.min(g)), -1e-15),
        _floor("green_lower_envelope", float(np.min(g - lower_envelope(ts, ss))), -1e-14),
        _ceiling("green_upper_envelope", float(np.max(g - upper_envelope(ss))), 1e-14),
    ]
    for theta in thetas:
        strip = (ts >= theta) & (ts <= 1.0 - theta)
        gap = np.where(strip, g - strip_lower_bound(theta, ss), np.inf)
        results.append(_floor(f"green_strip_floor_theta_{theta}", float(np.min(gap)), -1e-14))
    lower_tri = np.where(ss <= ts, g - ss * (ts - ss) ** 2 / 6.0, np.inf)
    results.append(_floor("green_triangle_floor", float(np.min(lower_tri)), -1e-14))

    # s = t takes the s <= t branch; the next double above t takes the other
    t_rand = rng.uniform(0.0, 1.0, 100)
    jump = kernel(t_rand, t_rand) - kernel(t_rand, np.nextafter(t_rand, 1.0))
    results.append(_ceiling("green_branch_match", float(np.max(np.abs(jump))), 1e-15))

    q = default_quadrature()
    a = parse("t^2", "t")
    alpha = integrate(a, q)
    coeff = np.asarray(a(q.nodes)) * q.weights
    sgrid = np.linspace(0.0, 1.0, 201)
    weight = coeff @ kernel(q.nodes[:, None], sgrid[None, :]) / (1.0 - alpha)
    kern = kernel(np.linspace(0.0, 1.0, 201)[:, None], sgrid[None, :]) + weight[None, :]
    bound = upper_envelope(sgrid) / (1.0 - alpha)
    results.append(_ceiling("kernel_upper_bound", float(np.max(kern - bound[None, :])), 1e-12))
    return results


def _path_checks(rng):
    q = default_quadrature()
    worst = -np.inf
    n = 201
    h = 1.0 / (n - 1)
    for a_text in ("t", "t^2"):
        a = parse(a_text, "t")
        for _ in range(5):
            coeffs = rng.uniform(0.0, 2.0, 4)
            y = lambda s: coeffs[0] + coeffs[1] * s + coeffs[2] * s**2 + coeffs[3] * s**3
            fd = fd_solve_linear(y, a, n)
            formula = formula_solve_linear(y, a, q, fd.nodes)
            err = float(np.max(np.abs(fd.values - formula.values)))
            worst = max(worst, err / h**2)
    return [_ceiling("linear_path_agreement", worst, PATH_EQUIVALENCE_C)]


def _cone_checks(theta, rng):
    q = default_quadrature()
    eval_nodes = np.linspace(0.0, 1.0, 201)
    strip = (eval_nodes >= theta - 1e-12) & (eval_nodes <= 1.0 - theta + 1e-12)
    worst_solution = np.inf
    for a_text in ("t", "t^2"):
        linear = make_problem("0*u", a_text, theta, q)
        for _ in range(10):
            coeffs = rng.uniform(0.0, 2.0, 4)
            y = lambda s: coeffs[0] + coeffs[1] * s + coeffs[2] * s**2 + coeffs[3] * s**3
            u = formula_solve_linear(y, linear.a, q, eval_nodes)
            gap = float(np.min(u.values[strip]) - linear.cone.gamma * np.max(np.abs(u.values)))
            worst_solution = min(worst_solution, gap)
    results = [_floor("solution_cone_floor", worst_solution, -1e-10)]

    problem = make_problem("u^2*(exp(-u)+1)", "t^2", theta, q)
    op = build_operator(problem)
    worst_op = np.inf
    for _ in range(20):
        u = DiscreteFunction(q.nodes.copy(), rng.uniform(0.0, 5.0, q.npoints))
        worst_op = min(worst_op, cone_gap(apply(op, u), problem, u))
    results.append(_floor("operator_cone_floor", worst_op, -1e-10))
    return results


def _floor(name, margin, tolerance):
    return CheckResult(name, margin, tolerance, margin >= tolerance)


def _ceiling(name, margin, tolerance):
    return CheckResult(name, margin, tolerance, margin <= tolerance)
