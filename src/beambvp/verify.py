"""Invariant suites behind the `verify` CLI command.

Each check recomputes one of the quantitative facts the solver relies
on (kernel sign and envelopes, representation-vs-finite-difference
agreement, cone inequalities) and reports its worst margin. The
representation u = integral [G + W] y is the solver's own Green's sum,
the one behind interpolate and residuals, taken on random cubic loads;
the finite-difference oracle solves the same problems without the
kernel. The kernel checks call this module's `green` (all but the
nonlocal weight W, which comes from `kernel_weight`), so a test that
replaces it with a corrupted kernel confirms that the corruption is
caught. They sweep one grid, GRID_M x GRID_M, ROW_BLOCK rows at a time,
with at most two block arrays in flight, so the sweep's memory is set by
the block, not by the grid. Bounds that depend on s alone (G >= 0, the
upper envelope, the strip floors and the kernel bound on G + W) are
checked on per-column minima and maxima of G over the rows, and each
bound is subtracted once per column after the sweep: fl(x - c) and
fl(x + c) are monotone in x, so every margin is the one the whole grid
would give. The lower-envelope and triangle margins depend on t too and
are taken block by block, both in the lower bound's buffer.
"""

from __future__ import annotations

import numpy as np

from .analysis import make_problem
from .expressions import parse
from .kernel import ROW_BLOCK, green, kernel_weight, lower_envelope, upper_envelope
from .oracle import fd_solve_linear
from .quadrature import default_quadrature, integrate
from .solver import _green_sum, apply, build_operator, cone_gap, DiscreteFunction

# Calibrated against the second-order scheme: worst observed sup-error / h^2
# is 0.229 over 5 seeds x {t, t^2, 1/2} x 20 quintic forcings x n in
# {201, 401}. The constant was frozen with 3x headroom over the 0.675 that a
# 5-point fourth-difference scheme reached, and stays there so that a run's
# margin keeps its scale against the tolerance.
PATH_EQUIVALENCE_C = 2.0

# points per side of the kernel sweep; the grid contains t = 1/2, so every
# strip [theta, 1 - theta] holds a grid point
GRID_M = 1001


def run_checks(seed: int = 20240901, theta: float = 0.25) -> dict:
    """Run every suite; returns a scorecard dict ready for JSON.

    The strip and cone checks run at the standard thetas plus the one
    requested (the bounds hold for every theta below one half).
    """
    rng = np.random.default_rng(seed)
    q = default_quadrature()
    thetas = sorted({0.1, 0.25, 0.4, theta})
    checks = [*_kernel_checks(thetas, rng, q), *_path_checks(rng, q),
              *_cone_checks(theta, rng, q)]
    return {
        "seed": seed,
        "grid_m": GRID_M,
        "theta": theta,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def _kernel_checks(thetas, rng, q):
    grid = np.linspace(0.0, 1.0, GRID_M)
    ss = grid[None, :]
    # per-column extremes of G over the t-rows swept so far, the strips' over
    # their rows theta <= t <= 1 - theta; np.minimum and np.maximum keep a nan
    col_min = np.full(GRID_M, np.inf)
    col_max = np.full(GRID_M, -np.inf)
    strip_min = {theta: np.full(GRID_M, np.inf) for theta in thetas}
    lower_min = triangle_min = np.inf
    for start in range(0, GRID_M, ROW_BLOCK):
        ts = grid[start:start + ROW_BLOCK, None]
        g = green(ts, ss)
        np.minimum(col_min, g.min(axis=0), out=col_min)
        np.maximum(col_max, g.max(axis=0), out=col_max)
        for theta, col in strip_min.items():
            rows = slice(np.searchsorted(ts[:, 0], theta),
                         np.searchsorted(ts[:, 0], 1.0 - theta, "right"))
            if rows.start < rows.stop:
                np.minimum(col, g[rows].min(axis=0), out=col)
        # both t-dependent margins are taken in the lower bound's buffer: first
        # G minus the bound, then G - s (t - s)^2 / 6 on the triangle s <= t
        # (s = 0 <= t, so every row has a point in it)
        margin = lower_envelope(ts, ss)
        lower_min = np.minimum(lower_min, np.min(np.subtract(g, margin, out=margin)))
        np.subtract(ts, ss, out=margin)
        np.square(margin, out=margin)
        np.multiply(margin, ss, out=margin)
        np.divide(margin, 6.0, out=margin)
        np.subtract(g, margin, out=margin)
        triangle_min = np.minimum(triangle_min, np.min(margin, where=ss <= ts, initial=np.inf))
        # freed before green builds the next block, so at most two are live
        del g, margin

    # a bound that depends on s alone comes off each column's extreme once:
    # fl(x - c) and fl(x + c) are monotone in x, so the margins equal the
    # per-point ones
    results = [
        _floor("green_nonnegative", float(np.min(col_min)), -1e-15),
        _floor("green_lower_envelope", float(lower_min), -1e-14),
        _ceiling("green_upper_envelope", float(np.max(col_max - upper_envelope(grid))), 1e-14),
    ]
    # G's floor on the strip [theta, 1 - theta] is the lower envelope at theta
    for theta, col in strip_min.items():
        margin = float(np.min(col - lower_envelope(theta, grid)))
        results.append(_floor(f"green_strip_floor_theta_{theta}", margin, -1e-14))
    results.append(_floor("green_triangle_floor", float(triangle_min), -1e-14))

    # s = t takes the s <= t branch; the next double above t takes the other
    t_rand = rng.uniform(0.0, 1.0, 100)
    jump = green(t_rand, t_rand) - green(t_rand, np.nextafter(t_rand, 1.0))
    results.append(_ceiling("green_branch_match", float(np.max(np.abs(jump))), 1e-15))

    # G + W <= s (1 - s)^2 / (6 (1 - alpha)), with W(s) from kernel_weight
    a = parse("t^2", "t")
    kern_max = col_max + kernel_weight(grid, a, q)
    bound = upper_envelope(grid) / (1.0 - integrate(a, q))
    results.append(_ceiling("kernel_upper_bound", float(np.max(kern_max - bound)), 1e-12))
    return results


def _path_checks(rng, q):
    worst = -np.inf
    n = 201
    h = 1.0 / (n - 1)
    for a_text in ("t", "t^2"):
        a = parse(a_text, "t")
        for c in rng.uniform(0.0, 2.0, (5, 4)):
            y = _cubic(c)
            fd = fd_solve_linear(y, a, n)
            err = float(np.max(np.abs(fd.values - _green_sum(a, q, y(q.nodes), fd.nodes))))
            worst = max(worst, err / h**2)
    return [_ceiling("linear_path_agreement", worst, PATH_EQUIVALENCE_C)]


def _cone_checks(theta, rng, q):
    eval_nodes = np.linspace(0.0, 1.0, 201)
    strip = (eval_nodes >= theta - 1e-12) & (eval_nodes <= 1.0 - theta + 1e-12)
    worst_solution = np.inf
    for a_text in ("t", "t^2"):
        linear = make_problem("0*u", a_text, theta, q)
        for c in rng.uniform(0.0, 2.0, (10, 4)):
            u = _green_sum(linear.a, q, _cubic(c)(q.nodes), eval_nodes)
            gap = float(np.min(u[strip]) - linear.cone.gamma * np.max(np.abs(u)))
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


def _cubic(c):
    """The load c0 + c1 s + c2 s^2 + c3 s^3."""
    return lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3


def _floor(name, margin, tolerance):
    return {"name": name, "margin": margin, "tolerance": tolerance, "passed": margin >= tolerance}


def _ceiling(name, margin, tolerance):
    return {"name": name, "margin": margin, "tolerance": tolerance, "passed": margin <= tolerance}
