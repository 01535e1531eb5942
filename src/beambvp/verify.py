"""Invariant suites behind the `verify` CLI command.

Each check recomputes one of the quantitative facts the solver relies
on (kernel sign and envelopes, representation-vs-finite-difference
agreement, cone inequalities) and reports its worst margin. The
representation u = integral [G + W] y is kernel.green_sum, the sum
behind the solver's operator, interpolate and residuals, taken on random
cubic loads, one block of loads per weight and one call per block, and
on one block of grid functions u for A u in the operator's cone check. The
finite-difference oracle solves the same problems without the kernel, and
each cubic load's closed-form solution checks the sum to rounding. The
kernel checks call this module's `green` (all but the nonlocal weight W,
which comes from `kernel_weight`), so a test that replaces it with a
corrupted kernel confirms that the corruption is caught. They sweep one
grid, GRID_M x GRID_M, in one loop over blocks of ROW_BLOCK rows, and
allocate two block arrays once per sweep. Every block is evaluated into
them (green's out and work, then the margins), so no block faults fresh
pages in, and the sweep reads G from what green returns, which a replaced
kernel need not put in out. The sweep's memory is set by the block, not
by the grid: what it keeps is per-column minima and maxima. Bounds that
depend on s alone (G >= 0, the upper envelope, the strip floors and the
kernel bound on G + W) are checked on the per-column minima and maxima
of G over the rows, and each bound is subtracted once per column after
the sweep: fl(x - c) and fl(x + c) are monotone in x, so every margin is
the one the whole grid would give.
The lower-envelope and triangle margins depend on t too and are taken
per point, in the lower bound's buffer, before their columns' minima; the
triangle s <= t only on the columns a block's rows reach.
"""

from __future__ import annotations

import numpy as np

from .analysis import THETA, make_problem
from .expressions import parse
from .kernel import ROW_BLOCK, green, green_sum, kernel_weight, lower_envelope, upper_envelope
from .oracle import fd_solve_linear
from .quadrature import default_quadrature, integrate
from .solver import cone_gap, DiscreteFunction

# Calibrated against the second-order scheme: worst observed sup-error / h^2
# is 0.229 over 5 seeds x {t, t^2, 1/2} x 20 quintic forcings x n in
# {201, 401}. The constant was frozen with 3x headroom over the 0.675 that a
# 5-point fourth-difference scheme reached, and stays there so that a run's
# margin keeps its scale against the tolerance.
PATH_EQUIVALENCE_C = 2.0

# points per side of the kernel sweep; the grid contains t = 1/2, so every
# strip [theta, 1 - theta] holds a grid point
GRID_M = 1001

# the product weights integrate G times a cubic load exactly, so the Green's
# sum misses the closed-form solution only by the rule's nonlocal sum of a u,
# of degree up to 9: for nonnegative coefficients at most 5.2e-12 of sup u
# (the load s^3 at a = t^2), while a whole-panel moment 1e-7 off misses by
# 4.5e-8
CUBIC_EXACT_TOL = 1e-11

# the seed of run_checks and RunConfig by default
SEED = 20240901


def run_checks(seed: int = SEED, theta: float = THETA) -> dict:
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
    lo, hi = _sweep(grid, thetas)
    col_min, *strip_cols, lower_col, triangle_col = lo

    # a bound that depends on s alone comes off each column's extreme once:
    # fl(x - c) and fl(x + c) are monotone in x, so the margins equal the
    # per-point ones
    results = [
        _floor("green_nonnegative", float(np.min(col_min)), -1e-15),
        _floor("green_lower_envelope", float(np.min(lower_col)), -1e-14),
        _ceiling("green_upper_envelope", float(np.max(hi - upper_envelope(grid))), 1e-14),
    ]
    # G's floor on the strip [theta, 1 - theta] is the lower envelope at theta
    for theta, col in zip(thetas, strip_cols):
        margin = float(np.min(col - lower_envelope(theta, grid)))
        results.append(_floor(f"green_strip_floor_theta_{theta}", margin, -1e-14))
    results.append(_floor("green_triangle_floor", float(np.min(triangle_col)), -1e-14))

    # G is continuous on the diagonal: s = t against the next double above t
    t_rand = rng.uniform(0.0, 1.0, 100)
    jump = green(t_rand, t_rand) - green(t_rand, np.nextafter(t_rand, 1.0))
    results.append(_ceiling("green_branch_match", float(np.max(np.abs(jump))), 1e-15))

    # G + W <= s (1 - s)^2 / (6 (1 - alpha)), with W(s) from kernel_weight
    a = parse("t^2", "t")
    kern_max = hi + kernel_weight(grid, a, q)
    bound = upper_envelope(grid) / (1.0 - integrate(a, q))
    results.append(_ceiling("kernel_upper_bound", float(np.max(kern_max - bound)), 1e-12))
    return results


def _sweep(grid, thetas):
    """Per-column extremes of G over the rows t of grid, as (lo, hi).

    hi is each column's maximum of G. lo's rows are each column's minimum of
    G, of G on each theta's strip rows theta <= t <= 1 - theta, of G minus
    the lower envelope and of G - s (t - s)^2 / 6 on the triangle s <= t;
    inf where a column has no such row. np.minimum and np.maximum keep a nan.
    """
    ss = grid[None, :]
    lo = np.full((3 + len(thetas), GRID_M), np.inf)
    hi = np.full(GRID_M, -np.inf)
    # every block is evaluated into these two: G's, and green's work and then
    # the margins'. Fresh block arrays would go back to the OS when freed
    # and fault their pages in again in the next block
    g_buf, m_buf = np.empty((2, ROW_BLOCK, GRID_M))
    for start in range(0, GRID_M, ROW_BLOCK):
        ts = grid[start:start + ROW_BLOCK, None]
        g_block, m_block = g_buf[:len(ts)], m_buf[:len(ts)]
        # green may return another array than g_block (a test's kernel does)
        g = green(ts, ss, out=g_block, work=m_block)
        np.minimum(lo[0], g.min(axis=0), out=lo[0])
        np.maximum(hi, g.max(axis=0), out=hi)
        for col, theta in zip(lo[1:], thetas):
            rows = slice(np.searchsorted(ts[:, 0], theta),
                         np.searchsorted(ts[:, 0], 1.0 - theta, "right"))
            if rows.start < rows.stop:
                np.minimum(col, g[rows].min(axis=0), out=col)
        # both t-dependent margins are taken in the lower bound's buffer: first
        # G minus the bound, then the triangle's
        margin = lower_envelope(ts, ss, out=m_block)
        np.minimum(lo[-2], np.subtract(g, margin, out=margin).min(axis=0), out=lo[-2])
        # the triangle s <= t holds only the columns up to the block's last
        # row, grid[:start + h]; they are taken in a contiguous h x n view
        h, n = len(ts), start + len(ts)
        tri, s_tri = m_buf.reshape(-1)[:h * n].reshape(h, n), ss[:, :n]
        np.subtract(ts, s_tri, out=tri)
        np.square(tri, out=tri)
        np.multiply(tri, s_tri, out=tri)
        np.divide(tri, 6.0, out=tri)
        np.subtract(g[:, :n], tri, out=tri)
        np.minimum(lo[-1, :n], np.min(tri, axis=0, where=s_tri <= ts, initial=np.inf),
                   out=lo[-1, :n])
    return lo, hi


def _path_checks(rng, q):
    worst = worst_exact = -np.inf
    n = 201
    h = 1.0 / (n - 1)
    for power, a_text in ((1, "t"), (2, "t^2")):
        a = parse(a_text, "t")
        cs = rng.uniform(0.0, 2.0, (5, 4))
        # one load per column, and one Green's sum for the weight's loads
        fds = [fd_solve_linear(_cubic(c), a, n) for c in cs]
        nodes = fds[0].nodes
        u = green_sum(a, q, _cubic(cs.T)(q.nodes[:, None]), nodes)
        fd = np.column_stack([sol.values for sol in fds])
        worst = max(worst, float(np.max(np.abs(fd - u))) / h**2)
        exact = np.column_stack([_cubic_solution(c, power, nodes) for c in cs])
        worst_exact = max(worst_exact, float(np.max(np.max(np.abs(u - exact), axis=0)
                                                    / np.max(np.abs(exact), axis=0))))
    return [_ceiling("linear_path_agreement", worst, PATH_EQUIVALENCE_C),
            _ceiling("green_sum_exact_on_cubics", worst_exact, CUBIC_EXACT_TOL)]


def _cone_checks(theta, rng, q):
    eval_nodes = np.linspace(0.0, 1.0, 201)
    strip = (eval_nodes >= theta - 1e-12) & (eval_nodes <= 1.0 - theta + 1e-12)
    worst_solution = np.inf
    for a_text in ("t", "t^2"):
        linear = make_problem("0*u", a_text, theta, q)
        cs = rng.uniform(0.0, 2.0, (10, 4))
        u = green_sum(linear.a, q, _cubic(cs.T)(q.nodes[:, None]), eval_nodes)
        gaps = np.min(u[strip], axis=0) - linear.cone.gamma * np.max(np.abs(u), axis=0)
        worst_solution = min(worst_solution, float(np.min(gaps)))
    results = [_floor("solution_cone_floor", worst_solution, -1e-10)]

    problem = make_problem("u^2*(exp(-u)+1)", "t^2", theta, q)
    # A u at the nodes as interpolate sums it, for every row of us in one call
    us = rng.uniform(0.0, 5.0, (20, q.npoints))
    aus = green_sum(problem.a, q, problem.f(us.T), q.nodes)
    worst_op = min(cone_gap(DiscreteFunction(q.nodes, au), problem, DiscreteFunction(q.nodes, u))
                   for u, au in zip(us, aus.T))
    results.append(_floor("operator_cone_floor", worst_op, -1e-10))
    return results


def _cubic(c):
    """The load c0 + c1 s + c2 s^2 + c3 s^3; with a row of coefficients per
    power and s a column, one load per column."""
    return lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3


def _cubic_solution(c, power, t):
    """The exact solution of u'''' + y = 0 with the problem's boundary
    conditions, for the load y = _cubic(c) and the weight a = t^power, at t.

    u = P + c3 t^3 + c0, with P = -y integrated four times from 0,
    c3 = -P'(1) / 3 and c0 = integral a (P + c3 t^3) / (1 - alpha), all in
    coefficients: P = sum_k p_k t^(k+4) with p_k = -c_k k! / (k+4)!, and
    integral t^power t^m = 1 / (power + m + 1).
    """
    k = np.arange(4)
    p = -np.asarray(c) / ((k + 1) * (k + 2) * (k + 3) * (k + 4))
    c3 = -np.dot(p, k + 4) / 3.0
    # 1 / (1 - alpha) = (power + 1) / power
    c0 = (np.dot(p, 1.0 / (power + k + 5)) + c3 / (power + 4)) * (power + 1) / power
    return t**4 * (p[0] + t * (p[1] + t * (p[2] + t * p[3]))) + c3 * t**3 + c0


def _floor(name, margin, tolerance):
    return {"name": name, "margin": margin, "tolerance": tolerance, "passed": margin >= tolerance}


def _ceiling(name, margin, tolerance):
    return {"name": name, "margin": margin, "tolerance": tolerance, "passed": margin <= tolerance}
