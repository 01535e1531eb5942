"""Independent finite-difference paths for the linear and nonlinear problems.

fd_solve_linear solves u'''' + y = 0 with u'(0) = u'(1) = u''(0) = 0 and
u(0) = integral a u by discretizing the differential equation directly
on a uniform grid; it never touches the kernel. It works in mixed form,
u'' = v and v'' = -y, with 3-point interior stencils, one-sided
second-order slopes at both ends and trapezoid weights in the nonlocal
row. Its residual cancels only to O(h^2 u''), so double precision
suffices at every grid the oracle is used on. The banded system is
solved here, by elimination in O(n) Python float operations, so the
oracle needs nothing beyond numpy.

verify checks kernel.green_sum, the production Green's sum behind the
solver's interpolate and residuals, against this path; disagreement
exposes a bug in either. fd_solve_nonlinear extends the path to u'''' + f(u) = 0 by
Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, SingularSystem
from .expressions import Expression
from .quadrature import _sample
from .solver import DiscreteFunction

# fd_solve_nonlinear's Newton stops once a step moves u by at most
# FD_TOL max(1, ||u||), and gives up after FD_MAX_ITER steps
FD_TOL = 1e-10
FD_MAX_ITER = 100


@dataclass
class FDSolution(DiscreteFunction):
    """Grid solution carrying the Newton convergence record."""

    converged: bool = True
    iterations: int = 0


# Unknowns v_i = u''(t_i) and u_i are interleaved, x[2i] = v_i and
# x[2i + 1] = u_i, and row k of the system goes with unknown k. An
# interior node's v-row holds v'' + f(u) = 0 and its u-row u'' - v = 0,
# both 3-point and scaled by h^2. Node 0's rows hold v(0) = 0 and u'(0) = 0,
# node n-1's u'(1) = 0 and the dense nonlocal row u(0) = trapezoid(a u).
# The slopes are one-sided and second order, -3u_0 + 4u_1 - u_2 and
# u_{n-3} - 4u_{n-2} + 3u_{n-1}; adding node 1's u-row to the first and
# subtracting node n-2's from the second gives the rows held,
# 2(u_1 - u_0) - h^2 v_1 and 2(u_{n-1} - u_{n-2}) + h^2 v_{n-2}. That leaves
# the solutions as they were and keeps every row of the core within two
# columns of its diagonal. The bordered solve takes out the nonlocal row and
# the column of u_{n-1}, both last, leaving a pentadiagonal core:
# bands[k + 2, i] holds its entry (i, i + k) for k = -2..2. A v_{n-1} border
# would leave the core singular: without the nonlocal row, constant u
# solves it.


def fd_solve_linear(y, a: Expression, n: int) -> DiscreteFunction:
    """Direct finite-difference solution of the linear problem: one step
    from zero on the mixed system, with y as the load."""
    grid, weights, bands, border = _fd_setup(a, n)
    zero = np.zeros(n)
    x = _bordered_solve(bands, border, -_fd_residual(zero, zero, _sample(y, grid[1:-1]), weights))
    return DiscreteFunction(grid, x[1::2])


def fd_solve_nonlinear(f: Expression, a: Expression, n: int,
                       u0: DiscreteFunction = None) -> FDSolution:
    """Newton iteration on the finite-difference system with load f(u).

    u starts from u0 (or zero), v from zero. The Jacobian is the linear
    system's matrix plus h^2 f'(u) in the v-rows, with f' from
    f.derivative(), so a start where f' is not finite (sqrt(u) at 0)
    raises DomainError. Convergence is declared on the step norm of u
    relative to max(1, ||u||), see FD_TOL. Non-convergence after
    FD_MAX_ITER steps is reported on the returned solution, not raised.
    """
    grid, weights, bands, border = _fd_setup(a, n)
    h2 = (1.0 / (n - 1)) ** 2
    u = np.zeros(n) if u0 is None else np.interp(grid, u0.nodes, u0.values)
    v = np.zeros(n)
    df = f.derivative()
    converged = False
    iterations = 0
    for iterations in range(1, FD_MAX_ITER + 1):
        jacobian = bands.copy()
        jacobian[3, 2:-1:2] += h2 * df(u[1:-1])   # entry (2i, 2i + 1): v-row i, u_i
        step = _bordered_solve(jacobian, border, -_fd_residual(u, v, f(u[1:-1]), weights))
        u = u + step[1::2]
        v = v + step[0::2]
        if float(np.max(np.abs(step[1::2]))) <= FD_TOL * max(1.0, float(np.max(np.abs(u)))):
            converged = True
            break
    return FDSolution(grid, u, converged=converged, iterations=iterations)


def _fd_setup(a, n):
    """The grid, the nonlocal row's trapezoid weights times a, and the
    system's matrix in bordered form: the core's bands and the border
    (core column of u_{n-1}, nonlocal row over the core columns, its
    u_{n-1} entry)."""
    if n < 21:
        raise InvalidConfig("finite-difference grid needs n >= 21")
    grid = np.linspace(0.0, 1.0, n)
    h = 1.0 / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    weights *= _sample(a, grid)

    bands = np.zeros((5, 2 * n - 1))
    bands[0, 2:-1] = bands[4, 2:-2] = 1.0   # interior stencils; u_{n-1} is the border's
    bands[2, 2:-1] = -2.0
    bands[1, 3:-1:2] = -h * h               # u-row i: -h^2 v_i
    bands[2, 0] = 1.0                       # v_0
    bands[2:, 1] = -2.0, -h * h, 2.0        # 2 (u_1 - u_0) - h^2 v_1
    bands[:2, -1] = h * h, -2.0             # 2 (u_{n-1} - u_{n-2}) + h^2 v_{n-2}
    border_col = np.zeros(2 * n - 1)
    border_col[-2:] = 1.0, 2.0
    border_row = np.zeros(2 * n - 1)
    border_row[1::2] = -weights[:-1]
    border_row[1] += 1.0
    return grid, weights, bands, (border_col, border_row, -weights[-1])


def _bordered_solve(bands, border, rhs):
    """x solving the system for rhs: the pentadiagonal core is solved for
    rhs and for the border column at once, then the nonlocal row eliminated.

    The core is eliminated without pivoting, row by row in Python floats:
    each row takes multiples of the two rows above it, a few multiply-adds.
    Its pivots stay near the stencils' -2 diagonals, which the h^2 terms
    only couple. A zero pivot, in the core or in the bordered elimination,
    raises SingularSystem; a system that is not finite raises DomainError.
    """
    border_col, border_row, corner = border
    if not (np.all(np.isfinite(bands)) and np.all(np.isfinite(rhs))):
        raise DomainError("finite-difference system is not finite")
    # rows of U (pivot, the entries one and two right) with both eliminated
    # right-hand sides; the two rows above row 0 are zero with unit pivots
    rows = []
    p2, a2, b2, y2, s2 = p1, a1, b1, y1, s1 = 1.0, 0.0, 0.0, 0.0, 0.0
    try:
        for e, c, d, a, b, y, s in zip(*bands.tolist(), rhs[:-1].tolist(), border_col.tolist()):
            l2 = e / p2
            l1 = (c - l2 * a2) / p1
            row = (d - l2 * b2 - l1 * a1, a - l1 * b1, b,
                   y - l2 * y2 - l1 * y1, s - l2 * s2 - l1 * s1)
            rows.append(row)
            p2, a2, b2, y2, s2 = p1, a1, b1, y1, s1
            p1, a1, b1, y1, s1 = row
        z, w = [], []
        z1 = z2 = w1 = w2 = 0.0
        for p, a, b, y, s in reversed(rows):
            z1, z2 = (y - a * z1 - b * z2) / p, z1
            w1, w2 = (s - a * w1 - b * w2) / p, w1
            z.append(z1)
            w.append(w1)
    except ZeroDivisionError:
        raise SingularSystem("banded elimination hit a zero pivot") from None
    z = np.array(z[::-1])
    w = np.array(w[::-1])
    denom = corner - border_row @ w
    if abs(denom) < 1e-14:
        raise SingularSystem("bordered elimination hit a zero pivot")
    u_last = (rhs[-1] - border_row @ z) / denom
    return np.append(z - u_last * w, u_last)


def _fd_residual(u, v, load, weights):
    """The system's rows at (u, v), for the load at the interior nodes.

    Second differences are taken nested, as differences of first
    differences, so neighbouring values subtract exactly; the row sum
    u_- - 2u + u_+ would round at eps |u|, which the inverse operator
    (~n^2) amplifies. The slope rows are differences of neighbours for the
    same reason.
    """
    h2 = (1.0 / (len(u) - 1)) ** 2
    r = np.empty(2 * len(u))
    r[0] = v[0]
    r[1] = 2.0 * (u[1] - u[0]) - h2 * v[1]
    r[2:-2:2] = np.diff(v, 2) + h2 * load
    r[3:-2:2] = np.diff(u, 2) - h2 * v[1:-1]
    r[-2] = 2.0 * (u[-1] - u[-2]) + h2 * v[-2]
    r[-1] = u[0] - weights @ u
    return r
