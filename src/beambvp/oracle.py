"""Independent verification paths for the linear and nonlinear problems.

Two ways to solve u'''' + y = 0 with u'(0) = u'(1) = u''(0) = 0 and
u(0) = integral a u:

* formula_solve_linear evaluates the closed-form kernel representation,
  splitting the Green's integral at the kernel's diagonal kink so smooth
  forcings are integrated at full rule accuracy;
* fd_solve_linear discretizes the differential equation directly on a
  uniform grid and never touches the kernel. It works in mixed form,
  u'' = v and v'' = -y, with 3-point interior stencils, one-sided
  second-order slopes at both ends and trapezoid weights in the nonlocal
  row. Its residual cancels only to O(h^2 u''), so double precision
  suffices at every grid the oracle is used on.

Disagreement between the two exposes a bug in either. fd_solve_nonlinear
extends the second path to u'''' + f(u) = 0 by Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, SingularSystem
from .expressions import Expression
from .kernel import _nonlocal_sum, green
from .quadrature import Quadrature, _sample
from .solver import DiscreteFunction

# fd_solve_nonlinear's Newton stops once a step moves u by at most
# FD_TOL max(1, ||u||), and gives up after FD_MAX_ITER steps
FD_TOL = 1e-10
FD_MAX_ITER = 100


def formula_solve_linear(y, a: Expression, q: Quadrature, eval_nodes) -> DiscreteFunction:
    """Closed-form solution u(t) = (Gy)(t) + c, (Gy)(t) = integral G(t, s) y(s) ds.

    The s-integral is split at s = t (the kernel is polynomial on each
    side), so polynomial forcings are resolved to near machine precision.
    Since G(0, s) = 0, the nonlocal condition u(0) = integral a u makes c
    the constant integral a(s) (Gy)(s) ds / (1 - alpha); Gy is smooth, so
    the rule integrates it without a split. Raises HypothesisViolation
    when alpha is outside the window that 1/(1 - alpha) admits.
    """
    ts = np.atleast_1d(np.asarray(eval_nodes, dtype=float))
    # Gy at the evaluation points and at the rule's nodes, from the rule
    # mapped onto [0, t] and [t, 1]: lo and width have shape (T, 2, 1)
    t = np.concatenate([ts, q.nodes])[:, None, None]
    lo = np.concatenate([np.zeros_like(t), t], axis=1)
    width = np.concatenate([t, 1.0 - t], axis=1)
    s = lo + width * q.nodes
    gy = green(t, s) * _sample(y, s.ravel()).reshape(s.shape)
    if not np.all(np.isfinite(gy)):
        raise DomainError("integrand is not finite at a quadrature node")
    green_part = np.sum(width[:, :, 0] * (gy @ q.weights), axis=1)
    nonlocal_term = _nonlocal_sum(a, q, green_part[len(ts):])
    return DiscreteFunction(ts, green_part[:len(ts)] + nonlocal_term)


@dataclass
class FDSolution(DiscreteFunction):
    """Grid solution carrying the Newton convergence record."""

    converged: bool = True
    iterations: int = 0


# Unknowns u_i and v_i = u''(t_i) are interleaved, x[2i] = u_i and
# x[2i + 1] = v_i, and row k of the system goes with unknown k. An
# interior node's u-row holds u'' - v = 0 and its v-row v'' + f(u) = 0,
# both 3-point and scaled by h^2. The end nodes' rows hold u'(0) = 0 and
# v(0) = 0, then u'(1) = 0 (both slopes one-sided, second order) and the
# dense nonlocal row u(0) = trapezoid(a u). The bordered solve eliminates
# that last row and the column of u_{n-1}, leaving a core banded with 4
# sub- and 4 super-diagonals. A v_{n-1} border would leave the core
# singular: without the nonlocal row, constant u solves it.
_LOWER = _UPPER = 4


def fd_solve_linear(y, a: Expression, n: int) -> DiscreteFunction:
    """Direct finite-difference solution of the linear problem: one step
    from zero on the mixed system, with y as the load."""
    grid, weights, bands, border = _fd_setup(a, n)
    zero = np.zeros(n)
    x = _bordered_solve(bands, border, -_fd_residual(zero, zero, _sample(y, grid[1:-1]), weights))
    return DiscreteFunction(grid, x[0::2])


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
        jacobian[_UPPER + 1, 2:-2:2] += h2 * df(u[1:-1])
        step = _bordered_solve(jacobian, border, -_fd_residual(u, v, f(u[1:-1]), weights))
        u = u + step[0::2]
        v = v + step[1::2]
        if float(np.max(np.abs(step[0::2]))) <= FD_TOL * max(1.0, float(np.max(np.abs(u)))):
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

    ui = 2 * np.arange(1, n - 1)   # u-rows and u-columns of interior nodes
    vi = ui + 1
    last = 2 * n - 2               # u_{n-1}
    ones = np.ones(n - 2)
    rows = np.concatenate([[0, 0, 0, 1], ui, ui, ui, ui, vi, vi, vi, [last] * 3])
    cols = np.concatenate([[0, 2, 4, 1], ui - 2, ui, ui + 2, vi,
                           vi - 2, vi, vi + 2, [last - 4, last - 2, last]])
    vals = np.concatenate([[-3.0, 4.0, -1.0, 1.0], ones, -2.0 * ones, ones, -h * h * ones,
                           ones, -2.0 * ones, ones, [1.0, -4.0, 3.0]])
    border = cols == last
    cols[cols == last + 1] = last  # v_{n-1} is the core's last column
    bands = np.zeros((_LOWER + _UPPER + 1, last + 1))
    bands[_UPPER + rows[~border] - cols[~border], cols[~border]] = vals[~border]
    border_col = np.zeros(last + 1)
    border_col[rows[border]] = vals[border]
    border_row = np.zeros(last + 1)
    border_row[0:last:2] = -weights[:-1]
    border_row[0] += 1.0
    return grid, weights, bands, (border_col, border_row, -weights[-1])


def _bordered_solve(bands, border, rhs):
    """x solving the system for rhs: the banded core is solved for rhs
    and for the border column at once, then the nonlocal row eliminated.

    scipy is imported here, not at module level: only the oracle needs
    it, and loading scipy.linalg would dominate the start-up of every
    solve or classify process.
    """
    from scipy.linalg import solve_banded

    border_col, border_row, corner = border
    try:
        z, w = solve_banded((_LOWER, _UPPER), bands,
                            np.column_stack([rhs[:-1], border_col])).T
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"banded factorization failed: {exc}") from exc
    denom = corner - border_row @ w
    if abs(denom) < 1e-14:
        raise SingularSystem("bordered elimination hit a zero pivot")
    u_last = (rhs[-1] - border_row @ z) / denom
    x = np.append(z - u_last * w, u_last)
    x[[-2, -1]] = x[[-1, -2]]      # back to x's order: u_{n-1}, v_{n-1}
    return x


def _fd_residual(u, v, load, weights):
    """The system's rows at (u, v), for the load at the interior nodes.

    Second differences are taken nested, as differences of first
    differences, so neighbouring values subtract exactly; the row sum
    u_- - 2u + u_+ would round at eps |u|, which the inverse operator
    (~n^2) amplifies.
    """
    h2 = (1.0 / (len(u) - 1)) ** 2
    r = np.empty(2 * len(u))
    r[0] = -3.0 * u[0] + 4.0 * u[1] - u[2]
    r[1] = v[0]
    r[2:-2:2] = np.diff(u, 2) - h2 * v[1:-1]
    r[3:-2:2] = np.diff(v, 2) + h2 * load
    r[-2] = u[-3] - 4.0 * u[-2] + 3.0 * u[-1]
    r[-1] = u[0] - weights @ u
    return r
