"""Independent verification paths for the linear and nonlinear problems.

Two ways to solve u'''' + y = 0 with u'(0) = u'(1) = u''(0) = 0 and
u(0) = integral a u:

* formula_solve_linear evaluates the closed-form kernel representation,
  splitting the Green's integral at the kernel's diagonal kink so smooth
  forcings are integrated at full rule accuracy;
* fd_solve_linear discretizes the differential equation directly on a
  uniform grid (5-point interior stencil, one-sided second-order
  boundary stencils, trapezoid weights in the nonlocal row) and never
  touches the kernel.

Disagreement between the two exposes a bug in either. fd_solve_nonlinear
extends the second path to u'''' + f(u) = 0 by Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _check_alpha
from .errors import DomainError, InvalidConfig, SingularSystem
from .expressions import Expression
from .kernel import green
from .quadrature import Quadrature, _sample, integrate
from .solver import DiscreteFunction


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
    alpha = _check_alpha(integrate(a, q))
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
    nonlocal_term = np.dot(_sample(a, q.nodes) * q.weights, green_part[len(ts):]) / (1.0 - alpha)
    return DiscreteFunction(ts, green_part[:len(ts)] + nonlocal_term)


@dataclass
class FDSystem:
    """Banded core plus one dense nonlocal row, in scaled form.

    Interior rows hold the raw 5-point stencil (the h^4 factor moves to
    the right-hand side); the last row encodes u(0) = trapezoid(a u).
    """

    n: int
    h: float
    bands: np.ndarray        # (5, n-1) diagonal-ordered core, offsets +2..-2
    border_col: np.ndarray   # column n-1 of the first n-1 rows
    border_row: np.ndarray   # dense last row over columns 0..n-2
    border_diag: float       # A[n-1, n-1]
    rhs: np.ndarray


@dataclass
class FDSolution(DiscreteFunction):
    """Grid solution carrying the Newton convergence record."""

    converged: bool = True
    iterations: int = 0


def build_fd_system(yvals: np.ndarray, avals: np.ndarray, n: int) -> FDSystem:
    """Assemble the linear system for forcing samples y on the uniform grid."""
    if n < 21:
        raise InvalidConfig("finite-difference grid needs n >= 21")
    h = 1.0 / (n - 1)
    m = n - 1
    bands = np.zeros((5, m))
    # offsets: bands[0] -> +2, bands[1] -> +1, bands[2] -> 0, bands[3] -> -1, bands[4] -> -2
    for i in range(2, n - 2):
        _band_set(bands, i, i - 2, 1.0, m)
        _band_set(bands, i, i - 1, -4.0, m)
        _band_set(bands, i, i, 6.0, m)
        _band_set(bands, i, i + 1, -4.0, m)
        _band_set(bands, i, i + 2, 1.0, m)
    # u'(0) = 0 and u''(0) = 0, one-sided second order
    _band_set(bands, 0, 0, -3.0, m)
    _band_set(bands, 0, 1, 4.0, m)
    _band_set(bands, 0, 2, -1.0, m)
    _band_set(bands, 1, 0, 2.0, m)
    _band_set(bands, 1, 1, -5.0, m)
    _band_set(bands, 1, 2, 4.0, m)
    _band_set(bands, 1, 3, -1.0, m)
    # u'(1) = 0, backward second order: 3u_{n-1} - 4u_{n-2} + u_{n-3};
    # the u_{n-1} coefficient lives in the border column
    _band_set(bands, n - 2, n - 3, 1.0, m)
    _band_set(bands, n - 2, n - 2, -4.0, m)

    border_col = np.zeros(m)
    border_col[n - 3] = 1.0   # interior stencil at i = n-3 reaches column n-1
    border_col[n - 2] = 3.0   # u'(1) row
    trapz = np.full(n, h)
    trapz[0] = trapz[-1] = h / 2.0
    dense = -trapz * avals
    dense[0] += 1.0
    border_row = dense[:m]
    border_diag = float(dense[-1])

    rhs = np.zeros(n)
    rhs[2:n - 2] = -h**4 * yvals[2:n - 2]
    return FDSystem(n, h, bands, border_col, border_row, border_diag, rhs)


def _band_set(bands, i, j, value, m):
    if 0 <= j < m:
        bands[2 + i - j, j] = value


def solve_fd_system(system: FDSystem) -> np.ndarray:
    """Bordered solve: factor the banded core, eliminate the dense row.

    scipy is imported here, not at module level: only the oracle needs
    it, and loading scipy.linalg would dominate the start-up of every
    solve or classify process.
    """
    from scipy.linalg import solve_banded

    try:
        z = solve_banded((2, 2), system.bands, system.rhs[:-1])
        w = solve_banded((2, 2), system.bands, system.border_col)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"banded factorization failed: {exc}") from exc
    denom = system.border_diag - system.border_row @ w
    if abs(denom) < 1e-14:
        raise SingularSystem("bordered elimination hit a zero pivot")
    u_last = (system.rhs[-1] - system.border_row @ z) / denom
    return np.concatenate([z - u_last * w, [u_last]])


def fd_solve_linear(y, a: Expression, n: int) -> DiscreteFunction:
    """Direct finite-difference solution of the linear problem."""
    grid = np.linspace(0.0, 1.0, n)
    system = build_fd_system(_sample(y, grid), _sample(a, grid), n)
    return DiscreteFunction(grid, solve_fd_system(system))


def fd_solve_nonlinear(f: Expression, a: Expression, n: int,
                       u0: DiscreteFunction = None, tol: float = 1e-10,
                       max_iter: int = 100) -> FDSolution:
    """Newton iteration on the finite-difference system with y = f(u).

    The Jacobian takes f' from f.derivative(), so a start where f' is not
    finite (sqrt(u) at 0) raises DomainError. The Newton residual is
    assembled in extended precision: the scaled fourth-difference rows sit
    at rounding level once the iterate is close, and the bordered solve
    amplifies that noise by the inverse operator, which stalls plain
    double-precision steps well above tol for large solutions. Convergence
    is declared on the step norm relative to max(1, ||u||).
    Non-convergence after max_iter steps is reported on the returned
    solution, not raised.
    """
    grid = np.linspace(0.0, 1.0, n)
    avals = _sample(a, grid)
    if u0 is None:
        u = np.zeros(n)
    else:
        u = np.interp(grid, u0.nodes, u0.values)
    h = 1.0 / (n - 1)
    system = build_fd_system(np.zeros(n), avals, n)
    df = f.derivative()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        residual = _fd_residual(u, f, avals, n)
        bands = system.bands.copy()
        bands[2, 2:n - 2] += h**4 * df(u)[2:n - 2]
        step_system = FDSystem(n, h, bands, system.border_col, system.border_row,
                               system.border_diag, -residual)
        step = solve_fd_system(step_system)
        u = u + step
        if float(np.max(np.abs(step))) <= tol * max(1.0, float(np.max(np.abs(u)))):
            converged = True
            break
    return FDSolution(grid, u, converged=converged, iterations=iterations)


def _fd_residual(u, f, avals, n):
    """Nonlinear system residual, accumulated in extended precision."""
    ld = np.longdouble
    ul = u.astype(ld)
    h = ld(1) / ld(n - 1)
    fu = np.asarray(f(ul), dtype=ld)
    r = np.zeros(n, dtype=ld)
    r[2:n - 2] = (ul[:n - 4] - 4 * ul[1:n - 3] + 6 * ul[2:n - 2]
                  - 4 * ul[3:n - 1] + ul[4:]) + h**4 * fu[2:n - 2]
    r[0] = -3 * ul[0] + 4 * ul[1] - ul[2]
    r[1] = 2 * ul[0] - 5 * ul[1] + 4 * ul[2] - ul[3]
    r[n - 2] = 3 * ul[n - 1] - 4 * ul[n - 2] + ul[n - 3]
    trapz = np.full(n, h, dtype=ld)
    trapz[0] = trapz[-1] = h / 2
    r[n - 1] = ul[0] - np.dot(trapz * avals.astype(ld), ul)
    return r.astype(float)
