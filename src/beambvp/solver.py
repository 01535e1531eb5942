"""Collocation discretization of the nonlocal integral operator and
fixed-point solvers.

The operator  (Au)(t) = integral_0^1 [G(t,s) + W(s)] f(u(s)) ds  is
discretized by replacing the integral with the quadrature rule and
collocating at its nodes (Nystrom). Positive fixed points of the
resulting finite map are located by damped Picard iteration and by a
damped Newton method, with multi-start orchestration in solve_auto.

Each solve ends with one a-posteriori error estimate of the returned
solution (Atkinson, The Numerical Solution of Integral Equations of the
Second Kind, 1997, sec. 4.2). The natural interpolant
u_I(t) = sum_j [G(t, s_j) + W(s_j)] w_j f(u_j) is fed to the operator
discretized by the same rule with twice the panels, A'; the defect
max |A'[u_I] - u_I| at the refined nodes estimates the distance to the
true solution in solution units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import Problem
from .errors import DomainError, InvalidConfig, SingularJacobian
from .kernel import green, kernel_weight
from .quadrature import Quadrature, integrate, make_quadrature

OVERFLOW_GUARD = 1e12
POSITIVITY_TOL = 1e-6
CONE_SLACK = 1e-10


@dataclass
class DiscreteFunction:
    """A grid function: node locations in [0, 1] and values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.shape != self.values.shape:
            raise InvalidConfig("nodes and values must have equal length")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0

    def min_on(self, lo: float, hi: float) -> float:
        mask = (self.nodes >= lo) & (self.nodes <= hi)
        if not np.any(mask):
            raise InvalidConfig(f"no nodes inside [{lo}, {hi}]")
        return float(np.min(self.values[mask]))


@dataclass
class NystromOperator:
    """Dense collocation matrix K[i, j] = (G(t_i, s_j) + W(s_j)) w_j."""

    quad: Quadrature
    kmatrix: np.ndarray
    problem: Problem


@dataclass
class SolveReport:
    """One solver attempt. operator is the discrete operator the solution
    is a fixed point of. error_estimate is nan until solve_auto estimates
    the report it returns (see residuals); inf if that estimate fails."""

    solution: DiscreteFunction
    operator: NystromOperator
    converged: bool
    iterations: int
    fp_residual: float
    in_cone: bool
    method: str
    positive: bool
    diverged: bool = False
    error_estimate: float = np.nan


def build_operator(problem: Problem, quad: Optional[Quadrature] = None) -> NystromOperator:
    """Assemble the collocation matrix on the problem's quadrature.

    The weight column W(s_j) is computed once per node; alpha is taken
    from the same rule so the discrete operator inherits the continuous
    positivity structure exactly.
    """
    q = quad if quad is not None else problem.quad
    alpha = integrate(problem.a, q)
    w_col = np.atleast_1d(kernel_weight(q.nodes, problem.a, alpha, q))
    kmat = (green(q.nodes[:, None], q.nodes[None, :]) + w_col[None, :]) * q.weights[None, :]
    return NystromOperator(q, kmat, problem)


def apply(op: NystromOperator, u: DiscreteFunction) -> DiscreteFunction:
    """One application of the discrete integral operator."""
    if not np.array_equal(u.nodes, op.quad.nodes):
        raise InvalidConfig("grid function does not live on the operator's nodes")
    return DiscreteFunction(op.quad.nodes.copy(), op.kmatrix @ op.problem.f(u.values))


def constant_start(op: NystromOperator, c: float) -> DiscreteFunction:
    return DiscreteFunction(op.quad.nodes.copy(), np.full(op.quad.npoints, float(c)))


def picard(op: NystromOperator, u0: DiscreteFunction, omega: float = 1.0,
           tol: float = 1e-10, max_iter: int = 500) -> SolveReport:
    """Damped successive substitution u <- (1-omega) u + omega Au.

    Stops when the undamped update ||Au - u|| drops below tol (so a
    converged report always satisfies fp_residual <= tol) or when the
    iterate breaches the overflow guard, which sets the diverged flag
    instead of raising.
    """
    if not 0.0 < omega <= 1.0:
        raise InvalidConfig("omega must lie in (0, 1]")
    kmat, f = op.kmatrix, op.problem.f
    u = np.asarray(u0.values, dtype=float).copy()
    converged = diverged = False
    fp = np.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        au = kmat @ f(u)
        fp = float(np.max(np.abs(au - u)))
        if fp <= tol:
            converged = True
            break
        u = (1.0 - omega) * u + omega * au
        if np.max(np.abs(u)) > OVERFLOW_GUARD:
            diverged = True
            break
    if not converged and not diverged:
        fp = float(np.max(np.abs(kmat @ f(u) - u)))
    sol = DiscreteFunction(op.quad.nodes.copy(), u)
    return _finish_report(op, sol, converged, iterations, fp, "picard", diverged)


def newton(op: NystromOperator, u0: DiscreteFunction, tol: float = 1e-10,
           max_iter: int = 500) -> SolveReport:
    """Damped Newton on F(u) = u - Au.

    The Jacobian I - K diag(f'(u)) uses central finite differences for
    f' (step max(1e-6, 1e-6 |u|)); each step is halved until ||F||
    decreases. Raises SingularJacobian if the linear solve fails.
    """
    kmat, f = op.kmatrix, op.problem.f
    n = op.quad.npoints
    u = np.asarray(u0.values, dtype=float).copy()
    converged = diverged = False
    iterations = 0
    fp = float(np.max(np.abs(u - kmat @ f(u))))
    while iterations < max_iter:
        residual = u - kmat @ f(u)
        fp = float(np.max(np.abs(residual)))
        if fp <= tol:
            converged = True
            break
        iterations += 1
        jac = np.eye(n) - kmat * _fd_derivative(f, u)[None, :]
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton linear solve failed: {exc}") from exc
        lam, accepted = 1.0, False
        for _ in range(40):
            try:
                u_try = u + lam * step
                fp_try = float(np.max(np.abs(u_try - kmat @ f(u_try))))
            except DomainError:
                lam *= 0.5
                continue
            if fp_try < fp:
                u, accepted = u_try, True
                break
            lam *= 0.5
        if not accepted:
            break
        if np.max(np.abs(u)) > OVERFLOW_GUARD:
            diverged = True
            break
    if not diverged:
        fp = float(np.max(np.abs(u - kmat @ f(u))))
        converged = fp <= tol
    sol = DiscreteFunction(op.quad.nodes.copy(), u)
    return _finish_report(op, sol, converged, iterations, fp, "newton", diverged)


def solve_auto(problem: Problem, method: str = "auto",
               starts=(0.1, 1.0, 10.0, 100.0), omega: float = 0.8,
               tol: float = 1e-10, max_iter: int = 500,
               positivity_tol: float = POSITIVITY_TOL) -> SolveReport:
    """Multi-start search for a nontrivial positive fixed point.

    Runs Picard from each constant start and falls back to Newton when
    Picard stalls, diverges, or lands on the trivial solution. Returns
    the first converged report with ||u|| above the positivity threshold;
    if only the trivial fixed point is found it is returned flagged
    not-positive. Failure is reported, never raised. Only the returned
    report gets an error_estimate.
    """
    if method not in ("auto", "picard", "newton"):
        raise InvalidConfig(f"unknown method {method!r}")
    op = build_operator(problem)

    def attempt(run, *args, **kwargs):
        # a start that drives f out of its domain is a failed attempt,
        # not an exception; existence says nothing about iterability
        try:
            return run(op, *args, **kwargs)
        except DomainError:
            return SolveReport(args[0], op, False, 0, np.inf, False, run.__name__,
                               False, True)

    def attempts():
        for c in starts:
            u0 = constant_start(op, c)
            picard_final = None
            if method in ("auto", "picard"):
                report = attempt(picard, u0, omega=omega, tol=tol, max_iter=max_iter)
                yield report
                picard_final = report.solution
            if method in ("auto", "newton"):
                yield attempt(newton, u0, tol=tol, max_iter=max_iter)
                if (method == "auto" and picard_final is not None
                        and 0.0 < picard_final.sup_norm() < OVERFLOW_GUARD):
                    yield attempt(newton, picard_final, tol=tol, max_iter=max_iter)

    tried = []
    for report in attempts():
        if report.converged and report.solution.sup_norm() >= positivity_tol:
            break
        tried.append(report)
    else:
        report = next((r for r in tried if r.converged), tried[-1])
    try:
        report.error_estimate = np.inf if report.diverged else residuals(report.solution, problem)
    except DomainError:
        report.error_estimate = np.inf
    return report


def _fd_derivative(f, u):
    """Central-difference f'(u) with magnitude-scaled step."""
    h = np.maximum(1e-6, 1e-6 * np.abs(u))
    try:
        return (f(u + h) - f(u - h)) / (2.0 * h)
    except DomainError:
        return (f(u + h) - f(u)) / h


def _finish_report(op, sol, converged, iterations, fp, method, diverged):
    problem = op.problem
    sup = sol.sup_norm()
    positive = sup >= POSITIVITY_TOL
    theta = problem.theta
    inside = (sol.nodes >= theta) & (sol.nodes <= 1.0 - theta)
    if np.any(inside):
        strip_min = float(np.min(sol.values[inside]))
    else:
        # a strip this narrow holds no collocation node; sample the
        # interpolant instead
        strip_min = float(np.min(interpolate(sol, problem,
                                             np.linspace(theta, 1.0 - theta, 9))))
    in_cone = strip_min >= problem.cone.gamma * sup - CONE_SLACK
    return SolveReport(sol, op, converged, iterations, fp, in_cone, method,
                       positive, diverged)


# ---------------------------------------------------------------------------
# a-posteriori error estimate


def residuals(u: DiscreteFunction, problem: Problem) -> float:
    """Error estimate max |A'[u_I](sigma) - u_I(sigma)| of a grid function.

    u_I is the natural interpolant, sigma are the nodes of the problem's
    rule with twice the panels, and A' is the operator discretized on
    that refined rule. The result is in solution units. Raises
    DomainError if f is not finite on the interpolant.
    """
    q = problem.quad
    if not np.array_equal(u.nodes, q.nodes):
        raise InvalidConfig("grid function does not live on the problem's nodes")
    fine = make_quadrature(q.rule, 2 * q.panels, q.points_per_panel)
    u_fine = interpolate(u, problem, fine.nodes)
    return float(np.max(np.abs(_refined_apply(problem, fine, problem.f(u_fine)) - u_fine)))


def _refined_apply(problem: Problem, fine: Quadrature, g) -> np.ndarray:
    """(K g) at the nodes of `fine`, K the dense collocation matrix that
    build_operator(problem, fine) would assemble, in O(M) work.

    With G(t, s) = [t^3 (1-s)^2 - (t-s)_+^3] / 6 and sorted nodes, the sum
    over s_k <= t expands into cumulative moments of s^p w g, p = 0..3;
    the nonlocal part collapses into one constant, the a-weighted integral
    of the Green's part.
    """
    s, wg = fine.nodes, fine.weights * g
    m0, m1, m2, m3 = (np.cumsum(wg * s**p) for p in range(4))
    hump = s**3 * m0 - 3.0 * s**2 * m1 + 3.0 * s * m2 - m3
    green_part = (s**3 * np.dot(wg, (1.0 - s) ** 2) - hump) / 6.0
    alpha = integrate(problem.a, fine)
    return green_part + np.dot(problem.a(s) * fine.weights, green_part) / (1.0 - alpha)


def interpolate(u: DiscreteFunction, problem: Problem, ts) -> np.ndarray:
    """Natural interpolation u(t) = sum_j [G(t, s_j) + W(s_j)] w_j f(u_j).

    The nonlocal part of the kernel does not depend on t, so it collapses
    into one constant equal to the interpolant's value at t = 0.
    """
    q = problem.quad
    coeff = q.weights * problem.f(u.values)
    const = np.dot(kernel_weight(q.nodes, problem.a, problem.cone.alpha, q), coeff)
    ts = np.asarray(ts, dtype=float)
    return np.reshape(green(ts.reshape(-1, 1), q.nodes[None, :]) @ coeff + const, ts.shape)
