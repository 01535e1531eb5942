"""Collocation discretization of the nonlocal integral operator and
fixed-point solvers.

The operator  (Au)(t) = integral_0^1 [G(t,s) + W(s)] f(u(s)) ds  is
discretized by replacing the integral with the quadrature rule and
collocating at its nodes (Nystrom). Positive fixed points of the
resulting finite map are located by damped Picard iteration and by a
damped Newton method, whose starts solve_auto reads off the operator.

Each solve ends with one a-posteriori error estimate of the returned
solution (Atkinson, The Numerical Solution of Integral Equations of the
Second Kind, 1997, sec. 4.2). The natural interpolant
u_I(t) = sum_j [G(t, s_j) + W(s_j)] w_j f(u_j) is fed to the operator
discretized by the same rule with twice the panels, A'; the defect
max |A'[u_I] - u_I| at the refined nodes estimates the distance to the
true solution in solution units. The interpolant and the refined sum are
one routine, _green_sum, on two rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Problem, _check_alpha
from .errors import DomainError, InvalidConfig, OutOfDomain, SingularJacobian
from .kernel import green
from .quadrature import Quadrature, make_quadrature

OVERFLOW_GUARD = 1e12
POSITIVITY_TOL = 1e-6
CONE_SLACK = 1e-10
# Picard's start and damping: where it stops within tol sets a solution's last digits
PICARD_START = 0.1
PICARD_OMEGA = 0.8


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


def build_operator(problem: Problem) -> NystromOperator:
    """Assemble the collocation matrix on the problem's quadrature.

    The weight column W(s_j) = sum_i a(s_i) w_i G(s_i, s_j) / (1 - alpha)
    comes from the same Green's matrix and the same rule as alpha, so the
    discrete operator inherits the continuous positivity structure exactly.
    """
    q = problem.quad
    gmat = green(q.nodes[:, None], q.nodes[None, :])
    alpha = _check_alpha(problem.cone.alpha)
    w_col = (np.asarray(problem.a(q.nodes)) * q.weights) @ gmat / (1.0 - alpha)
    kmat = (gmat + w_col[None, :]) * q.weights[None, :]
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


def solve_auto(problem: Problem, tol: float = 1e-10, max_iter: int = 500) -> SolveReport:
    """Search for a nontrivial positive fixed point.

    Runs damped Picard once from the constant PICARD_START, then Newton
    from each start that _cone_starts reads off the operator. Returns the
    first converged positive report (see _finish_report); otherwise the
    first converged one, flagged not-positive. Failure is reported, never
    raised. Only the returned report gets an error_estimate.
    """
    op = build_operator(problem)

    def attempt(run, u0, **kwargs):
        # a start that drives f out of its domain is a failed attempt,
        # not an exception; existence says nothing about iterability
        try:
            return run(op, u0, tol=tol, max_iter=max_iter, **kwargs)
        except DomainError:
            return SolveReport(u0, op, False, 0, np.inf, False, run.__name__, False, True)

    def attempts():
        yield attempt(picard, constant_start(op, PICARD_START), omega=PICARD_OMEGA)
        yield from (attempt(newton, u0) for u0 in _cone_starts(op))

    tried = []
    for report in attempts():
        if report.converged and report.positive:
            break
        tried.append(report)
    else:
        report = next((r for r in tried if r.converged), tried[-1])
    try:
        report.error_estimate = np.inf if report.diverged else residuals(report.solution, problem)
    except DomainError:
        report.error_estimate = np.inf
    return report


def _cone_starts(op: NystromOperator) -> list:
    """Newton starts c v, v = K1 / max K1 (the response to a uniform load, in the cone).

    A fixed point lies between a radius where A compresses and one where it
    expands (Krasnosel'skii; Guo & Lakshmikantham, Nonlinear Problems in
    Abstract Cones, 1988). log rho(c) = log(max A(c v) / c) is scanned on
    c = 10^k, k = -8 .. 8, up to the first c where f fails. Each sign change
    gives a start at its log-linear root (Newton's basin spans about a factor
    2 in c); without one, the start is the c of least |log rho|.
    """
    kmat, f = op.kmatrix, op.problem.f
    v = kmat.sum(axis=1)
    v = v / np.max(v)
    decades, logs = range(-8, 9), []
    for k in decades:
        try:
            rho = float(np.max(kmat @ f(10.0**k * v))) / 10.0**k
        except DomainError:
            break
        # rho = 0, where f vanishes on the ray, is the strongest compression
        logs.append(np.log(max(rho, np.finfo(float).tiny)))
    roots = [k + lo / (lo - hi) for k, lo, hi in zip(decades, logs, logs[1:])
             if (lo < 0.0) != (hi < 0.0)]
    if not roots and logs:
        roots = [decades[int(np.argmin(np.abs(logs)))]]
    return [DiscreteFunction(op.quad.nodes.copy(), 10.0**r * v) for r in roots]


def _fd_derivative(f, u):
    """Central-difference f'(u) with magnitude-scaled step."""
    h = np.maximum(1e-6, 1e-6 * np.abs(u))
    try:
        return (f(u + h) - f(u - h)) / (2.0 * h)
    except DomainError:
        return (f(u + h) - f(u)) / h


def _finish_report(op, sol, converged, iterations, fp, method, diverged):
    """A solution is positive when it is nontrivial (sup >= POSITIVITY_TOL),
    nonnegative up to POSITIVITY_TOL * max(1, sup), and in the cone."""
    sup = sol.sup_norm()
    in_cone = cone_gap(sol, op.problem, sol) >= -CONE_SLACK
    nonnegative = float(np.min(sol.values)) >= -POSITIVITY_TOL * max(1.0, sup)
    positive = sup >= POSITIVITY_TOL and nonnegative and in_cone
    return SolveReport(sol, op, converged, iterations, fp, in_cone, method,
                       positive, diverged)


def cone_gap(v: DiscreteFunction, problem: Problem, u: DiscreteFunction) -> float:
    """min of v = Au on the strip [theta, 1-theta] minus gamma sup|v|; the cone
    holds v when this is nonnegative. A strip without nodes is sampled on u's
    natural interpolant, which extends Au off the nodes (u = v at a fixed point)."""
    theta = problem.theta
    inside = (v.nodes >= theta) & (v.nodes <= 1.0 - theta)
    if np.any(inside):
        strip_min = float(np.min(v.values[inside]))
    else:
        # a strip this narrow holds no collocation node; sample the
        # extension instead
        strip_min = float(np.min(interpolate(u, problem, np.linspace(theta, 1.0 - theta, 9))))
    return strip_min - problem.cone.gamma * v.sup_norm()


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
    return float(np.max(np.abs(_green_sum(problem, fine, problem.f(u_fine), fine.nodes) - u_fine)))


def interpolate(u: DiscreteFunction, problem: Problem, ts) -> np.ndarray:
    """Natural interpolation u(t) = sum_j [G(t, s_j) + W(s_j)] w_j f(u_j).

    Raises OutOfDomain for t outside [0, 1].
    """
    return _green_sum(problem, problem.quad, problem.f(u.values), ts)


def _green_sum(problem: Problem, q: Quadrature, g, ts) -> np.ndarray:
    """sum_j [G(t, s_j) + W(s_j)] w_j g_j at ts on the rule q, in O((N + T) log N).

    With G(t, s) = [t^3 (1-s)^2 - (t-s)_+^3] / 6 and the rule's sorted
    nodes, the sum over s_j <= t expands into prefix sums of the moments
    s^p w g, p = 0..3; searchsorted finds each prefix. Since G(0, s) = 0
    the nonlocal part is one constant: the a-weighted sum of the Green's
    part over the rule's own nodes, divided by 1 - alpha.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0) or np.any(ts > 1):
        raise OutOfDomain("interpolation points must lie in [0, 1]")
    s, wg = q.nodes, q.weights * g
    m0, m1, m2, m3 = (np.concatenate(([0.0], np.cumsum(wg * s**p))) for p in range(4))
    # the Green's part at the evaluation points, then at the nodes
    t = np.concatenate([ts.ravel(), s])
    k = np.searchsorted(s, t, side="right")
    hump = t**3 * m0[k] - 3.0 * t**2 * m1[k] + 3.0 * t * m2[k] - m3[k]
    green_part = (t**3 * np.dot(wg, (1.0 - s) ** 2) - hump) / 6.0
    avals = np.asarray(problem.a(s))
    alpha = _check_alpha(float(np.dot(q.weights, avals)))
    const = np.dot(avals * q.weights, green_part[ts.size:]) / (1.0 - alpha)
    return np.reshape(green_part[:ts.size] + const, ts.shape)
