"""Collocation discretization of the nonlocal integral operator and
fixed-point solvers.

The operator  (Au)(t) = integral_0^1 [G(t,s) + W(s)] f(u(s)) ds  is
discretized by product integration (Atkinson, The Numerical Solution of
Integral Equations of the Second Kind, 1997, sec. 4.2): f(u) is replaced
by its interpolant on each panel of the quadrature rule, G times that
interpolant is integrated exactly, split at the kink s = t, and the
equation is collocated at the rule's nodes (kernel.nystrom_matrix).
Positive fixed points of that finite map are located by damped Picard
iteration and by damped Newton, whose starts solve_auto reads off it. Both
run in one loop (_iterate), which decides how every attempt ends and
writes its SolveReport; each method supplies only its step.

Each solve ends with one a-posteriori error estimate of the returned
solution. The natural interpolant
u_I(t) = sum_j [integral G(t, s) l_j(s) ds + W_j] f(u_j) is fed to the
operator discretized by the same rule with twice the panels, A'; the
defect max |A'[u_I] - u_I| at the refined nodes estimates the distance
to the true solution in solution units. Both sums are kernel.green_sum.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .analysis import Problem, log_grid
from .errors import DomainError, HypothesisViolation, InvalidConfig, SingularJacobian
from .kernel import ROW_BLOCK, green_sum, nystrom_matrix
from .quadrature import Quadrature, make_quadrature

# an iterate past OVERFLOW_GUARD * max(1, top of the certificate's span) has diverged
OVERFLOW_GUARD = 1e12
# in units of the solution scale s (see _iterate): a solution is nontrivial
# above sup POSITIVITY_TOL s, and nonnegative down to -POSITIVITY_TOL max(s, sup)
POSITIVITY_TOL = 1e-6
CONE_SLACK = 1e-10
# Picard's start and damping: where it stops within tol sets a solution's last digits
PICARD_START = 0.1
PICARD_OMEGA = 0.8
# the stopping tolerance (see _iterate) and the cap on steps per attempt
SOLVE_TOL = 1e-10
MAX_ITER = 500


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
    """Dense collocation matrix K of build_operator; the problem's
    certificate brackets the Newton starts and sets the overflow guard."""

    quad: Quadrature
    kmatrix: np.ndarray
    problem: Problem


@dataclass
class SolveReport:
    """One attempt as _iterate ends it; au is A u at the solution's nodes, nan
    where f is not finite. error_estimate is nan until solve_auto estimates
    the report it returns (see residuals); inf if that estimate fails."""

    solution: DiscreteFunction
    au: np.ndarray
    problem: Problem
    converged: bool
    iterations: int
    fp_residual: float
    in_cone: bool
    method: str
    positive: bool
    nontrivial: bool
    diverged: bool
    error_estimate: float = np.nan

    @property
    def in_annulus(self) -> bool:
        """The solution's sup norm lies between the certificate's witness
        radii, where the existence proof puts a fixed point."""
        cert = self.problem.certificate
        return cert.r is not None and cert.span[0] <= self.solution.sup_norm() <= cert.span[1]


def build_operator(problem: Problem) -> NystromOperator:
    """kernel.nystrom_matrix on the problem's rule. Raises HypothesisViolation
    for alpha outside [0, 1) and for a problem without a certificate."""
    q = problem.quad
    kmatrix = nystrom_matrix(problem.a, q)
    if problem.certificate is None:
        raise HypothesisViolation(f"no certificate: gamma = {problem.cone.gamma}")
    return NystromOperator(q, kmatrix, problem)


def constant_start(op: NystromOperator, c: float) -> DiscreteFunction:
    return DiscreteFunction(op.quad.nodes.copy(), np.full(op.quad.npoints, float(c)))


def picard(op: NystromOperator, u0: DiscreteFunction, omega: float = PICARD_OMEGA,
           tol: float = SOLVE_TOL, max_iter: int = MAX_ITER) -> SolveReport:
    """Damped successive substitution u <- (1-omega) u + omega Au, in the
    loop of _iterate. Raises InvalidConfig for omega outside (0, 1]."""
    if not 0.0 < omega <= 1.0:
        raise InvalidConfig("omega must lie in (0, 1]")

    def step(u, au, fp, evaluate):
        return evaluate((1.0 - omega) * u + omega * au)

    return _iterate(op, u0, step, tol, max_iter, "picard")


def newton(op: NystromOperator, u0: DiscreteFunction, tol: float = SOLVE_TOL,
           max_iter: int = MAX_ITER) -> SolveReport:
    """Damped Newton on F(u) = u - Au, in the loop of _iterate.

    The Jacobian I - K diag(f'(u)) takes f' from f.derivative(). Each step
    is halved until ||F|| decreases, and while it leaves f's domain; a step
    that no halving makes decrease ends the loop. Raises SingularJacobian
    if the linear solve fails.
    """
    kmat, df = op.kmatrix, op.problem.f.derivative()
    eye = np.eye(op.quad.npoints)

    def step(u, au, fp, evaluate):
        try:
            du = np.linalg.solve(eye - kmat * df(u)[None, :], au - u)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton linear solve failed: {exc}") from exc
        lam = 1.0
        for _ in range(40):
            with suppress(DomainError):
                trial = evaluate(u + lam * du)
                if trial[2] < fp:
                    return trial
            lam *= 0.5
        return None

    return _iterate(op, u0, step, tol, max_iter, "newton")


def _iterate(op, u0, step, tol, max_iter, method) -> SolveReport:
    """The fixed-point loop of picard and newton; it writes every SolveReport.

    The loop holds the iterate u, from a copy of u0, with Au and
    fp = sup|Au - u|. step(u, Au, fp, evaluate) returns the next iterate as
    evaluate returns it, or None where it finds none; iterations counts the
    calls to step.

    The loop stops when fp <= tol max(s, sup|u|), after max_iter steps, at
    None, or when sup|u| passes the overflow guard, which sets the diverged
    flag instead of raising. s is the solution scale: the lower end of the
    witness annulus, or 1 without a witness. So tol is absolute, in units
    of s, up to sup|u| = s and relative above, and the floors of the
    stopping rule and of positivity scale with f as the solution does.

    A DomainError from f or f' also ends the loop, diverged (existence says
    nothing about iterability), at the last iterate f was finite on; at a
    start where it is not, with fp inf, Au nan and in_cone false.

    The report's fp is that of its solution. The solution is positive when
    the loop converged and it is nontrivial (sup >= POSITIVITY_TOL s),
    nonnegative down to -POSITIVITY_TOL max(s, sup), and in the cone.
    """
    kmat, f = op.kmatrix, op.problem.f

    def evaluate(u):
        au = kmat @ f(u)
        return u, au, float(np.max(np.abs(au - u)))

    cert = op.problem.certificate
    scale = cert.span[0] if cert.r is not None else 1.0
    guard = OVERFLOW_GUARD * max(1.0, cert.span[1] if cert.span else 0.0)
    u = np.asarray(u0.values, dtype=float).copy()
    au, fp = np.full_like(u, np.nan), np.inf
    iterations, converged = 0, False
    try:
        nxt = evaluate(u)
        while nxt is not None:
            u, au, fp = nxt
            sup = float(np.max(np.abs(u)))
            diverged = sup > guard
            converged = not diverged and fp <= tol * max(scale, sup)
            if converged or diverged or iterations == max_iter:
                break
            iterations += 1
            nxt = step(u, au, fp, evaluate)
    except DomainError:
        diverged = True
    sup = float(np.max(np.abs(u)))
    sol = DiscreteFunction(op.quad.nodes.copy(), u)
    # a start f is not finite on is not in the cone: cone_gap could sample f there again
    in_cone = fp < np.inf and cone_gap(sol, op.problem, sol) >= -CONE_SLACK
    nontrivial = sup >= POSITIVITY_TOL * scale
    nonnegative = float(np.min(u)) >= -POSITIVITY_TOL * max(scale, sup)
    positive = converged and nontrivial and nonnegative and in_cone
    return SolveReport(sol, au, op.problem, converged, iterations, fp, in_cone, method,
                       positive, nontrivial, diverged)


def solve_auto(problem: Problem, tol: float = SOLVE_TOL, max_iter: int = MAX_ITER) -> SolveReport:
    """Search for a nontrivial positive fixed point.

    Runs damped Picard once from the constant PICARD_START, then Newton
    from each start that _cone_starts reads off the operator. Returns the
    first positive report (positive implies converged, see _iterate);
    otherwise the first converged one, flagged not-positive, or the last
    attempt if none converged; only that report gets an error_estimate.
    No positive solution found, however the attempts end, is a report. An
    invalid problem raises: HypothesisViolation (build_operator, alpha
    outside [0, 1), gamma <= 0 or delta_min not finite) or SingularJacobian
    (newton, a failed linear solve).
    """
    op = build_operator(problem)

    def attempts():
        yield picard(op, constant_start(op, PICARD_START), tol=tol, max_iter=max_iter)
        yield from (newton(op, u0, tol=tol, max_iter=max_iter) for u0 in _cone_starts(op))

    tried = []
    for report in attempts():
        if report.positive:
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
    Abstract Cones, 1988). log rho(c) = log(max A(c v) / c) is scanned, in
    blocks of ROW_BLOCK radii, on the certificate's log grid over its span:
    between the witness radii, or over f's finite range without a witness.
    Each sign change gives a start at its log-linear root; without one, the
    start is the c of least |log rho|.
    """
    span = op.problem.certificate.span
    if span is None:
        return []
    kmat, f = op.kmatrix, op.problem.f
    v = kmat.sum(axis=1)
    v = v / np.max(v)
    cs = log_grid(*span)
    try:
        # column k of a block is A(c_k v); a block of radii at a time keeps
        # the scan at N x ROW_BLOCK arrays over up to 2401 radii
        blocks = (cs[i:i + ROW_BLOCK] for i in range(0, cs.size, ROW_BLOCK))
        rho = np.concatenate([np.max(kmat @ f(np.outer(v, c)), axis=0) / c for c in blocks])
    except DomainError:
        return []
    # rho = 0, where f vanishes on the ray, is the strongest compression
    logs, x = np.log(np.maximum(rho, np.finfo(float).tiny)), np.log(cs)
    k = np.flatnonzero((logs[:-1] < 0.0) != (logs[1:] < 0.0))
    if k.size:
        roots = x[k] + (x[k + 1] - x[k]) * logs[k] / (logs[k] - logs[k + 1])
    else:
        roots = x[[np.argmin(np.abs(logs))]]
    return [DiscreteFunction(op.quad.nodes.copy(), np.exp(root) * v) for root in roots]


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
    that refined rule. The result is in solution units. Raises InvalidConfig
    as interpolate does, and DomainError if f is not finite on the interpolant.
    """
    q = problem.quad
    fine = make_quadrature(2 * q.panels, q.points_per_panel)
    u_fine = interpolate(u, problem, fine.nodes)
    return float(np.max(np.abs(green_sum(problem.a, fine, problem.f(u_fine), fine.nodes) - u_fine)))


def interpolate(u: DiscreteFunction, problem: Problem, ts) -> np.ndarray:
    """Natural interpolation u(t) = sum_j [integral G(t, s) l_j(s) ds + W_j] f(u_j)
    (kernel.green_sum), A u at the rule's nodes. Raises OutOfDomain for t
    outside [0, 1] or nan, and InvalidConfig for u off the rule's nodes."""
    if not np.array_equal(u.nodes, problem.quad.nodes):
        raise InvalidConfig("grid function does not live on the problem's nodes")
    return green_sum(problem.a, problem.quad, problem.f(u.values), ts)
