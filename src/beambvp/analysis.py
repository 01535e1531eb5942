"""Problem setup, hypothesis validation, and growth classification.

The existence theory distinguishes nonlinearities by the limits of
f(u)/u at 0+ and at infinity: both-sided crossing (zero at the origin,
divergent at infinity) is the superlinear case, the reverse is the
sublinear case. Either one guarantees a positive solution; the
thresholds epsilon_max and delta_min are the sharp constants that the
corresponding proof requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, HypothesisViolation, InvalidConfig
from .expressions import Expression, parse
from .quadrature import Quadrature, default_quadrature, integrate, integrate_on

DIVERGENCE_CUTOFF = 1e6
# decades per rung that f(u)/u must gain at the ladder's end to diverge
# below the cutoff: u^p gains |p - 1|, u log u about 0.06 near u = 1e8
DIVERGENCE_SLOPE = 0.05
STABLE_SPREAD = 1e-3
NEAR_ZERO = 1e-3
# 1 - alpha divides the kernel weight, and quadrature rounding can land an
# inadmissible weight a hair inside the open window (0, 1)
ALPHA_MARGIN = 1e-12


def _check_alpha(alpha: float) -> float:
    """alpha, if 1/(1 - alpha) may scale the nonlocal weight: raises
    HypothesisViolation unless 0 <= alpha < 1 - ALPHA_MARGIN (a zero a passes)."""
    if not 0.0 <= alpha < 1.0 - ALPHA_MARGIN:
        raise HypothesisViolation(f"alpha = {alpha} outside [0, 1 - {ALPHA_MARGIN})")
    return alpha


@dataclass(frozen=True)
class ConeConstants:
    """Moments of the boundary weight a and the derived cone ratio.

    alpha = integral_0^1 a, beta = integral over the inner strip
    [theta, 1-theta], gamma = theta^3 (1 - alpha + beta): every
    nonnegative forcing produces a solution whose minimum on the strip
    dominates gamma times its sup norm.
    """

    theta: float
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class Problem:
    """A nonlinearity f(u), a boundary weight a(t), a strip parameter
    theta, the derived cone constants, and the quadrature all integrals
    use. Immutable after construction."""

    f: Expression
    a: Expression
    theta: float
    cone: ConeConstants
    quad: Quadrature


def make_problem(f, a, theta: float = 0.25, quad: Optional[Quadrature] = None) -> Problem:
    """Assemble a Problem from expressions or expression text.

    The cone constants are computed here without enforcing the
    admissibility window on alpha, so that validate_hypotheses can report
    violations as data instead of refusing to construct the problem.
    """
    if isinstance(f, str):
        f = parse(f, "u")
    if isinstance(a, str):
        a = parse(a, "t")
    if not 0.0 < theta < 0.5:
        raise InvalidConfig(f"theta must lie in (0, 1/2), got {theta}")
    quad = quad if quad is not None else default_quadrature()
    alpha = integrate(a, quad)
    beta = integrate_on(a, theta, 1.0 - theta, quad)
    cone = ConeConstants(theta, alpha, beta, theta**3 * (1.0 - alpha + beta))
    return Problem(f, a, theta, cone, quad)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_hypotheses(problem: Problem, u_max: float = 1e3,
                        n_samples: int = 10_000) -> ValidationReport:
    """Sample-based admissibility check.

    Continuity cannot be tested numerically; dense sampling of f on
    [0, u_max] and of a on [0, 1] is the testable surrogate. Violations
    are returned as data, never raised.
    """
    if u_max <= 0 or n_samples < 2:
        raise InvalidConfig("u_max must be positive and n_samples >= 2")
    found = []
    us = np.linspace(0.0, u_max, n_samples)
    try:
        fv = np.asarray(problem.f(us))
        if np.any(fv < 0.0):
            at = float(us[int(np.argmin(fv))])
            found.append(Violation("f-negative", f"f({at}) = {float(np.min(fv))} < 0", at))
    except DomainError as exc:
        found.append(Violation("f-domain", f"f is not finite on [0, {u_max}]: {exc}", np.nan))
    ts = np.linspace(0.0, 1.0, min(n_samples, 2001))
    try:
        av = np.asarray(problem.a(ts))
        if np.any(av < 0.0):
            at = float(ts[int(np.argmin(av))])
            found.append(Violation("a-negative", f"a({at}) = {float(np.min(av))} < 0", at))
    except DomainError as exc:
        found.append(Violation("a-domain", f"a is not finite on [0, 1]: {exc}", np.nan))
    alpha = problem.cone.alpha
    if not ALPHA_MARGIN < alpha < 1.0 - ALPHA_MARGIN:
        found.append(Violation(
            "alpha-range",
            f"integral of a is {alpha}, outside the admissible window (0, 1)",
            alpha,
        ))
    return ValidationReport(tuple(found))


@dataclass(frozen=True)
class GrowthEstimate:
    """Numerical estimate of lim f(u)/u along a geometric ladder.

    kind is "finite" or "divergent"; value carries the extrapolated limit
    when finite. samples holds the (u, f(u)/u) pairs actually used, so a
    wide, unstabilized tail stays visible to callers.
    """

    kind: str
    value: Optional[float]
    samples: tuple = field(repr=False, default=())

    @property
    def tail_spread(self) -> float:
        ratios = [r for _, r in self.samples[-3:]]
        if len(ratios) < 2:
            return float("inf")
        scale = max(1.0, abs(ratios[-1]))
        return (max(ratios) - min(ratios)) / scale

    @property
    def tail_decreasing(self) -> bool:
        ratios = [r for _, r in self.samples]
        return all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios, ratios[1:]))

    @property
    def stable(self) -> bool:
        """True when the tail has settled: either a tight relative spread,
        or a monotone decay toward zero (which never tightens in relative
        terms but pins the limit just as well)."""
        if self.kind != "finite":
            return False
        return self.tail_spread < STABLE_SPREAD or (
            self.tail_decreasing and abs(self.value) <= NEAR_ZERO)


def _growth_limit(f: Expression, ladder) -> GrowthEstimate:
    samples = []
    for u in ladder:
        try:
            ratio = f(u) / u
        except DomainError:
            # overflow past a divergent tail is still divergence
            if _divergent([r for _, r in samples]):
                return GrowthEstimate("divergent", None, tuple(samples))
            raise
        samples.append((float(u), float(ratio)))
    ratios = [r for _, r in samples]
    if _divergent(ratios):
        return GrowthEstimate("divergent", None, tuple(samples))
    # first-order Richardson step on the final rung pair of the 10x ladder
    value = (10.0 * ratios[-1] - ratios[-2]) / 9.0
    return GrowthEstimate("finite", float(value), tuple(samples))


def _divergent(ratios) -> bool:
    """f(u)/u increases along the whole 10x ladder and either ends past
    DIVERGENCE_CUTOFF or gains at least DIVERGENCE_SLOPE decades on each
    of its last two rungs. The slope test catches the power laws that stay
    below the cutoff on the ladder (u^1.5 ends at 1e4); a ratio that levels
    off only beyond the last rung reads as divergent."""
    if len(ratios) < 2 or not _increasing(ratios):
        return False
    tail = ratios[-3:]
    return ratios[-1] > DIVERGENCE_CUTOFF or (tail[0] > 0.0 and all(
        np.log10(b / a) >= DIVERGENCE_SLOPE for a, b in zip(tail, tail[1:])))


def _increasing(ratios):
    return all(b >= a * (1.0 - 1e-12) for a, b in zip(ratios, ratios[1:]))


def estimate_f0(f: Expression) -> GrowthEstimate:
    """Estimate lim_{u -> 0+} f(u)/u on the ladder 1e-1 .. 1e-8."""
    return _growth_limit(f, [10.0**-k for k in range(1, 9)])


def estimate_finf(f: Expression) -> GrowthEstimate:
    """Estimate lim_{u -> inf} f(u)/u on the ladder 1e1 .. 1e8."""
    return _growth_limit(f, [10.0**k for k in range(1, 9)])


SUPERLINEAR = "superlinear"
SUBLINEAR = "sublinear"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Certificate:
    """Existence-threshold constants for a given problem.

    epsilon_max = 6(1-alpha) is the largest linear-growth bound usable
    near zero; delta_min is the smallest usable near infinity,
    36(1-alpha) / [theta^6 (1-alpha+beta)^2 (1-2 theta)(1/2+theta-theta^2)].
    """

    classification: str
    epsilon_max: float
    delta_min: float
    f0: GrowthEstimate
    finf: GrowthEstimate


def certificate(problem: Problem) -> Certificate:
    """Classify the nonlinearity and evaluate the sharp proof thresholds."""
    f0 = estimate_f0(problem.f)
    finf = estimate_finf(problem.f)
    cone = problem.cone
    theta = cone.theta
    epsilon_max = 6.0 * (1.0 - cone.alpha)
    shell = (1.0 - 2.0 * theta) * (0.5 + theta - theta**2)
    delta_min = 36.0 * (1.0 - cone.alpha) / (
        theta**6 * (1.0 - cone.alpha + cone.beta) ** 2 * shell
    )
    if _near_zero(f0) and finf.kind == "divergent":
        label = SUPERLINEAR
    elif f0.kind == "divergent" and _near_zero(finf):
        label = SUBLINEAR
    else:
        label = INDETERMINATE
    return Certificate(label, epsilon_max, delta_min, f0, finf)


def _near_zero(est: GrowthEstimate) -> bool:
    return est.kind == "finite" and est.stable and abs(est.value) <= NEAR_ZERO
