"""Problem setup, hypothesis validation, and growth classification.

The existence proof (Krasnosel'skii's theorem on a cone) needs two
radii: r, where f is small enough that the operator compresses the cone,
and R, where f is large enough that it expands it. A compression radius
below an expansion radius is the superlinear case, the reverse is the
sublinear case; either one guarantees a positive solution between them.
make_problem searches f's sample for such a pair (the certificate), against
the sharp thresholds epsilon_max and delta_min that the proof requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, HypothesisViolation, InvalidConfig, Overflow
from .expressions import Expression, parse
from .kernel import ALPHA_MARGIN, _check_alpha
from .quadrature import Quadrature, default_quadrature, integrate, integrate_on

# the witness grid: GRID_DENSITY samples per decade on [GRID_LO, GRID_HI]
GRID_DENSITY = 8
GRID_LO, GRID_HI = 1e-150, 1e150
# f's one sample adds F_SAMPLES points of [0, F_SAMPLE_MAX] to it (_f_grid)
F_SAMPLE_MAX, F_SAMPLES = 1e3, 10_000


@dataclass(frozen=True)
class ConeConstants:
    """Moments of the boundary weight a and the derived cone ratio.

    alpha = integral_0^1 a, beta = integral over the inner strip
    [theta, 1-theta], gamma = theta^3 (1 - alpha + beta): every
    nonnegative forcing produces a solution whose minimum on the strip
    dominates gamma times its sup norm.
    """

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: float


@dataclass(frozen=True)
class Problem:
    """A nonlinearity f(u), a boundary weight a(t), a strip parameter theta,
    the cone constants, the quadrature all integrals use, and what
    make_problem derives from them: the hypothesis violations (empty when
    f and a meet the hypotheses) and the certificate (None where its
    thresholds are undefined). Immutable after construction."""

    f: Expression
    a: Expression
    theta: float
    cone: ConeConstants
    quad: Quadrature
    violations: tuple
    certificate: Optional[Certificate]


def check_theta(theta: float) -> None:
    """Raises InvalidConfig unless 0 < theta < 1/2. The one check of the
    strip parameter, for the library and for config files alike."""
    if not 0.0 < theta < 0.5:
        raise InvalidConfig(f"theta must lie in (0, 1/2), got {theta}")


def make_problem(f, a, theta: float = 0.25, quad: Optional[Quadrature] = None) -> Problem:
    """Assemble a Problem from expressions or expression text.

    The cone constants (not held to alpha's window, nan where a is not
    finite at a node of the rule), f's one sample on _f_grid, and from them
    the violations, as data, and the certificate are computed here, once.
    A problem without a certificate always has a violation.
    """
    if isinstance(f, str):
        f = parse(f, "u")
    if isinstance(a, str):
        a = parse(a, "t")
    check_theta(theta)
    quad = quad if quad is not None else default_quadrature()
    try:
        alpha, beta = integrate(a, quad), integrate_on(a, theta, 1.0 - theta, quad)
    except DomainError:
        alpha = beta = np.nan
    cone = ConeConstants(alpha, beta, theta**3 * (1.0 - alpha + beta))
    us, fu, failure = _finite_samples(f, _f_grid()[0])
    on_log = _f_grid()[1][:us.size]
    cert = _certificate(cone, theta, us[on_log], fu[on_log])
    found = _violations(us, fu, failure, a, cone.alpha)
    if cert is None and not found:
        message = f"gamma = {cone.gamma} at theta = {theta} leaves delta_min undefined"
        found.append(Violation("gamma-range", message, cone.gamma))
    return Problem(f, a, theta, cone, quad, tuple(found), cert)


def _violations(us, fu, failure, a, alpha) -> list:
    """The violations that f's sample and a dense sample of a on [0, 1] show,
    the testable surrogate of the hypotheses (continuity cannot be tested).
    An overflow ends f's sampled range, since f may be continuous past the
    float range; an invalid operation, a division by zero and f < 0 (at its
    smallest u) are violations."""
    found = []
    if failure is not None and not isinstance(failure, Overflow):
        at = float(_f_grid()[0][us.size])
        found.append(Violation("f-domain", f"f is not finite at u = {at}: {failure}", at))
    if np.any(fu < 0.0):
        i = int(np.argmax(fu < 0.0))
        found.append(Violation("f-negative", f"f({us.item(i)}) = {fu.item(i)} < 0", us.item(i)))
    ts = np.linspace(0.0, 1.0, 2001)
    try:
        av = np.asarray(a(ts))
        if np.isnan(alpha):
            # make_problem met a not finite at a node of the rule, off this grid
            raise DomainError("not finite at a quadrature node")
        if np.any(av < 0.0):
            at = float(ts[int(np.argmin(av))])
            found.append(Violation("a-negative", f"a({at}) = {float(np.min(av))} < 0", at))
    except DomainError as exc:
        found.append(Violation("a-domain", f"a is not finite on [0, 1]: {exc}", np.nan))
    if not np.isnan(alpha) and not ALPHA_MARGIN < alpha < 1.0 - ALPHA_MARGIN:
        message = f"integral of a is {alpha}, outside the admissible window (0, 1)"
        found.append(Violation("alpha-range", message, alpha))
    return found


SUPERLINEAR = "superlinear"
SUBLINEAR = "sublinear"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Certificate:
    """Sharp proof constants and a sampled Krasnosel'skii witness.

    epsilon_max = 6(1-alpha) is the reciprocal of the kernel's upper bound
    1/(6(1-alpha)); delta_min is the smallest linear growth that the kernel's
    floor on the strip [theta, 1-theta] turns into expansion,
    36(1-alpha) / [gamma^2 (1-2 theta)(1/2+theta-theta^2)].
    The witness is two radii (Guo & Lakshmikantham, Nonlinear Problems in
    Abstract Cones, 1988; Erbe & Wang, Proc. AMS 120 (1994) 743-748):

    * r, compression: f(u) <= epsilon_max r for 0 <= u <= r. For u in the
      cone with ||u|| = r this bounds Au by r, so ||Au|| <= ||u||.
    * R, expansion: f(u) >= delta_min u for gamma R <= u <= R. A u in the
      cone with ||u|| = R stays above gamma R on the strip, so f(u) >=
      delta_min gamma R there and the strip floor gives ||Au|| >= ||u||.

    A fixed point lies in the annulus between them: r < R is the
    superlinear case, R < r the sublinear one, and without a pair the
    label is indeterminate (r and R are None). Both radii are points of
    log_grid; the inequalities are checked at its samples only. top is the
    largest sample where f is finite, None if f fails at the smallest.
    """

    classification: str
    epsilon_max: float
    delta_min: float
    r: Optional[float]
    R: Optional[float]
    top: Optional[float]

    @property
    def span(self) -> Optional[tuple]:
        """(lo, hi): the witness annulus, or f's finite sampled range
        without a witness; None when f is finite at no sample."""
        if self.r is not None:
            return min(self.r, self.R), max(self.r, self.R)
        return None if self.top is None else (GRID_LO, self.top)


def log_grid(lo: float, hi: float) -> np.ndarray:
    """GRID_DENSITY points per decade from lo to hi, both included."""
    return np.geomspace(lo, hi, int(round(GRID_DENSITY * np.log10(hi / lo))) + 1)


def _certificate(cone: ConeConstants, theta: float, us, fu) -> Optional[Certificate]:
    """Evaluate the sharp proof thresholds and search for a witness pair.

    us and fu are the log_grid(GRID_LO, GRID_HI) points of f's sample, which
    ends where f stops being finite. The pair is the lowest annulus on the
    grid: the largest compression radius below the first expansion radius,
    or the largest expansion radius below the first compression radius.
    None where the thresholds are undefined: alpha outside [0, 1) (as
    build_operator requires), gamma <= 0, or delta_min not finite.
    """
    try:
        epsilon_max = 6.0 * (1.0 - _check_alpha(cone.alpha))
    except HypothesisViolation:
        return None
    shell = (1.0 - 2.0 * theta) * (0.5 + theta - theta**2)
    with np.errstate(over="ignore", divide="ignore"):
        # delta_min is inf below theta ~ 1e-51; above it, delta_min u may overflow
        delta_min = float(np.divide(36.0 * (1.0 - cone.alpha), cone.gamma**2 * shell))
        if not (cone.gamma > 0.0 and np.isfinite(delta_min)):
            return None
        short = fu < delta_min * us
    compress = np.flatnonzero(np.maximum.accumulate(fu) <= epsilon_max * us)
    # samples k - width .. k cover [gamma u_k, u_k]; count failures in that window
    width = int(np.ceil(GRID_DENSITY * np.log10(1.0 / cone.gamma)))
    failures = np.concatenate(([0], np.cumsum(short)))
    ks = np.arange(width, us.size)
    expand = ks[failures[ks + 1] == failures[ks - width]]
    label, r, R = INDETERMINATE, None, None
    if compress.size and expand.size:
        if compress[0] < expand[0]:
            label, i, j = SUPERLINEAR, compress[compress < expand[0]][-1], expand[0]
        else:
            label, i, j = SUBLINEAR, compress[0], expand[expand < compress[0]][-1]
        r, R = float(us[i]), float(us[j])
    top = float(us[-1]) if us.size else None
    return Certificate(label, epsilon_max, delta_min, r, R, top)


@lru_cache(maxsize=None)
def _f_grid() -> tuple:
    """log_grid(GRID_LO, GRID_HI) and F_SAMPLES points of [0, F_SAMPLE_MAX],
    sorted into one grid, and the mask of its log-grid points; both read-only."""
    grid = np.concatenate((np.linspace(0.0, F_SAMPLE_MAX, F_SAMPLES), log_grid(GRID_LO, GRID_HI)))
    order = np.argsort(grid, kind="stable")
    grid, on_log = grid[order], order >= F_SAMPLES
    grid.flags.writeable = on_log.flags.writeable = False
    return grid, on_log


def _finite_samples(f: Expression, us: np.ndarray) -> tuple:
    """(us[:k], f(us[:k]), failure) for the largest k at which f is finite:
    one call when f is finite on all of us, a bisection on k otherwise.
    failure is the DomainError f raises at us[k], None if k = us.size."""
    good, bad, values, failure = 0, us.size + 1, np.empty(0), None
    # f is finite on us[:good] and not on us[:bad], so the last failure
    # is the one at us[bad - 1], the only failing sample in us[:bad]
    while bad - good > 1:
        mid = us.size if bad > us.size else (good + bad) // 2
        try:
            values, good = np.asarray(f(us[:mid]), dtype=float), mid
        except DomainError as exc:
            bad, failure = mid, exc
    return us[:good], values, failure
