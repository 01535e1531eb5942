"""Positive solutions of u'''' + f(u) = 0 with an integral boundary condition.

The boundary value problem

    u''''(t) + f(u(t)) = 0,  t in (0, 1),
    u'(0) = u'(1) = u''(0) = 0,  u(0) = integral_0^1 a(s) u(s) ds,

is recast as a fixed-point equation for an integral operator with an
explicit kernel, discretized by collocation at quadrature nodes, and
solved by damped Picard or Newton iteration. An independent
finite-difference path and a set of kernel-bound property checks guard
the implementation.
"""

from .analysis import Certificate, ConeConstants, Problem, make_problem
from .config import RunConfig
from .errors import (
    BeamBVPError,
    DomainError,
    HypothesisViolation,
    InvalidConfig,
    InvalidRange,
    OutOfDomain,
    Overflow,
    ParseError,
    SingularJacobian,
    SingularSystem,
)
from .expressions import Expression, parse
from .kernel import (
    green,
    kernel_weight,
    lower_envelope,
    upper_envelope,
)
from .oracle import fd_solve_linear, fd_solve_nonlinear
from .quadrature import (
    Quadrature,
    default_quadrature,
    integrate,
    integrate_on,
    make_quadrature,
)
from .solver import (
    DiscreteFunction,
    NystromOperator,
    SolveReport,
    build_operator,
    interpolate,
    newton,
    picard,
    residuals,
    solve_auto,
)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "BeamBVPError", "Certificate", "ConeConstants", "DiscreteFunction",
    "DomainError", "Expression", "HypothesisViolation", "InvalidConfig",
    "InvalidRange", "NystromOperator", "OutOfDomain", "Overflow", "ParseError",
    "Problem", "Quadrature", "RunConfig", "SingularJacobian", "SingularSystem",
    "SolveReport", "build_operator", "default_quadrature",
    "fd_solve_linear", "fd_solve_nonlinear", "green", "integrate",
    "integrate_on", "interpolate", "kernel_weight", "lower_envelope",
    "make_problem", "make_quadrature", "newton", "parse", "picard", "residuals",
    "run_checks", "solve_auto", "upper_envelope",
]
