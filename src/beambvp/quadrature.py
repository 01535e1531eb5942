"""The composite Gauss-Legendre rule on [0, 1].

Every integral in the package (the boundary-weight moments, the kernel
weight, the integral operator itself) funnels through this rule. The
same node set doubles as the collocation grid of the integral-operator
discretization, so kernel matrices stay square, and its panels carry the
interpolants that the operator's product weights integrate; check_rule
admits only the point counts at which that operator is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidConfig, InvalidRange

GAUSS_LEGENDRE = "composite-gauss-legendre"

# points per panel at which the product-integration operator (kernel.nystrom_matrix)
# is entrywise nonnegative, as the continuous kernel is; at 3, 5 and 7 to 10
# points it has negative entries
ADMISSIBLE_POINTS = (2, 4, 6)

# the rule of default_quadrature and RunConfig by default
PANELS, POINTS = 8, 4


@dataclass(frozen=True)
class Quadrature:
    """Nodes and positive weights of a composite Gauss-Legendre rule on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    panels: int

    @property
    def npoints(self) -> int:
        return len(self.nodes)

    @property
    def points_per_panel(self) -> int:
        return self.npoints // self.panels


def check_rule(panels: int, points_per_panel: int) -> None:
    """Raises InvalidConfig unless panels >= 1 and the points per panel are
    admissible (ADMISSIBLE_POINTS). The one admissibility check, for the
    library and for config files alike."""
    if panels < 1:
        raise InvalidConfig(f"panels must be >= 1, got {panels}")
    if points_per_panel not in ADMISSIBLE_POINTS:
        raise InvalidConfig(
            f"points per panel must be 2, 4 or 6, got {points_per_panel}: at other "
            "counts the product-integration operator has negative entries")


def make_quadrature(panels: int, points_per_panel: int) -> Quadrature:
    """Composite Gauss-Legendre with `panels` equal panels on [0, 1] and
    2, 4 or 6 points per panel, all interior (check_rule)."""
    check_rule(panels, points_per_panel)
    nodes, weights = _composite_gauss(panels, points_per_panel)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Quadrature(nodes, weights, panels)


def default_quadrature() -> Quadrature:
    """The package default: PANELS panels x POINTS points."""
    return make_quadrature(PANELS, POINTS)


# Gauss-Legendre nodes and weights on [-1, 1] at each admissible point count:
# the doubles that numpy.polynomial.legendre.leggauss returns, kept as a table
# because importing numpy.polynomial for them costs about 1 MiB of RSS
_GAUSS_LEGENDRE = {
    2: ((-0.5773502691896257, 0.5773502691896257),
        (1.0, 1.0)),
    4: ((-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526),
        (0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357)),
    6: ((-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
}


@lru_cache(maxsize=None)
def _reference_rule(points_per_panel: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1] for an admissible point
    count, as read-only arrays."""
    x, w = (np.array(v) for v in _GAUSS_LEGENDRE[points_per_panel])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _composite_gauss(panels, ppp):
    x, w = _reference_rule(ppp)
    width = 1.0 / panels
    offsets = np.arange(panels)[:, None] * width
    nodes = (offsets + (x[None, :] + 1.0) * (width / 2.0)).ravel()
    weights = np.broadcast_to(w * (width / 2.0), (panels, ppp)).ravel().copy()
    return nodes, weights


def _sample(g, points):
    """g at an array of points in one call, as floats broadcast to the
    points' shape (a constant g may return a scalar)."""
    return np.broadcast_to(np.asarray(g(points), dtype=float), points.shape)


def integrate(g, q: Quadrature) -> float:
    """Weighted sum of g over the rule's nodes."""
    return integrate_on(g, 0.0, 1.0, q)


def integrate_on(g, lo: float, hi: float, q: Quadrature) -> float:
    """Integral of g over [lo, hi] in [0, 1] via the affinely mapped rule."""
    if lo > hi:
        raise InvalidRange(f"empty range: lo={lo} > hi={hi}")
    if lo < 0.0 or hi > 1.0:
        raise InvalidRange(f"range [{lo}, {hi}] leaves [0, 1]")
    width = hi - lo
    if width == 0.0:
        return 0.0
    values = _sample(g, lo + width * q.nodes)
    if not np.all(np.isfinite(values)):
        raise DomainError("integrand is not finite at a quadrature node")
    return width * float(np.dot(q.weights, values))
