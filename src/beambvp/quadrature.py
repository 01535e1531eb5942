"""Composite quadrature rules on [0, 1].

Every integral in the package (the boundary-weight moments, the kernel
weight, the integral operator itself) funnels through these rules. The
same node set doubles as the collocation grid of the integral-operator
discretization, so kernel matrices stay square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, InvalidRange

SIMPSON = "composite-simpson"
GAUSS_LEGENDRE = "composite-gauss-legendre"

_RULE_ALIASES = {
    "simpson": SIMPSON,
    SIMPSON: SIMPSON,
    "gauss": GAUSS_LEGENDRE,
    "gauss-legendre": GAUSS_LEGENDRE,
    GAUSS_LEGENDRE: GAUSS_LEGENDRE,
}


@dataclass(frozen=True)
class Quadrature:
    """Nodes and positive weights of a composite rule on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: str
    panels: int

    @property
    def npoints(self) -> int:
        return len(self.nodes)

    @property
    def points_per_panel(self) -> int:
        # Simpson panels share their end nodes
        if self.rule == SIMPSON:
            return (self.npoints - 1) // self.panels + 1
        return self.npoints // self.panels


def make_quadrature(rule: str = GAUSS_LEGENDRE, panels: int = 8,
                    points_per_panel: int = 4) -> Quadrature:
    """Build a composite rule with `panels` equal panels on [0, 1].

    Simpson panels need an odd points_per_panel >= 3 and share endpoint
    nodes; Gauss-Legendre supports 2..10 points per panel, all interior.
    """
    canonical = _RULE_ALIASES.get(rule)
    if canonical is None:
        raise InvalidConfig(f"unsupported quadrature rule {rule!r}")
    if panels < 1:
        raise InvalidConfig("panels must be >= 1")
    if canonical is SIMPSON:
        if points_per_panel < 3 or points_per_panel % 2 == 0:
            raise InvalidConfig("Simpson needs an odd points_per_panel >= 3")
        nodes, weights = _composite_simpson(panels, points_per_panel)
    else:
        if not 2 <= points_per_panel <= 10:
            raise InvalidConfig("Gauss-Legendre supports 2..10 points per panel")
        nodes, weights = _composite_gauss(panels, points_per_panel)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Quadrature(nodes, weights, canonical, panels)


def default_quadrature() -> Quadrature:
    """The package default: Gauss-Legendre, 8 panels x 4 points."""
    return make_quadrature(GAUSS_LEGENDRE, 8, 4)


def _composite_simpson(panels, ppp):
    total = panels * (ppp - 1) + 1
    nodes = np.linspace(0.0, 1.0, total)
    weights = np.zeros(total)
    pattern = np.ones(ppp)
    pattern[1:-1:2] = 4.0
    pattern[2:-1:2] = 2.0
    step = 1.0 / (panels * (ppp - 1))
    for p in range(panels):
        lo = p * (ppp - 1)
        weights[lo:lo + ppp] += pattern * (step / 3.0)
    return nodes, weights


def _composite_gauss(panels, ppp):
    x, w = np.polynomial.legendre.leggauss(ppp)
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
