"""The composite Gauss-Legendre rule on [0, 1].

Every integral in the package (the boundary-weight moments, the kernel
weight, the integral operator itself) funnels through this rule. The
same node set doubles as the collocation grid of the integral-operator
discretization, so kernel matrices stay square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, InvalidRange

GAUSS_LEGENDRE = "composite-gauss-legendre"


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


def make_quadrature(panels: int, points_per_panel: int) -> Quadrature:
    """Composite Gauss-Legendre with `panels` equal panels on [0, 1] and
    2..10 points per panel, all interior."""
    if panels < 1:
        raise InvalidConfig("panels must be >= 1")
    if not 2 <= points_per_panel <= 10:
        raise InvalidConfig("Gauss-Legendre supports 2..10 points per panel")
    nodes, weights = _composite_gauss(panels, points_per_panel)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Quadrature(nodes, weights, panels)


def default_quadrature() -> Quadrature:
    """The package default: 8 panels x 4 points."""
    return make_quadrature(8, 4)


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
