"""Green's function of the clamped-slope beam problem and the nonlocal kernel.

For u''''(t) + y(t) = 0 with u'(0) = u'(1) = u''(0) = 0 and
u(0) = integral_0^1 a(s) u(s) ds, the solution is

    u(t) = integral_0^1 [ G(t, s) + W(s) ] y(s) ds,

with the triangular Green's function G and the t-independent nonlocal
weight W(s) = (1/(1-alpha)) integral_0^1 a(tau) G(tau, s) dtau,
alpha = integral_0^1 a. This module evaluates G and its envelopes, and
it is the one place the integral condition enters: it owns the window
that alpha must lie in and the nonlocal sum that gives both W and the
constant the condition adds to a Green's integral.
"""

from __future__ import annotations

import numpy as np

from .errors import HypothesisViolation, OutOfDomain
from .expressions import Expression
from .quadrature import Quadrature, _sample

# rows that a dense evaluation computes at once (verify's kernel sweep,
# green.csv, the Nystrom matrix, the Newton-start scan's radii), so that its
# temporaries are a few ROW_BLOCK x M arrays, not M x M ones
ROW_BLOCK = 64

# 1 - alpha divides the nonlocal sum, and quadrature rounding can land an
# inadmissible weight a hair inside the open window (0, 1)
ALPHA_MARGIN = 1e-12


def _check_alpha(alpha: float) -> float:
    """alpha, if 1/(1 - alpha) may scale the nonlocal weight: raises
    HypothesisViolation unless 0 <= alpha < 1 - ALPHA_MARGIN (a zero a passes)."""
    if not 0.0 <= alpha < 1.0 - ALPHA_MARGIN:
        raise HypothesisViolation(f"alpha = {alpha} outside [0, 1 - {ALPHA_MARGIN})")
    return alpha


def _nonlocal_sum(a, q: Quadrature, g):
    """sum_i a(s_i) w_i g[i] / (1 - alpha) over the rule's nodes s_i, with
    alpha = sum_i a(s_i) w_i on the same rule.

    With g[i] = G(s_i, s) this is W(s). With g[i] = (Gy)(s_i) it is the
    constant c that makes u = Gy + c meet u(0) = integral a u, since
    G(0, s) = 0. Raises HypothesisViolation unless 0 <= alpha < 1.
    """
    avals = _sample(a, q.nodes)
    alpha = _check_alpha(float(np.dot(q.weights, avals)))
    return (avals * q.weights) @ g / (1.0 - alpha)


def green(t, s):
    """G(t, s), piecewise cubic with the kink on the diagonal s = t.

    Accepts scalars or broadcastable arrays; on the diagonal both branch
    formulas agree. Raises OutOfDomain off the unit square.
    """
    t = np.asarray(t)
    s = np.asarray(s)
    if np.any(t < 0) or np.any(t > 1) or np.any(s < 0) or np.any(s > 1):
        raise OutOfDomain("green(t, s) requires 0 <= t, s <= 1")
    g = t**3 * (1.0 - s) ** 2
    g -= np.where(s <= t, (t - s) ** 3, 0.0)
    g /= 6.0
    return g if g.ndim else float(g)


def upper_envelope(s):
    """s(1-s)^2 / 6, the uniform upper bound on G(., s)."""
    s = np.asarray(s)
    v = s * (1.0 - s) ** 2 / 6.0
    return v if v.ndim else float(v)


def lower_envelope(t, s):
    """rho(t) s(1-s)^2 with rho(t) = min(t^3, t^2(1-t))/6, the uniform lower
    bound on G.

    rho rises on [0, 2/3] and rho(1 - theta) >= rho(theta) for theta < 1/2,
    so on a strip theta <= t <= 1 - theta rho is least at t = theta, where
    it is theta^3/6: lower_envelope(theta, s) is G's floor on the strip.
    Raises OutOfDomain unless 0 <= t <= 1.
    """
    t = np.asarray(t)
    s = np.asarray(s)
    if np.any(t < 0) or np.any(t > 1):
        raise OutOfDomain("lower_envelope(t, s) requires 0 <= t <= 1")
    v = np.minimum(t**3, t**2 * (1.0 - t)) / 6.0 * s * (1.0 - s) ** 2
    return v if v.ndim else float(v)


def kernel_weight(s, a: Expression, q: Quadrature):
    """Nonlocal weight W(s) = (1/(1-alpha)) integral a(tau) G(tau, s) dtau
    on the rule q. A zero a (alpha = 0, W = 0) is admitted."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    w = _nonlocal_sum(a, q, green(q.nodes[:, None], s_arr[None, :]))
    return w if np.ndim(s) else float(w[0])
