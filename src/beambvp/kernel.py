"""Green's function of the clamped-slope beam problem and the nonlocal kernel.

For u''''(t) + y(t) = 0 with u'(0) = u'(1) = u''(0) = 0 and
u(0) = integral_0^1 a(s) u(s) ds, the solution is

    u(t) = integral_0^1 [ G(t, s) + W(s) ] y(s) ds,

with the triangular Green's function G and the t-independent nonlocal
weight W(s) = (1/(1-alpha)) integral_0^1 a(tau) G(tau, s) dtau,
alpha = integral_0^1 a. This module evaluates G, its envelopes on [0, 1],
and the product weights that integrate G exactly against each panel's
interpolant, with their one sum (green_sum for a load or a block of
loads, nystrom_matrix for unit loads). It is the one place the integral condition enters: it owns
the window that alpha must lie in and the nonlocal sum that gives both W
and the constant the condition adds to a Green's integral.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import HypothesisViolation, OutOfDomain
from .expressions import Expression
from .quadrature import Quadrature, _sample, _reference_rule

# rows that a dense evaluation computes at once (verify's kernel sweep,
# green.csv, the Newton-start scan's radii), so that its temporaries are a
# few ROW_BLOCK x M arrays, not M x M ones; the Nystrom matrix is built by
# columns, ROW_BLOCK // 4 unit loads at a time (nystrom_matrix)
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


def _unit(x, name: str):
    """x as an array; raises OutOfDomain, naming the caller, off [0, 1] or at a nan."""
    x = np.asarray(x)
    if not np.all((0 <= x) & (x <= 1)):
        raise OutOfDomain(f"{name} takes points in [0, 1] only")
    return x


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


def green(t, s, out=None, work=None):
    """G(t, s), piecewise cubic with the kink on the diagonal s = t.

    Accepts scalars or broadcastable arrays; on the diagonal both branch
    formulas agree. Raises OutOfDomain off the unit square, or at a nan.

    [t^3 (1-s)^2 - (t-s)_+^3] / 6, built in place in two arrays: the clamp
    d = max(t - s, 0) in work, its cube d d d in out, then t t t (1-s)^2 in
    work, and their difference over 6 in out. fl(t - s) > 0 exactly where
    s < t, so the clamp is the branch on s < t bit for bit (on the diagonal
    the cube is 0 either way), and both cubes are products formed alike, so
    G(t, 0) = 0 exactly. There is no pow and no mask: two products cube as
    accurately as pow, which is slow on small bases.

    out, a float array of the broadcast shape, receives G and is returned;
    work, another, is overwritten. Either may be a view, such as a row
    slice of a larger buffer, and without them both arrays are fresh. G is
    the same bit for bit either way.
    """
    t, s = _unit(t, "green"), _unit(s, "green")
    shape = np.broadcast_shapes(t.shape, s.shape)
    d = np.subtract(t, s, out=np.empty(shape) if work is None else work)
    np.maximum(d, 0.0, out=d)
    g = np.multiply(d, d, out=np.empty(shape) if out is None else out)
    g *= d
    r = 1.0 - s
    np.multiply(t * t * t, r * r, out=d)
    np.subtract(d, g, out=g)
    g /= 6.0
    return g if g.ndim else float(g)


def upper_envelope(s):
    """s(1-s)^2 / 6, the uniform upper bound on G(., s); OutOfDomain off [0, 1]."""
    s = _unit(s, "upper_envelope")
    v = s * (1.0 - s) ** 2 / 6.0
    return v if v.ndim else float(v)


def lower_envelope(t, s, out=None):
    """rho(t) s(1-s)^2 with rho(t) = min(t^3, t^2(1-t))/6, the uniform lower
    bound on G.

    rho rises on [0, 2/3] and rho(1 - theta) >= rho(theta) for theta < 1/2,
    so on a strip theta <= t <= 1 - theta rho is least at t = theta, where
    it is theta^3/6: lower_envelope(theta, s) is G's floor on the strip.
    Raises OutOfDomain off the unit square, or at a nan. out, a float
    array of the broadcast shape (a view is fine), receives the result and
    is returned; without it the result is a fresh array, the same bit for
    bit.
    """
    t, s = _unit(t, "lower_envelope"), _unit(s, "lower_envelope")
    shape = np.broadcast_shapes(t.shape, s.shape)
    v = np.multiply(np.minimum(t**3, t**2 * (1.0 - t)) / 6.0, s,
                    out=np.empty(shape) if out is None else out)
    v *= (1.0 - s) ** 2
    return v if v.ndim else float(v)


@lru_cache(maxsize=16)
def _panel_moments(points: int, panels: int):
    """Moments of the Lagrange bases of the composite points-point Gauss rule.

    moments[m, j] = integral of s^m l_j(s) over node j's panel, m = 0..3.
    kink[r] holds the coefficients, in xi^0 .. xi^(p+3), of
    integral_{-1}^{xi} (xi - x)^3 l_r(x) dx on the reference panel [-1, 1],
    which expands into the partial moments integral_{-1}^{xi} x^m l_r(x) dx,
    m = 0..3, each a polynomial in xi. Cached per rule, read-only.
    """
    x, _ = _reference_rule(points)
    # l_r(x) = sum_n basis[n, r] x^n on [-1, 1]
    basis = np.linalg.inv(np.vander(x, points, increasing=True))
    partial = np.zeros((4, points, points + 4))
    for m in range(4):
        for n in range(points):
            e = m + n + 1
            partial[m, :, e] += basis[n] / e
            partial[m, :, 0] -= basis[n] * (-1.0) ** e / e
    kink = np.zeros((points, points + 4))
    for m in range(4):
        # C(3, m) (-1)^m xi^(3-m) times the m-th partial moment
        kink[:, 3 - m:] += (1, -3, 3, -1)[m] * partial[m, :, :points + 1 + m]
    # s = c + h x / 2 on a panel with centre c: expand s^m about c
    half = 0.5 / panels
    centre = np.repeat((np.arange(panels) + 0.5) / panels, points)
    scaled = np.tile(partial.sum(axis=2), panels) * half ** np.arange(1, 5)[:, None]
    moments = np.array([sum(comb(m, n) * centre ** (m - n) * scaled[n] for n in range(m + 1))
                        for m in range(4)])
    for array in (moments, kink):
        array.setflags(write=False)
    return moments, kink


def product_weights(q: Quadrature, ts):
    """The moments behind rule q's product-integration weights at the points ts.

    On each panel of q the p nodes carry the Lagrange basis l_j, and the
    product-integration rule (Atkinson, The Numerical Solution of Integral
    Equations of the Second Kind, 1997, sec. 4.2) weighs node j by
    integral G(t, s) l_j(s) ds over its panel. G(t, .) is a cubic on each
    side of s = t, so every such weight is a sum of moments of l_j:

    * moments[m, j] = integral of s^m l_j(s) over panel(j), m = 0..3, the
      whole-panel moments, for panels that lie wholly below t;
    * panel[i], the panel that holds ts[i], and kink[i, r] = integral of
      (t_i - s)^3 l_r(s) over [lo, t_i] on that panel, its r-th node:
      partial moments, which are polynomials in t_i.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    p, panels = q.points_per_panel, q.panels
    moments, kink_poly = _panel_moments(p, panels)
    panel = np.minimum((ts * panels).astype(int), panels - 1)
    xi = 2.0 * (ts * panels - panel) - 1.0
    kink = (0.5 / panels) ** 4 * (np.vander(xi, p + 4, increasing=True) @ kink_poly.T)
    return moments, panel, kink


def nystrom_matrix(a: Expression, q: Quadrature) -> np.ndarray:
    """K[i, j] = integral G(t_i, s) l_j(s) ds + W_j at the rule q's nodes t_i,
    with l_j node j's Lagrange basis and W that of the weight a: _green_part
    for unit loads, ROW_BLOCK // 4 columns at a time, plus each column's
    nonlocal sum. At 2, 4 and 6 points per panel every entry is nonnegative."""
    n = q.npoints
    weights = product_weights(q, q.nodes)
    width = ROW_BLOCK // 4
    kmat = np.empty((n, n))
    for start in range(0, n, width):
        units = np.eye(n, min(width, n - start), -start)
        kmat[:, start:start + width] = _green_part(q, q.nodes, weights, units)
    kmat += _nonlocal_sum(a, q, kmat)[None, :]
    return kmat


def green_sum(a: Expression, q: Quadrature, g, ts) -> np.ndarray:
    """sum_j [integral G(t, s) l_j(s) ds + W_j] g_j at ts on the rule q, W
    that of the weight a: nystrom_matrix's weights, in O((N + T) p) per load.

    g is one load on the rule's nodes, or an N x C block of loads, one per
    column; the result has shape ts.shape, or ts.shape + (C,) for a block.
    The Green's part is _green_part's; since G(0, s) = 0 the nonlocal part is
    one constant per load, the nonlocal sum of the Green's part at the
    rule's nodes. Raises OutOfDomain for ts off [0, 1] or nan.
    """
    ts = _unit(np.asarray(ts, dtype=float), "green_sum")
    # the Green's part at the evaluation points, then at the nodes
    t = np.concatenate([ts.ravel(), q.nodes])
    green_part = _green_part(q, t, product_weights(q, t), g)
    const = _nonlocal_sum(a, q, green_part[ts.size:])
    return np.reshape(green_part[:ts.size] + const, ts.shape + np.shape(const))


def _green_part(q: Quadrature, t: np.ndarray, weights, g) -> np.ndarray:
    """sum_j integral G(t, s) l_j(s) ds g_j at the points t, for one load g on
    the rule q's nodes or an N x C block of loads, one per column; weights
    is product_weights(q, t). O((N + T) p) per load.

    With G(t, s) = [t^3 (1-s)^2 - (t-s)_+^3] / 6, the hump (t-s)_+^3 over
    the panels wholly below t expands into prefix sums, over panels, of the
    whole-panel moments of g, and the panel that holds t adds its partial
    moments (product_weights).
    """
    moments, panel, kink = weights
    # loads along the last axis: a block's rows are summed as one load is
    g = np.asarray(g, dtype=float).T
    lead = g.shape[:-1]
    per_panel = np.cumsum((moments * g[..., None, :]).reshape(*lead, 4, q.panels, -1).sum(axis=-1),
                          axis=-1)
    below = np.concatenate([np.zeros((*lead, 4, 1)), per_panel], axis=-1)[..., panel]
    m0, m1, m2, m3 = np.moveaxis(below, -2, 0)
    t2 = t * t
    hump = (t2 * t * m0 - 3.0 * t2 * m1 + 3.0 * t * m2 - m3
            + np.sum(kink * g.reshape(*lead, q.panels, -1)[..., panel, :], axis=-1))
    # t^3 (1-s)^2 is a quadratic in s, which the plain weights integrate exactly
    return ((t2 * t * np.dot(q.weights * g, (1.0 - q.nodes) ** 2)[..., None] - hump) / 6.0).T


def kernel_weight(s, a: Expression, q: Quadrature):
    """Nonlocal weight W(s) = (1/(1-alpha)) integral a(tau) G(tau, s) dtau
    on the rule q. A zero a (alpha = 0, W = 0) is admitted."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    w = _nonlocal_sum(a, q, green(q.nodes[:, None], s_arr[None, :]))
    return w if np.ndim(s) else float(w[0])
