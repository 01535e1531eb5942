import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beambvp
from beambvp.analysis import make_problem
from beambvp.errors import HypothesisViolation, InvalidConfig, OutOfDomain
from beambvp.expressions import parse
from beambvp.kernel import (
    green,
    green_sum,
    kernel_weight,
    lower_envelope,
    upper_envelope,
)
from beambvp.quadrature import default_quadrature, make_quadrature
from beambvp.verify import GRID_M

A_ZERO = parse("0*t", "t")
A_HALF = parse("0.5", "t")
A_LIN = parse("t", "t")
A_QUAD = parse("t^2", "t")


def test_green_vanishes_on_boundary_lines():
    s = np.linspace(0.0, 1.0, 101)
    assert np.all(green(np.zeros_like(s), s) == 0.0)
    t = np.concatenate([s, np.random.default_rng(11).uniform(0.0, 1.0, 10_000)])
    assert np.all(green(t, 1.0) == 0.0)
    # G(t, 0) = [t^3 - t^3] / 6 cancels only if both cubes round alike; a
    # kernel that forms them differently goes slightly negative there, and
    # W(0) with it
    assert np.all(green(t, 0.0) == 0.0)
    for a in (A_HALF, A_LIN, A_QUAD):
        assert kernel_weight(0.0, a, default_quadrature()) >= 0.0


def _green_as_written(t, s):
    """G as the plain formula: a fresh array for every operation.

    The cube's branch is s < t: on the diagonal it is 0 either way, but at
    t = -0.0, s = 0.0 fl(t - s) is -0.0, whose cube would turn G's -0.0
    into 0.0.
    """
    t, s = np.asarray(t), np.asarray(s)
    g = t * t * t * ((1.0 - s) * (1.0 - s))
    g -= np.where(s < t, (t - s) * (t - s) * (t - s), 0.0)
    g /= 6.0
    return g if g.ndim else float(g)


def _lower_envelope_as_written(t, s):
    t, s = np.asarray(t), np.asarray(s)
    v = np.minimum(t**3, t**2 * (1.0 - t)) / 6.0 * s * (1.0 - s) ** 2
    return v if v.ndim else float(v)


def _kernel_inputs():
    grid = np.linspace(0.0, 1.0, GRID_M)
    nodes = make_quadrature(128, 4).nodes
    rng = np.random.default_rng(3)
    t_rand, s_rand = rng.uniform(0.0, 1.0, (2, 5000))
    edges = np.array([0.0, 1.0])
    return [
        # verify's first, a middle and its last, partial row block
        (grid[:64, None], grid[None, :]), (grid[448:512, None], grid[None, :]),
        (grid[960:, None], grid[None, :]),
        (nodes[:, None], nodes[None, :]),  # the 512-node operator's matrix
        (t_rand, s_rand), (t_rand, t_rand), (t_rand, np.nextafter(t_rand, 1.0)),
        (0.5, 0.3), (0.3, 0.5), (0.5, 0.5), (1, 0), (0.25, grid), (grid[:, None], 0.75),
        (edges[:, None], grid[None, :]), (grid[:, None], edges[None, :]),
        # the clamp's edges: signed zeros, tiny positive differences, blocks
        # wholly above and wholly below the diagonal, and the far corner
        (0.0, -0.0), (-0.0, 0.0), (t_rand, np.nextafter(t_rand, 0.0)),
        (grid[:64, None], grid[None, 500:]), (grid[960:, None], grid[None, :960]),
        (1.0, 1.0),
    ]


@pytest.mark.parametrize("fn, as_written", [(green, _green_as_written),
                                            (lower_envelope, _lower_envelope_as_written)],
                         ids=["green", "lower_envelope"])
def test_in_place_evaluation_matches_the_formula_bit_for_bit(fn, as_written):
    # both build their result in place, with the formula's operations in its order
    for t, s in _kernel_inputs():
        got, expected = fn(t, s), as_written(t, s)
        assert type(got) is type(expected)
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(expected).view(np.int64))


@pytest.mark.parametrize("fn, names", [(green, ("out", "work")), (lower_envelope, ("out",))],
                         ids=["green", "lower_envelope"])
def test_evaluation_into_given_arrays_matches_bit_for_bit(fn, names):
    # verify's sweep passes its buffers whole, or their first rows for the
    # last, partial block: the result is written to out and returned, and
    # nothing outside the given arrays is touched
    for t, s in _kernel_inputs():
        shape = np.broadcast_shapes(np.shape(t), np.shape(s))
        if not shape:
            continue  # a scalar comes back as a float
        expected = fn(t, s)
        for spare in (0, 3):
            store = np.full((len(names), shape[0] + spare, *shape[1:]), np.nan)
            buffers = dict(zip(names, store[:, :shape[0]]))
            got = fn(t, s, **buffers)
            assert got is buffers["out"]
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            assert np.all(np.isnan(store[:, shape[0]:]))


def test_green_calls_no_power():
    # two products cube as accurately as pow, and pow is slow on small bases
    source = ast.parse(inspect.getsource(green))
    for node in ast.walk(source):
        assert not isinstance(node, ast.Pow), f"green cubes with ** (line {node.lineno})"
        assert not (isinstance(node, ast.Attribute) and node.attr in ("power", "float_power"))


def _dyadic(x):
    """(m, k) with x = m / 2^k exactly, as object arrays of Python ints."""
    mantissa, exponent = np.frexp(x)
    return ((mantissa * 2.0**53).astype(np.int64).astype(object),
            (53 - exponent).astype(object))


def test_green_error_against_exact_arithmetic():
    # |G - G_exact| <= 4 eps t^3 (1-s)^2 / 6, G_exact in exact rational
    # arithmetic: every double in [0, 1] is m / 2^k, so the formula's value
    # is an integer over 6 2^(5k). Measured at most 3.18 eps here (2.91 eps
    # with pow's cubes); first-order rounding allows 13 units of roundoff,
    # 6.5 eps. Where t^3 (1-s)^2 = 0 it asks for G = 0 exactly
    rng = np.random.default_rng(29)
    inputs = [*_kernel_inputs(), tuple(rng.uniform(0.0, 1.0, (2, 5000)))]
    pairs = [np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
             for t, s in inputs]
    t, s = (np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))
    (mt, kt), (ms, ks), (mg, kg) = _dyadic(t), _dyadic(s), _dyadic(green(t, s))
    k = np.maximum(kt, ks)
    tk, sk = mt << (k - kt), ms << (k - ks)
    # t^3 (1-s)^2 and 6 G_exact, both times 2^(5k)
    top = tk**3 * ((np.ones_like(k) << k) - sk) ** 2
    exact = top - np.where(sk <= tk, (tk - sk) ** 3 << (2 * k), 0)
    # |6 G - 6 G_exact| 2^(5k + kg) against 4 eps top 2^kg, 4 eps = 2^-50
    error = abs((6 * mg << (5 * k)) - (exact << kg))
    assert np.all((error << 50) <= (top << kg))


@pytest.mark.parametrize("ts", [np.linspace(0.0, 1.0, 201),
                                np.random.default_rng(8).uniform(0.0, 1.0, (7, 9))],
                         ids=["1-D", "2-D"])
@pytest.mark.parametrize("panels, points", [(8, 4), (128, 4)])
def test_green_sum_of_a_block_is_one_sum_per_column(ts, panels, points):
    q = make_quadrature(panels, points)
    loads = np.random.default_rng(12).uniform(0.0, 10.0, (q.npoints, 10))
    for a in (A_LIN, A_QUAD):
        block = green_sum(a, q, loads, ts)
        assert block.shape == ts.shape + (10,)
        columns = [green_sum(a, q, g, ts) for g in loads.T]
        assert all(column.shape == ts.shape for column in columns)
        columns = np.stack(columns, axis=-1)
        # a block sums by matrix products where one load takes dot products,
        # which may add in another order: measured at most 2.4e-15 of the
        # largest value, over rules of 2 to 6 points and up to 128 panels
        assert np.max(np.abs(block - columns)) <= 1e-14 * np.max(np.abs(columns))


def test_green_point_values():
    # direct substitution into the two branches
    assert green(0.5, 0.5) == pytest.approx(0.125 * 0.25 / 6.0, rel=1e-15)
    assert green(1.0, 0.5) == pytest.approx((0.25 - 0.125) / 6.0, rel=1e-15)


def test_green_branches_agree_on_diagonal():
    # G is continuous on the diagonal: s = t against the next double above t
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, 100)
    assert np.max(np.abs(green(t, t) - green(t, np.nextafter(t, 1.0)))) <= 1e-15
    assert np.allclose(green(t, t), t * t * t * (1.0 - t) ** 2 / 6.0, rtol=0, atol=1e-18)


def test_green_out_of_domain():
    # a nan fails every comparison, so it lies outside the square too
    for t, s in [(-0.1, 0.5), (0.5, 1.5), (np.nan, 0.5), (0.5, np.nan),
                 (np.array([0.2, np.nan, 0.7]), 0.4)]:
        with pytest.raises(OutOfDomain):
            green(t, s)
    for t in (2.0, np.nan, np.array([0.2, np.nan])):
        with pytest.raises(OutOfDomain):
            lower_envelope(t, 0.5)


def test_envelopes_out_of_domain():
    # both envelopes share green's check, so s off [0, 1] or nan raises too
    for s in (-0.1, 2.0, np.nan, np.array([0.2, np.nan]), np.array([0.5, 1.5])):
        with pytest.raises(OutOfDomain):
            upper_envelope(s)
        with pytest.raises(OutOfDomain):
            lower_envelope(0.5, s)
    with pytest.raises(OutOfDomain):
        lower_envelope(np.array([0.2, 0.4]), np.array([[0.5], [np.nan]]))


def test_lower_envelope_values():
    # rho(t) = min(t^3, t^2(1-t))/6 times s(1-s)^2, which is 1/8 at s = 1/2
    assert lower_envelope(0.0, 0.5) == 0.0
    assert lower_envelope(0.5, 0.5) == pytest.approx(0.125 / 6.0 / 8.0, rel=1e-15)
    assert lower_envelope(0.25, 0.5) == pytest.approx(0.015625 / 6.0 / 8.0, rel=1e-15)
    t = np.linspace(0.0, 1.0, 401)[:, None]
    s = np.linspace(0.0, 1.0, 401)[None, :]
    rho = np.minimum(t**3, t**2 * (1 - t)) / 6.0
    assert np.allclose(lower_envelope(t, s), rho * s * (1 - s) ** 2, atol=0)


def test_green_nonnegative_and_enveloped():
    t = np.linspace(0.0, 1.0, 401)[:, None]
    s = np.linspace(0.0, 1.0, 401)[None, :]
    g = green(t, s)
    assert g.min() >= -1e-15
    assert np.max(lower_envelope(t, s) - g) <= 1e-14
    assert np.max(g - upper_envelope(s)) <= 1e-14


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_green_strip_floor(theta):
    t = np.linspace(theta, 1.0 - theta, 301)[:, None]
    s = np.linspace(0.0, 1.0, 301)[None, :]
    assert np.max(lower_envelope(theta, s) - green(t, s)) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(2.0**-52, 0.5, exclude_max=True), s=st.floats(0.0, 1.0))
def test_strip_floor_is_the_lower_envelope_at_theta(theta, s):
    # the envelope's t-profile is least over [theta, 1 - theta] at t = theta,
    # where it is theta^3/6. For theta below about 2^-53 the double 1 - theta
    # rounds to 1, where the envelope vanishes, so the grid would leave the strip
    floor = lower_envelope(theta, s)
    assert abs(floor - theta**3 / 6.0 * s * (1.0 - s) ** 2) <= 4 * np.spacing(floor)
    t = np.linspace(theta, 1.0 - theta, 201)
    assert np.all(lower_envelope(t, s) >= floor)


def test_green_triangle_floor():
    t = np.linspace(0.0, 1.0, 301)[:, None]
    s = np.linspace(0.0, 1.0, 301)[None, :]
    g = green(t, s)
    floor = np.where(s <= t, s * (t - s) ** 2 / 6.0, -np.inf)
    assert np.max(floor - g) <= 1e-14


def test_kernel_weight_zero_weight_function():
    q = default_quadrature()
    s = np.linspace(0.0, 1.0, 11)
    assert np.all(kernel_weight(s, A_ZERO, q) == 0.0)


def test_kernel_weight_closed_form():
    # for a = 1/2 the weight is exactly (1-s)^2 (1-(1-s)^2)/24 at panel
    # boundaries (the tau integrand is piecewise cubic)
    q = default_quadrature()
    assert kernel_weight(0.5, A_HALF, q) == pytest.approx(0.0078125, abs=1e-15)
    for s in np.linspace(0.0, 1.0, 9):
        expected = (1 - s) ** 2 * (1 - (1 - s) ** 2) / 24.0
        assert kernel_weight(float(s), A_HALF, q) == pytest.approx(expected, abs=1e-14)
    assert kernel_weight(1.0, A_QUAD, q) == pytest.approx(0.0, abs=1e-16)


def test_kernel_weight_rejects_bad_alpha():
    # alpha = 1.2: the weight of a = 2.4 t lies outside [0, 1)
    q = default_quadrature()
    with pytest.raises(HypothesisViolation):
        kernel_weight(0.5, parse("2.4*t", "t"), q)


def kernel(t, s, a, q):
    """Full kernel G(t, s) + W(s); s may be a scalar or 1-d array."""
    return green(t, s) + kernel_weight(s, a, q)


def test_kernel_eval_reduces_to_green():
    q = default_quadrature()
    t = np.linspace(0.0, 1.0, 21)[:, None]
    s = np.linspace(0.0, 1.0, 21)
    assert np.allclose(kernel(t, s, A_ZERO, q), green(t, s[None, :]), atol=0)


def test_kernel_eval_examples():
    q = default_quadrature()
    assert kernel(0.0, 0.5, A_HALF, q) == pytest.approx(0.0078125, abs=1e-15)
    t = np.linspace(0.0, 1.0, 21)
    vals = np.array([kernel(float(x), 1.0, A_QUAD, q) for x in t])
    assert np.max(np.abs(vals)) <= 1e-15


def test_kernel_upper_bound():
    # kernel(t, s) <= s(1-s)^2 / (6(1-alpha))
    q = default_quadrature()
    from beambvp.quadrature import integrate
    alpha = integrate(A_QUAD, q)
    t = np.linspace(0.0, 1.0, 201)[:, None]
    s = np.linspace(0.0, 1.0, 201)
    kern = kernel(t, s, A_QUAD, q)
    bound = s * (1 - s) ** 2 / (6.0 * (1.0 - alpha))
    assert np.max(kern - bound[None, :]) <= 1e-12


def test_cone_constants_quadratic_weight():
    c = make_problem("u", A_QUAD, 0.25).cone
    assert c.alpha == pytest.approx(1 / 3, rel=1e-14)
    assert c.beta == pytest.approx((0.75**3 - 0.25**3) / 3, rel=1e-14)
    assert c.gamma == pytest.approx(0.25**3 * (1 - 1 / 3 + c.beta), rel=1e-14)
    assert c.gamma == pytest.approx(0.012532552083333333, rel=1e-12)


def test_cone_constants_linear_weight():
    c = make_problem("u", A_LIN, 0.25).cone
    assert c.alpha == pytest.approx(0.5, rel=1e-14)
    assert c.beta == pytest.approx(0.25, rel=1e-14)
    assert c.gamma == pytest.approx(0.01171875, rel=1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.2, 0.35, 0.49])
def test_beta_never_exceeds_alpha(theta):
    c = make_problem("u", A_QUAD, theta).cone
    assert 0.0 <= c.beta <= c.alpha
    assert 0.0 < c.gamma < 1.0


def test_cone_constants_gates():
    def codes(a_text):
        return {v.code for v in make_problem("u", a_text, 0.25).violations}

    assert codes("2*t") == {"alpha-range"}
    assert codes("0*t") == {"alpha-range"}
    assert "a-negative" in codes("t-1")
    with pytest.raises(InvalidConfig):
        make_problem("u", A_QUAD, 0.6)


def test_only_kernel_touches_the_product_weights():
    # the weights' (moments, panel, kink) format and the sums over them live
    # in kernel; other modules go through green_sum and nystrom_matrix
    private = {"product_weights", "_green_part", "_nonlocal_sum"}
    for path in sorted(Path(beambvp.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            if path.name in ("solver.py", "verify.py") and isinstance(node, ast.ImportFrom):
                # the sums' callers import no private name from kernel or solver
                assert node.module not in ("kernel", "solver") or not any(
                    alias.name.startswith("_") for alias in node.names), path.name
        assert not names & private, f"{path.name} uses {sorted(names & private)}"
