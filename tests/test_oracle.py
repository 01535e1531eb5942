import numpy as np
import pytest

from beambvp.analysis import make_problem
from beambvp.errors import DomainError, HypothesisViolation, InvalidConfig, SingularSystem
from beambvp.expressions import parse
from beambvp.oracle import (
    _bordered_solve,
    _fd_residual,
    _fd_setup,
    fd_solve_linear,
    fd_solve_nonlinear,
)
from beambvp.quadrature import default_quadrature, make_quadrature
from beambvp.kernel import green_sum as _green_sum
from beambvp.solver import solve_auto
from beambvp.verify import PATH_EQUIVALENCE_C

A_ZERO = parse("0*t", "t")
A_LIN = parse("t", "t")
A_QUAD = parse("t^2", "t")


def uniform_load_deflection(t):
    # closed-form solution for y = 1, a = 0; u'''' = -1 and all four
    # boundary conditions hold exactly
    return t**3 / 18.0 - t**4 / 24.0


def one(s):
    return np.ones_like(np.asarray(s, dtype=float))


def green_sum(y, a, q, ts):
    """u = integral [G + W] y at ts: the solver's Green's sum, which verify
    checks against the finite-difference path."""
    return _green_sum(a, q, y(q.nodes), ts)


def test_green_sum_rejects_alpha_outside_the_window():
    # 2t integrates to 1 (0.9999999999999999 on the rule), which 1/(1 - alpha)
    # cannot scale; _nonlocal_sum holds the window for every path
    with pytest.raises(HypothesisViolation):
        green_sum(one, parse("2*t", "t"), default_quadrature(), [0.0, 0.5])


def test_green_sum_zero_forcing():
    q = default_quadrature()
    u = green_sum(lambda s: np.zeros_like(s), A_LIN, q, np.linspace(0, 1, 21))
    assert np.max(np.abs(u)) == 0.0


def test_green_sum_uniform_load_closed_form():
    q = default_quadrature()
    ts = np.linspace(0.0, 1.0, 101)
    u = green_sum(one, A_ZERO, q, ts)
    assert np.max(np.abs(u - uniform_load_deflection(ts))) <= 1e-10
    # with a = t the nonlocal constant is 2 integral t (t^3/18 - t^4/24) dt = 1/120
    u = green_sum(one, A_LIN, q, ts)
    assert np.max(np.abs(u - uniform_load_deflection(ts) - 1.0 / 120.0)) <= 1e-12


def test_fd_zero_forcing():
    u = fd_solve_linear(lambda s: np.zeros_like(s), A_LIN, 101)
    assert np.max(np.abs(u.values)) <= 1e-12


def test_fd_uniform_load_closed_form():
    u = fd_solve_linear(one, A_ZERO, 401)
    assert np.max(np.abs(u.values - uniform_load_deflection(u.nodes))) <= 1e-5


def test_fd_matrix_is_the_residuals_jacobian():
    # the banded matrix is slice-assembled and the residual is built from
    # differences; for a fixed load the residual is affine in (u, v), so
    # solving the matrix against a residual difference recovers the step
    n = 41
    _, weights, bands, border = _fd_setup(A_QUAD, n)
    rng = np.random.default_rng(5)
    u, v, du, dv = rng.normal(size=(4, n))
    load = rng.normal(size=n - 2)
    change = _fd_residual(u + du, v + dv, load, weights) - _fd_residual(u, v, load, weights)
    step = _bordered_solve(bands, border, change)
    assert np.max(np.abs(step[1::2] - du)) <= 1e-10
    assert np.max(np.abs(step[0::2] - dv)) <= 1e-10


def _dense(bands, border):
    """The bordered system as one dense matrix: the core from its bands,
    bands[k + 2, i] = entry (i, i + k), then the border column and row."""
    border_col, border_row, corner = border
    m = len(border_col)
    matrix = np.zeros((m + 1, m + 1))
    for k in range(-2, 3):
        rows = np.arange(max(0, -k), min(m, m - k))
        matrix[rows, rows + k] = bands[k + 2, rows]
    matrix[:m, m] = border_col
    matrix[m, :m] = border_row
    matrix[m, m] = corner
    return matrix


@pytest.mark.parametrize("n", [21, 201, 401])
@pytest.mark.parametrize("a", [A_LIN, A_QUAD, parse("1/2", "t")])
@pytest.mark.parametrize("slope", [0.0, 3.0, 300.0])
def test_bordered_solve_matches_a_dense_solve(n, a, slope):
    # Newton's matrix: h^2 f' in the v-rows' u-columns, here f' = slope
    # times a profile in (0.5, 1], so the coupling varies along the grid
    _, _, bands, border = _fd_setup(a, n)
    grid = np.linspace(0.0, 1.0, n)
    bands[3, 2:-1:2] = slope * (1.0 - grid[1:-1] / 2.0) / (n - 1) ** 2
    rhs = np.random.default_rng(n).normal(size=2 * n)
    x = _bordered_solve(bands, border, rhs)
    expected = np.linalg.solve(_dense(bands, border), rhs)
    # worst measured over these cases: 2.7e-13 of max |x|
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("row", [0, 1, 200, -2, -1])
def test_bordered_solve_rejects_a_singular_core(row):
    _, _, bands, border = _fd_setup(A_LIN, 201)
    bands[:, row] = 0.0
    with pytest.raises(SingularSystem):
        _bordered_solve(bands, border, np.ones(2 * 201))


def test_bordered_solve_rejects_a_zero_bordered_pivot():
    # trapezoid weights integrate 2t to 1, so constant u with v = 0 solves
    # every row: the core is regular, the bordered system is not
    _, _, bands, border = _fd_setup(parse("2*t", "t"), 201)
    with pytest.raises(SingularSystem):
        _bordered_solve(bands, border, np.ones(2 * 201))


def test_fd_rejects_a_load_that_is_not_finite():
    with pytest.raises(DomainError):
        fd_solve_linear(lambda s: np.where(s > 0.5, np.nan, 1.0), A_LIN, 101)


def test_fd_rejects_tiny_grid():
    with pytest.raises(InvalidConfig):
        fd_solve_linear(one, A_ZERO, 11)


def test_paths_agree_uniform_load_nonlocal():
    q = default_quadrature()
    fd = fd_solve_linear(one, A_LIN, 401)
    assert np.max(np.abs(fd.values - green_sum(one, A_LIN, q, fd.nodes))) <= 1e-4


def test_fd_second_order_convergence():
    q = default_quadrature()
    y = lambda s: s * (1.0 - s)
    errors = {}
    for n in (201, 401, 801):
        fd = fd_solve_linear(y, A_QUAD, n)
        errors[n] = np.max(np.abs(fd.values - green_sum(y, A_QUAD, q, fd.nodes)))
    assert errors[201] / errors[401] >= 2.0**1.9
    assert errors[401] / errors[801] >= 2.0**1.9


def test_path_equivalence_random_polynomials():
    q = default_quadrature()
    rng = np.random.default_rng(20240901)
    for a in (A_LIN, A_QUAD, parse("0.5", "t")):
        for _ in range(20):
            c = rng.uniform(0.0, 2.0, 6)
            y = lambda s: c[0] + c[1]*s + c[2]*s**2 + c[3]*s**3 + c[4]*s**4 + c[5]*s**5
            n = 201
            fd = fd_solve_linear(y, a, n)
            err = np.max(np.abs(fd.values - green_sum(y, a, q, fd.nodes)))
            assert err <= PATH_EQUIVALENCE_C / (n - 1) ** 2


def test_nonlocal_row_is_exact():
    rng = np.random.default_rng(3)
    for a in (A_LIN, A_QUAD):
        c = rng.uniform(0.0, 2.0, 4)
        y = lambda s: c[0] + c[1]*s + c[2]*s**2 + c[3]*s**3
        u = fd_solve_linear(y, a, 201)
        h = 1.0 / 200
        weights = np.full(201, h)
        weights[0] = weights[-1] = h / 2
        gap = u.values[0] - np.dot(weights * a(u.nodes), u.values)
        assert abs(gap) <= 1e-10


def test_clamped_slope_constants_vanish():
    # u'(0) and u''(0) of finite-difference solutions are zero to O(h^2)
    for n in (401, 801):
        u = fd_solve_linear(one, A_QUAD, n)
        h = 1.0 / (n - 1)
        d1 = (-3 * u.values[0] + 4 * u.values[1] - u.values[2]) / (2 * h)
        d2 = (2 * u.values[0] - 5 * u.values[1] + 4 * u.values[2] - u.values[3]) / h**2
        assert abs(d1) <= 5e-5
        assert abs(d2) <= 5e-4


def test_cone_floor_on_green_sum_solutions():
    # solutions of nonnegative forcings dominate the cone floor
    # theta^3 (1 - alpha + beta) * sup norm on the inner strip
    from beambvp.quadrature import integrate, integrate_on
    q = default_quadrature()
    theta = 0.25
    eval_nodes = np.linspace(0.0, 1.0, 401)
    strip = (eval_nodes >= theta) & (eval_nodes <= 1.0 - theta)
    rng = np.random.default_rng(20240901)
    for a in (A_LIN, A_QUAD):
        alpha = integrate(a, q)
        beta = integrate_on(a, theta, 1.0 - theta, q)
        floor = theta**3 * (1.0 - alpha + beta)
        for _ in range(25):
            c = rng.uniform(0.0, 2.0, 4)
            y = lambda s: c[0] + c[1]*s + c[2]*s**2 + c[3]*s**3
            u = green_sum(y, a, q, eval_nodes)
            assert np.min(u[strip]) >= floor * np.max(np.abs(u)) - 1e-10


def test_fd_nonlinear_zero():
    u = fd_solve_nonlinear(parse("0*u", "u"), A_LIN, 101)
    assert u.converged
    assert np.max(np.abs(u.values)) <= 1e-12


def test_fd_nonlinear_constant_forcing():
    u = fd_solve_nonlinear(parse("0*u+1", "u"), A_ZERO, 401)
    assert u.converged
    assert np.max(np.abs(u.values - uniform_load_deflection(u.nodes))) <= 1e-5


@pytest.mark.parametrize("f, a, quad", [
    ("u^1.5", "t", None),
    ("u^2*(exp(-u)+1)", "t^2", (32, 4)),
])
def test_fd_nonlinear_converges_where_long_double_is_double(monkeypatch, f, a, quad):
    # on platforms whose long double is a double, the oracle must still
    # converge on the finest grid the acceptance suite and benchmark use
    monkeypatch.setattr(np, "longdouble", np.float64)
    problem = make_problem(f, a, 0.25, make_quadrature(*quad) if quad else None)
    report = solve_auto(problem)
    fd = fd_solve_nonlinear(problem.f, problem.a, 8001, report.solution)
    assert fd.converged
    assert fd.iterations <= 5


@pytest.mark.parametrize("f, a", [
    ("3.51*(sqrt(1+u)+sin(u))", "3.2*t^3"),
    ("2.51*(sqrt(1+u)+sin(u))", "1.99*t^2"),
])
def test_extrapolated_reference_noise_floor(double_extrapolation, f, a):
    # the coarse and fine double extrapolations differ by their O(h^4)
    # truncation error plus the rounding floor of the float64 residual;
    # at 2e-11 of sup u that floor leaves room for the benchmark's
    # reference to judge errors of ~1e-9
    problem = make_problem(f, a)
    start = solve_auto(problem).solution
    coarse = double_extrapolation(problem, start, (1001, 2001, 4001))
    fine = double_extrapolation(problem, start, (2001, 4001, 8001))
    assert np.max(np.abs(coarse - fine[::2])) <= 2e-11 * np.max(np.abs(fine))
