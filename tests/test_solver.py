import ast
from pathlib import Path

import numpy as np
import pytest

from beambvp import kernel, quadrature, solver
from beambvp.analysis import log_grid, make_problem
from beambvp.errors import (
    DomainError,
    HypothesisViolation,
    InvalidConfig,
    OutOfDomain,
    SingularJacobian,
)
from beambvp.expressions import Expression, parse
from beambvp.kernel import ROW_BLOCK, _nonlocal_sum, green, kernel_weight, product_weights
from beambvp.kernel import green_sum as _green_sum
from beambvp.oracle import fd_solve_nonlinear
from beambvp.quadrature import ADMISSIBLE_POINTS, Quadrature, _composite_gauss, make_quadrature
from beambvp.solver import (
    DiscreteFunction,
    build_operator,
    cone_gap,
    constant_start,
    interpolate,
    newton,
    picard,
    residuals,
    solve_auto,
)

F_SUPER = "u^2*(exp(-u)+1)"
F_SUB = "sqrt(1+u)+sin(u)"


def uniform_load_deflection(t):
    return t**3 / 18.0 - t**4 / 24.0


@pytest.fixture(scope="module")
def sub_problem():
    return make_problem(F_SUB, "t", 0.25)


@pytest.fixture(scope="module")
def super_problem():
    return make_problem(F_SUPER, "t^2", 0.25)


@pytest.fixture(scope="module")
def sub_solution(sub_problem):
    op = build_operator(sub_problem)
    return op, picard(op, constant_start(op, 1.0), omega=1.0, tol=1e-10)


def test_operator_matrix_shape_and_sign(super_problem):
    op = build_operator(super_problem)
    assert op.kmatrix.shape == (32, 32)
    assert np.min(op.kmatrix) >= -1e-14
    # the kernel vanishes at s = 1, so the column at the last node is the
    # smallest by far
    column_peaks = np.max(np.abs(op.kmatrix), axis=0)
    assert np.argmin(column_peaks) == 31
    assert column_peaks[-1] <= 1e-3 * np.max(op.kmatrix)


def apply(op, u):
    """A u at the nodes: the operator's matrix times f(u)."""
    return op.kmatrix @ op.problem.f(u.values)


def test_apply_zero_nonlinearity():
    p = make_problem("0*u", "t", 0.25)
    op = build_operator(p)
    u = constant_start(op, 3.0)
    assert np.max(np.abs(apply(op, u))) == 0.0


@pytest.mark.parametrize("panels, points", [(1, 2), (8, 4), (3, 6)])
def test_apply_constant_forcing_closed_form(panels, points):
    # with f = 1 the operator returns the uniform-load deflection; the
    # product weights integrate G against a constant exactly, kink included
    q = make_quadrature(panels, points)
    p = make_problem("0*u+1", "0*t", 0.25, q)
    op = build_operator(p)
    au = apply(op, constant_start(op, 0.0))
    assert np.max(np.abs(au - uniform_load_deflection(q.nodes))) <= 1e-16


def test_apply_preserves_nonnegativity_and_monotonicity():
    p_small = make_problem("0.5*u", "t^2", 0.25)
    p_big = make_problem("u", "t^2", 0.25)
    op_small = build_operator(p_small)
    op_big = build_operator(p_big)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = DiscreteFunction(op_small.quad.nodes.copy(),
                             rng.uniform(0.0, 5.0, op_small.quad.npoints))
        v_small = apply(op_small, u)
        v_big = apply(op_big, u)
        assert np.all(v_small >= 0.0)
        assert np.all(v_small <= v_big + 1e-15)


@pytest.mark.parametrize("n", [5, 32, 40])
def test_interpolate_and_residuals_reject_foreign_grid(super_problem, n):
    # 32 points on the wrong nodes gave a wrong value, 40 a broadcast error
    u = DiscreteFunction(np.linspace(0, 1, n), np.ones(n))
    for run in (lambda: interpolate(u, super_problem, [0.5]),
                lambda: residuals(u, super_problem)):
        with pytest.raises(InvalidConfig, match="^grid function does not live on"):
            run()


def test_picard_zero_map_converges_fast():
    p = make_problem("0*u", "t", 0.25)
    op = build_operator(p)
    report = picard(op, constant_start(op, 1.0), omega=1.0, tol=1e-10)
    assert report.converged
    assert report.iterations <= 2
    assert report.solution.sup_norm() == 0.0
    assert not report.positive


def test_picard_rejects_bad_omega(sub_problem):
    op = build_operator(sub_problem)
    with pytest.raises(InvalidConfig):
        picard(op, constant_start(op, 1.0), omega=1.5)


def test_picard_sublinear_example(sub_solution):
    _, report = sub_solution
    assert report.converged
    assert report.iterations <= 200
    assert report.fp_residual <= 1e-10
    assert report.positive
    assert np.all(report.solution.values > 0.0)
    assert report.in_cone
    assert report.method == "picard"


def test_picard_superlinear_trivial_start(super_problem):
    op = build_operator(super_problem)
    report = picard(op, constant_start(op, 0.0), omega=1.0, tol=1e-10)
    assert report.converged
    assert report.solution.sup_norm() == 0.0
    assert not report.positive


def test_newton_converges_in_one_step_for_constant_f():
    p = make_problem("0*u+2", "t", 0.25)
    op = build_operator(p)
    report = newton(op, constant_start(op, 5.0), tol=1e-10)
    assert report.converged
    assert report.iterations == 1
    expected = apply(op, constant_start(op, 5.0))
    assert np.allclose(report.solution.values, expected, atol=1e-14)


def test_newton_matches_picard_sublinear(sub_solution):
    op, picard_report = sub_solution
    newton_report = newton(op, constant_start(op, 1.0), tol=1e-10)
    assert newton_report.converged
    gap = np.max(np.abs(newton_report.solution.values - picard_report.solution.values))
    assert gap <= 1e-9


def test_newton_finds_superlinear_branch(super_problem):
    op = build_operator(super_problem)
    report = newton(op, constant_start(op, 100.0), tol=1e-10)
    assert report.converged
    assert report.positive
    assert report.fp_residual <= 1e-10
    assert report.in_cone
    assert report.solution.sup_norm() > 100.0


def test_picard_divergence_is_flagged_not_raised():
    p = make_problem("u^2", "t", 0.25)
    op = build_operator(p)
    report = picard(op, constant_start(op, 1000.0), omega=1.0, tol=1e-10, max_iter=50)
    assert report.diverged
    assert not report.converged


def test_solve_auto_superlinear(super_problem):
    report = solve_auto(super_problem)
    assert report.converged and report.positive
    assert report.fp_residual <= 1e-10
    assert report.in_cone


def test_solve_auto_sublinear(sub_problem):
    report = solve_auto(sub_problem)
    assert report.converged and report.positive
    assert report.method == "picard"


def test_solve_auto_zero_map_reports_trivial():
    from beambvp.solver import POSITIVITY_TOL
    p = make_problem("0*u", "t", 0.25)
    report = solve_auto(p)
    assert report.converged
    assert not report.positive
    assert report.solution.sup_norm() < POSITIVITY_TOL


def test_operator_cone_preservation(super_problem):
    op = build_operator(super_problem)
    rng = np.random.default_rng(20240901)
    for _ in range(50):
        u = DiscreteFunction(op.quad.nodes.copy(),
                             rng.uniform(0.0, 5.0, op.quad.npoints))
        au = DiscreteFunction(u.nodes, apply(op, u))
        assert cone_gap(au, super_problem, u) >= -1e-10


def test_solve_auto_survives_overflowing_starts():
    # exp grows past double range on the larger radii of the start scan;
    # that must end the scan, not raise
    p = make_problem("exp(u)", "t", 0.25)
    report = solve_auto(p)
    assert report.converged and report.positive


def test_solve_auto_narrow_strip():
    # at theta = 0.495 the default rule has no collocation node inside the
    # strip; the cone check falls back to the interpolant
    p = make_problem(F_SUB, "t", 0.495)
    nodes = p.quad.nodes
    assert not np.any((nodes >= p.theta) & (nodes <= 1.0 - p.theta))
    report = solve_auto(p)
    assert report.converged and report.in_cone and report.positive


def test_residuals_zero_solution():
    p = make_problem("0*u", "0*t", 0.25)
    q = p.quad
    assert residuals(DiscreteFunction(q.nodes.copy(), np.zeros(q.npoints)), p) == 0.0


def linear_load_solution(lam, t):
    """The solution of d^4u/dt^4 + 1 + lam u = 0 with u(0) = u'(0) = u''(0)
    = u'(1) = 0 (a = 0): u + 1/lam = sum_k c_k exp(r_k t) over the four
    roots r^4 = -lam."""
    r = lam**0.25 * np.exp(0.25j * np.pi * (2 * np.arange(4) + 1))
    c = np.linalg.solve(np.array([np.ones(4), r, r**2, r * np.exp(r)]), [1.0 / lam, 0, 0, 0])
    return (np.exp(np.multiply.outer(t, r)) @ c).real - 1.0 / lam


def test_residuals_linear_load_closed_form():
    # f = 1 + 10 u: the load along the exact solution is no polynomial, so
    # the interpolant misses the solution off the nodes, and the estimate
    # must see by how much
    p = make_problem("1+10*u", "0*t", 0.25, make_quadrature(4, 4))
    q = p.quad
    u = DiscreteFunction(q.nodes.copy(), linear_load_solution(10.0, q.nodes))
    fine = make_quadrature(2 * q.panels, 4)
    error = np.max(np.abs(interpolate(u, p, fine.nodes) - linear_load_solution(10.0, fine.nodes)))
    estimate = residuals(u, p)
    assert error >= 1e-12
    assert 0.5 * error <= estimate <= 2.0 * error


def test_residuals_sublinear_solution(sub_problem, sub_solution):
    _, report = sub_solution
    assert residuals(report.solution, sub_problem) <= 1e-4


def test_solution_error_falls_100x_per_panel_halving(double_extrapolation):
    # the product weights leave no kink error, so the error against the
    # extrapolated finite-difference reference falls at least 100x per
    # halving (154 to 381 measured) until it meets the reference's floor,
    # the gap between two extrapolations, or the solver's
    grids = (2001, 4001, 8001)
    errors, floors = [], []
    for panels in (2, 4, 8, 16, 32):
        p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(panels, 4))
        report = solve_auto(p)
        assert report.positive
        if not errors:
            ref = double_extrapolation(p, report.solution, grids)
            coarse = double_extrapolation(p, report.solution, (1001, 2001, 4001))
            sup = np.max(np.abs(ref))
            ref_floor = np.max(np.abs(coarse - ref[::2])) / sup
        u_i = interpolate(report.solution, p, np.linspace(0.0, 1.0, grids[0]))
        errors.append(np.max(np.abs(u_i - ref)) / sup)
        floors.append(max(ref_floor, report.fp_residual / sup))
    # 2 -> 4, 4 -> 8 and 8 -> 16 panels lie above the floor, 32 below it
    above = [k for k in range(1, len(errors)) if errors[k] > floors[k]]
    assert above == [1, 2, 3]
    for k in above:
        assert errors[k - 1] >= 100.0 * errors[k]


def test_residuals_flag_coarse_superlinear_grids():
    # the solution is off by ~0.2 here, far above 1e-4
    p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(4, 2))
    report = solve_auto(p)
    assert report.converged and report.positive
    assert report.error_estimate > 1e-4


RULES = [(1, 2), (5, 2), (8, 4), (3, 4), (2, 6), (7, 6)]


@pytest.mark.parametrize("panels, points", [*RULES, (16, 4), (128, 4)])
def test_operator_rows_match_green_sum(super_problem, panels, points):
    # K's columns are the Green's sum of unit loads, so K g is the sum of g
    # up to rounding. 16 panels is the rule residuals refines the default
    # one to, 128 the finest in use
    q = make_quadrature(panels, points)
    g = np.random.default_rng(5).uniform(0.0, 100.0, q.npoints)
    dense = build_operator(make_problem(F_SUPER, "t^2", 0.25, q)).kmatrix @ g
    fast = _green_sum(super_problem.a, q, g, q.nodes)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def _dense_fill(problem):
    """K as build_operator assembled it before it summed unit loads: the
    plain matrix G(t_i, s_j) w_j filled by row blocks, the cubic moment's
    difference from the plain weight added on the panels below t_i, and the
    kink panel's plain weights swapped for its exact ones."""
    q, n = problem.quad, problem.quad.npoints
    s, w, p = q.nodes, q.weights, q.points_per_panel
    moments, panel, kink = product_weights(q, s)
    cubic = (moments[3] - w * s**3) / 6.0
    kmat = np.empty((n, n))
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block = kmat[rows]
        block[:] = green(s[rows, None], s[None, :]) * w
        np.add(block, cubic, out=block, where=panel[None, :] < panel[rows, None])
    own = np.arange(n).reshape(q.panels, p)
    t, sj = s[own][:, :, None], s[own][:, None, :]
    plain = w[own][:, None, :] * np.maximum(t - sj, 0.0) ** 3
    kmat[own[:, :, None], own[:, None, :]] += (plain - kink.reshape(q.panels, p, p)) / 6.0
    return kmat + _nonlocal_sum(problem.a, q, kmat)[None, :]


@pytest.mark.parametrize("a", ["t", "t^2", "0.5", "1.2*t^2"])
@pytest.mark.parametrize("panels, points", [(8, 4), (128, 4), (8, 2), (8, 6), (64, 6)])
def test_operator_matches_the_dense_fill(a, panels, points):
    # the prefix moments and the plain weights differ by rounding: measured
    # at most 1.55e-14 of max K, at 64 x 6
    p = make_problem("u", a, 0.25, make_quadrature(panels, points))
    expected = _dense_fill(p)
    kmat = build_operator(p).kmatrix
    assert np.max(np.abs(kmat - expected)) <= 2e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("problem", ["sub_problem", "super_problem"])
def test_the_solve_path_does_not_evaluate_green(request, monkeypatch, problem):
    # the operator, the start scan and the estimate all go through the
    # product weights; Picard solves the sublinear example, Newton the other
    problem = request.getfixturevalue(problem)

    def refuse(t, s):
        raise AssertionError("green evaluated on the solve path")

    monkeypatch.setattr(kernel, "green", refuse)
    assert not hasattr(solver, "green")
    assert build_operator(problem).kmatrix.shape == (32, 32)
    assert solve_auto(problem).positive


@pytest.mark.parametrize("panels, points", RULES)
def test_a_block_of_loads_sums_as_its_columns(panels, points):
    q = make_quadrature(panels, points)
    rng = np.random.default_rng(4)
    t = np.concatenate([rng.uniform(0.0, 1.0, 20), q.nodes])
    weights = product_weights(q, t)
    loads = rng.uniform(0.0, 10.0, (q.npoints, 5))
    block = kernel._green_part(q, t, weights, loads)
    columns = np.column_stack([kernel._green_part(q, t, weights, g) for g in loads.T])
    assert block.shape == (t.size, 5)
    # one load takes a dot product where a block takes a matrix-vector
    # product, which may sum in another order: measured at most 3.7e-15
    assert np.max(np.abs(block - columns)) <= 1e-14 * np.max(np.abs(columns))


def _moment_sum(a, q, g, ts):
    """_green_sum as it was written before the Green's part became a routine
    of its own, for one load."""
    s, p = q.nodes, q.points_per_panel
    t = np.concatenate([ts.ravel(), s])
    moments, panel, kink = product_weights(q, t)
    per_panel = np.cumsum((moments * g).reshape(4, q.panels, p).sum(axis=2), axis=1)
    m0, m1, m2, m3 = np.concatenate([np.zeros((4, 1)), per_panel], axis=1)[:, panel]
    t2 = t * t
    hump = (t2 * t * m0 - 3.0 * t2 * m1 + 3.0 * t * m2 - m3
            + np.sum(kink * np.reshape(g, (q.panels, p))[panel], axis=1))
    green_part = (t2 * t * np.dot(q.weights * g, (1.0 - s) ** 2) - hump) / 6.0
    const = _nonlocal_sum(a, q, green_part[ts.size:])
    return np.reshape(green_part[:ts.size] + const, ts.shape)


@pytest.mark.parametrize("panels, points", [*RULES, (16, 4), (128, 4)])
def test_one_load_sums_as_before_bit_for_bit(panels, points):
    # interpolate, residuals and verify's path checks keep their outputs
    q = make_quadrature(panels, points)
    rng = np.random.default_rng(6)
    for a in ("t", "t^2"):
        g = rng.uniform(0.0, 10.0, q.npoints)
        for ts in (rng.uniform(0.0, 1.0, 50), q.nodes):
            fast = _green_sum(parse(a, "t"), q, g, ts)
            np.testing.assert_array_equal(fast.view(np.int64),
                                          _moment_sum(parse(a, "t"), q, g, ts).view(np.int64))


def _subrule_green(q, ts):
    """integral G(t, s) l_j(s) ds over node j's panel, l_j the Lagrange basis
    of that panel's nodes, by a 12-point Gauss rule on each side of s = t:
    exact for the polynomial integrand on either side of the kink."""
    x, w = np.polynomial.legendre.leggauss(12)
    p = q.points_per_panel
    out = np.zeros((ts.size, q.npoints))
    for k in range(q.panels):
        lo, hi = k / q.panels, (k + 1) / q.panels
        nodes = q.nodes[k * p:(k + 1) * p]
        cut = np.clip(ts, lo, hi)
        for a, b in ((np.full_like(ts, lo), cut), (cut, np.full_like(ts, hi))):
            s = a[:, None] + (b - a)[:, None] * (x + 1.0) / 2.0
            gw = green(ts[:, None], s) * (b - a)[:, None] * w / 2.0
            for j in range(p):
                basis = np.prod([(s - nodes[r]) / (nodes[j] - nodes[r])
                                 for r in range(p) if r != j], axis=0)
                out[:, k * p + j] += np.sum(gw * basis, axis=1)
    return out


def _subrule_kernel(p, ts):
    """Reference rows integral [G(t, s) + W_j] l_j(s) ds at ts, with
    W_j = sum_i a(s_i) w_i (integral G(s_i, s) l_j(s) ds) / (1 - alpha)."""
    q = p.quad
    aw = p.a(q.nodes) * q.weights
    weight = aw @ _subrule_green(q, q.nodes) / (1.0 - np.sum(aw))
    return _subrule_green(q, ts) + weight


@pytest.mark.parametrize("a", ["0*t", "t^2"])
@pytest.mark.parametrize("panels, points", RULES)
def test_operator_matches_subrule_reference(a, panels, points):
    p = make_problem(F_SUPER, a, 0.25, make_quadrature(panels, points))
    expected = _subrule_kernel(p, p.quad.nodes)
    kmat = build_operator(p).kmatrix
    assert np.max(np.abs(kmat - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("a", ["t", "t^2", "0.5", "1.2*t^2"])
@pytest.mark.parametrize("panels, points", [(8, 4), (3, 6), (5, 2), (16, 4)])
def test_operator_weight_column_integrates_kernel_weight(a, panels, points):
    # the operator's weight column is integral W(s) l_j(s) ds, W the
    # kernel_weight that green.csv shows: W sums G(s_i, s) over the rule's
    # nodes, so it is a cubic between consecutive nodes, and an 8-point Gauss
    # rule on each such piece integrates W l_j exactly. Measured: 3.9e-15;
    # the plain weights W(s_j) w_j miss by 2.7e-8 or more
    q = make_quadrature(panels, points)
    column = (build_operator(make_problem("u", a, 0.25, q)).kmatrix
              - build_operator(make_problem("u", "0*t", 0.25, q)).kmatrix)
    x, w = np.polynomial.legendre.leggauss(8)
    expected = np.zeros(q.npoints)
    for k in range(panels):
        nodes = q.nodes[k * points:(k + 1) * points]
        cuts = np.concatenate([[k / panels], nodes, [(k + 1) / panels]])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s = lo + (hi - lo) * (x + 1.0) / 2.0
            weighted = kernel_weight(s, parse(a, "t"), q) * (hi - lo) * w / 2.0
            for j in range(points):
                basis = np.prod([(s - nodes[r]) / (nodes[j] - nodes[r])
                                 for r in range(points) if r != j], axis=0)
                expected[k * points + j] += weighted @ basis
    assert np.max(np.abs(column - expected[None, :])) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("panels, points", RULES)
def test_interpolate_matches_subrule_reference(panels, points):
    p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(panels, points))
    q = p.quad
    u = DiscreteFunction(q.nodes.copy(), np.random.default_rng(7).uniform(0.0, 5.0, q.npoints))
    # the ends, the nodes, the panel edges, where the kink panel changes, and
    # random points, in no order
    ts = np.random.default_rng(8).permutation(np.concatenate([
        [0.0, 1.0], q.nodes, np.arange(1, panels) / panels,
        np.random.default_rng(9).uniform(0, 1, 50)]))
    expected = _subrule_kernel(p, ts) @ p.f(u.values)
    fast = interpolate(u, p, ts)
    assert np.max(np.abs(fast - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_interpolate_rejects_points_off_the_interval(super_problem):
    u = constant_start(build_operator(super_problem), 1.0)
    for t in (-0.1, 1.1, np.nan):
        with pytest.raises(OutOfDomain):
            interpolate(u, super_problem, np.array([0.5, t]))


@pytest.mark.parametrize("points", ADMISSIBLE_POINTS)
def test_operator_is_entrywise_nonnegative(points):
    # the continuous kernel G + W is nonnegative, and so is the operator on
    # every admissible rule (least entries: 1.3e-10 at 2 points, about 1e-17
    # at 4 and 6)
    rules = [(panels, points) for panels in range(1, 33)]
    if points == 4:
        rules += [(64, 4), (128, 4)]
    for a in ("0*t", "t^2"):
        for rule in rules:
            kmat = build_operator(make_problem("u", a, 0.25, make_quadrature(*rule))).kmatrix
            assert np.min(kmat) >= 0.0, rule


@pytest.mark.parametrize("points, least", [
    (3, -2.8e-5), (5, -1.0e-6), (7, -6.7e-8), (8, -2.0e-8), (9, -7.2e-9), (10, -5.1e-9)])
def test_other_point_counts_would_give_negative_entries(monkeypatch, points, least):
    # why the rule refuses them: the product weights on those Gauss panels
    # give the operator negative entries somewhere on 1 to 32 panels. The
    # package tabulates only the admissible rules, so numpy supplies these
    def reference_rule(points):
        return np.polynomial.legendre.leggauss(points)

    monkeypatch.setattr(quadrature, "_reference_rule", reference_rule)
    monkeypatch.setattr(kernel, "_reference_rule", reference_rule)
    lowest = 0.0
    for panels in range(1, 33):
        nodes, weights = _composite_gauss(panels, points)
        p = make_problem("u", "0*t", 0.25, Quadrature(nodes, weights, panels))
        lowest = min(lowest, float(np.min(build_operator(p).kmatrix)))
    assert lowest <= least
    with pytest.raises(InvalidConfig):
        make_quadrature(4, points)


def test_solve_auto_rejects_alpha_at_one():
    # the default rule integrates 2t to 1 - 1.1e-16, a hair inside (0, 1)
    with pytest.raises(HypothesisViolation):
        solve_auto(make_problem("u^2", "2*t"))


def test_alpha_outside_its_window_keeps_its_message():
    # nystrom_matrix checks alpha before build_operator reads the certificate
    with pytest.raises(HypothesisViolation, match=r"^alpha = 0\.9999999999999999 outside"):
        build_operator(make_problem("u^2", "2*t"))


@pytest.mark.parametrize("a, theta", [("40*(t-0.5)^2-2.9", 0.25), ("t", 1e-54)])
def test_a_problem_without_a_certificate_raises_hypothesis(a, theta):
    # gamma = -0.0073 (no window width log(1/gamma)) and gamma = 1e-162
    # (gamma^2 underflows to 0): the witness search is undefined, and both
    # entry points say so instead of failing inside it
    problem = make_problem("u^2", a, theta)
    assert problem.certificate is None and problem.violations
    for run in (build_operator, solve_auto):
        with pytest.raises(HypothesisViolation, match="^no certificate: gamma = "):
            run(problem)


def test_solve_auto_estimates_only_the_returned_report(super_problem, monkeypatch):
    # the superlinear solve discards Picard's trivial fixed point before Newton
    estimated = []
    real = solver.residuals

    def counting(u, problem):
        estimated.append(u)
        return real(u, problem)

    monkeypatch.setattr(solver, "residuals", counting)
    report = solve_auto(super_problem)
    assert len(estimated) == 1 and estimated[0] is report.solution
    op = build_operator(super_problem)
    assert np.isnan(picard(op, constant_start(op, 1.0)).error_estimate)


def test_failed_estimate_is_inf_and_keeps_the_solution(super_problem, monkeypatch):
    expected = solve_auto(super_problem).solution.values

    def failing(u, problem):
        raise DomainError("f is not finite on the interpolant")

    monkeypatch.setattr(solver, "residuals", failing)
    report = solve_auto(super_problem)
    assert report.error_estimate == np.inf
    assert np.array_equal(report.solution.values, expected)


def test_diverged_report_estimate_is_inf():
    # f fails below u = 0.01, so the start scan ends at its first radius and
    # Picard, the only attempt, grows past the overflow guard
    p = make_problem("1e4*u^2+sqrt(u-0.01)", "t", 0.25)
    report = solve_auto(p)
    assert report.diverged and report.method == "picard"
    assert report.error_estimate == np.inf


def test_diverged_picard_reports_the_residual_of_its_solution():
    # without a witness the guard is 1e12; Picard from 0.1 grows past it
    p = make_problem("1e4*u^2+sqrt(u-0.01)", "t", 0.25)
    op = build_operator(p)
    report = picard(op, constant_start(op, 0.1), omega=0.8)
    assert report.diverged
    u = report.solution.values
    assert report.fp_residual == float(np.max(np.abs(op.kmatrix @ p.f(u) - u)))


def test_diverged_report_is_not_positive():
    # Picard overflows to sup ~ 1.8e24 from a nonnegative iterate in the cone;
    # a report that did not converge is never positive
    report = solve_auto(make_problem("1e3*u^2+sqrt(u-0.01)", "t", 0.25))
    assert report.diverged and not report.converged
    assert report.solution.sup_norm() > 1e20
    assert not report.positive


def test_solve_auto_makes_two_attempts_on_the_superlinear_example(super_problem, monkeypatch):
    # Picard's trivial fixed point, then Newton from the start scan
    methods = []
    for name in ("picard", "newton"):
        def counting(*args, _run=getattr(solver, name), **kwargs):
            report = _run(*args, **kwargs)
            methods.append(report.method)
            return report
        monkeypatch.setattr(solver, name, counting)
    report = solve_auto(super_problem)
    assert report.positive and methods == ["picard", "newton"]


def test_solve_auto_finds_a_solution_past_the_old_start_ladder():
    # sup ~638: the constant starts 0.1 .. 100 all ended on the trivial solution
    p = make_problem("1.1311*u^2*(exp(-u)+1)", "0.43195*t^3", 0.25)
    report = solve_auto(p)
    assert report.converged and report.positive and report.in_cone
    assert report.solution.sup_norm() == pytest.approx(638.26, rel=1e-3)


def test_grid_convergence_sublinear():
    # halving the panel width should shrink the solution change by a
    # factor of at least 4 (the composite rule converges much faster)
    probe = np.linspace(0.0, 1.0, 101)
    solutions = {}
    for panels in (8, 16, 32):
        q = make_quadrature(panels, 4)
        p = make_problem(F_SUB, "t", 0.25, q)
        report = solve_auto(p)
        assert report.converged and report.positive
        solutions[panels] = interpolate(report.solution, p, probe)
    d1 = np.max(np.abs(solutions[8] - solutions[16]))
    d2 = np.max(np.abs(solutions[16] - solutions[32]))
    assert d1 / d2 >= 4.0


def test_nystrom_agrees_with_fd_oracle_sublinear(sub_problem, sub_solution):
    # two independent discretizations of the same problem, the
    # finite-difference one started from a plain constant guess
    _, report = sub_solution
    ones = DiscreteFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    fd = fd_solve_nonlinear(sub_problem.f, sub_problem.a, 401, ones)
    assert fd.converged
    on_grid = interpolate(report.solution, sub_problem, fd.nodes)
    assert np.max(np.abs(fd.values - on_grid)) <= 1e-4


@pytest.mark.parametrize("f, sup, in_annulus", [
    ("u^1.1", 5.876e19, True), ("u^1.2", 1.071e10, True), ("u^1.5", 1.533e4, True),
    ("u^3", 18.14, True), ("u^2*exp(u)", 5.922, False),
])
def test_solve_auto_finds_solutions_at_any_scale(f, sup, in_annulus):
    # the starts come from the witness bracket (u^2 exp(u) has none and is
    # scanned over its finite range), and tol is relative above sup 1
    report = solve_auto(make_problem(f, "t", 0.25))
    assert report.positive and report.method == "newton"
    assert report.in_annulus == in_annulus
    assert report.solution.sup_norm() == pytest.approx(sup, rel=1e-3)


@pytest.mark.parametrize("k", range(-12, 13))
def test_solve_auto_is_scale_free(k):
    # lambda f has its solution near 1/lambda times f's; below about 1e2 the
    # exp(-u) term fades and f -> 2 lambda u^2 halves lambda sup|u|. The
    # stopping rule and the nontrivial threshold scale with the witness
    # annulus, so a solution with sup 1e-10 is neither cut short nor trivial
    report = solve_auto(make_problem(f"1e{k}*({F_SUPER})", "t^2", 0.25))
    assert report.positive and report.in_annulus
    assert 144.0 <= 10.0**k * report.solution.sup_norm() <= 290.0


@pytest.mark.parametrize("k", range(-12, -4))
def test_solve_auto_is_scale_free_sublinear(k):
    # for lambda <= 1e-5 the solution is small and f(u) = lambda (1 + 3u/2 +
    # O(u^2)) is a uniform load up to 3e-7: u = lambda K1. Picard must stop at
    # that scale, not at an absolute 1e-10
    p = make_problem(f"1e{k}*({F_SUB})", "t^2", 0.25)
    report = solve_auto(p)
    assert report.positive and report.in_annulus
    uniform = 10.0**k * np.max(build_operator(p).kmatrix.sum(axis=1))
    assert report.solution.sup_norm() == pytest.approx(uniform, rel=1e-6)


def _assert_ended_in_the_domain(report, u, method, iterations):
    """A report of an attempt that left f's domain after the iterate u."""
    assert report.method == method and report.iterations == iterations
    assert report.diverged and not report.converged and not report.positive
    assert np.array_equal(report.solution.values, u)
    au = build_operator(report.problem).kmatrix @ report.problem.f(u)
    assert np.array_equal(report.au, au)
    assert report.fp_residual == float(np.max(np.abs(au - u)))


def test_newton_fails_where_the_derivative_is_not_finite():
    # sqrt(u) has f' = 1/(2 sqrt(u)), not finite at 0: the first Jacobian
    # ends the attempt at its start, the way leaving f's domain does
    op = build_operator(make_problem("sqrt(u)", "t", 0.25))
    u0 = constant_start(op, 1.0)
    u0.values[0] = 0.0
    report = newton(op, u0)
    _assert_ended_in_the_domain(report, u0.values, "newton", 1)
    assert report.in_cone == (cone_gap(report.solution, op.problem, report.solution) >= -1e-10)


@pytest.mark.parametrize("theta", [0.25, 0.495])
def test_a_start_outside_the_domain_ends_the_attempt_there(theta):
    # sqrt(u - 0.01) is not finite at 0.001: the report holds the start with
    # no Au, and at theta = 0.495, whose strip holds no node, the cone test
    # does not sample f on the start's interpolant
    op = build_operator(make_problem("sqrt(u-0.01)", "t", theta))
    u0 = constant_start(op, 0.001)
    report = picard(op, u0)
    assert report.method == "picard" and report.iterations == 0
    assert report.diverged and not report.converged and not report.positive
    assert np.array_equal(report.solution.values, u0.values)
    assert report.fp_residual == np.inf and np.all(np.isnan(report.au))
    assert report.in_cone is False


def test_a_picard_step_outside_the_domain_ends_the_attempt():
    # from 0.1, the first damped step stays above 0.01 and the second does not
    op = build_operator(make_problem("sqrt(u-0.01)", "t", 0.25))
    u0 = constant_start(op, 0.1).values
    u1 = (1.0 - 0.8) * u0 + 0.8 * (op.kmatrix @ op.problem.f(u0))
    report = picard(op, constant_start(op, 0.1), omega=0.8)
    _assert_ended_in_the_domain(report, u1, "picard", 2)
    assert report.in_cone


def test_only_iterate_writes_a_solve_report():
    # every SolveReport( in the package, with the functions around it
    calls = []
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "SolveReport" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append((path.name, [f.name for f in functions if node in ast.walk(f)]))
    assert calls == [("solver.py", ["_iterate"])]


@pytest.mark.parametrize("run", [picard, newton])
@pytest.mark.parametrize("f, c", [("0*u+2", 5.0), (F_SUB, 1.0)])
def test_each_method_evaluates_one_residual_per_iterate(f, c, monkeypatch, run):
    # f: the start's residual, then one per step (Newton's runs take full
    # steps, so one line-search trial each); f': one Jacobian per Newton step
    p = make_problem(f, "t", 0.25)
    op = build_operator(p)
    df = p.f.derivative()
    calls = {"f": 0, "df": 0}
    real = Expression.__call__

    def counting(self, x):
        calls["f" if self is p.f else "df" if self is df else "other"] += 1
        return real(self, x)

    monkeypatch.setattr(Expression, "__call__", counting)
    report = run(op, constant_start(op, c))
    assert report.converged and report.iterations >= 1
    jacobians = report.iterations if run is newton else 0
    assert calls == {"f": 1 + report.iterations, "df": jacobians}


@pytest.mark.parametrize("run", [picard, newton])
def test_a_start_that_meets_tol_takes_no_step(sub_solution, run):
    op, solved = sub_solution
    report = run(op, solved.solution)
    assert report.converged and report.positive and report.iterations == 0
    assert report.fp_residual == solved.fp_residual
    assert np.array_equal(report.solution.values, solved.solution.values)
    assert report.solution.values is not solved.solution.values


@pytest.mark.parametrize("run", [picard, newton])
def test_iterations_count_steps_up_to_max_iter(sub_problem, run):
    # an iterate that meets tol on the last allowed step is converged
    op = build_operator(sub_problem)
    u0 = constant_start(op, 1.0)
    report = run(op, u0)
    capped = run(op, u0, max_iter=report.iterations)
    assert capped.converged and capped.iterations == report.iterations
    assert np.array_equal(capped.solution.values, report.solution.values)
    short = run(op, u0, max_iter=report.iterations - 1)
    assert not short.converged and short.iterations == report.iterations - 1


@pytest.mark.parametrize("run", [picard, newton])
def test_an_iterate_past_the_guard_ends_the_run_diverged(super_problem, monkeypatch, run):
    # from 150, Newton climbs to the solution at sup 289 and Picard grows
    # without bound; a guard at 200 stops both on the way
    op = build_operator(super_problem)
    monkeypatch.setattr(solver, "OVERFLOW_GUARD", 200.0 / op.problem.certificate.span[1])
    report = run(op, constant_start(op, 150.0))
    assert report.diverged and not report.converged and not report.positive
    assert report.iterations >= 1 and report.solution.sup_norm() > 200.0
    u = report.solution.values
    assert report.fp_residual == float(np.max(np.abs(op.kmatrix @ op.problem.f(u) - u)))


def test_a_failed_linear_solve_raises_singular_jacobian(super_problem, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    op = build_operator(super_problem)
    with pytest.raises(SingularJacobian, match=r"^Newton linear solve failed: Singular matrix$"):
        newton(op, constant_start(op, 100.0))


def test_operator_assembly_runs_in_bounded_memory(traced_peak):
    problem = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(128, 4))
    build_operator(problem)
    # G and its temporaries as 512 x 512 arrays peaked at 8.3 MiB; K is
    # 2 MiB, and the unit loads' moment arrays, 16 columns at a time, bring
    # the peak to 3.03 MiB
    assert traced_peak(lambda: build_operator(problem)) <= 4.0


def test_cone_scan_without_a_witness_runs_in_bounded_memory(traced_peak, monkeypatch):
    op = build_operator(make_problem("u^2/(1e7+u)", "t", 0.25, make_quadrature(128, 4)))
    cert = op.problem.certificate
    assert cert.r is None and log_grid(*cert.span).size == 2401
    starts = []
    # A(c v) for all 2401 radii at once peaked at 37.5 MiB
    assert traced_peak(lambda: starts.extend(solver._cone_starts(op))) <= 8.0
    # a block that holds every radius is the unblocked scan
    monkeypatch.setattr(solver, "ROW_BLOCK", 10**6)
    whole = solver._cone_starts(op)
    assert len(starts) == len(whole) > 0
    for u, ref in zip(starts, whole):
        np.testing.assert_allclose(u.values, ref.values, rtol=1e-12, atol=0.0)
