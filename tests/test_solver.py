import numpy as np
import pytest

from beambvp import solver
from beambvp.analysis import make_problem
from beambvp.errors import DomainError, HypothesisViolation, InvalidConfig, OutOfDomain
from beambvp.kernel import green, kernel_weight
from beambvp.oracle import fd_solve_nonlinear
from beambvp.quadrature import make_quadrature
from beambvp.solver import (
    DiscreteFunction,
    apply,
    build_operator,
    cone_gap,
    constant_start,
    interpolate,
    newton,
    picard,
    residuals,
    solve_auto,
    _green_sum,
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


def test_operator_zero_weight_reduces_to_green():
    p = make_problem("u", "0*t", 0.25)
    op = build_operator(p)
    q = op.quad
    expected = green(q.nodes[:, None], q.nodes[None, :]) * q.weights[None, :]
    assert np.array_equal(op.kmatrix, expected)
    # row at the left endpoint would be all zeros; the first node is
    # interior but the row still scales like t^3
    assert np.all(op.kmatrix[0] <= q.nodes[0] ** 3 / 6 * q.weights)


def test_operator_row_vanishes_at_left_endpoint_node():
    # Simpson nodes include t = 0, where every kernel entry vanishes
    # once the nonlocal weight is zero
    q = make_quadrature("simpson", 4, 3)
    p = make_problem("u", "0*t", 0.25, q)
    op = build_operator(p)
    assert q.nodes[0] == 0.0
    assert np.all(op.kmatrix[0] == 0.0)


def test_apply_zero_nonlinearity():
    p = make_problem("0*u", "t", 0.25)
    op = build_operator(p)
    u = constant_start(op, 3.0)
    assert np.max(np.abs(apply(op, u).values)) == 0.0


def test_apply_constant_forcing_closed_form():
    # with f = 1 the operator returns the uniform-load deflection;
    # resolving the kernel kink to 1e-10 takes a finer panelization
    q = make_quadrature("gauss-legendre", 32, 4)
    p = make_problem("0*u+1", "0*t", 0.25, q)
    op = build_operator(p)
    au = apply(op, constant_start(op, 0.0))
    assert np.max(np.abs(au.values - uniform_load_deflection(q.nodes))) <= 1e-10


def test_apply_preserves_nonnegativity_and_monotonicity():
    p_small = make_problem("0.5*u", "t^2", 0.25)
    p_big = make_problem("u", "t^2", 0.25)
    op_small = build_operator(p_small)
    op_big = build_operator(p_big)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = DiscreteFunction(op_small.quad.nodes.copy(),
                             rng.uniform(0.0, 5.0, op_small.quad.npoints))
        v_small = apply(op_small, u).values
        v_big = apply(op_big, u).values
        assert np.all(v_small >= 0.0)
        assert np.all(v_small <= v_big + 1e-15)


def test_apply_rejects_foreign_grid(super_problem):
    op = build_operator(super_problem)
    with pytest.raises(InvalidConfig):
        apply(op, DiscreteFunction(np.linspace(0, 1, 5), np.zeros(5)))


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
    expected = apply(op, constant_start(op, 5.0)).values
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
        assert cone_gap(apply(op, u), super_problem, u) >= -1e-10


def test_solve_auto_survives_overflowing_starts():
    # exp grows past double range on the larger radii of the start scan;
    # that must end the scan, not raise
    p = make_problem("exp(u)", "t", 0.25)
    report = solve_auto(p)
    assert report.converged and report.positive


def test_solve_auto_end_to_end_on_simpson_rule():
    q = make_quadrature("simpson", 8, 5)
    p = make_problem(F_SUB, "t", 0.25, q)
    report = solve_auto(p)
    assert report.converged and report.positive and report.in_cone
    assert report.error_estimate <= 1e-4


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


def test_residuals_uniform_load_closed_form():
    # with f = 1 the interpolant is the rule's approximation of the
    # uniform-load deflection; the estimate must see its error
    p = make_problem("0*u+1", "0*t", 0.25)
    q = p.quad
    u = DiscreteFunction(q.nodes.copy(), uniform_load_deflection(q.nodes))
    fine = make_quadrature("gauss-legendre", 2 * q.panels, 4)
    error = np.max(np.abs(interpolate(u, p, fine.nodes) - uniform_load_deflection(fine.nodes)))
    estimate = residuals(u, p)
    assert 0.1 * error <= estimate <= 10.0 * error


def test_residuals_sublinear_solution(sub_problem, sub_solution):
    _, report = sub_solution
    assert residuals(report.solution, sub_problem) <= 1e-4


def test_residual_scale_bound():
    # the estimate falls with the kernel-kink-limited O(h^4) error
    estimates = []
    for panels in (8, 16, 32):
        p = make_problem(F_SUB, "t", 0.25, make_quadrature("gauss-legendre", panels, 4))
        estimates.append(solve_auto(p).error_estimate)
    assert estimates[0] >= 8.0 * estimates[1]
    assert estimates[1] >= 8.0 * estimates[2]


@pytest.mark.parametrize("rule, panels, points", [("gauss-legendre", 4, 2), ("simpson", 8, 5)])
def test_residuals_flag_coarse_superlinear_grids(rule, panels, points):
    # the solution is off by ~0.2 and ~2.7e-3 here, far above 1e-4
    p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(rule, panels, points))
    report = solve_auto(p)
    assert report.converged and report.positive
    assert report.error_estimate > 1e-4


@pytest.mark.parametrize("rule, panels, points", [("gauss-legendre", 8, 4), ("simpson", 4, 5)])
def test_refined_sum_matches_dense_operator(super_problem, rule, panels, points):
    fine = make_quadrature(rule, panels, points)
    g = np.random.default_rng(5).uniform(0.0, 100.0, fine.npoints)
    dense = build_operator(make_problem(F_SUPER, "t^2", 0.25, fine)).kmatrix @ g
    fast = _green_sum(super_problem, fine, g, fine.nodes)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def _dense_kernel(p, ts):
    """G(t, s_j) + W(s_j) on the problem's nodes, W from kernel_weight."""
    q = p.quad
    return green(ts[:, None], q.nodes[None, :]) + kernel_weight(q.nodes, p.a, p.cone.alpha, q)


QUADS = [("gauss-legendre", 8, 4), ("simpson", 8, 5)]


@pytest.mark.parametrize("rule, panels, points", QUADS)
def test_interpolate_matches_dense_kernel_sum(rule, panels, points):
    p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(rule, panels, points))
    q = p.quad
    u = DiscreteFunction(q.nodes.copy(), np.random.default_rng(7).uniform(0.0, 5.0, q.npoints))
    ts = np.random.default_rng(8).permutation(
        np.concatenate([[0.0, 1.0], q.nodes, np.random.default_rng(9).uniform(0, 1, 50)]))
    dense = _dense_kernel(p, ts) @ (q.weights * p.f(u.values))
    fast = interpolate(u, p, ts)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_interpolate_rejects_points_off_the_interval(super_problem):
    u = constant_start(build_operator(super_problem), 1.0)
    for t in (-0.1, 1.1):
        with pytest.raises(OutOfDomain):
            interpolate(u, super_problem, np.array([0.5, t]))


@pytest.mark.parametrize("rule, panels, points", QUADS)
def test_operator_matches_dense_kernel_weight(rule, panels, points):
    p = make_problem(F_SUPER, "t^2", 0.25, make_quadrature(rule, panels, points))
    q = p.quad
    expected = _dense_kernel(p, q.nodes) * q.weights[None, :]
    assert np.array_equal(build_operator(p).kmatrix, expected)


def test_solve_auto_rejects_alpha_at_one():
    # the default rule integrates 2t to 1 - 1.1e-16, a hair inside (0, 1)
    with pytest.raises(HypothesisViolation):
        solve_auto(make_problem("u^2", "2*t"))


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
        q = make_quadrature("gauss-legendre", panels, 4)
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
