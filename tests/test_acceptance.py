"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from beambvp import verify
from beambvp.analysis import make_problem
from beambvp.cli import EXIT_CHECK_FAILED, main
from beambvp.expressions import parse
from beambvp.kernel import green
from beambvp.kernel import green_sum as _green_sum
from beambvp.oracle import fd_solve_linear, fd_solve_nonlinear
from beambvp.quadrature import default_quadrature, integrate, integrate_on, make_quadrature
from beambvp.verify import PATH_EQUIVALENCE_C
from beambvp.solver import (
    DiscreteFunction,
    apply,
    build_operator,
    cone_gap,
    constant_start,
    interpolate,
    picard,
    solve_auto,
)

F_SUPER = "u^2*(exp(-u)+1)"
F_SUB = "sqrt(1+u)+sin(u)"
SEED = 20240901


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def uniform_load_deflection(t):
    return t**3 / 18.0 - t**4 / 24.0


def green_sum(y, a, q, ts):
    """u = integral [G + W] y at ts, by the solver's Green's sum."""
    return _green_sum(a, q, y(q.nodes), ts)


def extrapolated_fd_gap(problem, report, start, n):
    """sup |u_I - u_ref| on the n-point grid, u_ref being fd_solve_nonlinear
    on n, 2n-1 and 4n-3 points extrapolated twice (h^2, then h^3). A single
    grid's gap is the finite-difference error, not the collocation error."""
    solutions = [fd_solve_nonlinear(problem.f, problem.a, m, start)
                 for m in (n, 2 * n - 1, 4 * n - 3)]
    assert all(sol.converged for sol in solutions)
    v1, v2, v3 = (sol.values for sol in solutions)
    r2 = (4.0 * v2[::2] - v1) / 3.0
    r3 = (4.0 * v3[::4] - v2[::2]) / 3.0
    u_ref = (8.0 * r3 - r2) / 7.0
    return float(np.max(np.abs(
        u_ref - interpolate(report.solution, problem, np.linspace(0.0, 1.0, n)))))


def test_criterion_1_green_bound_suite():
    start = time.perf_counter()
    t = np.linspace(0.0, 1.0, 1001)[:, None]
    s = np.linspace(0.0, 1.0, 1001)[None, :]
    g = green(t, s)
    envelope = s * (1.0 - s) ** 2

    nonneg = float(g.min())
    low_gap = float(np.max(np.minimum(t**3, t**2 * (1.0 - t)) / 6.0 * envelope - g))
    high_gap = float(np.max(g - envelope / 6.0))
    strip_gap = -np.inf
    for theta in (0.1, 0.25, 0.4):
        inside = (t >= theta) & (t <= 1.0 - theta)
        gap = np.where(inside, theta**3 / 6.0 * envelope - g, -np.inf)
        strip_gap = max(strip_gap, float(np.max(gap)))
    elapsed = time.perf_counter() - start

    ok = (nonneg >= -1e-15 and low_gap <= 1e-14 and high_gap <= 1e-14
          and strip_gap <= 1e-14 and elapsed < 5.0)
    _report("criterion 1 (kernel bound suite)", ok,
            f"min G = {nonneg:.2e}, envelope gaps {low_gap:.2e}/{high_gap:.2e}, "
            f"strip gap {strip_gap:.2e}, {elapsed:.2f}s")


def test_criterion_2_representation_vs_fd():
    start = time.perf_counter()
    q = default_quadrature()
    a_zero = parse("0*t", "t")
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))

    ts = np.linspace(0.0, 1.0, 401)
    sum_err = float(np.max(np.abs(
        green_sum(one, a_zero, q, ts) - uniform_load_deflection(ts))))
    fd = fd_solve_linear(one, a_zero, 401)
    fd_err = float(np.max(np.abs(fd.values - uniform_load_deflection(fd.nodes))))

    rng = np.random.default_rng(SEED)
    bound_ok = True
    worst_by_n = {201: 0.0, 401: 0.0}
    for a_text in ("t", "t^2"):
        a = parse(a_text, "t")
        for _ in range(10):
            c = rng.uniform(0.0, 2.0, 5)
            y = lambda s: c[0] + c[1]*s + c[2]*s**2 + c[3]*s**3 + c[4]*s**4
            for n in (201, 401):
                fdn = fd_solve_linear(y, a, n)
                err = float(np.max(np.abs(fdn.values - green_sum(y, a, q, fdn.nodes))))
                worst_by_n[n] = max(worst_by_n[n], err)
                bound_ok = bound_ok and err <= PATH_EQUIVALENCE_C / (n - 1) ** 2
    order = math.log2(worst_by_n[201] / worst_by_n[401])
    elapsed = time.perf_counter() - start

    ok = (sum_err <= 1e-10 and fd_err <= 1e-5 and bound_ok
          and order >= 1.9 and elapsed < 10.0)
    _report("criterion 2 (representation vs finite differences)", ok,
            f"Green's sum err {sum_err:.2e}, fd err {fd_err:.2e}, "
            f"order {order:.2f}, {elapsed:.2f}s")


def test_criterion_3_cone_inequality():
    start = time.perf_counter()
    q = default_quadrature()
    theta = 0.25
    eval_nodes = np.linspace(0.0, 1.0, 401)
    strip = (eval_nodes >= theta) & (eval_nodes <= 1.0 - theta)
    rng = np.random.default_rng(SEED)
    worst = np.inf
    for a_text in ("t", "t^2"):
        a = parse(a_text, "t")
        alpha = integrate(a, q)
        beta = integrate_on(a, theta, 1.0 - theta, q)
        floor = theta**3 * (1.0 - alpha + beta)
        for _ in range(25):
            c = rng.uniform(0.0, 2.0, 4)
            y = lambda s: c[0] + c[1]*s + c[2]*s**2 + c[3]*s**3
            u = green_sum(y, a, q, eval_nodes)
            worst = min(worst, float(np.min(u[strip]) - floor * np.max(np.abs(u))))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10 and elapsed < 5.0
    _report("criterion 3 (solution cone inequality)", ok,
            f"worst margin {worst:.3e} over 50 forcings, {elapsed:.2f}s")


def test_criterion_4_operator_cone_preservation():
    problem = make_problem(F_SUPER, "t^2", 0.25)
    op = build_operator(problem)
    rng = np.random.default_rng(SEED)
    worst = np.inf
    for _ in range(50):
        u = DiscreteFunction(op.quad.nodes.copy(),
                             rng.uniform(0.0, 5.0, op.quad.npoints))
        worst = min(worst, cone_gap(apply(op, u), problem, u))
    ok = worst >= -1e-10
    _report("criterion 4 (operator cone preservation)", ok,
            f"worst margin {worst:.3e} over 50 grid functions")


def test_criterion_5_superlinear_example():
    start = time.perf_counter()
    # the solution peaks near 289, so the kernel quadrature and the
    # comparison grid are refined accordingly (neither is pinned by the
    # criterion; defaults resolve the small sublinear example instead)
    q = make_quadrature(32, 4)
    problem = make_problem(F_SUPER, "t^2", 0.25, q)
    report = solve_auto(problem)
    fd = fd_solve_nonlinear(problem.f, problem.a, 8001, report.solution)
    agreement = float(np.max(np.abs(
        fd.values - interpolate(report.solution, problem, fd.nodes))))
    error = extrapolated_fd_gap(problem, report, report.solution, 2001)
    label = problem.certificate.classification
    elapsed = time.perf_counter() - start

    ok = (report.converged and report.solution.sup_norm() >= 1e-6
          and report.fp_residual <= 1e-8
          and report.error_estimate <= 1e-4
          and 0.1 * error <= report.error_estimate <= 10.0 * error
          and fd.converged and agreement <= 1e-4
          and label == "superlinear" and elapsed < 30.0)
    _report("criterion 5 (superlinear worked example)", ok,
            f"sup|u| {report.solution.sup_norm():.4g}, fp {report.fp_residual:.1e}, "
            f"error estimate {report.error_estimate:.1e} (extrapolated fd gap {error:.1e}), "
            f"fd gap {agreement:.1e}, {label}, {elapsed:.1f}s")


def test_criterion_6_sublinear_example():
    start = time.perf_counter()
    problem = make_problem(F_SUB, "t", 0.25)
    report = solve_auto(problem)
    # the finite-difference path starts from a plain constant guess; the
    # superlinear case instead needs the warm start to target the same
    # nontrivial branch
    ones = DiscreteFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    fd = fd_solve_nonlinear(problem.f, problem.a, 401, ones)
    agreement = float(np.max(np.abs(
        fd.values - interpolate(report.solution, problem, fd.nodes))))
    error = extrapolated_fd_gap(problem, report, ones, 1001)
    label = problem.certificate.classification

    op = build_operator(problem)
    plain_picard = picard(op, constant_start(op, 1.0), omega=1.0, tol=1e-10,
                          max_iter=200)
    elapsed = time.perf_counter() - start

    ok = (report.converged and report.solution.sup_norm() >= 1e-6
          and report.fp_residual <= 1e-8
          and report.error_estimate <= 1e-4
          and 0.1 * error <= report.error_estimate <= 10.0 * error
          and fd.converged and agreement <= 1e-4
          and label == "sublinear"
          and plain_picard.converged and plain_picard.iterations <= 200
          and elapsed < 30.0)
    _report("criterion 6 (sublinear worked example)", ok,
            f"sup|u| {report.solution.sup_norm():.4g}, fp {report.fp_residual:.1e}, "
            f"error estimate {report.error_estimate:.1e} (extrapolated fd gap {error:.1e}), "
            f"fd gap {agreement:.1e}, {label}, picard its {plain_picard.iterations}, "
            f"{elapsed:.1f}s")


def test_criterion_7_certificate_arithmetic():
    problem = make_problem(F_SUPER, "t^2", 0.25)
    cert = problem.certificate
    eps_gap = abs(cert.epsilon_max - 4.0)

    theta, al, be = 0.25, problem.cone.alpha, problem.cone.beta
    identity = cert.delta_min * (theta**6 / 36.0) * ((1 - al + be) ** 2 / (1 - al)) \
        * (1 - 2 * theta) * (0.5 + theta - theta**2)
    identity_gap = abs(identity - 1.0)

    q = default_quadrature()
    moment_gap = 0.0
    for th in (0.1, 0.25, 0.4):
        got = integrate_on(lambda s: s * (1 - s) ** 2, th, 1 - th, q)
        closed = (1 - 2 * th) * (0.5 + th - th**2) / 6.0
        moment_gap = max(moment_gap, abs(got - closed))

    # exact rational cross-check of the threshold value
    thf, alf, bef = Fraction(1, 4), Fraction(1, 3), Fraction(13, 96)
    exact = Fraction(36) * (1 - alf) / (
        thf**6 * (1 - alf + bef) ** 2 * (1 - 2 * thf) * (Fraction(1, 2) + thf - thf**2))
    delta_gap = abs(cert.delta_min - float(exact)) / float(exact)

    ok = (eps_gap <= 1e-13 and identity_gap <= 1e-12 and moment_gap <= 1e-12
          and delta_gap <= 1e-9)
    _report("criterion 7 (certificate arithmetic)", ok,
            f"epsilon gap {eps_gap:.1e}, identity gap {identity_gap:.1e}, "
            f"moment gap {moment_gap:.1e}, delta rel gap {delta_gap:.1e}")


def test_criterion_8_fault_injection(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "green",
                        lambda t, s, **buffers: green(t, s, **buffers) - 0.01)
    code = main(["verify", "--out", str(tmp_path)])
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    failed = {c["name"] for c in scorecard["checks"] if not c["passed"]}
    ok = code == EXIT_CHECK_FAILED and "green_nonnegative" in failed
    _report("criterion 8 (fault injection)", ok,
            f"exit code {code}, failed checks {sorted(failed)}")


def test_criterion_9_parser_fixtures():
    precedence_ok = (parse("2+3*4", "u")(0.0) == 14.0
                     and parse("2^3^2", "u")(0.0) == 512.0
                     and parse("-2^2", "u")(0.0) == -4.0)
    worst = 0.0
    f_super = parse(F_SUPER, "u")
    f_sub = parse(F_SUB, "u")
    for u in (0.0, 1.0, 10.0):
        expect_super = u**2 * (math.exp(-u) + 1.0)
        expect_sub = math.sqrt(1.0 + u) + math.sin(u)
        worst = max(worst,
                    abs(f_super(u) - expect_super) / max(1e-300, abs(expect_super)),
                    abs(f_sub(u) - expect_sub) / abs(expect_sub))
    ok = precedence_ok and worst <= 1e-15
    _report("criterion 9 (parser fixtures)", ok,
            f"precedence {'ok' if precedence_ok else 'broken'}, "
            f"worst relative error {worst:.2e}")
