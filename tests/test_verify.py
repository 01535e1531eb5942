import numpy as np
import pytest

from beambvp import oracle, verify
from beambvp.analysis import make_problem
from beambvp.expressions import parse
from beambvp.kernel import green
from beambvp.quadrature import default_quadrature


def _check(scorecard, name):
    return next(c for c in scorecard["checks"] if c["name"] == name)


def test_branch_match_passes_on_the_kernel():
    scorecard = verify.run_checks()
    assert _check(scorecard, "green_branch_match")["passed"]


def test_branch_match_catches_a_jump_on_the_diagonal(monkeypatch):
    def jumping(t, s):
        return green(t, s) + np.where(np.asarray(s) > np.asarray(t), 1e-9, 0.0)

    monkeypatch.setattr(verify, "green", jumping)
    scorecard = verify.run_checks()
    assert not _check(scorecard, "green_branch_match")["passed"]
    assert not scorecard["all_passed"]


def test_operator_cone_floor_without_a_node_in_the_strip():
    # at theta = 0.495 no collocation node lies in the strip, so the check
    # samples the extension of Au between the nodes
    scorecard = verify.run_checks(theta=0.495)
    assert _check(scorecard, "operator_cone_floor")["margin"] >= 0.0
    assert scorecard["all_passed"]


def test_kernel_sweep_runs_in_bounded_memory(traced_peak):
    verify.run_checks(5)  # the first call's one-time allocations are not the sweep's
    # the whole 1001 x 1001 grid at once peaked at 31.6 MiB
    assert traced_peak(lambda: verify.run_checks(5)) <= 8.0


@pytest.mark.parametrize("fault, failed", [
    (-0.01, {"green_nonnegative", "green_lower_envelope", "green_triangle_floor"}),
    (np.nan, {"green_nonnegative", "green_lower_envelope", "green_upper_envelope",
              "green_triangle_floor", "green_branch_match", "kernel_upper_bound"}),
])
def test_a_fault_in_the_last_partial_row_block_is_caught(monkeypatch, fault, failed):
    # 1001 rows in blocks of ROW_BLOCK = 64 leave t >= 0.96 to a last,
    # partial block of 41 rows
    def corrupted(t, s):
        return green(t, s) + np.where(np.asarray(t) > 0.96, fault, 0.0)

    monkeypatch.setattr(verify, "green", corrupted)
    scorecard = verify.run_checks()
    assert {c["name"] for c in scorecard["checks"] if not c["passed"]} == failed


def test_oracle_evaluates_the_kernel_once_per_batch(monkeypatch):
    # the path checks make one oracle call per weight a, the cone checks too
    calls = []

    def counting(t, s):
        calls.append(np.broadcast(t, s).size)
        return green(t, s)

    monkeypatch.setattr(oracle, "green", counting)
    assert verify.run_checks()["all_passed"]
    assert len(calls) == 4


def _per_load_margins(seed):
    """linear_path_agreement and solution_cone_floor from one oracle call
    per load, drawing from the seed's stream in run_checks' order."""
    q = default_quadrature()
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, 1.0, 100)   # the kernel checks' branch points
    n = 201
    path = -np.inf
    for a_text in ("t", "t^2"):
        a = parse(a_text, "t")
        for _ in range(5):
            c = rng.uniform(0.0, 2.0, 4)
            y = lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3
            fd = oracle.fd_solve_linear(y, a, n)
            formula = oracle.formula_solve_linear(y, a, q, fd.nodes)
            path = max(path, float(np.max(np.abs(fd.values - formula.values))) * (n - 1) ** 2)
    eval_nodes = np.linspace(0.0, 1.0, 201)
    strip = (eval_nodes >= 0.25 - 1e-12) & (eval_nodes <= 0.75 + 1e-12)
    cone = np.inf
    for a_text in ("t", "t^2"):
        linear = make_problem("0*u", a_text, 0.25, q)
        for _ in range(10):
            c = rng.uniform(0.0, 2.0, 4)
            y = lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3
            u = oracle.formula_solve_linear(y, linear.a, q, eval_nodes)
            cone = min(cone, float(np.min(u.values[strip])
                                   - linear.cone.gamma * np.max(np.abs(u.values))))
    return path, cone


@pytest.mark.parametrize("seed", [1, 5, 73, 20240901])
def test_batched_checks_match_a_per_load_loop(seed):
    scorecard = verify.run_checks(seed)
    path, cone = _per_load_margins(seed)
    assert _check(scorecard, "linear_path_agreement")["margin"] == pytest.approx(path, rel=1e-12)
    assert _check(scorecard, "solution_cone_floor")["margin"] == pytest.approx(cone, rel=1e-12)
