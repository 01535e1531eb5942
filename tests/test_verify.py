import numpy as np
import pytest

from beambvp import solver, verify
from beambvp.kernel import green, product_weights


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


def test_a_wrong_product_weight_fails_path_agreement(monkeypatch):
    # linear_path_agreement checks the solver's Green's sum against the
    # finite-difference oracle. One whole-panel moment 1% off moves its
    # margin from 0.14 to 8.9, past the tolerance of 2. The tolerance hides
    # smaller faults: a 0.1% moment error reads 0.88, and zeroing one column
    # of the kink-panel weights at most 1.16. The sub-rule references in
    # test_solver.py and acceptance criterion 2's closed form (1e-10) catch those.
    def skewed(q, ts):
        moments, panel, kink = product_weights(q, ts)
        moments = moments.copy()
        moments[0, 13] *= 1.01
        return moments, panel, kink

    monkeypatch.setattr(solver, "product_weights", skewed)
    scorecard = verify.run_checks()
    assert not _check(scorecard, "linear_path_agreement")["passed"]
