import numpy as np

from beambvp import verify
from beambvp.kernel import green


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
