import threading

import numpy as np
import pytest

from beambvp import kernel, solver, verify
from beambvp.analysis import make_problem
from beambvp.expressions import parse
from beambvp.kernel import (
    ROW_BLOCK,
    green,
    kernel_weight,
    lower_envelope,
    product_weights,
    upper_envelope,
)
from beambvp.oracle import fd_solve_linear
from beambvp.quadrature import default_quadrature, integrate


def _check(scorecard, name):
    return next(c for c in scorecard["checks"] if c["name"] == name)


def test_branch_match_passes_on_the_kernel():
    scorecard = verify.run_checks()
    assert _check(scorecard, "green_branch_match")["passed"]


def test_each_weights_loads_are_summed_in_one_call(monkeypatch):
    # the path checks' 5 loads and the cone check's 10 per weight, each a
    # block, then A u for the operator check's 20 grid functions
    blocks = []

    def counted(a, q, g, ts):
        blocks.append(np.shape(g))
        return kernel.green_sum(a, q, g, ts)

    monkeypatch.setattr(verify, "green_sum", counted)
    assert verify.run_checks()["all_passed"]
    n = default_quadrature().npoints
    assert blocks == [(n, 5), (n, 5), (n, 10), (n, 10), (n, 20)]


def test_branch_match_catches_a_jump_on_the_diagonal(monkeypatch):
    def jumping(t, s, **buffers):
        return green(t, s, **buffers) + np.where(np.asarray(s) > np.asarray(t), 1e-9, 0.0)

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


def _full_block_margins(kernel, thetas, q):
    """The sweep's margins as the whole-block loop took them: every bound
    subtracted from every point of each ROW_BLOCK x GRID_M block, and the
    kernel G + W as well as G."""
    grid = np.linspace(0.0, 1.0, verify.GRID_M)
    ss = grid[None, :]
    upper = upper_envelope(ss)
    strip_bounds = {theta: lower_envelope(theta, ss) for theta in thetas}
    a = parse("t^2", "t")
    weight = kernel_weight(grid, a, q)[None, :]
    kernel_bound = upper_envelope(ss) / (1.0 - integrate(a, q))
    g_min = lower_min = triangle_min = np.inf
    upper_max = kernel_max = -np.inf
    strip_min = dict.fromkeys(thetas, np.inf)
    for start in range(0, verify.GRID_M, ROW_BLOCK):
        ts = grid[start:start + ROW_BLOCK, None]
        g = kernel(ts, ss)
        g_min = np.minimum(g_min, np.min(g))
        lower_min = np.minimum(lower_min, np.min(g - lower_envelope(ts, ss)))
        upper_max = np.maximum(upper_max, np.max(g - upper))
        kernel_max = np.maximum(kernel_max, np.max(g + weight - kernel_bound))
        for theta, bound in strip_bounds.items():
            rows = slice(np.searchsorted(ts[:, 0], theta),
                         np.searchsorted(ts[:, 0], 1.0 - theta, "right"))
            if rows.start < rows.stop:
                strip_min[theta] = np.minimum(strip_min[theta], np.min(g[rows] - bound))
        triangle = g - (ts - ss) ** 2 * ss / 6.0
        triangle_min = np.minimum(triangle_min, np.min(triangle, where=ss <= ts, initial=np.inf))
    return {
        "green_nonnegative": g_min, "green_lower_envelope": lower_min,
        "green_upper_envelope": upper_max, "green_triangle_floor": triangle_min,
        "kernel_upper_bound": kernel_max,
        **{f"green_strip_floor_theta_{theta}": strip_min[theta] for theta in thetas},
    }


def _fault_at(i, j, fault=np.nan):
    """G plus fault at the sweep's grid point t = grid[i], s = grid[j].

    Like every corrupted kernel here, it fills the buffers the sweep passes
    with the true G and returns a fresh array, so a sweep that read its
    buffer instead of what green returns would miss the fault.
    """
    grid = np.linspace(0.0, 1.0, verify.GRID_M)

    def kernel(t, s, **buffers):
        t, s = np.asarray(t), np.asarray(s)
        return green(t, s, **buffers) + np.where((t == grid[i]) & (s == grid[j]), fault, 0.0)
    return kernel


@pytest.mark.parametrize("kernel", [
    green,
    lambda t, s, **buffers: green(t, s, **buffers) - 0.01,
    # rounding-sized noise, so that the per-point differences round unevenly
    lambda t, s, **buffers: green(t, s, **buffers)
    * (1.0 + 3e-16 * np.sin(1e3 * np.asarray(t) + 7e2 * np.asarray(s))),
    _fault_at(500, 300),
    # the first row of the block t >= 0.448
    _fault_at(7 * ROW_BLOCK, 300, -0.01),
    # a raised point: kernel_upper_bound reads 0.0 (at s = 0) on every other
    # kernel here, so only this one tells a column's maximum from its minimum
    _fault_at(500, 300, 0.1),
], ids=["exact", "shifted", "noisy", "nan", "dip", "bump"])
def test_column_reductions_match_the_full_block_margins(monkeypatch, kernel):
    # s-only bounds come off per-column extremes once, after the sweep;
    # fl(x - c) and fl(x + c) are monotone in x, so every margin is
    # bit-identical, kernel_upper_bound's on the whole GRID_M grid too
    thetas = [0.1, 0.25, 0.4, 0.49]
    q = default_quadrature()
    monkeypatch.setattr(verify, "green", kernel)
    checks = verify._kernel_checks(thetas, np.random.default_rng(1), q)
    reference = _full_block_margins(kernel, thetas, q)
    margins = {c["name"]: c["margin"] for c in checks if c["name"] in reference}
    assert margins.keys() == reference.keys()
    np.testing.assert_array_equal([margins[name] for name in reference],
                                  [float(v) for v in reference.values()])


@pytest.mark.parametrize("point, failed", [
    # t = 0.5, s = 0.3: below the diagonal and inside every strip
    ((500, 300), {"green_nonnegative", "green_lower_envelope", "green_upper_envelope",
                  "green_strip_floor_theta_0.1", "green_strip_floor_theta_0.25",
                  "green_strip_floor_theta_0.4", "green_triangle_floor",
                  "kernel_upper_bound"}),
    # t = 0.3, s = 0.7: above the diagonal and outside the 0.4 strip
    ((300, 700), {"green_nonnegative", "green_lower_envelope", "green_upper_envelope",
                  "green_strip_floor_theta_0.1", "green_strip_floor_theta_0.25",
                  "kernel_upper_bound"}),
], ids=["triangle", "above-diagonal"])
def test_a_nan_at_one_interior_point_is_caught(monkeypatch, point, failed):
    monkeypatch.setattr(verify, "green", _fault_at(*point))
    scorecard = verify.run_checks()
    assert {c["name"] for c in scorecard["checks"] if not c["passed"]} == failed


def test_kernel_sweep_peak_is_a_few_blocks(traced_peak):
    thetas = [0.1, 0.25, 0.4]
    q = default_quadrature()
    verify._kernel_checks(thetas, np.random.default_rng(1), q)
    # measured 1.23 MiB: two buffers of ROW_BLOCK rows (0.49 MiB each) hold
    # G, and green's cube and then the margins; a third block would read
    # about 1.7
    peak = traced_peak(lambda: verify._kernel_checks(thetas, np.random.default_rng(1), q))
    assert peak <= 1.5


@pytest.mark.parametrize("fault, failed", [
    (-0.01, {"green_nonnegative", "green_lower_envelope", "green_triangle_floor"}),
    (np.nan, {"green_nonnegative", "green_lower_envelope", "green_upper_envelope",
              "green_triangle_floor", "green_branch_match", "kernel_upper_bound"}),
])
def test_a_fault_in_the_last_partial_row_block_is_caught(monkeypatch, fault, failed):
    # 1001 rows in blocks of ROW_BLOCK = 64 leave t >= 0.96 to a last,
    # partial block of 41 rows
    def corrupted(t, s, **buffers):
        return green(t, s, **buffers) + np.where(np.asarray(t) > 0.96, fault, 0.0)

    monkeypatch.setattr(verify, "green", corrupted)
    scorecard = verify.run_checks()
    assert {c["name"] for c in scorecard["checks"] if not c["passed"]} == failed


def test_a_wrong_product_weight_fails_path_agreement(monkeypatch):
    # linear_path_agreement checks the solver's Green's sum against the
    # finite-difference oracle. One whole-panel moment 1% off moves its
    # margin from 0.14 to 8.9, past the tolerance of 2. The tolerance hides
    # smaller faults: a 0.1% moment error reads 0.88, and zeroing one column
    # of the kink-panel weights at most 1.16. green_sum_exact_on_cubics
    # catches those (below).
    def skewed(q, ts):
        moments, panel, kink = product_weights(q, ts)
        moments = moments.copy()
        moments[0, 13] *= 1.01
        return moments, panel, kink

    monkeypatch.setattr(kernel, "product_weights", skewed)
    scorecard = verify.run_checks()
    assert not _check(scorecard, "linear_path_agreement")["passed"]


@pytest.mark.parametrize("seed, margin", [
    (1, 8.0e-13), (5, 5.4e-13), (73, 9.4e-13), (20240901, 1.9e-12)])
def test_green_sum_is_exact_on_cubic_loads(seed, margin):
    # the miss is the rule's nonlocal sum of a u, a polynomial of degree up
    # to 9. It is largest for the load s^3 at a = t^2, 5.2e-12 of sup u, and
    # a cubic with nonnegative coefficients misses by at most its worst
    # monomial's share; 3.2e-12 was the worst over seeds 0-999
    check = _check(verify.run_checks(seed), "green_sum_exact_on_cubics")
    assert check["passed"] and check["tolerance"] == 1e-11
    assert check["margin"] == pytest.approx(margin, rel=0.05)


def _moment_fault(q, ts):
    moments, panel, kink = product_weights(q, ts)
    moments = moments.copy()
    moments[0, 13] *= 1.0 + 1e-7
    return moments, panel, kink


def _kink_column_fault(q, ts):
    moments, panel, kink = product_weights(q, ts)
    kink = kink.copy()
    kink[:, 0] = 0.0
    return moments, panel, kink


@pytest.mark.parametrize("fault", [_moment_fault, _kink_column_fault], ids=["moment", "kink"])
def test_exact_cubics_catch_weight_faults_that_path_agreement_misses(monkeypatch, fault):
    # margins 4.5e-8 and 1.2e-3 against 1e-11, while the finite-difference
    # check reads 0.14 and 1.16 against 2. The operator is built from the
    # same weights, so the fault reaches solve as well
    problem = make_problem("u", "t^2")
    clean = solver.build_operator(problem).kmatrix
    monkeypatch.setattr(kernel, "product_weights", fault)
    scorecard = verify.run_checks()
    assert _check(scorecard, "linear_path_agreement")["passed"]
    assert not _check(scorecard, "green_sum_exact_on_cubics")["passed"]
    assert not np.array_equal(solver.build_operator(problem).kmatrix, clean)


@pytest.mark.parametrize("power", [1, 2])
def test_cubic_closed_form_meets_the_finite_difference_path(power):
    # the closed form against the kernel-free oracle, at its O(h^2) accuracy
    a = parse(f"t^{power}", "t")
    for c in np.random.default_rng(2).uniform(0.0, 2.0, (3, 4)):
        fd = fd_solve_linear(verify._cubic(c), a, 401)
        exact = verify._cubic_solution(c, power, fd.nodes)
        assert np.max(np.abs(fd.values - exact)) <= verify.PATH_EQUIVALENCE_C / 400**2


def _bits(scorecard):
    return np.array([c["margin"] for c in scorecard["checks"]]).view(np.int64)


@pytest.fixture(scope="module")
def row_block_scorecards():
    """run_checks at two seeds and thetas, the sweep in blocks of ROW_BLOCK rows."""
    return {case: verify.run_checks(*case) for case in [(1, 0.25), (73, 0.495)]}


@pytest.mark.parametrize("height", [1, 21, 100, 1001])
def test_scorecards_do_not_depend_on_the_block_height(monkeypatch, row_block_scorecards,
                                                      height):
    # min and max are exact, so every split of the rows into blocks gives the
    # same margins, bit for bit: blocks of one row, of 21 rows (the strips'
    # edges fall inside other blocks than at 64), of 100 (the 0.1 strip
    # starts and ends on a block's edge) and the whole grid as one block
    monkeypatch.setattr(verify, "ROW_BLOCK", height)
    for case, reference in row_block_scorecards.items():
        scorecard = verify.run_checks(*case)
        assert scorecard == reference
        np.testing.assert_array_equal(_bits(scorecard), _bits(reference))


@pytest.mark.parametrize("height", [16, 21, 32, 128])
def test_kernel_sweep_peak_is_two_blocks_at_every_block_height(monkeypatch, traced_peak,
                                                              height):
    # two float buffers and the s <= t mask of height x GRID_M, and about
    # 0.2 MiB that does not grow with the block (numpy's iterator buffer and
    # the per-column extremes): measured 0.44, 0.52, 0.70 and 2.26 MiB, each
    # 0.07 under the bound, where a third buffer would add 0.12 to 1.95
    monkeypatch.setattr(verify, "ROW_BLOCK", height)
    grid = np.linspace(0.0, 1.0, verify.GRID_M)
    thetas = [0.1, 0.25, 0.4]
    verify._sweep(grid, thetas)
    peak = traced_peak(lambda: verify._sweep(grid, thetas))
    assert peak <= height * verify.GRID_M * (2 * 8 + 1) / 2**20 + 0.25


@pytest.mark.parametrize("height", [ROW_BLOCK, 21, 1001])
def test_the_sweep_evaluates_every_block_into_one_pair_of_buffers(monkeypatch, height):
    # a fresh block array per block goes back to the OS when freed, and the
    # next block faults its pages in again
    calls = []

    def spy(t, s, **buffers):
        if np.ndim(t) == 2:  # a sweep block, not the branch check's points
            calls.append(tuple(buffers[k].__array_interface__["data"][0] if k in buffers else None
                               for k in ("out", "work")))
        return green(t, s, **buffers)

    monkeypatch.setattr(verify, "ROW_BLOCK", height)
    monkeypatch.setattr(verify, "green", spy)
    verify._kernel_checks([0.1, 0.25, 0.4], np.random.default_rng(1), default_quadrature())
    assert len(calls) == -(-verify.GRID_M // height)
    outs, works = ({call[k] for call in calls} for k in (0, 1))
    assert len(outs) == len(works) == 1 and None not in outs | works
    assert outs != works


class _BlockError(Exception):
    pass


@pytest.mark.parametrize("start", [0, 512, 960])
def test_an_exception_in_any_block_reaches_the_caller(monkeypatch, start):
    # the first block, one inside the grid and the last, partial one, at
    # row 960; the sweep is one loop on the calling thread, so a started
    # thread fails the test here
    grid = np.linspace(0.0, 1.0, verify.GRID_M)
    error = _BlockError(start)

    def failing(t, s, **buffers):
        if np.ndim(t) == 2 and t[0, 0] == grid[start]:
            raise error
        return green(t, s, **buffers)

    def no_thread(thread):
        raise AssertionError(f"the sweep started {thread}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(verify, "green", failing)
    with pytest.raises(_BlockError) as raised:
        verify.run_checks()
    assert raised.value is error
