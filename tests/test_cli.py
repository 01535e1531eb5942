import json

import numpy as np
import pytest

from beambvp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_TRIVIAL,
    EXIT_USAGE,
    main,
)
from beambvp.config import RunConfig
from beambvp.errors import InvalidConfig

F_SUPER = "u^2*(exp(-u)+1)"
F_SUB = "sqrt(1+u)+sin(u)"


def test_config_round_trip(tmp_path):
    cfg = RunConfig(f_text=F_SUPER, a_text="t^2", theta=0.3, rule="composite-simpson",
                    panels=5, points=5, tol=1e-8, max_iter=321,
                    out_dir="somewhere", write_json=False, write_csv=True, seed=99)
    path = tmp_path / "run.ini"
    cfg.to_file(path)
    assert RunConfig.from_file(path) == cfg


def test_config_validation():
    with pytest.raises(InvalidConfig):
        RunConfig(theta=0.7).validate()
    with pytest.raises(InvalidConfig):
        RunConfig(tol=-1.0).validate()
    with pytest.raises(InvalidConfig):
        RunConfig(max_iter=0).validate()


@pytest.mark.parametrize("line", ["tol = nan"])
def test_config_rejects_non_finite_values(tmp_path, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[problem]\nf_text = \"{F_SUB}\"\na_text = \"t\"\n[solver]\n{line}\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("section, line", [
    ("solver", "tol = abc"), ("quadrature", "panels = 2.5")])
def test_config_rejects_non_numbers(tmp_path, capsys, section, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[problem]\nf_text = \"{F_SUB}\"\na_text = \"t\"\n[{section}]\n{line}\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    key, value = line.split(" = ")
    assert capsys.readouterr().err == f"error: number expected for {key}, got {value!r}\n"


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nmystery = 1\n")
    with pytest.raises(InvalidConfig):
        RunConfig.from_file(path)


@pytest.mark.parametrize("line", ["method = newton", "omega = 0.9", "starts = 1.0, 10.0"])
def test_config_rejects_retired_solver_keys(tmp_path, capsys, line):
    # solve_auto derives its starts from the operator; nothing is left to set
    path = tmp_path / "old.ini"
    path.write_text(f"[problem]\nf_text = \"{F_SUB}\"\na_text = \"t\"\n[solver]\n{line}\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"error: unknown key {key!r} in [solver]\n"


def test_solve_superlinear_exits_zero(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--f", F_SUPER, "--a", "t^2", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["positive"]
    assert report["fp_residual"] <= 1e-8
    assert report["alpha"] == pytest.approx(1 / 3, rel=1e-12)
    assert 0.0 < report["error_estimate"] < 1e-2
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,u,Au,fp_residual"
    assert len(lines) == 33


def test_solve_finds_a_solution_far_out_on_the_cone(tmp_path):
    # u^1.5 is superlinear and its solution has sup ~1.5e4, far beyond any
    # fixed ladder of constant starts
    code = main(["solve", "--f", "u^1.5", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["positive"] and report["method"] == "newton"
    assert report["sup_norm"] == pytest.approx(1.53e4, rel=1e-2)


def test_solve_zero_map_exits_trivial(tmp_path):
    code = main(["solve", "--f", "0*u", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_TRIVIAL


def test_solve_negative_fixed_point_is_not_positive(tmp_path, capsys):
    # Newton converges to a fixed point with u in [-2.06, -0.48], outside
    # the cone; Picard's is trivial
    code = main(["solve", "--f", "50*u^2/(1+u)", "--a", "t^2", "--out", str(tmp_path)])
    assert code == EXIT_TRIVIAL
    assert "positive solution" not in capsys.readouterr().out
    assert json.loads((tmp_path / "report.json").read_text())["positive"] is False


def test_solve_inadmissible_weight_exits_hypothesis(tmp_path):
    code = main(["solve", "--f", F_SUPER, "--a", "2*t", "--out", str(tmp_path)])
    assert code == EXIT_HYPOTHESIS


def test_solve_parse_error_exits_usage(tmp_path, capsys):
    code = main(["solve", "--f", "u++", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_expression_exits_usage(tmp_path):
    assert main(["solve", "--a", "t", "--out", str(tmp_path)]) == EXIT_USAGE


def test_classify_examples(tmp_path):
    out = tmp_path / "c1"
    assert main(["classify", "--f", F_SUPER, "--a", "t^2", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "classify.json").read_text())
    assert payload["classification"] == "superlinear"
    assert payload["epsilon_max"] == pytest.approx(4.0, abs=1e-12)
    assert payload["f0_kind"] == "finite" and payload["finf_kind"] == "divergent"

    out2 = tmp_path / "c2"
    assert main(["certificate", "--f", F_SUB, "--a", "t", "--out", str(out2)]) == EXIT_OK
    payload2 = json.loads((out2 / "classify.json").read_text())
    assert payload2["classification"] == "sublinear"
    assert payload2["epsilon_max"] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("f, a", [("1/u", "t"), ("u^2", "2*t")])
def test_classify_checks_hypotheses(tmp_path, capsys, f, a):
    # 1/u is not finite at 0; 2t integrates to alpha = 1
    assert main(["classify", "--f", f, "--a", a, "--out", str(tmp_path)]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().out.startswith("hypothesis violation: ")
    assert json.loads((tmp_path / "classify.json").read_text())["hypotheses_ok"] is False


def test_classify_linear_indeterminate(tmp_path):
    assert main(["classify", "--f", "u", "--a", "t", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["classification"] == "indeterminate"


def test_verify_passes_and_writes_scorecard(tmp_path):
    code = main(["verify", "--a", "t", "--out", str(tmp_path), "--grid-m", "301"])
    assert code == EXIT_OK
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    assert scorecard["all_passed"]
    assert all(c["passed"] for c in scorecard["checks"])


def test_verify_accepts_wide_theta(tmp_path):
    # the kernel bounds hold for every theta below one half
    code = main(["verify", "--theta", "0.49", "--out", str(tmp_path),
                 "--grid-m", "201"])
    assert code == EXIT_OK
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    names = {c["name"] for c in scorecard["checks"]}
    assert "green_strip_floor_theta_0.49" in names


def test_verify_rejects_grid_missing_a_strip(tmp_path):
    # a 2-point grid {0, 1} has no point in any strip, so those checks
    # could not fail
    assert main(["verify", "--out", str(tmp_path), "--grid-m", "2"]) == EXIT_USAGE
    assert not (tmp_path / "verify.json").exists()


def test_classify_json_carries_limit_fields(tmp_path):
    assert main(["classify", "--f", F_SUPER, "--a", "t^2", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["finf"] == "divergent"
    assert abs(payload["f0"]) <= 1e-6
    for key in ("alpha", "beta", "gamma", "epsilon_max", "delta_min"):
        assert key in payload


def test_verify_detects_perturbed_kernel(tmp_path):
    code = main(["verify", "--a", "t", "--out", str(tmp_path), "--grid-m", "201",
                 "--green-offset", "-0.01"])
    assert code == EXIT_CHECK_FAILED
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    failed = {c["name"] for c in scorecard["checks"] if not c["passed"]}
    assert "green_nonnegative" in failed


def test_green_small_table(tmp_path):
    assert main(["green", "--out", str(tmp_path), "--grid-m", "3"]) == EXIT_OK
    lines = (tmp_path / "green.csv").read_text().splitlines()
    assert lines[0] == "t,s,G,kernel,lower_envelope,upper_envelope"
    assert len(lines) == 10
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    corners = rows[(rows[:, 0] == 0.0) | (rows[:, 1] == 1.0)]
    assert np.all(corners[:, 2] == 0.0)


def test_green_inadmissible_weight_exits_hypothesis(tmp_path):
    assert main(["green", "--a", "2*t", "--out", str(tmp_path), "--grid-m", "3"]) == EXIT_HYPOTHESIS
    assert not (tmp_path / "green.csv").exists()


def test_green_rejects_empty_table(tmp_path):
    assert main(["green", "--out", str(tmp_path), "--grid-m", "0"]) == EXIT_USAGE
    assert not (tmp_path / "green.csv").exists()


def test_green_kernel_dominates_green(tmp_path):
    assert main(["green", "--a", "t^2", "--out", str(tmp_path), "--grid-m", "41"]) == EXIT_OK
    lines = (tmp_path / "green.csv").read_text().splitlines()[1:]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert np.all(rows[:, 3] >= rows[:, 2])              # kernel >= G
    assert np.max(rows[:, 2] - rows[:, 5]) <= 1e-14      # G <= upper envelope


def test_green_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["green", "--a", "t", "--out", str(out1), "--grid-m", "21"])
    main(["green", "--a", "t", "--out", str(out2), "--grid-m", "21"])
    assert (out1 / "green.csv").read_bytes() == (out2 / "green.csv").read_bytes()


def test_solve_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--f", F_SUB, "--a", "t", "--out", str(out)]) == EXIT_OK
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "beambvp", "classify", "--f", "u", "--a", "t",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "indeterminate" in proc.stdout


def test_solve_from_config_file(tmp_path):
    cfg = RunConfig(f_text=F_SUB, a_text="t", out_dir=str(tmp_path / "out"))
    path = tmp_path / "run.ini"
    cfg.to_file(path)
    assert main(["solve", "--config", str(path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "picard"
    assert report["in_cone"] is True


def test_flag_overrides_config(tmp_path):
    cfg = RunConfig(f_text="0*u", a_text="t", out_dir=str(tmp_path))
    path = tmp_path / "run.ini"
    cfg.to_file(path)
    # the flag replaces the config's trivial nonlinearity
    code = main(["solve", "--config", str(path), "--f", F_SUB])
    assert code == EXIT_OK


def test_json_only_artifacts(tmp_path):
    code = main(["solve", "--f", F_SUB, "--a", "t", "--out", str(tmp_path), "--json"])
    assert code == EXIT_OK
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "solution.csv").exists()


def test_missing_config_file():
    assert main(["solve", "--config", "/nonexistent/run.ini"]) == EXIT_USAGE
