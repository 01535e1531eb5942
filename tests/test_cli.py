import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beambvp
from beambvp import cli, verify
from beambvp.analysis import make_problem
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
from beambvp.expressions import Expression
from beambvp.kernel import green
from beambvp.quadrature import make_quadrature

F_SUPER = "u^2*(exp(-u)+1)"
F_SUB = "sqrt(1+u)+sin(u)"


def _run_cold(*args):
    """A fresh interpreter run with args, importing the beambvp this process
    imported, also where PYTHONPATH does not name it."""
    src = str(Path(beambvp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(f"""[problem]
f_text = "{F_SUPER}"
a_text = "t^2"
theta = 0.3

[quadrature]
rule = gauss
panels = 5
points = 5

[solver]
tol = 1e-08
max_iter = 321

[output]
out_dir = somewhere
write_json = false
write_csv = true
seed = 99
""")
    assert RunConfig.from_file(path) == RunConfig(
        f_text=F_SUPER, a_text="t^2", theta=0.3, panels=5, points=5, tol=1e-8, max_iter=321,
        out_dir="somewhere", write_json=False, write_csv=True, seed=99)


# the text of the benchmark's N = 512 config; rule names the one rule there is
FINE_CONFIG = """[quadrature]
rule = composite-gauss-legendre
panels = 128
points = 4
"""


@pytest.mark.parametrize("spelling", ["gauss", "gauss-legendre", "composite-gauss-legendre"])
def test_config_accepts_each_gauss_legendre_spelling(tmp_path, spelling):
    path = tmp_path / "fine.ini"
    path.write_text(FINE_CONFIG.replace("composite-gauss-legendre", spelling))
    code = main(["solve", "--config", str(path), "--f", F_SUB, "--a", "t",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["quadrature"] == {"rule": "composite-gauss-legendre", "panels": 128, "points": 4}
    assert len((tmp_path / "solution.csv").read_text().splitlines()) == 513


@pytest.mark.parametrize("rule", ["simpson", "composite-simpson", "trapezoid"])
def test_config_rejects_other_quadrature_rules(tmp_path, capsys, rule):
    path = tmp_path / "fine.ini"
    path.write_text(FINE_CONFIG.replace("composite-gauss-legendre", rule))
    code = main(["solve", "--config", str(path), "--f", F_SUB, "--a", "t",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unsupported quadrature rule {rule!r}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["solve", "--theta", "abc"],
    ["solve", "--panels", "3"],
    ["verify", "--green-offset", "-0.01"],
    ["verify", "--grid-m", "301"],
    ["certificate", "--f", F_SUB, "--a", "t"],
    # classify, verify and green write one artifact each, so only solve
    # takes --json and --csv
    ["classify", "--f", F_SUB, "--a", "t", "--csv"],
    ["verify", "--csv"],
    ["green", "--a", "t", "--json"],
], ids=["no-command", "unknown-command", "bad-float", "unknown-flag",
        "verify-green-offset", "verify-grid-m", "certificate",
        "classify-csv", "verify-csv", "green-json"])
def test_usage_errors_exit_usage(tmp_path, capsys, argv):
    # argparse's own exit code 2 would read as "no positive solution"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: beambvp") and "error: " in err
    assert not any(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--grid-m" not in capsys.readouterr().out


def test_usage_error_from_a_cold_process():
    proc = _run_cold("-m", "beambvp", "bogus")
    assert proc.returncode == EXIT_USAGE
    assert "invalid choice: 'bogus'" in proc.stderr


def test_config_validation():
    with pytest.raises(InvalidConfig):
        RunConfig(theta=0.7).validate()
    with pytest.raises(InvalidConfig):
        RunConfig(tol=-1.0).validate()
    with pytest.raises(InvalidConfig):
        RunConfig(max_iter=0).validate()
    with pytest.raises(InvalidConfig):
        RunConfig(seed=-1).validate()
    RunConfig(seed=0).validate()


@pytest.mark.parametrize("panels, points", [(8, 0), (8, 3), (8, 5), (8, 11), (0, 4)])
def test_config_and_library_share_the_rule_check(panels, points):
    # one check: the config refuses exactly what make_quadrature refuses
    with pytest.raises(InvalidConfig) as from_config:
        RunConfig(panels=panels, points=points).validate()
    with pytest.raises(InvalidConfig) as from_library:
        make_quadrature(panels, points)
    assert str(from_config.value) == str(from_library.value)


@pytest.mark.parametrize("theta", [0.0, 0.5, -0.1, 0.7, float("nan")])
def test_config_and_library_share_the_theta_check(theta):
    with pytest.raises(InvalidConfig) as from_config:
        RunConfig(theta=theta).validate()
    with pytest.raises(InvalidConfig) as from_library:
        make_problem("u^2", "t", theta)
    assert str(from_config.value) == str(from_library.value)
    assert str(from_config.value) == f"theta must lie in (0, 1/2), got {theta}"


@pytest.mark.parametrize("command", ["solve", "classify", "verify", "green"])
@pytest.mark.parametrize("points", [3, 5, 10])
def test_inadmissible_points_in_a_config_exit_usage(tmp_path, capsys, command, points):
    path = tmp_path / "bad.ini"
    path.write_text(f"[problem]\nf_text = \"{F_SUB}\"\na_text = \"t\"\n"
                    f"[quadrature]\npoints = {points}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: points per panel must be 2, 4 or 6, got {points}:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_negative_seed_exits_usage(tmp_path, capsys, command):
    # numpy rejects a negative seed with a ValueError of its own
    argv = [command, "--seed", "-1", "--out", str(tmp_path)]
    if command == "solve":
        argv += ["--f", F_SUPER, "--a", "t^2"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not any(tmp_path.iterdir())


def test_negative_seed_in_a_config_exits_usage(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[output]\nseed = -1\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


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


@pytest.mark.parametrize("text, message", [
    ("[bogus]\nkey = 1\n", "unknown config section [bogus]"),
    ("[output]\nwrite_json = maybe\n", "boolean expected for write_json, got 'maybe'"),
])
def test_config_errors_exit_usage(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[problem]\nf_text = \"{F_SUB}\"\na_text = \"t\"\n{text}")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("yes", True), ("true", True), ("On", True),
    ("0", False), ("no", False), ("FALSE", False), ("off", False),
])
def test_config_reads_each_boolean_spelling(tmp_path, raw, value):
    path = tmp_path / "run.ini"
    path.write_text(f"[output]\nwrite_csv = {raw}\n")
    assert RunConfig.from_file(path).write_csv is value


def test_unquoted_expressions_in_a_config_solve_as_quoted(tmp_path, capsys):
    reports = []
    for name, quote in (("bare", ""), ("quoted", '"')):
        path = tmp_path / f"{name}.ini"
        path.write_text(f"[problem]\nf_text = {quote}u^2{quote}\na_text = {quote}t{quote}\n")
        out = tmp_path / name
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_text())
    assert capsys.readouterr().err == ""
    assert reports[0] == reports[1] and json.loads(reports[0])["f"] == "u^2"


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nmystery = 1\n")
    with pytest.raises(InvalidConfig):
        RunConfig.from_file(path)


@pytest.mark.parametrize("text", [
    b'[problem]\nf_text = "u"\n[problem]\na_text = "t"\n',
    b'tol = 1e-8\n[problem]\n',
    b'[solver]\ntol = 1e-8\ntol = 1e-9\n',
    b'[problem]\nf_text = "u%2"\n',
    b'\xff\xfe[problem]\n',
], ids=["section-twice", "key-before-header", "key-twice", "bad-interpolation", "not-utf8"])
def test_config_parse_errors_exit_usage(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert err.count("\n") == 1


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


def test_solve_report_records_the_witness(tmp_path):
    assert main(["solve", "--f", F_SUPER, "--a", "t^2", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["r"] < report["sup_norm"] < report["R"] and report["in_annulus"] is True


def test_solve_reports_a_solution_outside_any_annulus(tmp_path):
    # u^2 exp(u/10) expands only where it overflows, so there is no witness;
    # Newton from the scan over f's finite range still finds sup ~31
    code = main(["solve", "--f", "u^2*exp(u/10)", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["positive"] is True and report["in_annulus"] is False
    assert report["r"] is None and report["R"] is None
    assert report["sup_norm"] == pytest.approx(31.03, rel=1e-3)


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


def test_failed_newton_solve_exits_usage(tmp_path, capsys, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    # Picard ends on the trivial solution, so Newton runs and fails
    monkeypatch.setattr(np.linalg, "solve", singular)
    out = tmp_path / "out"
    assert main(["solve", "--f", F_SUPER, "--a", "t^2", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: Newton linear solve failed: Singular matrix\n"
    assert captured.out == ""
    assert not (out / "report.json").exists()


def test_solve_parse_error_exits_usage(tmp_path, capsys):
    code = main(["solve", "--f", "u++", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_constant_that_is_not_finite_exits_usage(tmp_path, capsys):
    code = main(["solve", "--f", "1e999", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: constant '1e999' is not finite (at position 0)\n")


@pytest.mark.parametrize("f, sup, method", [
    ("u^2*exp(u)", 5.9217, "newton"), ("exp(u)", 0.022478, "picard")])
def test_solve_past_an_overflow_of_f(tmp_path, f, sup, method):
    # f overflows inside [0, 1e3]; that ends the sampled range, not the run
    assert main(["solve", "--f", f, "--a", "t", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["positive"] and report["method"] == method
    assert report["sup_norm"] == pytest.approx(sup, rel=1e-4)


@pytest.mark.parametrize("f", ["sqrt(u-0.01)", "log(u)", "exp(u)+sqrt(u-0.5)"])
def test_solve_f_outside_its_domain_exits_hypothesis(tmp_path, capsys, f):
    # an invalid operation or a division by zero before any overflow
    assert main(["solve", "--f", f, "--a", "t", "--out", str(tmp_path)]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().out.startswith("hypothesis violation: f is not finite at u = ")


@pytest.mark.parametrize("command, artifact", [("solve", "report.json"),
                                               ("classify", "classify.json")])
@pytest.mark.parametrize("f", [
    # negative from 1.33e4 up, and not finite above 1e4: past the linear points
    "u^2*(1-u/1e4)", "sqrt(1e4-u)",
    # negative only between log-grid points, where the linear points catch it
    "(u-2.5)^2-0.01",
])
def test_f_is_checked_on_its_whole_sample(tmp_path, capsys, command, artifact, f):
    assert main([command, "--f", f, "--a", "t", "--out", str(tmp_path)]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert out.startswith("hypothesis violation: ") and out.count("\n") == 1
    payload = json.loads((tmp_path / artifact).read_text())
    assert payload["hypotheses_ok"] is False
    assert payload["violations"] == [out.removeprefix("hypothesis violation: ").rstrip("\n")]


@pytest.mark.parametrize("command, artifact", [("solve", "report.json"),
                                               ("classify", "classify.json")])
@pytest.mark.parametrize("theta", ["1e-54", "1e-60"])
def test_theta_that_leaves_delta_min_undefined_exits_hypothesis(tmp_path, capsys, command,
                                                                artifact, theta):
    # gamma^2 underflows to 0, so delta_min and the certificate are undefined:
    # one violation line and a record, not a traceback
    code = main([command, "--f", "u^2", "--a", "t", "--theta", theta, "--out", str(tmp_path)])
    assert code == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert out.startswith("hypothesis violation: gamma = ") and out.count("\n") == 1
    payload = json.loads((tmp_path / artifact).read_text())
    assert payload["hypotheses_ok"] is False
    assert payload["violations"] == [out.removeprefix("hypothesis violation: ").rstrip("\n")]


def test_theta_near_the_overflow_classifies_without_a_warning(tmp_path, capsys):
    # delta_min = 3.6e301 is finite, and delta_min u overflows on the grid;
    # the tests run with warnings as errors, so any warning fails this
    code = main(["classify", "--f", "u^2", "--a", "t", "--theta", "1e-50", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "classification: indeterminate (epsilon_max = 3, delta_min = 3.6e+301)\n")


def test_classify_evaluates_f_once(tmp_path, monkeypatch):
    # make_problem samples f once, on the linear and the log grid merged,
    # and derives the violations and the certificate from that sample
    sizes, call = [], Expression.__call__

    def counted(self, x):
        if self.var_name == "u":
            sizes.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(Expression, "__call__", counted)
    assert main(["classify", "--f", F_SUPER, "--a", "t^2", "--out", str(tmp_path)]) == EXIT_OK
    assert len(sizes) == 1 and sizes[0] >= 2401


def _strict_json(path):
    """path's JSON, read as RFC 8259 reads it: NaN and Infinity raise."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_artifacts_are_strict_json(tmp_path, monkeypatch):
    # a weight that is not finite at a node of the rule leaves the cone
    # constants nan, and a nan kernel point leaves verify's margins nan
    for command, artifact in (("solve", "report.json"), ("classify", "classify.json")):
        out = tmp_path / command
        code = main([command, "--f", "u^2", "--a", "sqrt(t-0.5)", "--out", str(out)])
        assert code == EXIT_HYPOTHESIS
        payload = _strict_json(out / artifact)
        assert [payload[key] for key in ("alpha", "beta", "gamma")] == [None, None, None]

    def corrupted(t, s, **buffers):
        return green(t, s, **buffers) + np.where(np.asarray(t) > 0.96, np.nan, 0.0)

    monkeypatch.setattr(verify, "green", corrupted)
    assert main(["verify", "--out", str(tmp_path / "verify")]) == EXIT_CHECK_FAILED
    scorecard = _strict_json(tmp_path / "verify" / "verify.json")
    assert None in [check["margin"] for check in scorecard["checks"]]


def test_json_writer_writes_non_finite_numbers_as_null(tmp_path):
    # a diverged report's error_estimate is inf; finite numbers keep their bytes
    cli._write_json(tmp_path / "out.json", {
        "error_estimate": np.inf, "ok": True,
        "margins": [np.float64(0.1), -np.inf, (np.nan, 1e-300, 3)],
    })
    assert (tmp_path / "out.json").read_text() == json.dumps({
        "error_estimate": None, "ok": True, "margins": [0.1, None, [None, 1e-300, 3]],
    }, indent=2) + "\n"


def test_missing_expression_exits_usage(tmp_path):
    assert main(["solve", "--a", "t", "--out", str(tmp_path)]) == EXIT_USAGE


def test_classify_examples(tmp_path):
    out = tmp_path / "c1"
    assert main(["classify", "--f", F_SUPER, "--a", "t^2", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "classify.json").read_text())
    assert payload["classification"] == "superlinear"
    assert payload["epsilon_max"] == pytest.approx(4.0, abs=1e-12)
    assert payload["r"] < payload["R"]

    out2 = tmp_path / "c2"
    assert main(["classify", "--f", F_SUB, "--a", "t", "--out", str(out2)]) == EXIT_OK
    payload2 = json.loads((out2 / "classify.json").read_text())
    assert payload2["classification"] == "sublinear"
    assert payload2["epsilon_max"] == pytest.approx(3.0, abs=1e-12)
    assert payload2["R"] < payload2["r"]


@pytest.mark.parametrize("f, a", [("1/u", "t"), ("u^2", "2*t")])
def test_classify_checks_hypotheses(tmp_path, capsys, f, a):
    # 1/u is not finite at 0; 2t integrates to alpha = 1
    assert main(["classify", "--f", f, "--a", a, "--out", str(tmp_path)]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().out.startswith("hypothesis violation: ")
    assert json.loads((tmp_path / "classify.json").read_text())["hypotheses_ok"] is False


@pytest.mark.parametrize("command, artifact", [("solve", "report.json"),
                                               ("classify", "classify.json")])
def test_weight_not_finite_at_a_node_exits_hypothesis(tmp_path, capsys, command, artifact):
    # make_problem integrates a at the rule's nodes before it checks a on its
    # grid; an invalid value there is an a-domain violation, not a usage error
    code = main([command, "--f", "u^2", "--a", "sqrt(t-0.5)", "--out", str(tmp_path)])
    assert code == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert out == "hypothesis violation: a is not finite on [0, 1]: invalid value encountered in sqrt\n"
    payload = json.loads((tmp_path / artifact).read_text())
    assert payload["hypotheses_ok"] is False and len(payload["violations"]) == 1


def test_classify_linear_indeterminate(tmp_path):
    assert main(["classify", "--f", "u", "--a", "t", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["classification"] == "indeterminate"


def test_verify_passes_and_writes_scorecard(tmp_path):
    code = main(["verify", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_OK
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    assert scorecard["all_passed"]
    assert all(c["passed"] for c in scorecard["checks"])


def test_verify_accepts_wide_theta(tmp_path):
    # the kernel bounds hold for every theta below one half
    code = main(["verify", "--theta", "0.49", "--out", str(tmp_path)])
    assert code == EXIT_OK
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    names = {c["name"] for c in scorecard["checks"]}
    assert "green_strip_floor_theta_0.49" in names


@pytest.mark.parametrize("theta, strips", [
    (0.25, (0.1, 0.25, 0.4)),
    (0.49, (0.1, 0.25, 0.4, 0.49)),
])
def test_verify_json_shape(tmp_path, theta, strips):
    assert main(["verify", "--theta", str(theta), "--out", str(tmp_path)]) == EXIT_OK
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    assert list(scorecard) == ["seed", "grid_m", "theta", "checks", "all_passed"]
    assert [type(scorecard[key]) for key in scorecard] == [int, int, float, list, bool]
    assert [c["name"] for c in scorecard["checks"]] == [
        "green_nonnegative", "green_lower_envelope", "green_upper_envelope",
        *(f"green_strip_floor_theta_{th}" for th in strips),
        "green_triangle_floor", "green_branch_match", "kernel_upper_bound",
        "linear_path_agreement", "green_sum_exact_on_cubics", "solution_cone_floor",
        "operator_cone_floor",
    ]
    for check in scorecard["checks"]:
        assert list(check) == ["name", "margin", "tolerance", "passed"]
        assert [type(check[key]) for key in check] == [str, float, float, bool]


def test_classify_json_carries_the_witness(tmp_path):
    assert main(["classify", "--f", F_SUPER, "--a", "t^2", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["r"] == pytest.approx(10**0.5) and payload["R"] == pytest.approx(10**7.75)
    assert not {"f0", "finf", "f0_kind", "f0_value", "finf_kind", "finf_value"} & payload.keys()
    for key in ("alpha", "beta", "gamma", "epsilon_max", "delta_min"):
        assert key in payload
    assert main(["classify", "--f", "u", "--a", "t", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["r"] is None and payload["R"] is None


def test_verify_detects_perturbed_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "green",
                        lambda t, s, **buffers: green(t, s, **buffers) - 0.01)
    code = main(["verify", "--a", "t", "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    scorecard = json.loads((tmp_path / "verify.json").read_text())
    failed = {c["name"] for c in scorecard["checks"] if not c["passed"]}
    assert failed == {"green_nonnegative", "green_lower_envelope", "green_triangle_floor",
                      *(f"green_strip_floor_theta_{th}" for th in (0.1, 0.25, 0.4))}


def test_green_small_table(tmp_path):
    assert main(["green", "--out", str(tmp_path), "--grid-m", "3"]) == EXIT_OK
    lines = (tmp_path / "green.csv").read_text().splitlines()
    assert lines[0] == "t,s,G,kernel,lower_envelope,upper_envelope"
    assert len(lines) == 10
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    corners = rows[(rows[:, 0] == 0.0) | (rows[:, 1] == 1.0)]
    assert np.all(corners[:, 2] == 0.0)


def test_green_table_is_built_in_row_blocks(tmp_path, monkeypatch, traced_peak):
    # the blocks are drained unformatted: the writer holds one row at a time,
    # and formatting 160801 rows under tracemalloc takes seconds
    rows = []
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, header, blocks: rows.extend(len(b) for b in blocks))
    argv = ["green", "--a", "t^2", "--grid-m", "401", "--out", str(tmp_path)]
    # the whole 160801 x 6 table and its columns at once peaked at 14.8 MiB
    assert traced_peak(lambda: main(argv)) <= 6.0
    assert sum(rows) == 401 * 401


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


def test_csv_writer_matches_per_value_formatting(tmp_path):
    # the reference is the per-row loop the writer replaced: every value
    # through f"{x:.17g}", including nan, infinities, -0 and subnormals
    rng = np.random.default_rng(3)
    block = np.vstack([
        [[np.nan, np.inf, -np.inf, -0.0], [5e-324, 1e-300, 1e300, 0.1]],
        rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-300, 300, (40, 4)),
    ])
    cli._write_csv(tmp_path / "t.csv", "a,b,c,d", [block[:17], block[17:]])
    expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in block)
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n" + expected


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
    proc = _run_cold("-m", "beambvp", "classify", "--f", "u", "--a", "t",
                     "--out", str(tmp_path))
    assert proc.returncode == EXIT_OK
    assert "indeterminate" in proc.stdout


def test_every_command_runs_without_scipy(tmp_path):
    # None in sys.modules makes any import of scipy fail, so a fresh process
    # with it blocked shows that no command and neither oracle needs scipy
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from beambvp import fd_solve_nonlinear, parse\n"
        "from beambvp.cli import main\n"
        "args = ['--f', sys.argv[1], '--a', 't^2', '--out', sys.argv[2]]\n"
        "codes = [main([command, *args]) for command in ('solve', 'classify', 'green')]\n"
        "codes.append(main(['verify', '--out', sys.argv[2]]))\n"
        "fd = fd_solve_nonlinear(parse(sys.argv[3], 'u'), parse('t^2', 't'), 1001)\n"
        "print(codes, fd.converged)\n"
    )
    proc = _run_cold("-c", script, F_SUPER, str(tmp_path), F_SUB)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[EXIT_OK] * 4} True"


def test_verify_from_a_cold_process(tmp_path):
    # the oracles and the kernel sweep in a fresh interpreter, as the
    # console command runs them
    proc = _run_cold("-m", "beambvp", "verify", "--out", str(tmp_path))
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"]


def test_solve_from_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(f'[problem]\nf_text = "{F_SUB}"\na_text = "t"\n\n'
                    f'[output]\nout_dir = {tmp_path / "out"}\n')
    assert main(["solve", "--config", str(path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "picard"
    assert report["in_cone"] is True


def test_flag_overrides_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(f'[problem]\nf_text = "0*u"\na_text = "t"\n\n'
                    f'[output]\nout_dir = {tmp_path}\n')
    # the flag replaces the config's trivial nonlinearity
    code = main(["solve", "--config", str(path), "--f", F_SUB])
    assert code == EXIT_OK


def test_json_only_artifacts(tmp_path):
    code = main(["solve", "--f", F_SUB, "--a", "t", "--out", str(tmp_path), "--json"])
    assert code == EXIT_OK
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "solution.csv").exists()


def test_csv_only_and_json_only_artifacts_match_a_full_solve(tmp_path):
    args = ["solve", "--f", F_SUB, "--a", "t"]
    for name, flags in (("full", []), ("json", ["--json"]), ("csv", ["--csv"]),
                        ("both", ["--json", "--csv"])):
        assert main([*args, "--out", str(tmp_path / name), *flags]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "json").iterdir()) == ["report.json"]
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == ["solution.csv"]
    for name, artifact in (("json", "report.json"), ("csv", "solution.csv"),
                           ("both", "report.json"), ("both", "solution.csv")):
        assert (tmp_path / name / artifact).read_bytes() == \
            (tmp_path / "full" / artifact).read_bytes()


def test_main_calls_share_one_parser_and_stay_independent(tmp_path):
    # one process, many main calls (as a long-lived caller makes them): the
    # parser is built once, and no flag of one call reaches the next
    assert cli.build_parser() is cli.build_parser()
    args = ["solve", "--f", F_SUB, "--a", "t"]
    assert main([*args, "--out", str(tmp_path / "json"), "--json"]) == EXIT_OK
    assert main([*args, "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == \
        ["report.json", "solution.csv"]
    assert main(["solve", "--a", "t", "--out", str(tmp_path / "no-f")]) == EXIT_USAGE
    assert main(["green", "--grid-m", "3", "--out", str(tmp_path / "small")]) == EXIT_OK
    assert main(["green", "--out", str(tmp_path / "default")]) == EXIT_OK
    lines = (tmp_path / "default" / "green.csv").read_text().splitlines()
    assert len(lines) == 1 + 101 * 101
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus"])
    assert exc.value.code == EXIT_USAGE
    assert main([*args, "--out", str(tmp_path / "after")]) == EXIT_OK


def test_missing_config_file():
    assert main(["solve", "--config", "/nonexistent/run.ini"]) == EXIT_USAGE


def test_config_that_is_a_directory_exits_usage(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path), "--f", F_SUB, "--a", "t",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {tmp_path}: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("f, code", [
    (F_SUPER, EXIT_OK), (F_SUB, EXIT_OK), ("u^2*exp(u)", EXIT_OK), ("1e999", EXIT_USAGE)])
def test_cold_solve_emits_no_runtime_warning(tmp_path, f, code):
    # with RuntimeWarning an error, any warning that escaped the evaluator or
    # the solver would end the process with a traceback
    proc = _run_cold("-W", "error::RuntimeWarning", "-m", "beambvp", "solve",
                     "--f", f, "--a", "t", "--out", str(tmp_path))
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command, compute", [
    (["solve", "--f", F_SUB, "--a", "t"], "solve_auto"),
    (["verify"], "run_checks"),
    (["classify", "--f", F_SUPER, "--a", "t"], "make_problem"),
], ids=["solve", "verify", "classify"])
def test_out_that_cannot_be_a_directory_exits_usage(tmp_path, capsys, monkeypatch,
                                                     command, compute, under):
    # the directory is made before the command computes anything, and the
    # OSError becomes one error line, not a traceback
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was checked")

    monkeypatch.setattr(cli, compute, unreachable)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    assert main([*command, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(out) in err


@pytest.mark.parametrize("command, artifact", [
    (["solve", "--f", F_SUB, "--a", "t"], "solution.csv"),
    (["verify"], "verify.json"),
    (["green", "--grid-m", "3"], "green.csv"),
], ids=["solve", "verify", "green"])
def test_artifact_that_cannot_be_written_exits_usage(tmp_path, capsys, command, artifact):
    (tmp_path / artifact).mkdir()
    assert main([*command, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(tmp_path / artifact) in err


def test_importing_the_cli_loads_no_other_module():
    # after numpy and the standard modules the package imports itself, the
    # CLI adds only beambvp's own: no import on the cold path (a thread pool
    # from concurrent.futures, say) pays for modules that nothing else loads
    script = (
        "import sys\n"
        "import __future__, argparse, configparser, dataclasses, functools, json, math, os\n"
        "import pathlib, re, threading, typing\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import beambvp.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'beambvp'))\n"
    )
    proc = _run_cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
