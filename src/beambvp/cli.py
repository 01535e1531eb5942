"""Command-line front end.

Subcommands: solve, verify, classify (alias certificate), green.
Exit codes: 0 success, 1 usage or parse error, 2 no positive solution
was found, 3 hypothesis violation, 4 a verification check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import certificate, make_problem, validate_hypotheses
from .config import RunConfig
from .errors import BeamBVPError, HypothesisViolation, InvalidConfig
from .expressions import parse
from .kernel import green, kernel_weight, lower_envelope, upper_envelope
from .quadrature import integrate, make_quadrature
from .solver import apply, solve_auto
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRIVIAL = 2
EXIT_HYPOTHESIS = 3
EXIT_CHECK_FAILED = 4


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="read settings from an INI file")
    common.add_argument("--f", metavar="EXPR", help="nonlinearity f(u)")
    common.add_argument("--a", metavar="EXPR", help="boundary weight a(t)")
    common.add_argument("--theta", type=float, metavar="R", help="cone strip parameter in (0, 1/2)")
    common.add_argument("--seed", type=int, metavar="N", help="seed for randomized checks")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--json", action="store_true", help="write only the JSON artifact")
    common.add_argument("--csv", action="store_true", help="write only the CSV artifact")

    parser = argparse.ArgumentParser(
        prog="beambvp",
        description="Solve u'''' + f(u) = 0 with u'(0)=u'(1)=u''(0)=0 and "
                    "u(0) = integral a(s) u(s) ds, and verify the kernel "
                    "facts the method rests on.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="find a positive solution")
    verify = sub.add_parser("verify", parents=[common], help="run the invariant checks")
    verify.add_argument("--green-offset", type=float, default=0.0,
                        help="testing hook: evaluate kernel checks on G + offset")
    verify.add_argument("--grid-m", type=int, default=1001, help="sweep grid size")
    for name in ("classify", "certificate"):
        sub.add_parser(name, parents=[common], help="growth classification and thresholds")
    green_cmd = sub.add_parser("green", parents=[common], help="tabulate the kernel to CSV")
    green_cmd.add_argument("--grid-m", type=int, default=101, help="table grid size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.green_offset, args.grid_m)
        if args.command in ("classify", "certificate"):
            return cmd_classify(cfg)
        return cmd_green(cfg, args.grid_m)
    except BeamBVPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS if isinstance(exc, HypothesisViolation) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.override(f_text=args.f, a_text=args.a, theta=args.theta,
                       seed=args.seed, out_dir=args.out)
    if args.json or args.csv:
        cfg = cfg.override(write_json=args.json, write_csv=args.csv)
    return cfg.validate()


def _outdir(cfg) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _problem(cfg, artifact):
    """The run's problem. When it violates the hypotheses, each violation is
    printed and recorded in the JSON artifact, and HypothesisViolation raised."""
    if not (cfg.f_text and cfg.a_text):
        raise InvalidConfig("f(u) and a(t) expressions are required (--f, --a or config)")
    quad = make_quadrature(cfg.rule, cfg.panels, cfg.points)
    problem = make_problem(cfg.f_text, cfg.a_text, cfg.theta, quad)
    validation = validate_hypotheses(problem)
    if validation.ok:
        return problem
    payload = {**_base_payload(cfg, problem), "hypotheses_ok": False,
               "violations": [v.message for v in validation.violations]}
    if cfg.write_json:
        _write_json(_outdir(cfg) / artifact, payload)
    for violation in validation.violations:
        print(f"hypothesis violation: {violation.message}")
    raise HypothesisViolation("f or a violates the hypotheses of the existence theorem")


def cmd_solve(cfg: RunConfig) -> int:
    problem = _problem(cfg, "report.json")
    out = _outdir(cfg)
    report = solve_auto(problem, tol=cfg.tol, max_iter=cfg.max_iter)
    payload = _base_payload(cfg, problem)
    payload.update({
        "hypotheses_ok": True,
        "method": report.method,
        "converged": report.converged,
        "positive": report.positive,
        "diverged": report.diverged,
        "iterations": report.iterations,
        "fp_residual": report.fp_residual,
        "error_estimate": report.error_estimate,
        "in_cone": report.in_cone,
        "sup_norm": report.solution.sup_norm(),
    })
    if cfg.write_json:
        _write_json(out / "report.json", payload)
    if cfg.write_csv:
        au = apply(report.operator, report.solution)
        rows = np.column_stack([
            report.solution.nodes, report.solution.values, au.values,
            np.abs(report.solution.values - au.values),
        ])
        _write_csv(out / "solution.csv", "t,u,Au,fp_residual", rows)
    ok = report.converged and report.positive
    status = "positive solution" if ok else ("trivial solution only" if report.converged
                                             else "no convergence")
    print(f"{status}: sup|u| = {report.solution.sup_norm():.6g}, "
          f"fp_residual = {report.fp_residual:.3g}, iterations = {report.iterations}")
    return EXIT_OK if ok else EXIT_TRIVIAL


def cmd_classify(cfg: RunConfig) -> int:
    problem = _problem(cfg, "classify.json")
    cert = certificate(problem)
    payload = _base_payload(cfg, problem)
    payload.update({
        "f0": _limit_json(cert.f0),
        "finf": _limit_json(cert.finf),
        "f0_kind": cert.f0.kind,
        "f0_value": cert.f0.value,
        "finf_kind": cert.finf.kind,
        "finf_value": cert.finf.value,
        "classification": cert.classification,
        "epsilon_max": cert.epsilon_max,
        "delta_min": cert.delta_min,
    })
    if cfg.write_json:
        _write_json(_outdir(cfg) / "classify.json", payload)
    print(f"classification: {cert.classification} "
          f"(epsilon_max = {cert.epsilon_max:.6g}, delta_min = {cert.delta_min:.6g})")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, green_offset: float, grid_m: int) -> int:
    scorecard = run_checks(seed=cfg.seed, green_offset=green_offset,
                           grid_m=grid_m, theta=cfg.theta)
    if cfg.write_json:
        _write_json(_outdir(cfg) / "verify.json", scorecard)
    print(f"seed {cfg.seed}, grid {grid_m}x{grid_m}")
    for check in scorecard["checks"]:
        flag = "pass" if check["passed"] else "FAIL"
        print(f"[{flag}] {check['name']}: margin {check['margin']:.3g} "
              f"(tolerance {check['tolerance']:.3g})")
    return EXIT_OK if scorecard["all_passed"] else EXIT_CHECK_FAILED


def cmd_green(cfg: RunConfig, grid_m: int) -> int:
    if grid_m < 2:
        raise InvalidConfig(f"--grid-m must be at least 2, got {grid_m}")
    ts = np.linspace(0.0, 1.0, grid_m)
    ss = np.linspace(0.0, 1.0, grid_m)
    quad = make_quadrature(cfg.rule, cfg.panels, cfg.points)
    if cfg.a_text:
        a = parse(cfg.a_text, "t")
        alpha = integrate(a, quad)
        weights = np.atleast_1d(kernel_weight(ss, a, alpha, quad))
    else:
        weights = np.zeros_like(ss)
    gmat = green(ts[:, None], ss[None, :])
    tcol = np.repeat(ts, grid_m)
    scol = np.tile(ss, grid_m)
    rows = np.column_stack([
        tcol, scol, gmat.ravel(), (gmat + weights[None, :]).ravel(),
        lower_envelope(ts[:, None], ss[None, :]).ravel(),
        np.tile(upper_envelope(ss), grid_m),
    ])
    _write_csv(_outdir(cfg) / "green.csv",
               "t,s,G,kernel,lower_envelope,upper_envelope", rows)
    print(f"wrote {rows.shape[0]} kernel samples")
    return EXIT_OK


def _limit_json(estimate):
    return estimate.value if estimate.kind == "finite" else "divergent"


def _base_payload(cfg, problem):
    return {
        "f": cfg.f_text,
        "a": cfg.a_text,
        "theta": problem.theta,
        "alpha": problem.cone.alpha,
        "beta": problem.cone.beta,
        "gamma": problem.cone.gamma,
        "quadrature": {"rule": cfg.rule, "panels": cfg.panels, "points": cfg.points},
        "seed": cfg.seed,
    }


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in np.asarray(rows):
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")
