"""Command-line front end.

Subcommands: solve, verify, classify, green.
Exit codes: 0 success, 1 usage or parse error (argparse's own usage errors
included) or an output directory or artifact that cannot be written, 2 no
positive solution was found, 3 hypothesis violation, 4 a verification check
failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .analysis import make_problem
from .config import RunConfig
from .errors import BeamBVPError, HypothesisViolation, InvalidConfig
from .expressions import parse
from .kernel import ROW_BLOCK, green, kernel_weight, lower_envelope, upper_envelope
from .quadrature import GAUSS_LEGENDRE, make_quadrature
from .solver import solve_auto
from .verify import GRID_M, run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRIVIAL = 2
EXIT_HYPOTHESIS = 3
EXIT_CHECK_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but 2 means no positive solution."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, so every main call parses with the same tree."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="read settings from an INI file")
    common.add_argument("--f", metavar="EXPR", help="nonlinearity f(u)")
    common.add_argument("--a", metavar="EXPR", help="boundary weight a(t)")
    common.add_argument("--theta", type=float, metavar="R", help="cone strip parameter in (0, 1/2)")
    common.add_argument("--seed", type=int, metavar="N", help="seed for randomized checks")
    common.add_argument("--out", metavar="DIR", help="output directory")

    parser = _Parser(
        prog="beambvp",
        description="Solve u'''' + f(u) = 0 with u'(0)=u'(1)=u''(0)=0 and "
                    "u(0) = integral a(s) u(s) ds, and verify the kernel "
                    "facts the method rests on.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="find a positive solution")
    sub.add_parser("verify", parents=[common], help="run the invariant checks")
    sub.add_parser("classify", parents=[common], help="growth classification and thresholds")
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
            return cmd_verify(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        return cmd_green(cfg, args.grid_m)
    except BeamBVPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS if isinstance(exc, HypothesisViolation) else EXIT_USAGE
    except OSError as exc:
        # from the output directory or an artifact: --out naming a file or a
        # path under one, or an artifact's name taken by a directory
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return cfg.override(f_text=args.f, a_text=args.a, theta=args.theta,
                        seed=args.seed, out_dir=args.out).validate()


def _outdir(cfg) -> Path:
    """The output directory, made; every command calls this first, so that a
    bad --out fails before anything is computed."""
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _problem(cfg, artifact: Path):
    """The run's problem. When it violates the hypotheses, each violation is
    printed and recorded in the JSON artifact at that path, and
    HypothesisViolation raised."""
    if not (cfg.f_text and cfg.a_text):
        raise InvalidConfig("f(u) and a(t) expressions are required (--f, --a or config)")
    quad = make_quadrature(cfg.panels, cfg.points)
    problem = make_problem(cfg.f_text, cfg.a_text, cfg.theta, quad)
    if not problem.violations:
        return problem
    payload = {**_base_payload(cfg, problem), "hypotheses_ok": False,
               "violations": [v.message for v in problem.violations]}
    _write_json(artifact, payload)
    for violation in problem.violations:
        print(f"hypothesis violation: {violation.message}")
    raise HypothesisViolation("f or a violates the hypotheses of the existence theorem")


def cmd_solve(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    problem = _problem(cfg, out / "report.json")
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
        "r": problem.certificate.r,
        "R": problem.certificate.R,
        "in_annulus": report.in_annulus,
    })
    _write_json(out / "report.json", payload)
    u = report.solution
    rows = np.column_stack([u.nodes, u.values, report.au, np.abs(u.values - report.au)])
    _write_csv(out / "solution.csv", "t,u,Au,fp_residual", [rows])
    status = ("positive solution" if report.positive else "no convergence" if not report.converged
              else "not positive" if report.nontrivial else "trivial solution only")
    print(f"{status}: sup|u| = {report.solution.sup_norm():.6g}, "
          f"fp_residual = {report.fp_residual:.3g}, iterations = {report.iterations}")
    return EXIT_OK if report.positive else EXIT_TRIVIAL


def cmd_classify(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    problem = _problem(cfg, out / "classify.json")
    cert = problem.certificate
    payload = _base_payload(cfg, problem)
    payload.update({
        "classification": cert.classification,
        "r": cert.r,
        "R": cert.R,
        "epsilon_max": cert.epsilon_max,
        "delta_min": cert.delta_min,
    })
    _write_json(out / "classify.json", payload)
    print(f"classification: {cert.classification} "
          f"(epsilon_max = {cert.epsilon_max:.6g}, delta_min = {cert.delta_min:.6g})")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    scorecard = run_checks(seed=cfg.seed, theta=cfg.theta)
    _write_json(out / "verify.json", scorecard)
    print(f"seed {cfg.seed}, grid {GRID_M}x{GRID_M}")
    for check in scorecard["checks"]:
        flag = "pass" if check["passed"] else "FAIL"
        print(f"[{flag}] {check['name']}: margin {check['margin']:.3g} "
              f"(tolerance {check['tolerance']:.3g})")
    return EXIT_OK if scorecard["all_passed"] else EXIT_CHECK_FAILED


def cmd_green(cfg: RunConfig, grid_m: int) -> int:
    out = _outdir(cfg)
    if grid_m < 2:
        raise InvalidConfig(f"--grid-m must be at least 2, got {grid_m}")
    ss = np.linspace(0.0, 1.0, grid_m)
    quad = make_quadrature(cfg.panels, cfg.points)
    if cfg.a_text:
        weights = kernel_weight(ss, parse(cfg.a_text, "t"), quad)
    else:
        weights = np.zeros_like(ss)

    def blocks():
        # ROW_BLOCK t-rows at a time: the table is never held whole
        for start in range(0, grid_m, ROW_BLOCK):
            ts = ss[start:start + ROW_BLOCK]
            gmat = green(ts[:, None], ss[None, :])
            yield np.column_stack([
                np.repeat(ts, grid_m), np.tile(ss, ts.size), gmat.ravel(),
                (gmat + weights[None, :]).ravel(),
                lower_envelope(ts[:, None], ss[None, :]).ravel(),
                np.tile(upper_envelope(ss), ts.size),
            ])

    _write_csv(out / "green.csv",
               "t,s,G,kernel,lower_envelope,upper_envelope", blocks())
    print(f"wrote {grid_m * grid_m} kernel samples")
    return EXIT_OK


def _base_payload(cfg, problem):
    return {
        "f": cfg.f_text,
        "a": cfg.a_text,
        "theta": problem.theta,
        "alpha": problem.cone.alpha,
        "beta": problem.cone.beta,
        "gamma": problem.cone.gamma,
        "quadrature": {"rule": GAUSS_LEGENDRE, "panels": cfg.panels, "points": cfg.points},
        "seed": cfg.seed,
    }


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(_finite(payload), handle, indent=2, allow_nan=False)
        handle.write("\n")


def _finite(value):
    """value with every float that is not finite as None: JSON has no nan."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _write_csv(path, header, blocks) -> None:
    """Write the rows of each 2-D block in turn, every value to 17 digits."""
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for block in blocks:
            row = ",".join(["%.17g"] * block.shape[1]) + "\n"
            # 1024 rows per write: a green.csv block at --grid-m 1001 has
            # 64064 rows, and its Python floats at once would take ~27 MiB
            for start in range(0, len(block), 1024):
                rows = block[start:start + 1024].tolist()
                handle.write("".join([row % tuple(r) for r in rows]))
