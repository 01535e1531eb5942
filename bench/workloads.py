"""Benchmark workloads: the inputs of every operation, drawn from a seed.

Nothing here imports beambvp, so input generation costs the same on every
commit. Each workload is a fixed list of operations (one pass); a run repeats
whole passes, so two runs with one seed see the same inputs and the same
outcomes however many passes fit in the measured time.

Parameters are drawn by Latin hypercube sampling over the whole stated range,
so every pass covers the range evenly and the failure share and worst error
swing less with the seed. No draw is dropped or redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUPERLINEAR = "superlinear"
SUBLINEAR = "sublinear"
ALPHA_RANGE = (0.1, 0.8)
K_VALUES = (1, 2, 3)

# 128 panels x 4 Gauss points: N = 512 collocation nodes
FINE_CONFIG = """[quadrature]
rule = composite-gauss-legendre
panels = 128
points = 4
"""


@dataclass(frozen=True)
class Input:
    """One operation: the CLI subcommand, its arguments (without --out and
    --config), the family parameters behind them, and the growth class the
    existence theorem assigns to f (None for verify)."""

    command: str
    args: tuple
    params: dict
    growth: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str        # "inprocess": cli.main in this process; "subprocess": python -m beambvp
    tail_pct: float    # fixed per workload so the tail means the same on every commit
    size: str          # the input size throughput is stated at
    draw: object       # draw(rng) -> list[Input]
    config: str | None = None   # INI text passed to solve operations via --config

    def generate(self, seed: int) -> list[Input]:
        return self.draw(np.random.default_rng(seed))

    def prepare(self, seed: int, workdir: Path):
        """Inputs plus the config file they name, written into workdir."""
        config_path = None
        if self.config is not None:
            config_path = workdir / f"{self.name}.ini"
            config_path.write_text(self.config)
        return self.generate(seed), config_path


def _strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _family(rng, n, b_range, f_template, growth):
    """f = b * g(u), a = c t^k with alpha = c / (k + 1) in ALPHA_RANGE.

    (alpha, b) form a Latin hypercube; the values of k are used equally
    often, up to one draw when n is not a multiple of three.
    """
    lo, hi = ALPHA_RANGE
    alphas = lo + (hi - lo) * _strata(rng, n)
    bs = b_range[0] + (b_range[1] - b_range[0]) * _strata(rng, n)
    ks = np.array(K_VALUES)[rng.permutation(n) % len(K_VALUES)]
    inputs = []
    for alpha, b, k in zip(alphas, bs, ks):
        k = int(k)
        b_text = f"{b:.6g}"
        c_text = f"{alpha * (k + 1):.6g}"
        params = {"b": float(b_text), "k": k, "c": float(c_text),
                  "alpha": float(c_text) / (k + 1)}
        args = ("--f", f_template.format(b=b_text), "--a", f"{c_text}*t^{k}")
        inputs.append(Input("solve", args, params, growth))
    return inputs


def _superlinear(rng, n):
    return _family(rng, n, (0.5, 2.0), "{b}*u^2*(exp(-u)+1)", SUPERLINEAR)


def _draw_multistart(rng):
    return _superlinear(rng, 36)


def _draw_fine(rng):
    # the error grows as b falls (3.4e-9 at b = 0.5, 5e-10 at b = 4), so the
    # worst error is set by the lowest b stratum; 30 strata keep it narrow
    return _family(rng, 30, (0.5, 4.0), "{b}*(sqrt(1+u)+sin(u))", SUBLINEAR)


def _draw_verify(rng):
    # ten seeds, so the worst oracle gap is a maximum over 100 random forcings
    seeds = rng.integers(0, 2**31, size=10)
    return [Input("verify", ("--seed", str(int(s))), {"seed": int(s)}) for s in seeds]


def _draw_cold(rng):
    # 14 inputs keep the worst error steady across seeds; the pass of 28
    # processes takes about as long as a whole 20 s run
    ops = []
    for inp in _superlinear(rng, 14):
        ops.append(inp)
        ops.append(Input("classify", inp.args, inp.params, inp.growth))
    return ops


# BENCHMARK.json says why each workload is here and which layers it stresses
WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-multistart", "inprocess", 90.0,
        "N=32 (8 panels x 4 points), 36 inputs per pass",
        _draw_multistart),
    Workload(
        "solve-fine", "inprocess", 75.0,
        "N=512 (128 panels x 4 points), 30 inputs per pass",
        _draw_fine, FINE_CONFIG),
    Workload(
        "verify-suite", "inprocess", 75.0,
        "1001x1001 kernel grid, 10 check seeds per pass",
        _draw_verify),
    Workload(
        "cli-cold", "subprocess", 75.0,
        "one python -m beambvp process per operation, 14 solve + 14 classify per pass",
        _draw_cold),
)}
