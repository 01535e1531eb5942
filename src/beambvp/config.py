"""Run configuration: defaults, validation, and the on-disk format.

Configs are plain INI files with [problem], [quadrature], [solver] and
[output] sections; expression values may be quoted.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .analysis import check_theta
from .errors import InvalidConfig
from .quadrature import GAUSS_LEGENDRE, check_rule

# [quadrature] rule may name the one rule the package has, in these spellings
_RULE_NAMES = ("gauss", "gauss-legendre", GAUSS_LEGENDRE)

_SECTIONS = {
    "problem": ("f_text", "a_text", "theta"),
    "quadrature": ("rule", "panels", "points"),
    "solver": ("tol", "max_iter"),
    "output": ("out_dir", "write_json", "write_csv", "seed"),
}


@dataclass
class RunConfig:
    f_text: str = ""
    a_text: str = ""
    theta: float = 0.25
    panels: int = 8
    points: int = 4
    tol: float = 1e-10
    max_iter: int = 500
    out_dir: str = "."
    write_json: bool = True
    write_csv: bool = True
    seed: int = 20240901

    def validate(self) -> "RunConfig":
        check_theta(self.theta)
        if not 0.0 < self.tol < math.inf:
            raise InvalidConfig("tol must be positive and finite")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be positive")
        check_rule(self.panels, self.points)
        if self.seed < 0:
            # numpy's generators take only nonnegative seeds
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")
        return self

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise InvalidConfig(f"config file not found: {path}")
        cp = configparser.ConfigParser()
        try:
            # read_file, unlike read, fails on a path it cannot open
            with open(path, encoding="utf-8") as handle:
                cp.read_file(handle)
            sections = {section: dict(cp[section]) for section in cp.sections()}
        except (OSError, configparser.Error, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())
            raise InvalidConfig(f"cannot read config file {path}: {detail}") from None
        kwargs = {}
        for section, items in sections.items():
            if section not in _SECTIONS:
                raise InvalidConfig(f"unknown config section [{section}]")
            for name, raw in items.items():
                if name not in _SECTIONS[section]:
                    raise InvalidConfig(f"unknown key {name!r} in [{section}]")
                if name != "rule":
                    kwargs[name] = _parse(name, raw)
                elif raw.strip() not in _RULE_NAMES:
                    raise InvalidConfig(f"unsupported quadrature rule {raw.strip()!r}")
        return cls(**kwargs)

    def override(self, **changes) -> "RunConfig":
        actual = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **actual)


def _parse(name, raw):
    raw = raw.strip()
    if name in ("f_text", "a_text"):
        if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
            return raw[1:-1]
        return raw
    try:
        if name in ("theta", "tol"):
            return float(raw)
        if name in ("panels", "points", "max_iter", "seed"):
            return int(raw)
    except ValueError:
        raise InvalidConfig(f"number expected for {name}, got {raw!r}") from None
    if name in ("write_json", "write_csv"):
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise InvalidConfig(f"boolean expected for {name}, got {raw!r}") from None
    return raw
