"""Run configuration: defaults, validation, and the on-disk format.

Configs are plain INI files with [problem], [quadrature], [solver] and
[output] sections; expression values are quoted. Every field written by
to_file is read back verbatim by from_file.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InvalidConfig
from .quadrature import GAUSS_LEGENDRE

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
    rule: str = GAUSS_LEGENDRE
    panels: int = 8
    points: int = 4
    tol: float = 1e-10
    max_iter: int = 500
    out_dir: str = "."
    write_json: bool = True
    write_csv: bool = True
    seed: int = 20240901

    def validate(self) -> "RunConfig":
        if not 0.0 < self.theta < 0.5:
            raise InvalidConfig(f"theta must lie in (0, 1/2), got {self.theta}")
        if not 0.0 < self.tol < math.inf:
            raise InvalidConfig("tol must be positive and finite")
        if self.max_iter < 1 or self.panels < 1 or self.points < 1:
            raise InvalidConfig("max_iter, panels and points must be positive")
        return self

    def to_file(self, path) -> None:
        cp = configparser.ConfigParser()
        for section, names in _SECTIONS.items():
            cp[section] = {}
            for name in names:
                cp[section][name] = _format(name, getattr(self, name))
        with open(path, "w") as handle:
            cp.write(handle)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise InvalidConfig(f"config file not found: {path}")
        cp = configparser.ConfigParser()
        cp.read(path)
        kwargs = {}
        for section in cp.sections():
            if section not in _SECTIONS:
                raise InvalidConfig(f"unknown config section [{section}]")
            for name, raw in cp[section].items():
                if name not in _SECTIONS[section]:
                    raise InvalidConfig(f"unknown key {name!r} in [{section}]")
                kwargs[name] = _parse(name, raw)
        return cls(**kwargs)

    def override(self, **changes) -> "RunConfig":
        actual = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **actual)


def _format(name, value):
    if name in ("f_text", "a_text"):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise InvalidConfig(f"boolean expected for {name}, got {raw!r}")
    return raw
