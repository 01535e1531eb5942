"""What default settings solve, over five families of f.

Each family draws DRAWS problems from a fixed seed: f from the family, and
a = c t^k with k in {1, 2, 3} and alpha = c / (k + 1) in (0.1, 0.8). Every
draw is solved by solve_auto on the default rule and sorted by its
certificate label and its outcome. The test pins today's counts as floors:
a change may move draws toward "solved", never away.
`PYTHONPATH=src python tests/test_census.py` prints the table that README's
Accuracy section shows.
"""

from collections import Counter

import numpy as np
import pytest

from beambvp.analysis import make_problem
from beambvp.solver import POSITIVITY_TOL, solve_auto

DRAWS = 40
SEED = 7


def _weight(rng):
    k = int(rng.integers(1, 4))
    return f"{rng.uniform(0.1, 0.8) * (k + 1)!r}*t^{k}"


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


FAMILIES = {
    "b*u^p": lambda rng: f"{_log_uniform(rng, -2, 3)!r}*u^{rng.uniform(0.2, 3.0)!r}",
    "b*(sqrt(1+u)+sin(u))": lambda rng: f"{_log_uniform(rng, -1, 5)!r}*(sqrt(1+u)+sin(u))",
    "b*u^2/(1+u^q)": lambda rng: f"{_log_uniform(rng, 0, 6)!r}*u^2/(1+u^{rng.uniform(1.2, 4.0)!r})",
    "b*u*(2+cos(u))": lambda rng: f"{_log_uniform(rng, -1, 4)!r}*u*(2+cos(u))",
    "b*u^2*exp(-u)+c*u": lambda rng: (f"{_log_uniform(rng, 0, 4)!r}*u^2*exp(-u)"
                                      f"+{_log_uniform(rng, -1, 3)!r}*u"),
}


def _outcome(report):
    """solved: positive with estimate/sup at most POSITIVITY_TOL; unresolved:
    positive with a larger estimate; else solve's own words."""
    if report.positive:
        resolved = report.error_estimate <= POSITIVITY_TOL * report.solution.sup_norm()
        return "solved" if resolved else "unresolved"
    return "not positive" if report.converged else "no convergence"


def census(family):
    """One record per draw: f, a, label, outcome, in_annulus and estimate/sup."""
    rng = np.random.default_rng([SEED, list(FAMILIES).index(family)])
    records = []
    for _ in range(DRAWS):
        f, a = FAMILIES[family](rng), _weight(rng)
        report = solve_auto(make_problem(f, a))
        sup = report.solution.sup_norm()
        records.append({
            "f": f, "a": a, "label": report.problem.certificate.classification,
            "outcome": _outcome(report), "in_annulus": report.in_annulus,
            "estimate_over_sup": report.error_estimate / sup if sup > 0.0 else np.inf,
        })
    return records


def _counts(records):
    return {
        "labels": Counter(r["label"] for r in records),
        "solved": sum(r["outcome"] == "solved" for r in records),
        "in_annulus": sum(r["outcome"] == "solved" and r["in_annulus"] for r in records),
    }


# per family: certificate labels, then floors on the solved draws and on
# those of them inside the witness annulus
PINNED = {
    "b*u^p": ({"superlinear": 32, "sublinear": 8}, 40, 40),
    "b*(sqrt(1+u)+sin(u))": ({"sublinear": 40}, 27, 27),
    "b*u^2/(1+u^q)": ({"indeterminate": 40}, 19, 0),
    "b*u*(2+cos(u))": ({"indeterminate": 40}, 2, 0),
    "b*u^2*exp(-u)+c*u": ({"indeterminate": 40}, 13, 0),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_census_counts_do_not_fall(family):
    counts = _counts(census(family))
    labels, solved, in_annulus = PINNED[family]
    assert dict(counts["labels"]) == labels
    assert counts["solved"] >= solved
    assert counts["in_annulus"] >= in_annulus


if __name__ == "__main__":
    for family in FAMILIES:
        records = census(family)
        print(family, _counts(records), Counter(r["outcome"] for r in records))
        for r in records:
            print("   ", r)
