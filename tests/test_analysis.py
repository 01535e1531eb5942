import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import beambvp
from beambvp.analysis import (
    GRID_DENSITY,
    INDETERMINATE,
    SUBLINEAR,
    SUPERLINEAR,
    make_problem,
)
from beambvp.errors import InvalidConfig
from beambvp.quadrature import default_quadrature

F_SUPER = "u^2*(exp(-u)+1)"
F_SUB = "sqrt(1+u)+sin(u)"


def test_make_problem_carries_cone_constants():
    p = make_problem(F_SUPER, "t^2", 0.25)
    assert p.cone.alpha == pytest.approx(1 / 3, rel=1e-14)
    assert p.cone.beta == pytest.approx(13 / 96, rel=1e-13)
    assert p.theta == 0.25
    with pytest.raises(InvalidConfig):
        make_problem(F_SUPER, "t^2", 0.75)


def test_validate_passes_both_examples():
    assert not make_problem(F_SUPER, "t^2").violations
    assert not make_problem(F_SUB, "t").violations


def test_validate_flags_negative_f():
    violations = make_problem("u-1", "t").violations
    assert [v.code for v in violations] == ["f-negative"]
    assert violations[0].where == pytest.approx(0.0)


def test_validate_flags_negative_a():
    violations = make_problem("u", "t-0.5").violations
    assert "a-negative" in [v.code for v in violations]


def test_validate_flags_alpha_out_of_window():
    # integral of 2t is exactly 1, which the admissible window excludes
    violations = make_problem("u", "2*t").violations
    assert [v.code for v in violations] == ["alpha-range"]


def test_validate_flags_a_not_finite_at_a_node_only():
    # finite at every point of the 2001-point grid, infinite at the rule's
    # first node: the cone constants are nan and a is an a-domain violation
    node = float(default_quadrature().nodes[0])
    problem = make_problem("u", f"1/(t-{node!r})")
    assert np.isnan(problem.cone.alpha) and np.isnan(problem.cone.gamma)
    assert [v.code for v in problem.violations] == ["a-domain"]
    assert "quadrature node" in problem.violations[0].message


@pytest.mark.parametrize("f, code, where", [
    # past the linear points: the smallest u where f < 0, not the argmin,
    # which lies at the top of the sample
    ("u^2*(1-u/1e4)", "f-negative", 10**4.125),
    ("sqrt(1e4-u)", "f-domain", 10**4.125),
    # below 0 on (2.4, 2.6), between the log-grid points 10^0.375 and 10^0.5:
    # only a linear point sees it
    ("(u-2.5)^2-0.01", "f-negative", 24 * 1e3 / 9999),
])
def test_validate_flags_f_on_its_whole_sample(f, code, where):
    violations = make_problem(f, "t").violations
    assert [v.code for v in violations] == [code]
    assert violations[0].where == pytest.approx(where, rel=1e-12)


def _calls(tree, name):
    """The calls of name, or of any attribute so named, within tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_only_make_problem_samples_f():
    # make_problem samples f once and derives the violations and the
    # certificate from that sample: nothing else samples f or searches for a
    # witness, the two readers take arrays, not problem.f, and only analysis
    # builds a Certificate
    package = Path(beambvp.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    analysis = trees["analysis.py"]
    functions = {node.name: node for node in ast.walk(analysis)
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_finite_samples", "_certificate"):
        calls = [call for tree in trees.values() for call in _calls(tree, name)]
        assert len(calls) == 1 and len(_calls(functions["make_problem"], name)) == 1, name
    for name in ("_violations", "_certificate"):
        assert not any(isinstance(node, ast.Attribute) and node.attr == "f"
                       for node in ast.walk(functions[name])), name
    builders = [module for module, tree in trees.items() if _calls(tree, "Certificate")]
    assert builders == ["analysis.py"]
    for gone in ("validate_hypotheses", "ValidationReport", "f_sample"):
        assert not [module for module, source in sources.items() if gone in source], gone


# every way the certificate's thresholds can be undefined: alpha at and
# beyond both edges of its window, a nan alpha, gamma <= 0 (a weight whose
# strip integral is negative), and theta so small that delta_min overflows
# (1e-60, where gamma^2 underflows to 0) or nearly does (1e-50)
@pytest.mark.parametrize("theta", [1e-60, 1e-50, 0.25, 0.495])
@pytest.mark.parametrize("a", ["t", "2*t", "1.9999999999999*t", "3*t", "0*t", "-t",
                               "sqrt(t-0.5)", "40*(t-0.5)^2-2.9"])
def test_a_problem_without_a_certificate_has_a_violation(a, theta):
    for f in ("u^2", F_SUB):
        problem = make_problem(f, a, theta)
        assert problem.certificate is not None or problem.violations, (f, a, theta)


def test_certificate_is_none_where_its_thresholds_are_undefined():
    # gamma = 1e-162 at theta = 1e-54: gamma^2 underflows and delta_min is
    # undefined, which only the gamma-range violation reports
    problem = make_problem("u^2", "t", 1e-54)
    assert problem.certificate is None
    assert [v.code for v in problem.violations] == ["gamma-range"]
    # delta_min = 3.6e301 is finite at theta = 1e-50; delta_min u overflows
    # on the grid without a warning, and no radius expands
    cert = make_problem("u^2", "t", 1e-50).certificate
    assert cert.classification == INDETERMINATE and cert.delta_min == pytest.approx(3.6e301)
    # gamma = -0.0073 < 0, reported as a negative weight
    problem = make_problem("u^2", "40*(t-0.5)^2-2.9")
    assert problem.cone.gamma < 0.0 and problem.certificate is None
    assert [v.code for v in problem.violations] == ["a-negative"]
    for a in ("2*t", "3*t", "-t", "sqrt(t-0.5)"):
        assert make_problem("u^2", a).certificate is None, a


def _witness_holds(problem, cert):
    """Both inequalities of the witness at 200 points per decade."""
    f, gamma = problem.f, problem.cone.gamma
    low = np.geomspace(1e-12 * cert.r, cert.r, 2401)
    high = np.geomspace(gamma * cert.R, cert.R, 400)
    return (np.max(f(low)) <= cert.epsilon_max * cert.r
            and np.all(f(high) >= cert.delta_min * high))


def test_growth_limits_superlinear_example():
    p = make_problem(F_SUPER, "t^2", 0.25)
    cert = p.certificate
    assert cert.r < cert.R
    assert _witness_holds(p, cert)


def test_growth_limits_sublinear_example():
    p = make_problem(F_SUB, "t", 0.25)
    cert = p.certificate
    assert cert.R < cert.r
    assert _witness_holds(p, cert)


def test_growth_limits_linear():
    # f(u)/u is constant and far below delta_min, so no radius expands
    for f in ("u", "3*u"):
        cert = make_problem(f, "t", 0.25).certificate
        assert cert.classification == INDETERMINATE
        assert cert.r is None and cert.R is None
        assert cert.span == (1e-150, 1e150)


@pytest.mark.parametrize("f, label", [
    ("u^1.5", SUPERLINEAR), ("sqrt(u)", SUBLINEAR),
    ("u^1.1", SUPERLINEAR), ("u^1.2", SUPERLINEAR), ("u^3", SUPERLINEAR),
])
def test_certificate_power_laws(f, label):
    # u^1.1 expands only past R ~ 7.5e57, beyond any fixed ladder
    p = make_problem(f, "t", 0.25)
    cert = p.certificate
    assert cert.classification == label
    assert (cert.r < cert.R) == (label == SUPERLINEAR)
    assert _witness_holds(p, cert)


def test_growth_limit_of_a_slowly_rising_ratio_stays_finite():
    # f(u)/u = 2 - 1/(1+u) and u/(1e7+u) rise along the whole grid, to 2 and
    # to 1, far below delta_min = 3.8e5: no expansion radius
    for f in ("2*u - u/(1+u)", "u^2/(1e7+u)"):
        cert = make_problem(f, "t", 0.25).certificate
        assert cert.classification == INDETERMINATE and cert.R is None


def test_witness_radii_lie_on_the_log_grid():
    cert = make_problem(F_SUPER, "t^2", 0.25).certificate
    for radius in (cert.r, cert.R):
        steps = GRID_DENSITY * np.log10(radius)
        assert steps == pytest.approx(round(steps), abs=1e-9)


def test_certificate_cuts_the_grid_where_f_overflows():
    # exp(u) overflows past u = 709.8; the witness pair sits below that
    cert = make_problem("exp(u)", "t", 0.25).certificate
    assert cert.top == pytest.approx(10**2.75)
    assert cert.classification == SUBLINEAR
    assert cert.R == pytest.approx(2.37e-6, rel=1e-2) and cert.r == pytest.approx(0.75, rel=1e-3)
    assert make_problem("u^2*exp(u)", "t", 0.25).certificate.span == (1e-150, cert.top)
    # not finite at the smallest sample: no range, no witness
    none = make_problem("sqrt(u-0.01)", "t", 0.25).certificate
    assert none.top is None and none.span is None


# the corners of the benchmark's two solve families: f = b g(u), a = c t^k
# with alpha = c / (k + 1)
@pytest.mark.parametrize("alpha", [0.1, 0.8])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("f, label", [
    ("0.5*u^2*(exp(-u)+1)", SUPERLINEAR), ("2*u^2*(exp(-u)+1)", SUPERLINEAR),
    ("0.5*(sqrt(1+u)+sin(u))", SUBLINEAR), ("4*(sqrt(1+u)+sin(u))", SUBLINEAR),
])
def test_benchmark_family_corners_keep_their_label(f, label, k, alpha):
    p = make_problem(f, f"{alpha * (k + 1)}*t^{k}", 0.25)
    cert = p.certificate
    assert cert.classification == label
    assert _witness_holds(p, cert)


def test_certificate_superlinear_example():
    cert = make_problem(F_SUPER, "t^2", 0.25).certificate
    assert cert.classification == SUPERLINEAR
    assert cert.epsilon_max == pytest.approx(4.0, abs=1e-13)
    # exact rational evaluation of the threshold expression
    th, al, be = Fraction(1, 4), Fraction(1, 3), Fraction(13, 96)
    expected = Fraction(36) * (1 - al) / (
        th**6 * (1 - al + be) ** 2 * (1 - 2 * th) * (Fraction(1, 2) + th - th**2))
    assert cert.delta_min == pytest.approx(float(expected), rel=1e-9)
    assert cert.delta_min == pytest.approx(4.445e5, rel=1e-3)


def test_certificate_sublinear_example():
    cert = make_problem(F_SUB, "t", 0.25).certificate
    assert cert.classification == SUBLINEAR
    assert cert.epsilon_max == pytest.approx(3.0, abs=1e-13)


def test_certificate_linear_is_indeterminate():
    cert = make_problem("u", "t", 0.25).certificate
    assert cert.classification == INDETERMINATE


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_delta_threshold_identity(theta):
    p = make_problem(F_SUPER, "t^2", theta)
    cert = p.certificate
    al, be = p.cone.alpha, p.cone.beta
    lhs = cert.delta_min * (theta**6 / 36.0) * ((1 - al + be) ** 2 / (1 - al)) \
        * (1 - 2 * theta) * (0.5 + theta - theta**2)
    assert abs(lhs - 1.0) <= 1e-12


def test_epsilon_consistency():
    p = make_problem(F_SUPER, "t^2", 0.25)
    cert = p.certificate
    assert cert.epsilon_max / (6.0 * (1.0 - p.cone.alpha)) <= 1.0 + 1e-15


# the theorem is scale-free, and so is the witness search
@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0] + [10.0**k for k in range(-12, 13) if k != 1])
@pytest.mark.parametrize("f_text,expected", [
    (F_SUPER, SUPERLINEAR),
    (F_SUB, SUBLINEAR),
])
def test_classification_scale_invariance(scale, f_text, expected):
    p = make_problem(f"{scale}*({f_text})", "t^2", 0.25)
    cert = p.certificate
    assert cert.classification == expected
    assert _witness_holds(p, cert)


# the witness search on the log-grid points of f's one sample gives what it
# gave on the log grid sampled alone, bit for bit: README's examples and the
# first seed-1 input of each benchmark solve family
@pytest.mark.parametrize("f, a, label, r, R, top", [
    ("u^1.2", "t", SUPERLINEAR, 237.13737056616552, 1e30, 1e150),
    ("exp(u)", "t", SUBLINEAR, 0.7498942093324558, 2.3713737056616552e-06, 562.341325190349),
    ("u", "t", INDETERMINATE, None, None, 1e150),
    ("u^2/(1e7+u)", "t", INDETERMINATE, None, None, 1e150),
    ("u*log(1+u)", "t", INDETERMINATE, None, None, 1e150),
    ("0.675486*u^2*(exp(-u)+1)", "0.471473*t^1", SUPERLINEAR,
     5.62341325190349, 56234132.51903491, 1e150),
    ("2.88959*(sqrt(1+u)+sin(u))", "1.78424*t^2", SUBLINEAR,
     3.1622776601683795, 5.623413251903491e-06, 1e150),
])
def test_certificate_is_pinned(f, a, label, r, R, top):
    cert = make_problem(f, a, 0.25).certificate
    assert (cert.classification, cert.r, cert.R, cert.top) == (label, r, R, top)
