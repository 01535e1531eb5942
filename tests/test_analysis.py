from fractions import Fraction

import pytest

from beambvp.analysis import (
    INDETERMINATE,
    SUBLINEAR,
    SUPERLINEAR,
    certificate,
    estimate_f0,
    estimate_finf,
    make_problem,
    validate_hypotheses,
)
from beambvp.errors import InvalidConfig
from beambvp.expressions import parse

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
    assert validate_hypotheses(make_problem(F_SUPER, "t^2")).ok
    assert validate_hypotheses(make_problem(F_SUB, "t")).ok


def test_validate_flags_negative_f():
    report = validate_hypotheses(make_problem("u-1", "t"))
    assert [v.code for v in report.violations] == ["f-negative"]
    assert report.violations[0].where == pytest.approx(0.0)


def test_validate_flags_negative_a():
    report = validate_hypotheses(make_problem("u", "t-0.5"))
    assert "a-negative" in [v.code for v in report.violations]


def test_validate_flags_alpha_out_of_window():
    # integral of 2t is exactly 1, which the admissible window excludes
    report = validate_hypotheses(make_problem("u", "2*t"))
    assert [v.code for v in report.violations] == ["alpha-range"]


def test_growth_limits_superlinear_example():
    f = parse(F_SUPER, "u")
    low = estimate_f0(f)
    assert low.kind == "finite" and abs(low.value) <= 1e-6
    assert low.stable
    high = estimate_finf(f)
    assert high.kind == "divergent"


def test_growth_limits_sublinear_example():
    f = parse(F_SUB, "u")
    assert estimate_f0(f).kind == "divergent"
    high = estimate_finf(f)
    assert high.kind == "finite" and abs(high.value) <= 1e-3


def test_growth_limits_linear():
    assert estimate_f0(parse("u", "u")).value == pytest.approx(1.0, rel=1e-12)
    assert estimate_finf(parse("3*u", "u")).value == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("f, label", [("u^1.5", SUPERLINEAR), ("sqrt(u)", SUBLINEAR)])
def test_certificate_power_laws(f, label):
    # f(u)/u = u^(+-1/2) gains half a decade per rung but stays below the
    # divergence cutoff (1e4 at the ladder's end); the slope classifies it
    cert = certificate(make_problem(f, "t", 0.25))
    assert cert.classification == label
    tail, head = (cert.finf, cert.f0) if label == SUPERLINEAR else (cert.f0, cert.finf)
    assert tail.kind == "divergent"
    assert head.kind == "finite" and head.stable and abs(head.value) <= 1e-3


def test_growth_limit_of_a_slowly_rising_ratio_stays_finite():
    # f(u)/u = 2 - 1/(1+u) rises along the whole ladder, but flattens
    est = estimate_finf(parse("2*u - u/(1+u)", "u"))
    assert est.kind == "finite" and est.value == pytest.approx(2.0, rel=1e-8)


def test_growth_samples_recorded():
    est = estimate_f0(parse("u", "u"))
    assert len(est.samples) == 8
    assert est.samples[0][0] == pytest.approx(0.1)


def test_certificate_superlinear_example():
    cert = certificate(make_problem(F_SUPER, "t^2", 0.25))
    assert cert.classification == SUPERLINEAR
    assert cert.epsilon_max == pytest.approx(4.0, abs=1e-13)
    # exact rational evaluation of the threshold expression
    th, al, be = Fraction(1, 4), Fraction(1, 3), Fraction(13, 96)
    expected = Fraction(36) * (1 - al) / (
        th**6 * (1 - al + be) ** 2 * (1 - 2 * th) * (Fraction(1, 2) + th - th**2))
    assert cert.delta_min == pytest.approx(float(expected), rel=1e-9)
    assert cert.delta_min == pytest.approx(4.445e5, rel=1e-3)


def test_certificate_sublinear_example():
    cert = certificate(make_problem(F_SUB, "t", 0.25))
    assert cert.classification == SUBLINEAR
    assert cert.epsilon_max == pytest.approx(3.0, abs=1e-13)


def test_certificate_linear_is_indeterminate():
    cert = certificate(make_problem("u", "t", 0.25))
    assert cert.classification == INDETERMINATE


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_delta_threshold_identity(theta):
    p = make_problem(F_SUPER, "t^2", theta)
    cert = certificate(p)
    al, be = p.cone.alpha, p.cone.beta
    lhs = cert.delta_min * (theta**6 / 36.0) * ((1 - al + be) ** 2 / (1 - al)) \
        * (1 - 2 * theta) * (0.5 + theta - theta**2)
    assert abs(lhs - 1.0) <= 1e-12


def test_epsilon_consistency():
    p = make_problem(F_SUPER, "t^2", 0.25)
    cert = certificate(p)
    assert cert.epsilon_max / (6.0 * (1.0 - p.cone.alpha)) <= 1.0 + 1e-15


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("f_text,expected", [
    (F_SUPER, SUPERLINEAR),
    (F_SUB, SUBLINEAR),
])
def test_classification_scale_invariance(scale, f_text, expected):
    p = make_problem(f"{scale}*({f_text})", "t^2", 0.25)
    assert certificate(p).classification == expected


def test_validate_guards_arguments():
    p = make_problem(F_SUPER, "t^2")
    with pytest.raises(InvalidConfig):
        validate_hypotheses(p, u_max=-1.0)
    with pytest.raises(InvalidConfig):
        validate_hypotheses(p, n_samples=1)
