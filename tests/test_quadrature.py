import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beambvp
from beambvp.errors import DomainError, InvalidConfig, InvalidRange
from beambvp.expressions import parse
from beambvp.quadrature import (
    ADMISSIBLE_POINTS,
    _reference_rule,
    default_quadrature,
    integrate,
    integrate_on,
    make_quadrature,
)


def test_two_point_gauss():
    q = make_quadrature(1, 2)
    r = 1.0 / np.sqrt(3.0)
    assert np.allclose(q.nodes, [(1 - r) / 2, (1 + r) / 2], atol=1e-15)
    assert np.allclose(q.weights, [0.5, 0.5], atol=1e-15)


def test_default_rule_shape():
    q = default_quadrature()
    assert q.npoints == 32
    assert abs(q.weights.sum() - 1.0) <= 1e-15
    assert np.all(np.diff(q.nodes) > 0)
    assert q.nodes[0] >= 0.0 and q.nodes[-1] <= 1.0
    assert np.all(q.weights > 0)


@pytest.mark.parametrize("panels,ppp", [(5, 2), (3, 6)])
def test_weights_normalized(panels, ppp):
    q = make_quadrature(panels, ppp)
    assert abs(q.weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(q.nodes) > 0)
    assert q.npoints == panels * ppp and q.points_per_panel == ppp


@pytest.mark.parametrize("points", ADMISSIBLE_POINTS)
def test_gauss_exact_on_monomials(points):
    # p-point Gauss integrates degree <= 2p-1 exactly on each panel
    q = make_quadrature(3, points)
    for degree in range(2 * points):
        value = integrate(lambda s, d=degree: s**d, q)
        assert abs(value - 1.0 / (degree + 1)) <= 1e-13


def test_integrate_examples():
    q = default_quadrature()
    assert abs(integrate(parse("t^2", "t"), q) - 1 / 3) <= 1e-12
    assert abs(integrate(lambda s: np.ones_like(s), q) - 1.0) <= 1e-15
    # a constant callable returns a scalar; it is broadcast to the nodes
    assert abs(integrate(lambda s: 2.0, q) - 2.0) <= 1e-15
    assert abs(integrate(lambda s: s * (1 - s) ** 2, q) - 1 / 12) <= 1e-12


def test_integrate_on_examples():
    q = default_quadrature()
    got = integrate_on(lambda t: t**2, 0.25, 0.75, q)
    assert abs(got - (0.75**3 - 0.25**3) / 3) <= 1e-12
    assert integrate_on(lambda t: t, 0.4, 0.4, q) == 0.0
    got = integrate_on(lambda s: s * (1 - s) ** 2, 0.25, 0.75, q)
    assert abs(got - 0.057291666666666664) <= 1e-12


def test_integrate_on_full_interval_matches_integrate():
    q = default_quadrature()
    g = parse("exp(t)*t", "t")
    assert integrate_on(g, 0.0, 1.0, q) == pytest.approx(integrate(g, q), rel=1e-15)


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
def test_strip_moment_identity(theta):
    # integral over [theta, 1-theta] of s(1-s)^2 has the closed form
    # (1 - 2 theta)(1/2 + theta - theta^2)/6
    q = default_quadrature()
    got = integrate_on(lambda s: s * (1 - s) ** 2, theta, 1 - theta, q)
    expected = (1 - 2 * theta) * (0.5 + theta - theta**2) / 6.0
    assert abs(got - expected) <= 1e-12


def test_invalid_range():
    q = default_quadrature()
    with pytest.raises(InvalidRange):
        integrate_on(lambda s: s, 0.7, 0.3, q)
    with pytest.raises(InvalidRange):
        integrate_on(lambda s: s, -0.1, 0.5, q)
    with pytest.raises(InvalidRange):
        integrate_on(lambda s: s, 0.5, 1.1, q)


@pytest.mark.parametrize("panels,ppp", [(0, 4), (4, 0), (4, 1), (4, 3), (4, 5), (4, 7), (4, 10), (4, 11)])
def test_invalid_config(panels, ppp):
    with pytest.raises(InvalidConfig):
        make_quadrature(panels, ppp)


def test_domain_error_propagates():
    q = default_quadrature()
    with pytest.raises(DomainError):
        integrate(lambda s: np.full_like(s, np.inf), q)
    with pytest.raises(DomainError):
        integrate(parse("log(-1+t*0)", "t"), q)



@pytest.mark.parametrize("points", ADMISSIBLE_POINTS)
def test_tabulated_rule_is_numpys_bit_for_bit(points):
    x, w = _reference_rule(points)
    expected_x, expected_w = np.polynomial.legendre.leggauss(points)
    for got, expected in ((x, expected_x), (w, expected_w)):
        assert got.dtype == np.float64 and not got.flags.writeable
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_readme_examples_do_not_import_numpy_polynomial(tmp_path):
    # the rules are tabulated, so no command pays for importing numpy.polynomial
    script = (
        "import sys\n"
        "from beambvp.cli import main\n"
        "out = sys.argv[1]\n"
        "codes = [main(['solve', '--f', 'u^2*(exp(-u)+1)', '--a', 't^2', '--out', out]),\n"
        "         main(['classify', '--f', 'sqrt(1+u)+sin(u)', '--a', 't', '--out', out]),\n"
        "         main(['verify', '--out', out])]\n"
        "print(codes, 'numpy.polynomial' in sys.modules)\n"
    )
    src = str(Path(beambvp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0] False"
