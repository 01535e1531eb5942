import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beambvp.errors import DomainError, Overflow, ParseError
from beambvp.expressions import FUNCTIONS, BinOp, Call, Expression, Neg, Num, Var, parse


@pytest.mark.parametrize("text,expected", [
    ("2+3*4", 14.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("2^-3", 0.125),
    ("(2+3)*4", 20.0),
    ("-2*3", -6.0),
    ("2-3-4", -5.0),
    ("16/4/2", 2.0),
])
def test_precedence(text, expected):
    assert parse(text, "u")(0.0) == expected


def test_identity_expression():
    e = parse("t", "t")
    assert isinstance(e.root, Var)
    assert e(0.73) == 0.73


def test_plain_power():
    assert parse("t^2", "t")(0.5) == 0.25


@pytest.mark.parametrize("u", [0.0, 1.0, 10.0])
def test_superlinear_example_expression(u):
    e = parse("u^2*(exp(-u)+1)", "u")
    expected = u**2 * (math.exp(-u) + 1.0)
    assert e(u) == pytest.approx(expected, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("u", [0.0, 1.0, 10.0])
def test_sublinear_example_expression(u):
    e = parse("sqrt(1+u)+sin(u)", "u")
    expected = math.sqrt(1.0 + u) + math.sin(u)
    assert e(u) == pytest.approx(expected, rel=1e-15)


def test_example_values_at_zero():
    assert parse("u^2*(exp(-u)+1)", "u")(0.0) == 0.0
    assert parse("sqrt(1+u)+sin(u)", "u")(0.0) == 1.0


def test_vectorized_evaluation_matches_scalar():
    e = parse("u^2*(exp(-u)+1)", "u")
    xs = np.linspace(0.0, 5.0, 17)
    assert np.array_equal(e(xs), np.array([e(x) for x in xs]))


def test_constant_expression_broadcasts():
    e = parse("0*u+1", "u")
    assert np.array_equal(e(np.zeros(5)), np.ones(5))


@pytest.mark.parametrize("text,pos", [
    ("(1+2", 4),        # unbalanced parenthesis: error reported at end
    ("1+*2", 2),        # stray operator
    ("sinh(u)", 0),     # unknown function
    ("u+v", 2),         # wrong variable
    ("2 3", 2),         # stray token (no implicit multiplication)
    ("", 0),
    ("u+1e999", 2),     # a constant that is not finite
])
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text, "u")
    assert err.value.position == pos


def test_unknown_character_rejected():
    with pytest.raises(ParseError):
        parse("1 # 2", "u")


def test_bad_var_name_rejected():
    with pytest.raises(ValueError):
        parse("u", "sin")


@pytest.mark.parametrize("text,x", [
    ("log(u)", 0.0),
    ("log(u-2)", 1.0),
    ("sqrt(u-1)", 0.5),
    ("1/u", 0.0),
    ("exp(u)", 1e6),
    ("u^0.5", -2.0),
])
def test_domain_errors(text, x):
    with pytest.raises(DomainError):
        parse(text, "u")(x)


@pytest.mark.parametrize("text,x,kind", [
    ("exp(u)", 1e3, Overflow),
    ("u*u", 1e200, Overflow),
    ("log(u)", 0.0, DomainError),
    ("sqrt(u)", -1.0, DomainError),
    ("1/u", 0.0, DomainError),
])
def test_overflow_is_told_apart(text, x, kind):
    with pytest.raises(DomainError) as err:
        parse(text, "u")(x)
    assert err.type is kind


@pytest.mark.parametrize("text", ["u", "u^0", "1^u", "0*u+1", "1"])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan])])
def test_input_that_is_not_finite_raises(text, x):
    # nan^0 and 1^nan are 1 and raise no floating-point flag
    e = parse(text, "u")
    for g in (e, e.derivative()):
        with pytest.raises(DomainError):
            g(x)


def test_tree_with_a_constant_that_is_not_finite_is_refused():
    with pytest.raises(ValueError):
        Expression(BinOp("+", Var("u"), Num(math.inf)), "u")


def test_evaluation_returns_a_fresh_array():
    x = np.linspace(0.0, 1.0, 4)
    for text in ("u", "2", "u+0"):
        y = parse(text, "u")(x)
        y[:] = -1.0
        assert np.all(x >= 0.0)


@pytest.mark.parametrize("text,x,expected", [
    ("u^2", 0.0, 0.0),            # c g^(c-1) g', not the log g of the general rule
    ("u^2", 3.0, 6.0),
    ("u^1.5", 0.0, 0.0),
    ("3*u", 2.0, 3.0),
    ("0*u+1", 2.0, 0.0),
    ("exp(2*u)", 0.0, 2.0),
    ("log(u)", 4.0, 0.25),
    ("sqrt(u)", 4.0, 0.25),
    ("sin(u)+cos(u)", 0.0, 1.0),
    ("abs(u)", -2.0, -1.0),
    ("u/(1+u)", 1.0, 0.25),
    ("2^u", 0.0, math.log(2.0)),
    ("u^u", 1.0, 1.0),
    ("u^(1+1)", -3.0, -6.0),
])
def test_derivative_values(text, x, expected):
    assert parse(text, "u").derivative()(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("text,x", [("sqrt(u)", 0.0), ("u^0.5", 0.0), ("abs(u)", 0.0),
                                    ("log(u)", 0.0)])
def test_derivative_that_is_not_finite_raises(text, x):
    with pytest.raises(DomainError):
        parse(text, "u").derivative()(x)


def test_derivative_is_built_once():
    e = parse("u^2*(exp(-u)+1)", "u")
    assert e.derivative() is e.derivative()
    assert e.derivative().var_name == "u"


def test_expressions_are_immutable():
    e = parse("u+1", "u")
    with pytest.raises(AttributeError):
        e.var_name = "t"


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    st.just(Var("u")),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
        st.builds(Call, st.sampled_from(sorted(["exp", "sin", "cos", "sqrt", "log", "abs"])),
                  children),
    )


def _outcome(expr, x):
    try:
        return expr(x)
    except DomainError:
        return "domain-error"


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _walk(node, x):
    """Reference evaluation: every node's value is checked for finiteness."""
    with np.errstate(all="ignore"):
        if isinstance(node, Num):
            value = node.value
        elif isinstance(node, Var):
            value = x
        elif isinstance(node, Neg):
            value = -_walk(node.operand, x)
        elif isinstance(node, BinOp):
            value = _BINARY[node.op](_walk(node.left, x), _walk(node.right, x))
        else:
            value = FUNCTIONS[node.name](_walk(node.operand, x))
    if not np.all(np.isfinite(value)):
        raise DomainError("non-finite intermediate")
    return value


def _reference(expr, x):
    arr = np.asarray(x)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite input")
    return np.broadcast_to(_walk(expr.root, arr), arr.shape)


_trees = st.recursive(_leaf, _extend, max_leaves=12)
_points = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 700.0, 1e10]),
                             st.floats(allow_nan=True, allow_infinity=True)),
                   min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(_trees, _points, st.sampled_from([np.float64, np.longdouble]))
def test_compiled_evaluation_matches_the_per_node_walk(root, xs, dtype):
    # one error state around the closure raises exactly where a check at
    # every node would, and otherwise gives the same values
    expr, x = Expression(root, "u"), np.asarray(xs, dtype=dtype)
    try:
        expected = _reference(expr, x)
    except DomainError:
        with pytest.raises(DomainError):
            expr(x)
        return
    got = expr(x)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(_trees, st.floats(min_value=-10.0, max_value=10.0))
# log's argument cancels to 3.5e-9 out of terms of size 10, so f carries a
# relative error near 5e-7, which the step divides by h
@example(parse("log(u + (-u + 7^u))", "u").root, -10.0)
def test_derivative_matches_a_central_difference(root, x):
    # Compared where the stencil resolves f: the second and third derivatives
    # move f' by under 0.1% across it, and the differences at two steps agree
    # within 0.1% (no fast oscillation, pole or jump inside). f'(x) may then
    # differ from the central difference, the mean of f' over the stencil, by
    # the spread of f' there (a kink inside), its truncation error (bounded
    # by the gap between the two steps), a small share of f' and rounding.
    expr = Expression(root, "u")
    df = expr.derivative()
    h = 1e-5 * max(1.0, abs(x))
    try:
        d = [df(x + k * h) for k in (-1, 0, 1)]
        drift = abs(df.derivative()(x)) * h + abs(df.derivative().derivative()(x)) * h * h
        f = [expr(x + k * h / 2.0) for k in (-2, -1, 1, 2)]
        coarse = (f[3] - f[0]) / (2.0 * h)
        fine = (f[2] - f[1]) / h
    except DomainError:
        return
    if not (math.isfinite(coarse) and math.isfinite(fine) and math.isfinite(drift)):
        return
    if drift > 1e-3 * abs(d[1]) or abs(coarse - fine) > 1e-3 * max(abs(coarse), abs(fine)):
        return
    # rounding: a running-error bound on the two values of f that the fine
    # difference takes and on f'(x), and the absolute spacing of subnormals
    rounding = (sum(_rounding(root, x + k * h / 2.0) for k in (-1, 1)) + 1e-300) / h
    bound = ((max(d) - min(d)) + 3.0 * abs(coarse - fine) + 1e-4 * abs(d[1]) + rounding
             + _rounding(df.root, x))
    assert abs(d[1] - fine) <= bound


def _rounding(node, x):
    """A forward running-error bound on node's computed value at x (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.3).

    Leaves and negation are exact. Every other node adds eps |value| for its
    own rounding and passes on each child's bound e times |d node / d child|,
    so log(a) passes on e / |a|; sqrt passes on at most sqrt(e), its bound
    where the slope blows up. A base of 0 or below passes on no exponent
    bound: 0^b is 0, and a negative base has a real power only at an integer
    exponent. A bound that overflows is infinite.
    """
    if isinstance(node, (Num, Var)):
        return 0.0
    if isinstance(node, Neg):
        return _rounding(node.operand, x)
    children = (node.left, node.right) if isinstance(node, BinOp) else (node.operand,)
    errors = [_rounding(child, x) for child in children]
    with np.errstate(all="ignore"):
        v, *args = (np.float64(_walk(n, x)) for n in (node, *children))
        if isinstance(node, BinOp):
            (a, b), (ea, eb) = args, errors
            carried = {
                "+": lambda: ea + eb, "-": lambda: ea + eb,
                "*": lambda: _times(ea, abs(b)) + _times(eb, abs(a)),
                # b's relative bound times |value|, which overflows only with it
                "/": lambda: _times(ea, 1.0 / abs(b)) + _times(eb / abs(b), abs(v)),
                "^": lambda: (_times(ea, abs(b * a ** (b - 1.0)))
                              + (_times(eb, abs(v * np.log(a))) if a > 0 else 0.0)),
            }[node.op]()
        else:
            (a,), (ea,) = args, errors
            carried = _times(ea, {"exp": abs(v), "sin": abs(np.cos(a)), "cos": abs(np.sin(a)),
                                  "log": 1.0 / abs(a), "abs": 1.0,
                                  "sqrt": min(0.5 / v, 1.0 / np.sqrt(ea))}[node.name])
        bound = np.finfo(float).eps * abs(v) + carried
    return float(bound) if np.isfinite(bound) else math.inf


def _times(error, slope):
    """error * slope, 0 for an exact child whatever its slope."""
    return error * slope if error else 0.0


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_pretty_print_round_trip(root):
    original = Expression(root, "u")
    reparsed = parse(str(original), "u")
    for x in np.linspace(0.1, 3.0, 10):
        a, b = _outcome(original, x), _outcome(reparsed, x)
        if a == "domain-error" or b == "domain-error":
            assert a == b
        else:
            assert b == pytest.approx(a, rel=1e-15, abs=0.0) or a == b
