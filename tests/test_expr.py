import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracemden.expr import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    _digamma,
    evaluate,
    evaluate_with_derivative,
    parse,
    to_string,
)

X = {"x"}
U = {"u"}


def ev(src, variables=X, **bindings):
    return evaluate(parse(src, variables), bindings)


class TestParsing:
    def test_simple(self):
        assert ev("3+x^2", x=0.5) == 3.25

    def test_power_beats_subtraction(self):
        assert ev("2-2^3") == -6.0

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("-(2*2x", X)
        assert err.value.offset == 5

    def test_left_assoc_subtraction(self):
        assert ev("10-4-3") == 3.0

    def test_left_assoc_division(self):
        assert ev("6/3/2") == 1.0

    def test_right_assoc_power(self):
        assert ev("2^3^2") == 512.0  # 2^(3^2), not (2^3)^2 = 64

    def test_unary_minus_looser_than_power(self):
        assert ev("-2^2") == -4.0

    def test_unary_minus_in_exponent(self):
        assert ev("2^-3") == 0.125

    def test_parentheses(self):
        assert ev("(2-2)^3") == 0.0

    def test_whitespace_insensitive(self):
        assert ev("  3 +   x ^ 2 ", x=2.0) == 7.0

    def test_scientific_notation(self):
        assert ev("1.5e-3") == 1.5e-3
        assert ev("2E2") == 200.0

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x", X)

    def test_unknown_identifier_named(self):
        with pytest.raises(ParseError, match="'y'"):
            parse("x + y", X)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="tan"):
            parse("tan(x)", X)

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse("sin(x, x)", X)
        with pytest.raises(ParseError, match="argument"):
            parse("pow(x)", X)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ", X)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)", X)

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            parse("1.2.3", X)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 @ 2", X)
        assert err.value.offset == 2


class TestEvaluation:
    def test_exp(self):
        assert ev("exp(x^2)", x=1.0) == pytest.approx(math.e, abs=1e-9)

    def test_gamma(self):
        assert ev("gamma(1+2*a)", {"a"}, a=1.0) == pytest.approx(2.0, rel=1e-14)

    def test_gamma_large_argument(self):
        # finite up to about 171.6, then an overflow that names itself
        assert evaluate(parse("gamma(150.5)", set()), {}) == math.gamma(150.5)
        with pytest.raises(EvalError, match="overflow"):
            evaluate(parse("gamma(172)", set()), {})

    def test_quintic(self):
        assert ev("u^5", U, u=2.0) == 32.0

    def test_trig_and_ln(self):
        assert ev("sin(x)^2 + cos(x)^2", x=0.3) == pytest.approx(1.0, rel=1e-14)
        assert ev("ln(exp(x))", x=0.7) == pytest.approx(0.7, rel=1e-14)

    def test_sqrt_abs_pow(self):
        assert ev("sqrt(abs(-4))") == 2.0
        assert ev("pow(2, 10)") == 1024.0

    def test_integer_power_of_negative(self):
        assert ev("(-2)^3") == -8.0

    def test_missing_binding(self):
        with pytest.raises(EvalError, match="'x'"):
            evaluate(parse("x+1", X), {})

    @pytest.mark.parametrize(
        "src",
        ["ln(-1)", "ln(0)", "sqrt(-1)", "gamma(0)", "gamma(-2)", "1/0",
         "(-2)^0.5", "pow(-2, 0.5)", "0^-1", "exp(10000)"],
    )
    def test_domain_errors(self, src):
        with pytest.raises(EvalError):
            ev(src)

    def test_error_carries_subexpression(self):
        with pytest.raises(EvalError) as err:
            ev("1 + ln(-x)", x=1.0)
        assert "ln" in str(err.value)


class TestDerivative:
    @pytest.mark.parametrize(
        "src,u",
        [("u", 0.7), ("-u", 0.7), ("u+2*u", 0.7), ("3-u", 0.7), ("u*u", -0.4),
         ("1/u", 0.6), ("u/(1+u^2)", 0.3), ("u^3", -0.8), ("u^0.5", 0.6),
         ("2^u", 0.9), ("u^u", 1.3), ("pow(u, 2.5)", 0.4), ("pow(3, u)", -0.2),
         ("sin(u)", 0.7), ("cos(u)", 0.7), ("exp(u)", 0.7), ("ln(u)", 0.7),
         ("sqrt(u)", 0.7), ("abs(u)", -0.7), ("abs(u)", 0.7), ("gamma(u)", 0.3),
         ("gamma(1+2*u)", 1.7), ("exp(-u^2/2)*sin(3*u)", 0.5), ("gamma(2)*u", 0.5)],
    )
    def test_matches_central_difference(self, src, u):
        e = parse(src, U)
        value, slope = evaluate_with_derivative(e, "u", u)
        assert value == evaluate(e, {"u": u})
        h = 1e-6
        central = (evaluate(e, {"u": u + h}) - evaluate(e, {"u": u - h})) / (2 * h)
        assert slope == pytest.approx(central, rel=1e-7, abs=1e-7)

    def test_constant_subexpressions_need_no_derivative(self, monkeypatch):
        monkeypatch.setattr(
            "fracemden.expr._digamma", lambda x: pytest.fail("digamma called")
        )
        assert evaluate_with_derivative(parse("gamma(2.5)*u", U), "u", 1.0)[1] == (
            evaluate(parse("gamma(2.5)", U), {})
        )
        # no ln of the negative base: the exponent does not vary
        assert evaluate_with_derivative(parse("u^3", U), "u", -2.0) == (-8.0, 12.0)

    @pytest.mark.parametrize(
        "src,u",
        [("ln(u)", -1.0), ("ln(u)", 0.0), ("sqrt(u)", -1.0), ("gamma(u)", 0.0),
         ("gamma(u-2)", 1.0), ("1/u", 0.0), ("u^0.5", -2.0), ("pow(u, 0.5)", -2.0),
         ("u^-1", 0.0), ("exp(u)", 1e4), ("2 + ln(u - 1)", 0.5)],
    )
    def test_domain_errors_match_evaluate(self, src, u):
        e = parse(src, U)
        with pytest.raises(EvalError) as want:
            evaluate(e, {"u": u})
        with pytest.raises(EvalError) as got:
            evaluate_with_derivative(e, "u", u)
        assert str(got.value) == str(want.value)
        assert got.value.subexpr == want.value.subexpr

    def test_missing_binding_matches_evaluate(self):
        e = parse("x + u", {"x", "u"})
        with pytest.raises(EvalError, match="no binding for variable 'x'"):
            evaluate_with_derivative(e, "u", 1.0)

    @pytest.mark.parametrize(
        "src,u,sub",
        [("2*sqrt(u+1)", -1.0, "sqrt(u+1)"), ("abs(u)", 0.0, "abs(u)"),
         ("u^0.5", 0.0, "u^0.5"), ("pow(u, 0.5)", 0.0, "pow(u, 0.5)"),
         ("1 + u^u", -2.0, "u^u")],
    )
    def test_missing_derivative_names_subexpression(self, src, u, sub):
        evaluate(parse(src, U), {"u": u})  # the value itself exists
        with pytest.raises(EvalError, match="derivative") as err:
            evaluate_with_derivative(parse(src, U), "u", u)
        assert err.value.subexpr == parse(sub, U)

    @pytest.mark.parametrize(
        "x", [1e-3, 0.1, 0.5, 1.0, 1.4616321449683622, 2.7, 9.99, 10.0, 25.0, 1e3]
    )
    def test_digamma_matches_mpmath(self, x):
        with mpmath.workdps(40):
            ref = float(mpmath.digamma(x))
        assert abs(_digamma(x) - ref) <= 4e-15 * max(1.0, abs(ref))


CORPUS = [
    "1", "x", "-x", "x+1", "1-x", "2*x", "x/2", "x^2", "x^2+2", "x^3+x",
    "3+x^2", "2-2^3", "-(x+1)", "-x^2", "(-x)^2", "x^-2", "1/(1+x)",
    "exp(x)", "exp(x^2)", "sin(x)", "cos(x)", "sin(x)/x", "ln(1+x)",
    "sqrt(x)", "abs(x-0.5)", "gamma(x+1)", "pow(x, 2)", "pow(2, x)",
    "x*x*x", "x+x+x", "x-x-x", "x/x/x", "x^x^x", "2*(x+3)", "(x+1)*(x-1)",
    "1+2*3", "(1+2)*3", "1.5e-3*x", "0.25", "x*-1", "x--1", "x- -1",
    "sin(cos(x))", "exp(-x^2/2)", "1 - 1/3*x^2", "3 + x^1.7",
    "gamma(1 + 1.4)/gamma(1 + 0.7)", "-9 + 2*x - 9*x^2", "(1 + x^0.85)*(3 + x^1.7)",
    "2/x^0.5",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", CORPUS)
    def test_corpus(self, src):
        tree = parse(src, X)
        assert parse(to_string(tree), X) == tree


def _exprs(variables):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
        st.sampled_from(sorted(variables)).map(Var),
    )

    def extend(children):
        unary = children.map(Neg)
        binop = st.builds(
            BinOp, st.sampled_from("+-*/^"), children, children
        )
        call1 = st.builds(
            lambda fn, a: Call(fn, (a,)),
            st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs", "gamma"]),
            children,
        )
        call2 = st.builds(lambda a, b: Call("pow", (a, b)), children, children)
        return st.one_of(unary, binop, call1, call2)

    return st.recursive(leaves, extend, max_leaves=25)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(_exprs({"x", "u", "a"}))
    def test_print_parse_identity(self, tree):
        assert parse(to_string(tree), {"x", "u", "a"}) == tree
