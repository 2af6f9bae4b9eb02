import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracemden.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    _RULES,
    _digamma,
    _power,
    _power_derivative,
    _power_dual,
    compile_expression,
    compile_template,
    compile_with_derivative,
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
         "(-2)^0.5", "pow(-2, 0.5)", "0^-1", "exp(10000)", "sin(1e308*10)",
         "cos(-1e308*10)"],
    )
    def test_domain_errors(self, src):
        with pytest.raises(EvalError):
            ev(src)

    def test_error_carries_subexpression(self):
        with pytest.raises(EvalError) as err:
            ev("1 + ln(-x)", x=1.0)
        assert "ln" in str(err.value)


class TestHandBuiltNodes:
    """Trees built without the parser meet the same arity and name checks,
    in the parser's words, when they are compiled."""

    @pytest.mark.parametrize("tree,message", [
        (Call("sin", (Var("x"), Var("x"))), "'sin' takes 1 argument(s), got 2"),
        (Call("pow", (Var("x"),)), "'pow' takes 2 argument(s), got 1"),
        (Call("tan", (Var("x"),)), "unknown function 'tan'"),
        (BinOp("%", Var("x"), Num(2.0)), "unknown operator '%'"),
    ], ids=["sin_of_two", "pow_of_one", "tan", "modulo"])
    def test_refused_at_compile_time(self, tree, message):
        outer = BinOp("+", Num(1.0), tree)
        for run in (lambda: compile_expression(outer, "x"),
                    lambda: compile_with_derivative(outer, "x"),
                    lambda: evaluate(outer, {"x": 0.5})):
            with pytest.raises(EvalError) as err:
                run()
            assert str(err.value) == f"{message} in '{to_string(tree)}'"
            assert err.value.subexpr is tree


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
         ("u^-1", 0.0), ("exp(u)", 1e4), ("2 + ln(u - 1)", 0.5), ("sin(u)", math.inf),
         ("cos(u)", -math.inf)],
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


def _exprs(variables, numbers=st.floats(min_value=0.0, max_value=1e6, allow_nan=False)):
    leaves = st.one_of(numbers.map(Num), st.sampled_from(sorted(variables)).map(Var))

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

    # Nums the parser never makes: negative ones, -0.0 and the infinities
    @settings(max_examples=300, deadline=None)
    @given(_exprs(X, st.one_of(st.floats(allow_nan=False),
                               st.sampled_from([-0.0, -2.0, math.inf, -math.inf]))),
           st.sampled_from([0.0, -0.0, 0.5, -1.5, 3.0, math.inf]))
    @example(BinOp("^", Num(-2.0), Num(0.5)), 0.5)  # not -(2^0.5)
    @example(BinOp("^", Num(-0.0), Num(2.0)), 0.5)  # not -(0^2) = -0.0
    @example(BinOp("+", Var("x"), Num(math.inf)), 0.5)  # inf does not parse
    def test_printed_source_evaluates_as_the_tree(self, tree, x):
        def value(t):  # the bits of the value, or the error's type and text
            try:
                v = evaluate(t, {"x": x})
            except Exception as err:
                return type(err), str(err)
            return "nan" if v != v else struct.pack("<d", v)

        assert value(parse(to_string(tree), X)) == value(tree)


# The recursive tree walkers that evaluate and evaluate_with_derivative were
# before they ran through compiled closures, kept as the reference; only the
# value of a function call comes from the rule table the compiler uses.


def _walk(e, bindings):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvalError(f"no binding for variable '{e.name}'", e) from None
    if isinstance(e, Neg):
        return -_walk(e.arg, bindings)
    if isinstance(e, BinOp):
        lhs = _walk(e.lhs, bindings)
        rhs = _walk(e.rhs, bindings)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            if rhs == 0.0:
                raise EvalError("division by zero", e)
            return lhs / rhs
        if e.op == "^":
            return _power(lhs, rhs, e)
        raise AssertionError(f"unhandled operator {e.op}")
    if isinstance(e, Call):
        return _RULES[e.fn].value(*[_walk(a, bindings) for a in e.args], e)
    raise TypeError(f"not an expression node: {e!r}")


def _walk_dual(e, name, value):
    if isinstance(e, Num):
        return e.value, 0.0
    if isinstance(e, Var):
        if e.name != name:
            raise EvalError(f"no binding for variable '{e.name}'", e)
        return float(value), 1.0
    if isinstance(e, Neg):
        v, d = _walk_dual(e.arg, name, value)
        return -v, -d
    if isinstance(e, BinOp):
        a, da = _walk_dual(e.lhs, name, value)
        b, db = _walk_dual(e.rhs, name, value)
        if e.op == "+":
            return a + b, da + db
        if e.op == "-":
            return a - b, da - db
        if e.op == "*":
            return a * b, (da * b if da else 0.0) + (a * db if db else 0.0)
        if e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero", e)
            q = a / b
            d = da / b if da else 0.0
            if db:
                d -= q * db / b
            return q, d
        if e.op == "^":
            v = _power(a, b, e)
            return v, _power_derivative(a, da, b, db, v, e)
        raise AssertionError(f"unhandled operator {e.op}")
    if isinstance(e, Call):
        duals = [_walk_dual(arg, name, value) for arg in e.args]
        v = _RULES[e.fn].value(*[a for a, _ in duals], e)
        a, da = duals[0]
        if e.fn == "pow":
            b, db = duals[1]
            return v, _power_derivative(a, da, b, db, v, e)
        if not da:
            return v, 0.0
        if e.fn == "sin":
            return v, math.cos(a) * da
        if e.fn == "cos":
            return v, -math.sin(a) * da
        if e.fn == "exp":
            return v, v * da
        if e.fn == "ln":
            return v, da / a
        if e.fn in ("sqrt", "abs") and a == 0:
            raise EvalError(f"{e.fn} has no derivative at 0", e)
        if e.fn == "sqrt":
            return v, 0.5 * da / v
        if e.fn == "abs":
            return v, da if a > 0 else -da
        if e.fn == "gamma":
            return v, v * _digamma(a) * da
        raise AssertionError(f"unhandled function {e.fn}")
    raise TypeError(f"not an expression node: {e!r}")


def _outcome(fn, *args):
    """What fn(*args) gives, in a form that compares bit for bit: the type
    and the 8 bytes of each float (every NaN alike), or the exception's
    type, text and subexpression node."""
    try:
        result = fn(*args)
    except Exception as err:
        return type(err), str(err), id(getattr(err, "subexpr", None))
    values = result if isinstance(result, tuple) else (result,)
    return tuple(
        (type(v), "nan" if v != v else struct.pack("<d", v)) for v in values
    )


_POINTS = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 200.0, math.inf, -math.inf, math.nan]),
)


class TestCompiledEqualsTreeWalk:
    @settings(max_examples=400, deadline=None)
    @given(_exprs({"x"}), _POINTS)
    def test_value(self, tree, x):
        want = _outcome(_walk, tree, {"x": x})
        assert _outcome(compile_expression(tree, "x"), x) == want
        assert _outcome(evaluate, tree, {"x": x}) == want

    @settings(max_examples=400, deadline=None)
    @given(_exprs({"u"}), _POINTS)
    def test_value_and_derivative(self, tree, u):
        want = _outcome(_walk_dual, tree, "u", u)
        assert _outcome(compile_with_derivative(tree, "u"), u) == want
        assert _outcome(evaluate_with_derivative, tree, "u", u) == want

    @settings(max_examples=200, deadline=None)
    @given(_exprs({"x", "u", "a"}), st.dictionaries(st.sampled_from("xua"), _POINTS))
    def test_other_variables(self, tree, bindings):
        # evaluate binds any names; the compiled forms bind one, so every
        # other variable raises "no binding" where the walk reaches it
        assert _outcome(evaluate, tree, bindings) == _outcome(_walk, tree, bindings)
        x, u = bindings.get("x", 0.5), bindings.get("u", 0.5)
        assert _outcome(compile_expression(tree, "x"), x) == _outcome(_walk, tree, {"x": x})
        assert _outcome(compile_with_derivative(tree, "u"), u) == (
            _outcome(_walk_dual, tree, "u", u)
        )

    @pytest.mark.parametrize("src", CORPUS + ["-0*x", "x*-0", "0/x", "-2", "-(1-1)*x"])
    def test_corpus(self, src):
        tree = parse(src, X)
        f, dual = compile_expression(tree, "x"), compile_with_derivative(tree, "x")
        for x in (-1.5, -0.0, 0.0, 1e-3, 0.3, 1.0, 2.5, math.inf, -math.inf, math.nan):
            assert _outcome(f, x) == _outcome(_walk, tree, {"x": x})
            assert _outcome(dual, x) == _outcome(_walk_dual, tree, "x", x)


class TestConstantFolding:
    def test_constant_subtrees_are_evaluated_once(self, monkeypatch):
        tree = parse("gamma(2.5)*x + gamma(1.5)/gamma(0.5)", X)
        calls = []
        gamma = math.gamma
        monkeypatch.setattr(math, "gamma", lambda z: calls.append(z) or gamma(z))
        f = compile_expression(tree, "x")
        assert calls == [2.5, 1.5, 0.5]
        assert [f(x) for x in (0.1, 0.2, 0.3)] == [_walk(tree, {"x": x}) for x in (0.1, 0.2, 0.3)]
        assert len(calls) == 3 + 3 * 3  # the walk evaluates every gamma again

    def test_whole_constant_expression(self):
        f = compile_expression(parse("2^3 - 1", X), "x")
        assert f(0.25) == f(math.nan) == 7.0

    @pytest.mark.parametrize(
        "src", ["gamma(-1) + x", "x + 1/0", "x*ln(2 - 3)", "y + x", "x + sin(1e308*10)"]
    )
    def test_constant_subtree_that_raises_is_not_folded(self, src):
        # compiling raises nothing; every call raises what the walk raises
        tree = parse(src, {"x", "y"})
        f, dual = compile_expression(tree, "x"), compile_with_derivative(tree, "x")
        for x in (0.25, 0.5):
            want = _outcome(_walk, tree, {"x": x})
            assert want[0] is EvalError
            assert _outcome(f, x) == want
            assert _outcome(dual, x) == _outcome(_walk_dual, tree, "x", x)

    def test_variable_is_converted_to_float(self):
        f = compile_expression(parse("x^400", X), "x")
        with pytest.raises(EvalError, match="overflow"):
            f(np.float64(10.0))  # numpy's power would give inf and a warning
        assert type(compile_expression(parse("x", X), "x")(np.float64(0.5))) is float


class TestConstantExponent:
    # an exponent that folds to b >= 0 compiles to its own closure; u^-2
    # keeps the general rule
    @pytest.mark.parametrize(
        "src", ["u^0", "u^2", "u^3", "pow(u, 3)", "u^-2", "u^0.5", "u^1e-20"]
    )
    @pytest.mark.parametrize("u", [0.0, -0.0, -2.0, 5e-324, 1e200, math.inf, math.nan])
    def test_same_outcome_as_the_general_rule(self, src, u):
        tree = parse(src, U)
        b = evaluate(tree.rhs if isinstance(tree, BinOp) else tree.args[1], {})
        assert _outcome(compile_expression(tree, "u"), u) == _outcome(_power, u, b, tree)
        assert _outcome(compile_with_derivative(tree, "u"), u) == (
            _outcome(_power_dual, (u, 1.0), (b, 0.0), tree)
        )


# sources of depth k in each way a tree can nest
_DEEP = {
    "sum": lambda k: "+".join(["x"] * k),
    "parentheses": lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
    "minus": lambda k: "-" * (k - 1) + "x",
    "power": lambda k: "^".join(["x"] * k),
    "calls": lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1),
    "minus_parentheses": lambda k: "-(" * ((k - 1) // 2) + "-x"[k % 2:] + ")" * ((k - 1) // 2),
    "negated_sum": lambda k: "-(" + "+".join(["x"] * (k - 2)) + ")",
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_at_the_limit_parses_compiles_and_evaluates(self, shape):
        tree = parse(_DEEP[shape](MAX_DEPTH), X)
        f, dual = compile_expression(tree, "x"), compile_with_derivative(tree, "x")
        for x in (0.5, 2.0):
            assert _outcome(f, x) == _outcome(_walk, tree, {"x": x})
            assert _outcome(evaluate, tree, {"x": x}) == _outcome(_walk, tree, {"x": x})
            assert _outcome(dual, x) == _outcome(_walk_dual, tree, "x", x)
        assert parse(to_string(tree), X) == tree

    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_one_level_beyond_is_refused(self, shape):
        with pytest.raises(ParseError, match=f"more than {MAX_DEPTH}"):
            parse(_DEEP[shape](MAX_DEPTH + 1), X)

    def test_refusal_names_the_depth(self):
        # these used to end in an uncaught RecursionError
        with pytest.raises(ParseError, match="nested 900 levels deep, more than 100"):
            parse(_DEEP["sum"](900), X)
        with pytest.raises(ParseError, match="nested more than 100 levels deep"):
            parse(_DEEP["parentheses"](201), X)

    def test_the_sum_at_the_limit_is_exact(self):
        tree = parse(_DEEP["sum"](MAX_DEPTH), X)
        assert compile_expression(tree, "x")(0.5) == 50.0
        assert compile_with_derivative(tree, "x")(0.5) == (50.0, 100.0)


SLOTS = ("A1", "A2")


def _substitute(e, values):
    """e with each placeholder Var a Num of its value."""
    if isinstance(e, Var):
        return Num(values[SLOTS.index(e.name)]) if e.name in SLOTS else e
    if isinstance(e, Neg):
        return Neg(_substitute(e.arg, values))
    if isinstance(e, BinOp):
        return BinOp(e.op, _substitute(e.lhs, values), _substitute(e.rhs, values))
    if isinstance(e, Call):
        return Call(e.fn, tuple(_substitute(a, values) for a in e.args))
    return e


# a placeholder in a constant subtree that raises below A1 = 1, in an
# exponent (a negative base raises for a fractional one, and A1 < 0 keeps
# the general power rule), and in a subtree that raises where x < A1
TEMPLATES = [
    "x + ln(A1 - 1)", "x^A1", "sqrt(x - A1)", "gamma(1 + A2)/gamma(1 + A1)*x^A1 - 9*x^A2",
    "sin(x)*2 + pow(x, A2)/A1", "-A1", "x", "2^A1*x + 1/(A2 - A1)",
]
_TEMPLATE_VALUES = [(0.5, 1.0), (0.7, 1.4), (1.0, 2.0), (1.5, 3.0), (2.0, 2.0), (0.0, -0.0),
                    (-0.5, -1.0), (3.0, 170.5), (math.inf, math.nan), (math.nan, 1.0)]
_TEMPLATE_POINTS = (-1.5, -0.0, 0.0, 1e-3, 0.3, 0.7, 1.0, 2.5, math.inf, math.nan)


class TestTemplateBind:
    @pytest.mark.parametrize("src", TEMPLATES)
    def test_bound_closures_equal_compiling_the_bound_tree(self, src):
        template = parse(src, {"x", *SLOTS})
        bind = compile_template(template, "x", SLOTS)
        for values in _TEMPLATE_VALUES:
            tree, f = bind(values)
            assert tree == _substitute(template, values)
            want = compile_expression(tree, "x")
            for x in _TEMPLATE_POINTS:
                # the same bits, or the same error naming the same node of tree
                assert _outcome(f, x) == _outcome(want, x), (values, x)
                assert _outcome(f, x) == _outcome(_walk, tree, {"x": x}), (values, x)

    @settings(max_examples=300, deadline=None)
    @given(_exprs({"x", *SLOTS}), _POINTS, _POINTS, _POINTS)
    def test_random_trees(self, template, a1, a2, x):
        tree, f = compile_template(template, "x", SLOTS)((a1, a2))
        assert tree == _substitute(template, (a1, a2))
        assert _outcome(f, x) == _outcome(compile_expression(tree, "x"), x)

    def test_error_names_the_node_of_the_bound_tree(self):
        tree, f = compile_template(parse("1 + sqrt(x - A1)", {"x", *SLOTS}), "x", SLOTS)((0.5, 1.0))
        with pytest.raises(EvalError) as err:
            f(0.25)
        assert err.value.subexpr is tree.rhs
        assert str(err.value) == "sqrt of negative value -0.25 in 'sqrt(x - 0.5)'"

    def test_subtrees_free_of_placeholders_are_compiled_once_and_shared(self, monkeypatch):
        template = parse("gamma(2.5)*x + x^A1", {"x", *SLOTS})
        calls = []
        gamma = math.gamma
        monkeypatch.setattr(math, "gamma", lambda z: calls.append(z) or gamma(z))
        bind = compile_template(template, "x", SLOTS)
        assert calls == [2.5]
        trees = [bind((a, 2 * a))[0] for a in (0.6, 0.8, 1.0)]
        assert calls == [2.5]
        assert all(tree.lhs is template.lhs for tree in trees)
        assert [tree.rhs.rhs for tree in trees] == [Num(0.6), Num(0.8), Num(1.0)]

    def test_template_without_placeholders_is_bound_once(self):
        template = parse("u^5", {"u", *SLOTS})
        bind = compile_template(template, "u", SLOTS)
        first, second = bind((0.6, 1.2)), bind((0.9, 1.8))
        assert first[0] is template and all(a is b for a, b in zip(first, second))
        assert first[1](2.0) == 32.0
