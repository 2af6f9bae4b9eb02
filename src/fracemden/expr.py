"""Arithmetic expression parser and evaluator for problem definitions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' factor)?          # right-associative
    atom    :=  NUMBER
             |  IDENT '(' expr (',' expr)* ')'
             |  IDENT
             |  '(' expr ')'

so '^' binds tighter than unary minus: -x^2 parses as -(x^2), and
2^-3 is allowed.  Known functions: sin cos exp ln sqrt abs gamma pow
(pow takes two arguments, the rest one).  gamma is math.gamma; its
derivative uses the local _digamma, since the standard library has no
digamma.  Variable names are fixed at parse time; anything else is an
immediate error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParseError(Exception):
    """Syntax or unknown-identifier error; carries the source offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class EvalError(Exception):
    """Domain error or missing binding; carries the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expression"):
        self.subexpr = subexpr
        super().__init__(f"{message} in '{to_string(subexpr)}'")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expression", ...]


Expression = Num | Var | Neg | BinOp | Call

_FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "exp": 1, "ln": 1,
    "sqrt": 1, "abs": 1, "gamma": 1, "pow": 2,
}

# token kinds: NUM, IDENT, and single-char operators/punctuation
_OPS = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i) from None
            tokens.append(("NUM", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("IDENT", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: set[str]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected '{kind}', found '{tok[1] or 'end of input'}'", tok[2]
            )
        return self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expression:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expression:
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            # right-assoc; exponent at factor level so 2^-3 works
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expression:
        kind, text, offset = self.peek()
        if kind == "NUM":
            self.advance()
            return Num(float(text))
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "IDENT":
            self.advance()
            if self.peek()[0] == "(":
                if text not in _FUNCTION_ARITY:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                arity = _FUNCTION_ARITY[text]
                if len(args) != arity:
                    raise ParseError(
                        f"'{text}' takes {arity} argument(s), got {len(args)}",
                        offset,
                    )
                return Call(text, tuple(args))
            if text not in self.variables:
                raise ParseError(f"unknown identifier '{text}'", offset)
            return Var(text)
        raise ParseError(f"expected a value, found '{text or 'end of input'}'", offset)


def parse(src: str, variables: set[str]) -> Expression:
    """Parse src over the given variable names."""
    if not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src, set(variables))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"unexpected trailing input '{tok[1]}'", tok[2])
    return node


def _apply_fn(call: Call, args: list[float]) -> float:
    fn = call.fn
    try:
        if fn == "sin":
            return math.sin(args[0])
        if fn == "cos":
            return math.cos(args[0])
        if fn == "exp":
            return math.exp(args[0])
        if fn == "ln":
            if args[0] <= 0:
                raise EvalError(f"ln of non-positive value {args[0]!r}", call)
            return math.log(args[0])
        if fn == "sqrt":
            if args[0] < 0:
                raise EvalError(f"sqrt of negative value {args[0]!r}", call)
            return math.sqrt(args[0])
        if fn == "abs":
            return abs(args[0])
        if fn == "gamma":
            if args[0] <= 0:
                raise EvalError(f"gamma of non-positive value {args[0]!r}", call)
            return math.gamma(args[0])
        if fn == "pow":
            return _power(args[0], args[1], call)
    except OverflowError:
        raise EvalError("overflow", call) from None
    raise AssertionError(f"unhandled function {fn}")


def _power(base: float, exponent: float, node: Expression) -> float:
    # fractional power of a negative base stays a domain error: this library
    # works on [0, 1] and never needs complex values
    if base < 0 and not float(exponent).is_integer():
        raise EvalError(
            f"fractional power of negative base ({base!r})^({exponent!r})", node
        )
    if base == 0 and exponent < 0:
        raise EvalError("zero raised to a negative power", node)
    try:
        return base ** exponent
    except OverflowError:
        raise EvalError("overflow", node) from None


def evaluate(e: Expression, bindings: dict[str, float]) -> float:
    """Evaluate with IEEE double arithmetic; raises EvalError on domain
    problems (carrying the subexpression) or missing bindings."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvalError(f"no binding for variable '{e.name}'", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, BinOp):
        lhs = evaluate(e.lhs, bindings)
        rhs = evaluate(e.rhs, bindings)
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
        return _apply_fn(e, [evaluate(a, bindings) for a in e.args])
    raise TypeError(f"not an expression node: {e!r}")


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0: the upward recurrence
    psi(x) = psi(x+1) - 1/x to x >= 10, then the asymptotic series through
    x^-12 (truncation error below 1e-15 there)."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (
        1 / 240 - y * (1 / 132 - y * 691 / 32760)))))
    return shift + math.log(x) - 0.5 / x - tail


def _power_derivative(
    a: float, da: float, b: float, db: float, value: float, node: Expression
) -> float:
    """d(a^b) from the operand derivatives; value = a^b already checked."""
    d = 0.0
    if da and b:
        if a == 0 and b < 1:
            raise EvalError("power has no derivative at a zero base", node)
        d += b * _power(a, b - 1, node) * da
    if db:
        if a > 0:
            d += value * math.log(a) * db
        elif not (a == 0 and b > 0):
            raise EvalError(
                f"power of non-positive base {a!r} has no derivative in its exponent",
                node,
            )
    return d


def evaluate_with_derivative(
    e: Expression, name: str, value: float
) -> tuple[float, float]:
    """Value of e and its derivative in the variable `name`, both at
    name = value, by forward-mode differentiation.

    Values go through the same arithmetic and domain checks as evaluate,
    so they are identical to it and raise the same EvalError.  A
    derivative term is formed only where its argument depends on the
    variable, so gamma(2) or u^3 at u < 0 needs no log or digamma.  Where
    the derivative does not exist (sqrt or abs at 0, a power below 1 at a
    zero base) EvalError names the subexpression.
    """
    if isinstance(e, Num):
        return e.value, 0.0
    if isinstance(e, Var):
        if e.name != name:
            raise EvalError(f"no binding for variable '{e.name}'", e)
        return float(value), 1.0
    if isinstance(e, Neg):
        v, d = evaluate_with_derivative(e.arg, name, value)
        return -v, -d
    if isinstance(e, BinOp):
        a, da = evaluate_with_derivative(e.lhs, name, value)
        b, db = evaluate_with_derivative(e.rhs, name, value)
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
        duals = [evaluate_with_derivative(arg, name, value) for arg in e.args]
        v = _apply_fn(e, [a for a, _ in duals])
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


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Num):
        text = repr(e.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, 0) for a in e.args)})"
    if isinstance(e, Neg):
        text = f"-{_fmt(e.arg, _PRECEDENCE['neg'])}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        if e.op == "^":
            # right-assoc: parenthesize a left operand that is itself a power
            lhs = _fmt(e.lhs, prec + 1)
            rhs = _fmt(e.rhs, prec)
        else:
            lhs = _fmt(e.lhs, prec)
            rhs = _fmt(e.rhs, prec + 1)
        text = f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: Expression) -> str:
    """Render a tree to source that re-parses to the identical tree."""
    return _fmt(e, 0)
