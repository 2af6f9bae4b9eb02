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
digamma.  Variable names are fixed at parse time, and a tree nests at most
MAX_DEPTH = 100 levels (a sum of 100 terms, or 99 nested parentheses).

compile_expression (the value) and compile_with_derivative (the value and
its derivative) turn a tree, in one pass over its nodes, into nested
closures of one variable.  Subtrees free of it are evaluated then and
folded into constants, unless they raise.  A call makes the same math.*
calls and double operations, in the same order, as a walk of the tree, so
values and errors are identical; evaluate and evaluate_with_derivative
compile and call once.
"""

from __future__ import annotations

import math
import operator
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


# Deepest tree parse accepts, in nodes from the top to a leaf plus enclosing
# parentheses: parsing, compiling and evaluating recurse once or so per level.
MAX_DEPTH = 100


class _Parser:  # each parse_* returns (node, depth)
    def __init__(self, src: str, variables: set[str]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables
        self.open = 0  # parse_factor calls under way, so recursion stays bounded

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

    def parse_expr(self):
        node, depth = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs, d = self.parse_term()
            node, depth = BinOp(op, node, rhs), max(depth, d) + 1
        return node, depth

    def parse_term(self):
        node, depth = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs, d = self.parse_factor()
            node, depth = BinOp(op, node, rhs), max(depth, d) + 1
        return node, depth

    def parse_factor(self):
        self.open += 1  # each open call is one more level
        if self.open > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep", self.peek()[2])
        if self.peek()[0] == "-":
            self.advance()
            node, depth = self.parse_factor()
            node, depth = Neg(node), depth + 1
        else:
            node, depth = self.parse_power()
        self.open -= 1
        return node, depth

    def parse_power(self):
        node, depth = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            # right-assoc; exponent at factor level so 2^-3 works
            rhs, d = self.parse_factor()
            node, depth = BinOp("^", node, rhs), max(depth, d) + 1
        return node, depth

    def parse_atom(self):
        kind, text, offset = self.peek()
        if kind == "NUM":
            self.advance()
            return Num(float(text)), 1
        if kind == "(":
            self.advance()
            node, depth = self.parse_expr()
            self.expect(")")
            return node, depth + 1
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
                return Call(text, tuple(a for a, _ in args)), max(d for _, d in args) + 1
            if text not in self.variables:
                raise ParseError(f"unknown identifier '{text}'", offset)
            return Var(text), 1
        raise ParseError(f"expected a value, found '{text or 'end of input'}'", offset)


def parse(src: str, variables: set[str]) -> Expression:
    """Parse src over the given variable names, at most MAX_DEPTH deep."""
    if not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src, set(variables))
    node, depth = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"unexpected trailing input '{tok[1]}'", tok[2])
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested {depth} levels deep, more than {MAX_DEPTH}", 0)
    return node


def _apply_fn(call: Call, args: tuple[float, ...] | list[float]) -> float:
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


def _lookup(bindings: dict[str, float], var: Var) -> float:
    try:
        return float(bindings[var.name])
    except KeyError:
        raise EvalError(f"no binding for variable '{var.name}'", var) from None


def _divide(a: float, b: float, node: Expression) -> float:
    if b == 0.0:
        raise EvalError("division by zero", node)
    return a / b


# value and (value, derivative) rules of the operators that raise nothing
_ARITH = {
    "+": (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (operator.mul, lambda x, y: (
        x[0] * y[0], (x[1] * y[0] if x[1] else 0.0) + (x[0] * y[1] if y[1] else 0.0))),
}


def _dual_rule(e: BinOp | Call, duals) -> tuple[float, float]:
    """(value, derivative) of a quotient, power or call from its operands';
    a derivative term is formed only where its operand varies."""
    a, da = duals[0]
    if isinstance(e, BinOp):
        b, db = duals[1]
        if e.op == "/":
            q = _divide(a, b, e)
            d = da / b if da else 0.0
            if db:
                d -= q * db / b
            return q, d
        v = _power(a, b, e)
        return v, _power_derivative(a, da, b, db, v, e)
    v = _apply_fn(e, [arg for arg, _ in duals])
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


def _compile(e: Expression, name: str | None, leaf, bindings: dict, dual: bool):
    """e as a closure of the variable `name` (leaf is the variable's own),
    or as its value if e is free of name and evaluates without error; other
    variables are looked up in bindings, and dual asks for (value,
    derivative) pairs.  One pass dispatching on the node type; a subtree
    that raises stays a closure, so each call raises as a walk would."""
    t = type(e)
    if t is Num:
        return (e.value, 0.0) if dual else e.value
    if t is Var:
        if e.name == name:
            return leaf
        args, op = (), lambda: (_lookup(bindings, e), 0.0) if dual else _lookup(bindings, e)
    else:
        if t is BinOp:
            lhs, rhs = e.lhs, e.rhs
            if e.op in _ARITH:
                op = _ARITH[e.op][dual]
            elif dual:
                op = lambda x, y: _dual_rule(e, (x, y))
            else:
                rule = {"/": _divide, "^": _power}[e.op]
                op = lambda x, y: rule(x, y, e)
        elif t is Neg:
            lhs, rhs = e.arg, None
            op = (lambda x: (-x[0], -x[1])) if dual else operator.neg
        elif t is Call:
            lhs, rhs = e.args if len(e.args) == 2 else (e.args[0], None)
            op = (lambda *x: _dual_rule(e, x)) if dual else (lambda *x: _apply_fn(e, x))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        a = _compile(lhs, name, leaf, bindings, dual)
        if rhs is None:
            if callable(a):
                return lambda v: op(a(v))
            args = (a,)
        else:
            b = _compile(rhs, name, leaf, bindings, dual)
            if callable(a):
                return (lambda v: op(a(v), b(v))) if callable(b) else (lambda v: op(a(v), b))
            if callable(b):
                return lambda v: op(a, b(v))
            args = (a, b)
    try:
        return op(*args)
    except Exception:  # whatever it is, each call raises it again
        return lambda v: op(*args)


def compile_expression(e: Expression, name: str):
    """e as a function of one float, the value of the variable `name`:
    evaluate(e, {name: v}) with its subtrees free of name folded once, here.
    """
    f = _compile(e, name, float, {}, False)
    return f if callable(f) else lambda v: f


def compile_with_derivative(e: Expression, name: str):
    """e as a function of one float v returning evaluate_with_derivative(e,
    name, v), folded like compile_expression."""
    f = _compile(e, name, lambda v: (float(v), 1.0), {}, True)
    return f if callable(f) else lambda v: f


def evaluate(e: Expression, bindings: dict[str, float]) -> float:
    """Evaluate with IEEE double arithmetic; raises EvalError on domain
    problems (carrying the subexpression) or missing bindings."""
    f = _compile(e, None, None, bindings, False)
    return f(None) if callable(f) else f


def evaluate_with_derivative(
    e: Expression, name: str, value: float
) -> tuple[float, float]:
    """Value of e, as evaluate gives it, and its derivative in the variable
    `name`, both at name = value, by forward-mode differentiation.  Where
    the derivative does not exist (sqrt or abs at 0, a power below 1 at a
    zero base) EvalError names the subexpression."""
    return compile_with_derivative(e, name)(value)


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
