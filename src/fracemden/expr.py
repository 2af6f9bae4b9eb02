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

One table, _RULES, declares each operator and function once: its arity, a
value rule (operand values to value, domain checks included) and a dual
rule ((value, derivative) pairs to the same, in forward mode).  The parser
takes function names and arities from it, and the compiler sends every
BinOp, Neg and Call through it, refusing in the parser's words a hand-built
node whose name is missing or whose operand count is wrong.  A value out
of a function's domain (ln(0), sin of an infinity), a division by zero or
an overflow raises EvalError naming the subexpression.

compile_expression (the value) and compile_with_derivative (the value and
its derivative) turn a tree, in one pass over its nodes, into nested
closures of one variable.  Every operator node goes through one step,
_node: its rule (_rule) is applied to its compiled operands, folded into
a constant where they all are constants and it raises nothing, else kept
as one closure (a subtree that raises stays one, so each call raises
again).  A power whose exponent folds to a float b >= 0 (u^3, pow(u, 5))
becomes a closure of its base alone, with the checks of the power rules
that read only b settled once, there.  A call makes the same math.* calls
and double operations, in the same order, as a walk of the tree, so
values and errors are identical; evaluate and evaluate_with_derivative
compile and call once.

compile_template compiles a tree over placeholder variables once, for its
value only, and binds values to them later: each bind builds the nodes
above a placeholder, each once, and sends each through the same _node, so
the tree and its closure are those of substituting the values and
compiling, with every subtree free of the placeholders compiled only once.
A derivative is compiled from a whole tree, by compile_with_derivative.

to_string writes a negative Num (-0.0 too) as the parser spells it, a Neg
of a literal, and an infinite one as 1e999, which parses to inf; nan has no
source form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial


class ParseError(Exception):
    """Syntax or unknown-identifier error; carries the source offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class EvalError(Exception):
    """Domain error or missing binding; carries the offending subexpression
    and the message without it."""

    def __init__(self, message: str, subexpr: "Expression"):
        self.message = message
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
                rule = _RULES.get(text)
                if rule is None:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != rule.arity:
                    raise ParseError(
                        f"'{text}' takes {rule.arity} argument(s), got {len(args)}",
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


# In the dual rules, a derivative term is formed only where its operand varies.
def _quotient_dual(x, y, node):
    (a, da), (b, db) = x, y
    q = _divide(a, b, node)
    d = da / b if da else 0.0
    if db:
        d -= q * db / b
    return q, d


def _power_dual(x, y, node):
    (a, da), (b, db) = x, y
    v = _power(a, b, node)
    return v, _power_derivative(a, da, b, db, v, node)


def _power_by(b: float, node: Expression, dual: bool):
    """The value rule of a^b, or with dual its dual rule, for a constant
    float b >= 0, as a function of a (or of (a, da)) alone.  It raises and
    returns what _power and _power_dual do, with the checks on b alone made
    here: b is never negative, b - 1 is an integer wherever a < 0 gets that
    far, and a zero base reaches a^(b - 1) only with b >= 1."""
    fractional = not b.is_integer()
    b1 = b - 1

    def value(a):
        if a < 0 and fractional:
            raise EvalError(f"fractional power of negative base ({a!r})^({b!r})", node)
        try:
            return a ** b
        except OverflowError:
            raise EvalError("overflow", node) from None

    def pair(x):
        a, da = x
        v = value(a)
        if not (da and b):
            return v, 0.0
        if a == 0 and b < 1:
            raise EvalError("power has no derivative at a zero base", node)
        try:
            return v, 0.0 + b * a ** b1 * da
        except OverflowError:
            raise EvalError("overflow", node) from None

    return pair if dual else value


# value(*operand values, node) -> float and
# dual(*(value, derivative) pairs, node) -> (value, derivative)
_Rule = namedtuple("_Rule", "arity value dual")


def _function(libm, slope, refuse=None, smooth=True) -> _Rule:
    """Rule of a one-argument function.  libm(a) is its value; refuse =
    (word, test) marks the arguments outside its domain; slope(a, da, v) is
    its derivative, and a function that is not smooth has none at 0.  A
    ValueError or OverflowError of libm becomes an EvalError naming the call.
    """

    def value(a, node):
        if refuse and refuse[1](a):
            raise EvalError(f"{node.fn} of {refuse[0]} value {a!r}", node)
        try:
            return libm(a)
        except OverflowError:
            raise EvalError("overflow", node) from None
        except ValueError:  # math.sin and math.cos of an infinity
            raise EvalError(f"{node.fn} of {a!r} is undefined", node) from None

    def dual(x, node):
        a, da = x
        v = value(a, node)
        if not da:
            return v, 0.0
        if not smooth and a == 0:
            raise EvalError(f"{node.fn} has no derivative at 0", node)
        return v, slope(a, da, v)

    return _Rule(1, value, dual)


_NON_POSITIVE = ("non-positive", lambda a: a <= 0)

# Every operator and function, keyed by BinOp.op, Call.fn, or Neg for unary
# minus.  math.* is looked up at each call, inside the lambdas.
_RULES = {
    "+": _Rule(2, lambda x, y, e: x + y, lambda x, y, e: (x[0] + y[0], x[1] + y[1])),
    "-": _Rule(2, lambda x, y, e: x - y, lambda x, y, e: (x[0] - y[0], x[1] - y[1])),
    "*": _Rule(2, lambda x, y, e: x * y, lambda x, y, e: (
        x[0] * y[0], (x[1] * y[0] if x[1] else 0.0) + (x[0] * y[1] if y[1] else 0.0))),
    "/": _Rule(2, _divide, _quotient_dual),
    "^": _Rule(2, _power, _power_dual),
    Neg: _Rule(1, lambda x, e: -x, lambda x, e: (-x[0], -x[1])),
    "sin": _function(lambda a: math.sin(a), lambda a, da, v: math.cos(a) * da),
    "cos": _function(lambda a: math.cos(a), lambda a, da, v: -math.sin(a) * da),
    "exp": _function(lambda a: math.exp(a), lambda a, da, v: v * da),
    "ln": _function(lambda a: math.log(a), lambda a, da, v: da / a, _NON_POSITIVE),
    "sqrt": _function(lambda a: math.sqrt(a), lambda a, da, v: 0.5 * da / v,
                      ("negative", lambda a: a < 0), smooth=False),
    "abs": _function(abs, lambda a, da, v: da if a > 0 else -da, smooth=False),
    "gamma": _function(lambda a: math.gamma(a), lambda a, da, v: v * _digamma(a) * da,
                       _NON_POSITIVE),
    "pow": _Rule(2, _power, _power_dual),
}


def _rule(e: Expression):
    """The rule and the operands of an operator node, refused in the
    parser's words where its name is unknown or its operand count wrong."""
    t = type(e)
    if t is BinOp:
        key, operands = e.op, (e.lhs, e.rhs)
    elif t is Call:
        key, operands = e.fn, e.args
    elif t is Neg:
        key, operands = Neg, (e.arg,)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    rule = _RULES.get(key)
    if rule is None:
        raise EvalError(f"unknown {'operator' if t is BinOp else 'function'} '{key}'", e)
    if len(operands) != rule.arity:
        raise EvalError(f"'{key}' takes {rule.arity} argument(s), got {len(operands)}", e)
    return rule, operands


def _node(e: Expression, rule: _Rule, dual: bool, a, b=None):
    """The operator node e, of the rule given, over its compiled operands a
    and, for a binary rule, b (each a value, or a closure of the variable):
    folded into its value where every operand is one and the rule raises
    nothing, else one closure over the rule.  A power whose exponent is a
    float b >= 0 gets the closure of _power_by; a subtree that raises stays
    a closure, so each call raises as a walk would."""
    op = rule.dual if dual else rule.value
    if rule.arity == 1:
        if callable(a):
            return lambda v: op(a(v), e)
        args = (a, e)
    else:
        if callable(a):
            if callable(b):
                return lambda v: op(a(v), b(v), e)
            exponent = b[0] if dual else b
            if rule.value is _power and type(exponent) is float and exponent >= 0:
                power = _power_by(exponent, e, dual)
                return lambda v: power(a(v))
            return lambda v: op(a(v), b, e)
        if callable(b):
            return lambda v: op(a, b(v), e)
        args = (a, b, e)
    try:
        return op(*args)
    except Exception:  # whatever it is, each call raises it again
        return lambda v: op(*args)


def _dual_leaf(v):
    return float(v), 1.0


def _compile(e: Expression, name: str | None, bindings: dict, dual: bool):
    """e as a closure of the variable `name`, or as its value if e is free
    of name and evaluates without error; other variables are looked up in
    bindings, and dual asks for (value, derivative) pairs.  Every operator
    node compiles its operands, then goes through _node."""
    t = type(e)
    if t is Num:
        return (e.value, 0.0) if dual else e.value
    if t is Var:
        if e.name == name:
            return _dual_leaf if dual else float
        get = lambda: (_lookup(bindings, e), 0.0) if dual else _lookup(bindings, e)
        try:
            return get()
        except Exception:
            return lambda v: get()
    rule, operands = _rule(e)
    a = _compile(operands[0], name, bindings, dual)
    b = _compile(operands[1], name, bindings, dual) if rule.arity == 2 else None
    return _node(e, rule, dual, a, b)


def _closure(f):
    return f if callable(f) else lambda v: f


def compile_expression(e: Expression, name: str):
    """e as a function of one float, the value of the variable `name`:
    evaluate(e, {name: v}) with its subtrees free of name folded once, here.
    """
    return _closure(_compile(e, name, {}, False))


def compile_with_derivative(e: Expression, name: str):
    """e as a function of one float v returning evaluate_with_derivative(e,
    name, v), folded like compile_expression."""
    return _closure(_compile(e, name, {}, True))


def _template(e: Expression, name: str, slots: tuple[str, ...], used: set[int]):
    """(e, its compiled form) where e holds no placeholder, else a function
    of the placeholder leaves, each such a pair, that builds the bound node
    and returns the same pair of it.  The indices of the placeholders met go
    into used."""
    t = type(e)
    if t is Var and e.name in slots:
        i = slots.index(e.name)
        used.add(i)
        return lambda leaves: leaves[i]
    if t is Num or t is Var:
        return e, _compile(e, name, {}, False)
    rule, operands = _rule(e)
    parts = [_template(p, name, slots, used) for p in operands]
    if not any(map(callable, parts)):
        return e, _node(e, rule, False, *[f for _, f in parts])
    make = (partial(BinOp, e.op) if t is BinOp else Neg if t is Neg
            else lambda *args, fn=e.fn: Call(fn, args))
    if len(parts) == 2:
        (lhs, lhs_bound), (rhs, rhs_bound) = [(p, callable(p)) for p in parts]

        def bind(leaves):
            a, fa = lhs(leaves) if lhs_bound else lhs
            b, fb = rhs(leaves) if rhs_bound else rhs
            node = make(a, b)
            return node, _node(node, rule, False, fa, fb)
    else:
        (arg,) = parts

        def bind(leaves):
            a, fa = arg(leaves)
            node = make(a)
            return node, _node(node, rule, False, fa)

    return bind


def compile_template(e: Expression, name: str, slots: tuple[str, ...]):
    """e, over the variable `name` and the placeholder variables named in
    slots, as a function bind(values) of one float per placeholder that
    returns (tree, f): tree is e with each placeholder a Num of its value
    and f is compile_expression(tree, name).  The subtrees free of the
    placeholders are compiled here, once, and shared by every tree; a bind
    builds and compiles only the nodes above a placeholder, each node once
    and through _node, as compiling the tree would, so f gives the same
    bits and errors, and an error names a node of tree."""
    used = set()
    root = _template(e, name, tuple(slots), used)
    if not callable(root):
        fixed = (root[0], _closure(root[1]))
        return lambda values: fixed

    def bind(values):
        tree, f = root({i: (Num(values[i]), values[i]) for i in used})
        return tree, _closure(f)

    return bind


def evaluate(e: Expression, bindings: dict[str, float]) -> float:
    """Evaluate with IEEE double arithmetic; raises EvalError on domain
    problems (carrying the subexpression) or missing bindings."""
    f = _compile(e, None, bindings, False)
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
        if math.copysign(1.0, e.value) < 0:  # as the parser spells it
            return _fmt(Neg(Num(-e.value)), parent_prec)
        text = "1e999" if e.value == math.inf else repr(e.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, 0) for a in e.args)})"
    if isinstance(e, Neg):
        text = f"-{_fmt(e.arg, _PRECEDENCE['neg'])}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    if isinstance(e, BinOp):
        prec = _PRECEDENCE.get(e.op, 0)  # 0: a hand-built operator, in parentheses
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
    """Render a tree to source: a parsed tree re-parses to the identical
    tree, and another tree of the parser's operators and functions, with
    no nan, to one that evaluates as it does."""
    return _fmt(e, 0)
