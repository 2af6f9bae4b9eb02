"""Problem-file ingestion and the built-in benchmark problems.

A problem file is UTF-8 text (LF or CRLF) of ``key = value`` lines.  ``#``
starts a comment anywhere outside a quoted string.  Expression values are
double-quoted; numeric values are bare or quoted.  Keys, in the order their
values are read, all before any range is checked, so of several bad values
the first is refused:

    alpha     real in (1/2, 1]          required
    lambda    real >= 0                 required
    s         expression in x, quoted   required
    g         expression in u, quoted   required
    h         expression in x, quoted   required
    a         real, u(0)                required
    b         real, D^alpha u(0)        required
    N         integer degree bound      required
    exact     expression in x, quoted   optional
    tol       real                      optional
    max_iters integer                   optional

Unknown keys are rejected, and b must be 0 when lambda > 0 or alpha < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import expr
from .solver import EmdenFowlerProblem, _Compiled

# each key, in the order read, as "real", "integer" or its expression's variable
_KINDS = {"alpha": "real", "lambda": "real", "s": "x", "g": "u", "h": "x", "a": "real",
          "b": "real", "N": "integer", "exact": "x", "tol": "real", "max_iters": "integer"}
REQUIRED_KEYS = tuple(_KINDS)[:8]


class ProblemFileError(Exception):
    """Malformed problem file; carries the 1-based line number (0 = whole file)."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem file: the problem plus solver settings."""

    problem: EmdenFowlerProblem
    N: int
    tol: float | None = None
    max_iters: int | None = None


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _value(key: str, text: str):
    """key's value read from its text, bare or double-quoted, as the kind
    _KINDS gives it: a number, an integer, or a quoted expression."""
    kind, quoted = _KINDS[key], text.startswith('"')
    text = text[1:-1] if quoted else text
    if kind in ("real", "integer"):
        try:
            return float(text) if kind == "real" else int(text)
        except ValueError:
            noun = "a number" if kind == "real" else "an integer"
            raise ProblemFileError(f"value for {key!r} is not {noun}: {text!r}") from None
    if not quoted:
        raise ProblemFileError(f"value for {key!r} must be a quoted expression")
    try:
        return expr.parse(text, {kind})
    except expr.ParseError as err:
        raise ProblemFileError(f"bad expression for {key!r}: {err}") from None


def parse_problem_text(text: str) -> ProblemSpec:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFileError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KINDS:
            raise ProblemFileError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ProblemFileError(f"duplicate key {key!r}", lineno)
        if value.startswith('"') and not (len(value) >= 2 and value.endswith('"')):
            raise ProblemFileError(f"unterminated quote in value for {key!r}", lineno)
        values[key] = value

    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ProblemFileError(f"missing required key(s): {', '.join(missing)}")

    got = {key: _value(key, values[key]) for key in _KINDS if key in values}
    try:
        problem = EmdenFowlerProblem(alpha=got["alpha"], lam=got["lambda"], s=got["s"],
                                     g=got["g"], h=got["h"], a=got["a"], b=got["b"],
                                     exact=got.get("exact"))
    except ValueError as err:
        raise ProblemFileError(str(err)) from None
    return ProblemSpec(problem, got["N"], got.get("tol"), got.get("max_iters"))


def parse_problem_file(path) -> ProblemSpec:
    """Parse a UTF-8 problem file; a leading byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ProblemFileError(f"not UTF-8 text ({err})") from None
    return parse_problem_text(text)


# -- built-in benchmark problems --------------------------------------------
#
# All four have known closed-form solutions, which makes them the
# reproduction and regression suite.  Each expression is parsed and compiled
# once per process as a template over its variable and the placeholders A1,
# A2, A3, which stand for the floats alpha, 2 alpha and 3 alpha; g holds
# none, so only its derivative is compiled per problem.  Binding a template
# builds and compiles only the nodes above a placeholder, with each
# placeholder a Num, and shares every other subtree and its compiled form,
# so a built-in comes with its compiled s, h, g, g' and exact.  The trees
# equal those of parsing the expression with the three values written in as
# reprs, the closures those of compiling such trees, and a nan or infinite
# alpha, whose repr would not parse, reaches the problem's range check.

_SLOTS = ("A1", "A2", "A3")


@lru_cache(maxsize=64)
def _template(src: str, var: str = "x"):
    """src parsed over var and the placeholders and compiled, as a function
    of the tuple of placeholder values that returns the bound tree and its
    closure (expr.compile_template)."""
    return expr.compile_template(expr.parse(src, {var, *_SLOTS}), var, _SLOTS)


def _builtin(alpha: float, lam: float, s: str, g: str, h: str, a: float,
             exact: str | None = None) -> EmdenFowlerProblem:
    """The problem with b = 0 whose expressions are the templates given,
    bound at alpha, with its compiled forms; an alpha outside (1/2, 1]
    raises ValueError."""
    values = (float(alpha), float(2 * alpha), float(3 * alpha))
    s, s_f = _template(s)(values)
    g, g_f = _template(g, "u")(values)
    h, h_f = _template(h)(values)
    exact, exact_f = (None, None) if exact is None else _template(exact)(values)
    problem = EmdenFowlerProblem(alpha=values[0], lam=lam, s=s, g=g, h=h, a=a, b=0.0,
                                 exact=exact)
    # where the cached property keeps its value, so nothing compiles again
    vars(problem)["compiled"] = _Compiled(s_f, h_f, g_f, expr.compile_with_derivative(g, "u"),
                                          exact_f)
    return problem


def lane_emden(n: int, alpha: float = 1.0) -> EmdenFowlerProblem:
    """D^(2a)u + (2/x^a) D^(a)u + u^n = 0, u(0)=1, D^(a)u(0)=0
    (isothermal-sphere family).

    At a = 1 the exact solutions are known for n=0 (1 - x^2/6),
    n=1 (sin(x)/x) and n=5 ((1 + x^2/3)^(-1/2)); fractional orders have
    no closed form here, so no exact field is attached.
    """
    exact = None
    if alpha == 1.0:
        exact = {
            0: "1 - x^2/6",
            1: "sin(x)/x",
            5: "(1 + x^2/3)^(-0.5)",
        }.get(n)
    g = "1" if n == 0 else ("u" if n == 1 else f"u^{n}")
    return _builtin(alpha, 2.0, "1", g, "0", 1.0, exact)


def shifted_power(alpha: float) -> EmdenFowlerProblem:
    """Linear problem with exact solution 3 + x^(2 alpha).

    D^(2a)u + (1/x^a) D^(a)u + (1 + x^a) u = h with h chosen so the power
    solution is exact; u(0)=3, D^(a)u(0)=0.
    """
    h = "gamma(1 + A2) + gamma(1 + A2)/gamma(1 + A1) + (1 + x^A1)*(3 + x^A2)"
    return _builtin(alpha, 1.0, "1 + x^A1", "u", h, 3.0, "3 + x^A2")


def exp_square() -> EmdenFowlerProblem:
    """u'' + (2/x) u' - 2(2x^2+3) u = 0 with exact solution exp(x^2)."""
    return _builtin(1.0, 2.0, "-2*(2*x^2 + 3)", "u", "0", 1.0, "exp(x^2)")


def mixed_power(alpha: float) -> EmdenFowlerProblem:
    """Linear problem with exact solution 1 + x^(2 alpha) + x^(3 alpha).

    D^(2a)u + (1/x^a) D^(a)u - 9u = h; u(0)=1, D^(a)u(0)=0.  (The exact
    solution pins u(0) = 1; see the reproduction notes on the published
    initial value.)
    """
    h = (
        "-9 + gamma(1 + A2)/gamma(1 + A1) + gamma(1 + A2)"
        " + (gamma(1 + A3)/gamma(1 + A1) + gamma(1 + A3)/gamma(1 + A2))*x^A1"
        " - 9*x^A2 - 9*x^A3"
    )
    return _builtin(alpha, 1.0, "-9", "u", h, 1.0, "1 + x^A2 + x^A3")
