import math
import os
import subprocess
import sys
from collections import Counter

import pytest

import fracemden
from fracemden import expr, problems, solver
from fracemden.problems import (
    ProblemFileError,
    exp_square,
    lane_emden,
    mixed_power,
    parse_problem_file,
    parse_problem_text,
    shifted_power,
)
from fracemden.solver import problem_from_strings

GOOD = """\
# a comment line
alpha  = 1        # trailing comment
lambda = 2
s      = "1"
g      = "u"      # expression in u
h      = "0"
a      = 1
b      = 0
N      = 3
exact  = "sin(x)/x"
tol    = 1e-11
max_iters = 20
"""


class TestParsing:
    def test_full_file(self):
        spec = parse_problem_text(GOOD)
        assert spec.N == 3
        assert spec.tol == 1e-11
        assert spec.max_iters == 20
        assert spec.problem.alpha == 1.0
        assert spec.problem.lam == 2.0
        assert expr.evaluate(spec.problem.exact, {"x": 0.5}) == pytest.approx(
            math.sin(0.5) / 0.5, rel=1e-14
        )

    def test_crlf(self):
        spec = parse_problem_text(GOOD.replace("\n", "\r\n"))
        assert spec.N == 3

    def test_optional_keys_absent(self):
        text = "\n".join(
            line for line in GOOD.splitlines()
            if not line.startswith(("exact", "tol", "max_iters"))
        )
        spec = parse_problem_text(text)
        assert spec.problem.exact is None
        assert spec.tol is None and spec.max_iters is None

    def test_missing_key_named(self):
        text = "\n".join(l for l in GOOD.splitlines() if not l.startswith("h"))
        with pytest.raises(ProblemFileError, match="h"):
            parse_problem_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ProblemFileError, match="beta") as err:
            parse_problem_text(GOOD + "beta = 3\n")
        assert err.value.line == len(GOOD.splitlines()) + 1

    def test_duplicate_key(self):
        with pytest.raises(ProblemFileError, match="duplicate"):
            parse_problem_text(GOOD + "a = 2\n")

    def test_unquoted_expression_rejected(self):
        with pytest.raises(ProblemFileError, match="quoted"):
            parse_problem_text(GOOD.replace('g      = "u"', "g      = u"))

    def test_unterminated_quote(self):
        with pytest.raises(ProblemFileError, match="quote"):
            parse_problem_text(GOOD.replace('"sin(x)/x"', '"sin(x)/x'))

    def test_bad_number(self):
        with pytest.raises(ProblemFileError, match="alpha"):
            parse_problem_text(GOOD.replace("alpha  = 1", "alpha = one"))

    def test_bad_expression_reported(self):
        with pytest.raises(ProblemFileError, match="expression"):
            parse_problem_text(GOOD.replace('"sin(x)/x"', '"sin(x"'))

    def test_alpha_range_checked(self):
        with pytest.raises(ProblemFileError, match="alpha"):
            parse_problem_text(GOOD.replace("alpha  = 1", "alpha = 0.3"))

    def test_missing_equals(self):
        with pytest.raises(ProblemFileError, match="key = value") as err:
            parse_problem_text("alpha 1\n")
        assert err.value.line == 1

    def test_hash_inside_quotes_preserved(self):
        # '#' inside a quoted expression is not a comment
        text = GOOD.replace('s      = "1"', 's = "1" # real comment')
        assert parse_problem_text(text).problem is not None

    def test_first_faulty_key_in_table_order_under_every_hash_seed(self):
        # s and g both unquoted: s comes first in the key table, whatever
        # order a set of the keys would iterate in under the seed
        text = GOOD.replace('s      = "1"', "s = 1").replace('g      = "u"', "g = u")
        script = ("import sys\nfrom fracemden.problems import parse_problem_text\n"
                  "try:\n    parse_problem_text(sys.stdin.read())\n"
                  "except Exception as err:\n    print(err)\n")
        src = os.path.dirname(os.path.dirname(fracemden.__file__))
        for seed in "0123":
            proc = subprocess.run([sys.executable, "-c", script], input=text,
                                  capture_output=True, text=True, check=True,
                                  env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
            assert proc.stdout == "value for 's' must be a quoted expression\n", seed

    def test_bad_number_refused_before_an_unquoted_expression(self):
        text = GOOD.replace("alpha  = 1", "alpha = one").replace('g      = "u"', "g = u")
        with pytest.raises(ProblemFileError, match="value for 'alpha' is not a number: 'one'"):
            parse_problem_text(text)

    def test_quoted_numbers_accepted(self):
        spec = parse_problem_text(GOOD.replace("alpha  = 1", 'alpha = "1"')
                                  .replace("N      = 3", 'N = "3"'))
        assert spec.problem.alpha == 1.0 and type(spec.problem.alpha) is float
        assert spec.N == 3 and type(spec.N) is int


class TestProblemFile:
    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.prob"
        text = GOOD.split("\n", 1)[1]  # the first key opens the file
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        spec = parse_problem_file(path)
        assert spec.problem.alpha == 1.0 and spec.N == 3

    def test_non_utf8_byte_is_a_problem_file_error(self, tmp_path):
        path = tmp_path / "latin1.prob"
        path.write_bytes(GOOD.replace("# a comment line", "# caf\xe9").encode("latin-1"))
        with pytest.raises(ProblemFileError, match="not UTF-8") as err:
            parse_problem_file(path)
        assert err.value.line == 0


class TestBuiltins:
    def test_lane_emden_family(self):
        for n, at_half in ((0, 1.0), (1, 0.5), (5, 0.5 ** 5)):
            p = lane_emden(n)
            assert p.lam == 2.0 and p.a == 1.0 and p.b == 0.0
            assert expr.evaluate(p.g, {"u": 0.5}) == pytest.approx(at_half, rel=1e-14)

    def test_lane_emden_known_exacts(self):
        assert expr.evaluate(lane_emden(0).exact, {"x": 0.6}) == pytest.approx(
            1 - 0.36 / 6, rel=1e-14
        )
        assert expr.evaluate(lane_emden(1).exact, {"x": 0.6}) == pytest.approx(
            math.sin(0.6) / 0.6, rel=1e-14
        )
        assert expr.evaluate(lane_emden(5).exact, {"x": 0.6}) == pytest.approx(
            (1 + 0.12) ** -0.5, rel=1e-14
        )
        assert lane_emden(3).exact is None

    def test_shifted_power_consistency(self):
        # h must equal the equation's left side applied to the exact solution
        p = shifted_power(1.0)
        x = 0.5
        h = expr.evaluate(p.h, {"x": x})
        # u = 3 + x^2: D^2 u = 2, D u = 2x, s(x) u = (1+x)(3+x^2)
        lhs = 2.0 + (1.0 / x) * 2.0 * x + (1 + x) * (3 + x * x)
        assert h == pytest.approx(lhs, rel=1e-13)

    def test_mixed_power_consistency(self):
        p = mixed_power(1.0)
        x = 0.5
        h = expr.evaluate(p.h, {"x": x})
        # u = 1 + x^2 + x^3: D^2 u = 2 + 6x, D u = 2x + 3x^2
        lhs = (2 + 6 * x) + (1.0 / x) * (2 * x + 3 * x * x) - 9 * (1 + x * x + x ** 3)
        assert h == pytest.approx(lhs, rel=1e-13)

    def test_mixed_power_fractional_h_uses_gamma(self):
        p = mixed_power(0.7)
        got = expr.evaluate(p.h, {"x": 1.0})
        g = math.gamma
        want = (
            -9 + g(2.4) / g(1.7) + g(2.4)
            + (g(3.1) / g(1.7) + g(3.1) / g(2.4))
            - 9 - 9
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_exp_square_fields(self):
        p = exp_square()
        assert expr.evaluate(p.s, {"x": 0.5}) == pytest.approx(-7.0, rel=1e-15)
        assert expr.evaluate(p.exact, {"x": 1.0}) == pytest.approx(math.e, rel=1e-14)


# The built-ins as they were written before templates: each expression an
# f-string with alpha, 2 alpha and 3 alpha pasted in as reprs and parsed.
def _fmt(v):
    return repr(float(v))


def _string_lane_emden(n, alpha=1.0):
    exact = None
    if alpha == 1.0:
        exact = {0: "1 - x^2/6", 1: "sin(x)/x", 5: "(1 + x^2/3)^(-0.5)"}.get(n)
    g = "1" if n == 0 else ("u" if n == 1 else f"u^{n}")
    return problem_from_strings(alpha, 2.0, "1", g, "0", 1.0, 0.0, exact)


def _string_shifted_power(alpha):
    a1, a2 = _fmt(alpha), _fmt(2 * alpha)
    h = (
        f"gamma(1 + {a2}) + gamma(1 + {a2})/gamma(1 + {a1})"
        f" + (1 + x^{a1})*(3 + x^{a2})"
    )
    return problem_from_strings(alpha, 1.0, f"1 + x^{a1}", "u", h, 3.0, 0.0, f"3 + x^{a2}")


def _string_exp_square():
    return problem_from_strings(1.0, 2.0, "-2*(2*x^2 + 3)", "u", "0", 1.0, 0.0, "exp(x^2)")


def _string_mixed_power(alpha):
    a1, a2, a3 = _fmt(alpha), _fmt(2 * alpha), _fmt(3 * alpha)
    h = (
        f"-9 + gamma(1 + {a2})/gamma(1 + {a1}) + gamma(1 + {a2})"
        f" + (gamma(1 + {a3})/gamma(1 + {a1})"
        f" + gamma(1 + {a3})/gamma(1 + {a2}))*x^{a1}"
        f" - 9*x^{a2} - 9*x^{a3}"
    )
    return problem_from_strings(alpha, 1.0, "-9", "u", h, 1.0, 0.0, f"1 + x^{a2} + x^{a3}")


# every 10th point of the benchmark's alpha-sweep pool of 2000 over [0.7, 1),
# then the ends of the domain, a midpoint and an int order
ALPHAS = [0.7 + 0.3 * (k + 0.5) / 2000 for k in range(0, 2000, 10)] + [0.51, 0.75, 1.0, 1]


class TestTemplates:
    @pytest.mark.parametrize("built, by_string", [
        (mixed_power, _string_mixed_power),
        (shifted_power, _string_shifted_power),
        *[(lambda a, n=n: lane_emden(n, a), lambda a, n=n: _string_lane_emden(n, a))
          for n in (0, 1, 2, 5)],
    ], ids=["mixed_power", "shifted_power", "lane_emden0", "lane_emden1", "lane_emden2",
            "lane_emden5"])
    def test_trees_equal_the_string_route(self, built, by_string):
        for alpha in ALPHAS:
            got, want = built(alpha), by_string(alpha)
            assert got == want, alpha
            assert repr(got) == repr(want), alpha

    def test_exp_square_equals_the_string_route(self):
        assert exp_square() == _string_exp_square()
        assert repr(exp_square()) == repr(_string_exp_square())

    def test_each_template_parsed_once(self, monkeypatch):
        problems._template.cache_clear()
        sources, parse = [], expr.parse
        def counting_parse(src, variables):
            sources.append(src)
            return parse(src, variables)
        monkeypatch.setattr(expr, "parse", counting_parse)
        for alpha in ALPHAS[:100]:
            mixed_power(alpha), shifted_power(alpha), lane_emden(5, alpha), exp_square()
        assert sources and max(Counter(sources).values()) == 1

    def test_each_template_compiled_once(self, monkeypatch):
        # a built-in comes with its compiled forms: 100 alphas compile each
        # template, g's value included, once; g's derivative is compiled
        # once per built-in; solving compiles nothing
        problems._template.cache_clear()
        compiled = []
        def counting(route, compile_):
            def counted(e, name, *slots):
                compiled.append((route, expr.to_string(e), name))
                return compile_(e, name, *slots)
            return counted
        for route in ("compile_template", "compile_expression", "compile_with_derivative"):
            monkeypatch.setattr(expr, route, counting(route, getattr(expr, route)))
        for alpha in ALPHAS[:100]:
            built = mixed_power(alpha), shifted_power(alpha), lane_emden(5, alpha), exp_square()
        counts = Counter(compiled)
        for problem in built:
            solver.solve(problem, 6).error_table
        assert Counter(compiled) == counts
        templates = {key: n for key, n in counts.items() if key[0] == "compile_template"}
        assert set(templates.values()) == {1}
        assert Counter(name for _, _, name in templates) == {"x": 10, "u": 2}  # s, h, exact; g
        assert {key: n for key, n in counts.items() if key not in templates} == {
            ("compile_with_derivative", "u", "u"): 300, ("compile_with_derivative", "u^5", "u"): 100}

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [mixed_power, shifted_power, lambda a: lane_emden(1, a)],
                             ids=["mixed_power", "shifted_power", "lane_emden"])
    def test_non_finite_alpha_refused_as_out_of_range(self, build, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(1/2, 1\], got"):
            build(alpha)
