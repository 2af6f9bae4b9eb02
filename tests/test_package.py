import json
import os
import subprocess
import sys

import pytest

import fracemden

SRC_DIR = os.path.dirname(os.path.dirname(fracemden.__file__))
PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")


def loaded_modules(code):
    """Run code in a fresh interpreter; the names in its sys.modules after."""
    script = code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC_DIR),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_cli(*argv):
    """The statement that runs the CLI on argv and fails unless it exits 0."""
    return ("import io; from fracemden.cli import main\n"
            f"assert main({list(argv)!r}, out=io.StringIO()) == 0")


def test_every_public_name_resolves():
    assert [n for n in fracemden.__all__ if not hasattr(fracemden, n)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fracemden import *", namespace)
    assert set(fracemden.__all__) <= namespace.keys()


def test_dir_covers_all_and_the_submodules():
    names = set(dir(fracemden))
    assert set(fracemden.__all__) <= names
    assert {"cli", "expr", "problems", "refdata", "solver"} <= names


def test_unknown_name_raises_attribute_error():
    assert not hasattr(fracemden, "no_such_name")
    with pytest.raises(AttributeError, match="'fracemden' has no attribute 'no_such_name'"):
        fracemden.no_such_name


def test_import_loads_no_submodule():
    loaded = loaded_modules("import fracemden")
    assert "fracemden" in loaded
    assert [m for m in loaded if m.startswith("fracemden.")] == []


def test_submodule_resolves_after_bare_import():
    loaded = loaded_modules(
        "import fracemden\n"
        "report = fracemden.solver.solve(fracemden.problems.lane_emden(1), 4)\n"
        "assert report.newton_iters == 1\n"
        "assert fracemden.solve is fracemden.solver.solve\n"
    )
    assert {"fracemden.solver", "fracemden.problems"} <= loaded


def test_oracle_check_loads_only_what_it_uses():
    loaded = loaded_modules(run_cli("oracle-check", "--alpha", "0.7", "--n", "6"))
    assert {"fracemden.fraccalc", "fracemden.approx"} <= loaded
    unused = {f"fracemden.{m}" for m in ("expr", "solver", "problems", "refdata", "linalg")}
    assert unused & loaded == set()


def test_solve_loads_neither_quadrature_nor_reference_data(tmp_path):
    prob = os.path.join(PROBLEMS_DIR, "lane_emden_n5.prob")
    loaded = loaded_modules(run_cli("solve", prob, "--out", str(tmp_path / "o")))
    assert {"fracemden.solver", "fracemden.problems", "fracemden.expr"} <= loaded
    assert {"fracemden.approx", "fracemden.refdata", "numpy.polynomial"} & loaded == set()


@pytest.mark.parametrize("argv", [("solve", os.path.join(PROBLEMS_DIR, "lane_emden_n5.prob")),
                                  ("reproduce", "--target", "table1")],
                         ids=["solve", "reproduce_table1"])
def test_solve_paths_load_no_gram_layer(tmp_path, argv):
    # the solve path builds no Gram matrix, so neither the linear-algebra
    # module nor exact rationals are imported
    loaded = loaded_modules(run_cli(*argv, "--out", str(tmp_path / "o")))
    assert "fracemden.solver" in loaded
    assert {"fracemden.linalg", "fractions", "decimal"} & loaded == set()
