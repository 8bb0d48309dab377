"""The package's public names, its module order, the modules each CLI
subcommand loads, and the one home of numbers past Python's int-to-str limit."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import godelforest
import godelforest.semantics
from godelforest import (Logic, Partition, PiecewiseLinearFuzzySet, as_fraction, parse_logic,
                         partition_to_json)

SRC = str(pathlib.Path(godelforest.__file__).resolve().parent.parent)

# Every name the package exported when its __init__ imported all submodules.
PUBLIC_NAMES = [
    "AnalysisReport", "And", "AssignmentClass", "Bot", "Forest", "Formula", "GINF",
    "GRID_ORACLE_BUDGET", "Iff", "Implies", "Lhd", "Logic", "MAX_FOREST_VARIABLES", "Not",
    "Or", "ParseError", "Partition", "PiecewiseLinearFuzzySet", "Subforest", "Top", "Var",
    "analyze", "arity", "as_fraction", "axiomatize_partition", "axiomatize_subforest",
    "chain_normal_form", "check_2_overlapping", "check_ruspini_exact", "class_from_json",
    "class_key", "class_of_values", "class_to_json", "conjunction",
    "count_2overlap_weak_ruspini", "count_leaves", "count_weak_ruspini", "critical_points",
    "disjunction", "downset", "empty_subforest", "enumerate_forest", "eval_formula",
    "format_formula", "format_report", "formula_forest", "full_subforest",
    "generating_subforest", "grid_tautology_oracle", "is_ruspini_leaf",
    "is_ruspini_subforest", "is_tautology", "is_weak_ruspini", "leq", "ordered_bell",
    "overlap_axiom", "parse_formula", "parse_logic", "partition_forest",
    "partition_from_json", "partition_to_json", "proves_equiv", "proves_implies",
    "realized_classes", "report_to_json", "ruspini_axiom", "ruspini_subforest",
    "subforest_to_dot", "subforest_to_json", "synthesize_partition", "truncated_subforest",
    "two_overlap_subforest",
]

SUBMODULES = ["axioms", "classes", "counts", "exports", "forest", "formulas", "partitions",
              "semantics", "syntax"]


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_all_lists_the_public_names():
    assert sorted(godelforest.__all__) == PUBLIC_NAMES
    assert len(set(godelforest.__all__)) == len(godelforest.__all__)
    assert set(PUBLIC_NAMES) <= set(dir(godelforest))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from godelforest import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_every_name_and_submodule_resolves_in_a_fresh_process():
    code = (
        "import godelforest, types\n"
        f"names = {PUBLIC_NAMES!r}\n"
        f"mods = [getattr(godelforest, m).__name__ for m in {SUBMODULES!r}]\n"
        "bad = [n for n in names if isinstance(getattr(godelforest, n), types.ModuleType)]\n"
        "print(bad, mods)\n"
    )
    expected = [f"godelforest.{m}" for m in SUBMODULES]
    assert run_python(code).strip() == f"[] {expected!r}"


# The package's modules, each above every module it imports.
LAYER_ORDER = ["records", "syntax", "formulas", "grid", "classes", "forest", "semantics",
               "partitions", "axioms", "exports", "counts", "cli"]


def test_every_module_imports_only_modules_below_it():
    # Relative imports anywhere in a module: at module level, in functions
    # and under TYPE_CHECKING.
    package = pathlib.Path(godelforest.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules) == sorted(LAYER_ORDER)
    upward = []
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{name} -> {target} ({path.name}:{node.lineno})"
                           for target in targets
                           if LAYER_ORDER.index(target) >= LAYER_ORDER.index(name)]
    assert upward == []


def test_only_records_and_the_count_printer_read_the_int_to_str_limit():
    # `records` counts the digits of a number past the limit and words its
    # refusal; `cli._cmd_count` lifts the limit to print a count, and
    # `count` loads `counts` alone.
    package = pathlib.Path(godelforest.__file__).parent
    name = "get_int_max_str_digits"
    readers = set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(name in (getattr(node, "attr", None), getattr(node, "id", None),
                            getattr(node, "value", None), getattr(node, "name", None))
                   for node in ast.walk(stmt)):
                readers.add(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    assert readers == {"records._limit", "cli._cmd_count"}


@pytest.mark.parametrize("limit", [4300, 640])
def test_a_part_past_the_int_to_str_limit_gets_the_one_sentence(int_str_limit, limit):
    sys.set_int_max_str_digits(limit)
    text, big = "1" * (limit + 1), 10**limit  # both limit + 1 digits
    tiny = Partition((PiecewiseLinearFuzzySet("f1", ((0, 1), (1, Fraction(1, big)))),))
    calls = [
        (lambda: as_fraction(text), "integer"),
        (lambda: as_fraction(f"{text}/3"), "numerator"),
        (lambda: as_fraction(f"1/{text}"), "denominator"),
        (lambda: partition_to_json(tiny), "set 'f1', point 1: denominator"),
        (lambda: parse_logic(f"g{text}"), "truth-value count"),
        (lambda: str(Logic(big)), "truth-value count"),
    ]
    sentence = f"of {limit + 1} digits is past the limit of {limit} digits"
    for call, part in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{part} {sentence}"
    # With no limit, each of them answers.
    sys.set_int_max_str_digits(0)
    answers = [int(text), Fraction(int(text), 3), Fraction(1, int(text)),
               {"n": 1, "sets": [{"name": "f1", "points": [["0", "1"], ["1", f"1/{big}"]]}]},
               Logic(int(text)), f"g{big}"]
    assert [call() for call, _ in calls] == answers


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        godelforest.no_such_name  # noqa: B018


def test_package_reads_the_patched_binding(monkeypatch):
    def patched(*args, **kwargs):
        return "patched"

    original = godelforest.semantics.is_tautology
    monkeypatch.setattr(godelforest.semantics, "is_tautology", patched)
    assert godelforest.is_tautology is patched
    monkeypatch.undo()
    # Nothing was cached in the package while the patch was in place.
    assert godelforest.is_tautology is original
    assert "is_tautology" not in vars(godelforest)


# The package's submodules a subcommand loads, and which of the standard
# library's `argparse`, `dataclasses`, `inspect`, `json` and `fractions`
# (which imports `decimal` and `numbers`) it loads.  The script reads
# sys.modules before it imports json itself.
FOOTPRINT = (
    "import contextlib, io, sys\n"
    "from godelforest.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('godelforest.')\n"
    "                or m in ('argparse', 'dataclasses', 'inspect', 'json', 'fractions'))\n"
    "import json\n"
    "print(json.dumps([code, loaded]))\n"
)
DATA = pathlib.Path(SRC).parent / "data"


def loaded_modules(*argv: str, prelude: str = "", code: int = 0) -> set[str]:
    exit_code, modules = json.loads(run_python(prelude + FOOTPRINT, *argv))
    assert exit_code == code
    return {m.removeprefix("godelforest.") for m in modules}


def test_count_loads_only_cli_and_counts():
    assert loaded_modules("count", "--n", "3", "--kind", "weak-ruspini") == {"cli", "counts"}


DECISIONS = {"cli", "records", "formulas", "syntax", "semantics", "forest"}


@pytest.mark.parametrize("argv", [
    ["taut", "--n", "2", "(X1 -> X2) | (X2 -> X1)"],
    ["taut", "--n", "2", "--logic", "g3", "--oracle", "X1 | ~X1"],
    ["equiv", "--n", "2", "X1 & X2", "X2 & X1"],
])
def test_decisions_load_no_partitions_axioms_or_exports(argv):
    # Nor `classes`, `json` or `fractions`: a decision parses its text
    # (`formulas`) and runs the program (`syntax`) on the forest's masks.
    # Only the grid oracle loads `grid`.
    more = {"grid"} if "--oracle" in argv else set()
    assert loaded_modules(*argv) == DECISIONS | more


@pytest.mark.parametrize("argv", [
    ["forest", "--n", "3", "--kind", "rn", "--format", "json"],
    ["forest", "--n", "3", "--format", "dot"],
    ["classify", "--values", "0,1/3,1"],
])
def test_forest_and_classify_load_no_semantics_or_axioms(argv):
    # `forest` writes its text from node blocks and builds no class, so it
    # loads no `classes` and makes no Fraction; `classify` builds one class
    # from rationals and prints it with `json`, with no forest and no
    # partition: `classes` reads the rationals itself.
    if argv[0] == "classify":
        expected = {"cli", "records", "classes", "json", "fractions"}
    else:
        expected = {"cli", "records", "forest", "exports"}
    assert loaded_modules(*argv) == expected


# `classes` imports `fractions` as it loads.  Only `analyze` builds a
# forest and decides a formula, so only it loads `forest`, `semantics` and
# `exports`; the stock axioms load `syntax` and nothing of the classes or
# partitions.  None of them reads formula text, so none loads `formulas`.
PARTITION_AXIOMS = {"cli", "records", "syntax", "axioms", "classes", "partitions", "fractions",
                    "json"}


@pytest.mark.parametrize("argv, expected", [
    (["axioms", "--kind", "tau", "--n", "4"], {"cli", "records", "syntax", "axioms"}),
    (["axioms", "--kind", "rho", "--n", "4"], {"cli", "records", "syntax", "axioms"}),
    (["axiomatize", str(DATA / "partitions" / "triangular_triple.json")], PARTITION_AXIOMS),
    (["analyze", str(DATA / "partitions" / "triangular_triple.json")],
     PARTITION_AXIOMS | {"forest", "semantics", "exports"}),
    (["analyze", "--json", str(DATA / "partitions" / "step_pair.json")],
     PARTITION_AXIOMS | {"forest", "semantics", "exports"}),
    (["synthesize", str(DATA / "leaves" / "ruspini2_pair.json"), "--n", "2", "-o", "{out}"],
     PARTITION_AXIOMS),
], ids=["axioms", "axioms-rho", "axiomatize", "analyze", "analyze-json", "synthesize"])
def test_axiom_subcommands_load_exactly_their_modules(argv, expected, tmp_path):
    argv = [arg.format(out=tmp_path / "p.json") for arg in argv]
    assert loaded_modules(*argv) == expected


@pytest.mark.parametrize("argv, absent", [
    (["taut", "--n", "3", "--logic", "g3", "X1 -> X2 -> X3"], {"grid", "classes"}),
    (["forest", "--n", "2", "--kind", "fnt", "--t", "3", "--format", "json"], {"classes"}),
    (["analyze", "--json", str(DATA / "partitions" / "triangular_triple.json")],
     {"formulas", "grid"}),
    (["axioms", "--kind", "rho", "--n", "3"], {"formulas", "classes", "forest"}),
    (["synthesize", str(DATA / "leaves" / "ruspini2_pair.json"), "--n", "2", "-o", "{out}"],
     {"formulas", "forest", "exports"}),
    (["classify", "--values", "1/2,1/2,0"], {"forest", "exports", "syntax"}),
], ids=["taut", "forest", "analyze", "axioms", "synthesize", "classify"])
def test_subcommands_compile_none_of_the_modules_they_do_not_run(argv, absent, tmp_path):
    # The parser, the grid oracle's blocks and the class code are each a
    # module of their own, loaded only by the subcommands that run them.
    argv = [arg.format(out=tmp_path / "p.json") for arg in argv]
    loaded = loaded_modules(*argv)
    assert "cli" in loaded and not loaded & absent


@pytest.mark.parametrize("argv", [
    ["forest", "--n", "3", "--kind", "fnt", "--t", "3", "--format", "json"],
    ["classify", "--values", "1/2,1/2"],
    ["analyze", str(DATA / "partitions" / "step_pair.json"), "--json"],
    ["axiomatize", str(DATA / "partitions" / "step_pair.json")],
    ["axioms", "--n", "3", "--kind", "rho"],
    ["taut", "X1 | ~X1", "--oracle", "--logic", "g3", "--n", "1"],
    ["equiv", "X1", "--n", "1", "X1 & X1", "--logic", "g2"],
    ["synthesize", "--n", "2", str(DATA / "leaves" / "ruspini2_pair.json"), "--output", "{out}"],
    ["count", "--kind", "overlap2", "--n", "3"],
], ids=lambda argv: argv[0])
def test_valid_invocations_load_no_argparse(argv, tmp_path):
    argv = [arg.format(out=tmp_path / "p.json") for arg in argv]
    assert "argparse" not in loaded_modules(*argv)


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0),
    (["taut", "--help"], 0),
    (["count", "--n", "3"], 2),
    (["count", "--n=3", "--kind", "leaves"], 0),
    (["taut", "--n", "-1", "X1"], 1),
])
def test_help_usage_errors_and_corner_cases_load_argparse(argv, code):
    assert "argparse" in loaded_modules(*argv, code=code)


def test_footprint_sees_stdlib_modules_where_loaded():
    # The script's own json import comes after its reading, and a module
    # loaded before the subcommand runs is reported.
    argv = ["taut", "--n", "1", "X1 | ~X1"]
    assert "json" not in loaded_modules(*argv)
    loaded = loaded_modules(*argv, prelude="import argparse, dataclasses, fractions, json\n")
    assert {"argparse", "dataclasses", "inspect", "json", "fractions"} <= loaded
