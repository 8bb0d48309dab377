"""The names perfbench's tracer looks up resolve in the modules it names.

`perfbench/trace.py` skips a name it cannot find, so a function that moves
to another module would silently drop out of every traced run.  These tests
read the tracer's tables as they are and check them against the package.
"""

import importlib
import importlib.util
import pathlib

import pytest

import godelforest
from godelforest import forest, formulas

TRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
DATA = TRACE.parent.parent / "data"

# The count functions moved from `axioms` to `counts`, and the tracer's
# `axioms` entry still lists them (ROADMAP item 1 moves them).
STALE = {("axioms", "count_leaves"), ("axioms", "count_weak_ruspini"),
         ("axioms", "count_2overlap_weak_ruspini")}


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_name_resolves_in_the_module_it_names(trace):
    missing = set()
    for owner, table in trace.LAYERS.items():
        module = importlib.import_module(f"godelforest.{owner}")
        missing |= {(owner, name) for name in table if not callable(getattr(module, name, None))}
    assert missing == STALE
    assert set(trace.LAYERS) <= set(trace.MODULES)
    for name in trace.SELF_RECURSIVE:
        assert any(name in table for table in trace.LAYERS.values())


def test_the_boundary_names_resolve(trace):
    for method in trace.SUBFOREST_METHODS:
        assert callable(forest.Subforest.__dict__.get(method)), method
    assert isinstance(formulas.parse_formula("X1 -> X1"), formulas.Formula)
    assert forest.enumerate_forest.cache_info().maxsize is None


def test_a_traced_cli_run_sees_every_layer(trace, tmp_path, capsys):
    cli = importlib.import_module("godelforest.cli")
    tracer = trace.Tracer()
    tracer.install(godelforest)
    try:
        tracer.begin_request(0)
        for argv in (
            ["taut", "--n", "2", "X1 | ~X1"],
            ["taut", "--n", "2", "--logic", "g3", "--oracle", "X1 | ~X1"],
            ["analyze", "--json", str(DATA / "partitions" / "triangular_triple.json")],
            ["synthesize", str(DATA / "leaves" / "ruspini2_pair.json"), "--n", "2",
             "-o", str(tmp_path / "p.json")],
            ["forest", "--n", "2", "--kind", "rn", "--format", "json"],
        ):
            assert cli.main(argv) == 0  # read after install: the wrapper
        tracer.end_request()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(tracer.self_times()) >= {
        "cli.main", "formulas.parse", "semantics.decide", "semantics.formula_forest",
        "semantics.oracle", "forest.enumerate", "forest.subforest",
        "partitions.critical_points", "partitions.realized_classes", "partitions.other",
        "axioms.analyze", "axioms.synthesize", "exports.report",
    }
    assert tracer.counts["formulas.nodes_parsed"] > 0
    assert tracer.counts["partitions.samples"] > 0
