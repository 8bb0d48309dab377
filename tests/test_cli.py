import gc
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from godelforest import (
    axiomatize_partition,
    check_ruspini_exact,
    class_key,
    class_of_values,
    class_to_json,
    count_leaves,
    enumerate_forest,
    eval_formula,
    format_formula,
    leq,
    parse_formula,
    partition_from_json,
    partition_to_json,
    realized_classes,
    ruspini_subforest,
    subforest_to_dot,
    subforest_to_json,
)
from godelforest.classes import _maximal
from godelforest.cli import main
from helpers import cls, reference_forest, triangular_partition

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_weak_ruspini(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--kind", "weak-ruspini")
    assert code == 0
    assert out.strip() == "33554431"


def test_count_other_kinds(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--kind", "leaves")
    assert (code, out.strip()) == (0, "1082")
    code, out, _ = run(capsys, "count", "--n", "3", "--kind", "overlap2")
    assert (code, out.strip()) == (0, "4095")


def test_taut_linearity_instances(capsys):
    lin3 = "(X1) | (X1 -> X2) | ((X1 & X2) -> X3)"
    code, out, _ = run(capsys, "taut", "--n", "3", "--logic", "g3", lin3)
    assert (code, out.strip()) == (0, "tautology")
    code, out, _ = run(capsys, "taut", "--n", "3", "--logic", "g4", lin3)
    assert (code, out.strip()) == (0, "not a tautology")
    code, out, _ = run(capsys, "taut", "--n", "3", "--logic", "ginf", lin3)
    assert (code, out.strip()) == (0, "not a tautology")
    lin4 = "(X1) | (X1 -> X2) | ((X1 & X2) -> X3) | ((X1 & X2 & X3) -> X4)"
    code, out, _ = run(capsys, "taut", "--n", "4", "--logic", "g4", lin4)
    assert (code, out.strip()) == (0, "tautology")


def test_logic_names_read_decimal_digits_only(capsys):
    # int() cannot read the superscript two; the Arabic-Indic two it reads.
    assert run(capsys, "taut", "--n", "2", "--logic", "g\u00b2", "X1") == (
        1, "", "error: unknown logic 'g\u00b2'; use 'ginf' or 'g<t>' such as 'g4'\n")
    assert run(capsys, "taut", "--n", "1", "--logic", "g\u0662", "X1 | ~X1") == (
        0, "tautology\n", "")


def test_logic_names_past_the_int_to_str_limit_get_one_error_line(capsys):
    # int() reads at most 4,300 digits by default; a longer t is refused
    # with the program's message, not Python's, and a t within it is read.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this Python reads ints of any length")
    digits = "1" * (limit + 700)
    message = (f"error: truth-value count of {limit + 700} digits is past the limit of "
               f"{limit} digits\n")
    assert run(capsys, "taut", "--n", "1", "--logic", "g" + digits, "X1") == (1, "", message)
    assert run(capsys, "taut", "--n", "1", "--logic", "g" + digits, "--oracle", "X1") == (
        1, "", message)
    assert run(capsys, "taut", "--n", "2", "--logic", "g" + "1" * limit,
               "(X1 -> X2) | (X2 -> X1)") == (0, "tautology\n", "")


def test_taut_oracle_flag(capsys):
    code, out, _ = run(capsys, "taut", "--n", "2", "--logic", "g3", "--oracle",
                       "(X1 -> X2) | (X2 -> X1)")
    assert (code, out.strip()) == (0, "tautology")
    code, _, err = run(capsys, "taut", "--n", "2", "--logic", "ginf", "--oracle", "X1")
    assert code == 2
    assert "oracle" in err


def test_taut_arity_error(capsys):
    code, _, err = run(capsys, "taut", "--n", "2", "--logic", "ginf", "X3")
    assert code == 1
    assert err == "error: formula uses X3 but --n is 2\n"
    assert run(capsys, "equiv", "--n", "2", "X1", "X2 & X3") == (
        1, "", "error: formulas use X3 but --n is 2\n")


@pytest.mark.parametrize("argv", [
    ["taut", "--n", "-1", "1"],
    ["taut", "--n", "-1", "X1"],
    ["taut", "--n", "-3", "--logic", "g3", "--oracle", "X1 | ~X1"],
    ["equiv", "--n", "-2", "X1", "X1"],
    ["equiv", "--n", "-1", "1", "~0"],
])
def test_decisions_refuse_a_negative_n_first(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: --n must be >= 0, got {argv[2]}\n"


def test_taut_at_n0_still_answers(capsys):
    assert run(capsys, "taut", "--n", "0", "--logic", "g3", "--oracle", "1") == (
        0, "tautology\n", "")


@pytest.mark.parametrize("logic", ["ginf", "g2", "g3", "g4", "g5"])
def test_decisions_at_n0_answer_variable_free_formulas_in_every_logic(capsys, logic):
    for text, verdict in [("1", "tautology"), ("0", "not a tautology"),
                          ("0 -> 0", "tautology"), ("~1 | 0", "not a tautology")]:
        assert run(capsys, "taut", "--n", "0", "--logic", logic, text) == (0, verdict + "\n", "")
        if logic != "ginf":
            assert run(capsys, "taut", "--n", "0", "--logic", logic, "--oracle", text) == (
                0, verdict + "\n", "")
    assert run(capsys, "equiv", "--n", "0", "--logic", logic, "1", "0 -> 0") == (
        0, "equivalent\n", "")
    assert run(capsys, "equiv", "--n", "0", "--logic", logic, "1", "0") == (
        0, "not equivalent\n", "")
    assert run(capsys, "taut", "--n", "0", "--logic", logic, "X1") == (
        1, "", "error: formula uses X1 but --n is 0\n")
    assert run(capsys, "equiv", "--n", "0", "--logic", logic, "0", "X1") == (
        1, "", "error: formulas use X1 but --n is 0\n")


def test_taut_parse_error(capsys):
    code, _, err = run(capsys, "taut", "--n", "2", "--logic", "ginf", "X1 &")
    assert code == 1
    assert "position" in err


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "--n", "2", "X1 & X2", "X2 & X1")
    assert (code, out.strip()) == (0, "equivalent")
    code, out, _ = run(capsys, "equiv", "--n", "1", "X1", "~~X1")
    assert (code, out.strip()) == (0, "not equivalent")
    code, out, _ = run(capsys, "equiv", "--n", "1", "--logic", "g2", "X1", "~~X1")
    assert (code, out.strip()) == (0, "equivalent")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--values", "0,1/3,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0=X1<X2<X3=1"
    assert json.loads(lines[1]) == {"zero": [1], "mid": [[2]], "one": [3]}
    code, _, err = run(capsys, "classify", "--values", "0,7/3")
    assert code == 1 and "outside" in err


def test_axioms_output_parses_back(capsys):
    code, out, _ = run(capsys, "axioms", "--kind", "rho", "--n", "2")
    assert code == 0
    assert out.strip() == "~~X1 & ~~X2 | X1 & ~X2 | X2 & ~X1"
    parse_formula(out.strip())
    code, out, _ = run(capsys, "axioms", "--kind", "tau", "--n", "3")
    assert (code, out.strip()) == (0, "~(X1 & X2 & X3)")


@pytest.mark.parametrize("kind, n", [("tau", "91"), ("tau", "100000"), ("rho", "361"),
                                     ("rho", "10000000")])
def test_axioms_refuse_an_axiom_too_large_to_build(capsys, kind, n):
    started = time.perf_counter()
    code, out, err = run(capsys, "axioms", "--kind", kind, "--n", n)
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the {kind} axiom supports n <= ")
    assert err.endswith(f"the n = {n} axiom takes too long to build\n")
    assert err.count("\n") == 1


def test_forest_json(capsys):
    code, out, _ = run(capsys, "forest", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["count"] == 11
    assert len(payload["nodes"]) == 11
    roots = [node for node in payload["nodes"] if node["parent"] is None]
    assert len(roots) == 4
    labels = {node["label"] for node in payload["nodes"]}
    assert "0=X1=X2<1" in labels


def test_forest_kinds(capsys):
    code, out, _ = run(capsys, "forest", "--n", "2", "--kind", "rn", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 8
    code, out, _ = run(capsys, "forest", "--n", "3", "--kind", "tn", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == sum(
        1 for c in reference_forest(3).nodes if c.positive_count <= 2
    )
    code, out, _ = run(
        capsys, "forest", "--n", "3", "--kind", "fnt", "--t", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == sum(
        1 for c in reference_forest(3).nodes if c.depth <= 3
    )
    code, _, err = run(capsys, "forest", "--n", "3", "--kind", "fnt")
    assert code == 2 and "--t" in err


def test_forest_dot(capsys):
    code, out, _ = run(capsys, "forest", "--n", "1", "--format", "dot")
    assert code == 0
    assert out.count("digraph") == 2  # one graph per tree
    assert '0=X1<1' in out and '0<X1=1' in out and "->" in out


def test_forest_guard(capsys):
    code, _, err = run(capsys, "forest", "--n", "9", "--format", "json")
    assert code == 1 and "n <= 8" in err


def test_forest_refuses_the_n8_export(capsys):
    started = time.perf_counter()
    for fmt in ("json", "dot"):
        code, out, err = run(capsys, "forest", "--n", "8", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (
            "error: forest export supports n <= 7: "
            "the n = 8 export needs gigabytes of memory\n"
        )
    assert time.perf_counter() - started < 1  # refused before the forest is built


def test_analyze_text_and_json(capsys):
    path = str(DATA / "partitions" / "complementary_pair.json")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "exact Ruspini: yes" in out
    assert "weak Ruspini: yes" in out
    assert "2-overlapping: yes" in out
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_ruspini"] is True
    assert payload["weak_ruspini"] is True
    assert payload["checks"]["weak_ruspini"] == {
        "direct": True,
        "forest": True,
        "proof": True,
    }
    assert len(payload["realized_leaves"]) == 5


def test_analyze_negative_instance(capsys):
    path = str(DATA / "partitions" / "overlapping_triple.json")
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_overlapping"] is False
    assert payload["exact_ruspini"] is False


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.json")
    assert code == 1 and "no_such_file" in err


def test_axiomatize(capsys):
    path = str(DATA / "partitions" / "constant_one.json")
    code, out, _ = run(capsys, "axiomatize", path)
    assert code == 0
    assert out.strip() == "(0 <| X1) & (X1 <-> 1)"


def test_synthesize_roundtrip(tmp_path, capsys):
    leaves = str(DATA / "leaves" / "ruspini2_pair.json")
    out_path = tmp_path / "synth.json"
    code, out, _ = run(capsys, "synthesize", leaves, "--n", "2", "-o", str(out_path))
    assert code == 0
    assert "wrote 2 sets" in out
    with open(out_path, "r", encoding="utf-8") as handle:
        partition = partition_from_json(json.load(handle))
    code, out, _ = run(capsys, "analyze", str(out_path), "--json")
    payload = json.loads(out)
    assert payload["exact_ruspini"] is True
    assert payload["weak_ruspini"] is True
    assert len(payload["realized_leaves"]) == 2


def test_synthesize_rejects_bad_leaves(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"zero": [1, 2], "mid": [], "one": []}]', encoding="utf-8")
    code, _, err = run(capsys, "synthesize", str(bad), "--n", "2", "-o",
                       str(tmp_path / "out.json"))
    assert code == 1 and "Ruspini" in err


@pytest.mark.parametrize("leaf", [
    '{"zero": ["a"], "mid": [], "one": [1]}',
    '{"zero": [], "mid": [[1, "x"]], "one": []}',
    '{"zero": [2], "mid": [], "one": [true]}',
    '{"zero": [2], "mid": [], "one": [1.0]}',
])
def test_synthesize_rejects_non_integer_variables(tmp_path, capsys, leaf):
    bad = tmp_path / "bad.json"
    bad.write_text(f"[{leaf}]", encoding="utf-8")
    code, out, err = run(capsys, "synthesize", str(bad), "--n", "2", "-o",
                         str(tmp_path / "out.json"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: leaf 0: variable index ")
    assert err.endswith(" is not an integer\n") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text, message", [
    ('{"zero": [1], "mid": [], "one": [2]}', "expected a JSON list of classes"),
    ("[1]", "leaf 0: class JSON must be an object"),
    ('[{"zero": [1]}]', "leaf 0: class JSON is missing keys: mid, one"),
    ('[{"zero": 1, "mid": [], "one": [2]}]', "leaf 0: 'zero', 'mid', 'one' must be lists"),
    ('[{"zero": [], "mid": [1], "one": [2]}]', "leaf 0: 'mid' must be a list of lists"),
], ids=["not-a-list", "not-an-object", "missing-keys", "not-lists", "flat-mid"])
def test_synthesize_refuses_malformed_leaves_files(tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "leaves.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "synthesize", "leaves.json", "--n", "2", "-o", "out.json")
    assert (code, out, err) == (1, "", f"error: leaves.json: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_synthesize_needs_a_variable(tmp_path, capsys, monkeypatch, n):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "leaves.json").write_text("[]", encoding="utf-8")
    code, out, err = run(capsys, "synthesize", "leaves.json", "--n", n, "-o", "out.json")
    assert (code, out, err) == (1, "", f"error: --n must be >= 1, got {n}\n")
    assert not (tmp_path / "out.json").exists()


def synthesize_subprocess(tmp_path, leaves, n):
    """`synthesize` of a leaves list as a subprocess: its result and wall time."""
    (tmp_path / "leaves.json").write_text(json.dumps(leaves), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "godelforest.cli", "synthesize", "leaves.json",
                           "--n", str(n), "-o", "out.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("n", [9, 12, 20])
def test_synthesize_past_eight_variables(tmp_path, n):
    # No forest is built, so any n is answered: a chain of all n variables,
    # two positive variables, one variable at 1, and an ancestor of the second.
    rest = list(range(3, n + 1))
    leaves = [cls(n, mid=[[v] for v in range(n, 0, -1)]), cls(n, zero=rest, mid=[[2], [1]]),
              cls(n, zero=range(2, n + 1), one=[1]), cls(n, zero=rest, mid=[[2]], one=[1])]
    proc, elapsed = synthesize_subprocess(tmp_path, [class_to_json(c) for c in leaves], n)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote {n} sets over 3 intervals to out.json\n"
    assert elapsed < 1, elapsed
    p = partition_from_json(json.loads((tmp_path / "out.json").read_text(encoding="utf-8")))
    maxima = tuple(sorted(leaves[:3], key=class_key))
    assert _maximal(realized_classes(p)) == _maximal(leaves) == maxima
    assert check_ruspini_exact(p)


def test_synthesize_lists_at_most_eight_uncovered_variables(tmp_path):
    proc, elapsed = synthesize_subprocess(tmp_path, [{"zero": [1], "mid": [], "one": [2]}], 10**9)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: leaves.json: leaf 0: blocks do not cover variables "
                           "[3, 4, 5, 6, 7, 8, 9, 10, ...] (999999998 in all)\n")
    assert elapsed < 1, elapsed
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000, "[{]"],
                         ids=["unclosed", "nested", "malformed"])
@pytest.mark.parametrize("command", [["analyze"], ["synthesize", "--n", "2", "-o", "out.json"]],
                         ids=["analyze", "synthesize"])
def test_loaders_refuse_bad_and_deeply_nested_json(tmp_path, capsys, monkeypatch, text, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command[0], "in.json", *command[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: in.json: not valid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("n", ["true", "1.0", '"1"'])
@pytest.mark.parametrize("command", ["analyze", "axiomatize"])
def test_partition_n_must_be_an_integer(tmp_path, capsys, command, n):
    path = tmp_path / "p.json"
    path.write_text(f'{{"n": {n}, "sets": [{{"points": [["0", "1"], ["1", "1"]]}}]}}',
                    encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    shown = {"true": "True", "1.0": "1.0", '"1"': "'1'"}[n]
    assert err == f"error: 'n' must be an integer, got {shown}\n"


@pytest.mark.parametrize("points, shown", [
    ("[[false, true], [true, true]]", "False"),
    ('[["0", "1"], [1, true]]', "True"),
], ids=["abscissa", "value"])
def test_partition_rationals_are_not_booleans(tmp_path, capsys, points, shown):
    # JSON true once read as 1, so the first file was the constant-1 set.
    path = tmp_path / "p.json"
    path.write_text(f'{{"sets": [{{"points": {points}}}]}}', encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    point = 0 if shown == "False" else 1
    assert err == f"error: set 'f1', point {point}: not an exact rational: {shown}\n"


def test_a_rational_past_the_int_to_str_limit_is_one_line(tmp_path, capsys, int_str_limit):
    # Python's own "Exceeds the limit (4300 digits)" text once ended these lines.
    long = "1/" + "1" * 5000
    code, out, err = run(capsys, "classify", "--values", f"0,{long}")
    assert (code, out, err) == (
        1, "", "error: denominator of 5000 digits is past the limit of 4300 digits\n")
    path = tmp_path / "p.json"
    path.write_text(f'{{"sets": [{{"points": [["0", "{long}"], ["1", "1"]]}}]}}',
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (1, "", "error: set 'f1', point 0: denominator of 5000 digits "
                                       "is past the limit of 4300 digits\n")


def test_synthesize_and_analyze_at_n8_build_no_forest_of_classes(tmp_path):
    # Two leaves of the 2,183,339-node forest: only their downset is ranked
    # and walked, so neither run builds the forest's classes.
    leaves = tmp_path / "leaves.json"
    leaves.write_text(json.dumps([
        {"zero": [3, 4, 5, 6, 7, 8], "mid": [[1], [2]], "one": []},
        {"zero": [3, 4, 5, 6, 7, 8], "mid": [[2], [1]], "one": []},
    ]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = [["synthesize", str(leaves), "--n", "8", "-o", str(tmp_path / "p.json")],
            ["analyze", str(tmp_path / "p.json"), "--json"]]
    for argv in runs:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "godelforest.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert elapsed < 3, (argv, elapsed)
    report = json.loads(proc.stdout)
    assert report["n"] == 8 and report["weak_ruspini"] and len(report["realized_leaves"]) == 2


def test_axiomatize_twelve_triangular_sets(capsys):
    path = DATA / "partitions" / "triangular_twelve.json"
    p = partition_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert p == triangular_partition(12)
    code, out, err = run(capsys, "axiomatize", str(path))
    assert (code, err) == (0, "")
    axiom = parse_formula(out)
    assert format_formula(axiom) + "\n" == out
    assert axiom == axiomatize_partition(p)
    realized = realized_classes(p)
    assert all(eval_formula(axiom, c.representative()) == 1 for c in realized)
    # X1 and X3 positive at once, every set at 1, every set at 1/2: each
    # class lies below no realized class, and the axiom is below 1 there.
    for values in ([1, 0, 1] + [0] * 9, [1] * 12, [Fraction(1, 2)] * 12):
        outside = class_of_values(values)
        assert not any(leq(outside, c) for c in realized)
        assert eval_formula(axiom, outside.representative()) < 1
    assert run(capsys, "analyze", str(path)) == (
        1, "", "error: forest enumeration supports 1 <= n <= 8, got 12\n"
    )


@pytest.mark.parametrize("k", [9, 12, 20])
def test_axiomatize_past_n8_answers_within_a_second(tmp_path, k):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(partition_to_json(triangular_partition(k))), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "godelforest.cli", "axiomatize", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert elapsed < 1, elapsed
    assert parse_formula(proc.stdout) == axiomatize_partition(triangular_partition(k))


def test_taut_deep_negation_chain(capsys):
    code, out, err = run(capsys, "taut", "--n", "1", "~" * 3000 + "X1")
    assert (code, out, err) == (0, "not a tautology\n", "")


def test_taut_long_disjunction_chain(capsys):
    chain = " | ".join(["(X1 -> X2)", "(X2 -> X1)"] * 550)
    code, out, err = run(capsys, "taut", "--n", "2", chain)
    assert (code, out, err) == (0, "tautology\n", "")


def test_taut_oracle_deep_negation_chain(capsys):
    code, out, err = run(capsys, "taut", "--n", "1", "--logic", "g2", "--oracle",
                         "~" * 3000 + "X1")
    assert (code, out, err) == (0, "not a tautology\n", "")


def test_taut_oracle_long_disjunction_chain(capsys):
    chain = " | ".join(["(X1 -> X2)", "(X2 -> X1)"] * 550)
    code, out, err = run(capsys, "taut", "--n", "2", "--logic", "g2", "--oracle", chain)
    assert (code, out, err) == (0, "tautology\n", "")


def test_count_weak_ruspini_n7_is_printed_in_full(capsys):
    # Pythons before 3.10.7 have no int-to-str digit limit to lift.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    code, out, err = run(capsys, "count", "--n", "7", "--kind", "weak-ruspini")
    assert (code, err) == (0, "")
    assert get_limit() == limit  # lifted for the print only
    expected = 2 ** (count_leaves(7) - 1) - 1
    assert len(out.strip()) > 4300
    assert int(Decimal(out)) == expected  # Decimal parses past the digit limit


def test_count_leaves_n3000(capsys):
    code, out, err = run(capsys, "count", "--n", "3000", "--kind", "leaves")
    assert (code, err) == (0, "")
    digits = out.strip()
    assert len(digits) == 9609 and digits.startswith("199881443907")
    assert int(Decimal(digits)) % (10**9 + 7) == 768993799


@pytest.mark.parametrize(
    "n, kind",
    [("9", "weak-ruspini"), ("12", "weak-ruspini"), ("2000", "overlap2"), ("20000", "leaves")],
)
def test_count_refuses_counts_too_long_to_print(capsys, n, kind):
    started = time.perf_counter()
    code, out, err = run(capsys, "count", "--n", n, "--kind", kind)
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the {kind} count supports n <= ")
    assert err.endswith(f"the n = {n} count takes too long to print\n")
    assert err.count("\n") == 1


def test_count_without_a_digit_limit(capsys, monkeypatch):
    # Pythons before 3.10.7 lack sys.get_int_max_str_digits altogether.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run(capsys, "count", "--n", "3", "--kind", "weak-ruspini") == (0, "33554431\n", "")


def test_classify_zero_denominator_is_a_clean_error(capsys):
    code, out, err = run(capsys, "classify", "--values", "1/0")
    assert (code, out) == (1, "")
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("values, field", [
    ("1,,1/2", 2), (" , 1/2", 1), ("0,1/3,1,", 4), ("", 1), ("1/2, \t,1", 2),
], ids=["middle", "leading", "trailing", "only", "blank"])
def test_classify_refuses_an_empty_field(capsys, values, field):
    # Dropping the field renumbered the variables after it: "1,,1/2" was
    # read as two values and printed 0<X2<X1=1.
    code, out, err = run(capsys, "classify", "--values", values)
    assert (code, out) == (1, "")
    assert err == f"error: --values field {field} is empty\n"


def test_classify_refuses_an_exponent_at_once(capsys):
    # Fraction would expand 10**100000000 before answering.
    started = time.perf_counter()
    code, out, err = run(capsys, "classify", "--values", "1e-100000000,0")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (1, "")
    assert err == "error: not an exact rational: '1e-100000000'\n"


def test_taut_1200_nested_parentheses(capsys):
    text = "(" * 1200 + "X1 -> X1" + ")" * 1200
    assert run(capsys, "taut", "--n", "1", text) == (0, "tautology\n", "")


# SHA-256 of each command's output; paths are relative to data/.  The n = 4
# and triangular_triple entries were recorded before the forest kernel moved
# to preorder bitmasks, the rest before its masks were built by subtree
# concatenation.
GOLDEN_DIGESTS = {
    "forest --n 4 --kind fn --format json":
        "7c69fab9387ccfda94d9a77fdb25fe46466d4f72018e7e8bd522f2031d904e62",
    "forest --n 4 --kind fn --format dot":
        "6c0a773ba3a39bee41ac535bfc3f109ad3ab70672faab2226446a8220c9bf6e7",
    "forest --n 4 --kind rn --format json":
        "3bd92f82370ec0053e2c0ca307e33ed00b3b26f65476edb50627816be870215a",
    "forest --n 4 --kind rn --format dot":
        "05d733e6a80193a3297bb9fa2d724565e39b6851199a093d4f24957dfdb419fd",
    "forest --n 4 --kind tn --format json":
        "1ed3be6fa4f3b02f41eed459fd78d385d43e63415e866efc3ce1f664ee2698a9",
    "forest --n 4 --kind tn --format dot":
        "6c42609622bf8d2e875670a76f648784fb8afcc13c2c434ec9e755505b1d752d",
    "forest --n 4 --kind fnt --t 3 --format json":
        "8ade96a3792f0b3002c35ff93e1a3a33cdf9214737b177f147e43375af3a5bad",
    "forest --n 4 --kind fnt --t 3 --format dot":
        "1274c03c8fedd9f0970e5d8d8237da13687a345b813fd82a7d244e665d9436bd",
    "analyze --json partitions/triangular_triple.json":
        "7bcafafc3c7cd53b180d0913e2e93cc7c0277ec59f5608835da5234b1a6919cd",
    "forest --n 5 --kind fn --format json":
        "6da58187333ac2362dbec6c495ee6cabea29831157280b5e06a9af68e578eceb",
    "forest --n 5 --kind fn --format dot":
        "dbc4c6201fb5b93ee0a88e9dd503e0b184b95c2b9895e6ddbf57feb789109b59",
    "forest --n 5 --kind rn --format json":
        "98ba1ec505e50e952a06d16db60cc8d68af52b6bd1e7084edd39a082dce0bc54",
    "forest --n 5 --kind rn --format dot":
        "f52e5c5bf2d1f7b4a4004573e5f22106947a59156d3dfb49fd8ecdb2002d502c",
    "forest --n 5 --kind tn --format json":
        "d76d2e6ba6a4e1af5a24b2f19b52a08c4c263dd4357ee4c49dd8bf4783dc6a77",
    "forest --n 5 --kind tn --format dot":
        "689ac0afe778cee604273b92b0806130291aaed1e11c98db29be24248eb810d1",
    "forest --n 5 --kind fnt --t 3 --format json":
        "9e506a20f736e2c812bb7740bc51ec13d2e4212a9d4f1cee6d40b4eb0769c41d",
    "forest --n 5 --kind fnt --t 3 --format dot":
        "377efc8fb3a7df655e3199816e0cd2217b6b36a28a4a3e802ac2a9a97d29efc7",
    "forest --n 6 --kind rn --format json":
        "63113221dc0291ddd81b67a5984bb472680b4a41ffe38bc14d43550ffd641b90",
    "forest --n 6 --kind tn --format json":
        "aa49fc762de7f79a0f23936208decddda6bcb7fe38ff2f456849eacc88876ad9",
    "analyze --json partitions/complementary_pair.json":
        "4fd618337ab1b7de6e41a9a5b5c5cdbf87dced626a14d03f73b68a6893d0154d",
    "analyze --json partitions/constant_one.json":
        "eb627d8315783c85572bec65a83424074ba103f87901bc446a11d2e7959c1a61",
    "analyze --json partitions/overlapping_triple.json":
        "8cf04f4586a434dc59591461a60c7b00f347fb4803ac75a79263301f98b26c08",
    "analyze --json partitions/step_pair.json":
        "cdb1c953c21852806219542e96caf40f86048b368c94c9a4900ff650e9bff385",
    "analyze --json partitions/three_constant_halves.json":
        "a72a61d93b305ff07251f68df4cfd5541a1d0df24ebaa0a15a5784f6b3174f69",
}


@pytest.mark.parametrize("command", GOLDEN_DIGESTS)
def test_exports_are_byte_stable(capsys, monkeypatch, command):
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[command]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "--n", "3")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_data_files_roundtrip(capsys):
    for path in sorted((DATA / "partitions").glob("*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        p = partition_from_json(obj)
        from godelforest import partition_to_json

        assert partition_from_json(partition_to_json(p)) == p


def test_output_is_deterministic(capsys):
    first = run(capsys, "forest", "--n", "3", "--kind", "rn", "--format", "json")
    second = run(capsys, "forest", "--n", "3", "--kind", "rn", "--format", "json")
    assert first == second
    path = str(DATA / "partitions" / "triangular_triple.json")
    assert run(capsys, "analyze", path) == run(capsys, "analyze", path)


def test_export_helpers_agree_with_cli(capsys):
    forest = enumerate_forest(2)
    sub = ruspini_subforest(forest)
    code, out, _ = run(capsys, "forest", "--n", "2", "--kind", "rn", "--format", "dot")
    assert out == subforest_to_dot(sub)
    code, out, _ = run(capsys, "forest", "--n", "2", "--kind", "rn", "--format", "json")
    assert json.loads(out) == subforest_to_json(sub)


def test_forest_json_parents_precede_children(capsys):
    code, out, _ = run(capsys, "forest", "--n", "3", "--format", "json")
    assert code == 0
    for node in json.loads(out)["nodes"]:
        assert node["parent"] is None or node["parent"] < node["id"]


def test_readme_commands_all_run(capsys, tmp_path, monkeypatch):
    import re
    import shlex

    monkeypatch.chdir(DATA.parent)
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    commands = re.findall(r"^godelforest .*$", readme, re.M)
    assert len(commands) >= 15
    for command in commands:
        argv = shlex.split(command.replace("/tmp/synth.json", str(tmp_path / "synth.json")),
                           comments=True)[1:]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (command, captured.err)


# Argument shapes of every subcommand: optional flags present and absent,
# flags after and between positionals, both spellings of -o/--output, and
# repeated flags, whose last value wins.
PLAIN_SHAPES = [
    ["forest", "--n", "3"],
    ["forest", "--n", "4", "--kind", "fnt", "--t", "3", "--format", "json"],
    ["forest", "--format", "dot", "--kind", "tn", "--n", "2"],
    ["classify", "--values", "0,1/3,1"],
    ["classify", "--values", ""],
    ["analyze", "p.json"],
    ["analyze", "--json", "p.json"],
    ["axiomatize", "p.json"],
    ["axioms", "--kind", "rho", "--n", "5"],
    ["taut", "--n", "2", "--logic", "g3", "--oracle", "X1 | ~X1"],
    ["taut", "X1", "--n", "1"],
    ["taut", "--n", "0", ""],
    ["equiv", "--n", "2", "X1 & X2", "X2 & X1"],
    ["equiv", "X1", "--logic", "g4", "X1 | 0", "--n", "1"],
    ["synthesize", "leaves.json", "--n", "2", "-o", "out.json"],
    ["synthesize", "--output", "out.json", "--n", "3", "leaves.json"],
    ["count", "--n", "3", "--kind", "leaves"],
    ["count", "--kind", "overlap2", "--n", " 12"],
    ["count", "--n", "3", "--kind", "leaves", "--n", "4"],
    ["analyze", "--json", "p.json", "--json"],
    ["synthesize", "-o", "a.json", "leaves.json", "--n", "2", "--output", "b.json"],
]


def readme_argv() -> list[list[str]]:
    import re
    import shlex

    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    return [shlex.split(command, comments=True)[1:]
            for command in re.findall(r"^godelforest .*$", readme, re.M)]


def argparse_reading(parser, argv: list[str]) -> dict | None:
    """`vars(parser.parse_args(argv))`, or None where argparse exits."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_plain_reader_reads_every_shape_and_readme_command_as_argparse_does():
    from godelforest.cli import _read_plain, build_parser

    parser = build_parser()
    for argv in PLAIN_SHAPES + readme_argv():
        plain = _read_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == argparse_reading(parser, argv), argv


#: What the fuzz puts in place of a value, a token or the subcommand, or
#: inserts: help, `--`, `-`, negative, signed, spaced and Unicode-digit
#: ints, bad choices, choices of other subcommands, empty strings.
ODD_TOKENS = [
    "-h", "--help", "--", "-", "", " ", "-1", "-0", "+2", " 3", "3_0", "٣", "３", "1.5",
    "0x3", "x", "-X1 | X2", "—n", "X1", "--n", "--kind", "-o", "--json", "--oracle",
    "FN", "rn", "json", "tau", "rho", "leaves", "weak-ruspini", "g3", "extra.json",
]
SUBCOMMAND_TOKENS = ["tau", "forests", "Count", "", "--n", "-h", "syn", "taut"]


def mutate(rng, argv: list[str]) -> list[str]:
    argv = list(argv)
    flags = [k for k, token in enumerate(argv) if token.startswith("-")]
    kind = rng.randrange(10)
    if kind == 0 and flags:  # an abbreviation, `--` included
        k = rng.choice(flags)
        argv[k] = argv[k][:max(1, rng.randrange(len(argv[k])))]
    elif kind == 1 and flags:  # a --flag=value form, on store_true flags too
        k = rng.choice(flags)
        value = argv.pop(k + 1) if k + 1 < len(argv) and rng.random() < 0.7 else rng.choice(
            ["", "1", "rn", "-1"])
        argv[k] += "=" + value
    elif kind == 2 and flags:  # a repeated flag, with or without a value
        k = rng.choice(flags)
        argv += argv[k:k + rng.randrange(1, 3)]
    elif kind == 3 and flags:  # a single-dash flag with its value attached
        k = rng.choice(flags)
        if k + 1 < len(argv):
            argv[k:k + 2] = ["-" + argv[k].lstrip("-")[:1] + argv[k + 1]]
    elif kind == 4 and len(argv) > 1:  # a token replaced
        argv[rng.randrange(1, len(argv))] = rng.choice(ODD_TOKENS)
    elif kind == 5:  # a token inserted
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD_TOKENS))
    elif kind == 6 and len(argv) > 1:  # a token dropped
        del argv[rng.randrange(len(argv))]
    elif kind == 7 and len(argv) > 2:  # two tokens swapped
        k = rng.randrange(1, len(argv) - 1)
        argv[k], argv[k + 1] = argv[k + 1], argv[k]
    elif kind == 8 and argv:
        argv[0] = rng.choice(SUBCOMMAND_TOKENS)
    elif kind == 9:  # an extra positional
        argv.append(rng.choice(["extra.json", "X1", ""]))
    return argv


def test_plain_reader_agrees_with_argparse_or_declines_on_fuzzed_argv():
    import random

    from godelforest.cli import _read_plain, build_parser

    rng, parser = random.Random(1313), build_parser()
    bases = PLAIN_SHAPES + readme_argv()
    plain_reads = argparse_exits = 0
    for _ in range(3000):
        argv = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 1, 2])):
            argv = mutate(rng, argv)
        expected, plain = argparse_reading(parser, argv), _read_plain(argv)
        if plain is not None:
            plain_reads += 1
            assert vars(plain) == expected, argv
        if expected is None:
            argparse_exits += 1
            assert plain is None, argv
    # Neither outcome is rare, so neither half of the check is vacuous.
    assert plain_reads > 200 and argparse_exits > 200


def _script_command():
    """The command the `godelforest` console script runs: its target in
    pyproject.toml, called as pip's generated script calls it."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^godelforest = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


#: The two ways a process enters the CLI: `python -m godelforest.cli` and
#: the console script, both through `cli.entry`.
ENTRIES = {"module": [sys.executable, "-m", "godelforest.cli"], "script": _script_command()}


def cli_process(how, argv, **keywords):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(ENTRIES[how] + argv, env=env, capture_output=True, text=True,
                          timeout=60, **keywords)


def test_the_console_script_runs_the_process_entry():
    assert ENTRIES["script"][-1].endswith("from godelforest.cli import entry; sys.exit(entry())")


@pytest.mark.parametrize("how", ENTRIES)
def test_a_process_exits_as_main_returns(capsys, monkeypatch, how):
    # argparse wraps help to the terminal's width; both sides read this one.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, stderr_end in [
        (["count", "--n", "3", "--kind", "leaves"], 0, ""),
        (["--help"], 0, ""),
        (["taut", "--n", "2", "X3"], 1, "error: formula uses X3 but --n is 2\n"),
        (["count", "--n", "3"], 2, "error: the following arguments are required: --kind\n"),
    ]:
        proc = cli_process(how, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv), argv
        assert proc.returncode == code and proc.stderr.endswith(stderr_end), argv


@pytest.mark.parametrize("how", ENTRIES)
def test_a_process_on_a_pipe_closed_early_exits_1(how):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(ENTRIES[how] + ["forest", "--n", "6", "--kind", "fn", "--format", "json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("how", ENTRIES)
def test_a_process_writes_the_synthesize_output_in_full(tmp_path, capsys, monkeypatch, how):
    leaves = ruspini_subforest(enumerate_forest(4)).leaves()
    (tmp_path / "leaves.json").write_text(json.dumps([class_to_json(c) for c in leaves]),
                                          encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    proc = cli_process(how, ["synthesize", "leaves.json", "--n", "4", "-o", "process.json"],
                       cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "wrote 4 sets over 149 intervals to process.json\n"
    assert run(capsys, "synthesize", "leaves.json", "--n", "4", "-o", "main.json")[0] == 0
    assert (tmp_path / "process.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_only_the_process_entry_freezes_the_collector(capsys):
    # In-process callers of main go on, with the collector as they had it.
    before = gc.get_freeze_count()
    for argv in (["count", "--n", "3", "--kind", "leaves"], ["--help"], ["taut", "--n", "2", "X3"]):
        run(capsys, *argv)
    assert gc.get_freeze_count() == before
    code = ("import gc, sys; from godelforest.cli import entry; code = entry(); "
            "print(gc.get_freeze_count() > 1000); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, "count", "--n", "3", "--kind", "leaves"],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "26\nTrue\n", "")


def test_taut_oracle_refuses_a_large_n_within_a_second():
    start = time.perf_counter()
    proc = cli_process("module", ["taut", "--n", "1000000000", "--logic", "g3", "--oracle", "X1"])
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: grid of 3**1000000000 assignments exceeds the budget of 1000000\n")
