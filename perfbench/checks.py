"""Answer checks.  Each returns a list of problems; an empty list passes.

The expected answers come from the request (see gen.py), so nothing here
trusts godelforest's own view of what is right.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import gen
import logic as L

_TEXT_LINES = {"exact": "exact Ruspini", "weak": "weak Ruspini", "overlap": "2-overlapping"}
_TRIPLES = {"weak_ruspini": "weak Ruspini", "two_overlapping": "2-overlapping",
            "combined": "combined"}


def has_traceback(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


def clean_error(code: int, stderr: str) -> bool:
    """Exit 1 or 2 with one `error:` line on stderr and no traceback."""
    lines = stderr.strip().splitlines()
    return code in (1, 2) and len(lines) == 1 and lines[0].startswith("error:")


def verdicts_from_json(obj: dict) -> dict:
    checks = obj["checks"]
    return {
        "n": obj["n"],
        "exact": obj["exact_ruspini"],
        "weak": obj["weak_ruspini"],
        "overlap": obj["two_overlapping"],
        "triples": {k: (v["direct"], v["forest"], v["proof"]) for k, v in checks.items()},
        "leaves": sorted(leaf["label"] for leaf in obj["realized_leaves"]),
    }


def verdicts_from_text(text: str) -> dict:
    lines = text.splitlines()
    fields = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith(" "))
    out = {"n": int(fields["n"])}
    for key, label in _TEXT_LINES.items():
        out[key] = {"yes": True, "no": False}[fields[label]]
    start = next(k for k, line in enumerate(lines) if line.startswith("realized leaves ("))
    count = int(lines[start].split("(")[1].split(")")[0])
    out["leaves"] = sorted(line.strip() for line in lines[start + 1 : start + 1 + count])
    triples = {}
    for key, label in _TRIPLES.items():
        line = next(x for x in lines if x.startswith(f"  {label}: direct="))
        words = dict(w.split("=") for w in line.split(": ", 1)[1].split())
        triples[key] = tuple({"yes": True, "no": False}[words[w]]
                             for w in ("direct", "forest", "proof"))
    out["triples"] = triples
    return out


def check_verdicts(expect: dict, got: dict) -> list[str]:
    """Hand-written or constructed verdicts, plus the agreement of each
    (direct, forest, proof) triple with itself and with the headline."""
    problems = []
    for key in ("n", "exact", "weak", "overlap", "leaves"):
        if key in expect and got[key] != expect[key]:
            problems.append(f"{key}: expected {expect[key]!r}, got {got[key]!r}")
    for name, triple in got["triples"].items():
        if len(set(triple)) != 1:
            problems.append(f"{name} triple disagrees: {triple}")
    headline = {"weak_ruspini": got["weak"], "two_overlapping": got["overlap"],
                "combined": got["weak"] and got["overlap"]}
    for name, value in headline.items():
        if got["triples"].get(name, (value,))[0] != value:
            problems.append(f"{name} triple does not match the headline verdict")
    return problems


def check_analyze(expect: dict, report: dict, text: str) -> list[str]:
    try:
        got, from_text = verdicts_from_json(report), verdicts_from_text(text)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = check_verdicts(expect, got)
    if from_text != got:
        problems.append("text report and JSON report disagree")
    return problems


def check_decide(req: dict, verdict: bool, oracle: bool | None) -> list[str]:
    problems = []
    if req["expect"] is not None and verdict != req["expect"]:
        problems.append(f"verdict {verdict}, expected {req['expect']}")
    if oracle is not None and oracle != verdict:
        problems.append(f"verdict {verdict}, grid oracle {oracle}")
    if req["expect"] is None and oracle is None:
        problems.append("no independent check ran")
    return problems


# ---------------------------------------------------------------- cli


def _columns(raw: list[list[str]]) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(v) for v in col) for col in raw]


def _sample_points(sets) -> list[Fraction]:
    xs = sorted({x for pts in sets for x, _ in pts})
    return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


def _check_axiom(text: str, expect: dict) -> list[str]:
    axiom = L.parse(text)
    sets = gen.read_points(expect["partition"])
    for x in _sample_points(sets):
        values = tuple(gen.value_at(pts, x) for pts in sets)
        if L.evaluate(axiom, values) != 1:
            return [f"axiom is not 1 at x={x}"]
    if expect.get("leaf_columns"):
        chosen = set(_columns(expect["leaf_columns"]))
        n = len(sets)
        for col in L.ruspini_leaves(n):
            if col not in chosen and L.evaluate(axiom, col) == 1:
                return [f"axiom is 1 on the unrealized leaf {L.chain_label(col)}"]
    return []


def _check_stock(text: str, expect: dict) -> list[str]:
    axiom = L.parse(text)
    for col in _columns(expect["one"]):
        if L.evaluate(axiom, col) != 1:
            return [f"axiom is not 1 at {L.chain_label(col)}"]
    for col in _columns(expect["below"]):
        if L.evaluate(axiom, col) == 1:
            return [f"axiom is 1 at {L.chain_label(col)}"]
    return []


def _check_forest(out: str, expect: dict) -> list[str]:
    nodes, trees = expect["nodes"], expect["trees"]
    if expect["format"] == "json":
        obj = json.loads(out)
        roots = sum(1 for node in obj["nodes"] if node["parent"] is None)
        got = (obj["n"], obj["count"], len(obj["nodes"]), roots)
        want = (expect["n"], nodes, nodes, trees)
    else:
        lines = out.splitlines()
        got = (sum(x.startswith("digraph tree_") for x in lines),
               sum("[label=" in x for x in lines), sum(" -> " in x for x in lines))
        want = (trees, nodes, nodes - trees)
    return [] if got == want else [f"forest shape {got}, expected {want}"]


def _check_synthesize(out: str, expect: dict, root: str) -> list[str]:
    m = len(expect["leaves"])
    line = f"wrote {expect['n']} sets over {m} intervals to {expect['out']}"
    if out.strip() != line:
        return [f"unexpected output {out.strip()!r}"]
    with open(os.path.join(root, expect["out"]), encoding="utf-8") as handle:
        sets = gen.read_points(json.load(handle))
    points = _sample_points(sets)
    columns = [tuple(gen.value_at(pts, x) for pts in sets) for x in points]
    if any(sum(col) != 1 for col in columns):
        return ["synthesized sets do not sum to 1"]
    labels = sorted({L.chain_label(col) for col in columns})
    return [] if labels == expect["leaves"] else [f"realizes {labels}"]


def check_cli(req: dict, code: int, out: str, err: str, root: str) -> list[str]:
    """Exit code 0, no traceback, then the answer for the subcommand."""
    if code != 0 or has_traceback(err):
        return [f"exit {code}: {err.strip()[-200:]}"]
    expect = req["expect"]
    kind = expect["check"]
    try:
        if kind == "line":
            ok = out.strip() == expect["line"]
            return [] if ok else [f"printed {out.strip()[:80]!r}, expected {expect['line'][:80]!r}"]
        if kind == "forest":
            return _check_forest(out, expect)
        if kind == "analyze-json":
            return check_verdicts(expect, verdicts_from_json(json.loads(out)))
        if kind == "analyze-text":
            return check_verdicts(expect, verdicts_from_text(out))
        if kind == "axiom":
            return _check_axiom(out.strip(), expect)
        if kind == "stock":
            return _check_stock(out.strip(), expect)
        if kind == "classify":
            lines = out.splitlines()
            got = (lines[0], json.loads(lines[1]))
            want = (expect["label"], expect["json"])
            return [] if got == want else [f"classified as {got}, expected {want}"]
        if kind == "synthesize":
            return _check_synthesize(out, expect, root)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    raise ValueError(f"unknown check {kind!r}")
