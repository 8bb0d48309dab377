"""Serialization: subforests (JSON and DOT) and analysis reports.

JSON layouts are documented in the README.  DOT output emits one digraph per
tree so figures of individual trees can be rendered directly.  A class's
JSON form is `classes.class_to_json`; the subforest writers make their text
from a walk's blocks and build no class, so `forest` exports never load
`classes`.
"""

from __future__ import annotations

from functools import cache
from io import StringIO
from itertools import count
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:
    from .axioms import AnalysisReport
    from .forest import Subforest


def subforest_to_json(sub: Subforest) -> dict:
    """Nodes in canonical order with parent links by node id."""
    from .classes import _class, class_to_json

    n, nodes = sub.forest.n, []
    for k, up, zero, mid, one in sub.forest.walk(sub.mask):
        c = _class(n, zero, mid, one)
        nodes.append(dict(class_to_json(c), id=k, label=c.chain_string(), parent=up))
    return {"n": n, "count": len(nodes), "nodes": nodes}


def _json_list(items: list[str], pad: str) -> str:
    """Encoded items as `json.dump(..., indent=2)` lays out a list whose
    items sit at indent `pad` (and its closing bracket two spaces left)."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def _chain_labels(n: int) -> Callable[[tuple, tuple, tuple], str]:
    """`label(zero, mid, one)`: the class's `chain_string()`, for the members
    of one walk in its preorder.  A label is its parent's prefix, `<` and its
    last mid block, then a tail that depends only on the variables at 1."""
    prefixes, names = [""] * (n + 1), cache(lambda vs: "=".join([f"X{v}" for v in vs]))

    def label(zero: tuple, mid: tuple, one: tuple) -> str:
        if d := len(mid):
            prefixes[d] = prefixes[d - 1] + "<" + names(mid[-1])
        else:
            prefixes[0] = "".join(["0", *[f"=X{v}" for v in zero]])
        return prefixes[d] + "<" + names(one) + ("=1" if one else "1")

    return label


#: Nodes encoded per `write` call of `write_subforest_json` and `write_subforest_dot`.
_WRITE_BATCH = 1000


def write_subforest_json(sub: Subforest, out: TextIO) -> None:
    """Write `subforest_to_json(sub)` to out, byte for byte as
    `json.dump(..., out, indent=2)` would, one batch of nodes per write.

    Each node's text is made as the walk visits it, its `mid` list from its
    parent's, so the text held at once is one batch."""
    n = sub.forest.n
    out.write(f'{{\n  "n": {n},\n  "count": {len(sub)},\n  "nodes": ')
    if not sub.mask:
        out.write("[]\n}")
        return
    label, mids, batch, lead = _chain_labels(n), [""] * (n + 1), [], "[\n"
    lists = cache(lambda vs: _json_list(list(map(str, vs)), " " * 8))
    blocks, close = cache(lambda vs: _json_list(list(map(str, vs)), " " * 10)), "\n      ]"
    for k, up, zero, mid, one in sub.forest.walk(sub.mask):
        if d := len(mid):  # mids[d]: the text of mid's list but its closing bracket
            mids[d] = (mids[d - 1] + "," if d > 1 else "[") + "\n        " + blocks(mid[-1])
        batch.append(
            "    {\n"
            f'      "zero": {lists(zero)},\n'
            f'      "mid": {mids[d] + close if d else "[]"},\n'
            f'      "one": {lists(one)},\n'
            f'      "id": {k},\n'
            f'      "label": "{label(zero, mid, one)}",\n'
            f'      "parent": {"null" if up is None else up}\n'
            "    }"
        )
        if len(batch) == _WRITE_BATCH:
            out.write(lead + ",\n".join(batch))
            lead = ",\n"
            batch.clear()
    if batch:
        out.write(lead + ",\n".join(batch))
    out.write("\n  ]\n}")


def write_subforest_dot(sub: Subforest, out: TextIO) -> None:
    """Write one digraph per tree, nodes labeled with their chain strings: its
    node lines, a batch per write, then its edges, written when it closes and
    held meanwhile as one string per batch."""
    label, lines, edges, held, trees = _chain_labels(sub.forest.n), [], [], [], count()
    for k, up, zero, mid, one in sub.forest.walk(sub.mask):
        if up is None:  # a root: the last tree closes, and the next opens
            if k:
                out.write("".join([*lines, *held, *edges, "}\n"]))
                del lines[:], edges[:], held[:]
            lines.append(f"digraph tree_{next(trees)} {{\n  node [shape=box];\n")
        else:
            edges.append(f"  n{up} -> n{k};\n")
            if len(edges) == _WRITE_BATCH:
                held.append("".join(edges))
                edges.clear()
        lines.append(f'  n{k} [label="{label(zero, mid, one)}"];\n')
        if len(lines) >= _WRITE_BATCH:
            out.write("".join(lines))
            lines.clear()
    out.write("".join([*lines, *held, *edges, "}\n"]) if sub.mask else "\n")


def subforest_to_dot(sub: Subforest) -> str:
    """`write_subforest_dot`'s output as one string."""
    out = StringIO()
    write_subforest_dot(sub, out)
    return out.getvalue()


def report_to_json(report: AnalysisReport) -> dict:
    from .classes import class_to_json

    def triple(checks: tuple[bool, bool, bool]) -> dict:
        return {"direct": checks[0], "forest": checks[1], "proof": checks[2]}

    leaves = [
        dict(class_to_json(c), label=c.chain_string())
        for c in report.realized_leaves
    ]
    return {
        "n": report.n,
        "exact_ruspini": report.is_exact_ruspini,
        "weak_ruspini": report.is_weak_ruspini,
        "two_overlapping": report.is_2_overlapping,
        "axiom": str(report.axiom),
        "realized_leaves": leaves,
        "checks": {
            "weak_ruspini": triple(report.ruspini_checks),
            "two_overlapping": triple(report.overlap_checks),
            "combined": triple(report.combined_checks),
        },
    }


def format_report(report: AnalysisReport) -> str:
    def yesno(flag: bool) -> str:
        return "yes" if flag else "no"

    def triple(name: str, checks: tuple[bool, bool, bool]) -> str:
        return (
            f"  {name}: direct={yesno(checks[0])}"
            f" forest={yesno(checks[1])} proof={yesno(checks[2])}"
        )

    lines = [
        f"n: {report.n}",
        f"exact Ruspini: {yesno(report.is_exact_ruspini)}",
        f"weak Ruspini: {yesno(report.is_weak_ruspini)}",
        f"2-overlapping: {yesno(report.is_2_overlapping)}",
        f"axiom: {report.axiom}",
        f"realized leaves ({len(report.realized_leaves)}):",
    ]
    lines.extend(f"  {c.chain_string()}" for c in report.realized_leaves)
    lines.append("checks (each triple must agree):")
    lines.append(triple("weak Ruspini", report.ruspini_checks))
    lines.append(triple("2-overlapping", report.overlap_checks))
    lines.append(triple("combined", report.combined_checks))
    return "\n".join(lines) + "\n"
