"""Serialization: classes, subforests (JSON and DOT), and analysis reports.

JSON layouts are documented in the README.  DOT output emits one digraph per
tree so figures of individual trees can be rendered directly.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, TextIO

from .forest import AssignmentClass, Subforest

if TYPE_CHECKING:
    from .axioms import AnalysisReport


def class_to_json(c: AssignmentClass) -> dict:
    return {
        "zero": list(c.zero),
        "mid": [list(b) for b in c.mid],
        "one": list(c.one),
    }


def class_from_json(obj: object, n: int) -> AssignmentClass:
    """Read a class from {"zero": [...], "mid": [[...], ...], "one": [...]}."""
    if not isinstance(obj, dict):
        raise ValueError("class JSON must be an object")
    missing = [key for key in ("zero", "mid", "one") if key not in obj]
    if missing:
        raise ValueError(f"class JSON is missing keys: {', '.join(missing)}")
    zero, mid, one = obj["zero"], obj["mid"], obj["one"]
    if not (isinstance(zero, list) and isinstance(mid, list) and isinstance(one, list)):
        raise ValueError("'zero', 'mid', 'one' must be lists")
    if not all(isinstance(b, list) for b in mid):
        raise ValueError("'mid' must be a list of lists")
    return AssignmentClass(n, tuple(zero), tuple(tuple(b) for b in mid), tuple(one))


def subforest_to_json(sub: Subforest) -> dict:
    """Nodes in canonical order with parent links by node id."""
    members, parents = sub.forest.walk(sub.mask)
    nodes = [
        dict(class_to_json(c), id=k, label=c.chain_string(), parent=parent)
        for k, (c, parent) in enumerate(zip(members, parents))
    ]
    return {"n": sub.forest.n, "count": len(nodes), "nodes": nodes}


def _json_list(items: list[str], pad: str) -> str:
    """Encoded items as `json.dump(..., indent=2)` lays out a list whose
    items sit at indent `pad` (and its closing bracket two spaces left)."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def _node_json(k: int, c: AssignmentClass, parent: int | None) -> str:
    """Node k of `subforest_to_json` as `json.dump(..., indent=2)` writes it."""
    mid = _json_list([_json_list(list(map(str, b)), " " * 10) for b in c.mid], " " * 8)
    return (
        "    {\n"
        f'      "zero": {_json_list(list(map(str, c.zero)), " " * 8)},\n'
        f'      "mid": {mid},\n'
        f'      "one": {_json_list(list(map(str, c.one)), " " * 8)},\n'
        f'      "id": {k},\n'
        f'      "label": {encode_basestring_ascii(c.chain_string())},\n'
        f'      "parent": {"null" if parent is None else parent}\n'
        "    }"
    )


#: Nodes encoded per `write` call of `write_subforest_json`.
_WRITE_BATCH = 1000


def write_subforest_json(sub: Subforest, out: TextIO) -> None:
    """Write `subforest_to_json(sub)` to out, byte for byte as
    `json.dump(..., out, indent=2)` would, one batch of nodes per write.

    No node dicts are built, so the text held at once is one batch."""
    members, parents = sub.forest.walk(sub.mask)
    out.write(f'{{\n  "n": {sub.forest.n},\n  "count": {len(members)},\n  "nodes": ')
    if not members:
        out.write("[]\n}")
        return
    lead = "[\n"
    for start in range(0, len(members), _WRITE_BATCH):
        stop = min(start + _WRITE_BATCH, len(members))
        out.write(lead + ",\n".join(
            _node_json(k, members[k], parents[k]) for k in range(start, stop)
        ))
        lead = ",\n"
    out.write("\n  ]\n}")


def subforest_to_dot(sub: Subforest) -> str:
    """One digraph per tree; nodes are labeled with their chain strings."""
    members, parents = sub.forest.walk(sub.mask)
    # Each tree is a run of members that starts at its root.
    starts = [k for k, parent in enumerate(parents) if parent is None] + [len(members)]
    lines: list[str] = []
    for t, (a, b) in enumerate(zip(starts, starts[1:])):
        lines.append(f"digraph tree_{t} {{")
        lines.append("  node [shape=box];")
        lines.extend(f'  n{k} [label="{members[k].chain_string()}"];' for k in range(a, b))
        lines.extend(f"  n{parents[k]} -> n{k};" for k in range(a + 1, b))
        lines.append("}")
    return "\n".join(lines) + "\n"


def report_to_json(report: AnalysisReport) -> dict:
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
