"""The benchmark's own Goedel-logic reference, independent of godelforest.

Input generation and answer checking use only this module, so the answers
the benchmark expects never come from the code it measures.  Formulas are
nested tuples: ("var", i), ("bot",), ("top",), ("not", a) and
(op, a, b) for op in and/or/imp/iff/lhd.
"""

from __future__ import annotations

import math
from fractions import Fraction

BINARY = ("and", "or", "imp", "iff", "lhd")
_SYMBOL = {"and": "&", "or": "|", "imp": "->", "iff": "<->", "lhd": "<|"}
_ONE, _ZERO = Fraction(1), Fraction(0)


def var(i: int) -> tuple:
    return ("var", i)


def render(f: tuple) -> str:
    """Formula text with every binary node parenthesized (iterative)."""
    out: list[str] = []
    stack: list[object] = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kind = item[0]
        if kind == "var":
            out.append(f"X{item[1]}")
        elif kind == "bot":
            out.append("0")
        elif kind == "top":
            out.append("1")
        elif kind == "not":
            out.append("~")
            stack.append(item[1])
        else:
            stack.extend([")", item[2], f" {_SYMBOL[kind]} ", item[1], "("])
    return "".join(out)


def node_count(f: tuple) -> int:
    count, stack = 0, [f]
    while stack:
        item = stack.pop()
        count += 1
        stack.extend(item[1:] if item[0] in BINARY or item[0] == "not" else ())
    return count


def depth(f: tuple) -> int:
    best, stack = 0, [(f, 1)]
    while stack:
        item, d = stack.pop()
        best = max(best, d)
        if item[0] in BINARY or item[0] == "not":
            stack.extend((child, d + 1) for child in item[1:])
    return best


def expand(f: tuple) -> tuple:
    """Rewrite <-> and <| into ->, & by their definitions."""
    kind = f[0]
    if kind in ("var", "bot", "top"):
        return f
    if kind == "not":
        return ("not", expand(f[1]))
    a, b = expand(f[1]), expand(f[2])
    if kind == "iff":
        return ("and", ("imp", a, b), ("imp", b, a))
    if kind == "lhd":
        return ("imp", ("imp", b, a), b)
    return (kind, a, b)


def _res(a: Fraction, b: Fraction) -> Fraction:
    return _ONE if a <= b else b


def evaluate(f: tuple, values: tuple[Fraction, ...]) -> Fraction:
    """Goedel value of f with Xi = values[i-1] (iterative post-order)."""
    results: list[Fraction] = []
    stack: list[tuple[tuple, bool]] = [(f, False)]
    while stack:
        item, ready = stack.pop()
        kind = item[0]
        if kind == "var":
            results.append(values[item[1] - 1])
        elif kind == "bot":
            results.append(_ZERO)
        elif kind == "top":
            results.append(_ONE)
        elif not ready:
            stack.append((item, True))
            stack.extend((child, False) for child in reversed(item[1:]))
        elif kind == "not":
            results.append(_res(results.pop(), _ZERO))
        else:
            b, a = results.pop(), results.pop()
            if kind == "and":
                results.append(min(a, b))
            elif kind == "or":
                results.append(max(a, b))
            elif kind == "imp":
                results.append(_res(a, b))
            elif kind == "iff":
                results.append(min(_res(a, b), _res(b, a)))
            else:
                results.append(_res(_res(b, a), b))
    return results[0]


def parse(text: str) -> tuple:
    """Parse the program's formula syntax: ~ tightest, then &, then |, then
    right-associative arrows.  Chains are read with loops, so long flat
    axioms parse without deep recursion."""
    tokens: list[object] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "X":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("var", int(text[i + 1 : j])))
            i = j
        elif text.startswith("<->", i):
            tokens.append("iff")
            i += 3
        elif text.startswith("<|", i):
            tokens.append("lhd")
            i += 2
        elif text.startswith("->", i):
            tokens.append("imp")
            i += 2
        elif text.startswith("bot", i) or ch == "0":
            tokens.append(("bot",))
            i += 3 if ch == "b" else 1
        elif text.startswith("top", i) or ch == "1":
            tokens.append(("top",))
            i += 3 if ch == "t" else 1
        elif ch in "~&|()":
            tokens.append({"~": "not", "&": "and", "|": "or"}.get(ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected {ch!r} at {i}")
    tokens.append("end")
    pos = 0

    def peek() -> object:
        return tokens[pos]

    def take() -> object:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def arrow() -> tuple:
        items, ops = [chain("or", chain_and)], []
        while peek() in ("imp", "iff", "lhd"):
            ops.append(take())
            items.append(chain("or", chain_and))
        result = items[-1]
        for op, item in zip(reversed(ops), reversed(items[:-1])):
            result = (op, item, result)
        return result

    def chain(op: str, below) -> tuple:
        result = below()
        while peek() == op:
            take()
            result = (op, result, below())
        return result

    def chain_and() -> tuple:
        return chain("and", unary)

    def unary() -> tuple:
        nots = 0
        while peek() == "not":
            take()
            nots += 1
        tok = take()
        if tok == "(":
            result = arrow()
            if take() != ")":
                raise ValueError("expected ')'")
        elif isinstance(tok, tuple):
            result = tok
        else:
            raise ValueError(f"unexpected token {tok!r}")
        for _ in range(nots):
            result = ("not", result)
        return result

    result = arrow()
    if peek() != "end":
        raise ValueError("trailing input")
    return result


# ---------------------------------------------------------------- classes


def chain_label(values: tuple[Fraction, ...]) -> str:
    """Chain string of the class of the given values, e.g. "0=X1<X2<1"."""
    n = len(values)
    zero = [i for i in range(1, n + 1) if values[i - 1] == 0]
    one = [i for i in range(1, n + 1) if values[i - 1] == 1]
    levels = sorted({v for v in values if 0 < v < 1})
    mid = [[i for i in range(1, n + 1) if values[i - 1] == v] for v in levels]
    parts = ["0"]
    blocks = ([(True, zero)] if zero else []) + [(False, b) for b in mid]
    blocks += [(False, one)] if one else []
    for k, (is_zero, block) in enumerate(blocks):
        lead = "=" if (k == 0 and is_zero) else "<"
        parts.extend(f"{lead if j == 0 else '='}X{v}" for j, v in enumerate(block))
    parts.append("=1" if one else "<1")
    return "".join(parts)


def ordered_partitions(items: list[int]) -> list[list[list[int]]]:
    """All ordered set partitions of items, in a fixed order."""
    if not items:
        return [[]]
    result = []
    for mask in range(1, 1 << len(items)):
        block = [x for k, x in enumerate(items) if mask >> k & 1]
        rest = [x for k, x in enumerate(items) if not mask >> k & 1]
        result.extend([block] + tail for tail in ordered_partitions(rest))
    return result


def ruspini_leaves(n: int) -> list[tuple[Fraction, ...]]:
    """Columns of values realizing each leaf of the Ruspini forest, each
    summing to exactly 1: one variable at 1 and the rest at 0, or a chain of
    at least two positive variables below 1 (block i of weights w at value
    i / sum(j * w_j))."""
    columns = []
    for i in range(n):
        columns.append(tuple(_ONE if k == i else _ZERO for k in range(n)))
    for mask in range(1, 1 << n):
        positive = [k + 1 for k in range(n) if mask >> k & 1]
        if len(positive) < 2:
            continue
        for blocks in ordered_partitions(positive):
            weight = sum(idx * len(b) for idx, b in enumerate(blocks, start=1))
            values = [_ZERO] * n
            for idx, block in enumerate(blocks, start=1):
                for v in block:
                    values[v - 1] = Fraction(idx, weight)
            columns.append(tuple(values))
    return columns


# ---------------------------------------------------------------- counts


def ordered_by_blocks(m: int) -> list[int]:
    """Ordered partitions of an m-set into exactly b blocks, b = 0..m:
    b! S(m, b), from the Stirling-row recurrence (iterative)."""
    row = [1]  # S(0, b)
    for j in range(1, m + 1):
        new = [0] * (j + 1)
        for b in range(1, j + 1):
            new[b] = b * (row[b] if b < len(row) else 0) + row[b - 1]
        row = new
    return [math.factorial(b) * s for b, s in enumerate(row)]


def ordered_bell(n: int) -> int:
    return sum(ordered_by_blocks(n))


def count_leaves(n: int) -> int:
    return 2 * ordered_bell(n)


def count_weak_ruspini(n: int) -> int:
    return 2 ** (count_leaves(n) - 1) - 1


def count_overlap2(n: int) -> int:
    return 2 ** ((3 * n * n - n) // 2) - 1


def forest_size(n: int, kind: str, t: int | None = None) -> tuple[int, int]:
    """(nodes, trees) of the forest `forest --kind` exports.

    A class picks its m mid variables, orders them into blocks, and puts each
    other variable at 0 or 1; the trees are rooted at the Boolean classes.
    """
    if kind == "tn":
        return 1 + 2 * n + 6 * math.comb(n, 2), 1 + n + math.comb(n, 2)
    cap = t - 2 if kind == "fnt" else n
    nodes = sum(
        math.comb(n, m) * sum(ordered_by_blocks(m)[: cap + 1]) * 2 ** (n - m)
        for m in range(n + 1)
    )
    if kind == "rn":
        return nodes - 1 - n, 2**n - 1
    return nodes, 2**n
