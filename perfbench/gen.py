"""Seeded, deterministic inputs for the analyze, decide and cli workloads.

`generate(workload, seed, root)` returns one round: a list of requests as
plain JSON data.  The same seed gives byte-identical requests (see
`digest`).  Every request carries the answer the benchmark expects, worked
out here from its construction with `logic`, never by godelforest.

Each workload mixes a fixed number of requests per category (strata), so two
seeds draw different inputs of the same shape, and `interleave` spreads each
category evenly over the round, so a run that stops part-way through a round
still sees every category in proportion.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import logic as L

DATA_DIR = os.path.join("data", "partitions")

#: Verdicts for the sample files, written by hand from the README's "Sample
#: data" list.  `leaves` is the realized maximal classes where the README
#: pins them down.
DATA_VERDICTS = {
    "complementary_pair.json": {"n": 2, "exact": True, "weak": True, "overlap": True},
    "constant_one.json": {"n": 1, "exact": True, "weak": True, "overlap": True,
                          "leaves": ["0<X1=1"]},
    "overlapping_triple.json": {"n": 3, "exact": False, "weak": False, "overlap": False},
    "step_pair.json": {"n": 2, "exact": True, "weak": True, "overlap": True,
                       "leaves": ["0=X1<X2=1", "0=X2<X1=1"]},
    "three_constant_halves.json": {"n": 3, "exact": False, "weak": True, "overlap": False,
                                   "leaves": ["0<X1=X2=X3<1"]},
    "triangular_triple.json": {"n": 3, "exact": True, "weak": True, "overlap": True},
}

_OPS = ("and", "and", "or", "or", "imp", "imp", "imp", "not", "iff", "lhd")
_LOGICS = ("ginf", "g2", "g3", "g4", "g5")
_MAX_DEPTH = 24


def digest(requests: list[dict]) -> str:
    """SHA-256 of the canonical JSON form of a round."""
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _van_der_corput(k: int) -> float:
    """k with its binary digits mirrored after the point: 0, .5, .25, .75, ..."""
    x, step = 0.0, 0.5
    while k:
        x += step * (k & 1)
        k, step = k >> 1, step / 2
    return x


def interleave(groups: list[list[dict]], keep: tuple = ()) -> list[dict]:
    """Merge groups so that every prefix of the round holds each group, and
    each part of a group, in proportion.

    A group is listed in generation order, where neighbours differ in size
    or kind; it is reordered by the van der Corput sequence, so any run of
    it spans that order evenly (groups in `keep` stay as they are).  Item j
    of a group of m then sits at (j + 1/2) / m, and the round is sorted by
    position.  The order depends only on the group sizes, so where the seed
    leaves costs alone, a run that stops part-way through a round measures
    the same mix for every seed."""
    keyed = []
    for g, items in enumerate(groups):
        if g not in keep:
            order = sorted(range(len(items)), key=_van_der_corput)
            items = [items[k] for k in order]
        for j, item in enumerate(items):
            keyed.append(((j + 0.5) / len(items), g, j, item))
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


# ---------------------------------------------------------------- formulas


def _grow(rng: random.Random, n: int, size: int, ops=_OPS) -> tuple:
    if size == 1:
        return L.var(rng.randint(1, n))
    if size == 2:
        return ("not", L.var(rng.randint(1, n)))
    op = rng.choice(ops)
    if op == "not":
        return ("not", _grow(rng, n, size - 1, ops))
    # Splits cluster around the middle, which keeps formulas shallow.
    k = 1 + int((size - 2) * (rng.random() + rng.random()) / 2)
    return (op, _grow(rng, n, k, ops), _grow(rng, n, size - 1 - k, ops))


def random_formula(rng: random.Random, n: int, size: int, ops=_OPS) -> tuple:
    """A formula over X1..Xn with exactly `size` nodes and bounded depth."""
    while True:
        f = _grow(rng, n, max(1, size), ops)
        if L.depth(f) <= _MAX_DEPTH:
            return f


def spread(lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes evenly spaced over lo..hi, ascending: the size mix is
    the same for every seed."""
    return [lo + round(k * (hi - lo) / max(1, count - 1)) for k in range(count)]


def _split(rng: random.Random, total: int) -> tuple[int, int]:
    a = rng.randint(1, max(1, total - 1))
    return a, max(1, total - a)


def _expandable(rng: random.Random, n: int, size: int) -> tuple:
    """A formula F whose pair (F, expand(F)) has `size` nodes, give or take
    a tenth: expansion copies the operands of <-> and <|, so the pair's size
    varies several-fold for one size of F, and so would its cost."""
    ops = _OPS + ("iff", "lhd")
    fsize, best = max(3, size // 3), None
    for _ in range(200):
        F = random_formula(rng, n, fsize, ops)
        total = L.node_count(F) + L.node_count(L.expand(F))
        if best is None or abs(total - size) < abs(best[1] - size):
            best = (F, total)
        if abs(total - size) <= max(1, size // 10):
            break
        fsize = max(3, fsize + (1 if total < size else -1))
    return best[0]


def decide_query(rng: random.Random, kind: str, n: int, size: int, logic: str) -> dict:
    """One decide request.  `expect` is the verdict known by construction,
    or None for a random formula, which only the grid oracle checks."""
    i, j = rng.sample(range(1, n + 1), 2)
    if kind == "prelinearity":  # (A -> B) | (B -> A): nodes 3 + 2|A| + 2|B|
        a, b = _split(rng, (size - 3) // 2)
        A, B = random_formula(rng, n, a), random_formula(rng, n, b)
        op, texts, expect = "taut", [("or", ("imp", A, B), ("imp", B, A))], True
    elif kind == "weakening":  # (A & B) -> A
        a = max(1, (size - 2) // 3)
        A, B = random_formula(rng, n, a), random_formula(rng, n, max(1, size - 2 - 2 * a))
        op, texts, expect = "taut", [("imp", ("and", A, B), A)], True
    elif kind == "refuted":  # A & (Xi -> Xj), i != j: 0 at Xi = 1, Xj = 0
        A = random_formula(rng, n, max(1, size - 4))
        op, texts, expect = "taut", [("and", A, ("imp", L.var(i), L.var(j)))], False
    elif kind == "random":
        op, texts, expect = "taut", [random_formula(rng, n, size)], None
    elif kind == "expansion":  # F against its own primitive expansion
        F = _expandable(rng, n, size)
        op, texts, expect = "equiv", [F, L.expand(F)], True
    elif kind == "conjunct":  # A & B implies A
        a, b = _split(rng, size - 1)
        A, B = random_formula(rng, n, a), random_formula(rng, n, b)
        op, texts, expect = "implies", [("and", A, B), A], True
    else:
        raise ValueError(kind)
    return {
        "kind": kind, "op": op, "n": n, "logic": logic,
        "formulas": [L.render(f) for f in texts],
        "expect": expect,
    }


# Per n: requests in a round of decide, the node range of the query, and the
# logics.  Large formulas only at small n.  n = 6 is rare and small, so that
# p90 falls inside the n = 5 band, whose cost rises smoothly with formula
# size; g4 and g5 stay at n <= 4, where the grid oracle's t**n assignments
# are few, so that the band is not split by logic.
_DECIDE_STRATA = {3: (240, 8, 200, _LOGICS), 4: (180, 8, 60, _LOGICS),
                  5: (150, 8, 30, _LOGICS[:3]), 6: (30, 8, 12, _LOGICS[:3])}
_DECIDE_KINDS = ("prelinearity", "refuted", "random", "expansion", "weakening",
                 "conjunct", "random", "prelinearity", "refuted", "expansion")


def _rename(f: tuple, perm: list[int]) -> tuple:
    if f[0] == "var":
        return ("var", perm[f[1] - 1])
    return (f[0], *(_rename(child, perm) for child in f[1:]))


def decide_round(rng: random.Random) -> list[dict]:
    """Within a stratum the (kind, logic, size) triples are the same for
    every seed: request k gets the k-th of evenly spaced sizes, kinds in a
    cycle, and logics in a cycle shifted once per pass over the kinds, so
    every kind meets every logic.  The formulas come from a fixed stream and
    the seed renames their variables and orders the round: the cost of a
    formula follows its shape, which renaming keeps."""
    shapes = random.Random("decide-shapes")
    groups = []
    for n, (count, lo, hi, logics) in _DECIDE_STRATA.items():
        group = []
        for k, size in enumerate(spread(lo, hi, count)):
            kind = _DECIDE_KINDS[k % len(_DECIDE_KINDS)]
            logic = logics[(k + k // len(_DECIDE_KINDS)) % len(logics)]
            if kind == "random" and logic == "ginf":  # only the oracle checks these
                logic = "g3"
            query = decide_query(shapes, kind, n, size, logic)
            perm = rng.sample(range(1, n + 1), n)
            query["formulas"] = [L.render(_rename(L.parse(t), perm)) for t in query["formulas"]]
            group.append(query)
        groups.append(group)
    return interleave(groups)


# ---------------------------------------------------------------- partitions


def value_at(points: list[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Right-continuous piecewise-linear value (the last point at x wins)."""
    hit = None
    for px, py in points:
        if px == x:
            hit = py
    if hit is not None:
        return hit
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        if ax < x < bx:
            return ay + (by - ay) * (x - ax) / (bx - ax)
    raise ValueError(f"{x} outside the breakpoints")


def partition_json(sets: list[list[tuple[Fraction, Fraction]]]) -> dict:
    return {
        "n": len(sets),
        "sets": [
            {"name": f"f{i + 1}", "points": [[str(x), str(y)] for x, y in pts]}
            for i, pts in enumerate(sets)
        ],
    }


def read_points(obj: dict) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(Fraction(x), Fraction(y)) for x, y in s["points"]] for s in obj["sets"]]


def _grid(rng: random.Random, k: int) -> list[Fraction]:
    denom = 4 * k
    inner = sorted(rng.sample(range(1, denom), k - 2))
    return [Fraction(0)] + [Fraction(v, denom) for v in inner] + [Fraction(1)]


def grid_table(sets) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The union grid of continuous sets, and each set's values on it, in
    one merge pass per set."""
    xs = sorted({x for pts in sets for x, _ in pts})
    table = []
    for pts in sets:
        row, j = [], 0
        for x in xs:
            while pts[j + 1][0] < x:
                j += 1
            (ax, ay), (bx, by) = pts[j], pts[j + 1]
            row.append(ay if x == ax else ay + (by - ay) * (x - ax) / (bx - ax))
        table.append(row)
    return xs, table


def exact_sum_one(table) -> bool:
    """Continuous sets (their grid_table): the sum is linear between union
    breakpoints."""
    return all(sum(column) == 1 for column in zip(*table))


def two_overlapping(table) -> bool:
    """Continuous nonnegative sets (their grid_table): a set is positive on a
    whole open cell of the union grid iff it is positive at one of the
    cell's ends."""
    at = [[v > 0 for v in column] for column in zip(*table)]
    if any(sum(row) >= 3 for row in at):
        return False
    return all(sum(a or b for a, b in zip(lo, hi)) <= 2 for lo, hi in zip(at, at[1:]))


def _class_key(values) -> tuple:
    zero = tuple(i for i, v in enumerate(values) if v == 0)
    levels = sorted({v for v in values if 0 < v < 1})
    return zero, tuple(tuple(i for i, v in enumerate(values) if v == lv) for lv in levels)


def realized_leaves(sets) -> list[str]:
    """Labels of the maximal realized classes of continuous sets.

    In each cell of the union grid every set is linear, so the class can
    only change where a set meets 0, 1 or another set; sampling those points
    and the midpoints between them sees every class.  A class lies below
    another with the same zero set whose mid blocks it prefixes."""
    _, table = grid_table(sets)
    columns = list(zip(*table))
    found: dict[tuple, tuple] = {}
    for ya, yb in zip(columns, columns[1:]):
        slope = [b - a for a, b in zip(ya, yb)]
        crit = {Fraction(0), Fraction(1)}
        targets = [(y, d, Fraction(t), Fraction(0)) for y, d in zip(ya, slope) for t in (0, 1)]
        targets += [(ya[i], slope[i], ya[j], slope[j])
                    for i in range(len(sets)) for j in range(i + 1, len(sets))]
        for y, d, z, e in targets:
            if d != e and 0 < (z - y) / (d - e) < 1:
                crit.add((z - y) / (d - e))
        cuts = sorted(crit)
        for s in cuts + [(u + v) / 2 for u, v in zip(cuts, cuts[1:])]:
            values = tuple(y + d * s for y, d in zip(ya, slope))
            found.setdefault(_class_key(values), values)
    maximal = [
        values for (zero, mid), values in found.items()
        if not any(z == zero and len(m) > len(mid) and m[: len(mid)] == mid for z, m in found)
    ]
    return sorted(L.chain_label(v) for v in maximal)


def ruspini_partition(rng: random.Random, n: int, k: int) -> dict:
    """Continuous sets on a shared grid with weights normalized to sum 1 at
    every breakpoint: exact Ruspini by construction."""
    xs = _grid(rng, k)
    columns = []
    for _ in xs:
        w = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
        if not any(w):
            w[rng.randrange(n)] = 1
        columns.append([Fraction(v, sum(w)) for v in w])
    sets = [[(x, col[i]) for x, col in zip(xs, columns)] for i in range(n)]
    return {
        "partition": partition_json(sets),
        "expect": {"n": n, "exact": True, "weak": True,
                   "overlap": two_overlapping(grid_table(sets)[1])},
    }


_FREE_VALUES = (0, 0, 1) + tuple(Fraction(j, 6) for j in range(1, 6))


def free_partition(rng: random.Random, n: int, k: int) -> dict:
    """Continuous sets, each on its own grid with values drawn from
    {0, 1/6, ..., 1}: crossings at many abscissae, ties and 0/1 plateaus."""
    sets = []
    for _ in range(n):
        xs = _grid(rng, rng.randint(max(2, k - 3), k))
        sets.append([(x, Fraction(rng.choice(_FREE_VALUES))) for x in xs])
    _, table = grid_table(sets)
    return {
        "partition": partition_json(sets),
        "expect": {"n": n, "exact": exact_sum_one(table), "overlap": two_overlapping(table)},
    }


def step_partition(rng: random.Random, n: int, m: int, pool=None) -> dict:
    """Step sets realizing m seeded Ruspini-forest leaves in turn, on m equal
    intervals.  Exact and weak Ruspini, and the realized leaves are exactly
    the chosen ones (Ruspini leaves never lie below one another)."""
    leaves = rng.sample(pool or L.ruspini_leaves(n), m)
    sets = []
    for i in range(n):
        levels = [col[i] for col in leaves]
        pts = [(Fraction(0), levels[0])]
        for j in range(1, m):
            if levels[j] != levels[j - 1]:
                pts += [(Fraction(j, m), levels[j - 1]), (Fraction(j, m), levels[j])]
        pts.append((Fraction(1), levels[-1]))
        sets.append(pts)
    return {
        "partition": partition_json(sets),
        "leaf_columns": [[str(v) for v in col] for col in leaves],
        "expect": {
            "n": n, "exact": True, "weak": True,
            "overlap": all(sum(v > 0 for v in col) <= 2 for col in leaves),
            "leaves": sorted(L.chain_label(col) for col in leaves),
        },
    }


def data_partitions(root: str) -> list[dict]:
    out = []
    for name in sorted(DATA_VERDICTS):
        with open(os.path.join(root, DATA_DIR, name), encoding="utf-8") as handle:
            obj = json.load(handle)
        out.append({"partition": obj, "file": name, "expect": dict(DATA_VERDICTS[name])})
    return out


def _analyze_item(cat: str, item: dict) -> dict:
    return dict(item, kind="analyze", cat=cat)


def shaped(build, rng: random.Random, n: int, k: int) -> dict:
    """A partition from `build` whose realized forest has 3k - 1 maximal
    classes, give or take one.  At n = 4 the cost of analyze follows that
    count, and it varies several-fold between draws of the same size, so
    shaping it keeps the cost of a size steady.  The
    leaves found here (realized_leaves) become part of the expected answer."""
    target = 3 * k - 1
    best = None
    for _ in range(400):
        item = build(rng, n, k)
        leaves = realized_leaves(read_points(item["partition"]))
        if best is None or abs(len(leaves) - target) < abs(len(best[1]) - target):
            best = (item, leaves)
        if abs(len(leaves) - target) <= 1:
            break
    item, leaves = best
    item["expect"]["leaves"] = leaves
    return item


# (category, build function, n, size range, requests per round, shape the cost).
# Sizes are breakpoints per set, or chosen leaves for the step partitions.
_ANALYZE_STRATA = (
    ("ruspini2", ruspini_partition, 2, 4, 40, 100, False),
    ("free2", free_partition, 2, 4, 40, 100, False),
    ("ruspini3", ruspini_partition, 3, 4, 40, 40, False),
    ("free3", free_partition, 3, 4, 40, 40, False),
    ("ruspini4", ruspini_partition, 4, 2, 6, 6, True),
    ("free4", free_partition, 4, 2, 6, 6, True),
    ("steps3", step_partition, 3, 3, 25, 32, False),
    ("steps4", step_partition, 4, 3, 25, 8, False),
)


def variant(rng: random.Random, item: dict) -> dict:
    """The same partition with its sets permuted and, half the time, x
    mirrored to 1 - x: the realized classes are the same up to renaming, so
    the cost of analyzing it is too."""
    sets = read_points(item["partition"])
    sets = [sets[i] for i in rng.sample(range(len(sets)), len(sets))]
    if rng.random() < 0.5:
        sets = [[(1 - x, y) for x, y in reversed(pts)] for pts in sets]
    expect = dict(item["expect"])
    if "leaves" in expect:
        expect["leaves"] = realized_leaves(sets)
    return {"partition": partition_json(sets), "expect": expect}


#: The continuous partitions are drawn from this fixed stream and the seed
#: picks a variant of each.  Their cost varies by tens of percent between
#: draws of one size, and that would make p50 and p90 depend on the seed.
_SHAPES = "analyze-shapes"


def analyze_round(rng: random.Random, root: str) -> list[dict]:
    groups = [[_analyze_item("data", d) for d in data_partitions(root) * 8]]
    pools = {n: L.ruspini_leaves(n) for n in (3, 4)}
    shapes = random.Random(_SHAPES)
    for cat, build, n, lo, hi, count, shape in _ANALYZE_STRATA:
        sizes = spread(lo, hi, count)
        if build is step_partition:
            items = [build(rng, n, k, pools[n]) for k in sizes]
        elif shape:
            items = [variant(rng, shaped(build, shapes, n, k)) for k in sizes]
        else:
            items = [variant(rng, build(shapes, n, k)) for k in sizes]
        groups.append([_analyze_item(cat, item) for item in items])
    return interleave(groups)


# ---------------------------------------------------------------- cli

WORK_DIR = os.path.join(".perfbench", "work")
_FOREST_KINDS = ("fn", "rn", "tn", "fnt")


def _cli(cat: str, argv: list[str], expect: dict, files: dict | None = None) -> dict:
    return {"kind": "cli", "cat": cat, "argv": argv, "expect": expect, "files": files or {}}


def _forest_request(rng: random.Random, n: int, kind: str, fmt: str) -> dict:
    argv = ["forest", "--n", str(n), "--kind", kind, "--format", fmt]
    t = None
    if kind == "fnt":
        t = rng.randint(2, 5)
        argv += ["--t", str(t)]
    nodes, trees = L.forest_size(n, kind, t)
    return _cli(f"forest{n}", argv, {"check": "forest", "format": fmt, "n": n,
                                     "nodes": nodes, "trees": trees})


def _partition_file(rng: random.Random, k: int, data: list[dict]) -> tuple[str, dict, dict]:
    """A small partition for the file-reading subcommands."""
    choice = k % 4
    if choice == 0:
        item = data[k // 4 % len(data)]
    elif choice == 1:
        item = ruspini_partition(rng, rng.randint(2, 3), rng.randint(4, 12))
    elif choice == 2:
        item = free_partition(rng, 2, rng.randint(4, 12))
    else:
        item = step_partition(rng, 3, rng.randint(3, 8))
    path = os.path.join(WORK_DIR, f"p{k}.json")
    return path, item, {path: json.dumps(item["partition"], indent=1) + "\n"}


def _classify_values(rng: random.Random) -> list[Fraction]:
    n = rng.randint(1, 6)
    return [Fraction(rng.choice((0, 1, 1, 2, 3, 4, 5, 6, 7, 7)), 7) for _ in range(n)]


def cli_round(rng: random.Random, root: str) -> list[dict]:
    data = data_partitions(root)
    forests = []
    for n, count in ((3, 12), (4, 12), (5, 16)):
        for k in range(count):
            forests.append(_forest_request(rng, n, _FOREST_KINDS[k % 4],
                                           ("json", "dot")[k // 4 % 2]))
    # n = 6 is the costly tail, the same three requests for every seed and
    # in this order: the 5.7 MB Ruspini forest (the largest child process),
    # the full forest as DOT, then the small two-overlap forest.  A run that
    # covers most of a round therefore always meets the first two.
    forests6 = [_forest_request(rng, 6, "rn", "json"), _forest_request(rng, 6, "fn", "dot"),
                _forest_request(rng, 6, "tn", "json")]

    files = []
    for k in range(34):
        path, item, content = _partition_file(rng, k, data)
        if k < 12:
            files.append(_cli("analyze", ["analyze", path],
                              dict(item["expect"], check="analyze-text"), content))
        elif k < 24:
            files.append(_cli("analyze", ["analyze", path, "--json"],
                              dict(item["expect"], check="analyze-json"), content))
        else:
            expect = {"check": "axiom", "partition": item["partition"],
                      "leaf_columns": item.get("leaf_columns")}
            files.append(_cli("axiomatize", ["axiomatize", path], expect, content))

    synth = []
    for k, m in enumerate(spread(2, 12, 8)):
        n = (2, 3, 4)[k % 3]
        leaves = rng.sample(L.ruspini_leaves(n), min(m, len(L.ruspini_leaves(n))))
        src = os.path.join(WORK_DIR, f"l{k}.json")
        out = os.path.join(WORK_DIR, f"s{k}.json")
        blocks = [_class_json(col) for col in leaves]
        synth.append(_cli(
            "synthesize", ["synthesize", src, "--n", str(n), "-o", out],
            {"check": "synthesize", "n": n, "out": out,
             "leaves": sorted(L.chain_label(col) for col in leaves)},
            {src: json.dumps(blocks) + "\n"},
        ))

    stock = [_stock_request(rng, kind, n) for kind in ("rho", "tau") for n in range(2, 9)]

    decisions = []
    kinds = ("prelinearity", "refuted", "weakening", "expansion")
    for k, n in enumerate([2] * 8 + [3] * 10 + [4] * 8 + [5] * 10 + [6] * 2):
        kind = kinds[k % len(kinds)]
        logic = rng.choice(_LOGICS)
        q = decide_query(rng, kind, n, rng.randint(8, 40 if n <= 3 else 16), logic)
        argv = [q["op"], "--n", str(n), "--logic", logic]
        if q["op"] == "equiv":
            line = "equivalent"
        else:
            line = "tautology" if q["expect"] else "not a tautology"
            if logic != "ginf" and k % 3 == 0:
                argv.append("--oracle")
        decisions.append(_cli(q["op"], argv + q["formulas"], {"check": "line", "line": line}))

    classify = []
    for _ in range(24):
        values = _classify_values(rng)
        classify.append(_cli(
            "classify", ["classify", "--values", ",".join(str(v) for v in values)],
            {"check": "classify", "label": L.chain_label(tuple(values)),
             "json": _class_json(values)}))

    counts = []
    for k in range(24):
        kind = ("leaves", "weak-ruspini", "overlap2")[k % 3]
        n = {"leaves": rng.randint(1, 60), "weak-ruspini": rng.randint(1, 6),
             "overlap2": rng.randint(1, 40)}[kind]
        value = {"leaves": L.count_leaves, "weak-ruspini": L.count_weak_ruspini,
                 "overlap2": L.count_overlap2}[kind](n)
        counts.append(_cli("count", ["count", "--n", str(n), "--kind", kind],
                           {"check": "line", "line": str(value)}))

    return interleave([forests6, forests, files, synth, stock, decisions, classify, counts],
                      keep=(0,))


def random_leaf_column(rng: random.Random, n: int, positive: int) -> list[Fraction]:
    """Values of a seeded Ruspini-forest chain leaf with `positive` variables
    above 0 (none at 1), summing to 1."""
    order = rng.sample(range(1, n + 1), positive)
    cuts = sorted(rng.sample(range(1, positive), rng.randint(0, positive - 1)))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [positive])]
    weight = sum(idx * len(b) for idx, b in enumerate(blocks, start=1))
    values = [Fraction(0)] * n
    for idx, block in enumerate(blocks, start=1):
        for v in block:
            values[v - 1] = Fraction(idx, weight)
    return values


def _stock_request(rng: random.Random, kind: str, n: int) -> dict:
    """`axioms --kind rho|tau`: the axiom must be 1 on the `one` columns and
    below 1 on the `below` columns."""
    half = Fraction(1, 2)
    if kind == "rho":  # value 1 exactly on the Ruspini forest
        one = [[Fraction(int(k == i)) for k in range(n)] for i in range(n)]
        one += [random_leaf_column(rng, n, rng.randint(2, n)) for _ in range(12)]
        below = [[Fraction(0)] * n]
        below += [[half if k == i else Fraction(0) for k in range(n)] for i in range(n)]
    else:  # value 1 exactly where at most two variables are positive
        one = [random_leaf_column(rng, n, rng.randint(1, min(2, n))) for _ in range(12)]
        below = [random_leaf_column(rng, n, rng.randint(3, n)) for _ in range(12 if n >= 3 else 0)]
    return _cli("axioms", ["axioms", "--kind", kind, "--n", str(n)],
                {"check": "stock", "one": [[str(v) for v in c] for c in one],
                 "below": [[str(v) for v in c] for c in below]})


def _class_json(values) -> dict:
    zero = [i for i, v in enumerate(values, 1) if v == 0]
    one = [i for i, v in enumerate(values, 1) if v == 1]
    levels = sorted({v for v in values if 0 < v < 1})
    mid = [[i for i, v in enumerate(values, 1) if v == lv] for lv in levels]
    return {"zero": zero, "mid": mid, "one": one}


# ---------------------------------------------------------------- dispatch


def generate(workload: str, seed: int, root: str = ".") -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze":
        return analyze_round(rng, root)
    if workload == "decide":
        return decide_round(rng)
    if workload == "cli":
        return cli_round(rng, root)
    raise ValueError(f"unknown workload {workload!r}")
