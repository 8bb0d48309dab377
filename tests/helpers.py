"""Shared test utilities: builders, random generators, brute-force oracles,
the class-building forest the mask-built forest is tested against, the
per-node references the bitmask forest kernel is tested against, the
class predicates the forest's region masks are tested against, the
per-assignment reference the packed grid oracle is tested against, the
node-by-node evaluator the formula programs are tested against, the
recursive scanner, parser and printer the formula front end is tested
against, and the frozen dataclasses the package's records (classes,
subforests, partitions, formulas, logics and reports) are tested
against."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Optional

from godelforest import (
    AnalysisReport,
    And,
    AssignmentClass,
    Bot,
    Forest,
    Formula,
    Iff,
    Implies,
    Lhd,
    Logic,
    Not,
    Or,
    ParseError,
    Partition,
    PiecewiseLinearFuzzySet,
    Subforest,
    Top,
    Var,
    as_fraction,
    class_key,
    class_of_values,
    conjunction,
    disjunction,
    downset,
    enumerate_forest,
    eval_formula,
    formula_forest,
    is_ruspini_leaf,
    leq,
    ruspini_subforest,
)
from godelforest.classes import _class


def fr(v) -> Fraction:
    return Fraction(v)


def cls(n, zero=(), mid=(), one=()) -> AssignmentClass:
    return AssignmentClass(n, tuple(zero), tuple(tuple(b) for b in mid), tuple(one))


def _relation_string(sorted_values) -> tuple[str, ...]:
    anchored = [Fraction(0)] + list(sorted_values) + [Fraction(1)]
    return tuple("=" if a == b else "<" for a, b in itertools.pairwise(anchored))


@cache
def _sorting_permutations(c: AssignmentClass) -> dict[tuple[int, ...], tuple[str, ...]]:
    """The permutations that sort c's witness, each with the relation string
    of the sorted witness."""
    values = c.representative()
    found = {}
    for sigma in itertools.permutations(range(1, c.n + 1)):
        s = [values[i - 1] for i in sigma]
        if not any(x > y for x, y in itertools.pairwise(s)):
            found[sigma] = _relation_string(s)
    return found


def literal_leq(a: AssignmentClass, b: AssignmentClass) -> bool:
    """Order test transcribed directly from the relation-string definition:
    some permutation sorts witnesses of both classes, the relation strings
    agree up to a cut index, and above the cut the lower class has only
    equalities."""
    n = a.n
    sorting_a = _sorting_permutations(a)
    for sigma, rb in _sorting_permutations(b).items():
        ra = sorting_a.get(sigma)
        if ra is None:
            continue
        for k in range(n + 1):
            if ra[: k + 1] == rb[: k + 1] and all(r == "=" for r in ra[k + 1 :]):
                return True
    return False


_BINARY = {"and": And, "or": Or, "implies": Implies, "iff": Iff, "lhd": Lhd}


def random_formula(rng: random.Random, n: int, depth: int) -> Formula:
    """Random formula over X1..Xn; at n = 0, over the constants alone."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.08 or not n and r < 0.58:
            return Bot()
        if r < 0.16 or not n:
            return Top()
        return Var(rng.randint(1, n))
    kind = rng.choice(("not", "and", "or", "implies", "iff", "lhd"))
    if kind == "not":
        return Not(random_formula(rng, n, depth - 1))
    node = _BINARY[kind]
    return node(random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))


def random_dag(rng: random.Random, n: int, size: int) -> Formula:
    """Random formula over X1..Xn whose node objects are shared: each of
    `size` new nodes takes its operands from the nodes made before it.  The
    result joins the last two nodes, so at least those are reachable."""
    pool: list[Formula] = [Var(i) for i in range(1, n + 1)] + [Bot(), Top()]
    for _ in range(size):
        kind = rng.choice(("not", "and", "or", "implies", "iff", "lhd"))
        if kind == "not":
            pool.append(Not(rng.choice(pool[-6:])))
        else:
            pool.append(_BINARY[kind](rng.choice(pool[-6:]), rng.choice(pool)))
    return Implies(pool[-2], pool[-1])


def random_witness(rng: random.Random, c: AssignmentClass) -> tuple[Fraction, ...]:
    """Random assignment belonging to the class c."""
    denom = 64
    interior = sorted(rng.sample(range(1, denom), len(c.mid)))
    values = [Fraction(0)] * c.n
    for v in c.one:
        values[v - 1] = Fraction(1)
    for level, block in zip(interior, c.mid):
        for v in block:
            values[v - 1] = Fraction(level, denom)
    return tuple(values)


def random_subforest(rng: random.Random, forest: Forest) -> Subforest:
    nodes = reference_forest(forest.n).nodes
    count = rng.randint(0, max(1, len(nodes) // 3))
    seeds = rng.sample(nodes, count)
    return downset(forest, seeds)


def random_ruspini_subforest(rng: random.Random, forest: Forest) -> Subforest:
    leaves = ruspini_subforest(forest).leaves()
    count = rng.randint(1, len(leaves))
    return downset(forest, rng.sample(leaves, count))


def random_partition(rng: random.Random, n: int) -> Partition:
    """n sets with up to three inner breakpoints on a grid of sixths, some of
    them jumps, and values in quarters: mostly neither Ruspini nor
    two-overlapping, with crossings inside pieces."""
    sets = []
    for i in range(1, n + 1):
        inner = sorted(rng.sample(range(1, 6), rng.randint(0, 3)))
        xs = [0] + [x for x in inner for _ in range(rng.choice((1, 1, 2)))] + [6]
        points = tuple((Fraction(x, 6), Fraction(rng.randint(0, 4), 4)) for x in xs)
        sets.append(PiecewiseLinearFuzzySet(f"f{i}", points))
    return Partition(tuple(sets))


def random_exact_partition(rng: random.Random, n: int) -> Partition:
    """n sets summing to exactly 1 everywhere: at each abscissa of a random
    grid of sixths (some of them jumps) the values are quarters that add up
    to 1, joined linearly."""
    inner = sorted(rng.sample(range(1, 6), rng.randint(0, 3)))
    xs = [0] + [x for x in inner for _ in range(rng.choice((1, 1, 2)))] + [6]
    columns = []
    for _ in xs:
        cuts = sorted(rng.randint(0, 4) for _ in range(n - 1))
        columns.append([b - a for a, b in itertools.pairwise([0, *cuts, 4])])
    return Partition(tuple(
        PiecewiseLinearFuzzySet(f"f{i + 1}", tuple(
            (Fraction(x, 6), Fraction(col[i], 4)) for x, col in zip(xs, columns)))
        for i in range(n)
    ))


def breakpoints(f: PiecewiseLinearFuzzySet) -> tuple[Fraction, ...]:
    """Distinct abscissae of f, ascending."""
    return tuple(sorted({x for x, _ in f.points}))


def reference_left_limit(f: PiecewiseLinearFuzzySet, x) -> Fraction:
    """Limit of f from the left at x > 0 (equals `value_at` away from
    jumps), by a scan of f's points from the first."""
    x = fr(x)
    if not 0 < x <= 1:
        raise ValueError(f"left limit needs an abscissa in (0, 1], got {x}")
    for px, py in f.points:
        if px == x:
            return py
        if px > x:
            break
    return f.value_at(x)


def _add_crossing(crit: set[Fraction], a: Fraction, b: Fraction,
                  ya: Fraction, yb: Fraction, ta: Fraction, tb: Fraction) -> None:
    # Solve ya + (yb-ya)s = ta + (tb-ta)s for s in the open cell (0, 1).
    den = (yb - ya) - (tb - ta)
    if den == 0:
        return
    s = (ta - ya) / den
    if 0 < s < 1:
        crit.add(a + s * (b - a))


def reference_critical_points(p: Partition) -> tuple[Fraction, ...]:
    """`critical_points` read per cell: every set's `value_at(a)` and left
    limit at b at each cell [a, b) of the merged breakpoints, each a scan of
    the set's points from the first.  Every set is intersected with 0, with 1
    and with every other set on every cell."""
    grid = sorted({x for f in p.sets for x in breakpoints(f)})
    crit: set[Fraction] = set(grid)
    zero, one = Fraction(0), Fraction(1)
    for a, b in itertools.pairwise(grid):
        ends = [(f.value_at(a), reference_left_limit(f, b)) for f in p.sets]
        for ya, yb in ends:
            _add_crossing(crit, a, b, ya, yb, zero, zero)
            _add_crossing(crit, a, b, ya, yb, one, one)
        for (ya, yb), (ta, tb) in itertools.combinations(ends, 2):
            _add_crossing(crit, a, b, ya, yb, ta, tb)
    return tuple(sorted(crit))


def reference_check_ruspini_exact(p: Partition) -> bool:
    """`check_ruspini_exact` read per breakpoint: the values sum to 1 at each
    breakpoint abscissa and at each left limit, each a scan of every set."""
    xs = sorted({x for f in p.sets for x in breakpoints(f)})
    for x in xs:
        if sum(f.value_at(x) for f in p.sets) != 1:
            return False
        if x > 0 and sum(reference_left_limit(f, x) for f in p.sets) != 1:
            return False
    return True


def triangular_partition(k: int) -> Partition:
    """k >= 2 uniform triangular sets: the i-th peaks at (i - 1)/(k - 1) and
    falls linearly to 0 at its neighbours' peaks."""
    sets = []
    for i in range(k):
        xs = sorted({Fraction(max(0, min(j, k - 1)), k - 1) for j in (0, i - 1, i, i + 1, k - 1)})
        points = tuple((x, max(Fraction(0), 1 - abs(x * (k - 1) - i))) for x in xs)
        sets.append(PiecewiseLinearFuzzySet(f"f{i + 1}", points))
    return Partition(tuple(sets))


def reference_maximal(classes) -> tuple[AssignmentClass, ...]:
    """The classes below no other given class, by comparing every pair
    with `leq`, in `class_key` order."""
    given = set(classes)
    return tuple(sorted(
        (c for c in given if not any(c != d and leq(c, d) for d in given)), key=class_key
    ))


def grid_classes(n: int, t: int) -> frozenset[AssignmentClass]:
    """Classes found by sampling every t-valued assignment; independent of
    the forest enumerator."""
    levels = [Fraction(k, t - 1) for k in range(t)]
    return frozenset(
        class_of_values(values) for values in itertools.product(levels, repeat=n)
    )


def lin_instance(t: int) -> Formula:
    """The t-valued linearity scheme instantiated with X1..Xt."""
    terms: list[Formula] = [Var(1)]
    for j in range(2, t + 1):
        terms.append(Implies(conjunction([Var(i) for i in range(1, j)]), Var(j)))
    return disjunction(terms)


def _reference_postorder(f: Formula) -> list[Formula]:
    """The distinct node objects of f, each after its children."""
    order: list[Formula] = []
    done: set[int] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if expanded:
            done.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, Not):
            stack.append((node.child, False))
        elif isinstance(node, (And, Or, Implies, Iff, Lhd)):
            stack += ((node.right, False), (node.left, False))
        elif not isinstance(node, (Var, Bot, Top)):
            raise TypeError(f"not a formula: {node!r}")
    return order


def _reference_residuum(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(1) if a <= b else b


def reference_eval_formula(f: Formula, values) -> Fraction:
    """Value of f when Xi takes values[i-1], node by node over its own
    post-order walk, with each connective written out."""
    value: dict[int, Fraction] = {}
    for node in _reference_postorder(f):
        kind = type(node)
        if kind is Var:
            if node.index > len(values):
                raise ValueError(
                    f"formula uses X{node.index} but the assignment has {len(values)} values"
                )
            v = values[node.index - 1]
        elif kind is Bot:
            v = Fraction(0)
        elif kind is Top:
            v = Fraction(1)
        elif kind is Not:
            v = _reference_residuum(value[id(node.child)], Fraction(0))
        else:
            a, b = value[id(node.left)], value[id(node.right)]
            if kind is And:
                v = min(a, b)
            elif kind is Or:
                v = max(a, b)
            elif kind is Implies:
                v = _reference_residuum(a, b)
            elif kind is Iff:
                v = min(_reference_residuum(a, b), _reference_residuum(b, a))
            else:
                v = _reference_residuum(_reference_residuum(b, a), b)
        value[id(node)] = v
    return value[id(f)]


def reference_formula_forest(f: Formula, forest: Forest) -> frozenset[AssignmentClass]:
    """Value-1 set of f, found by evaluating f on each class's canonical
    witness (value-1 status is class-invariant)."""
    return frozenset(
        c
        for c in reference_forest(forest.n).nodes
        if reference_eval_formula(f, c.representative()) == 1
    )


def reference_implies(a: Subforest, b: Subforest) -> frozenset[AssignmentClass]:
    """Residuum by its definition: the classes whose downward chain meets a
    only inside b."""
    am, bm = a.members, b.members
    return frozenset(
        q
        for q in reference_forest(a.forest.n).nodes
        if all(c not in am or c in bm for c in downward_chain(q))
    )


def downward_chain(c: AssignmentClass):
    """c, its parent, and so on down to its root."""
    while c is not None:
        yield c
        c = c.parent()


@cache
def _reference_lex_subsets(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonempty subsets of a sorted tuple in lexicographic order."""
    return sorted(
        s for k in range(1, len(items) + 1) for s in itertools.combinations(items, k)
    )


def _reference_mask(flags) -> int:
    """Bitmask with bit i set where flags[i] is true."""
    return int("".join("1" if f else "0" for f in reversed(flags)), 2)


class ReferenceForest:
    """The class-building forest the mask-built `Forest` replaced: every
    class in `class_key` preorder, with per-node arrays (parent id, or -1
    for a root; subtree end; depth) and the masks derived from them by loops
    over the nodes."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.nodes: list[AssignmentClass] = []
        self.parent: list[int] = []
        self.end: list[int] = []
        self.depth: list[int] = []

        def grow(zero: tuple, mid: tuple, one: tuple, up: int) -> None:
            i = len(self.nodes)
            self.nodes.append(_class(n, zero, mid, one))
            self.parent.append(up)
            self.end.append(0)
            self.depth.append(len(mid) + 1)
            for block in _reference_lex_subsets(one):
                grow(zero, mid + (block,), tuple(x for x in one if x not in block), i)
            self.end[i] = len(self.nodes)

        universe = tuple(range(1, n + 1))
        for zero in ((), *_reference_lex_subsets(universe)):
            grow(zero, (), tuple(x for x in universe if x not in zero), -1)
        size = len(self.nodes)
        self.full = (1 << size) - 1
        levels = [bytearray(size) for _ in range(n + 2)]
        for i, d in enumerate(self.depth):
            levels[d][i] = 1
        self._levels = tuple(_reference_mask(flags) for flags in levels)
        generators = [bytearray(size) for _ in range(n)]
        for i, c in enumerate(self.nodes):
            for v in c.one:
                generators[v - 1][i] = 1
        self.generators = tuple(_reference_mask(flags) for flags in generators)
        self.ruspini = _reference_mask([reference_in_ruspini_forest(c) for c in self.nodes])
        self.two_overlap = _reference_mask(
            [reference_in_two_overlap_forest(c) for c in self.nodes]
        )

    @cached_property
    def children(self) -> dict[AssignmentClass, tuple[AssignmentClass, ...]]:
        kids: dict[AssignmentClass, list[AssignmentClass]] = {c: [] for c in self.nodes}
        for c, p in zip(self.nodes, self.parent):
            if p >= 0:
                kids[self.nodes[p]].append(c)
        return {c: tuple(k) for c, k in kids.items()}

    @cached_property
    def roots(self) -> tuple[AssignmentClass, ...]:
        return tuple(c for c, p in zip(self.nodes, self.parent) if p < 0)


@lru_cache(maxsize=None)
def reference_forest(n: int) -> ReferenceForest:
    return ReferenceForest(n)


def reference_in_ruspini_forest(c: AssignmentClass) -> bool:
    """Membership in the forest left after removing the all-zero class and
    the classes with a single variable in (0, 1) and the rest at 0."""
    if not c.mid:
        return len(c.zero) != c.n
    lonely = (
        len(c.zero) == c.n - 1
        and len(c.mid) == 1
        and len(c.mid[0]) == 1
        and not c.one
    )
    return not lonely


def reference_in_two_overlap_forest(c: AssignmentClass) -> bool:
    """At most two variables strictly positive (trees of height <= 3)."""
    return c.positive_count <= 2


def reference_is_ruspini_subforest(sub: Subforest) -> bool:
    """Nonempty, inside the Ruspini forest, with every maximal element a
    maximal element of the Ruspini forest."""
    if not sub.mask:
        return False
    if not all(reference_in_ruspini_forest(c) for c in sub.members):
        return False
    return all(is_ruspini_leaf(c) for c in sub.leaves())


def walked(forest: Forest, mask: int) -> tuple[list[AssignmentClass], list[Optional[int]]]:
    """The classes of the members `forest.walk(mask)` yields, in its order,
    and each one's parent's position (None for a root)."""
    classes, parents = [], []
    for _, up, zero, mid, one in forest.walk(mask):
        classes.append(_class(forest.n, zero, mid, one))
        parents.append(up)
    return classes, parents


def reference_subforest_to_dot(sub: Subforest) -> str:
    """The DOT export as it was, from the walk's classes and each one's own
    `chain_string()`."""
    members, parents = walked(sub.forest, sub.mask)
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


def _reference_region(forest: Forest, logic: Logic) -> int:
    """Mask of the classes a logic's verdicts range over."""
    return forest.full if logic.t is None else forest.truncation(logic.t)


def reference_proves_equiv(a: Formula, b: Formula, n: int, logic: Logic) -> bool:
    """Provable equivalence decided on its own: the value-1 masks of a and b
    agree on the logic's region (at n = 0, a <-> b evaluates to 1)."""
    if n == 0:
        return eval_formula(Iff(a, b), ()) == 1
    forest = enumerate_forest(n)
    fa, fb = formula_forest(a, forest), formula_forest(b, forest)
    return not (fa.mask ^ fb.mask) & _reference_region(forest, logic)


def reference_proves_implies(a: Formula, b: Formula, n: int, logic: Logic) -> bool:
    """Provable implication decided on its own: a's value-1 mask lies in b's
    on the logic's region (at n = 0, a -> b evaluates to 1)."""
    if n == 0:
        return eval_formula(Implies(a, b), ()) == 1
    forest = enumerate_forest(n)
    fa, fb = formula_forest(a, forest), formula_forest(b, forest)
    return not fa.mask & ~fb.mask & _reference_region(forest, logic)


def reference_grid_oracle(f: Formula, n: int, t: int) -> bool:
    """Tautology over the t-valued grid by evaluating f at each of the t**n
    assignments in turn, with exact rationals."""
    levels = [Fraction(k, t - 1) for k in range(t)]
    return all(
        reference_eval_formula(f, values) == 1
        for values in itertools.product(levels, repeat=n)
    )


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty classes."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def reference_ordered_bell(n: int) -> int:
    """Ordered partitions of an n-set, summed over the number k of blocks:
    k! orderings of each of the S(n, k) partitions into k blocks."""
    return sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1))


def expand_derived(f: Formula) -> Formula:
    """Rewrite <-> and <| into the primitive connectives, recursively."""
    match f:
        case Var() | Bot() | Top():
            return f
        case Not(child=c):
            return Not(expand_derived(c))
        case And(left=l, right=r):
            return And(expand_derived(l), expand_derived(r))
        case Or(left=l, right=r):
            return Or(expand_derived(l), expand_derived(r))
        case Implies(left=l, right=r):
            return Implies(expand_derived(l), expand_derived(r))
        case Iff(left=l, right=r):
            l, r = expand_derived(l), expand_derived(r)
            return And(Implies(l, r), Implies(r, l))
        case Lhd(left=l, right=r):
            l, r = expand_derived(l), expand_derived(r)
            return Implies(Implies(r, l), r)
    raise TypeError(f"not a formula: {f!r}")


# The recursive scanner, parser and printer, the references for
# parse_formula and format_formula; deep input exhausts their recursion.


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    pos: int
    index: int = 0


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "X":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'X'", i)
            index = int(text[i + 1 : j])
            if index == 0:
                raise ParseError("variable index 0 is not allowed", i)
            tokens.append(_Token("var", i, index))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "bot":
                tokens.append(_Token("zero", i))
            elif word == "top":
                tokens.append(_Token("one", i))
            else:
                raise ParseError(f"unknown word {word!r}", i)
            i = j
            continue
        if ch == "0":
            tokens.append(_Token("zero", i))
            i += 1
            continue
        if ch == "1":
            tokens.append(_Token("one", i))
            i += 1
            continue
        if ch == "~":
            tokens.append(_Token("not", i))
            i += 1
            continue
        if ch == "&":
            tokens.append(_Token("and", i))
            i += 1
            continue
        if ch == "|":
            tokens.append(_Token("or", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", i))
            i += 1
            continue
        if ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(_Token("implies", i))
                i += 2
                continue
            raise ParseError("expected '->'", i)
        if ch == "<":
            if text[i : i + 3] == "<->":
                tokens.append(_Token("iff", i))
                i += 3
                continue
            if text[i : i + 2] == "<|":
                tokens.append(_Token("lhd", i))
                i += 2
                continue
            raise ParseError("expected '<->' or '<|'", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", n))
    return tokens


_ARROWS = {"implies": Implies, "iff": Iff, "lhd": Lhd}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.arrow()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos)
        return f

    def arrow(self) -> Formula:
        items = [self.disjunction()]
        ops: list[_Token] = []
        while self.peek().kind in _ARROWS:
            ops.append(self.advance())
            items.append(self.disjunction())
        if not ops:
            return items[0]
        for tok in ops[1:]:
            if tok.kind != ops[0].kind:
                raise ParseError(
                    "mixing '->', '<->', '<|' in one chain requires parentheses",
                    tok.pos,
                )
        node = _ARROWS[ops[0].kind]
        result = items[-1]
        for item in reversed(items[:-1]):
            result = node(item, result)
        return result

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "or":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "and":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        negations = 0
        while self.peek().kind == "not":
            self.advance()
            negations += 1
        f = self.atom()
        for _ in range(negations):
            f = Not(f)
        return f

    def atom(self) -> Formula:
        tok = self.advance()
        if tok.kind == "var":
            return Var(tok.index)
        if tok.kind == "zero":
            return Bot()
        if tok.kind == "one":
            return Top()
        if tok.kind == "lparen":
            f = self.arrow()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            return f
        raise ParseError("expected a variable, constant, '~' or '('", tok.pos)


def reference_parse_formula(text: str) -> Formula:
    """Parse formula text.

    Variables are X1, X2, ...; constants 0/bot and 1/top.  ~ binds tightest,
    then &, then |, then the arrows ->, <->, <| at equal precedence.  Arrows
    associate to the right and may not be mixed in one chain without
    parentheses.
    """
    return _Parser(_tokenize(text)).parse()


def _prec(f: Formula) -> int:
    match f:
        case Var() | Bot() | Top():
            return 5
        case Not():
            return 4
        case And():
            return 3
        case Or():
            return 2
    return 1


_ARROW_SYMBOL = {Implies: "->", Iff: "<->", Lhd: "<|"}


def reference_format_formula(f: Formula) -> str:
    """Render f with minimal parentheses; parse_formula inverts it exactly."""

    def wrap(child: Formula, needed: bool) -> str:
        s = reference_format_formula(child)
        return f"({s})" if needed else s

    match f:
        case Var(index=i):
            return f"X{i}"
        case Bot():
            return "0"
        case Top():
            return "1"
        case Not(child=c):
            return "~" + wrap(c, _prec(c) < 4)
        case And(left=l, right=r):
            return wrap(l, _prec(l) < 3) + " & " + wrap(r, _prec(r) <= 3)
        case Or(left=l, right=r):
            return wrap(l, _prec(l) < 2) + " | " + wrap(r, _prec(r) <= 2)
        case Implies() | Iff() | Lhd():
            sym = _ARROW_SYMBOL[type(f)]
            left_s = wrap(f.left, _prec(f.left) <= 1)
            right_s = wrap(
                f.right, _prec(f.right) <= 1 and type(f.right) is not type(f)
            )
            return f"{left_s} {sym} {right_s}"
    raise TypeError(f"not a formula: {f!r}")


# The frozen dataclasses that the records were, with their validation, the
# reference for the records' equality, hashing, repr, pattern matching,
# immutability and messages.  Each prints under the name of the class it
# stands for.


@dataclass(frozen=True, slots=True)
class ReferenceAssignmentClass:
    n: int
    zero: tuple[int, ...]
    mid: tuple[tuple[int, ...], ...]
    one: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a class needs at least one variable")
        seen: set[int] = set()
        for block in (self.zero, *self.mid, self.one):
            for v in block:
                if type(v) is not int:  # bool too: JSON true is not X1
                    raise ValueError(f"variable index {v!r} is not an integer")
                if not 1 <= v <= self.n:
                    raise ValueError(f"variable index {v} out of range 1..{self.n}")
                if v in seen:
                    raise ValueError(f"variable index {v} appears in two blocks")
                seen.add(v)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"blocks do not cover variables {missing}")
        if any(not b for b in self.mid):
            raise ValueError("mid blocks must be nonempty")
        object.__setattr__(self, "zero", tuple(sorted(self.zero)))
        object.__setattr__(self, "mid", tuple(tuple(sorted(b)) for b in self.mid))
        object.__setattr__(self, "one", tuple(sorted(self.one)))


@dataclass(frozen=True, slots=True, init=False)
class ReferenceSubforest:
    forest: Forest
    mask: int

    def __repr__(self) -> str:
        return f"Subforest(n={self.forest.n}, members={self.mask.bit_count()})"


@dataclass(frozen=True)
class ReferencePiecewiseLinearFuzzySet:
    name: str
    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError(f"set {self.name!r}: needs at least two points")
        for k, (x, y) in enumerate(pts):
            if not 0 <= x <= 1:
                raise ValueError(f"set {self.name!r}, point {k}: abscissa {x} outside [0, 1]")
            if not 0 <= y <= 1:
                raise ValueError(f"set {self.name!r}, point {k}: value {y} outside [0, 1]")
        if pts[0][0] != 0:
            raise ValueError(f"set {self.name!r}, point 0: first abscissa must be 0")
        if pts[-1][0] != 1:
            raise ValueError(f"set {self.name!r}, point {len(pts) - 1}: last abscissa must be 1")
        for k in range(1, len(pts)):
            if pts[k][0] < pts[k - 1][0]:
                raise ValueError(
                    f"set {self.name!r}, point {k}: abscissae must be nondecreasing"
                )
        counts: dict[Fraction, int] = {}
        for x, _ in pts:
            counts[x] = counts.get(x, 0) + 1
        for k, (x, _) in enumerate(pts):
            if counts[x] > 2:
                raise ValueError(
                    f"set {self.name!r}, point {k}: abscissa {x} appears more than twice"
                )


@dataclass(frozen=True)
class ReferencePartition:
    sets: tuple[ReferencePiecewiseLinearFuzzySet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("a partition needs at least one fuzzy set")


@dataclass(frozen=True, slots=True)
class ReferenceVar:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be at least 1, got {self.index}")


# The other formula kinds declared nothing but their fields.
ReferenceBot, ReferenceTop = (
    make_dataclass(name, [], frozen=True, slots=True) for name in ("Bot", "Top")
)
ReferenceNot = make_dataclass("Not", [("child", Formula)], frozen=True, slots=True)
ReferenceAnd, ReferenceOr, ReferenceImplies, ReferenceIff, ReferenceLhd = (
    make_dataclass(name, [("left", Formula), ("right", Formula)], frozen=True, slots=True)
    for name in ("And", "Or", "Implies", "Iff", "Lhd")
)


@dataclass(frozen=True)
class ReferenceLogic:
    t: Optional[int] = None

    def __post_init__(self) -> None:
        if self.t is not None and self.t < 2:
            raise ValueError(f"a finite-valued logic needs t >= 2, got {self.t}")


@dataclass(frozen=True)
class ReferenceAnalysisReport:
    n: int
    realized_leaves: tuple[AssignmentClass, ...]
    is_exact_ruspini: bool
    is_weak_ruspini: bool
    is_2_overlapping: bool
    axiom: Formula
    ruspini_checks: tuple[bool, bool, bool]
    overlap_checks: tuple[bool, bool, bool]
    combined_checks: tuple[bool, bool, bool]


#: record class -> the dataclass it is tested against
REFERENCE_RECORDS = {
    AssignmentClass: ReferenceAssignmentClass,
    Subforest: ReferenceSubforest,
    PiecewiseLinearFuzzySet: ReferencePiecewiseLinearFuzzySet,
    Partition: ReferencePartition,
    Var: ReferenceVar,
    Bot: ReferenceBot,
    Top: ReferenceTop,
    Not: ReferenceNot,
    And: ReferenceAnd,
    Or: ReferenceOr,
    Implies: ReferenceImplies,
    Iff: ReferenceIff,
    Lhd: ReferenceLhd,
    Logic: ReferenceLogic,
    AnalysisReport: ReferenceAnalysisReport,
}
for _record, _reference in REFERENCE_RECORDS.items():
    _reference.__qualname__ = _record.__qualname__


def reference_record(record):
    """The dataclass instance holding the same field values as the record.
    Records among the values, also inside tuples, become references too:
    a partition's sets, a formula's subformulas, a report's classes and
    axiom."""
    ref = object.__new__(REFERENCE_RECORDS[type(record)])
    for name in ref.__match_args__:
        object.__setattr__(ref, name, reference_value(getattr(record, name)))
    return ref


def reference_value(value):
    """A field value with every record in it replaced by its reference."""
    if type(value) in REFERENCE_RECORDS:
        return reference_record(value)
    if type(value) is tuple:
        return tuple(map(reference_value, value))
    return value
