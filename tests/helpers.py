"""Shared test utilities: builders, random generators, brute-force oracles,
the per-node references the bitmask forest kernel is tested against, and the
per-assignment reference the packed grid oracle is tested against."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from godelforest import (
    And,
    AssignmentClass,
    Bot,
    Forest,
    Formula,
    Iff,
    Implies,
    Lhd,
    Not,
    Or,
    Subforest,
    Top,
    Var,
    class_of_values,
    conjunction,
    disjunction,
    downset,
    eval_formula,
    ruspini_subforest,
)


def fr(v) -> Fraction:
    return Fraction(v)


def cls(n, zero=(), mid=(), one=()) -> AssignmentClass:
    return AssignmentClass(n, tuple(zero), tuple(tuple(b) for b in mid), tuple(one))


def _relation_string(sorted_values) -> tuple[str, ...]:
    anchored = [Fraction(0)] + list(sorted_values) + [Fraction(1)]
    return tuple("=" if a == b else "<" for a, b in itertools.pairwise(anchored))


def literal_leq(a: AssignmentClass, b: AssignmentClass) -> bool:
    """Order test transcribed directly from the relation-string definition:
    some permutation sorts witnesses of both classes, the relation strings
    agree up to a cut index, and above the cut the lower class has only
    equalities."""
    va, vb = a.representative(), b.representative()
    n = a.n
    for sigma in itertools.permutations(range(1, n + 1)):
        sb = [vb[i - 1] for i in sigma]
        if any(x > y for x, y in itertools.pairwise(sb)):
            continue
        sa = [va[i - 1] for i in sigma]
        if any(x > y for x, y in itertools.pairwise(sa)):
            continue
        ra, rb = _relation_string(sa), _relation_string(sb)
        for k in range(n + 1):
            if ra[: k + 1] == rb[: k + 1] and all(r == "=" for r in ra[k + 1 :]):
                return True
    return False


_BINARY = {"and": And, "or": Or, "implies": Implies, "iff": Iff, "lhd": Lhd}


def random_formula(rng: random.Random, n: int, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.08:
            return Bot()
        if r < 0.16:
            return Top()
        return Var(rng.randint(1, n))
    kind = rng.choice(("not", "and", "or", "implies", "iff", "lhd"))
    if kind == "not":
        return Not(random_formula(rng, n, depth - 1))
    node = _BINARY[kind]
    return node(random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))


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
    count = rng.randint(0, max(1, len(forest.nodes) // 3))
    seeds = rng.sample(forest.nodes, count)
    return downset(forest, seeds)


def random_ruspini_subforest(rng: random.Random, forest: Forest) -> Subforest:
    leaves = ruspini_subforest(forest).leaves()
    count = rng.randint(1, len(leaves))
    return downset(forest, rng.sample(leaves, count))


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


def reference_formula_forest(f: Formula, forest: Forest) -> frozenset[AssignmentClass]:
    """Value-1 set of f, found by evaluating f on each class's canonical
    witness (value-1 status is class-invariant)."""
    return frozenset(
        c for c in forest.nodes if eval_formula(f, c.representative()) == 1
    )


def reference_implies(a: Subforest, b: Subforest) -> frozenset[AssignmentClass]:
    """Residuum by its definition: the classes whose downward chain meets a
    only inside b."""
    am, bm = a.members, b.members
    return frozenset(
        q
        for q in a.forest.nodes
        if all(c not in am or c in bm for c in q.downward_chain())
    )


def reference_grid_oracle(f: Formula, n: int, t: int) -> bool:
    """Tautology over the t-valued grid by evaluating f at each of the t**n
    assignments in turn, with exact rationals."""
    levels = [Fraction(k, t - 1) for k in range(t)]
    return all(
        eval_formula(f, values) == 1
        for values in itertools.product(levels, repeat=n)
    )
