"""Forest semantics: value-1 sets of formulas and tautology decisions.

A formula over n variables carves out the subforest of classes on whose
witnesses it takes value 1.  Tautology in the infinite-valued logic (at a
stated variable bound) means that subforest is the whole forest; tautology in
the t-valued logic means it covers the height-(t-1) truncation.  A brute-force
grid evaluator over the t-valued truth set serves as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .formulas import (
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Lhd,
    Not,
    Or,
    Top,
    Var,
    arity,
    eval_formula,
)
from .forest import Forest, Subforest, enumerate_forest

#: Assignments the grid oracle is willing to enumerate.
GRID_ORACLE_BUDGET = 10**6


@dataclass(frozen=True)
class Logic:
    """Infinite-valued Goedel logic by default; t-valued when t is set."""

    t: Optional[int] = None

    def __post_init__(self) -> None:
        if self.t is not None and self.t < 2:
            raise ValueError(f"a finite-valued logic needs t >= 2, got {self.t}")

    @classmethod
    def finite(cls, t: int) -> "Logic":
        return cls(t)

    @property
    def is_finite(self) -> bool:
        return self.t is not None

    def __str__(self) -> str:
        return "ginf" if self.t is None else f"g{self.t}"


GINF = Logic()


def parse_logic(text: str) -> Logic:
    """Parse a logic name: "ginf" or "g<t>" with t >= 2."""
    name = text.strip().lower()
    if name == "ginf":
        return GINF
    if name.startswith("g") and name[1:].isdigit():
        return Logic.finite(int(name[1:]))
    raise ValueError(f"unknown logic {text!r}; use 'ginf' or 'g<t>' such as 'g4'")


def formula_forest(f: Formula, forest: Forest) -> Subforest:
    """Subforest of classes where f takes value 1.

    Built compositionally from the generators: meet is `&`, join is `|` and
    implication is the subforest residuum, in one post-order pass over f.
    Shared subformula objects are evaluated once.
    """
    return Subforest._from_mask(forest, _value_one_mask(f, forest))


def _value_one_mask(f: Formula, forest: Forest) -> int:
    full, implies = forest.full, forest.implies
    # Keyed by id(): hashing a frozen dataclass node would recurse into it.
    masks: dict[int, int] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in masks:
            stack.pop()
            continue
        kind = type(node)
        if kind is Var:
            if node.index > forest.n:
                raise ValueError(
                    f"formula uses X{arity(f)} but the forest has {forest.n} variables"
                )
            mask = forest.generators[node.index - 1]
        elif kind is Bot:
            mask = 0
        elif kind is Top:
            mask = full
        elif kind is Not:
            if id(node.child) not in masks:
                stack.append(node.child)
                continue
            mask = full ^ forest.upset(masks[id(node.child)])
        elif kind in (And, Or, Implies, Iff, Lhd):
            pending = [c for c in (node.left, node.right) if id(c) not in masks]
            if pending:
                stack.extend(pending)
                continue
            a, b = masks[id(node.left)], masks[id(node.right)]
            if kind is And:
                mask = a & b
            elif kind is Or:
                mask = a | b
            elif kind is Implies:
                mask = implies(a, b)
            elif kind is Iff:
                mask = implies(a, b) & implies(b, a)
            else:
                mask = implies(implies(b, a), b)
        else:
            raise TypeError(f"not a formula: {node!r}")
        masks[id(node)] = mask
        stack.pop()
    return masks[id(f)]


def _region(forest: Forest, logic: Logic) -> int:
    """Mask of the classes a logic's verdicts range over."""
    return forest.full if logic.t is None else forest.truncation(logic.t)


def is_tautology(f: Formula, n: int, logic: Logic = GINF) -> bool:
    """Decide provability of f, restricted to n variables.

    Infinite-valued: f must take value 1 on every class.  t-valued: f must
    take value 1 on every class of the height-(t-1) truncation.
    """
    if arity(f) > n:
        raise ValueError(f"formula uses X{arity(f)} but n is {n}")
    forest = enumerate_forest(n)
    region = _region(forest, logic)
    return formula_forest(f, forest).mask & region == region


def grid_tautology_oracle(f: Formula, n: int, t: int) -> bool:
    """Exhaustive check of f over all t-valued assignments to X1..Xn.

    Independent of the forest machinery; exists for cross-validation, not
    scale, hence the t**n budget.
    """
    if t < 2:
        raise ValueError(f"a finite-valued logic needs t >= 2, got {t}")
    if arity(f) > n:
        raise ValueError(f"formula uses X{arity(f)} but n is {n}")
    if t**n > GRID_ORACLE_BUDGET:
        raise ValueError(
            f"grid of {t}**{n} assignments exceeds the budget of {GRID_ORACLE_BUDGET}"
        )
    levels = [Fraction(k, t - 1) for k in range(t)]
    return all(
        eval_formula(f, values) == 1
        for values in itertools.product(levels, repeat=n)
    )


def proves_equiv(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable equivalence: the two value-1 subforests coincide on the
    forest relevant to the logic."""
    forest = enumerate_forest(n)
    fa, fb = formula_forest(a, forest), formula_forest(b, forest)
    return not (fa.mask ^ fb.mask) & _region(forest, logic)


def proves_implies(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable implication: value-1 subforest inclusion on the relevant
    forest."""
    forest = enumerate_forest(n)
    fa, fb = formula_forest(a, forest), formula_forest(b, forest)
    return not fa.mask & ~fb.mask & _region(forest, logic)
