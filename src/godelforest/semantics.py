"""Forest semantics: value-1 sets of formulas and tautology decisions.

A formula over n variables carves out the subforest of classes on whose
witnesses it takes value 1.  Tautology in the infinite-valued logic (at a
stated variable bound) means that subforest is the whole forest; tautology in
the t-valued logic means it covers the height-(t-1) truncation.  An
exhaustive evaluation over the t-valued grid, on packed level words and with
no forest code, serves as an independent oracle; its blocks are `grid`'s,
loaded only when the oracle evaluates a grid.  Both evaluations hand
`syntax.run` their own meet, join and residuum; the abbreviations ~, <->
and <| are `run`'s, shared by both and checked against a node-by-node
reference evaluator in the tests.

A t too long for Python's int-to-str conversion (more than
`sys.get_int_max_str_digits()` digits, 4300 by default) gets `records`'
lines: `parse_logic` and `str(Logic(t))` refuse it with `_past_the_limit`'s
sentence, and the other refusals print it with `_shown`.
"""

from __future__ import annotations

from typing import Optional

from .forest import Forest, Subforest, enumerate_forest
from .records import _Record, _digits, _past_the_limit, _shown
from .syntax import And, Formula, Iff, Implies, Or, eval_formula, program, run

#: Assignments the grid oracle is willing to enumerate.
GRID_ORACLE_BUDGET = 10**6


class Logic(_Record):
    """Infinite-valued Goedel logic by default; t-valued when t is set."""

    __slots__ = __match_args__ = ("t",)
    t: Optional[int]

    def __init__(self, t: Optional[int] = None) -> None:
        if t is not None and type(t) is not int:  # bool too: True is not a count
            raise ValueError(f"truth-value count {t!r} is not an integer")
        if t is not None and t < 2:
            raise ValueError(f"a finite-valued logic needs t >= 2, got {_shown(t)}")
        object.__setattr__(self, "t", t)

    @property
    def is_finite(self) -> bool:
        return self.t is not None

    def __str__(self) -> str:
        """The name `parse_logic` reads; a t it would refuse is refused here."""
        if self.t is None:
            return "ginf"
        try:
            return f"g{self.t}"
        except ValueError:  # past the int-to-str limit
            raise ValueError(_past_the_limit(("truth-value count", _digits(self.t)))) from None


GINF = Logic()


def parse_logic(text: str) -> Logic:
    """Parse a logic name: "ginf" or "g<t>" with t >= 2."""
    name = text.strip().lower()
    if name == "ginf":
        return GINF
    if name.startswith("g") and name[1:].isdecimal():
        try:
            t = int(name[1:])
        except ValueError:  # past the int-to-str limit
            raise ValueError(_past_the_limit(("truth-value count", len(name) - 1))) from None
        return Logic(t)
    raise ValueError(f"unknown logic {text!r}; use 'ginf' or 'g<t>' such as 'g4'")


def formula_forest(f: Formula, forest: Forest) -> Subforest:
    """Subforest of classes where f takes value 1.

    Built compositionally from the generators by running program(f) on
    masks, in the algebra whose bottom is the empty mask, top the full one,
    meet `&`, join `|` and implication the subforest residuum; `run` derives
    ~, <-> and <| from these.  Equal subformulas are evaluated once, and
    each mask is dropped after its last use.
    """
    ops = {And: int.__and__, Or: int.__or__, Implies: forest.implies}
    return Subforest._from_mask(forest, run(program(f), forest.generators, 0, forest.full, ops))


def is_tautology(f: Formula, n: int, logic: Logic = GINF) -> bool:
    """Decide provability of f, restricted to n variables.

    Infinite-valued: f must take value 1 on every class.  t-valued: f must
    take value 1 on every class of the height-(t-1) truncation.  This is
    the one decision: `proves_equiv` and `proves_implies` ask it of
    `a <-> b` and `a -> b`.
    """
    if n == 0 and type(n) is int:  # a variable-free formula takes 0 or 1, in every logic
        return eval_formula(f, ()) == 1
    forest = enumerate_forest(n)
    region = forest.full if logic.t is None else forest.truncation(logic.t)
    return formula_forest(f, forest).mask & region == region


def grid_tautology_oracle(f: Formula, n: int, t: int) -> bool:
    """Exhaustive check of f over all t-valued assignments to X1..Xn.

    Independent of the forest machinery; exists for cross-validation, not
    scale, hence the t**n budget.

    Goedel connectives depend only on the order of values, so the value
    k/(t-1) is handled as its level k.  The grid is cut into blocks of at
    most `grid._GRID_BLOCK` points, in itertools.product order, and each
    formula node's levels at all points of a block are packed into one int,
    one field per point (see `grid._GridFrame`).  The first failing block
    ends the check.
    """
    if type(n) is not int or n < 0:  # bool too, as Logic refuses a bool t
        raise ValueError(f"the grid needs an integer n >= 0, got {_shown(n)}")
    Logic(t)  # refuses t < 2 and a t that is not an int
    # t >= 2, so t**n >= 2**n, which is over the budget from its bit length
    # on, and for n >= 1, t**n >= t: such n and t are refused before a power
    # of millions of digits is built.
    budget = GRID_ORACLE_BUDGET
    if n >= budget.bit_length() or (n and t > budget) or t**n > budget:
        raise ValueError(
            f"grid of {_shown(t)}**{_shown(n)} assignments exceeds the budget of {budget}"
        )
    if n == 0:  # a variable-free formula takes 0 or 1, whatever t is
        return eval_formula(f, ()) == 1
    from .grid import _grid_blocks

    steps = program(f)
    return all(
        run(steps, words, 0, frame.top, frame.ops) == frame.top
        for words, frame in _grid_blocks(n, t)
    )


def proves_equiv(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable equivalence: the two value-1 subforests coincide on the
    forest relevant to the logic, that is, `a <-> b` is a tautology there."""
    return is_tautology(Iff(a, b), n, logic)


def proves_implies(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable implication: value-1 subforest inclusion on the relevant
    forest, that is, `a -> b` is a tautology there."""
    return is_tautology(Implies(a, b), n, logic)
