"""Forest semantics: value-1 sets of formulas and tautology decisions.

A formula over n variables carves out the subforest of classes on whose
witnesses it takes value 1.  Tautology in the infinite-valued logic (at a
stated variable bound) means that subforest is the whole forest; tautology in
the t-valued logic means it covers the height-(t-1) truncation.  An
exhaustive evaluation over the t-valued grid, on packed level words and with
no forest code, serves as an independent oracle.  Both evaluations hand
`formulas.run` their own meet, join and residuum; the abbreviations ~, <->
and <| are `run`'s, shared by both and checked against a node-by-node
reference evaluator in the tests.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .formulas import And, Formula, Iff, Implies, Or, eval_formula, program, run
from .forest import Forest, Subforest, enumerate_forest
from .records import _Record

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
            raise ValueError(f"a finite-valued logic needs t >= 2, got {t}")
        object.__setattr__(self, "t", t)

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
    if name.startswith("g") and name[1:].isdecimal():
        return Logic(int(name[1:]))
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
    most _GRID_BLOCK points, in itertools.product order, and each formula
    node's levels at all points of a block are packed into one int, one
    field per point (see _GridFrame).  The first failing block ends the
    check.
    """
    if type(n) is not int or n < 0:  # bool too, as Logic refuses a bool t
        raise ValueError(f"the grid needs an integer n >= 0, got {n!r}")
    Logic(t)  # refuses t < 2 and a t that is not an int
    # t >= 2, so t**n >= 2**n, which is over the budget from its bit length
    # on: such n are refused before a power of millions of digits is built.
    if n >= GRID_ORACLE_BUDGET.bit_length() or t**n > GRID_ORACLE_BUDGET:
        raise ValueError(
            f"grid of {t}**{n} assignments exceeds the budget of {GRID_ORACLE_BUDGET}"
        )
    if n == 0:  # a variable-free formula takes 0 or 1, whatever t is
        return eval_formula(f, ()) == 1
    steps = program(f)
    return all(
        run(steps, words, 0, frame.top, frame.ops) == frame.top
        for words, frame in _grid_blocks(n, t)
    )


#: Grid points the oracle evaluates at once.  A formula node's value on a
#: block is one int of at most this many fields; within the budget a field
#: takes at most 3 bytes (t <= 10**6 once n >= 1), so at most 12 KB.
_GRID_BLOCK = 1 << 12


class _GridFrame:
    """What every block with the same number of points shares, including
    the Goedel algebra of packed levels: meet, join and residuum, field by
    field, from which `run` derives ~, <-> and <|."""

    __slots__ = ("ones", "top", "shift", "stair", "inner", "ops")

    def __init__(self, ones: int, wb: int, t: int, stair: int, inner: tuple[int, ...]):
        self.ones = ones  # level 1 in every field
        self.top = top = (t - 1) * ones  # level t - 1 in every field
        self.shift = shift = 8 * wb - 1  # the place of the spare top bit in a field
        self.stair = stair  # chunk variable: levels 0, 1, ..., one per inner sweep
        self.inner = inner  # the inner variables' words, in variable order
        high = ones << shift  # the spare bit of every field

        def le(a: int, b: int) -> int:
            # Low bits set in every field where a <= b: the subtraction borrows
            # a field's spare bit exactly when a > b, and never crosses fields.
            d = ((b | high) - a) & high
            return d - (d >> shift)

        self.ops = {
            And: lambda a, b: b ^ ((a ^ b) & le(a, b)),
            Or: lambda a, b: a ^ ((a ^ b) & le(a, b)),
            Implies: lambda a, b: b ^ ((b ^ top) & le(a, b)),  # top where a <= b, else b
        }


@functools.lru_cache(maxsize=32)
def _grid_layout(n: int, t: int) -> tuple[int, int, dict[int, _GridFrame]]:
    """How the t**n grid (n >= 1) is cut into blocks: (inner, chunk, frames).

    The last `inner` variables run through all their levels in every block.
    The variable before them, the chunk variable, takes `chunk` consecutive
    levels per block (the last chunk may be shorter), and the variables
    before it are constant within a block.  `frames` maps a chunk length to
    what its blocks share.
    """
    # Whole bytes per field, with a spare top bit for the comparisons.
    wb = (t - 1).bit_length() // 8 + 1
    inner = 0
    while inner < n - 1 and t ** (inner + 1) <= _GRID_BLOCK:
        inner += 1
    sweep = t**inner
    chunk = min(t, _GRID_BLOCK // sweep)
    frames = {}
    for length in {chunk, t % chunk or chunk}:
        points = length * sweep
        frames[length] = _GridFrame(
            _repeat(1, wb, points), wb, t,
            stair=_staircase(length, sweep, wb),
            # Variable X(n-j) holds each level for t**j points, in periods
            # of t**(j+1) points that divide the block.
            inner=tuple(
                _repeat(_staircase(t, t**j, wb), wb * t ** (j + 1), points // t ** (j + 1))
                for j in reversed(range(inner))
            ),
        )
    return inner, chunk, frames


def _grid_blocks(n: int, t: int):
    """Yield (words, frame) for each block of the t**n grid (n >= 1), in
    itertools.product order; words[i] packs X(i+1)'s levels."""
    inner, chunk, frames = _grid_layout(n, t)
    for head in itertools.product(range(t), repeat=n - 1 - inner):
        for start in range(0, t, chunk):
            frame = frames[min(chunk, t - start)]
            words = [level * frame.ones for level in head]
            words.append(frame.stair + start * frame.ones)
            words += frame.inner
            yield words, frame


def _repeat(word: int, nbytes: int, times: int) -> int:
    """`times` copies of the nbytes-byte word, side by side."""
    return int.from_bytes(word.to_bytes(nbytes, "little") * times, "little")


def _staircase(count: int, run: int, wb: int) -> int:
    """Fields of wb bytes holding level 0 run times, then level 1 run times,
    ..., up to level count - 1; built by doubling, not field by field."""
    word, have, width = 0, 1, 8 * wb * run
    for bit in bin(count)[3:]:
        word |= (word + have * _repeat(1, wb, have * run)) << (width * have)
        have *= 2
        if bit == "1":
            word |= _repeat(have, wb, run) << (width * have)
            have += 1
    return word


def proves_equiv(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable equivalence: the two value-1 subforests coincide on the
    forest relevant to the logic, that is, `a <-> b` is a tautology there."""
    return is_tautology(Iff(a, b), n, logic)


def proves_implies(a: Formula, b: Formula, n: int, logic: Logic = GINF) -> bool:
    """Provable implication: value-1 subforest inclusion on the relevant
    forest, that is, `a -> b` is a tautology there."""
    return is_tautology(Implies(a, b), n, logic)
