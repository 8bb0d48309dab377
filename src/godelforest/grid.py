"""The grid oracle's blocks: the t**n grid of t-valued assignments, cut
into blocks of packed level words.

`semantics.grid_tautology_oracle` checks its arguments and imports this
module only when it evaluates a grid, so a decision that asks no oracle
never compiles it.  Goedel connectives depend only on the order of values,
so the value k/(t-1) is handled as its level k, and each formula node's
levels at all points of a block are packed into one int, one field per
point (see `_GridFrame`).
"""

from __future__ import annotations

import functools
import itertools

from .syntax import And, Implies, Or


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
