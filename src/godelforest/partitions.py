"""Finite families of piecewise-linear fuzzy sets over [0, 1].

Membership functions are piecewise linear with rational breakpoints; a
repeated abscissa encodes a jump, read right-continuously (at x = 1 the last
value applies).  This keeps every question asked here exactly decidable: the
classes realized by a family, the pointwise-sum-1 check, and the
no-three-positive-overlap check all reduce to finitely many exact rational
evaluations.  Input is read (by `classes.as_fraction`, still bound here) and
checked where it enters: a set's constructor, `value_at`, `class_of_values`.

`_cell_ends` merges the breakpoints into one grid and reads every set's ends
on each cell with one cursor per set, so it walks each set once; both
`critical_points` and `check_ruspini_exact` read the cells from it.
`realized_classes` samples each critical point and cell midpoint through the
unchecked cores `_at` and `classes._class_of_levels`; `_at` scans a set from
its first point, so that sampling stays quadratic in the breakpoints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .classes import (AssignmentClass, RationalLike, _class_of_levels, _maximal, as_fraction,
                      is_ruspini_leaf)
from .records import _Record, _digits, _past_the_limit, _printed, _shown

if TYPE_CHECKING:
    from .forest import Subforest


class PiecewiseLinearFuzzySet(_Record):
    """One membership function, as a breakpoint list on [0, 1].

    Abscissae are nondecreasing, start at 0 and end at 1, and at most two
    points share an abscissa (a jump).  Values stay within [0, 1].
    """

    __slots__ = __match_args__ = ("name", "points")
    name: str
    points: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, name: str, points: tuple[tuple[RationalLike, RationalLike], ...]) -> None:
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in points)
        self.__setstate__((name, pts))
        if len(pts) < 2:
            raise ValueError(f"set {self.name!r}: needs at least two points")
        for k, (x, y) in enumerate(pts):
            if not 0 <= x <= 1:
                raise ValueError(
                    f"set {self.name!r}, point {k}: abscissa {_printed(x)} outside [0, 1]")
            if not 0 <= y <= 1:
                raise ValueError(
                    f"set {self.name!r}, point {k}: value {_printed(y)} outside [0, 1]")
        if pts[0][0] != 0:
            raise ValueError(f"set {self.name!r}, point 0: first abscissa must be 0")
        if pts[-1][0] != 1:
            raise ValueError(f"set {self.name!r}, point {len(pts) - 1}: last abscissa must be 1")
        for k in range(1, len(pts)):
            if pts[k][0] < pts[k - 1][0]:
                raise ValueError(f"set {self.name!r}, point {k}: abscissae must be nondecreasing")
        for k, (x, _) in enumerate(pts[2:]):  # sorted: a third point at x is two on from k
            if x == pts[k][0]:
                raise ValueError(f"set {self.name!r}, point {k}: abscissa {_printed(x)} "
                                 "appears more than twice")

    def value_at(self, x: RationalLike) -> Fraction:
        """Function value at x; at a jump the right-hand value applies
        (at x = 1, the final value)."""
        x = as_fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"abscissa {_printed(x)} outside [0, 1]")
        return self._at(x)

    def _at(self, x: Fraction) -> Fraction:
        """`value_at` of an x already read and known to lie in [0, 1]."""
        hit = None
        for px, py in self.points:
            if px == x:
                hit = py
            elif px > x:
                break
        if hit is not None:
            return hit
        for (ax, ay), (bx, by) in itertools.pairwise(self.points):
            if ax < x < bx:
                return ay + (by - ay) * (x - ax) / (bx - ax)
        raise AssertionError("unreachable: breakpoints cover [0, 1]")


class Partition(_Record):
    """A finite nonempty family of fuzzy sets; Xi corresponds to sets[i-1]."""

    __slots__ = __match_args__ = ("sets",)
    sets: tuple[PiecewiseLinearFuzzySet, ...]

    def __init__(self, sets: tuple[PiecewiseLinearFuzzySet, ...]) -> None:
        self.__setstate__((tuple(sets),))
        if not self.sets:
            raise ValueError("a partition needs at least one fuzzy set")

    @property
    def n(self) -> int:
        return len(self.sets)

    def values_at(self, x: RationalLike) -> tuple[Fraction, ...]:
        return tuple(f.value_at(x) for f in self.sets)


def partition_from_json(obj: object) -> Partition:
    """Build a Partition from the JSON object layout:

    {"n": 2, "sets": [{"name": "f1", "points": [["0", "1"], ...]}, ...]}

    Rationals are "p/q" or integer strings (plain integers also accepted).
    """
    if not isinstance(obj, dict):
        raise ValueError("partition JSON must be an object")
    if "sets" not in obj or not isinstance(obj["sets"], list):
        raise ValueError("partition JSON needs a 'sets' list")
    if "n" in obj and type(obj["n"]) is not int:  # bool too: JSON true is not 1
        raise ValueError(f"'n' must be an integer, got {obj['n']!r}")
    sets = []
    # Partitions repeat most of their rationals (shared abscissae, 0 and 1
    # values): each distinct text is parsed once, into one shared Fraction.
    parsed: dict[str, Fraction] = {}

    def rational(value: object) -> Fraction:
        if not isinstance(value, str):
            return as_fraction(value)
        if value not in parsed:
            parsed[value] = as_fraction(value)
        return parsed[value]

    for k, entry in enumerate(obj["sets"]):
        if not isinstance(entry, dict):
            raise ValueError(f"set {k}: must be an object")
        name = entry.get("name", f"f{k + 1}")
        if not isinstance(name, str):
            raise ValueError(f"set {k}: 'name' must be a string")
        raw_points = entry.get("points")
        if not isinstance(raw_points, list):
            raise ValueError(f"set {name!r}: needs a 'points' list")
        points = []
        for j, pair in enumerate(raw_points):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"set {name!r}, point {j}: expected a [x, y] pair")
            try:
                points.append((rational(pair[0]), rational(pair[1])))
            except ValueError as exc:
                raise ValueError(f"set {name!r}, point {j}: {exc}") from exc
        sets.append(PiecewiseLinearFuzzySet(name, tuple(points)))
    partition = Partition(tuple(sets))
    if "n" in obj and obj["n"] != partition.n:
        raise ValueError(f"'n' is {_shown(obj['n'])} but {partition.n} sets were given")
    return partition


def partition_to_json(p: Partition) -> dict:
    """Inverse of partition_from_json; rationals rendered as strings.  A part
    past Python's int-to-str limit is refused as partition_from_json refuses its text."""
    sets = []
    for f in p.sets:
        try:
            points = [[str(x), str(y)] for x, y in f.points]
        except ValueError:  # Python's refusal: name the point and the part
            k, refusal = next((k, r) for k, pair in enumerate(f.points) for x in pair if (
                r := _past_the_limit(("numerator", _digits(x.numerator)),
                                     ("denominator", _digits(x.denominator)))))
            raise ValueError(f"set {f.name!r}, point {k}: {refusal}") from None
        sets.append({"name": f.name, "points": points})
    return {"n": p.n, "sets": sets}


def _cell_ends(p: Partition) -> Iterator[tuple[Fraction, Fraction, list]]:
    """For each cell [a, b) of the merged breakpoints of all the sets: a, b,
    and every set's value at a (read right-continuously) with its left limit
    at b.  Each cell lies inside one piece of each set, so one cursor per set
    walks its points once."""
    grid = sorted({x for f in p.sets for x, _ in f.points})
    cursors = [0] * p.n
    for a, b in itertools.pairwise(grid):
        ends = []
        for k, f in enumerate(p.sets):
            pts, j = f.points, cursors[k]
            # The cursor's next point is at a or past it (it was past the
            # previous cell's start), so `<= a` here is `== a`.
            while pts[j + 1][0] == a:
                j += 1
            cursors[k] = j
            (ax, ay), (bx, by) = pts[j], pts[j + 1]
            # At a jump pts[j] is the last point at a, pts[j + 1] the first at b.
            ends.append((ay if ax == a else ay + (by - ay) * (a - ax) / (bx - ax),
                         by if bx == b else ay + (by - ay) * (b - ax) / (bx - ax)))
        yield a, b, ends


def critical_points(p: Partition) -> tuple[Fraction, ...]:
    """All abscissae where the realized class can change: breakpoints, and
    where two sets cross inside a cell (their difference has strictly opposite
    signs at its ends).  No set crosses 0 or 1 there: it is linear with ends in [0, 1]."""
    crit = {Fraction(1)}
    for a, b, ends in _cell_ends(p):
        crit.add(a)
        for (ya, yb), (ta, tb) in itertools.combinations(ends, 2):
            if ya < ta and yb > tb or ya > ta and yb < tb:
                da, db = ya - ta, yb - tb
                crit.add(a + da / (da - db) * (b - a))
    return tuple(sorted(crit))


def realized_classes(p: Partition) -> frozenset[AssignmentClass]:
    """Exact set of classes realized by p somewhere on [0, 1].

    Between consecutive critical points every set is linear and crosses
    neither 0, 1, nor another set, so the class is constant there; sampling
    each critical point plus each cell midpoint is exhaustive."""
    pts = critical_points(p)
    samples = [*pts, *((a + b) / 2 for a, b in itertools.pairwise(pts))]
    return frozenset(_class_of_levels([f._at(x) for f in p.sets]) for x in samples)


def partition_forest(p: Partition) -> Subforest:
    """Downset of the realized classes inside the full forest."""
    from .forest import downset, enumerate_forest

    forest = enumerate_forest(p.n)
    return downset(forest, realized_classes(p))


def check_ruspini_exact(p: Partition) -> bool:
    """Whether the membership values sum to exactly 1 at every point.

    The sum is piecewise linear, so it is 1 everywhere iff it is 1 at each
    breakpoint abscissa and at each left limit (both sides of every jump):
    at both ends of every cell, and at x = 1, where the last points apply.
    """
    for _, _, ends in _cell_ends(p):
        if sum(ya for ya, _ in ends) != 1 or sum(yb for _, yb in ends) != 1:
            return False
    return sum(f.points[-1][1] for f in p.sets) == 1


def check_2_overlapping(p: Partition) -> bool:
    """Whether no point has three sets simultaneously positive."""
    return all(c.positive_count <= 2 for c in realized_classes(p))


def is_weak_ruspini(p: Partition) -> bool:
    """The logic-expressible relaxation of the sum-1 condition: the realized
    forest must be a Ruspini subforest.

    The Ruspini forest is a downset holding its own leaves, so that is every
    maximal realized class being a Ruspini leaf; no forest is built."""
    return all(is_ruspini_leaf(c) for c in _maximal(realized_classes(p)))
