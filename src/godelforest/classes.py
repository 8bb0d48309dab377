"""Assignment classes of Goedel logic, their order, and their JSON form.

An assignment over variables X1..Xn is summarized, up to the order and
equality pattern of its values, by which variables sit at 0, which sit at 1,
and the ordered blocks of variables sharing a common value strictly between.
These summaries form a finite poset: one class lies below another when it is
obtained by collapsing a top segment of the other's value chain to 1.  The
poset is a forest (the ancestors of any node form a chain), its roots are the
Boolean classes, and its downward-closed subsets carry a Goedel algebra.

Everything here works on classes alone and builds no forest: a partition's
classes, their maxima and the Ruspini-leaf test need nothing of `forest`,
which imports this module only where it ranks classes or builds them.
The exact-rational reader `as_fraction` lives here too.  Only `records` is
imported; it words the refusal of a text past Python's int-to-str limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .records import _Record, _past_the_limit, _printed, _shown

RationalLike = Union[Fraction, int, str]

#: The documented rational text: an integer or p/q, optionally signed.
#: `Fraction` alone would also take decimals and exponents, and an exponent
#: such as 1e-100000000 would take minutes to expand.
_RATIONAL_TEXT = re.compile(r"\s*[-+]?\d+(?:/\d+)?\s*")


def as_fraction(value: RationalLike) -> Fraction:
    """Exact rational from an int, Fraction, or a "p/q" / integer string
    (optionally signed, surrounding whitespace allowed).  A text part with
    more digits than Python's int-to-str limit is refused unread."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # JSON true is not 1
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(value):
        if len(value) > 640:  # int() converts 640 digits under any limit Python allows
            num, _, den = value.strip().lstrip("+-").partition("/")
            refusal = _past_the_limit(("numerator" if den else "integer", len(num)),
                                      ("denominator", len(den)))
            if refusal:
                raise ValueError(refusal)
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"not an exact rational: {value!r}")


class AssignmentClass(_Record):
    """Order/equality pattern of one assignment to X1..Xn.

    `zero` and `one` hold the variables at 0 and 1; `mid` holds the blocks of
    equal values in (0, 1), in increasing value order.  Blocks are stored as
    sorted tuples, so equality and hashing are canonical.
    """

    __slots__ = __match_args__ = ("n", "zero", "mid", "one")
    n: int
    zero: tuple[int, ...]
    mid: tuple[tuple[int, ...], ...]
    one: tuple[int, ...]

    def __init__(self, n: int, zero: tuple, mid: tuple, one: tuple) -> None:
        if type(n) is not int:  # bool too: True is not a count
            raise ValueError(f"variable count {n!r} is not an integer")
        if n < 1:
            raise ValueError("a class needs at least one variable")
        seen: set[int] = set()
        for block in (zero, *mid, one):
            for v in block:
                if type(v) is not int:  # bool too: JSON true is not X1
                    raise ValueError(f"variable index {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValueError(f"variable index {_shown(v)} out of range 1..{_shown(n)}")
                if v in seen:
                    raise ValueError(f"variable index {_shown(v)} appears in two blocks")
                seen.add(v)
        if len(seen) != n:
            # The first nine missing indices lie among the first len(seen) + 9.
            missing = [v for v in range(1, min(n, len(seen) + 9) + 1) if v not in seen][:9]
            listed = ", ".join(map(str, missing[:8]))
            end = f", ...] ({_shown(n - len(seen))} in all)" if len(missing) > 8 else "]"
            raise ValueError(f"blocks do not cover variables [{listed}{end}")
        if any(not b for b in mid):
            raise ValueError("mid blocks must be nonempty")
        mid = tuple(tuple(sorted(b)) for b in mid)
        self.__setstate__((n, tuple(sorted(zero)), mid, tuple(sorted(one))))

    @property
    def depth(self) -> int:
        """Height of the chain from this class's root down to it."""
        return len(self.mid) + 1

    @property
    def positive_count(self) -> int:
        """Number of variables with a strictly positive value."""
        return self.n - len(self.zero)

    def parent(self) -> Optional["AssignmentClass"]:
        """Immediate predecessor: the top mid block collapses to 1.

        Boolean classes (no mid blocks) are roots and have no parent.
        """
        if not self.mid:
            return None
        return _class(
            self.n, self.zero, self.mid[:-1], tuple(sorted(self.one + self.mid[-1]))
        )

    def representative(self) -> tuple[Fraction, ...]:
        """Canonical witness: 0 and 1 blocks as written, the i-th of k mid
        blocks at i/(k+1)."""
        values = [Fraction(0)] * self.n
        for v in self.one:
            values[v - 1] = Fraction(1)
        k = len(self.mid)
        for i, block in enumerate(self.mid, start=1):
            for v in block:
                values[v - 1] = Fraction(i, k + 1)
        return tuple(values)

    def chain_string(self) -> str:
        """Human-readable chain, e.g. "0=X1<X2<1" or "0<X1=X2<1"."""
        zero = "".join([f"=X{v}" for v in self.zero])  # only the zero block ties with 0
        blocks = ["=".join([f"X{v}" for v in b]) for b in (*self.mid, self.one)]
        return f"0{zero}<" + "<".join(blocks) + ("=1" if self.one else "1")

    def __str__(self) -> str:
        return self.chain_string()


_SET_N, _SET_ZERO, _SET_MID, _SET_ONE = (
    getattr(AssignmentClass, name).__set__ for name in ("n", "zero", "mid", "one")
)


def _class(n: int, zero: tuple, mid: tuple, one: tuple) -> AssignmentClass:
    """Class from blocks already in canonical form, without validation."""
    c = object.__new__(AssignmentClass)
    _SET_N(c, n)
    _SET_ZERO(c, zero)
    _SET_MID(c, mid)
    _SET_ONE(c, one)
    return c


def class_key(c: AssignmentClass) -> tuple:
    """Deterministic sort key; classes of one tree sort contiguously."""
    return (c.zero, c.mid, c.one)


def class_of_values(values: Sequence[RationalLike]) -> AssignmentClass:
    """Class realized by the given variable values (X1 gets values[0]), each
    an exact rational as `as_fraction` reads it."""
    if len(values) == 0:
        raise ValueError("at least one value is required")
    exact = [as_fraction(v) for v in values]
    for i, v in enumerate(exact, start=1):
        if not 0 <= v <= 1:
            raise ValueError(f"value for X{i} is outside [0, 1]: {_printed(v)}")
    return _class_of_levels(exact)


def _class_of_levels(values: Sequence[Fraction]) -> AssignmentClass:
    """`class_of_values` of exact values already known to lie in [0, 1]."""
    levels: dict[Fraction, list[int]] = {}  # the variables at each value
    for i, v in enumerate(values, start=1):
        levels.setdefault(v, []).append(i)
    # Each block lists its variables in increasing order, and no two share one.
    zero, one = tuple(levels.pop(0, ())), tuple(levels.pop(1, ()))
    mid = tuple(tuple(levels[v]) for v in sorted(levels))
    return _class(len(values), zero, mid, one)


def leq(a: AssignmentClass, b: AssignmentClass) -> bool:
    """True when a is b or an ancestor of b (a collapse of b's top blocks)."""
    if a.n != b.n:
        raise ValueError(f"classes over {a.n} and {b.n} variables do not compare")
    if a.zero != b.zero or len(a.mid) > len(b.mid):
        return False
    return a.mid == b.mid[: len(a.mid)]


def _maximal(classes: Iterable[AssignmentClass]) -> tuple[AssignmentClass, ...]:
    """The given classes that are no given class's proper ancestor, in
    `class_key` order: the leaves of their downset, as `Subforest.leaves()`
    lists them, with no forest built.

    Each class marks its parent chain, which stops at an ancestor already
    marked: that one's own ancestors are marked too."""
    given, inner = set(classes), set()
    for c in given:
        up = c.parent()
        while up is not None and up not in inner:
            inner.add(up)
            up = up.parent()
    return tuple(sorted(given - inner, key=class_key))


def is_ruspini_leaf(c: AssignmentClass) -> bool:
    """Maximal element of the Ruspini forest: either exactly one variable at
    1 and the rest at 0, or no variable at 1 and at least two positive."""
    if not c.mid and len(c.one) == 1:
        return True
    return not c.one and c.positive_count >= 2


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
