"""The frozen record base of every value type, and the one home of numbers past
Python's int-to-str limit: `_shown` and `_printed` print them, `_digits` counts
their digits, `_past_the_limit` words their refusal.  No package imports."""

import sys
from operator import attrgetter
from typing import Iterable, Optional


def _limit() -> int:
    """Python's int-to-str digit limit; 0 (none) before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _digits(n: int) -> int:
    """The decimal digits of n >= 0 (none for 0), counted without converting n to text."""
    d = n.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2): at most the count
    while n >= 10**d:
        d += 1
    return d


def _past_the_limit(*parts: tuple[str, int]) -> Optional[str]:
    """The refusal of the first (part, digit count) past the int-to-str limit, or None."""
    limit = _limit()
    for part, digits in parts:
        if 0 < limit < digits:
            return f"{part} of {digits} digits is past the limit of {limit} digits"
    return None


def _printed(value: object) -> str:
    """`str(value)`, or `<more than N digits>` where Python's int-to-str limit refuses it."""
    try:
        return str(value)
    except ValueError:
        return f"<more than {_limit()} digits>"


def _shown(value: object) -> str:
    """`repr(value)`, or `<more than N digits>` as `_printed` gives it."""
    try:
        return repr(value)
    except ValueError:
        return _printed(value)


class _Record:
    """Frozen record: the fields are the slots named in `__match_args__`.
    Every value type of the package is one; they compare, hash, print,
    match, copy and pickle as frozen slotted dataclass instances do."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__  # attrgetter of one name gives the value, of none fails
        get = attrgetter(*names) if names else lambda s: ()
        cls._values = property(get if len(names) != 1 else lambda s: (get(s),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        # Not a join over a generator: reprs nested in C calls print a quarter less deep.
        try:
            fields = [f"{k}={v!r}" for k, v in zip(self.__match_args__, self._values)]
        except ValueError:  # a field holding a number past the int-to-str limit
            fields = [f"{k}={_shown(v)}" for k, v in zip(self.__match_args__, self._values)]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values

    def __setstate__(self, state: Iterable) -> None:
        """Set the fields in order: for copy, pickle and some `__init__`s."""
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)
