"""Assignment classes of Goedel logic and the forests they form.

An assignment over variables X1..Xn is summarized, up to the order and
equality pattern of its values, by which variables sit at 0, which sit at 1,
and the ordered blocks of variables sharing a common value strictly between.
These summaries form a finite poset: one class lies below another when it is
obtained by collapsing a top segment of the other's value chain to 1.  The
poset is a forest (the ancestors of any node form a chain), its roots are the
Boolean classes, and its downward-closed subsets carry a Goedel algebra.

A forest is held as int bitmasks over node ids numbered in preorder, so every
subtree is an interval of ids: one mask per depth and one per generator, each
built by concatenating the masks of smaller trees.  A subforest is one such
mask: meet is `&`, join is `|`, and implication fills subtree intervals.  The
classes themselves are built only when asked for.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .records import _Record

if TYPE_CHECKING:
    from fractions import Fraction

#: Enumeration guard: forests grow super-exponentially with n.
MAX_FOREST_VARIABLES = 8


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
                    raise ValueError(f"variable index {v} out of range 1..{n}")
                if v in seen:
                    raise ValueError(f"variable index {v} appears in two blocks")
                seen.add(v)
        if len(seen) != n:
            # The first nine missing indices lie among the first len(seen) + 9.
            missing = [v for v in range(1, min(n, len(seen) + 9) + 1) if v not in seen][:9]
            shown = ", ".join(map(str, missing[:8]))
            end = f", ...] ({n - len(seen)} in all)" if len(missing) > 8 else "]"
            raise ValueError(f"blocks do not cover variables [{shown}{end}")
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
        from fractions import Fraction  # loaded only where a Fraction is made
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


def class_key(c: AssignmentClass) -> tuple:
    """Deterministic sort key; classes of one tree sort contiguously."""
    return (c.zero, c.mid, c.one)


def class_of_values(values: Sequence[Fraction | int | str]) -> AssignmentClass:
    """Class realized by the given variable values (X1 gets values[0]), each
    an exact rational as `partitions.as_fraction` reads it."""
    if len(values) == 0:
        raise ValueError("at least one value is required")
    from .partitions import as_fraction  # `forest` loads without `partitions`
    levels: dict[Fraction, list[int]] = {}  # the variables at each value
    for i, v in enumerate([as_fraction(v) for v in values], start=1):
        if not 0 <= v <= 1:
            raise ValueError(f"value for X{i} is outside [0, 1]: {v}")
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


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _flags_to_mask(flags: bytearray) -> int:
    """Bitmask with bit i set where flags[i] is 1, built in linear time."""
    return int(flags.translate(_DIGITS)[::-1], 2)


class Forest:
    """All assignment classes over n variables, as bitmasks over node ids.

    Ids follow `class_key` order, which is a preorder, so every subtree is
    an interval of ids.  A set of nodes is a Python int used as a bitmask,
    bit i standing for node i.  The depth and generator masks are built by
    concatenating per-shape tree masks.  No class is stored: `path` ranks a
    class to its ids and `walk` yields the blocks of a downset mask's
    members, both from the tree-shape table of `_children`.

    Instances are immutable once built; use :func:`enumerate_forest`.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        # The roots are the Boolean classes, one per zero set, in order;
        # _roots maps each zero set to its root's id and variables at 1.
        universe = tuple(range(1, n + 1))
        self._roots, size = {}, 0
        for zero, one in (((), universe), *_splits(universe)):
            self._roots[zero] = (size, one)
            size += _children(one)[1]
        levels, generators = [0] * (n + 2), [0] * n
        _place(_tree_masks(n), self._roots.values(), levels, 1, generators)
        self.full = (1 << size) - 1
        #: _levels[d] holds the nodes of depth d, _deeper[d] those below it.
        self._levels = tuple(levels)
        deeper, below = [0] * (n + 2), 0
        for d in range(n + 1, -1, -1):
            deeper[d] = below
            below |= levels[d]
        self._deeper = tuple(deeper)
        #: generators[i - 1] holds the classes with Xi at 1.
        self.generators = tuple(generators)
        # A tree's positive variables are those at 1 in its root, so each
        # root counts them here by the generators holding it (up to 3).
        ones = twos = threes = 0
        for g in self.generators:
            threes |= twos & g
            twos |= ones & g
            ones |= g
        roots = self._levels[1]
        #: T_n, the two-overlap forest: the trees with at most two positive
        #: variables.
        self.two_overlap = self.full ^ self.upset(roots & threes)
        #: R_n, the Ruspini forest: all but the all-zero root and the lone
        #: child of each root with one positive variable.
        self.ruspini = (
            self.full ^ (roots & ~ones) ^ (self._levels[2] & self.upset(roots & ones & ~twos))
        )

    def path(self, c: AssignmentClass) -> Optional[list[int]]:
        """Ids of c's ancestors and c, root first; None when c is not a node.

        The root is found by c's zero set, then each mid block is a step to
        the child that splits it off."""
        if not isinstance(c, AssignmentClass) or c.n != self.n:
            return None
        i, one = self._roots[c.zero]
        ids = [i]
        for block in c.mid:
            step, one = _children(one)[0][block]
            i += step
            ids.append(i)
        return ids

    def walk(self, mask: int) -> Iterator[tuple[int, Optional[int], tuple, tuple, tuple]]:
        """Yield `(k, up, zero, mid, one)` for each member of a downset mask,
        in id order: the member's position k, its parent's position `up`
        (None for a root) and its blocks.  Only members and their children
        are visited: a child outside the mask is passed over, with its
        subtree."""
        bits = mask.to_bytes(len(self) + 7 >> 3, "little")  # bit i: bits[i >> 3]
        stack = [(i, None, zero, (), one) for zero, (i, one) in reversed(self._roots.items())
                 if bits[i >> 3] >> (i & 7) & 1]
        k = 0
        while stack:
            i, up, zero, mid, one = stack.pop()
            yield k, up, zero, mid, one
            # Children go on last to first, so the first comes off next.
            for block, step, rest in _children(one)[2]:
                if bits[(j := i + step) >> 3] >> (j & 7) & 1:
                    stack.append((j, k, zero, mid + (block,), rest))
            k += 1

    def upset(self, mask: int) -> int:
        """Nodes lying in the subtree of some node of mask.

        Per depth d, the descendants of a node s at depth d are the run of
        nodes deeper than d that starts at s + 1.  Adding s + 1 to the mask
        of those nodes carries through that run and clears it.
        """
        up = 0
        for d in range(1, self.n + 2):
            s = mask & self._levels[d]
            if s:
                t = self._deeper[d]
                up |= s | (t & ~((s << 1) + t))
        return up

    def implies(self, a: int, b: int) -> int:
        """Residuum of two downset masks: the nodes with no ancestor (or
        self) in a but not in b."""
        return self.full ^ self.upset(a & ~b)

    def truncation(self, t: int) -> int:
        """Mask of the height-(t-1) truncation used by t-valued logic."""
        if type(t) is not int or t < 2:  # bool too, as Logic refuses
            raise ValueError(f"a finite-valued logic needs t >= 2, got {t!r}")
        return self.full ^ self._deeper[min(t - 1, self.n + 1)]

    def __len__(self) -> int:
        return self.full.bit_length()

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, nodes={len(self)})"

    def __reduce__(self) -> tuple:
        """A copy or unpickled forest is the cached one, so subforests combine."""
        return enumerate_forest, (self.n,)


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


@lru_cache(maxsize=None)
def _splits(items: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each nonempty subset of a sorted tuple, in lexicographic order, with
    the items outside it."""
    blocks = sorted(c for k in range(1, len(items) + 1) for c in combinations(items, k))
    return tuple((block, tuple(x for x in items if x not in block)) for block in blocks)


_Children = dict[tuple[int, ...], tuple[int, tuple[int, ...]]]


@lru_cache(maxsize=None)
def _children(one: tuple[int, ...]) -> tuple[_Children, int, tuple]:
    """Shape of a tree whose root has the variables `one` at 1, its size, and
    its children last to first, the order a stack takes them in.

    This is the one definition of the preorder: the root comes first, then
    one child subtree per nonempty block of `one`, in `_splits` order, the
    child keeping the rest at 1.  The table maps each block to the child's
    id step from the root and the variables it keeps at 1; the last item
    lists them as `(block, step, rest)`."""
    table: _Children = {}
    step = 1
    for block, rest in _splits(one):
        table[block] = (step, rest)
        step += _children(rest)[1]
    return table, step, tuple((b, *child) for b, child in reversed(table.items()))


_TreeMasks = tuple[list[int], list[int]]


def _place(
    trees: list[_TreeMasks],
    placements: Iterable[tuple[int, tuple[int, ...]]],
    levels: list[int],
    depth: int,
    generators: list[int],
) -> None:
    """Add to the masks one tree per `(offset, one)` of `placements`: its
    root sits at node id `offset` and `depth`, with the variables `one` at
    1.  `trees[m]` holds the depth masks (root first) and per-position
    generator masks of a tree whose root has m variables at 1: its shape
    depends only on m."""
    for offset, one in placements:
        tree_levels, tree_generators = trees[len(one)]
        for d, mask in enumerate(tree_levels, start=depth):
            levels[d] |= mask << offset
        for g, mask in zip(one, tree_generators):
            generators[g - 1] |= mask << offset


def _tree_masks(n: int) -> list[_TreeMasks]:
    """Masks of the trees whose roots have m = 0..n variables at 1, each
    made of its root bit and its children's masks placed by `_children`."""
    trees: list[_TreeMasks] = []
    for m in range(n + 1):
        levels, generators = [1] + [0] * m, [1] * m
        _place(trees, _children(tuple(range(1, m + 1)))[0].values(), levels, 1, generators)
        trees.append((levels, generators))
    return trees


@lru_cache(maxsize=None)
def enumerate_forest(n: int) -> Forest:
    """The full forest over n variables (guarded, n <= 8)."""
    if type(n) is not int or not 1 <= n <= MAX_FOREST_VARIABLES:
        raise ValueError(
            f"forest enumeration supports 1 <= n <= {MAX_FOREST_VARIABLES}, got {n!r}"
        )
    return Forest(n)


class Subforest(_Record):
    """Downward-closed set of classes in an ambient forest, held as one
    bitmask over the forest's node ids.

    Subforests form a Goedel algebra: meet is `&`, join is `|`, and
    implication keeps the nodes with no ancestor (or self) in A but not in
    B.  The constructor validates its member set; the operations build their
    results from masks without revalidating them.
    """

    __slots__ = __match_args__ = ("forest", "mask")
    forest: Forest
    mask: int

    def __init__(self, forest: Forest, members: Iterable[AssignmentClass]) -> None:
        flags, named = bytearray(len(forest)), {}
        for c in members:
            ids = forest.path(c)
            if ids is None:
                raise ValueError(f"class {c} is not a node of the ambient forest")
            flags[ids[-1]] = 1
            named[ids[-1]] = c
        mask = _flags_to_mask(flags)
        # A member below a non-member; the lowest one's parent is missing.
        open_ = mask & forest.upset(forest.full ^ mask)
        if open_:
            c = named[(open_ & -open_).bit_length() - 1]
            raise ValueError(f"member set is not downward closed at {c}")
        self.__setstate__((forest, mask))

    @classmethod
    def _from_mask(cls, forest: Forest, mask: int) -> "Subforest":
        """Wrap a mask already known to be a downset of forest."""
        sub = object.__new__(cls)
        sub.__setstate__((forest, mask))
        return sub

    def _check_ambient(self, other: "Subforest") -> None:
        if self.forest is not other.forest:
            raise ValueError("subforests live in different ambient forests")

    @property
    def members(self) -> frozenset[AssignmentClass]:
        n = self.forest.n
        return frozenset([_class(n, zero, mid, one)
                          for _, _, zero, mid, one in self.forest.walk(self.mask)])

    def leaves(self) -> tuple[AssignmentClass, ...]:
        """Maximal elements (members that are no member's parent), in
        canonical order."""
        walk, n = list(self.forest.walk(self.mask)), self.forest.n
        inner = {w[1] for w in walk}
        return tuple([_class(n, zero, mid, one)
                      for k, _, zero, mid, one in walk if k not in inner])

    def meet(self, other: "Subforest") -> "Subforest":
        self._check_ambient(other)
        return Subforest._from_mask(self.forest, self.mask & other.mask)

    def join(self, other: "Subforest") -> "Subforest":
        self._check_ambient(other)
        return Subforest._from_mask(self.forest, self.mask | other.mask)

    def implies(self, other: "Subforest") -> "Subforest":
        self._check_ambient(other)
        return Subforest._from_mask(
            self.forest, self.forest.implies(self.mask, other.mask)
        )

    def issubset(self, other: "Subforest") -> bool:
        self._check_ambient(other)
        return not self.mask & ~other.mask

    def __contains__(self, c: AssignmentClass) -> bool:
        ids = self.forest.path(c)
        return ids is not None and bool(self.mask >> ids[-1] & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"Subforest(n={self.forest.n}, members={len(self)})"


def downset(forest: Forest, seeds: Iterable[AssignmentClass]) -> Subforest:
    """Smallest downward-closed superset of the seeds."""
    flags = bytearray(len(forest))
    for seed in seeds:
        ids = forest.path(seed)
        if ids is None:
            raise ValueError(f"class {seed} is not a node of the forest")
        for i in ids:
            flags[i] = 1
    return Subforest._from_mask(forest, _flags_to_mask(flags))


def empty_subforest(forest: Forest) -> Subforest:
    return Subforest._from_mask(forest, 0)


def full_subforest(forest: Forest) -> Subforest:
    return Subforest._from_mask(forest, forest.full)


def ruspini_subforest(forest: Forest) -> Subforest:
    return Subforest._from_mask(forest, forest.ruspini)


def two_overlap_subforest(forest: Forest) -> Subforest:
    return Subforest._from_mask(forest, forest.two_overlap)


def truncated_subforest(forest: Forest, t: int) -> Subforest:
    return Subforest._from_mask(forest, forest.truncation(t))


def generating_subforest(i: int, forest: Forest) -> Subforest:
    """Classes with Xi at value 1; the i-th free generator of the algebra."""
    if type(i) is not int or not 1 <= i <= forest.n:  # bool too: True is not X1
        raise ValueError(f"variable index {i!r} out of range 1..{forest.n}")
    return Subforest._from_mask(forest, forest.generators[i - 1])


def is_ruspini_subforest(sub: Subforest) -> bool:
    """Nonempty, inside the Ruspini forest, with every maximal element a
    maximal element of the Ruspini forest."""
    if not sub.mask or sub.mask & ~sub.forest.ruspini:
        return False
    return all(is_ruspini_leaf(c) for c in sub.leaves())
