"""The forests of assignment classes, held as bitmasks.

The classes over n variables (see `classes`) form a forest F_n.  A forest is
held as int bitmasks over node ids numbered in preorder, so every subtree is
an interval of ids: one mask per depth and one per generator, each built by
concatenating the masks of smaller trees.  A subforest is one such mask:
meet is `&`, join is `|`, and implication fills subtree intervals.  The
classes themselves are built only when asked for, so `classes` is imported
only by the code that ranks or builds them: `Forest.path`,
`Subforest.members`, `Subforest.leaves` and `is_ruspini_subforest`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .records import _Record, _shown

if TYPE_CHECKING:
    from .classes import AssignmentClass

#: Enumeration guard: forests grow super-exponentially with n.
MAX_FOREST_VARIABLES = 8


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
        from .classes import AssignmentClass

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
            raise ValueError(f"a finite-valued logic needs t >= 2, got {_shown(t)}")
        return self.full ^ self._deeper[min(t - 1, self.n + 1)]

    def __len__(self) -> int:
        return self.full.bit_length()

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, nodes={len(self)})"

    def __reduce__(self) -> tuple:
        """A copy or unpickled forest is the cached one, so subforests combine."""
        return enumerate_forest, (self.n,)


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
            f"forest enumeration supports 1 <= n <= {MAX_FOREST_VARIABLES}, got {_shown(n)}"
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
        from .classes import _class

        n = self.forest.n
        return frozenset([_class(n, zero, mid, one)
                          for _, _, zero, mid, one in self.forest.walk(self.mask)])

    def leaves(self) -> tuple[AssignmentClass, ...]:
        """Maximal elements (members that are no member's parent), in
        canonical order."""
        from .classes import _class

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
        raise ValueError(f"variable index {_shown(i)} out of range 1..{forest.n}")
    return Subforest._from_mask(forest, forest.generators[i - 1])


def is_ruspini_subforest(sub: Subforest) -> bool:
    """Nonempty, inside the Ruspini forest, with every maximal element a
    maximal element of the Ruspini forest."""
    from .classes import is_ruspini_leaf

    if not sub.mask or sub.mask & ~sub.forest.ruspini:
        return False
    return all(is_ruspini_leaf(c) for c in sub.leaves())
