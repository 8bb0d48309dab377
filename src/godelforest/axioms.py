"""Axiomatization and synthesis: from partitions to formulas and back.

Every class has a chain normal form, a conjunction tracing its value chain
with <| for strict steps and <-> for ties, whose value-1 set is exactly the
class's downset.  Disjoining the normal forms of a subforest's maximal
elements axiomatizes it; disjoining those of a partition's maximal realized
classes yields the partition's axiom, with no forest built.  In the other
direction, any Ruspini subforest is realized by an explicit step-function
partition whose values at each interval sum to 1; it is built from the
subforest's maximal classes alone, again with no forest.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from typing import TYPE_CHECKING, Iterable, Sequence

from .syntax import And, Bot, Formula, Iff, Lhd, Not, Or, Top, Var
from .records import _Record, _shown

if TYPE_CHECKING:
    from fractions import Fraction
    from .classes import AssignmentClass
    from .forest import Subforest
    from .partitions import Partition

# `classes`, `forest`, `partitions`, `semantics` and `fractions` load inside
# the functions using them.


def conjunction(terms: Sequence[Formula]) -> Formula:
    """Left fold under &; the empty conjunction is 1."""
    items = list(terms)
    return functools.reduce(And, items) if items else Top()


def disjunction(terms: Sequence[Formula]) -> Formula:
    """Left fold under |; the empty disjunction is 0."""
    items = list(terms)
    return functools.reduce(Or, items) if items else Bot()


def chain_normal_form(c: AssignmentClass) -> Formula:
    """Conjunction tracing c's chain from 0 to 1, <| for strict steps and
    <-> for ties; its value-1 set is the downset of c."""
    top = len(c.mid) + 1  # the level of 1; 0 is at 0, and mid block i at i
    blocks = [(c.zero, 0), *zip(c.mid, range(1, top)), (c.one, top)]
    anchored = [(Bot(), 0), *[(Var(v), level) for b, level in blocks for v in b], (Top(), top)]
    terms = [
        Iff(fa, fb) if va == vb else Lhd(fa, fb)
        for (fa, va), (fb, vb) in itertools.pairwise(anchored)
    ]
    return conjunction(terms)


def _axiom_of(maximal: Sequence[AssignmentClass]) -> Formula:
    """Disjunction of the chain normal forms of the given classes; with the
    maximal elements of a downset, its value-1 set is that downset."""
    return disjunction([chain_normal_form(c) for c in maximal])


def axiomatize_subforest(sub: Subforest) -> Formula:
    """Disjunction of the chain normal forms of the maximal elements; its
    value-1 set is the subforest itself.

    Only 0 has an empty value-1 set, so the empty subforest yields 0 (with a
    warning: no partition ever realizes an empty forest).
    """
    maximal = sub.leaves()
    if not maximal:
        warnings.warn(
            "axiomatizing an empty subforest: returning the false constant",
            stacklevel=2,
        )
        return Bot()
    return _axiom_of(maximal)


def axiomatize_partition(p: Partition) -> Formula:
    """The partition's axiom: everything the logic can say about p.

    Unique up to provable equivalence among formulas with the same value-1
    set.  Built from the maximal realized classes alone, so it takes any n.
    """
    from .classes import _maximal
    from .partitions import realized_classes

    return _axiom_of(_maximal(realized_classes(p)))


#: Largest n per stock axiom (rho: `ruspini_axiom`, tau: `overlap_axiom`)
#: that is built and printed in about 2 s (x86_64, Python 3.11.7).  Time and
#: memory grow as n**2 for rho and as n**3 for tau.
AXIOM_MAX_N = {"rho": 360, "tau": 90}


def _check_axiom_budget(kind: str, n: int) -> None:
    if type(n) is not int or n < 1:  # bool too: True is not a count
        raise ValueError(f"need n >= 1, got {_shown(n)}")
    limit = AXIOM_MAX_N[kind]
    if n > limit:
        raise ValueError(
            f"the {kind} axiom supports n <= {limit}: "
            f"the n = {_shown(n)} axiom takes too long to build"
        )


def ruspini_axiom(n: int) -> Formula:
    """Disjunction saying: two variables are positive, or one variable is 1
    and the rest are 0.  Its value-1 set is the Ruspini forest."""
    _check_axiom_budget("rho", n)
    pair_terms = [
        And(Not(Not(Var(i))), Not(Not(Var(j))))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    single_terms = [
        conjunction([Var(i)] + [Not(Var(j)) for j in range(1, n + 1) if j != i])
        for i in range(1, n + 1)
    ]
    return disjunction(pair_terms + single_terms)


def overlap_axiom(n: int) -> Formula:
    """Conjunction forbidding three simultaneously positive variables; 1 when
    n < 3.  Its value-1 set is the two-overlap forest."""
    _check_axiom_budget("tau", n)
    terms = [
        Not(And(And(Var(i), Var(j)), Var(k)))
        for i, j, k in itertools.combinations(range(1, n + 1), 3)
    ]
    return conjunction(terms)


def _leaf_column(leaf: AssignmentClass) -> tuple[Fraction, ...]:
    """Membership values realizing a Ruspini-forest leaf, summing to exactly 1.

    One-variable-at-1 leaves use the 0/1 column.  Positive-chain leaves with
    blocks of sizes w1..wk get value i / sum(j * wj) on block i, which is
    strictly increasing, stays below 1, and makes the total exactly 1.
    """
    from fractions import Fraction

    values = [Fraction(0)] * leaf.n
    if leaf.one:
        values[leaf.one[0] - 1] = Fraction(1)
        return tuple(values)
    weight = sum(idx * len(block) for idx, block in enumerate(leaf.mid, start=1))
    for idx, block in enumerate(leaf.mid, start=1):
        for v in block:
            values[v - 1] = Fraction(idx, weight)
    return tuple(values)


def synthesize_partition(classes: Iterable[AssignmentClass]) -> Partition:
    """Step-function partition whose realized classes are exactly the
    downset of the given classes, a Ruspini subforest: the classes are over
    one n, and their maximal ones are Ruspini-forest leaves.

    With m maximal classes, [0, 1] splits into m equal intervals (the last
    one closed); on the j-th interval, in `class_key` order, the membership
    values are the j-th maximal class's column.  The result sums to 1
    everywhere, and each set has at most m - 1 jumps.  No forest is built,
    so it takes any n.
    """
    from fractions import Fraction

    from .classes import _maximal, is_ruspini_leaf
    from .partitions import Partition, PiecewiseLinearFuzzySet

    leaves = _maximal(classes)
    if not leaves:
        raise ValueError("cannot synthesize a partition from an empty subforest")
    n = leaves[0].n
    for leaf in leaves:  # a class's ancestors are over its n, so the maxima show every n
        if leaf.n != n:
            raise ValueError(f"classes over {n} and {leaf.n} variables do not share a forest")
        if not is_ruspini_leaf(leaf):
            raise ValueError("subforest is not a Ruspini subforest")
    m = len(leaves)
    columns = [_leaf_column(leaf) for leaf in leaves]
    sets = []
    for i in range(n):
        levels = [col[i] for col in columns]
        points: list[tuple[Fraction, Fraction]] = [(Fraction(0), levels[0])]
        for j in range(1, m):
            if levels[j] != levels[j - 1]:
                x = Fraction(j, m)
                points.append((x, levels[j - 1]))
                points.append((x, levels[j]))
        points.append((Fraction(1), levels[-1]))
        sets.append(PiecewiseLinearFuzzySet(f"f{i + 1}", tuple(points)))
    return Partition(tuple(sets))


class AnalysisReport(_Record):
    """Full verdict sheet for one partition.

    Each check triple holds (direct, forest, proof) verdicts for one
    equivalence: the direct numeric/semantic condition, the realized-forest
    condition, and the provability condition.  The three entries of a triple
    must always agree.
    """

    __slots__ = __match_args__ = (
        "n", "realized_leaves", "is_exact_ruspini", "is_weak_ruspini", "is_2_overlapping",
        "axiom", "ruspini_checks", "overlap_checks", "combined_checks",
    )
    n: int
    realized_leaves: tuple[AssignmentClass, ...]
    is_exact_ruspini: bool
    is_weak_ruspini: bool
    is_2_overlapping: bool
    axiom: Formula
    ruspini_checks: tuple[bool, bool, bool]
    overlap_checks: tuple[bool, bool, bool]
    combined_checks: tuple[bool, bool, bool]

    def __init__(self, n, realized_leaves, is_exact_ruspini, is_weak_ruspini, is_2_overlapping,
                 axiom, ruspini_checks, overlap_checks, combined_checks) -> None:
        self.__setstate__((n, realized_leaves, is_exact_ruspini, is_weak_ruspini, is_2_overlapping,
                           axiom, ruspini_checks, overlap_checks, combined_checks))


def analyze(p: Partition) -> AnalysisReport:
    """Evaluate every characterization independently and report them all.

    Weak-Ruspini: (direct) every realized class lies below a realized class
    that is maximal in the Ruspini forest; (forest) the realized forest is a
    Ruspini subforest; (proof) the axiom is provably equivalent to the
    disjunction of normal forms over its maximal elements that are maximal in
    the Ruspini forest.  Two-overlap: (direct) no three sets positive at
    once; (forest) realized forest inside the two-overlap forest; (proof) the
    4-valued logic proves axiom -> overlap axiom.  Combined: both at once,
    with the proof check run entirely inside the 4-valued logic.
    """
    from .classes import _maximal, is_ruspini_leaf, leq
    from .forest import (downset, enumerate_forest, full_subforest, is_ruspini_subforest,
                         truncated_subforest, two_overlap_subforest)
    from .partitions import check_2_overlapping, check_ruspini_exact, realized_classes
    from .semantics import formula_forest

    forest = enumerate_forest(p.n)
    realized = realized_classes(p)
    leaves = _maximal(realized)
    alpha = _axiom_of(leaves)
    fp = downset(forest, realized)
    full, g4 = full_subforest(forest), truncated_subforest(forest, 4)

    ruspini_direct = all(
        any(leq(c, d) and is_ruspini_leaf(d) for d in realized) for c in realized
    )
    ruspini_forest_check = is_ruspini_subforest(fp)
    f_alpha = formula_forest(alpha, forest)
    f_rhs = formula_forest(
        _axiom_of([l for l in f_alpha.leaves() if is_ruspini_leaf(l)]), forest
    )
    f_iff = f_alpha.implies(f_rhs).meet(f_rhs.implies(f_alpha))
    ruspini_proof = full.issubset(f_iff)

    overlap_direct = check_2_overlapping(p)
    overlap_forest_check = fp.issubset(two_overlap_subforest(forest))
    f_implies = f_alpha.implies(formula_forest(overlap_axiom(p.n), forest))
    overlap_proof = g4.issubset(f_implies)

    combined_direct = ruspini_direct and overlap_direct
    combined_forest = ruspini_forest_check and overlap_forest_check
    combined_proof = g4.issubset(f_iff.meet(f_implies))

    return AnalysisReport(
        n=p.n,
        realized_leaves=leaves,
        is_exact_ruspini=check_ruspini_exact(p),
        is_weak_ruspini=ruspini_forest_check,
        is_2_overlapping=overlap_direct,
        axiom=alpha,
        ruspini_checks=(ruspini_direct, ruspini_forest_check, ruspini_proof),
        overlap_checks=(overlap_direct, overlap_forest_check, overlap_proof),
        combined_checks=(combined_direct, combined_forest, combined_proof),
    )
