"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest still shows them for failing tests.
"""

import itertools
import random
import time

from godelforest import (
    GINF,
    And,
    Implies,
    Logic,
    Not,
    Or,
    Partition,
    PiecewiseLinearFuzzySet,
    Subforest,
    analyze,
    axiomatize_partition,
    chain_normal_form,
    check_ruspini_exact,
    count_2overlap_weak_ruspini,
    count_leaves,
    count_weak_ruspini,
    downset,
    empty_subforest,
    enumerate_forest,
    eval_formula,
    formula_forest,
    full_subforest,
    grid_tautology_oracle,
    is_ruspini_subforest,
    is_tautology,
    overlap_axiom,
    partition_forest,
    proves_implies,
    ruspini_axiom,
    ruspini_subforest,
    synthesize_partition,
    two_overlap_subforest,
)
from helpers import (
    cls,
    fr,
    random_formula,
    random_ruspini_subforest,
    random_witness,
    reference_forest,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def pl(name, *pts):
    return PiecewiseLinearFuzzySet(name, tuple((fr(x), fr(y)) for x, y in pts))


def constant(name, value):
    return pl(name, ("0", value), ("1", value))


def test_criterion_01_leaf_counts():
    start = time.monotonic()
    expected = [2, 6, 26, 150, 1082]
    enumerated = [len(full_subforest(enumerate_forest(n)).leaves()) for n in range(1, 6)]
    formula = [count_leaves(n) for n in range(1, 6)]
    elapsed = time.monotonic() - start
    ok = enumerated == expected == formula and elapsed < 30
    _report(
        1,
        ok,
        f"full-forest leaf counts n=1..5 enumerated {enumerated}, "
        f"formula {formula}, expected {expected}, {elapsed:.2f}s",
    )


def test_criterion_02_ruspini_leaf_counts():
    counts = [len(ruspini_subforest(enumerate_forest(n)).leaves()) for n in range(1, 6)]
    expected = [count_leaves(n) - 1 for n in range(1, 6)]
    ok = counts == expected
    _report(2, ok, f"Ruspini-forest leaf counts n=1..5 {counts}, expected {expected}")


def test_criterion_03_ruspini_overlap_leaf_counts():
    counts = []
    for n in range(2, 6):
        forest = enumerate_forest(n)
        inter = ruspini_subforest(forest).meet(two_overlap_subforest(forest))
        counts.append(len(inter.leaves()))
    expected = [(3 * n * n - n) // 2 for n in range(2, 6)]
    ok = counts == expected == [5, 12, 22, 35]
    _report(3, ok, f"Ruspini/two-overlap leaf counts n=2..5 {counts}, expected {expected}")


def test_criterion_04_stock_axioms_carve_their_forests():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        forest = enumerate_forest(n)
        ok &= (
            formula_forest(ruspini_axiom(n), forest).members
            == ruspini_subforest(forest).members
        )
        ok &= (
            formula_forest(overlap_axiom(n), forest).members
            == two_overlap_subforest(forest).members
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(4, ok, f"stock axiom forests equal their target forests n=2..4, {elapsed:.2f}s")


def test_criterion_05_chain_normal_forms():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        forest = enumerate_forest(n)
        for c in reference_forest(n).nodes:
            ok &= (
                formula_forest(chain_normal_form(c), forest).members
                == downset(forest, [c]).members
            )
            checked += 1
    _report(5, ok, f"chain normal forms carve downsets for all {checked} classes, n<=3")


def test_criterion_06_compositionality_and_class_invariance():
    rng = random.Random(20260811)
    forest = enumerate_forest(3)
    comp_ok = True
    invariance_ok = True
    for _ in range(200):
        a = random_formula(rng, 3, 6)
        b = random_formula(rng, 3, 6)
        fa, fb = formula_forest(a, forest), formula_forest(b, forest)
        comp_ok &= formula_forest(And(a, b), forest).members == fa.meet(fb).members
        comp_ok &= formula_forest(Or(a, b), forest).members == fa.join(fb).members
        comp_ok &= (
            formula_forest(Implies(a, b), forest).members == fa.implies(fb).members
        )
        comp_ok &= (
            formula_forest(Not(a), forest).members
            == fa.implies(empty_subforest(forest)).members
        )
        for _ in range(10):
            c = rng.choice(reference_forest(3).nodes)
            w1, w2 = random_witness(rng, c), random_witness(rng, c)
            invariance_ok &= (eval_formula(a, w1) == 1) == (eval_formula(a, w2) == 1)
    ok = comp_ok and invariance_ok
    _report(
        6,
        ok,
        "200 random formulas: connectives match subforest operations "
        f"({comp_ok}), value-1 status class-invariant over witness pairs ({invariance_ok})",
    )


def test_criterion_07_finite_valued_oracle_equivalence():
    rng = random.Random(70707)
    disagreements = 0
    for _ in range(200):
        f = random_formula(rng, 3, 6)
        for t in (2, 3, 4, 5):
            if is_tautology(f, 3, Logic(t)) != grid_tautology_oracle(f, 3, t):
                disagreements += 1
    ok = disagreements == 0
    _report(
        7,
        ok,
        f"forest vs grid tautology decisions, 200 formulas x t in 2..5: "
        f"{disagreements} disagreements",
    )


def _count_jumps(fset: PiecewiseLinearFuzzySet) -> int:
    return sum(1 for (ax, _), (bx, _) in itertools.pairwise(fset.points) if ax == bx)


def test_criterion_08_synthesis_roundtrip():
    start = time.monotonic()
    ok = True
    f2 = enumerate_forest(2)
    leaves2 = ruspini_subforest(f2).leaves()
    subsets = 0
    for r in range(1, len(leaves2) + 1):
        for chosen in itertools.combinations(leaves2, r):
            sub = downset(f2, chosen)
            p = synthesize_partition(chosen)
            m = len(sub.leaves())
            ok &= partition_forest(p).members == sub.members
            ok &= check_ruspini_exact(p)
            ok &= all(_count_jumps(f) <= m - 1 for f in p.sets)
            subsets += 1
    rng = random.Random(88)
    f3 = enumerate_forest(3)
    for _ in range(100):
        sub = random_ruspini_subforest(rng, f3)
        p = synthesize_partition(sub.leaves())
        m = len(sub.leaves())
        ok &= partition_forest(p).members == sub.members
        ok &= check_ruspini_exact(p)
        ok &= all(_count_jumps(f) <= m - 1 for f in p.sets)
    elapsed = time.monotonic() - start
    ok = ok and subsets == 31 and elapsed < 120
    _report(
        8,
        ok,
        f"synthesis round trip on all {subsets} leaf subsets at n=2 and 100 "
        f"random Ruspini subforests at n=3, {elapsed:.2f}s",
    )


def _negative_instances() -> list[Partition]:
    return [
        Partition((constant("f1", "1"), constant("f2", "1"))),
        Partition((constant("f1", "1/2"),)),
        Partition((constant("f1", "1/3"),)),
        Partition((constant("f1", "0"),)),
        Partition((constant("f1", "1"), constant("f2", "1/2"))),
        Partition((constant("f1", "0"), constant("f2", "1/3"))),
        Partition((constant("f1", "1"), constant("f2", "1"), constant("f3", "1"))),
        Partition(
            (constant("f1", "1"), constant("f2", "1/2"), constant("f3", "0"))
        ),
        Partition(
            (
                pl("f1", ("0", "0"), ("1", "1")),
                pl("f2", ("0", "0"), ("1", "1")),
            )
        ),
        Partition(
            (
                pl("f1", ("0", "0"), ("1", "1/2")),
                constant("f2", "1/4"),
            )
        ),
    ]


def test_criterion_09_verdict_triples_and_finite_agreement():
    rng = random.Random(90909)
    f2, f3 = enumerate_forest(2), enumerate_forest(3)
    positives: list[Partition] = []
    leaves2 = ruspini_subforest(f2).leaves()
    for r in range(1, len(leaves2) + 1):
        for chosen in itertools.combinations(leaves2, r):
            positives.append(synthesize_partition(chosen))
    positives = positives[:12]
    for _ in range(8):
        positives.append(synthesize_partition(random_ruspini_subforest(rng, f3).leaves()))
    negatives = _negative_instances()
    assert len(positives) >= 20 and len(negatives) >= 10

    consistent = True
    finite_agreement = True
    g4 = Logic(4)
    for p in positives + negatives:
        report = analyze(p)
        for triple in (
            report.ruspini_checks,
            report.overlap_checks,
            report.combined_checks,
        ):
            consistent &= len(set(triple)) == 1
        alpha = axiomatize_partition(p)
        tau = overlap_axiom(p.n)
        finite_agreement &= proves_implies(alpha, tau, p.n, g4) == proves_implies(
            alpha, tau, p.n, GINF
        )
    positives_ok = all(analyze(p).is_weak_ruspini for p in positives)
    negatives_ok = all(not analyze(p).is_weak_ruspini for p in negatives)
    ok = consistent and finite_agreement and positives_ok and negatives_ok
    _report(
        9,
        ok,
        f"{len(positives)} positive / {len(negatives)} negative instances: "
        f"triples consistent ({consistent}), 4-valued vs infinite-valued "
        f"implication agreement ({finite_agreement})",
    )


def test_criterion_10_counting_corollaries():
    forest = enumerate_forest(2)
    nodes = reference_forest(2).nodes
    exhaustive = 0
    for r in range(len(nodes) + 1):
        for chosen in itertools.combinations(nodes, r):
            chosen_set = frozenset(chosen)
            if not all(
                c.parent() is None or c.parent() in chosen_set for c in chosen_set
            ):
                continue
            if is_ruspini_subforest(Subforest(forest, chosen_set)):
                exhaustive += 1
    leaf_counts = {}
    for n in (2, 3):
        fn = enumerate_forest(n)
        inter = ruspini_subforest(fn).meet(two_overlap_subforest(fn))
        leaf_counts[n] = len(inter.leaves())
    ok = (
        count_weak_ruspini(2) == exhaustive == 31
        and count_2overlap_weak_ruspini(2) == 2 ** leaf_counts[2] - 1 == 31
        and count_2overlap_weak_ruspini(3) == 2 ** leaf_counts[3] - 1 == 4095
    )
    _report(
        10,
        ok,
        f"weak-Ruspini count at n=2 exhaustive={exhaustive}, formula="
        f"{count_weak_ruspini(2)}; two-overlap counts n=2,3 = "
        f"{count_2overlap_weak_ruspini(2)}, {count_2overlap_weak_ruspini(3)} with "
        f"enumerated leaf counts {leaf_counts}",
    )


def test_criterion_11_structural_facts():
    ok = True
    for n in (1, 2, 3, 4):
        forest, ref = enumerate_forest(n), reference_forest(n)
        ok &= len(ref.roots) == 2**n
        ok &= all(not r.mid for r in ref.roots)
        height_one = [
            r for r in ref.roots if not ref.children[r] and not r.one
        ]
        ok &= height_one == [cls(n, zero=range(1, n + 1))]
        ok &= set(full_subforest(forest).leaves()) == {c for c in ref.nodes if not c.one}
    _report(
        11,
        ok,
        "n<=4: 2^n roots (all Boolean), exactly one height-1 tree (the all-zero "
        "class), leaves are exactly the classes with nothing at 1",
    )
