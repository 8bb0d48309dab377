import itertools
import json
import random
import time

import pytest

from godelforest import (
    AssignmentClass,
    Forest,
    GINF,
    And,
    Bot,
    Iff,
    Implies,
    Lhd,
    Logic,
    Not,
    Or,
    Partition,
    PiecewiseLinearFuzzySet,
    Top,
    Var,
    analyze,
    axiomatize_partition,
    axiomatize_subforest,
    chain_normal_form,
    check_2_overlapping,
    class_from_json,
    class_of_values,
    class_to_json,
    check_ruspini_exact,
    count_2overlap_weak_ruspini,
    count_leaves,
    count_weak_ruspini,
    disjunction,
    downset,
    empty_subforest,
    enumerate_forest,
    formula_forest,
    full_subforest,
    generating_subforest,
    is_ruspini_leaf,
    is_ruspini_subforest,
    is_tautology,
    is_weak_ruspini,
    ordered_bell,
    overlap_axiom,
    parse_formula,
    partition_forest,
    partition_from_json,
    partition_to_json,
    proves_equiv,
    proves_implies,
    realized_classes,
    ruspini_axiom,
    ruspini_subforest,
    synthesize_partition,
    truncated_subforest,
    two_overlap_subforest,
)
from godelforest.axioms import AXIOM_MAX_N
from godelforest.classes import _maximal
from godelforest.counts import COUNT_MAX_N
from helpers import (
    cls,
    fr,
    random_exact_partition,
    random_partition,
    random_ruspini_subforest,
    reference_forest,
    reference_maximal,
    reference_ordered_bell,
    stirling2,
    triangular_partition,
)


def pl(name, *pts):
    return PiecewiseLinearFuzzySet(name, tuple((fr(x), fr(y)) for x, y in pts))


def constant(name, value):
    return pl(name, ("0", value), ("1", value))


def test_chain_normal_form_structure():
    psi = chain_normal_form(cls(2, zero=[1], mid=[[2]]))
    assert psi == And(And(Iff(Bot(), Var(1)), Lhd(Var(1), Var(2))), Lhd(Var(2), Top()))

    psi0 = chain_normal_form(cls(2, zero=[1, 2]))
    assert psi0 == And(
        And(Iff(Bot(), Var(1)), Iff(Var(1), Var(2))), Lhd(Var(2), Top())
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_normal_form_carves_the_downset(n):
    forest = enumerate_forest(n)
    for c in reference_forest(n).nodes:
        assert (
            formula_forest(chain_normal_form(c), forest).members
            == downset(forest, [c]).members
        ), c


def test_axiomatize_subforest():
    forest = enumerate_forest(2)
    full = full_subforest(forest)
    assert proves_equiv(axiomatize_subforest(full), Top(), 2)

    single = downset(forest, [cls(2, mid=[[1], [2]])])
    assert proves_equiv(
        axiomatize_subforest(single), chain_normal_form(cls(2, mid=[[1], [2]])), 2
    )

    with pytest.warns(UserWarning):
        formula = axiomatize_subforest(empty_subforest(forest))
    assert formula == Bot()


def test_axiomatize_subforest_roundtrip_random():
    rng = random.Random(808)
    for n in (2, 3):
        forest = enumerate_forest(n)
        for _ in range(25):
            sub = random_ruspini_subforest(rng, forest)
            assert formula_forest(axiomatize_subforest(sub), forest).members == sub.members


def test_axiomatize_partition_constant_one():
    p = Partition((constant("f1", "1"),))
    assert proves_equiv(axiomatize_partition(p), Var(1), 1)


def test_axiomatize_partition_matches_partition_forest():
    p = Partition((pl("f1", ("0", "0"), ("1", "1")), pl("f2", ("0", "1"), ("1", "0"))))
    forest = enumerate_forest(2)
    assert (
        formula_forest(axiomatize_partition(p), forest).members
        == partition_forest(p).members
    )


def test_axiom_and_weak_verdict_build_no_forest(monkeypatch):
    from godelforest import forest

    rng = random.Random(16)
    cases = [make(rng, n) for n in range(1, 7) for make in (random_partition,
                                                            random_exact_partition)]
    # The forest route, before any forest is refused.
    expected = []
    for p in cases:
        fp = partition_forest(p)
        expected.append((axiomatize_subforest(fp), is_ruspini_subforest(fp)))

    def refuse(*args):
        raise AssertionError("a forest was built")

    # `partition_forest` reads `enumerate_forest` from `forest` when called.
    monkeypatch.setattr(forest, "enumerate_forest", refuse)
    monkeypatch.setattr(forest.Forest, "__init__", refuse)
    for p, (axiom, weak) in zip(cases, expected):
        assert axiomatize_partition(p) == axiom
        assert is_weak_ruspini(p) == weak
    for k in (9, 12, 20):
        p = triangular_partition(k)
        assert is_weak_ruspini(p)
        assert axiomatize_partition(p) == disjunction(
            [chain_normal_form(c) for c in reference_maximal(realized_classes(p))]
        )


def test_godel_equivalent_partitions_share_axioms():
    linear = Partition(
        (pl("f1", ("0", "0"), ("1", "1")), pl("f2", ("0", "1"), ("1", "0")))
    )
    # different breakpoints, same class pattern: rise happens on [1/4, 3/4]
    reshaped = Partition(
        (
            pl("f1", ("0", "0"), ("1/4", "0"), ("1/4", "1/4"), ("3/4", "3/4"), ("1", "1")),
            pl("f2", ("0", "1"), ("1/4", "1"), ("1/4", "3/4"), ("3/4", "1/4"), ("1", "0")),
        )
    )
    assert partition_forest(linear).members == partition_forest(reshaped).members
    assert proves_equiv(axiomatize_partition(linear), axiomatize_partition(reshaped), 2)


def test_ruspini_axiom_shape_and_forest():
    rho2 = ruspini_axiom(2)
    assert rho2 == parse_formula("~~X1 & ~~X2 | X1 & ~X2 | X2 & ~X1")
    for n in (2, 3, 4):
        forest = enumerate_forest(n)
        assert (
            formula_forest(ruspini_axiom(n), forest).members
            == ruspini_subforest(forest).members
        )
    # single-set family: the only admissible class has X1 at 1
    f1 = enumerate_forest(1)
    assert formula_forest(ruspini_axiom(1), f1).members == frozenset(
        {cls(1, one=[1])}
    )
    with pytest.raises(ValueError):
        ruspini_axiom(0)


@pytest.mark.parametrize("builder, kind", [(ruspini_axiom, "rho"), (overlap_axiom, "tau")])
def test_stock_axioms_refuse_past_their_budget_at_once(builder, kind):
    limit = AXIOM_MAX_N[kind]
    for n in (limit + 1, 10 * limit, 10**9):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"^the {kind} axiom supports n <= {limit}: "
                                             f"the n = {n} axiom takes too long to build$"):
            builder(n)
        assert time.perf_counter() - started < 1
    with pytest.raises(ValueError, match="need n >= 1"):
        builder(-5)


def test_stock_axiom_budget_admits_its_limits():
    assert AXIOM_MAX_N == {"rho": 360, "tau": 90}
    rho = ruspini_axiom(AXIOM_MAX_N["rho"])
    assert isinstance(rho, Or)
    tau = overlap_axiom(AXIOM_MAX_N["tau"])
    assert isinstance(tau, And) and isinstance(tau.right, Not)


def test_overlap_axiom_shape_and_forest():
    assert overlap_axiom(3) == parse_formula("~(X1 & X2 & X3)")
    assert overlap_axiom(1) == Top()
    assert overlap_axiom(2) == Top()
    for n in (2, 3, 4):
        forest = enumerate_forest(n)
        assert (
            formula_forest(overlap_axiom(n), forest).members
            == two_overlap_subforest(forest).members
        )


def test_paper_identities_at_scale_on_masks_only():
    # The value-1 sets of rho_n and tau_n are R_n and T_n, and the full
    # forest has count_leaves(n) maximal classes: those with nothing at 1.
    for n in range(5, 9):
        forest = Forest(n)
        assert formula_forest(ruspini_axiom(n), forest).mask == forest.ruspini
        assert formula_forest(overlap_axiom(n), forest).mask == forest.two_overlap
        some_one = 0
        for g in forest.generators:
            some_one |= g
        assert (forest.full & ~some_one).bit_count() == count_leaves(n)
        assert "nodes" not in forest.__dict__


def test_counting_formulas():
    assert [count_leaves(n) for n in range(1, 6)] == [2, 6, 26, 150, 1082]
    assert [ordered_bell(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    assert stirling2(4, 2) == 7
    assert count_weak_ruspini(2) == 31
    assert count_2overlap_weak_ruspini(2) == 31
    assert count_2overlap_weak_ruspini(3) == 4095
    assert count_weak_ruspini(3) == 2**25 - 1
    with pytest.raises(ValueError):
        count_leaves(0)


@pytest.mark.parametrize(
    "count, kind, n",
    [
        (count_leaves, "leaves", 4001),
        (count_leaves, "leaves", 20000),
        (count_weak_ruspini, "weak-ruspini", 9),
        (count_weak_ruspini, "weak-ruspini", 12),
        (count_2overlap_weak_ruspini, "overlap2", 851),
        (count_2overlap_weak_ruspini, "overlap2", 2000),
        (ordered_bell, "leaves", 4001),
        (ordered_bell, "leaves", 20000),
    ],
)
def test_counts_refuse_n_past_their_budget(count, kind, n):
    message = f"^the {kind} count supports n <= {COUNT_MAX_N[kind]}: "
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        count(n)
    assert time.perf_counter() - started < 1


def test_count_budget_admits_its_limits():
    assert COUNT_MAX_N == {"leaves": 4000, "weak-ruspini": 8, "overlap2": 850}
    for value, bits in (
        (count_weak_ruspini(8), count_leaves(8) - 1),
        (count_2overlap_weak_ruspini(850), (3 * 850 * 850 - 850) // 2),
    ):
        assert value == (1 << bits) - 1


def test_ordered_bell_matches_the_stirling_sum():
    # The Stirling recursion is as deep as n; n <= 300 stays inside the
    # default recursion limit when the cache is filled in increasing n.
    assert all(ordered_bell(n) == reference_ordered_bell(n) for n in range(301))
    with pytest.raises(ValueError):
        ordered_bell(-1)


# A size that is not an int, bool included, gets one ValueError line, not a
# TypeError, a float count or the answer for 1.
@pytest.mark.parametrize("build, message", [
    (lambda: count_2overlap_weak_ruspini(2.5), "need n >= 1, got 2.5"),
    (lambda: count_leaves(2.5), "need n >= 1, got 2.5"),
    (lambda: count_weak_ruspini(2.5), "need n >= 1, got 2.5"),
    (lambda: ruspini_axiom(2.0), "need n >= 1, got 2.0"),
    (lambda: overlap_axiom(3.0), "need n >= 1, got 3.0"),
    (lambda: enumerate_forest(2).truncation(2.5), "a finite-valued logic needs t >= 2, got 2.5"),
    (lambda: truncated_subforest(enumerate_forest(2), 3.0),
     "a finite-valued logic needs t >= 2, got 3.0"),
    (lambda: ordered_bell(True), "need n >= 0, got True"),
    (lambda: count_leaves(True), "need n >= 1, got True"),
    (lambda: ruspini_axiom(True), "need n >= 1, got True"),
    (lambda: overlap_axiom(True), "need n >= 1, got True"),
    (lambda: generating_subforest(True, enumerate_forest(2)),
     "variable index True out of range 1..2"),
    (lambda: AssignmentClass(2.0, (), (), (1, 2)), "variable count 2.0 is not an integer"),
    (lambda: class_from_json({"zero": [], "mid": [], "one": [1]}, True),
     "variable count True is not an integer"),
], ids=["overlap2-float", "leaves-float", "weak-ruspini-float", "rho-float", "tau-float",
        "truncation-float", "truncated-subforest-float", "bell-bool", "leaves-bool", "rho-bool",
        "tau-bool", "generator-bool", "class-float", "class-json-bool"])
def test_sizes_that_are_not_ints_get_one_value_error_line(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_weak_ruspini_count_matches_exhaustive_enumeration():
    forest = enumerate_forest(2)
    nodes = reference_forest(2).nodes
    found = 0
    for r in range(len(nodes) + 1):
        for chosen in itertools.combinations(nodes, r):
            chosen_set = frozenset(chosen)
            if not all(
                c.parent() is None or c.parent() in chosen_set for c in chosen_set
            ):
                continue
            from godelforest import Subforest

            if is_ruspini_subforest(Subforest(forest, chosen_set)):
                found += 1
    assert found == count_weak_ruspini(2) == 31


def test_synthesize_single_boolean_leaf():
    p = synthesize_partition([cls(2, zero=[2], one=[1])])
    for x in (fr(0), fr("1/3"), fr(1)):
        assert p.sets[0].value_at(x) == 1
        assert p.sets[1].value_at(x) == 0


def test_synthesize_value_rule():
    p = synthesize_partition([cls(2, mid=[[1], [2]])])
    assert p.values_at(fr("1/2")) == (fr("1/3"), fr("2/3"))
    p2 = synthesize_partition([cls(2, mid=[[1, 2]])])
    assert p2.values_at(fr("1/2")) == (fr("1/2"), fr("1/2"))


def test_synthesize_rejects_bad_input():
    forest = enumerate_forest(2)
    for classes, message in [
        ([], "cannot synthesize a partition from an empty subforest"),
        (full_subforest(forest).members, "subforest is not a Ruspini subforest"),
        ([cls(2, zero=[2], one=[1]), cls(3, mid=[[1, 2, 3]])],
         "classes over 3 and 2 variables do not share a forest"),
    ]:
        with pytest.raises(ValueError) as info:
            synthesize_partition(classes)
        assert str(info.value) == message


def test_synthesis_refuses_exactly_where_the_downset_is_not_ruspini():
    # Arbitrary seeded classes; the forest route decides which to refuse.
    rng = random.Random(18)
    outcomes = set()
    for k in range(600):
        n = 1 + k % 5
        forest = enumerate_forest(n)
        seeds = [class_of_values([fr(rng.randint(0, 4)) / 4 for _ in range(n)])
                 for _ in range(rng.randint(0, 3))]
        sub = downset(forest, seeds)
        try:
            p = synthesize_partition(seeds)
        except ValueError:
            assert not is_ruspini_subforest(sub), seeds
            outcomes.add("refused")
            continue
        assert is_ruspini_subforest(sub), seeds
        assert _maximal(realized_classes(p)) == sub.leaves()
        assert partition_forest(p) == sub and check_ruspini_exact(p)
        outcomes.add("synthesized")
    assert outcomes == {"refused", "synthesized"}


def test_synthesis_builds_no_forest(monkeypatch, tmp_path, capsys):
    from godelforest import forest
    from godelforest.cli import main

    leaves = [cls(3, mid=[[1], [2, 3]]), cls(3, zero=[1, 2], one=[3]),
              cls(3, mid=[[1]], one=[2, 3])]
    expected = partition_to_json(synthesize_partition(leaves))
    assert partition_forest(partition_from_json(expected)) == downset(enumerate_forest(3), leaves)

    def refuse(*args):
        raise AssertionError("a forest was built")

    monkeypatch.setattr(forest, "enumerate_forest", refuse)
    monkeypatch.setattr(forest.Forest, "__init__", refuse)
    assert partition_to_json(synthesize_partition(leaves)) == expected
    assert synthesize_partition([cls(12, zero=range(2, 13), one=[1])]).n == 12
    monkeypatch.chdir(tmp_path)
    (tmp_path / "leaves.json").write_text(json.dumps([class_to_json(c) for c in leaves]))
    assert main(["synthesize", "leaves.json", "--n", "3", "-o", "out.json"]) == 0
    # Two maxima: the third class lies below the first.
    assert capsys.readouterr() == ("wrote 3 sets over 2 intervals to out.json\n", "")
    assert json.loads((tmp_path / "out.json").read_text()) == expected


def count_jumps(fset):
    return sum(
        1 for (ax, _), (bx, _) in itertools.pairwise(fset.points) if ax == bx
    )


def test_synthesis_roundtrip_exhaustive_n2():
    forest = enumerate_forest(2)
    leaves = ruspini_subforest(forest).leaves()
    assert len(leaves) == 5
    for r in range(1, len(leaves) + 1):
        for chosen in itertools.combinations(leaves, r):
            sub = downset(forest, chosen)
            p = synthesize_partition(chosen)
            assert check_ruspini_exact(p)
            assert partition_forest(p).members == sub.members
            m = len(sub.leaves())
            assert all(count_jumps(f) <= m - 1 for f in p.sets)


def test_synthesis_roundtrip_sampled_n3():
    rng = random.Random(3141)
    forest = enumerate_forest(3)
    for _ in range(30):
        sub = random_ruspini_subforest(rng, forest)
        p = synthesize_partition(sub.members)  # any classes: their maxima count
        assert check_ruspini_exact(p)
        assert is_weak_ruspini(p)  # exact always implies weak
        assert partition_forest(p).members == sub.members


def test_two_overlap_subforests_synthesize_two_overlap_partitions():
    rng = random.Random(777)
    forest = enumerate_forest(3)
    tn = two_overlap_subforest(forest)
    candidates = [l for l in ruspini_subforest(forest).leaves() if l in tn]
    for _ in range(15):
        chosen = rng.sample(candidates, rng.randint(1, len(candidates)))
        p = synthesize_partition(chosen)
        assert check_2_overlapping(p)
        assert check_ruspini_exact(p)


def test_analyze_positive_instance():
    forest = enumerate_forest(3)
    tn = two_overlap_subforest(forest)
    leaves = [l for l in ruspini_subforest(forest).leaves() if l in tn][:4]
    p = synthesize_partition(leaves)
    report = analyze(p)
    assert report.is_exact_ruspini
    assert report.is_weak_ruspini
    assert report.is_2_overlapping
    for triple in (report.ruspini_checks, report.overlap_checks, report.combined_checks):
        assert triple == (True, True, True)


def test_analyze_three_halves_separates_the_properties():
    p = Partition(
        (constant("f1", "1/2"), constant("f2", "1/2"), constant("f3", "1/2"))
    )
    report = analyze(p)
    assert report.is_weak_ruspini  # the realized class is maximal in the Ruspini forest
    assert not report.is_2_overlapping
    assert not report.is_exact_ruspini
    assert report.ruspini_checks == (True, True, True)
    assert report.overlap_checks == (False, False, False)
    assert report.combined_checks == (False, False, False)


def test_analyze_all_ones_fails_ruspini():
    p = Partition((constant("f1", "1"), constant("f2", "1")))
    assert realized_classes_count(p) == 1
    report = analyze(p)
    assert report.ruspini_checks == (False, False, False)
    assert report.overlap_checks == (True, True, True)
    assert report.combined_checks == (False, False, False)


def realized_classes_count(p):
    from godelforest import realized_classes

    return len(realized_classes(p))


def test_analyze_consistency_and_finite_logic_agreement():
    rng = random.Random(60221023)
    forest3 = enumerate_forest(3)
    instances = [
        Partition((constant("f1", "1"), constant("f2", "1"))),
        Partition((constant("f1", "1/2"),)),
        Partition(
            (constant("f1", "1/2"), constant("f2", "1/2"), constant("f3", "1/2"))
        ),
        Partition(
            (
                pl("f1", ("0", "1"), ("1", "0")),
                pl("f2", ("0", "0"), ("1/2", "1"), ("1", "0")),
                pl("f3", ("0", "0"), ("1", "1")),
            )
        ),
    ]
    for _ in range(8):
        instances.append(
            synthesize_partition(random_ruspini_subforest(rng, forest3).leaves())
        )
    g4 = Logic(4)
    for p in instances:
        report = analyze(p)
        for triple in (
            report.ruspini_checks,
            report.overlap_checks,
            report.combined_checks,
        ):
            assert len(set(triple)) == 1, (p, report)
        alpha = axiomatize_partition(p)
        tau = overlap_axiom(p.n)
        assert proves_implies(alpha, tau, p.n, g4) == proves_implies(
            alpha, tau, p.n, GINF
        )


def test_analyze_proof_entries_equal_the_decision_procedures():
    # The report reads its proof verdicts off three value-1 subforests; the
    # decision procedures build the compound formulas and evaluate them anew.
    rng = random.Random(90210)
    g4 = Logic(4)
    verdicts = set()
    for k in range(48):
        n = 1 + k % 4
        if k % 3:
            p = random_partition(rng, n)
        else:
            p = synthesize_partition(random_ruspini_subforest(rng, enumerate_forest(n)).leaves())
        report = analyze(p)
        fp = partition_forest(p)  # the maxima analyze reads without a forest
        assert (report.realized_leaves, report.axiom) == (fp.leaves(), axiomatize_subforest(fp))
        alpha, tau = report.axiom, overlap_axiom(n)
        rhs =disjunction([chain_normal_form(c) for c in
                           formula_forest(alpha, enumerate_forest(n)).leaves()
                           if is_ruspini_leaf(c)])
        expected = (
            proves_equiv(alpha, rhs, n, GINF),
            proves_implies(alpha, tau, n, g4),
            is_tautology(And(Iff(alpha, rhs), Implies(alpha, tau)), n, g4),
        )
        assert is_tautology(Iff(alpha, rhs), n, GINF) is expected[0]
        assert is_tautology(Implies(alpha, tau), n, g4) is expected[1]
        got = (report.ruspini_checks[2], report.overlap_checks[2], report.combined_checks[2])
        assert got == expected, p
        verdicts.add(expected)
    # Each check says yes on some partitions and no on others.
    assert all({v[i] for v in verdicts} == {True, False} for i in range(3))


def test_analyze_evaluates_each_formula_once(monkeypatch):
    import godelforest.semantics

    evaluated = []
    original = godelforest.semantics.formula_forest

    def counting(f, forest):
        evaluated.append(f)
        return original(f, forest)

    # `analyze` reads semantics.formula_forest when it is called.
    monkeypatch.setattr(godelforest.semantics, "formula_forest", counting)
    p = synthesize_partition(ruspini_subforest(enumerate_forest(3)).leaves())
    report = analyze(p)
    # alpha, the right-hand side of the equivalence, and tau; once each.
    assert len(evaluated) == 3
    assert evaluated[0] is report.axiom and evaluated[2] == overlap_axiom(3)
    assert report.ruspini_checks == (True, True, True)
    assert report.overlap_checks == report.combined_checks == (False, False, False)


def test_analyze_walks_each_subforest_once(monkeypatch):
    walked = []
    original = Forest.walk

    def counting(forest, mask):
        walked.append(mask)
        return original(forest, mask)

    p = synthesize_partition(ruspini_subforest(enumerate_forest(3)).leaves())
    monkeypatch.setattr(Forest, "walk", counting)
    report = analyze(p)
    # The realized forest (axiomatized, checked and reported) and alpha's
    # value-1 set (for the equivalence's right-hand side): equal masks, two
    # subforests, one walk each.
    assert walked == [enumerate_forest(3).ruspini] * 2
    assert report.realized_leaves == ruspini_subforest(enumerate_forest(3)).leaves()


def test_axiomatize_arbitrary_subforests():
    # the normal-form disjunction works for any nonempty downset, not just
    # the ones a partition can realize
    from helpers import random_subforest

    rng = random.Random(11235)
    for n in (2, 3):
        forest = enumerate_forest(n)
        done = 0
        while done < 25:
            sub = random_subforest(rng, forest)
            if not sub.members:
                continue
            alpha = axiomatize_subforest(sub)
            assert formula_forest(alpha, forest).members == sub.members
            rhs = alpha  # the axiom is its own normal-form disjunction
            assert proves_equiv(alpha, rhs, n)
            done += 1
