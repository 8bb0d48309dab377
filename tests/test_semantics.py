import random

import pytest

from godelforest import (
    GINF,
    And,
    Bot,
    Implies,
    Logic,
    Not,
    Or,
    Top,
    Var,
    enumerate_forest,
    eval_formula,
    formula_forest,
    grid_tautology_oracle,
    is_tautology,
    parse_formula,
    parse_logic,
    proves_equiv,
    proves_implies,
    overlap_axiom,
    ruspini_axiom,
    truncated_subforest,
    Subforest,
)
from helpers import lin_instance, random_formula, random_witness, reference_formula_forest


def test_logic_parsing():
    assert parse_logic("ginf") == GINF
    assert parse_logic("g4") == Logic.finite(4)
    assert parse_logic("G3").t == 3
    with pytest.raises(ValueError):
        parse_logic("g1")
    with pytest.raises(ValueError):
        parse_logic("lukasiewicz")
    assert str(GINF) == "ginf" and str(Logic.finite(5)) == "g5"


def test_formula_forest_constants():
    for n in (1, 2, 3):
        forest = enumerate_forest(n)
        assert formula_forest(Top(), forest).members == forest.node_set
        assert formula_forest(Bot(), forest).members == frozenset()


def test_formula_forest_arity_error():
    with pytest.raises(ValueError):
        formula_forest(Var(3), enumerate_forest(2))


def test_prelinearity_is_tautology():
    f = parse_formula("(X1 -> X2) | (X2 -> X1)")
    for n in (2, 3):
        assert is_tautology(f, n)
        assert is_tautology(f, n, Logic.finite(4))


def test_excluded_middle_fails():
    assert not is_tautology(parse_formula("X1 | ~X1"), 1)
    assert is_tautology(parse_formula("X1 | ~X1"), 1, Logic.finite(2))


def test_double_negation_elimination_by_logic():
    f = parse_formula("~~X1 -> X1")
    assert grid_tautology_oracle(f, 1, 2)
    assert not grid_tautology_oracle(f, 1, 3)
    assert is_tautology(f, 1, Logic.finite(2))
    assert not is_tautology(f, 1, Logic.finite(3))
    assert not is_tautology(f, 1)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_linearity_scheme_valid_exactly_up_to_its_rank(t):
    f = lin_instance(t)
    assert is_tautology(f, t, Logic.finite(t))
    assert grid_tautology_oracle(f, t, t)
    if t + 1 <= 5:
        assert not is_tautology(f, t, Logic.finite(t + 1))
    assert not is_tautology(f, t, GINF)


def test_grid_oracle_budget():
    with pytest.raises(ValueError):
        grid_tautology_oracle(Top(), 8, 12)
    with pytest.raises(ValueError):
        grid_tautology_oracle(Top(), 1, 1)


def test_forest_decision_agrees_with_grid_oracle():
    rng = random.Random(424242)
    for _ in range(80):
        f = random_formula(rng, 3, 5)
        for t in (2, 3, 4, 5):
            assert is_tautology(f, 3, Logic.finite(t)) == grid_tautology_oracle(
                f, 3, t
            ), (f, t)


def test_infinite_tautology_implies_every_finite_one():
    rng = random.Random(31337)
    for _ in range(120):
        f = random_formula(rng, 3, 5)
        if is_tautology(f, 3):
            assert all(is_tautology(f, 3, Logic.finite(t)) for t in (2, 3, 4, 5))


def test_compositionality_on_forests():
    rng = random.Random(987)
    for n in (2, 3):
        forest = enumerate_forest(n)
        for _ in range(60):
            a = random_formula(rng, n, 4)
            b = random_formula(rng, n, 4)
            fa, fb = formula_forest(a, forest), formula_forest(b, forest)
            assert formula_forest(And(a, b), forest).members == fa.meet(fb).members
            assert formula_forest(Or(a, b), forest).members == fa.join(fb).members
            assert (
                formula_forest(Implies(a, b), forest).members
                == fa.implies(fb).members
            )
            assert formula_forest(Not(a), forest).members == fa.negate().members


@pytest.mark.parametrize("n,count,depth", [(1, 40, 5), (2, 40, 5), (3, 40, 5),
                                             (4, 25, 5), (5, 8, 4)])
def test_formula_forest_matches_the_per_node_reference(n, count, depth):
    rng = random.Random(1000 + n)
    forest = enumerate_forest(n)
    for _ in range(count):
        f = random_formula(rng, n, depth)
        # The public constructor also checks that the reference is a downset.
        assert formula_forest(f, forest) == Subforest(
            forest, reference_formula_forest(f, forest)
        ), f


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stock_axioms_match_the_per_node_reference(n):
    forest = enumerate_forest(n)
    for f in (ruspini_axiom(n), overlap_axiom(n)):
        assert formula_forest(f, forest).members == reference_formula_forest(f, forest)


def test_value_one_status_is_class_invariant():
    rng = random.Random(555)
    forest = enumerate_forest(3)
    for _ in range(60):
        f = random_formula(rng, 3, 5)
        c = rng.choice(forest.nodes)
        results = {
            eval_formula(f, random_witness(rng, c)) == 1 for _ in range(10)
        }
        assert len(results) == 1
        assert (eval_formula(f, c.representative()) == 1) in results


def test_proves_relations():
    rho_like = parse_formula("(X1 -> X2) | (X2 -> X1)")
    assert proves_implies(rho_like, rho_like, 2)
    assert proves_equiv(parse_formula("X1 & X2"), parse_formula("X2 & X1"), 2)
    assert not proves_equiv(parse_formula("X1"), parse_formula("~~X1"), 1)
    # boolean logic collapses double negation
    assert proves_equiv(parse_formula("X1"), parse_formula("~~X1"), 1, Logic.finite(2))
    assert proves_implies(parse_formula("X1"), parse_formula("~~X1"), 1)
    assert not proves_implies(parse_formula("~~X1"), parse_formula("X1"), 1)


def test_truncation_is_depth_cutoff():
    forest = enumerate_forest(3)
    for t in (2, 3, 4, 5):
        sub = truncated_subforest(forest, t)
        assert sub.members == frozenset(c for c in forest.nodes if c.depth <= t - 1)
    assert truncated_subforest(forest, 5).members == forest.node_set
