import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from godelforest import (
    GINF,
    And,
    AssignmentClass,
    Bot,
    Iff,
    Implies,
    Logic,
    Not,
    Or,
    Partition,
    PiecewiseLinearFuzzySet,
    Top,
    Var,
    axiomatize_partition,
    class_of_values,
    count_2overlap_weak_ruspini,
    count_leaves,
    count_weak_ruspini,
    disjunction,
    empty_subforest,
    enumerate_forest,
    eval_formula,
    format_formula,
    formula_forest,
    generating_subforest,
    grid_tautology_oracle,
    is_tautology,
    ordered_bell,
    parse_formula,
    parse_logic,
    partition_from_json,
    partition_to_json,
    proves_equiv,
    proves_implies,
    overlap_axiom,
    ruspini_axiom,
    truncated_subforest,
    Subforest,
)
from godelforest.formulas import program
from godelforest.grid import _GRID_BLOCK, _grid_blocks
from helpers import (
    lin_instance,
    random_dag,
    random_formula,
    random_partition,
    random_witness,
    reference_eval_formula,
    reference_forest,
    reference_formula_forest,
    reference_grid_oracle,
    reference_proves_equiv,
    reference_proves_implies,
)


def test_logic_parsing():
    assert parse_logic("ginf") == GINF
    assert parse_logic("g4") == Logic(4)
    assert parse_logic("G3").t == 3
    with pytest.raises(ValueError):
        parse_logic("g1")
    with pytest.raises(ValueError):
        parse_logic("lukasiewicz")
    assert str(GINF) == "ginf" and str(Logic(5)) == "g5"


@pytest.mark.parametrize("t", [3.0, 2.5, True])
def test_logic_refuses_a_non_integer_t(t):
    # Logic(3.0) was taken, and the decision below ended in a TypeError.
    with pytest.raises(ValueError, match=r"^truth-value count .* is not an integer$"):
        is_tautology(parse_formula("X1 | ~X1"), 1, Logic(t))


@pytest.mark.parametrize("index", [2.5, 1.0, True])
def test_var_refuses_a_non_integer_index(index):
    # Var(2.5) was taken, and the decision below ended in a TypeError.
    with pytest.raises(ValueError, match=r"^variable index .* is not an integer$"):
        is_tautology(Or(Var(index), Not(Var(index))), 3)


def test_formula_forest_constants():
    for n in (1, 2, 3):
        forest = enumerate_forest(n)
        assert formula_forest(Top(), forest).members == frozenset(reference_forest(n).nodes)
        assert formula_forest(Bot(), forest).members == frozenset()


def test_formula_forest_arity_error():
    with pytest.raises(ValueError):
        formula_forest(Var(3), enumerate_forest(2))


def test_prelinearity_is_tautology():
    f = parse_formula("(X1 -> X2) | (X2 -> X1)")
    for n in (2, 3):
        assert is_tautology(f, n)
        assert is_tautology(f, n, Logic(4))


def test_excluded_middle_fails():
    assert not is_tautology(parse_formula("X1 | ~X1"), 1)
    assert is_tautology(parse_formula("X1 | ~X1"), 1, Logic(2))


def test_double_negation_elimination_by_logic():
    f = parse_formula("~~X1 -> X1")
    assert grid_tautology_oracle(f, 1, 2)
    assert not grid_tautology_oracle(f, 1, 3)
    assert is_tautology(f, 1, Logic(2))
    assert not is_tautology(f, 1, Logic(3))
    assert not is_tautology(f, 1)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_linearity_scheme_valid_exactly_up_to_its_rank(t):
    f = lin_instance(t)
    assert is_tautology(f, t, Logic(t))
    assert grid_tautology_oracle(f, t, t)
    if t + 1 <= 5:
        assert not is_tautology(f, t, Logic(t + 1))
    assert not is_tautology(f, t, GINF)


def test_grid_oracle_budget():
    with pytest.raises(ValueError):
        grid_tautology_oracle(Top(), 8, 12)
    with pytest.raises(ValueError):
        grid_tautology_oracle(Top(), 1, 1)


@pytest.mark.parametrize("n, t", [(20, 2), (10**9, 2), (10**9, 3), (10**9, 10**6)])
def test_grid_oracle_refuses_a_large_n_before_computing_the_grid_size(n, t):
    # 2**20 is the first power of two over the budget; 3**(3 * 10**7) alone
    # takes about 27 s to compute.
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        grid_tautology_oracle(Top(), n, t)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"grid of {t}**{n} assignments exceeds the budget of 1000000"


def test_a_t_past_the_int_to_str_limit_gets_the_packages_own_messages(int_str_limit):
    huge = 10**5000  # str(huge) raises Python's "Exceeds the limit (4300 digits)"
    refusals = [
        (lambda: grid_tautology_oracle(Top(), 1, huge),
         "grid of <more than 4300 digits>**1 assignments exceeds the budget of 1000000"),
        (lambda: grid_tautology_oracle(Top(), 19, huge),
         "grid of <more than 4300 digits>**19 assignments exceeds the budget of 1000000"),
        (lambda: parse_logic("g" + "1" * 5000),
         "truth-value count of 5000 digits is past the limit of 4300 digits"),
        (lambda: str(Logic(huge)),
         "truth-value count of 5001 digits is past the limit of 4300 digits"),
        (lambda: Logic(-huge), "a finite-valued logic needs t >= 2, got <more than 4300 digits>"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # What has an answer gets it: a logic of any t decides, and a grid of
    # one point (n = 0) is within the budget.
    prelinearity = parse_formula("(X1 -> X2) | (X2 -> X1)")
    assert is_tautology(prelinearity, 2, Logic(huge))
    assert not is_tautology(parse_formula("X1 | ~X1"), 1, Logic(huge))
    assert grid_tautology_oracle(Top(), 0, huge) and not grid_tautology_oracle(Bot(), 0, huge)
    # Within the limit, every text is as before.
    t = 10**4299
    assert str(Logic(t)) == "g1" + "0" * 4299
    assert parse_logic("g" + "1" * 4300) == Logic(int("1" * 4300))
    with pytest.raises(ValueError, match=f"^grid of {t}\\*\\*1 assignments exceeds"):
        grid_tautology_oracle(Top(), 1, t)


_F2 = enumerate_forest(2)
_ONE_SET = [{"points": [["0", "1"], ["1", "1"]]}]
_PL = PiecewiseLinearFuzzySet

# Each call that echoes an int k: a name, the call, the sign of k it is
# refused for, and its text with k's digits at {}: a refusal's message, or a
# repr, or a pair of texts past the limit and within it (a printed formula).
INT_ECHOES = [
    ("enumerate_forest", lambda k: enumerate_forest(k), 1, "forest enumeration supports 1 <= n <= 8, got {}"),
    ("enumerate_forest", lambda k: enumerate_forest(k), -1, "forest enumeration supports 1 <= n <= 8, got {}"),
    ("truncation", lambda k: _F2.truncation(k), -1, "a finite-valued logic needs t >= 2, got {}"),
    ("generating_subforest", lambda k: generating_subforest(k, _F2), 1, "variable index {} out of range 1..2"),
    ("generating_subforest", lambda k: generating_subforest(k, _F2), -1, "variable index {} out of range 1..2"),
    ("Var", lambda k: Var(k), -1, "variable index must be at least 1, got {}"),
    ("AssignmentClass-n", lambda k: AssignmentClass(k, (), (), ()), 1,
     "blocks do not cover variables [1, 2, 3, 4, 5, 6, 7, 8, ...] ({} in all)"),
    ("AssignmentClass-range", lambda k: AssignmentClass(k, (0,), (), ()), 1, "variable index 0 out of range 1..{}"),
    ("AssignmentClass-twice", lambda k: AssignmentClass(k, (k,), (), (k,)), 1, "variable index {} appears in two blocks"),
    ("AssignmentClass-index", lambda k: AssignmentClass(2, (k,), (), ()), 1, "variable index {} out of range 1..2"),
    ("AssignmentClass-mid-index", lambda k: AssignmentClass(2, (), ((k,),), ()), -1, "variable index {} out of range 1..2"),
    ("grid-n", lambda k: grid_tautology_oracle(Top(), k, 3), -1, "the grid needs an integer n >= 0, got {}"),
    ("grid-n", lambda k: grid_tautology_oracle(Top(), k, 3), 1,
     "grid of 3**{} assignments exceeds the budget of 1000000"),
    ("is_tautology", lambda k: is_tautology(Var(k), 3), 1, "formula uses X{} but n is 3"),
    ("ruspini_axiom", lambda k: ruspini_axiom(k), 1,
     "the rho axiom supports n <= 360: the n = {} axiom takes too long to build"),
    ("ruspini_axiom", lambda k: ruspini_axiom(k), -1, "need n >= 1, got {}"),
    ("overlap_axiom", lambda k: overlap_axiom(k), 1,
     "the tau axiom supports n <= 90: the n = {} axiom takes too long to build"),
    ("overlap_axiom", lambda k: overlap_axiom(k), -1, "need n >= 1, got {}"),
    ("ordered_bell", lambda k: ordered_bell(k), 1,
     "the leaves count supports n <= 4000: the n = {} count takes too long to print"),
    ("ordered_bell", lambda k: ordered_bell(k), -1, "need n >= 0, got {}"),
    ("count_leaves", lambda k: count_leaves(k), 1,
     "the leaves count supports n <= 4000: the n = {} count takes too long to print"),
    ("count_leaves", lambda k: count_leaves(k), -1, "need n >= 1, got {}"),
    ("count_weak_ruspini", lambda k: count_weak_ruspini(k), 1,
     "the weak-ruspini count supports n <= 8: the n = {} count takes too long to print"),
    ("count_weak_ruspini", lambda k: count_weak_ruspini(k), -1, "need n >= 1, got {}"),
    ("count_2overlap_weak_ruspini", lambda k: count_2overlap_weak_ruspini(k), 1,
     "the overlap2 count supports n <= 850: the n = {} count takes too long to print"),
    ("count_2overlap_weak_ruspini", lambda k: count_2overlap_weak_ruspini(k), -1, "need n >= 1, got {}"),
    ("partition_from_json", lambda k: partition_from_json({"n": k, "sets": _ONE_SET}), 1,
     "'n' is {} but 1 sets were given"),
    ("repr-Logic", lambda k: repr(Logic(k)), 1, "Logic(t={})"),
    ("repr-Var", lambda k: repr(Not(Var(k))), 1, "Not(child=Var(index={}))"),
    ("format_formula", lambda k: format_formula(Var(k)), 1,
     ("variable index {} is too long to print", "X{}")),
    ("str", lambda k: str(And(Var(1), Not(Var(k)))), 1,
     ("variable index {} is too long to print", "X1 & ~X{}")),
    ("repr-PiecewiseLinearFuzzySet", lambda k: repr(_PL("f", ((0, Fraction(1, k)), (1, 0)))), 1,
     ("PiecewiseLinearFuzzySet(name='f', points={})",
      "PiecewiseLinearFuzzySet(name='f', points=((Fraction(0, 1), Fraction(1, {})), "
      "(Fraction(1, 1), Fraction(0, 1))))")),
    ("partition_to_json", lambda k: partition_to_json(Partition(
        (_PL("f1", ((0, 1), (1, 1))), _PL("f2", ((0, 0), (1, Fraction(1, k))))))
    )["sets"][1]["points"][1][1], 1,
     ("set 'f2', point 1: denominator of 5001 digits is past the limit of 4300 digits", "1/{}")),
    ("PiecewiseLinearFuzzySet-abscissa", lambda k: _PL("g", ((0, 0), (k, 1))), 1,
     "set 'g', point 1: abscissa {} outside [0, 1]"),
    ("PiecewiseLinearFuzzySet-value", lambda k: _PL("g", ((0, k), (1, 0))), -1,
     "set 'g', point 0: value {} outside [0, 1]"),
    ("PiecewiseLinearFuzzySet-thrice",
     lambda k: _PL("g", ((0, 0), ((x := Fraction(1, k)), 0), (x, 1), (x, 1), (1, 1))), 1,
     ("set 'g', point 1: abscissa {} appears more than twice",
      "set 'g', point 1: abscissa 1/{} appears more than twice")),
    ("value_at", lambda k: _PL("f", ((0, 1), (1, 1))).value_at(k), 1, "abscissa {} outside [0, 1]"),
    ("class_of_values", lambda k: class_of_values([0, k]), 1, "value for X2 is outside [0, 1]: {}"),
]


def _text(call, k) -> str:
    try:
        return call(k)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("call, sign, text", [
    pytest.param(*entry, id=f"{name}{'+' if entry[1] > 0 else '-'}")
    for name, *entry in INT_ECHOES])
def test_ints_past_the_int_to_str_limit_get_the_packages_own_line(int_str_limit, call, sign,
                                                                   text):
    past, within = text if isinstance(text, tuple) else (text, text)
    start = time.perf_counter()
    assert _text(call, sign * 10**5000) == past.format("<more than 4300 digits>")
    assert time.perf_counter() - start < 1
    # An int of 4300 digits, the longest the limit converts, is shown in full.
    k = sign * 10**4299
    assert _text(call, k) == within.format(k)


# A bad n or t gets one ValueError line, not a TypeError, an AttributeError,
# itertools' "repeat argument cannot be negative" or a Forest(1) for True.
@pytest.mark.parametrize("decide, message", [
    (lambda: grid_tautology_oracle(Top(), -1, 3), "the grid needs an integer n >= 0, got -1"),
    (lambda: grid_tautology_oracle(Top(), 1, 3.0), "truth-value count 3.0 is not an integer"),
    (lambda: grid_tautology_oracle(Top(), 1, True), "truth-value count True is not an integer"),
    (lambda: grid_tautology_oracle(Top(), 2.0, 3), "the grid needs an integer n >= 0, got 2.0"),
    (lambda: grid_tautology_oracle(Top(), True, 3), "the grid needs an integer n >= 0, got True"),
    (lambda: is_tautology(Top(), 2.0), "forest enumeration supports 1 <= n <= 8, got 2.0"),
    (lambda: is_tautology(Top(), 0.0), "forest enumeration supports 1 <= n <= 8, got 0.0"),
    (lambda: proves_equiv(Top(), Top(), True), "forest enumeration supports 1 <= n <= 8, got True"),
    (lambda: enumerate_forest(True), "forest enumeration supports 1 <= n <= 8, got True"),
], ids=["oracle-negative-n", "oracle-float-t", "oracle-bool-t", "oracle-float-n",
        "oracle-bool-n", "taut-float-n", "taut-float-zero", "equiv-bool-n", "forest-bool-n"])
def test_decisions_refuse_a_bad_n_or_t_with_one_line(decide, message):
    enumerate_forest(1), enumerate_forest(2)  # cached: True and 2.0 must still miss
    with pytest.raises(ValueError) as caught:
        decide()
    assert str(caught.value) == message


def _pairs(rng, n):
    """Random formula pairs over X1..Xn: both sides over all n variables,
    one side variable-free, and one side over fewer variables."""
    for _ in range(12):
        a, b = random_formula(rng, n, 4), random_formula(rng, n, 4)
        yield from ((a, b), (a, Implies(b, a)), (Or(a, b), Or(b, a)))
        c, d = random_formula(rng, 0, 3), random_formula(rng, rng.randint(0, max(n - 1, 0)), 4)
        yield from ((a, c), (c, a), (a, d), (d, a))


@pytest.mark.parametrize("n", range(6))
def test_decisions_through_is_tautology_match_the_mask_references(n):
    rng = random.Random(f"proves:{n}")
    pairs = list(_pairs(rng, n))
    for logic in (GINF, Logic(2), Logic(3), Logic(4), Logic(5)):
        equivs = [proves_equiv(a, b, n, logic) for a, b in pairs]
        implies = [proves_implies(a, b, n, logic) for a, b in pairs]
        assert equivs == [reference_proves_equiv(a, b, n, logic) for a, b in pairs], logic
        assert implies == [reference_proves_implies(a, b, n, logic) for a, b in pairs], logic
        assert any(equivs) and not all(equivs) and any(implies) and not all(implies)
        # X(n+1) on one side: the same refusal as the references.
        for a, b in pairs[:6]:
            wide = And(a, Var(n + 1))
            for decide in (proves_equiv, proves_implies,
                           reference_proves_equiv, reference_proves_implies):
                for x, y in ((wide, b), (b, wide)):
                    with pytest.raises(ValueError, match=f"^formula uses X{n + 1} but n is {n}$"):
                        decide(x, y, n, logic)


def _grid_cases(rng, n, count):
    """Random formulas over X1..Xn using all eight node kinds, with
    implications between two of them, whose verdicts need every value
    right, and prelinearity instances, which hold on every block."""
    for _ in range(count):
        f, g = random_formula(rng, n, 3), random_formula(rng, n, 3)
        yield from (f, Implies(f, g), Implies(g, f), Or(Implies(f, g), Implies(g, f)))


# The field-width edges: from t = 129 the levels need 8 bits and no longer fit
# a one-byte field beside its spare bit; from t = 257 they need 9.
@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 127, 128, 129, 255, 256, 257])
def test_grid_oracle_matches_the_per_assignment_reference(t):
    rng = random.Random(t)
    verdicts = set()
    for n in range(1, 5):
        if t**n > 20_000:
            break
        for f in _grid_cases(rng, n, 12 if t**n <= 1000 else 1):
            verdict = grid_tautology_oracle(f, n, t)
            assert verdict == reference_grid_oracle(f, n, t), (f, n, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    for f in (Top(), Bot(), Not(Bot()), Implies(Bot(), Bot()), Or(Bot(), Not(Top()))):
        assert grid_tautology_oracle(f, 0, t) == reference_grid_oracle(f, 0, t), f


@pytest.mark.parametrize("n, t", [(14, 2), (4, 9)])
def test_grid_oracle_across_blocks(n, t):
    assert t**n > _GRID_BLOCK
    rng = random.Random(n * t)
    cases = list(_grid_cases(rng, n, 2))
    if t == 2:
        # Each fails at one point only: Xi = 1 and every other variable 0,
        # which lies in block 2, 1 and 0 for i = 1, 2 and n.
        for i in (1, 2, n):
            others = [Var(j) for j in range(1, n + 1) if j != i]
            cases.append(Or(Not(Var(i)), disjunction(others)))
    for f in cases:
        assert grid_tautology_oracle(f, n, t) == reference_grid_oracle(f, n, t), f


@pytest.mark.parametrize("n, t", [(1, 2), (3, 4), (2, 65), (1, 5000), (4, 9), (9, 3), (14, 2)])
def test_grid_blocks_hold_the_grid_in_product_order(n, t):
    points = itertools.product(range(t), repeat=n)
    for words, frame in _grid_blocks(n, t):
        width = frame.shift + 1  # bits per field
        fields = (frame.ones.bit_length() - 1) // width + 1
        columns = []
        for word in words:
            raw = word.to_bytes(fields * width // 8, "little")
            columns.append([int.from_bytes(raw[k:k + width // 8], "little")
                            for k in range(0, len(raw), width // 8)])
        for point in zip(*columns):
            assert point == next(points)
    assert next(points, None) is None


# The largest grids the budget allows.  The per-assignment evaluator took
# seconds on each, and over 100 MB at t = 10**6.
@pytest.mark.parametrize("text, n, t, verdict", [
    ("X1 -> X1", 1, 10**6, True),
    ("X1 | ~X1", 1, 10**6, False),
    ("(X1 -> X2) | (X2 -> X1)", 2, 1000, True),
    ("(X1 -> X2) | (X2 -> X1)", 19, 2, True),
])
def test_grid_oracle_at_the_budget_edge(text, n, t, verdict):
    f = parse_formula(text)
    tracemalloc.start()
    try:
        assert grid_tautology_oracle(f, n, t) is verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_forest_decision_agrees_with_grid_oracle():
    rng = random.Random(424242)
    for _ in range(80):
        f = random_formula(rng, 3, 5)
        for t in (2, 3, 4, 5):
            assert is_tautology(f, 3, Logic(t)) == grid_tautology_oracle(
                f, 3, t
            ), (f, t)


def test_decisions_at_n0_agree_with_the_grid_in_every_logic():
    # A variable-free formula takes only 0 or 1, so every logic agrees.
    texts = ["1", "0", "0 -> 0", "~0 <| 1", "(1 -> 0) | ~~0", "1 <-> ~0"]
    formulas = [parse_formula(text) for text in texts]
    for logic in (GINF, Logic(2), Logic(3), Logic(4), Logic(5)):
        for a in formulas:
            verdict = grid_tautology_oracle(a, 0, logic.t or 2)
            assert is_tautology(a, 0, logic) == verdict == (eval_formula(a, ()) == 1), a
            for b in formulas:
                va, vb = eval_formula(a, ()), eval_formula(b, ())
                assert proves_equiv(a, b, 0, logic) == (va == vb)
                assert proves_implies(a, b, 0, logic) == (va <= vb)
        for decide in (lambda: is_tautology(Var(1), 0, logic),
                       lambda: proves_equiv(Top(), Var(1), 0, logic),
                       lambda: proves_implies(Var(1), Top(), 0, logic)):
            with pytest.raises(ValueError, match="^formula uses X1 but n is 0$"):
                decide()


def test_infinite_tautology_implies_every_finite_one():
    rng = random.Random(31337)
    for _ in range(120):
        f = random_formula(rng, 3, 5)
        if is_tautology(f, 3):
            assert all(is_tautology(f, 3, Logic(t)) for t in (2, 3, 4, 5))


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
            assert (
                formula_forest(Not(a), forest).members
                == fa.implies(empty_subforest(forest)).members
            )


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluators_match_the_reference_on_shared_subformulas(n):
    # Formulas whose node objects are shared, so that the programs reuse and
    # release steps; prelinearity of two of them is a tautology in every
    # algebra, so both verdicts occur.
    rng = random.Random(2000 + n)
    forest = enumerate_forest(n)
    points = [tuple(Fraction(rng.randrange(5), 4) for _ in range(n)) for _ in range(8)]
    verdicts = set()
    for _ in range(12):
        f, g = random_dag(rng, n, 12), random_dag(rng, n, 12)
        for h in (f, Or(Implies(f, g), Implies(g, f))):
            for values in points:
                assert eval_formula(h, values) == reference_eval_formula(h, values), (h, values)
            assert formula_forest(h, forest).members == reference_formula_forest(h, forest), h
            for t in (2, 3):
                verdict = grid_tautology_oracle(h, n, t)
                assert verdict == reference_grid_oracle(h, n, t), (h, t)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluators_match_the_reference_on_equal_distinct_objects(n):
    # Formulas whose equal subformulas are distinct objects, so that their
    # programs share steps by value: the stock axioms, partition axioms, and
    # f <-> g where g is a separate parse of f's text.  The references walk
    # every object on its own.
    rng = random.Random(3000 + n)
    forest = enumerate_forest(n)
    points = [tuple(Fraction(rng.randrange(5), 4) for _ in range(n)) for _ in range(6)]
    formulas = [ruspini_axiom(n), overlap_axiom(n)]
    formulas += [axiomatize_partition(random_partition(rng, n)) for _ in range(3)]
    for _ in range(6):
        f = random_formula(rng, n, 5)
        g = parse_formula(format_formula(f))
        formulas.append(Iff(f, g))
        assert len(program(Iff(f, g))) == len(program(f)) + 1
    verdicts = set()
    for h in formulas:
        for values in points:
            assert eval_formula(h, values) == reference_eval_formula(h, values), (h, values)
        assert formula_forest(h, forest).members == reference_formula_forest(h, forest), h
        for t in (2, 3, 4):
            verdict = grid_tautology_oracle(h, n, t)
            assert verdict == reference_grid_oracle(h, n, t), (h, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_converse_implications_stay_two_steps():
    x1, x2 = Var(1), Var(2)
    for f in (parse_formula("(X1 -> X2) | (X2 -> X1)"),
              Or(Implies(Var(1), Var(2)), Implies(Var(2), Var(1)))):
        assert program(f) == [
            (Var, (0,), []), (Var, (1,), []), (Implies, (0, 1), []),
            (Implies, (1, 0), [1, 0]), (Or, (2, 3), [2, 3]),
        ]
    assert is_tautology(Or(Implies(x1, x2), Implies(x2, x1)), 2)
    assert not is_tautology(And(Implies(x1, x2), Implies(x2, x1)), 2)


def test_formula_forest_keeps_few_masks_alive():
    # rho_7 has 307 distinct subformulas, each with a 23 KB mask; the program
    # drops each mask after its last read.
    forest, f = enumerate_forest(7), ruspini_axiom(7)
    tracemalloc.start()
    try:
        formula_forest(f, forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
        c = rng.choice(reference_forest(3).nodes)
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
    assert proves_equiv(parse_formula("X1"), parse_formula("~~X1"), 1, Logic(2))
    assert proves_implies(parse_formula("X1"), parse_formula("~~X1"), 1)
    assert not proves_implies(parse_formula("~~X1"), parse_formula("X1"), 1)


def test_n8_decisions_read_masks_only():
    assert is_tautology(parse_formula("(X1 -> X2) | (X2 -> X1)"), 8)
    assert proves_equiv(parse_formula("X1 & X2"), parse_formula("X2 & X1"), 8)


def test_truncation_is_depth_cutoff():
    forest, ref = enumerate_forest(3), reference_forest(3)
    for t in (2, 3, 4, 5):
        sub = truncated_subforest(forest, t)
        assert sub.members == frozenset(c for c in ref.nodes if c.depth <= t - 1)
    assert truncated_subforest(forest, 5).members == frozenset(ref.nodes)
