import random
import sys
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelforest import (
    And,
    Bot,
    Iff,
    Implies,
    Lhd,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    arity,
    axiomatize_subforest,
    enumerate_forest,
    eval_formula,
    format_formula,
    formula_forest,
    overlap_axiom,
    parse_formula,
    ruspini_axiom,
    ruspini_subforest,
)
from godelforest.formulas import program
from helpers import (
    _reference_postorder,
    expand_derived,
    random_formula,
    reference_format_formula,
    reference_parse_formula,
)


def test_parse_examples():
    assert parse_formula("~(X1 & X3)") == Not(And(Var(1), Var(3)))
    assert parse_formula("X1 <| X2") == Lhd(Var(1), Var(2))
    assert parse_formula("X1 -> X2 -> X3") == Implies(Var(1), Implies(Var(2), Var(3)))


def test_parse_constants_and_keywords():
    assert parse_formula("0") == Bot()
    assert parse_formula("bot") == Bot()
    assert parse_formula("1") == Top()
    assert parse_formula("top") == Top()
    assert parse_formula("X12") == Var(12)


def test_parse_precedence():
    assert parse_formula("~X1 & X2") == And(Not(Var(1)), Var(2))
    assert parse_formula("X1 & X2 | X3") == Or(And(Var(1), Var(2)), Var(3))
    assert parse_formula("X1 | X2 -> X3") == Implies(Or(Var(1), Var(2)), Var(3))
    assert parse_formula("X1 & X2 & X3") == And(And(Var(1), Var(2)), Var(3))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("X1 & )")
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse_formula("X0")
    with pytest.raises(ParseError):
        parse_formula("X1 &")
    with pytest.raises(ParseError):
        parse_formula("(X1")
    with pytest.raises(ParseError):
        parse_formula("X1 X2")
    with pytest.raises(ParseError):
        parse_formula("foo")
    with pytest.raises(ParseError):
        parse_formula("")


def test_parse_refuses_a_variable_index_past_the_int_digit_limit():
    with pytest.raises(ParseError, match="variable index too long"):
        parse_formula("X" + "1" * 5000)


def test_parse_mixed_arrows_need_parens():
    with pytest.raises(ParseError):
        parse_formula("X1 -> X2 <-> X3")
    assert parse_formula("X1 -> (X2 <-> X3)") == Implies(Var(1), Iff(Var(2), Var(3)))
    assert parse_formula("(X1 -> X2) <-> X3") == Iff(Implies(Var(1), Var(2)), Var(3))


def test_var_index_zero_rejected():
    with pytest.raises(ValueError):
        Var(0)


def test_eval_residuum():
    f = parse_formula("X1 -> X2")
    assert eval_formula(f, (Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 3)
    assert eval_formula(f, (Fraction(1, 3), Fraction(1, 2))) == 1


def test_eval_double_negation():
    f = parse_formula("~~X1")
    assert eval_formula(f, (Fraction(1, 4),)) == 1
    assert eval_formula(f, (Fraction(0),)) == 0
    assert eval_formula(f, (Fraction(1),)) == 1


def test_eval_strict_order_connective():
    f = parse_formula("X1 <| X2")
    assert eval_formula(f, (Fraction(1), Fraction(1))) == 1
    assert eval_formula(f, (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)
    assert eval_formula(f, (Fraction(1, 4), Fraction(1, 2))) == 1
    assert eval_formula(f, (Fraction(1, 2), Fraction(1, 4))) == Fraction(1, 4)


def test_eval_min_max_constants():
    a = (Fraction(1, 3), Fraction(2, 3))
    assert eval_formula(parse_formula("X1 & X2"), a) == Fraction(1, 3)
    assert eval_formula(parse_formula("X1 | X2"), a) == Fraction(2, 3)
    assert eval_formula(parse_formula("0"), a) == 0
    assert eval_formula(parse_formula("1"), a) == 1
    assert eval_formula(parse_formula("~X1"), a) == 0


def test_eval_arity_error():
    with pytest.raises(ValueError):
        eval_formula(Var(3), (Fraction(1),))


def test_eval_deep_negation_chain():
    f = parse_formula("~" * 3000 + "X1")
    assert eval_formula(f, (Fraction(1, 2),)) == 1
    assert eval_formula(f, (Fraction(0),)) == 0
    assert eval_formula(Not(f), (Fraction(1, 2),)) == 0


def test_program_lists_each_node_once_after_its_operands():
    # program is the one builder under eval_formula, the forest evaluation and
    # the grid oracle alike, so the differential tests between them cannot
    # see every fault in it; this explicit listing is its guard.
    shared = parse_formula("X1 -> X2")
    f = And(shared, Or(Not(Var(3)), shared))
    assert program(f) == [
        (Var, (0,), []),
        (Var, (1,), []),
        (Implies, (0, 1), [0, 1]),
        (Var, (2,), []),
        (Not, (3,), [3]),
        (Or, (4, 2), [4]),
        (And, (2, 5), [2, 5]),
    ]
    # One object in both operands is one step, read and released once; so
    # are two equal objects.
    x = Var(1)
    assert program(Lhd(x, x)) == [(Var, (0,), []), (Lhd, (0, 0), [0])]
    assert program(Iff(Var(2), Var(2))) == [(Var, (1,), []), (Iff, (0, 0), [0])]
    assert program(Top()) == [(Top, (), [])]
    assert len(program(parse_formula("~" * 3000 + "X1"))) == 3001
    with pytest.raises(TypeError):
        program(And(Var(1), "X2"))


def test_program_step_counts_of_repetitive_formulas():
    # Counts, not timings: each distinct subformula is one step, whether it
    # was written once or built as many equal objects.
    assert len(program(ruspini_axiom(8))) == 143
    assert len(program(overlap_axiom(8))) == 196
    # X1, X2, the two implications and 1,099 disjunctions.
    text = " | ".join(["(X1 -> X2)", "(X2 -> X1)"] * 550)
    assert len(program(parse_formula(text))) == 1103
    assert len(program(reference_parse_formula(text))) == 1103


def test_format_examples():
    assert format_formula(Not(And(Var(1), Var(2)))) == "~(X1 & X2)"
    assert format_formula(And(Var(1), Or(Var(2), Var(3)))) == "X1 & (X2 | X3)"
    assert format_formula(Bot()) == "0"
    assert format_formula(Implies(Var(1), Implies(Var(2), Var(3)))) == "X1 -> X2 -> X3"
    assert format_formula(Implies(Implies(Var(1), Var(2)), Var(3))) == "(X1 -> X2) -> X3"
    assert format_formula(Implies(Var(1), Iff(Var(2), Var(3)))) == "X1 -> (X2 <-> X3)"


def test_roundtrip_random_formulas():
    rng = random.Random(20240811)
    for _ in range(500):
        f = random_formula(rng, 4, 6)
        assert parse_formula(format_formula(f)) == f


@st.composite
def formulas(draw, max_depth=5):
    if max_depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            return Bot()
        if choice == 1:
            return Top()
        return Var(draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(["not", "and", "or", "implies", "iff", "lhd"]))
    if kind == "not":
        return Not(draw(formulas(max_depth=max_depth - 1)))
    node = {"and": And, "or": Or, "implies": Implies, "iff": Iff, "lhd": Lhd}[kind]
    return node(
        draw(formulas(max_depth=max_depth - 1)),
        draw(formulas(max_depth=max_depth - 1)),
    )


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(f):
    assert parse_formula(format_formula(f)) == f


def test_expand_derived_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, 3, 5)
        once = expand_derived(f)
        assert expand_derived(once) == once


def test_derived_connectives_evaluate_via_expansion():
    rng = random.Random(11)
    pool = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    for _ in range(300):
        f = random_formula(rng, 3, 5)
        values = tuple(rng.choice(pool) for _ in range(3))
        assert eval_formula(f, values) == eval_formula(expand_derived(f), values)


def test_eval_never_invents_truth_values():
    rng = random.Random(13)
    pool = [Fraction(k, 7) for k in range(8)]
    for _ in range(300):
        f = random_formula(rng, 3, 5)
        values = tuple(rng.choice(pool) for _ in range(3))
        result = eval_formula(f, values)
        assert result in set(values) | {Fraction(0), Fraction(1)}


def test_arity():
    assert arity(parse_formula("X2 & ~X5")) == 5
    assert arity(Bot()) == 0
    assert arity(parse_formula("X1 <-> X1")) == 1


# Every token, near misses of tokens, and characters at the edges of the
# scanner's classes: whitespace it does not skip ('\x0b', '\xa0'), letters
# outside ASCII, a non-ASCII decimal digit, digits that are not decimal ('²',
# '½') and '_'.
_VALID_PIECES = ("X1", "X2", "X12", "0", "1", "bot", "top", "~", "&", "|", "->",
                 "<->", "<|", "(", ")", " ", "\t", "\n", "\r")
_INVALID_PIECES = ("X", "X0", "Xq", "X00", "X٣", "X²", "botX", "-", "<", "\x0b",
                   "\xa0", "é", "ß", "٣", "²", "½", "_")


def _parse_outcome(parse, text):
    try:
        return "formula", parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.pos
    except ValueError as exc:
        return "ValueError", str(exc)


def test_parser_matches_the_recursive_reference_on_random_text():
    rng = random.Random(4)
    pieces = _VALID_PIECES + _INVALID_PIECES
    weights = list(accumulate([8] * len(_VALID_PIECES) + [1] * len(_INVALID_PIECES)))
    kinds = {"formula": 0, "ParseError": 0, "int() ValueError": 0}
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, cum_weights=weights, k=rng.randint(0, 14)))
        expected = _parse_outcome(reference_parse_formula, text)
        got = _parse_outcome(parse_formula, text)
        if expected[0] == "ValueError":
            # The reference hands digits such as '²' to int(); here they are
            # not digits, and the text is refused with a ParseError.
            assert got[0] == "ParseError", text
            kinds["int() ValueError"] += 1
        else:
            assert got == expected, text
            kinds[expected[0]] += 1
    assert min(kinds.values()) > 1000, kinds


# Texts that random ones of at most 14 pieces rarely reach: a lexical error
# after a parse error, whitespace runs before the end, bad variables and
# words in context, and whitespace the scanner does not skip next to
# whitespace it does.
_FIXED_ERROR_TEXTS = (
    "<->top½X2->~", "( \r", "X1 |\t\n", "X1 |\t\n ", "X1 & X", "X1 -> X0", "Xq",
    "X2 | botX", "(X1 & X2) X", "\x0b X1", "X1 \x0b", "X1 &\t\x0b\n", " \xa0X1",
    "X1 \xa0 ", "X1 \n\xa0", "X1 ½  \t", "  ", "X1 & X2 )\n\n", "X1 -> X2 <| X3 ½",
)


def test_parse_errors_of_fixed_texts_match_the_recursive_reference():
    for text in _FIXED_ERROR_TEXTS:
        expected = _parse_outcome(reference_parse_formula, text)
        assert expected[0] == "ParseError", text
        assert _parse_outcome(parse_formula, text) == expected, text
    assert _parse_outcome(parse_formula, "<->top½X2->~")[1:] == (
        "unexpected character '½' (at position 6)", 6)
    # The reference hands '²' and a 4,301-digit index to int(), which raises a
    # plain ValueError; the scanner's messages are fixed here.
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for text, message, pos in (
        ("X1 & X²", "expected digits after 'X'", 5),
        ("X1 &\n X" + digits + " | X2", "variable index too long", 6),
        ("X" + digits + " ½", "variable index too long", 0),
    ):
        assert _parse_outcome(parse_formula, text) == (
            "ParseError", f"{message} (at position {pos})", pos)


def _long_text(rng, pieces):
    """A text of about `pieces` pieces, tokens alternating with the
    whitespace between them (some of it empty): a flat formula with
    parentheses nested at most eight deep and one arrow kind, often with one
    token replaced by a random valid or invalid piece, and sometimes with
    trailing whitespace."""
    arrow = rng.choice(("->", "<->", "<|"))
    out, depth = [], 0
    while 2 * len(out) < pieces:
        out += ["~"] * (rng.random() < 0.2)
        if depth < 8 and rng.random() < 0.15:
            out.append("(")
            depth += 1
            continue
        out.append(rng.choice(("X1", "X2", "X12", "0", "1", "bot", "top")))
        while depth and rng.random() < 0.2:
            out.append(")")
            depth -= 1
        out.append(rng.choice(("&", "|", "&", "|", arrow)))
    out += ["X3", *[")"] * depth]
    if rng.random() < 0.75:
        out[rng.randrange(len(out))] = rng.choice(_VALID_PIECES + _INVALID_PIECES)
    glue = rng.choices(("", "", " ", "\t", "\n ", "\r\n", "   "), k=len(out))
    for k in range(1, len(out)):
        if not glue[k] and out[k - 1][-1].isalnum() and out[k][0].isalnum():
            glue[k] = " "  # no new token such as X11 or botX1
    glue[0] = rng.choice(("", "", " ", "\n", " \t\r\n "))  # the trailing whitespace
    return "".join(piece for pair in zip(out, glue[1:] + glue[:1]) for piece in pair)


def test_parser_matches_the_recursive_reference_on_long_text():
    rng = random.Random(19)
    far = {"formula": 0, "ParseError": 0}
    for _ in range(2000):
        text = _long_text(rng, rng.randint(100, 1000))
        expected = _parse_outcome(reference_parse_formula, text)
        got = _parse_outcome(parse_formula, text)
        if expected[0] == "ValueError":  # '²' after 'X', as on short texts
            assert got[0] == "ParseError", text
            continue
        assert got == expected, text
        if expected[0] == "formula" or expected[2] > 500:
            far[expected[0]] += 1
    assert min(far.values()) > 200, far


# A scanner whose whitespace is retried from every offset takes minutes on
# the first of these; each takes well under a second here.
def test_parse_time_is_linear_in_the_text():
    chain = " & ".join(["X1"] * 50_000)
    bad_end = "X1 & " * 200_000 + "½"
    cases = [
        ("X1" + " " * 10**6, lambda f: f == Var(1)),
        (" " * 10**6 + "X1", lambda f: f == Var(1)),
        (chain, lambda f: len(program(f)) == 50_000 and format_formula(f) == chain),
        (bad_end, lambda err: err.pos == len(bad_end) - 1
         and str(err) == f"unexpected character '½' (at position {len(bad_end) - 1})"),
    ]
    for text, holds in cases:
        started = time.perf_counter()
        try:
            result = parse_formula(text)
        except ParseError as err:
            result = err
        assert time.perf_counter() - started < 10, text[:20]
        assert holds(result), text[:20]


def test_printer_matches_the_recursive_reference():
    rng = random.Random(5)
    formulas = [random_formula(rng, 5, rng.randint(0, 8)) for _ in range(5000)]
    formulas += [axiom(n) for n in range(1, 8) for axiom in (ruspini_axiom, overlap_axiom)]
    for f in formulas:
        assert format_formula(f) == reference_format_formula(f)


def _texts_with_repeats(rng, count):
    """Rendered random formulas over up to four variables, some of them
    with a random piece planted more than once."""
    texts = ["(X1 -> X2) | (X2 -> X1)", "~X1 & ~X1 | ~~X1", "(X1 <-> X2) -> (X1 <-> X2)",
             "X1 & X1 & X1 | X1 & X1", "(0 | 1) & (0 | 1) <| ~(0 | 1)"]
    for _ in range(count):
        n = rng.randint(1, 4)
        a, b = (format_formula(random_formula(rng, n, rng.randint(0, 5))) for _ in "ab")
        texts.append(a)
        texts.append(f"({a}) & ({b}) | ({a}) -> ~({b}) | ({a})")
    return texts


def test_parse_shares_equal_subformulas_and_matches_the_reference():
    rng = random.Random(17)
    shared = 0
    for text in _texts_with_repeats(rng, 300):
        f = parse_formula(text)
        assert f == reference_parse_formula(text), text
        assert format_formula(f) == reference_format_formula(reference_parse_formula(text))
        nodes = _reference_postorder(f)
        # Two distinct objects that are equal would collapse in the set.
        assert len(set(nodes)) == len(nodes), text
        shared += len(_reference_postorder(reference_parse_formula(text))) > len(nodes)
    assert shared > 300
    f = parse_formula("(X1 -> X2) | (X2 -> X1) | (X1 -> X2)")
    assert f.left.left is f.right and f.left.left.left is f.left.right.right


# Deep formulas are compared by text or by value-1 mask: dataclass equality
# recurses.
def test_deep_nesting_parses_and_prints():
    assert parse_formula("(" * 5000 + "X1 -> X2" + ")" * 5000) == Implies(Var(1), Var(2))
    fold, negations = Var(1), Var(1)
    for k in range(5000):
        fold, negations = Or(fold, Var(k % 3 + 1)), Not(negations)
    for f, text in ((fold, "X1" + "".join(f" | X{k % 3 + 1}" for k in range(5000))),
                    (negations, "~" * 5000 + "X1")):
        assert format_formula(f) == text
        assert format_formula(parse_formula(text)) == text


def test_ruspini_forest_axiom_n5_round_trips():
    forest = enumerate_forest(5)
    axiom = axiomatize_subforest(ruspini_subforest(forest))  # 1,081 disjuncts
    text = format_formula(axiom)
    again = parse_formula(text)
    assert format_formula(again) == text
    assert formula_forest(again, forest).mask == formula_forest(axiom, forest).mask


def test_printer_rejects_non_formulas():
    with pytest.raises(TypeError, match="not a formula: 'X2'"):
        format_formula(And(Var(1), "X2"))


@given(st.lists(st.sampled_from(_VALID_PIECES + _INVALID_PIECES)).map("".join) | st.text())
@settings(max_examples=300, deadline=None)
def test_parse_gives_a_formula_or_a_parse_error(text):
    try:
        f = parse_formula(text)
    except ParseError:
        return
    assert format_formula(parse_formula(format_formula(f))) == format_formula(f)
