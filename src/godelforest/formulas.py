"""The formula parser: text to the AST of `syntax`.

Parsing reads the text's tokens with one linear `findall`, checks every
token that is not an operator or a constant before the parse loop starts,
and then walks the tokens by number.  A token's character offset is found
by scanning the text again, only when a `ParseError` is raised.

The AST, the evaluator and the printer live in `syntax`.  This module binds
their names too, so `godelforest.formulas` still offers the whole formula
API; code that never reads text imports `syntax` and skips the parser.
"""

from __future__ import annotations

import itertools
import re

from .syntax import (
    _NODE,
    _SYNTAX,
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Lhd,
    Not,
    Or,
    Top,
    Var,
    arity,
    eval_formula,
    format_formula,
    program,
    run,
)


class ParseError(ValueError):
    """Malformed formula text; `pos` is the 0-based character offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SPACE = " \t\r\n"
# One token per match, after the whitespace before it: an operator, a
# variable, a word, or any other character but whitespace.  No operator's
# text is a prefix of another's, so their order is free.  Each match ends on
# a token, so on a text with no trailing whitespace no match is retried from
# a later offset, and one findall is a linear scan.
_TOKEN = re.compile(
    rf"[{_SPACE}]*("
    + "|".join(re.escape(text) for text in [*_NODE, "(", ")"] if text != "X")
    + rf"|X\d*|[^\W\d_]+|[^{_SPACE}])"
)
_WORDS = ("bot", "top")
#: Every token that is not a variable.
_FIXED = frozenset([*_NODE, "(", ")", *_WORDS]) - {"X"}
_ARROWS = frozenset(text for text, _, prec in _SYNTAX if prec == 1)
_BAD_START = {"-": "expected '->'", "<": "expected '<->' or '<|'"}


def _index(token: str) -> int:
    """The index of a variable token X<digits>, or 0 for any other token."""
    if token[0] == "X" and len(token) > 1:
        try:
            return int(token[1:])
        except ValueError:  # more digits than int() converts
            pass
    return 0


def _misread(token: str) -> tuple[str, int]:
    """Why a token is neither a variable nor in _FIXED: the message and the
    error's offset within the token."""
    if token[0] == "X":
        if len(token) == 1:
            return "expected digits after 'X'", 0
        try:
            int(token[1:])
        except ValueError:
            return "variable index too long", 0
        return "variable index 0 is not allowed", 0
    # \w also matches numerals such as '²' and '½', which end a word.
    word = "".join(itertools.takewhile(str.isalpha, token))
    if word and word not in _WORDS:
        return f"unknown word {word!r}", 0
    ch = token[len(word)]
    return _BAD_START.get(ch, f"unexpected character {ch!r}"), len(word)


def _offset(text: str, i: int) -> int:
    """The character offset of token i of text, or len(text) for the end.
    Scans the text once more, so it is called only for an error."""
    m = next(itertools.islice(_TOKEN.finditer(text.rstrip(_SPACE)), i, None), None)
    return len(text) if m is None else m.start(1)


def parse_formula(text: str) -> Formula:
    """Parse formula text.

    Variables are X1, X2, ...; constants 0/bot and 1/top.  ~ binds tightest,
    then &, then |, then the arrows ->, <->, <| at equal precedence.  Arrows
    associate to the right and may not be mixed in one chain without
    parentheses.  One loop over the tokens, so any nesting depth is fine.
    Equal subformulas of the text come out as one shared object.
    """
    # Trailing whitespace is cut first: a match over it would fail and be
    # retried from each later offset.
    tokens = _TOKEN.findall(text.rstrip(_SPACE))
    # The leaves by token text; X3 and X٣ share one Var.  Every lexical error
    # is raised here, before parsing, at the first bad token.
    bot, top = Bot(), Top()
    leaves: dict[str, Formula] = {"0": bot, "bot": bot, "1": top, "top": top}
    variables: dict[int, Var] = {}
    bad = []
    for token in set(tokens).difference(_FIXED):
        index = _index(token)
        if index:
            leaves[token] = variables.setdefault(index, Var(index))
        else:
            bad.append(token)
    if bad:
        i = min(map(tokens.index, bad))
        message, shift = _misread(tokens[i])
        raise ParseError(message, _offset(text, i) + shift)
    tokens.append("")  # the end; no match is empty
    # The open parentheses' frames.  A frame is the arrow chain so far, as
    # (left operand, arrow, token number) triples, the disjunction and the
    # conjunction being built, and the number of '~' waiting for an operand.
    frames: list[tuple[list, Formula | None, Formula | None, int]] = []
    # Every inner node built, by (kind, operand ids).  Operands come from this
    # table or from leaves, so their ids stay valid while both live.
    nodes: dict[tuple, Formula] = {}
    chain, disj, conj, nots = [], None, None, 0
    operand_next = True
    for i, token in enumerate(tokens):
        if operand_next:
            if token == "~":
                nots += 1
                continue
            if token == "(":
                frames.append((chain, disj, conj, nots))
                chain, disj, conj, nots = [], None, None, 0
                continue
            operand = leaves.get(token)
            if operand is None:
                raise ParseError("expected a variable, constant, '~' or '('", _offset(text, i))
        else:
            if token == "&":
                operand_next = True
                continue
            if disj is None:
                disj = conj
            else:
                key = (Or, id(disj), id(conj))
                disj = nodes.get(key) or nodes.setdefault(key, Or(disj, conj))
            conj = None
            if token == "|":
                operand_next = True
                continue
            if token in _ARROWS:
                chain.append((disj, token, i))
                disj, operand_next = None, True
                continue
            # Anything else ends the chain: check it, then fold it to the right.
            operand = disj
            for _, arrow, at in chain[1:]:
                if arrow != chain[0][1]:
                    raise ParseError(
                        "mixing '->', '<->', '<|' in one chain requires parentheses",
                        _offset(text, at),
                    )
            for left, arrow, _ in reversed(chain):
                node = _NODE[arrow]
                key = (node, id(left), id(operand))
                operand = nodes.get(key) or nodes.setdefault(key, node(left, operand))
            if token != (")" if frames else ""):
                raise ParseError(
                    "expected ')'" if frames else "unexpected trailing input", _offset(text, i)
                )
            if not token:
                return operand
            chain, disj, conj, nots = frames.pop()
        while nots:
            key = (Not, id(operand))
            operand = nodes.get(key) or nodes.setdefault(key, Not(operand))
            nots -= 1
        if conj is None:
            conj = operand
        else:
            key = (And, id(conj), id(operand))
            conj = nodes.get(key) or nodes.setdefault(key, And(conj, operand))
        operand_next = False
