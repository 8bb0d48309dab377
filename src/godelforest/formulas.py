"""Formulas of propositional Goedel logic: AST, parser, printer, evaluation.

Connectives: & (min), | (max), -> (residuated implication), constants 0/bot
and 1/top.  Three derived connectives are kept as AST nodes so formulas
print the way they were written:

    ~a        abbreviates a -> 0
    a <-> b   abbreviates (a -> b) & (b -> a)
    a <| b    abbreviates (b -> a) -> b, which takes value 1 exactly when
              the value of a is strictly below that of b, or both are 1

All truth values are exact rationals in [0, 1]; evaluation never produces a
value outside {0, 1} and the values supplied by the assignment.  Evaluation
runs a formula's straight-line program (`program`, `run`) in a Goedel
algebra given by its bot, top, meet, join and residuum; `run` builds the
three abbreviations from those, once, for every algebra: the rationals
here, the forest's masks and the grid oracle's packed levels.  A program
has one step per distinct subformula, and a parse shares equal subformulas,
so each is evaluated once however often the text or a builder repeats it.

Parsing reads the text's tokens with one linear `findall`, checks every
token that is not an operator or a constant before the parse loop starts,
and then walks the tokens by number.  A token's character offset is found
by scanning the text again, only when a `ParseError` is raised.
"""

from __future__ import annotations

import itertools
import re
from typing import TYPE_CHECKING, Sequence

from .records import _Record

if TYPE_CHECKING:
    from fractions import Fraction


class Formula(_Record):
    """Immutable AST node, a frozen record.  Each kind's `__init__` sets its
    slots with `object.__setattr__`, as a dataclass's does, so that parsing
    and the axiom builders pay no more per node."""

    __slots__ = __match_args__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = __match_args__ = ("index",)
    index: int

    def __init__(self, index: int) -> None:
        if type(index) is not int:  # bool too: X1 is not XTrue
            raise ValueError(f"variable index {index!r} is not an integer")
        if index < 1:
            raise ValueError(f"variable index must be at least 1, got {index}")
        object.__setattr__(self, "index", index)


class Bot(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = __match_args__ = ("child",)
    child: Formula

    def __init__(self, child: Formula) -> None:
        object.__setattr__(self, "child", child)


class _Binary(Formula):
    """Fields of the binary kinds; each is its own type: And(a, b) != Or(a, b)."""

    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Lhd(_Binary):
    __slots__ = ()


#: The syntax: each node kind's token text and precedence (higher binds
#: tighter).  The scanner, parser and printer all read it.
_SYNTAX = (
    ("X", Var, 5), ("0", Bot, 5), ("1", Top, 5), ("~", Not, 4),
    ("&", And, 3), ("|", Or, 2), ("->", Implies, 1), ("<->", Iff, 1), ("<|", Lhd, 1),
)
_NODE = {text: node for text, node, _ in _SYNTAX}
_TEXT = {node: text for text, node, _ in _SYNTAX}
_PREC = {key: prec for text, node, prec in _SYNTAX for key in (text, node)}
_BINARY_KINDS = tuple(node for _, node, prec in _SYNTAX if prec < 4)
#: Each kind's shape in a program: its number of subformula operands.
_SHAPE = {node: min(5 - prec, 2) for _, node, prec in _SYNTAX}


def program(f: Formula) -> list[tuple[type, tuple[int, ...], list[int]]]:
    """f as straight-line code: one (kind, operands, released) step per
    distinct subformula, each after its operands, left subtrees before right
    ones.  Operands are 0-based variable numbers for Var and earlier step
    numbers otherwise; `released` lists the steps whose value is last read
    here.  A step is numbered by its value, (kind, operands), so equal
    subformulas share one step however they were built; a node object met
    again is not walked again.  One iterative pass over f, so any depth is
    fine."""
    steps: list[tuple[type, tuple[int, ...], list[int]]] = []
    step: dict[int, int] = {}  # id()s: hashing a frozen node would recurse into it
    numbered: dict[tuple, int] = {}  # (kind, operands): flat, so hashing is cheap
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in step:
            continue
        kind = type(node)
        shape = _SHAPE.get(kind)
        if shape == 2:
            if not expanded:
                stack += ((node, True), (node.right, False), (node.left, False))
                continue
            args = (step[id(node.left)], step[id(node.right)])
        elif shape == 1:
            if not expanded:
                stack += ((node, True), (node.child, False))
                continue
            args = (step[id(node.child)],)
        elif kind is Var:
            args = (node.index - 1,)
        elif shape == 0:
            args = ()
        else:
            raise TypeError(f"not a formula: {node!r}")
        key = (kind, args)
        s = numbered.get(key)
        if s is None:
            s = numbered[key] = len(steps)
            steps.append((kind, args, []))
        step[id(node)] = s
    # A step's last reader is the first one met walking backwards.
    read: set[int] = set()
    for kind, args, released in reversed(steps):
        if kind is not Var:
            for s in args:
                if s not in read:
                    read.add(s)
                    released.append(s)
    return steps


def _arity(steps) -> int:
    return max((args[0] + 1 for kind, args, _ in steps if kind is Var), default=0)


def arity(f: Formula) -> int:
    """Largest variable index occurring in f (0 for variable-free formulas)."""
    return _arity(program(f))


def run(steps, variables: Sequence, bot, top, ops: dict):
    """Execute a program in one Goedel algebra and return the value of its
    last step.  The algebra is bot, top and ops, which maps And, Or and
    Implies to its meet, join and residuum; run completes ops with ~, <->
    and <| as their abbreviations over & and ->.  Var k takes variables[k],
    Bot and Top take bot and top, and every other kind applies ops[kind] to
    its operands' values.  Each value is dropped after its last read, so
    few stay alive."""
    meet, implies = ops[And], ops[Implies]
    ops = {
        **ops,
        Not: lambda a: implies(a, bot),
        Iff: lambda a, b: meet(implies(a, b), implies(b, a)),
        Lhd: lambda a, b: implies(implies(b, a), b),
    }
    values: list = []
    for kind, args, released in steps:
        if kind is Var:
            try:
                v = variables[args[0]]
            except IndexError:
                raise ValueError(
                    f"formula uses X{_arity(steps)} but n is {len(variables)}"
                ) from None
        elif kind is Bot:
            v = bot
        elif kind is Top:
            v = top
        elif kind is Not:
            v = ops[kind](values[args[0]])
        else:
            v = ops[kind](values[args[0]], values[args[1]])
        values.append(v)
        for s in released:
            values[s] = None
    return values[-1]


def eval_formula(f: Formula, values: Sequence[Fraction]) -> Fraction:
    """Value of f when Xi takes values[i-1], under Goedel semantics.

    & is min, | is max and -> is the residuum (1 when left <= right, else
    the right value); `run` derives ~, <-> and <| from them.  Runs
    program(f), so any depth is fine.
    """
    from fractions import Fraction  # loaded only where a Fraction is made

    zero, one = Fraction(0), Fraction(1)

    def residuum(a: Fraction, b: Fraction) -> Fraction:
        return one if a <= b else b

    return run(program(f), values, zero, one, {And: min, Or: max, Implies: residuum})


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


def format_formula(f: Formula) -> str:
    """Render f with minimal parentheses; parse_formula inverts it exactly.
    An explicit stack of nodes and text pieces, so any depth is fine."""
    pieces: list[str] = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is _Piece:
            pieces.append(item)
        elif _PREC.get(kind) == 5:
            pieces.append(f"X{item.index}" if kind is Var else _TEXT[kind])
        elif kind is Not:
            stack += _wrapped(item.child, _PREC.get(type(item.child), 0) < 4)
            pieces.append("~")
        elif kind in _BINARY_KINDS:
            # & and | group to the left, the arrows to the right.
            prec, left, right = _PREC[kind], item.left, item.right
            lp, rp = _PREC.get(type(left), 0), _PREC.get(type(right), 0)
            stack += _wrapped(right, rp <= prec and (prec > 1 or type(right) is not kind))
            stack.append(_SPACED[kind])
            stack += _wrapped(left, lp < prec or lp == prec == 1)
        else:
            raise TypeError(f"not a formula: {item!r}")
    return "".join(pieces)


class _Piece(str):
    """Text on the printer's stack; a type of its own, so no node is taken for it."""

    __slots__ = ()


_OPEN, _CLOSE = _Piece("("), _Piece(")")
_SPACED = {node: _Piece(f" {_TEXT[node]} ") for node in _BINARY_KINDS}


def _wrapped(node: object, parenthesize: bool) -> tuple:
    """Stack items that print node, in parentheses if asked."""
    return (_CLOSE, node, _OPEN) if parenthesize else (node,)
