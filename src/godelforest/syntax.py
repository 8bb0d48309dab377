"""Formulas of propositional Goedel logic: AST, evaluation and printer.

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

The parser is `formulas`, which reads the token tables here.  Code that
builds, decides or prints formulas without reading text (the stock axioms,
`axiomatize`, `analyze`) imports this module alone and never compiles the
parser or its regular expression.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .records import _Record, _shown

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
            raise ValueError(f"variable index must be at least 1, got {_shown(index)}")
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
                    f"formula uses X{_shown(_arity(steps))} but n is {len(variables)}"
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
            try:
                pieces.append(f"X{item.index}" if kind is Var else _TEXT[kind])
            except ValueError:  # an index past the int-to-str limit
                raise ValueError(
                    f"variable index {_shown(item.index)} is too long to print") from None
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
