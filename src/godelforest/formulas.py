"""Formulas of propositional Goedel logic: AST, parser, printer, evaluation.

Connectives: ~ (negation), & (min), | (max), -> (residuated implication),
constants 0/bot and 1/top.  Two derived connectives are kept as AST nodes so
formulas print the way they were written:

    a <-> b   abbreviates (a -> b) & (b -> a)
    a <| b    abbreviates (b -> a) -> b, which takes value 1 exactly when
              the value of a is strictly below that of b, or both are 1

All truth values are exact rationals in [0, 1]; evaluation never produces a
value outside {0, 1} and the values supplied by the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class Formula:
    """Immutable AST node; concrete kinds are the dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be at least 1, got {self.index}")


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Lhd(Formula):
    left: Formula
    right: Formula


def arity(f: Formula) -> int:
    """Largest variable index occurring in f (0 for variable-free formulas)."""
    result, stack = 0, [f]
    while stack:
        match stack.pop():
            case Var(index=i):
                result = max(result, i)
            case Bot() | Top():
                pass
            case Not(child=c):
                stack.append(c)
            case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r) \
                    | Iff(left=l, right=r) | Lhd(left=l, right=r):
                stack += (l, r)
            case node:
                raise TypeError(f"not a formula: {node!r}")
    return result


def expand_derived(f: Formula) -> Formula:
    """Rewrite <-> and <| into the primitive connectives, recursively."""
    match f:
        case Var() | Bot() | Top():
            return f
        case Not(child=c):
            return Not(expand_derived(c))
        case And(left=l, right=r):
            return And(expand_derived(l), expand_derived(r))
        case Or(left=l, right=r):
            return Or(expand_derived(l), expand_derived(r))
        case Implies(left=l, right=r):
            return Implies(expand_derived(l), expand_derived(r))
        case Iff(left=l, right=r):
            l, r = expand_derived(l), expand_derived(r)
            return And(Implies(l, r), Implies(r, l))
        case Lhd(left=l, right=r):
            l, r = expand_derived(l), expand_derived(r)
            return Implies(Implies(r, l), r)
    raise TypeError(f"not a formula: {f!r}")


_BINARY_KINDS = (And, Or, Implies, Iff, Lhd)


def postorder(f: Formula) -> list[Formula]:
    """The distinct node objects of f, each after its children, left
    subtrees before right ones.  Iterative, so any depth is fine; a node
    object shared by several parents appears once."""
    order: list[Formula] = []
    done: set[int] = set()  # id()s: hashing a frozen node would recurse into it
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if expanded:
            done.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        kind = type(node)
        if kind is Not:
            stack.append((node.child, False))
        elif kind in _BINARY_KINDS:
            stack += ((node.right, False), (node.left, False))
        elif kind not in (Var, Bot, Top):
            raise TypeError(f"not a formula: {node!r}")
    return order


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _residuum(a: Fraction, b: Fraction) -> Fraction:
    return _ONE if a <= b else b


_BINARY_VALUE = {
    And: min,
    Or: max,
    Implies: _residuum,
    Iff: lambda a, b: min(_residuum(a, b), _residuum(b, a)),
    Lhd: lambda a, b: _residuum(_residuum(b, a), b),
}


def eval_formula(f: Formula, values: Sequence[Fraction]) -> Fraction:
    """Value of f when Xi takes values[i-1], under Goedel semantics.

    & is min, | is max, -> is the residuum (1 when left <= right, else the
    right value), ~a is a -> 0.  The derived connectives evaluate through
    their expansions.  One pass over postorder(f), so any depth is fine.
    """
    value: dict[int, Fraction] = {}
    for node in postorder(f):
        kind = type(node)
        if kind is Var:
            if node.index > len(values):
                raise ValueError(
                    f"formula uses X{node.index} but the assignment has {len(values)} values"
                )
            v = values[node.index - 1]
        elif kind is Bot:
            v = _ZERO
        elif kind is Top:
            v = _ONE
        elif kind is Not:
            v = _residuum(value[id(node.child)], _ZERO)
        else:
            v = _BINARY_VALUE[kind](value[id(node.left)], value[id(node.right)])
        value[id(node)] = v
    return value[id(f)]


class ParseError(ValueError):
    """Malformed formula text; `pos` is the 0-based character offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    pos: int
    index: int = 0


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "X":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'X'", i)
            index = int(text[i + 1 : j])
            if index == 0:
                raise ParseError("variable index 0 is not allowed", i)
            tokens.append(_Token("var", i, index))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "bot":
                tokens.append(_Token("zero", i))
            elif word == "top":
                tokens.append(_Token("one", i))
            else:
                raise ParseError(f"unknown word {word!r}", i)
            i = j
            continue
        if ch == "0":
            tokens.append(_Token("zero", i))
            i += 1
            continue
        if ch == "1":
            tokens.append(_Token("one", i))
            i += 1
            continue
        if ch == "~":
            tokens.append(_Token("not", i))
            i += 1
            continue
        if ch == "&":
            tokens.append(_Token("and", i))
            i += 1
            continue
        if ch == "|":
            tokens.append(_Token("or", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", i))
            i += 1
            continue
        if ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(_Token("implies", i))
                i += 2
                continue
            raise ParseError("expected '->'", i)
        if ch == "<":
            if text[i : i + 3] == "<->":
                tokens.append(_Token("iff", i))
                i += 3
                continue
            if text[i : i + 2] == "<|":
                tokens.append(_Token("lhd", i))
                i += 2
                continue
            raise ParseError("expected '<->' or '<|'", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", n))
    return tokens


_ARROWS = {"implies": Implies, "iff": Iff, "lhd": Lhd}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.arrow()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos)
        return f

    def arrow(self) -> Formula:
        items = [self.disjunction()]
        ops: list[_Token] = []
        while self.peek().kind in _ARROWS:
            ops.append(self.advance())
            items.append(self.disjunction())
        if not ops:
            return items[0]
        for tok in ops[1:]:
            if tok.kind != ops[0].kind:
                raise ParseError(
                    "mixing '->', '<->', '<|' in one chain requires parentheses",
                    tok.pos,
                )
        node = _ARROWS[ops[0].kind]
        result = items[-1]
        for item in reversed(items[:-1]):
            result = node(item, result)
        return result

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "or":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "and":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        negations = 0
        while self.peek().kind == "not":
            self.advance()
            negations += 1
        f = self.atom()
        for _ in range(negations):
            f = Not(f)
        return f

    def atom(self) -> Formula:
        tok = self.advance()
        if tok.kind == "var":
            return Var(tok.index)
        if tok.kind == "zero":
            return Bot()
        if tok.kind == "one":
            return Top()
        if tok.kind == "lparen":
            f = self.arrow()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            return f
        raise ParseError("expected a variable, constant, '~' or '('", tok.pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text.

    Variables are X1, X2, ...; constants 0/bot and 1/top.  ~ binds tightest,
    then &, then |, then the arrows ->, <->, <| at equal precedence.  Arrows
    associate to the right and may not be mixed in one chain without
    parentheses.
    """
    return _Parser(_tokenize(text)).parse()


def _prec(f: Formula) -> int:
    match f:
        case Var() | Bot() | Top():
            return 5
        case Not():
            return 4
        case And():
            return 3
        case Or():
            return 2
    return 1


_ARROW_SYMBOL = {Implies: "->", Iff: "<->", Lhd: "<|"}


def format_formula(f: Formula) -> str:
    """Render f with minimal parentheses; parse_formula inverts it exactly."""

    def wrap(child: Formula, needed: bool) -> str:
        s = format_formula(child)
        return f"({s})" if needed else s

    match f:
        case Var(index=i):
            return f"X{i}"
        case Bot():
            return "0"
        case Top():
            return "1"
        case Not(child=c):
            return "~" + wrap(c, _prec(c) < 4)
        case And(left=l, right=r):
            return wrap(l, _prec(l) < 3) + " & " + wrap(r, _prec(r) <= 3)
        case Or(left=l, right=r):
            return wrap(l, _prec(l) < 2) + " | " + wrap(r, _prec(r) <= 2)
        case Implies() | Iff() | Lhd():
            sym = _ARROW_SYMBOL[type(f)]
            left_s = wrap(f.left, _prec(f.left) <= 1)
            right_s = wrap(
                f.right, _prec(f.right) <= 1 and type(f.right) is not type(f)
            )
            return f"{left_s} {sym} {right_s}"
    raise TypeError(f"not a formula: {f!r}")
