"""The package's frozen records (the forest's classes and subforests, the
partitions, the formula AST, `Logic` and `AnalysisReport`) against the
dataclasses they replaced (`REFERENCE_RECORDS` in helpers): equality,
hashing, repr, pattern matching, immutability, validation messages, copying
and pickling."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from godelforest import (
    GINF,
    AnalysisReport,
    And,
    AssignmentClass,
    Bot,
    Formula,
    Iff,
    Implies,
    Lhd,
    Logic,
    Not,
    Or,
    Partition,
    PiecewiseLinearFuzzySet,
    Subforest,
    Top,
    Var,
    analyze,
    enumerate_forest,
    full_subforest,
    format_formula,
    overlap_axiom,
    parse_formula,
    ruspini_subforest,
    synthesize_partition,
)
from godelforest.classes import _class
from helpers import (
    REFERENCE_RECORDS,
    ReferenceAnalysisReport,
    ReferenceAnd,
    ReferenceAssignmentClass,
    ReferenceBot,
    ReferenceIff,
    ReferenceImplies,
    ReferenceLhd,
    ReferenceLogic,
    ReferenceNot,
    ReferenceOr,
    ReferencePartition,
    ReferencePiecewiseLinearFuzzySet,
    ReferenceSubforest,
    ReferenceTop,
    ReferenceVar,
    random_dag,
    random_formula,
    random_partition,
    random_ruspini_subforest,
    random_subforest,
    reference_record,
    reference_value,
    walked,
)


def forest_classes(n):
    forest = enumerate_forest(n)
    return walked(forest, forest.full)[0]


def partitions():
    rng = random.Random(4242)
    out = [random_partition(rng, 1 + k % 4) for k in range(24)]
    for n in (2, 3):
        out += [synthesize_partition(random_ruspini_subforest(rng, enumerate_forest(n)).members)
                for _ in range(4)]
    return out


def subformulas(f):
    """The node objects of f, f first."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [v for v in fields(node) if isinstance(v, Formula)]
    return out


def formulas():
    """Seeded random formulas, shared-node DAGs and a stock axiom, with
    every kind of node among them."""
    rng = random.Random(99)
    out = [random_formula(rng, 4, rng.randint(0, 5)) for _ in range(40)]
    return out + [random_dag(rng, 3, 12) for _ in range(4)] + [overlap_axiom(4)]


def reports():
    """Reports of seeded partitions over at most three sets, with either
    verdict of each check among them."""
    rng = random.Random(31)
    ps = [random_partition(rng, 1 + k % 3) for k in range(10)]
    ps += [synthesize_partition(random_ruspini_subforest(rng, enumerate_forest(n)).leaves())
           for n in (2, 3)]
    return [analyze(p) for p in ps]


def records():
    """Every class for n <= 4, subforests, random partitions and sets, the
    nodes of random formulas, logics, and analysis reports."""
    rng = random.Random(77)
    out = [c for n in range(1, 5) for c in forest_classes(n)]
    for n in range(1, 5):
        forest = enumerate_forest(n)
        out += [full_subforest(forest), ruspini_subforest(forest)]
        out += [random_subforest(rng, forest) for _ in range(3)]
    for p in partitions():
        out += [p, *p.sets]
    for f in formulas():
        out += subformulas(f)
    out += [GINF, Logic(), *map(Logic, range(2, 6))]
    return out + reports()


def fields(record):
    match record:
        case AssignmentClass(n, zero, mid, one):
            return (n, zero, mid, one)
        case Subforest(forest, mask):
            return (forest, mask)
        case PiecewiseLinearFuzzySet(name, points):
            return (name, points)
        case Partition(sets):
            return (sets,)
        case Var(index):
            return (index,)
        case Bot() | Top():
            return ()
        case Not(child):
            return (child,)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) | Lhd(a, b):
            return (a, b)
        case Logic(t):
            return (t,)
        case AnalysisReport(n, leaves, exact, weak, two, axiom, rc, oc, cc):
            return (n, leaves, exact, weak, two, axiom, rc, oc, cc)
    raise AssertionError(f"no pattern matched {record!r}")


def reference_fields(ref):
    match ref:
        case ReferenceAssignmentClass(n, zero, mid, one):
            return (n, zero, mid, one)
        case ReferenceSubforest(forest, mask):
            return (forest, mask)
        case ReferencePiecewiseLinearFuzzySet(name, points):
            return (name, points)
        case ReferencePartition(sets):
            return (sets,)
        case ReferenceVar(index):
            return (index,)
        case ReferenceBot() | ReferenceTop():
            return ()
        case ReferenceNot(child):
            return (child,)
        case (ReferenceAnd(a, b) | ReferenceOr(a, b) | ReferenceImplies(a, b)
              | ReferenceIff(a, b) | ReferenceLhd(a, b)):
            return (a, b)
        case ReferenceLogic(t):
            return (t,)
        case ReferenceAnalysisReport(n, leaves, exact, weak, two, axiom, rc, oc, cc):
            return (n, leaves, exact, weak, two, axiom, rc, oc, cc)
    raise AssertionError(f"no pattern matched {ref!r}")


RECORDS = records()


def sample(k):
    """Up to k records of each record class, spread over RECORDS."""
    by_type = {}
    for record in RECORDS:
        by_type.setdefault(type(record), []).append(record)
    return [r for group in by_type.values() for r in group[:: max(1, len(group) // k)][:k]]


def test_records_declare_the_dataclass_fields_and_hold_no_dict():
    for record_cls, ref_cls in REFERENCE_RECORDS.items():
        assert record_cls.__match_args__ == ref_cls.__match_args__
    assert {type(r) for r in RECORDS} == set(REFERENCE_RECORDS)
    assert not any(hasattr(r, "__dict__") for r in RECORDS)


def test_hash_repr_and_match_equal_the_dataclasses():
    for record in RECORDS:
        ref = reference_record(record)
        assert hash(record) == hash(ref)
        assert repr(record) == repr(ref)
        assert reference_value(fields(record)) == reference_fields(ref)
        # Equal to a field-by-field copy, and never to another type: not to
        # its dataclass, and not to the tuple of its fields.
        twin = copy.copy(record)
        assert twin is not record and twin == record and not twin != record
        assert record != ref and record.__eq__(ref) is NotImplemented
        assert record.__eq__(fields(record)) is NotImplemented


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_equality_equals_the_dataclasses_on_every_pair(n):
    classes = forest_classes(n)
    refs = [reference_record(c) for c in classes]
    # Rebuilt through the validating constructor: equal, not identical.
    again = [AssignmentClass(c.n, c.zero[::-1], c.mid, c.one) for c in classes]
    for (a, ra), (b, rb) in itertools.product(zip(again, refs), zip(classes, refs)):
        assert (a == b) is (ra == rb)
        assert (a != b) is (ra != rb)
    assert len(set(classes) | set(again)) == len(set(refs)) == len(classes)
    other = forest_classes(n + 1)[0]
    assert classes[0] != other and reference_record(other) != refs[0]


def test_partition_equality_equals_the_dataclasses():
    ps = partitions()
    for a, b in itertools.product(ps, repeat=2):
        assert (a == b) is (reference_record(a) == reference_record(b))
        assert (a.sets[0] == b.sets[0]) is (
            reference_record(a.sets[0]) == reference_record(b.sets[0])
        )
    rebuilt = Partition([PiecewiseLinearFuzzySet(f.name, f.points) for f in ps[0].sets])
    assert rebuilt == ps[0] and hash(rebuilt) == hash(ps[0])


def test_formula_equality_equals_the_dataclasses_on_every_pair():
    nodes = list({id(g): g for f in formulas() for g in subformulas(f)}.values())[::3]
    refs = [reference_record(g) for g in nodes]
    # Parsed back from their text: equal, not identical.
    again = [parse_formula(format_formula(g)) for g in nodes]
    assert {type(g) for g in again} == {type(g) for g in nodes}
    assert {type(g) for g in nodes} == {Var, Bot, Top, Not, And, Or, Implies, Iff, Lhd}
    for (a, ra), (b, rb) in itertools.product(zip(again, refs), zip(nodes, refs)):
        assert (a == b) is (ra == rb)
        assert (a != b) is (ra != rb)
    assert len(set(nodes) | set(again)) == len(set(refs))
    # Equal fields, different kinds: unequal, as dataclasses of two types are.
    x1, x2 = Var(1), Var(2)
    kinds = [And, Or, Implies, Iff, Lhd]
    for a, b in itertools.product(kinds, repeat=2):
        ra, rb = REFERENCE_RECORDS[a], REFERENCE_RECORDS[b]
        assert (a(x1, x2) == b(x1, x2)) is (ra(x1, x2) == rb(x1, x2)) is (a is b)
    assert Bot() == Bot() and Bot() != Top() and hash(Bot()) == hash(Top()) == hash(())
    assert Not(x1) != Var(1) and Not(x1) == Not(Var(1))


def test_logic_and_report_equality_equals_the_dataclasses():
    logics = [GINF, Logic(), Logic(None), Logic(2), Logic(3), Logic(t=3)]
    for a, b in itertools.product(logics, repeat=2):
        assert (a == b) is (reference_record(a) == reference_record(b))
    rs = reports()
    for a, b in itertools.product(rs, repeat=2):
        assert (a == b) is (reference_record(a) == reference_record(b))
    # Either verdict of every check occurs.
    for name in ("ruspini_checks", "overlap_checks", "combined_checks"):
        assert {getattr(r, name)[2] for r in rs} == {True, False}
    rebuilt = AnalysisReport(*fields(rs[0]))
    assert rebuilt == rs[0] and rebuilt is not rs[0] and hash(rebuilt) == hash(rs[0])


def raised(action) -> str:
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_assignment_and_deletion_raise_as_in_the_dataclasses():
    for record in sample(4):
        before = fields(record)
        for name in record.__match_args__:
            for target in (record, reference_record(record)):
                assert raised(lambda: setattr(target, name, 0)) == (
                    f"cannot assign to field {name!r}")
                assert raised(lambda: delattr(target, name)) == (
                    f"cannot delete field {name!r}")
        # Other names too; the slotted dataclasses raised TypeError here.
        assert raised(lambda: setattr(record, "other", 0)) == "cannot assign to field 'other'"
        assert raised(lambda: delattr(record, "other")) == "cannot delete field 'other'"
        assert fields(record) == before


def check_rebuilt(record, rebuilt):
    assert type(rebuilt) is type(record)
    if record.__match_args__:
        raised(lambda: setattr(rebuilt, record.__match_args__[0], 0))
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert repr(rebuilt) == repr(record)
    if isinstance(record, Subforest):  # the cached forest, not a copy of it
        assert rebuilt.forest is record.forest is enumerate_forest(record.forest.n)
        assert rebuilt.meet(record) == record and record.issubset(rebuilt)


def test_copy_deepcopy_and_pickle_round_trips():
    for record in sample(6):
        shallow = copy.copy(record)
        assert type(shallow) is type(record) and shallow == record
        assert all(a is b for a, b in zip(fields(shallow), fields(record)))
        check_rebuilt(record, copy.deepcopy(record))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            check_rebuilt(record, pickle.loads(pickle.dumps(record, protocol)))


BAD_CLASSES = [
    (0, (), (), ()),
    (2, (1,), (), ()),
    (2, (1, 1), (), (2,)),
    (2, (1,), ((),), (2,)),
    (2, (True,), (), (2,)),
    (2, (1,), (), (3,)),
    (2, (1.0,), (), (2,)),
    (3, (3, 1), ((2,),), ()),
]


def test_validation_and_messages_equal_the_dataclasses():
    for args in BAD_CLASSES:
        try:
            expected = ReferenceAssignmentClass(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                AssignmentClass(*args)
            assert str(got.value) == str(exc)
        else:
            assert reference_record(AssignmentClass(*args)) == expected
    # The unvalidated constructor of the forest code skips the checks.
    assert _class(2, (1,), (), ()).zero == (1,)
    bad_sets = [
        ("f", ((0, 0),)),
        ("f", ((0, 0), (Fraction(1, 2), 2), (1, 0))),
        ("f", ((Fraction(1, 3), 0), (1, 0))),
        ("f", ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0), (1, 0))),
        ("f", ((0, 0), (1, 1), (1, 0), (1, 1))),
        ("f", ((0, "1/2"), ("1", True))),
        ("f", ((0, 0), (0, 1), (0, 0), (1, 0), (1, 1), (1, 0))),
        ("f", ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (Fraction(1, 2), 0),
               (Fraction(1, 2), 1), (1, 0))),
    ]
    for name, points in bad_sets:
        with pytest.raises(ValueError) as expected:
            ReferencePiecewiseLinearFuzzySet(name, points)
        with pytest.raises(ValueError) as got:
            PiecewiseLinearFuzzySet(name, points)
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="^a partition needs at least one fuzzy set$"):
        Partition([])
    for make, ref, arg in [(Var, ReferenceVar, 0), (Var, ReferenceVar, -2),
                           (Logic, ReferenceLogic, 1), (Logic, ReferenceLogic, -3)]:
        with pytest.raises(ValueError) as expected:
            ref(arg)
        with pytest.raises(ValueError) as got:
            make(arg)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("arg", [True, False, 2.5, 1.0, 3.0, "3", Fraction(3)])
def test_var_and_logic_refuse_what_is_not_an_int(arg):
    # The dataclasses took most of these: Var(True) printed as XTrue, which
    # parse_formula cannot read back, and decisions ended in a TypeError.
    with pytest.raises(ValueError) as got:
        Var(arg)
    assert str(got.value) == f"variable index {arg!r} is not an integer"
    with pytest.raises(ValueError) as got:
        Logic(arg)
    assert str(got.value) == f"truth-value count {arg!r} is not an integer"
    assert "\n" not in str(got.value)
