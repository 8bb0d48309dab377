"""The forest's and partitions' frozen records against the dataclasses they
replaced (`REFERENCE_RECORDS` in helpers): equality, hashing, repr, pattern
matching, immutability, validation messages, copying and pickling."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from godelforest import (
    AssignmentClass,
    Partition,
    PiecewiseLinearFuzzySet,
    Subforest,
    enumerate_forest,
    full_subforest,
    ruspini_subforest,
    synthesize_partition,
)
from godelforest.forest import _class
from helpers import (
    REFERENCE_RECORDS,
    ReferenceAssignmentClass,
    ReferencePartition,
    ReferencePiecewiseLinearFuzzySet,
    ReferenceSubforest,
    random_partition,
    random_ruspini_subforest,
    random_subforest,
    reference_record,
)


def forest_classes(n):
    forest = enumerate_forest(n)
    return forest.walk(forest.full)[0]


def partitions():
    rng = random.Random(4242)
    out = [random_partition(rng, 1 + k % 4) for k in range(24)]
    for n in (2, 3):
        out += [synthesize_partition(random_ruspini_subforest(rng, enumerate_forest(n)), n)
                for _ in range(4)]
    return out


def records():
    """Every class for n <= 4, subforests, and random partitions and sets."""
    rng = random.Random(77)
    out = [c for n in range(1, 5) for c in forest_classes(n)]
    for n in range(1, 5):
        forest = enumerate_forest(n)
        out += [full_subforest(forest), ruspini_subforest(forest)]
        out += [random_subforest(rng, forest) for _ in range(3)]
    for p in partitions():
        out += [p, *p.sets]
    return out


RECORDS = records()


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
    raise AssertionError(f"no pattern matched {ref!r}")


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
        got = fields(record)
        if isinstance(record, Partition):
            got = (tuple(map(reference_record, record.sets)),)
        assert got == reference_fields(ref)
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


def raised(action) -> str:
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_assignment_and_deletion_raise_as_in_the_dataclasses():
    for record in RECORDS[:: max(1, len(RECORDS) // 60)]:
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
    raised(lambda: setattr(rebuilt, record.__match_args__[0], 0))
    if isinstance(record, Subforest):  # a new forest: equal masks, not equal subforests
        assert rebuilt.mask == record.mask and len(rebuilt.forest) == len(record.forest)
        assert rebuilt != record and repr(rebuilt) == repr(record)
    else:
        assert rebuilt == record and hash(rebuilt) == hash(record)
        assert repr(rebuilt) == repr(record)


def test_copy_deepcopy_and_pickle_round_trips():
    for record in RECORDS[:: max(1, len(RECORDS) // 80)] + RECORDS[-30:]:
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
    ]
    for name, points in bad_sets:
        with pytest.raises(ValueError) as expected:
            ReferencePiecewiseLinearFuzzySet(name, points)
        with pytest.raises(ValueError) as got:
            PiecewiseLinearFuzzySet(name, points)
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="^a partition needs at least one fuzzy set$"):
        Partition([])
