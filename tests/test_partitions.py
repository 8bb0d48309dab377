import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelforest import (
    Partition,
    PiecewiseLinearFuzzySet,
    as_fraction,
    check_2_overlapping,
    check_ruspini_exact,
    class_of_values,
    critical_points,
    enumerate_forest,
    is_ruspini_subforest,
    is_weak_ruspini,
    partition_forest,
    partition_from_json,
    partition_to_json,
    realized_classes,
    two_overlap_subforest,
)
from helpers import (cls, fr, random_exact_partition, random_partition,
                     reference_check_ruspini_exact, reference_critical_points, reference_left_limit,
                     walked)


def pl(name, *pts):
    return PiecewiseLinearFuzzySet(name, tuple((fr(x), fr(y)) for x, y in pts))


def constant(name, value):
    return pl(name, ("0", value), ("1", value))


@pytest.fixture
def complementary_pair():
    return Partition((pl("f1", ("0", "0"), ("1", "1")), pl("f2", ("0", "1"), ("1", "0"))))


def test_value_at_interpolation():
    f = pl("f", ("0", "0"), ("1/2", "1"), ("1", "0"))
    assert f.value_at(fr("1/4")) == fr("1/2")
    assert f.value_at(fr("1/2")) == 1
    assert f.value_at(fr("3/4")) == fr("1/2")
    assert f.value_at(0) == 0 and f.value_at(1) == 0


def test_value_at_jump_is_right_continuous():
    f = pl("f", ("0", "1"), ("1/2", "1"), ("1/2", "0"), ("1", "0"))
    assert f.value_at(fr("1/2")) == 0
    assert f.value_at(fr("499/1000")) == 1
    assert reference_left_limit(f, fr("1/2")) == 1


def test_value_at_endpoints_and_jump_at_one():
    f = pl("f", ("0", "1"), ("1", "1"), ("1", "0"))
    assert f.value_at(0) == 1
    assert f.value_at(1) == 0
    assert reference_left_limit(f, 1) == 1
    with pytest.raises(ValueError):
        f.value_at(fr(2))
    with pytest.raises(ValueError):
        reference_left_limit(f, 0)


def test_set_validation_names_offender():
    with pytest.raises(ValueError, match="bad"):
        pl("bad", ("0", "0"), ("1/2", "2"), ("1", "0"))
    with pytest.raises(ValueError, match="first abscissa"):
        pl("g", ("1/4", "0"), ("1", "0"))
    with pytest.raises(ValueError, match=r"^set 'g', point 1: abscissa 3/2 outside \[0, 1\]$"):
        pl("g", ("0", "0"), ("3/2", "1"), ("1", "0"))
    with pytest.raises(ValueError, match="last abscissa"):
        pl("g", ("0", "0"), ("1/2", "0"))
    with pytest.raises(ValueError, match="nondecreasing"):
        pl("g", ("0", "0"), ("1/2", "1"), ("1/4", "0"), ("1", "0"))
    with pytest.raises(ValueError, match="more than twice"):
        pl("g", ("0", "0"), ("1/2", "0"), ("1/2", "1"), ("1/2", "0"), ("1", "0"))


def test_partition_needs_a_set():
    with pytest.raises(ValueError):
        Partition(())


def test_realized_classes_constant_one():
    p = Partition((constant("f1", "1"),))
    assert realized_classes(p) == frozenset({cls(1, one=[1])})
    assert partition_forest(p).members == frozenset({cls(1, one=[1])})


def test_realized_classes_complementary_pair(complementary_pair):
    expected = {
        cls(2, zero=[1], one=[2]),
        cls(2, mid=[[1], [2]]),
        cls(2, mid=[[1, 2]]),
        cls(2, mid=[[2], [1]]),
        cls(2, zero=[2], one=[1]),
    }
    assert realized_classes(complementary_pair) == frozenset(expected)


def test_partition_forest_complementary_pair(complementary_pair):
    # downset closure adds the three ancestors with some variable at 1
    fp = partition_forest(complementary_pair)
    expected = realized_classes(complementary_pair) | {
        cls(2, one=[1, 2]),
        cls(2, mid=[[1]], one=[2]),
        cls(2, mid=[[2]], one=[1]),
    }
    assert fp.members == frozenset(expected)
    assert len(fp) == 8


def test_partition_forest_size_matches_generated_algebra(complementary_pair):
    # |Sub(F(P))| must equal the size of the algebra of functions generated
    # by the partition under pointwise min, max, and residuum.
    samples = [fr(0), fr("1/4"), fr("1/2"), fr("3/4"), fr(1)]
    gen = {
        tuple(f.value_at(x) for x in samples) for f in complementary_pair.sets
    }
    gen |= {tuple(fr(1) for _ in samples), tuple(fr(0) for _ in samples)}

    def imp(a, b):
        return tuple(fr(1) if ai <= bi else bi for ai, bi in zip(a, b))

    algebra = set(gen)
    while True:
        fresh = set()
        items = list(algebra)
        for a in items:
            for b in items:
                for r in (
                    imp(a, b),
                    tuple(map(min, a, b)),
                    tuple(map(max, a, b)),
                ):
                    if r not in algebra:
                        fresh.add(r)
        if not fresh:
            break
        algebra |= fresh

    fp = partition_forest(complementary_pair)
    members = walked(fp.forest, fp.mask)[0]
    subforests = 0
    for r in range(len(members) + 1):
        for chosen in itertools.combinations(members, r):
            chosen_set = set(chosen)
            if all(
                c.parent() is None or c.parent() in chosen_set for c in chosen_set
            ):
                subforests += 1
    assert len(algebra) == subforests == 76


def test_triple_crossing_found_exactly_once():
    # three sets crossing at a single point: the class with all three equal
    # must be realized only there and the scan must not miss it
    p = Partition(
        (
            constant("f1", "1/2"),
            pl("f2", ("0", "0"), ("1", "1")),
            pl("f3", ("0", "1"), ("1", "0")),
        )
    )
    crossing = cls(3, mid=[[1, 2, 3]])
    realized = realized_classes(p)
    assert crossing in realized
    assert class_of_values(p.values_at(fr("1/2"))) == crossing
    # dense-grid oracle: every critical point plus 10 random rationals per cell
    rng = random.Random(99)
    pts = list(critical_points(p))
    samples = list(pts)
    for a, b in itertools.pairwise(pts):
        for _ in range(10):
            t = Fraction(rng.randint(1, 127), 128)
            samples.append(a + t * (b - a))
    oracle = {class_of_values(p.values_at(x)) for x in samples}
    assert oracle == set(realized)


def test_realized_matches_dense_grid_oracle_on_samples():
    rng = random.Random(2024)
    instances = [
        Partition((pl("f1", ("0", "0"), ("1", "1")), pl("f2", ("0", "1"), ("1", "0")))),
        Partition(
            (
                pl("f1", ("0", "1"), ("1/2", "0"), ("1", "0")),
                pl("f2", ("0", "0"), ("1/2", "1"), ("1", "0")),
                pl("f3", ("0", "0"), ("1/2", "0"), ("1", "1")),
            )
        ),
        Partition(
            (
                pl("f1", ("0", "1"), ("1/2", "1"), ("1/2", "0"), ("1", "0")),
                pl("f2", ("0", "0"), ("1/2", "0"), ("1/2", "1"), ("1", "1")),
            )
        ),
        Partition((constant("f1", "1/2"), constant("f2", "1/3"))),
    ]
    for p in instances:
        pts = list(critical_points(p))
        samples = list(pts)
        for a, b in itertools.pairwise(pts):
            for _ in range(10):
                t = Fraction(rng.randint(1, 127), 128)
                samples.append(a + t * (b - a))
        oracle = {class_of_values(p.values_at(x)) for x in samples}
        assert oracle == set(realized_classes(p))


# Partitions whose cells the cursor must read as `value_at` and the left limit do.
_CELL_CASES = [
    # jumps at 0 and at 1, shared by both sets
    Partition((pl("f1", ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
               pl("f2", ("0", "1"), ("0", "0"), ("1", "1"), ("1", "0")))),
    # a jump at a shared inner abscissa, and one set's jump inside the other's piece
    Partition((pl("f1", ("0", "1"), ("1/2", "1"), ("1/2", "0"), ("1", "0")),
               pl("f2", ("0", "0"), ("1/2", "0"), ("1/2", "1"), ("1", "1")),
               pl("f3", ("0", "0"), ("1/4", "1/2"), ("1/4", "1"), ("1", "1/3")))),
    # distinct breakpoints: every cell end of one set is inside the other's piece
    Partition((pl("f1", ("0", "0"), ("1/3", "1"), ("1", "0")),
               pl("f2", ("0", "1"), ("2/3", "0"), ("1", "1")))),
    # tangent to 1 and to 0 at a breakpoint, and lying along 0
    Partition((pl("f1", ("0", "1/2"), ("1/2", "1"), ("1", "1/2")),
               pl("f2", ("0", "1/2"), ("1/2", "0"), ("1", "1/2")),
               pl("f3", ("0", "0"), ("1/3", "0"), ("2/3", "1/2"), ("1", "0")))),
    # constant and equal sets
    Partition((constant("f1", "1/2"), constant("f2", "1/2"), constant("f3", "0"),
               pl("f4", ("0", "0"), ("1", "1")), pl("f5", ("0", "0"), ("1", "1")))),
    # sums 1 at every breakpoint's value, but 3/2 at the left limit at 1
    Partition((pl("f1", ("0", "1"), ("1", "1"), ("1", "0")),
               pl("f2", ("0", "0"), ("1", "1/2"), ("1", "1")))),
    # sums 1 everywhere but at x = 1, where a jump leaves 1/2
    Partition((pl("f1", ("0", "1"), ("1", "1"), ("1", "1/2")), constant("f2", "0"))),
    # a difference of zero at a cell's start
    Partition((pl("f1", ("0", "1/4"), ("1", "1")), pl("f2", ("0", "1/4"), ("1", "0")))),
    # a difference of zero at a cell's end: equal left limits at 1/2, then a jump apart
    Partition((pl("f1", ("0", "0"), ("1/2", "1/2"), ("1/2", "1"), ("1", "1")),
               pl("f2", ("0", "1"), ("1/2", "1/2"), ("1/2", "0"), ("1", "0")))),
    # two sets equal over the whole cell [1/3, 2/3)
    Partition((pl("f1", ("0", "0"), ("1/3", "1/2"), ("2/3", "1/2"), ("1", "1")),
               pl("f2", ("0", "1"), ("1/3", "1/2"), ("2/3", "1/2"), ("1", "0")))),
    # a set at 0 over the cell [1/2, 1), which another set crosses
    Partition((pl("f1", ("0", "1"), ("1/2", "0"), ("1", "0")),
               pl("f2", ("0", "0"), ("1/2", "1"), ("1", "1/2")),
               pl("f3", ("0", "1/3"), ("1", "1/3")))),
    # a set at 1 over the cell [0, 1/2), and a crossing at 2/3 after it
    Partition((pl("f1", ("0", "1"), ("1/2", "1"), ("1", "0")), pl("f2", ("0", "0"), ("1", "1")))),
    # a crossing exactly at the midpoint 1/2 of the cell [1/4, 3/4)
    Partition((pl("f1", ("0", "0"), ("1/4", "0"), ("3/4", "1"), ("1", "1")),
               pl("f2", ("0", "1"), ("1", "0")))),
]


def _edge_partition(rng, n):
    """n sets on grids of sixths or eighths, so breakpoints are shared or
    distinct, with a jump possible at any abscissa, 0 and 1 among them.
    Some sets are constant, some take only 0, 1/2 and 1 (tangent to 0 or 1
    at a breakpoint, or lying along it), and some repeat an earlier set."""
    sets = []
    for i in range(1, n + 1):
        kind = rng.random()
        if sets and kind < 0.15:
            points = rng.choice(sets).points
        elif kind < 0.3:
            value = Fraction(rng.randint(0, 4), 4)
            points = ((0, value), (1, value))
        else:
            den = rng.choice((6, 8))
            inner = sorted(rng.sample(range(1, den), rng.randint(0, 4)))
            xs = [x for x in (0, *inner, den) for _ in range(rng.choice((1, 1, 2)))]
            ys = [Fraction(k, 4) for k in range(5)] if kind > 0.5 else [0, Fraction(1, 2), 1]
            points = tuple((Fraction(x, den), rng.choice(ys)) for x in xs)
        sets.append(PiecewiseLinearFuzzySet(f"f{i}", points))
    return Partition(tuple(sets))


@pytest.mark.parametrize("build", [random_partition, random_exact_partition, _edge_partition])
def test_critical_points_match_the_per_cell_reference(build):
    rng = random.Random(f"cells:{build.__name__}")
    cases = [build(rng, n) for n in (1, 2, 3, 4) for _ in range(100)] + _CELL_CASES
    for p in cases:
        assert critical_points(p) == reference_critical_points(p), p
    verdicts = [reference_check_ruspini_exact(p) for p in cases]
    assert [check_ruspini_exact(p) for p in cases] == verdicts
    assert set(verdicts) == {False, True}


def test_critical_points_scan_no_set_per_cell(monkeypatch):
    expected = [reference_critical_points(p) for p in _CELL_CASES]
    verdicts = [reference_check_ruspini_exact(p) for p in _CELL_CASES]

    def scan(self, x):
        raise AssertionError("a set was scanned from its first point")

    monkeypatch.setattr(PiecewiseLinearFuzzySet, "value_at", scan)
    assert [critical_points(p) for p in _CELL_CASES] == expected
    assert [check_ruspini_exact(p) for p in _CELL_CASES] == verdicts


def test_sampling_revalidates_nothing(monkeypatch):
    """Once a partition is built, its sampling reads and checks no input again."""
    from godelforest import analyze, axiomatize_partition, classes, partitions

    rng = random.Random("revalidate")
    cases = _CELL_CASES + [build(rng, n) for build in (random_partition, _edge_partition)
                           for n in (1, 2, 3) for _ in range(5)]
    queries = (realized_classes, check_2_overlapping, is_weak_ruspini, axiomatize_partition,
               analyze)
    expected = [[query(p) for p in cases] for query in queries]

    def refuse(*args):
        raise AssertionError("input read or checked again")

    for module in (classes, partitions):
        for name in ("as_fraction", "class_of_values"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(PiecewiseLinearFuzzySet, "value_at", refuse)
    assert [[query(p) for p in cases] for query in queries] == expected


def test_check_ruspini_exact(complementary_pair):
    assert check_ruspini_exact(complementary_pair)
    assert not check_ruspini_exact(Partition((constant("f1", "1"), constant("f2", "1"))))
    step = Partition(
        (
            pl("f1", ("0", "1"), ("1/2", "1"), ("1/2", "0"), ("1", "0")),
            pl("f2", ("0", "0"), ("1/2", "0"), ("1/2", "1"), ("1", "1")),
        )
    )
    assert check_ruspini_exact(step)
    # sum is 1 at every breakpoint value but not at a left limit
    sneaky = Partition(
        (
            pl("f1", ("0", "1"), ("1/2", "1"), ("1/2", "0"), ("1", "0")),
            pl("f2", ("0", "0"), ("1/2", "1"), ("1/2", "1"), ("1", "1")),
        )
    )
    assert not check_ruspini_exact(sneaky)


def test_check_2_overlapping():
    assert check_2_overlapping(Partition((constant("f1", "1/2"), constant("f2", "1/2"))))
    halves = Partition(
        (constant("f1", "1/2"), constant("f2", "1/2"), constant("f3", "1/2"))
    )
    assert not check_2_overlapping(halves)


def test_overlap_check_matches_forest_inclusion():
    instances = [
        Partition(
            (
                pl("f1", ("0", "1"), ("1/2", "0"), ("1", "0")),
                pl("f2", ("0", "0"), ("1/2", "1"), ("1", "0")),
                pl("f3", ("0", "0"), ("1/2", "0"), ("1", "1")),
            )
        ),
        Partition(
            (
                pl("f1", ("0", "1"), ("1", "0")),
                pl("f2", ("0", "0"), ("1/2", "1"), ("1", "0")),
                pl("f3", ("0", "0"), ("1", "1")),
            )
        ),
        Partition(
            (constant("f1", "1/2"), constant("f2", "1/2"), constant("f3", "1/2"))
        ),
    ]
    for p in instances:
        forest = enumerate_forest(p.n)
        assert check_2_overlapping(p) == partition_forest(p).issubset(
            two_overlap_subforest(forest)
        )


def test_weak_ruspini_examples(complementary_pair):
    assert is_weak_ruspini(complementary_pair)
    assert not is_weak_ruspini(Partition((constant("f1", "1/2"),)))
    assert not is_weak_ruspini(Partition((constant("f1", "1"), constant("f2", "1"))))


def test_exact_ruspini_implies_weak_ruspini_on_random_partitions():
    rng = random.Random(16)
    exact = 0
    for n in range(1, 7):
        for make in (random_partition, random_exact_partition):
            for _ in range(15):
                p = make(rng, n)
                if check_ruspini_exact(p):
                    exact += 1
                    assert is_weak_ruspini(p)
    assert exact >= 90


def test_weak_ruspini_without_a_forest_matches_the_forest_test():
    rng = random.Random(17)
    verdicts = []
    for n in range(1, 7):
        for _ in range(25):
            p = random_partition(rng, n)
            verdicts.append(is_weak_ruspini(p))
            assert verdicts[-1] == is_ruspini_subforest(partition_forest(p))
    assert set(verdicts) == {False, True}


def test_json_roundtrip(complementary_pair):
    obj = partition_to_json(complementary_pair)
    again = partition_from_json(obj)
    assert again == complementary_pair
    assert partition_to_json(again) == obj


def test_json_equal_rationals_share_one_object():
    p = partition_from_json({"sets": [
        {"points": [["0", "1"], ["1/2", "0"], ["1", "0"]]},
        {"points": [["0", "0"], ["1/2", "1"], ["1", "1"]]},
    ]})
    (a, b) = p.sets
    assert a.points[1][0] is b.points[1][0] == Fraction(1, 2)
    assert a.points[0][1] is b.points[2][1] is a.points[2][0]


def test_json_validation_messages():
    with pytest.raises(ValueError, match="'sets'"):
        partition_from_json({"n": 1})
    with pytest.raises(ValueError, match="point 1"):
        partition_from_json(
            {"sets": [{"name": "f1", "points": [["0", "0"], ["oops", "1"], ["1", "0"]]}]}
        )
    with pytest.raises(ValueError, match="'n' is 3"):
        partition_from_json(
            {"n": 3, "sets": [{"name": "f1", "points": [["0", "1"], ["1", "1"]]}]}
        )
    with pytest.raises(ValueError, match="f2"):
        partition_from_json(
            {
                "sets": [
                    {"name": "f1", "points": [["0", "1"], ["1", "1"]]},
                    {"name": "f2", "points": [["0", "1"]]},
                ]
            }
        )


def test_as_fraction_takes_only_integers_and_p_over_q():
    assert as_fraction(" -3/6 ") == Fraction(-1, 2)
    assert as_fraction("+7") == 7
    for text in ("0.5", "1e-100000000", "1E3", "1_000", "1/2/3", "1 /2", "/2", "", "inf"):
        with pytest.raises(ValueError, match="not an exact rational"):
            as_fraction(text)
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")
    for value in (True, False, 0.5):
        with pytest.raises(ValueError, match=f"^not an exact rational: {value}$"):
            as_fraction(value)
    with pytest.raises(ValueError, match="point 1: not an exact rational: True"):
        partition_from_json({"sets": [{"points": [["0", "1"], ["1", True]]}]})
    with pytest.raises(ValueError, match="not an exact rational: False"):
        PiecewiseLinearFuzzySet("f1", ((False, 1), (1, 1)))


def test_as_fraction_refuses_a_part_past_the_int_to_str_limit(int_str_limit):
    # Fraction's int() would raise Python's "Exceeds the limit (4300 digits)".
    long = "1" * 5000
    for text, message in [
        ("1/" + long, "denominator of 5000 digits"), (long, "integer of 5000 digits"),
        (f" -{long}/3 ", "numerator of 5000 digits"), (f"{long}/{long}", "numerator of 5000 digits"),
        ("0" * 4300 + "1", "integer of 4301 digits"),
    ]:
        with pytest.raises(ValueError) as caught:
            as_fraction(text)
        assert str(caught.value) == f"{message} is past the limit of 4300 digits"
    with pytest.raises(ValueError) as caught:
        partition_from_json({"sets": [{"points": [["0", "1"], ["1", "1/" + long]]}]})
    assert str(caught.value) == ("set 'f1', point 1: denominator of 5000 digits is past the "
                                 "limit of 4300 digits")
    # Within the limit, or with no limit, the text is read.
    assert as_fraction("1" * 4300 + "/" + "3" * 4300) == Fraction(1, 3)
    sys.set_int_max_str_digits(0)
    assert as_fraction("1/" + long) == Fraction(1, int(long))
    # The lowest limit Python allows: a part of 641 digits is past it.
    sys.set_int_max_str_digits(640)
    assert as_fraction("1" * 640) == int("1" * 640)
    with pytest.raises(ValueError, match="^integer of 641 digits is past the limit of 640 digits$"):
        as_fraction("1" * 641)


# Texts that make a valid partition and texts that must be refused.
_RATIONAL_TEXTS = st.sampled_from(
    ["0", "1", "1/2", "2/3", " 1 "] * 3 + ["-1/3", "3/2", "1/0", "0.5", "1e-9", "x", ""]
)
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=4)
                | _RATIONAL_TEXTS)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
_POINTS = (
    st.lists(_RATIONAL_TEXTS, min_size=4, max_size=4).map(
        lambda v: [["0", v[0]], [v[1], v[2]], ["1", v[3]]])
    | st.lists(st.lists(_JSON_LEAVES, min_size=2, max_size=2) | _JSON, max_size=5)
)
_SETS = st.lists(st.fixed_dictionaries({"points": _POINTS}, optional={"name": _JSON_LEAVES})
                 | _JSON, max_size=3)
_PARTITIONS = st.fixed_dictionaries({"sets": _SETS}, optional={"n": _JSON_LEAVES}) | _JSON


@given(_PARTITIONS)
@settings(max_examples=300, deadline=None)
def test_partition_from_json_gives_a_partition_or_a_value_error(obj):
    try:
        p = partition_from_json(obj)
    except ValueError:
        return
    assert partition_from_json(partition_to_json(p)) == p
