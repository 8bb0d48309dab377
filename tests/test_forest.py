import copy
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelforest import (
    AssignmentClass,
    Forest,
    class_of_values,
    downset,
    empty_subforest,
    enumerate_forest,
    formula_forest,
    full_subforest,
    generating_subforest,
    is_ruspini_leaf,
    is_ruspini_subforest,
    leq,
    parse_formula,
    realized_classes,
    ruspini_subforest,
    truncated_subforest,
    two_overlap_subforest,
    Subforest,
    Var,
    class_key,
)
from godelforest.classes import _maximal
from helpers import (
    cls,
    downward_chain,
    fr,
    grid_classes,
    literal_leq,
    random_partition,
    random_subforest,
    random_ruspini_subforest,
    reference_forest,
    reference_implies,
    reference_in_ruspini_forest,
    reference_in_two_overlap_forest,
    reference_is_ruspini_subforest,
    reference_maximal,
    triangular_partition,
    walked,
)


def test_class_of_values_examples():
    assert class_of_values((fr(0), fr("1/3"), fr(1))) == cls(3, zero=[1], mid=[[2]], one=[3])
    assert class_of_values((fr(0), fr(0))) == cls(2, zero=[1, 2])
    assert class_of_values((fr("1/2"), fr("1/4"), fr("1/2"))) == cls(
        3, mid=[[2], [1, 3]]
    )


def test_class_of_values_errors():
    with pytest.raises(ValueError):
        class_of_values(())
    with pytest.raises(ValueError):
        class_of_values((fr(2),))
    with pytest.raises(ValueError):
        class_of_values((fr(-1, ),))


@pytest.mark.parametrize("values", [[True], [0.5], ["1e-1000000"], [fr("1/2"), False]],
                         ids=["bool", "float", "exponent", "second-bool"])
def test_class_of_values_reads_exact_rationals_only(values):
    # Fraction() would take all four, and expand the exponent digit by digit.
    with pytest.raises(ValueError) as info:
        class_of_values(values)
    assert str(info.value) == f"not an exact rational: {values[-1]!r}"
    assert class_of_values([0, "1/2", fr(1)]) == cls(3, zero=[1], mid=[[2]], one=[3])


def test_uncovered_variables_are_listed_up_to_eight():
    for args, listed in [((8, (1, 4, 5), ((6, 7),), (2,)), "3, 8"),
                         ((10, (1,), (), (2,)), "3, 4, 5, 6, 7, 8, 9, 10")]:
        with pytest.raises(ValueError) as info:
            AssignmentClass(*args)
        assert str(info.value) == f"blocks do not cover variables [{listed}]"
    # Past eight, the first eight and the total, found without a range over n.
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        AssignmentClass(10**9, (1,), (), (2,))
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        "blocks do not cover variables [3, 4, 5, 6, 7, 8, 9, 10, ...] (999999998 in all)"
    )


def test_class_validation():
    with pytest.raises(ValueError):
        cls(2, zero=[1])  # X2 missing
    with pytest.raises(ValueError):
        cls(2, zero=[1, 2], one=[2])  # duplicate
    with pytest.raises(ValueError):
        cls(2, zero=[1, 3])  # out of range
    with pytest.raises(ValueError):
        AssignmentClass(2, (1,), ((),), (2,))  # empty mid block
    for bad in ("1", 1.0, True, None):  # checked before sorting, which raises TypeError
        with pytest.raises(ValueError, match="is not an integer"):
            AssignmentClass(2, (1,), ((bad,),), ())
        with pytest.raises(ValueError, match="is not an integer"):
            AssignmentClass(2, (2, bad), (), ())


def test_representative_examples():
    assert cls(3, zero=[1], mid=[[2]], one=[3]).representative() == (
        fr(0),
        fr("1/2"),
        fr(1),
    )
    assert cls(2, zero=[1, 2]).representative() == (fr(0), fr(0))
    assert cls(2, mid=[[2], [1]]).representative() == (fr("2/3"), fr("1/3"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_representative_roundtrip(n):
    for c in reference_forest(n).nodes:
        assert class_of_values(c.representative()) == c


def test_parent_examples():
    c = cls(3, zero=[1], mid=[[2]], one=[3])
    p = c.parent()
    assert p == cls(3, zero=[1], one=[2, 3])
    assert leq(p, c) and not leq(c, p)

    assert cls(2, zero=[1, 2]).parent() is None

    c2 = cls(2, mid=[[1], [2]])
    p2 = c2.parent()
    assert p2 == cls(2, mid=[[1]], one=[2])
    assert leq(p2, c2)


def test_order_example_from_four_variables():
    mu = class_of_values((fr(1), fr("1/3"), fr(0), fr(1)))
    nu = class_of_values((fr(1), fr("1/4"), fr(0), fr("1/2")))
    xi = class_of_values((fr(1), fr("1/2"), fr(0), fr("1/2")))
    assert leq(mu, nu)
    assert not leq(nu, mu)
    assert not leq(xi, mu) and not leq(mu, xi)
    assert not leq(xi, nu) and not leq(nu, xi)


def test_leq_reflexive_and_all_zero_isolated():
    for n in (1, 2, 3):
        all_zero = cls(n, zero=range(1, n + 1))
        for c in reference_forest(n).nodes:
            assert leq(c, c)
            if c != all_zero:
                assert not leq(all_zero, c)
                assert not leq(c, all_zero)


def test_leq_arity_mismatch():
    with pytest.raises(ValueError):
        leq(cls(1, one=[1]), cls(2, one=[1, 2]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leq_matches_literal_definition_exhaustive(n):
    nodes = reference_forest(n).nodes
    for a in nodes:
        for b in nodes:
            assert leq(a, b) == literal_leq(a, b), (a, b)


def test_leq_matches_literal_definition_n4():
    nodes = reference_forest(4).nodes
    for a in nodes:
        for b in nodes:
            assert leq(a, b) == literal_leq(a, b), (a, b)


def test_enumerate_small_forests():
    f1 = enumerate_forest(1)
    assert len(f1) == 3
    assert len(reference_forest(1).roots) == 2
    assert len(full_subforest(f1).leaves()) == 2
    assert full_subforest(f1).members == {cls(1, zero=[1]), cls(1, one=[1]), cls(1, mid=[[1]])}

    f2 = enumerate_forest(2)
    assert len(f2) == 11
    assert len(reference_forest(2).roots) == 4
    assert len(full_subforest(f2).leaves()) == 6

    assert len(full_subforest(enumerate_forest(3)).leaves()) == 26


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_matches_grid_sampling(n):
    assert full_subforest(enumerate_forest(n)).members == grid_classes(n, n + 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_masks_equal_the_class_building_reference(n):
    forest, ref = enumerate_forest(n), reference_forest(n)
    for name in ("full", "_levels", "generators", "ruspini", "two_overlap"):
        assert getattr(forest, name) == getattr(ref, name), name
    assert len(forest) == len(ref.nodes)


def test_enumerate_forest_keeps_the_benchmark_contract():
    # perfbench/run.py clears this cache before timing forest builds, and its
    # tracer counts the nodes built by len(); neither may build the classes.
    assert callable(enumerate_forest.cache_clear)
    assert callable(enumerate_forest.cache_info)
    forest = enumerate_forest(8)
    assert len(forest) == 2_183_339


def test_downset_at_n8_builds_only_the_classes_it_touches():
    leaves = [cls(8, zero=range(3, 9), mid=[[1], [2]]), cls(8, zero=range(3, 9), mid=[[2], [1]])]
    tracemalloc.start()
    try:
        sub = downset(enumerate_forest(8), leaves)
        members, maximal = sub.members, sub.leaves()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak
    assert len(members) == len(sub) == 5 and maximal == tuple(leaves)
    assert all(c in sub for c in members)


def test_walking_a_one_member_downset_at_n8_formats_no_mask_string():
    # The root with X8 at 0 and the rest at 1 has the highest root id,
    # 2,088,753.  Its mask as a string of digits is 2 MB; the walk reads the
    # 2,183,339-node forest's masks as 273 KB of bytes.
    forest = enumerate_forest(8)
    root = cls(8, zero=[8], one=range(1, 8))
    mask = 1 << forest.path(root)[-1]
    assert mask.bit_length() == 2_088_754
    tracemalloc.start()
    try:
        walk = walked(forest, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk == ([root], [None])
    assert peak < 2**20, peak


def test_walk_yields_each_members_position_parent_and_blocks():
    rng = random.Random(4242)
    for n in range(1, 6):
        forest = enumerate_forest(n)
        for sub in [full_subforest(forest)] + [random_subforest(rng, forest) for _ in range(10)]:
            visits = list(forest.walk(sub.mask))
            classes, parents = walked(forest, sub.mask)
            assert visits == [(k, up, c.zero, c.mid, c.one)
                              for k, (c, up) in enumerate(zip(classes, parents))]


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_and_path_equal_the_reference(n):
    forest, ref = enumerate_forest(n), reference_forest(n)
    classes, parents = walked(forest, forest.full)
    assert classes == ref.nodes
    assert parents == [None if p < 0 else p for p in ref.parent]
    for i, c in enumerate(ref.nodes):
        ancestors = [i]
        while ref.parent[ancestors[0]] >= 0:
            ancestors.insert(0, ref.parent[ancestors[0]])
        assert forest.path(c) == ancestors, c


def test_walk_members_and_leaves_match_the_reference_on_random_downsets():
    rng = random.Random(9009)
    for n in range(1, 6):
        forest, ref = enumerate_forest(n), reference_forest(n)
        index = {c: i for i, c in enumerate(ref.nodes)}
        for _ in range(40):
            seeds = rng.sample(ref.nodes, rng.randint(0, min(12, len(ref.nodes))))
            ids = sorted({index[a] for c in seeds for a in downward_chain(c)})
            sub = downset(forest, seeds)
            assert sub.mask == sum(1 << i for i in ids)
            position = {i: k for k, i in enumerate(ids)}
            classes, parents = walked(forest, sub.mask)
            assert classes == [ref.nodes[i] for i in ids]
            assert parents == [None if ref.parent[i] < 0 else position[ref.parent[i]] for i in ids]
            assert sub.members == frozenset(classes)
            assert sub.leaves() == tuple(
                ref.nodes[i] for i in ids
                if not any(index[k] in position for k in ref.children[ref.nodes[i]])
            )
            assert [c in sub for c in ref.nodes] == [i in position for i in range(len(ref.nodes))]


def test_classes_over_another_n_are_not_nodes():
    f2 = enumerate_forest(2)
    full = full_subforest(f2)
    # The first two share a zero set with a root of f2.
    for c in (cls(3, zero=[1], one=[2, 3]), cls(1, one=[1]), cls(3, zero=[1, 2, 3])):
        assert f2.path(c) is None and c not in full
        with pytest.raises(ValueError, match="is not a node of the forest"):
            downset(f2, [cls(2, one=[1, 2]), c])
        with pytest.raises(ValueError, match="is not a node of the ambient forest"):
            Subforest(f2, [cls(2, one=[1, 2]), c])
    assert "0<X1=X2=1" not in full


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_forest(0)
    with pytest.raises(ValueError):
        enumerate_forest(9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_forest_arrays_are_the_class_key_preorder(n):
    forest = reference_forest(n)
    nodes = forest.nodes
    assert list(nodes) == sorted(nodes, key=class_key)
    for i, c in enumerate(nodes):
        p = c.parent()
        assert forest.parent[i] == (-1 if p is None else nodes.index(p))
        assert forest.depth[i] == c.depth
        subtree = [j for j, d in enumerate(nodes) if leq(c, d)]
        assert subtree == list(range(i, forest.end[i]))


def test_depth_examples():
    assert cls(2, zero=[1, 2]).depth == 1
    assert cls(2, zero=[2], mid=[[1]]).depth == 2
    assert cls(3, mid=[[1], [2], [3]]).depth == 4


def test_chain_string():
    assert cls(2, zero=[1], mid=[[2]]).chain_string() == "0=X1<X2<1"
    assert cls(2, zero=[1, 2]).chain_string() == "0=X1=X2<1"
    assert cls(2, one=[1, 2]).chain_string() == "0<X1=X2=1"
    assert cls(3, mid=[[2], [1, 3]]).chain_string() == "0<X2<X1=X3<1"


def test_classes_are_slotted():
    forest = enumerate_forest(3)
    node = walked(forest, forest.full)[0][5]
    assert not hasattr(node, "__dict__")
    fresh = AssignmentClass(node.n, node.zero, node.mid, node.one)
    assert fresh == node and hash(fresh) == hash(node)  # walked against validated
    assert fresh.chain_string() == node.chain_string()
    assert repr(fresh) == repr(node)


def test_structural_facts():
    for n in (1, 2, 3, 4):
        forest, ref = enumerate_forest(n), reference_forest(n)
        assert len(ref.roots) == 2**n
        assert all(not r.mid for r in ref.roots)
        height_one_trees = [
            r for r in ref.roots if not ref.children[r] and not r.one
        ]
        assert height_one_trees == [cls(n, zero=range(1, n + 1))]
        assert set(full_subforest(forest).leaves()) == {c for c in ref.nodes if not c.one}
        assert max(c.depth for c in ref.nodes) == n + 1


def test_ruspini_forest_membership():
    f2 = enumerate_forest(2)
    r2 = ruspini_subforest(f2)
    assert len(r2) == 8
    assert len(r2.leaves()) == 5
    assert cls(2, zero=[1, 2]) not in r2
    assert cls(2, zero=[2], mid=[[1]]) not in r2
    assert cls(2, zero=[1], mid=[[2]]) not in r2


def test_ruspini_leaf_shapes():
    assert is_ruspini_leaf(cls(2, zero=[2], one=[1]))
    assert is_ruspini_leaf(cls(2, mid=[[1, 2]]))
    assert is_ruspini_leaf(cls(2, mid=[[1], [2]]))
    assert not is_ruspini_leaf(cls(2, zero=[2], mid=[[1]]))
    assert not is_ruspini_leaf(cls(2, one=[1, 2]))
    assert not is_ruspini_leaf(cls(2, zero=[1, 2]))
    assert not is_ruspini_leaf(cls(2, mid=[[1]], one=[2]))


def test_ruspini_leaves_are_subforest_maxima():
    for n in (1, 2, 3, 4):
        sub = ruspini_subforest(enumerate_forest(n))
        assert set(sub.leaves()) == {c for c in sub.members if is_ruspini_leaf(c)}
        assert set(sub.members) == {
            c for c in reference_forest(n).nodes if reference_in_ruspini_forest(c)
        }


@pytest.mark.parametrize("n", range(1, 7))
def test_region_masks_equal_their_reference_predicates(n):
    forest = enumerate_forest(n)
    for build, member in (
        (ruspini_subforest, reference_in_ruspini_forest),
        (two_overlap_subforest, reference_in_two_overlap_forest),
    ):
        assert build(forest).members == frozenset(
            c for c in reference_forest(n).nodes if member(c)
        )


def test_is_ruspini_subforest_matches_reference():
    rng = random.Random(2024)
    verdicts = []
    for k in range(8000):
        sub = random_subforest(rng, enumerate_forest(k % 4 + 1))
        verdicts.append(is_ruspini_subforest(sub))
        assert verdicts[-1] == reference_is_ruspini_subforest(sub)
    assert 500 < sum(verdicts) < 7500  # both answers are exercised
    for k in range(2000):
        sub = random_ruspini_subforest(rng, enumerate_forest(k % 4 + 1))
        assert is_ruspini_subforest(sub) and reference_is_ruspini_subforest(sub)


def test_two_overlap_forest():
    f2 = enumerate_forest(2)
    assert two_overlap_subforest(f2).members == frozenset(reference_forest(2).nodes)
    f3 = enumerate_forest(3)
    t3 = two_overlap_subforest(f3)
    assert cls(3, mid=[[1], [2], [3]]) not in t3
    assert cls(3, zero=[3], mid=[[1], [2]]) in t3


def test_truncated_forest():
    f3 = enumerate_forest(3)
    f34 = truncated_subforest(f3, 4)
    deep = cls(3, mid=[[1], [2], [3]])
    assert deep not in f34
    assert deep.depth == 4
    assert all(c.depth <= 3 for c in f34.members)
    with pytest.raises(ValueError):
        truncated_subforest(f3, 1)


@pytest.mark.parametrize("t", [1, 0, -5])
def test_truncation_needs_two_truth_values(t):
    forest = enumerate_forest(2)
    message = f"^a finite-valued logic needs t >= 2, got {t}$"
    with pytest.raises(ValueError, match=message):
        forest.truncation(t)
    with pytest.raises(ValueError, match=message):
        truncated_subforest(forest, t)


def test_two_overlap_inside_height_four():
    for n in (1, 2, 3, 4):
        forest = enumerate_forest(n)
        assert two_overlap_subforest(forest).issubset(truncated_subforest(forest, 4))


def test_downset_examples():
    f2 = enumerate_forest(2)
    assert len(downset(f2, [])) == 0
    assert downset(f2, full_subforest(f2).leaves()).members == frozenset(
        reference_forest(2).nodes
    )
    c = cls(2, zero=[1], mid=[[2]])
    assert downset(f2, [c]).members == frozenset({c, cls(2, zero=[1], one=[2])})
    with pytest.raises(ValueError):
        downset(f2, [cls(3, one=[1, 2, 3])])


def test_subforest_requires_downward_closure():
    f2 = enumerate_forest(2)
    with pytest.raises(ValueError):
        Subforest(f2, frozenset({cls(2, mid=[[1], [2]])}))
    # Two members lack their parent; the message names the one of lower id.
    members = [cls(2, mid=[[2], [1]]), cls(2, mid=[[1], [2]]), cls(2, one=[1, 2])]
    with pytest.raises(ValueError, match="^member set is not downward closed at 0<X1<X2<1$"):
        Subforest(f2, members)


def test_subforest_ops_basic_laws():
    f2 = enumerate_forest(2)
    full = full_subforest(f2)
    empty = empty_subforest(f2)
    some = downset(f2, [cls(2, mid=[[1], [2]])])
    assert some.implies(some).members == full.members
    assert empty.implies(empty_subforest(f2)).members == full.members
    assert full.implies(empty_subforest(f2)).members == empty.members
    assert some.meet(full).members == some.members
    assert some.join(empty).members == some.members


def test_subforest_ambient_mismatch():
    a = full_subforest(enumerate_forest(2))
    b = full_subforest(enumerate_forest(3))
    with pytest.raises(ValueError):
        a.meet(b)


def test_copied_and_pickled_subforests_live_in_the_cached_forest():
    forest = enumerate_forest(3)
    assert copy.deepcopy(forest) is forest and copy.copy(forest) is forest
    assert pickle.loads(pickle.dumps(Forest(3))) is forest  # also from an uncached build
    for sub in (full_subforest(forest), ruspini_subforest(forest), empty_subforest(forest),
                generating_subforest(2, forest)):
        again = [copy.deepcopy(sub)]
        again += [pickle.loads(pickle.dumps(sub, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in again:
            assert other.forest is forest and other == sub and hash(other) == hash(sub)
            assert other.meet(full_subforest(forest)) == sub
            assert sub.implies(other) == full_subforest(forest)
            assert other.join(ruspini_subforest(forest)).mask == sub.mask | forest.ruspini


def test_subforest_is_its_forest_and_mask():
    forest = enumerate_forest(4)
    sub = ruspini_subforest(forest)
    assert sub.members == sub.members and sub.leaves() == sub.leaves()
    assert is_ruspini_subforest(sub)
    # Reading the members keeps nothing on the subforest: equality, hash,
    # repr and pickling see the forest and the mask alone.
    fresh = ruspini_subforest(forest)
    assert fresh == sub and hash(fresh) == hash(sub) and repr(fresh) == repr(sub)
    assert sub.__getstate__() == fresh.__getstate__() == (forest, forest.ruspini)
    assert pickle.dumps(sub) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(sub)).leaves() == sub.leaves()


def test_implication_matches_formula_semantics():
    f2 = enumerate_forest(2)
    chi1 = generating_subforest(1, f2)
    chi2 = generating_subforest(2, f2)
    assert chi1.implies(chi2).members == formula_forest(
        parse_formula("X1 -> X2"), f2
    ).members


def test_prelinearity_and_closure_on_random_subforests():
    rng = random.Random(20240811)
    for n in (2, 3):
        forest = enumerate_forest(n)
        full = full_subforest(forest)
        for _ in range(40):
            a = random_subforest(rng, forest)
            b = random_subforest(rng, forest)
            # construction itself would fail if any op broke downward closure
            assert a.implies(b).join(b.implies(a)).members == full.members
            assert a.meet(b).members == a.members & b.members
            assert a.join(b).members == a.members | b.members


def test_implies_matches_the_downward_chain_definition():
    rng = random.Random(4141)
    for n in (1, 2, 3, 4):
        forest = enumerate_forest(n)
        for _ in range(30):
            a = random_subforest(rng, forest)
            b = random_subforest(rng, forest)
            assert a.implies(b).members == reference_implies(a, b), (n, a, b)
            assert set(a.leaves()) == {
                c for c in a.members
                if not any(k in a.members for k in reference_forest(n).children[c])
            }


def test_constructor_accepts_exactly_the_downsets():
    rng = random.Random(2718)
    for n in (1, 2, 3):
        nodes = reference_forest(n).nodes
        for _ in range(200):
            chosen = frozenset(rng.sample(nodes, rng.randint(0, len(nodes))))
            closed = all(c.parent() is None or c.parent() in chosen for c in chosen)
            if closed:
                assert Subforest(enumerate_forest(n), chosen).members == chosen
            else:
                with pytest.raises(ValueError, match="not downward closed"):
                    Subforest(enumerate_forest(n), chosen)


def test_generating_subforests():
    f1 = enumerate_forest(1)
    assert generating_subforest(1, f1).members == frozenset({cls(1, one=[1])})

    f2 = enumerate_forest(2)
    chi1 = generating_subforest(1, f2)
    assert chi1.members == frozenset(
        {cls(2, zero=[2], one=[1]), cls(2, mid=[[2]], one=[1]), cls(2, one=[1, 2])}
    )
    for n in (1, 2, 3):
        forest = enumerate_forest(n)
        for i in range(1, n + 1):
            assert generating_subforest(i, forest).members == formula_forest(
                Var(i), forest
            ).members
    with pytest.raises(ValueError):
        generating_subforest(3, f2)


def test_is_ruspini_subforest():
    f2 = enumerate_forest(2)
    r2 = ruspini_subforest(f2)
    assert is_ruspini_subforest(downset(f2, r2.leaves()))
    assert not is_ruspini_subforest(downset(f2, [cls(2, zero=[1, 2])]))
    assert not is_ruspini_subforest(downset(f2, [cls(2, zero=[2], mid=[[1]])]))
    assert not is_ruspini_subforest(empty_subforest(f2))
    assert not is_ruspini_subforest(full_subforest(f2))


def test_order_is_a_partial_order_on_small_forests():
    # antisymmetry and transitivity, exhaustive over three variables
    nodes = reference_forest(3).nodes
    for a in nodes:
        for b in nodes:
            if leq(a, b) and leq(b, a):
                assert a == b
    rng = random.Random(5150)
    for _ in range(4000):
        a, b, c = (rng.choice(nodes) for _ in range(3))
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_ancestor_sets_are_chains():
    for n in (1, 2, 3, 4):
        for c in reference_forest(n).nodes:
            chain = list(downward_chain(c))
            assert chain[0] == c and chain[-1].parent() is None
            for higher, lower in zip(chain, chain[1:]):
                assert leq(lower, higher) and lower != higher
            for a in chain:
                for b in chain:
                    assert leq(a, b) or leq(b, a)


def test_implication_is_the_residuum():
    # W <= (A -> B)  iff  W meet A <= B, for random subforest triples
    rng = random.Random(271828)
    for n in (2, 3):
        forest = enumerate_forest(n)
        for _ in range(60):
            a = random_subforest(rng, forest)
            b = random_subforest(rng, forest)
            w = random_subforest(rng, forest)
            lhs = w.issubset(a.implies(b))
            rhs = w.meet(a).issubset(b)
            assert lhs == rhs


@st.composite
def value_lists(draw):
    n = draw(st.integers(1, 5))
    return [
        Fraction(draw(st.integers(0, 12)), 12) for _ in range(n)
    ]


@given(value_lists())
@settings(max_examples=300, deadline=None)
def test_class_of_values_representative_fixpoint(values):
    c = class_of_values(values)
    assert class_of_values(c.representative()) == c
    # the witness rule keeps every block at its stated level
    rep = c.representative()
    for i in c.zero:
        assert rep[i - 1] == 0
    for i in c.one:
        assert rep[i - 1] == 1
    for block in c.mid:
        assert len({rep[i - 1] for i in block}) == 1


def test_class_of_values_builds_canonical_blocks():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 6)
        c = class_of_values([Fraction(rng.randint(0, 4), 4) for _ in range(n)])
        assert c == AssignmentClass(n, c.zero, c.mid, c.one)
        assert all(list(b) == sorted(b) for b in (c.zero, *c.mid, c.one))


def test_maximal_matches_the_downset_leaves_of_realized_classes():
    rng = random.Random(16)
    for n in range(1, 6):
        forest = enumerate_forest(n)
        for _ in range(40):
            realized = realized_classes(random_partition(rng, n))
            assert _maximal(realized) == downset(forest, realized).leaves()


def test_maximal_matches_the_leaves_of_random_subforests():
    rng = random.Random(17)
    for n in range(1, 6):
        forest = enumerate_forest(n)
        for _ in range(20):
            sub = random_subforest(rng, forest)
            assert _maximal(sub.members) == sub.leaves()
            seeds = rng.sample(sorted(sub.members, key=class_key), len(sub) // 2)
            assert _maximal(seeds) == downset(forest, seeds).leaves()


@pytest.mark.parametrize("k", [9, 12, 20])
def test_maximal_matches_the_pairwise_reference_past_n8(k):
    realized = realized_classes(triangular_partition(k))
    assert _maximal(realized) == reference_maximal(realized)
    # Each uniform triangular class is maximal; their ancestors are not.
    chains = {a for c in realized for a in downward_chain(c)}
    assert len(chains) > len(realized)
    assert _maximal(chains) == reference_maximal(chains) == _maximal(realized)
    rng = random.Random(k)
    for _ in range(3):
        realized = realized_classes(random_partition(rng, k))
        assert _maximal(realized) == reference_maximal(realized)
