"""The streaming JSON and DOT forest writers against the class-built exports
they replace."""

import io
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from godelforest import (
    empty_subforest,
    enumerate_forest,
    full_subforest,
    ruspini_subforest,
    subforest_to_json,
    truncated_subforest,
    two_overlap_subforest,
)
from godelforest.exports import subforest_to_dot, write_subforest_dot, write_subforest_json
from helpers import random_subforest, reference_subforest_to_dot


def subforests(n):
    forest = enumerate_forest(n)
    yield "full", full_subforest(forest)
    yield "ruspini", ruspini_subforest(forest)
    yield "two-overlap", two_overlap_subforest(forest)
    yield "empty", empty_subforest(forest)
    for t in range(2, 6):
        yield f"truncated t={t}", truncated_subforest(forest, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_writer_matches_json_dump_of_the_dict(n):
    for name, sub in subforests(n):
        out = io.StringIO()
        write_subforest_json(sub, out)
        assert out.getvalue() == json.dumps(subforest_to_json(sub), indent=2), name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exports_match_the_class_built_references_on_random_downsets(n):
    # Every kind and truncation, then 20 seeded downsets: labels and mid
    # lists are built from the parent's, so any tree shape must come out
    # as each class's own chain string and blocks would print it.
    rng = random.Random(f"exports:{n}")
    forest = enumerate_forest(n)
    named = [sub for _, sub in subforests(n)]
    for sub in named + [random_subforest(rng, forest) for _ in range(20)]:
        assert subforest_to_dot(sub) == reference_subforest_to_dot(sub)
        out = io.StringIO()
        write_subforest_json(sub, out)
        assert out.getvalue() == json.dumps(subforest_to_json(sub), indent=2)


class CountingSink:
    """A text sink that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.chars = 0
        self.writes = 0

    def write(self, text: str) -> None:
        self.chars += len(text)
        self.writes += 1


def peak_bytes(action) -> int:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_streams_r6_in_batches_with_less_than_half_the_peak():
    sub = ruspini_subforest(enumerate_forest(6))
    reference = json.dumps(subforest_to_json(sub), indent=2)
    sink = CountingSink()
    writer_peak = peak_bytes(lambda: write_subforest_json(sub, sink))
    dict_peak = peak_bytes(lambda: subforest_to_json(sub))
    assert sink.chars == len(reference)
    # A header, then one write per batch of 1,000 nodes, then the closing lines.
    assert sink.writes == 2 + -(-len(sub) // 1000)
    assert writer_peak < dict_peak / 2


def test_writer_writes_1000_nodes_per_batch():
    # The F_5 export has 2,163 nodes: a header, two full batches, the rest,
    # then the closing lines.
    writes = []
    write_subforest_json(full_subforest(enumerate_forest(5)), SimpleNamespace(write=writes.append))
    assert [text.count('"id": ') for text in writes] == [0, 1000, 1000, 163, 0]


def test_dot_writer_streams_f6_with_less_than_half_the_peak():
    # Node lines go out 1,000 at a time and each tree's edges when it
    # closes, so the text held at once is a batch and one tree's edges.
    sub = full_subforest(enumerate_forest(6))
    writer_peak = peak_bytes(lambda: write_subforest_dot(sub, CountingSink()))
    string_peak = peak_bytes(lambda: subforest_to_dot(sub))
    assert writer_peak < string_peak / 2
    writes = []
    write_subforest_dot(sub, SimpleNamespace(write=writes.append))
    assert "".join(writes) == reference_subforest_to_dot(sub)
    assert max(text.count(" [label=") for text in writes) <= 1000


def test_dot_writer_holds_a_trees_edges_as_one_string_per_batch():
    # F_6's largest tree has 4,683 nodes.  Its edge lines held one string
    # each put the writer's peak at 0.43 of the whole string's; joined
    # 1,000 at a time they put it below 0.2.
    sub = full_subforest(enumerate_forest(6))
    writer_peak = peak_bytes(lambda: write_subforest_dot(sub, CountingSink()))
    string_peak = peak_bytes(lambda: subforest_to_dot(sub))
    assert writer_peak < string_peak / 4
