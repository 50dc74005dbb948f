"""Property-based invariants, plus the shared randomized suite."""

import json

from hypothesis import example, given, settings, strategies as st

from diskalloc import (
    Allocation,
    Stage,
    canonical_edge,
    detect_communities,
    dump_document,
    integrate_relations,
    relocation_diff,
)

from naive import naive_components, naive_integrated
from property_suite import run_property_suite

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")


@st.composite
def stage_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ids = list(range(1, n + 1))
    ordered = [(a, b) for a in ids for b in ids if a != b]
    unordered = [(a, b) for a in ids for b in ids if a < b]
    arcs = draw(st.sets(st.sampled_from(ordered), max_size=8))
    edges = draw(st.sets(st.sampled_from(unordered), max_size=8))
    return ids, arcs, edges


@given(stage_inputs())
def test_integration_matches_the_set_definition(data):
    ids, arcs, edges = data
    stage = Stage(
        index=1,
        active_files=tuple(ids),
        precedence=frozenset(arcs),
        concurrency=frozenset(edges),
    )
    relation = integrate_relations(stage)
    assert relation.edges == naive_integrated(stage)
    # symmetric closure: direction of the sources never survives
    assert all(a < b for a, b in relation.edges)


@given(stage_inputs(), st.integers(min_value=1, max_value=4))
def test_communities_partition_the_active_files(data, gamma):
    ids, arcs, edges = data
    stage = Stage(
        index=1,
        active_files=tuple(ids),
        precedence=frozenset(arcs),
        concurrency=frozenset(edges),
    )
    relation = integrate_relations(stage)
    communities = detect_communities(relation, ids, gamma)
    seen: list[int] = []
    for community in communities:
        assert len(community) <= gamma
        assert list(community.members) == sorted(community.members)
        assert len(naive_components(community.members, relation.edges)) == 1
        seen.extend(community.members)
    assert sorted(seen) == ids  # disjoint cover


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_canonical_edge_is_order_insensitive(a, b):
    assert canonical_edge(a, b) == canonical_edge(b, a)
    lo, hi = canonical_edge(a, b)
    assert lo <= hi


@st.composite
def same_file_assignments(draw, count=3):
    files = draw(st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=8))
    disks = st.integers(min_value=1, max_value=4)
    return [
        {f: draw(disks) for f in sorted(files)}
        for _ in range(count)
    ]


@given(same_file_assignments())
def test_modification_cost_is_a_metric(assignments):
    a, b, c = (Allocation(x) for x in assignments)
    def cost(x, y):
        return relocation_diff(x, y).total_cost

    assert cost(a, a) == 0.0
    assert cost(a, b) == cost(b, a)
    assert cost(a, c) <= cost(a, b) + cost(b, c)
    # zero distance only between identical assignments
    if cost(a, b) == 0.0:
        assert dict(a.assignment) == dict(b.assignment)


@given(same_file_assignments(count=1))
def test_allocation_normalization_is_idempotent(assignments):
    alloc = Allocation(assignments[0])
    again = Allocation(dict(alloc.assignment))
    assert again == alloc
    assert list(again.assignment) == sorted(again.assignment)


@given(stage_inputs())
def test_stage_normalization_is_idempotent(data):
    ids, arcs, edges = data
    stage = Stage(
        index=1,
        active_files=tuple(ids),
        precedence=frozenset(arcs),
        concurrency=frozenset(edges),
    )
    again = Stage(
        index=stage.index,
        active_files=stage.active_files,
        precedence=stage.precedence,
        concurrency=stage.concurrency,
    )
    assert again == stage


def test_randomized_suite_holds_over_forty_seeds():
    assert run_property_suite(range(40)) > 0


# --- the document writer ---------------------------------------------------

_special_floats = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_big_ints = st.integers(min_value=2**64, max_value=2**300) | st.integers(max_value=-(2**64))
_texts = st.text() | st.sampled_from(["\x00\x1f\x7f\u2028", "\u00e9\u2603\U0001d11e", '"\\/'])
_numbers = st.integers() | _big_ints | st.floats() | _special_floats
_scalars = st.none() | st.booleans() | _numbers | _texts
# Pair lists whose ends are sometimes a bool or a float, so that some miss
# the writer's integer fast paths.
_pair_lists = st.lists(
    st.lists(st.integers() | _big_ints, min_size=2, max_size=2)
    | st.tuples(_numbers | st.booleans(), _numbers | st.booleans()),
    min_size=1,
)
_leaf_lists = _pair_lists | st.lists(st.integers(), min_size=1) | st.lists(st.floats(), min_size=1)
_json_values = st.recursive(
    _scalars | _leaf_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.none() | st.booleans() | _numbers | _texts, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(_json_values)
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 0.1])
@example([10**40, -(10**25), 0])
@example({"x\u00e9\u2603\U0001d11e\x00\x1f\x7f": " \t\n\"\\"})
@example({1: 2, 1.5: 3.5, True: False, None: None, float("nan"): [], -0.0: {}})
@example([[], {}, (), [[]], ((1, 2),)])
@example([[1, 2], [True, 3]])
@example([[1, 2], [3, 4.0]])
@example([[1, 2], [3]])
@example([(1, 2), [3, 4]])
@example([[1, 2], [3, 10**30]])
@example([1, 2.0])
@example("top level")
def test_dump_document_is_json_dumps_with_indent_2(value):
    assert dump_document(value) == json.dumps(value, indent=2)
