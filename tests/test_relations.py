"""Relation integration, communities, splitting, and condensation."""

import random
import sys
import traceback

import pytest

from diskalloc import (
    Allocation,
    Community,
    IntegratedRelation,
    Stage,
    ValidationError,
    condense_files,
    detect_communities,
    expand_allocation,
    integrate_relations,
    split_oversized_component,
)

import reference_data as ref
from naive import naive_communities, naive_components, naive_integrated


@pytest.mark.parametrize(
    "index, expected",
    [
        (1, ref.INTEGRATED_STAGE_1),
        (2, ref.INTEGRATED_STAGE_2),
        (3, ref.INTEGRATED_STAGE_3),
    ],
)
def test_bundled_integration_matches_reference(instance, index, expected):
    stage = instance.stage(index)
    relation = integrate_relations(stage)
    assert relation.edges == frozenset(expected)
    assert relation.edges == frozenset(naive_integrated(stage))


def test_integration_symmetrizes_arcs():
    stage = Stage(index=1, active_files=(1, 2, 3), precedence={(3, 1), (1, 2)})
    relation = integrate_relations(stage)
    assert relation.edges == frozenset({(1, 3), (1, 2)})
    assert relation.has_edge(2, 1) and relation.has_edge(1, 2)


def test_override_replaces_merged_relations_entirely():
    stage = Stage(
        index=1,
        active_files=(1, 2, 3),
        precedence={(1, 2)},
        concurrency={(2, 3)},
        e3_override=frozenset({(1, 3)}),
    )
    assert integrate_relations(stage).edges == frozenset({(1, 3)})


def test_adjacency_restricts_to_given_files():
    relation = IntegratedRelation(frozenset({(1, 2), (2, 3)}))
    adj = relation.adjacency([1, 2])
    assert adj == {1: frozenset({2}), 2: frozenset({1})}


@pytest.mark.parametrize(
    "index, expected",
    [
        (1, ref.COMMUNITIES_STAGE_1),
        (2, ref.COMMUNITIES_STAGE_2),
        (3, ref.COMMUNITIES_STAGE_3),
    ],
)
def test_bundled_communities_match_reference(instance, index, expected):
    stage = instance.stage(index)
    relation = integrate_relations(stage)
    communities = detect_communities(relation, stage.active_files, instance.gamma)
    assert [c.members for c in communities] == expected


def test_communities_cover_components(instance):
    for stage in instance.stages:
        relation = integrate_relations(stage)
        communities = detect_communities(relation, stage.active_files, instance.gamma)
        members = [f for c in communities for f in c.members]
        assert sorted(members) == list(stage.active_files)  # partition, no overlap
        comps = naive_components(stage.active_files, relation.edges)
        # every community sits inside one connected component
        for community in communities:
            assert any(set(community.members) <= set(comp) for comp in comps)


def test_isolated_files_become_singletons():
    relation = IntegratedRelation(frozenset())
    communities = detect_communities(relation, [3, 1, 2], 2)
    assert [c.members for c in communities] == [(1,), (2,), (3,)]


def test_path_component_splits_head_first():
    # path 1-2-3-4-5 with two disks: endpoints have degree 1, seed is 1
    edges = frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    relation = IntegratedRelation(edges)
    communities = detect_communities(relation, range(1, 6), 2)
    assert [c.members for c in communities] == [(1, 2), (3, 4), (5,)]


def test_clique_component_splits_by_id():
    # 4-clique, two disks: all degrees equal, ids decide
    edges = frozenset({(a, b) for a in range(1, 5) for b in range(a + 1, 5)})
    relation = IntegratedRelation(edges)
    communities = detect_communities(relation, range(1, 5), 2)
    assert [c.members for c in communities] == [(1, 2), (3, 4)]


def test_six_cycle_splits_into_halves():
    edges = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)})
    relation = IntegratedRelation(edges)
    communities = detect_communities(relation, range(1, 7), 3)
    assert [c.members for c in communities] == [(1, 2, 3), (4, 5, 6)]


def test_split_tolerates_small_components():
    relation = IntegratedRelation(frozenset({(1, 2)}))
    assert [c.members for c in split_oversized_component((1, 2), relation, 3)] == [(1, 2)]


def test_split_keeps_a_disconnected_component_that_fits_whole():
    # Peeling would seed with the isolated file 3 and split it off.
    relation = IntegratedRelation(frozenset({(1, 2)}))
    pieces = split_oversized_component((3, 1, 2), relation, 3)
    assert [c.members for c in pieces] == [(1, 2, 3)]


def test_split_of_an_oversized_disconnected_component_peels_each_part():
    relation = IntegratedRelation(frozenset({(1, 2), (2, 3), (4, 5)}))
    pieces = split_oversized_component((1, 2, 3, 4, 5, 6), relation, 2)
    assert [c.members for c in pieces] == [(1, 2), (3,), (4, 5), (6,)]


def test_split_rejects_zero_disks():
    with pytest.raises(ValidationError) as caught:
        split_oversized_component((1, 2), IntegratedRelation(frozenset({(1, 2)})), 0)
    assert str(caught.value) == "need at least one disk to split against"


def test_split_pieces_never_exceed_gamma():
    edges = frozenset({(a, b) for a in range(1, 9) for b in range(a + 1, 9)})
    relation = IntegratedRelation(edges)
    for gamma in (1, 2, 3, 4, 7, 8):
        pieces = split_oversized_component(tuple(range(1, 9)), relation, gamma)
        assert all(len(p) <= gamma for p in pieces)
        assert sorted(f for p in pieces for f in p.members) == list(range(1, 9))


def peel_graphs():
    """(files, edges) of random graphs, paths, stars and cliques."""
    rng = random.Random(5)
    for n in range(1, 13):
        files = list(range(1, n + 1))
        pairs = [(a, b) for a in files for b in files if a < b]
        yield files, [(a, a + 1) for a in files[:-1]]
        yield files, [(1, b) for b in files[1:]]
        yield files, pairs
        for density in (0.15, 0.3, 0.6):
            for _ in range(4):
                yield files, [p for p in pairs if rng.random() < density]


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_communities_match_the_naive_recursive_peel(gamma):
    for files, edges in peel_graphs():
        relation = IntegratedRelation(frozenset(edges))
        got = [c.members for c in detect_communities(relation, files, gamma)]
        assert got == naive_communities(files, edges, gamma), (files, edges)


def test_peeling_runs_deeper_than_the_recursion_limit():
    # A path of 2k files on two disks peels into k pieces, one after another.
    files = range(1, 601)
    relation = IntegratedRelation(frozenset((f, f + 1) for f in files[:-1]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        communities = detect_communities(relation, files, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.members for c in communities] == [(f, f + 1) for f in files[::2]]


def test_detect_communities_rejects_zero_disks():
    with pytest.raises(ValidationError):
        detect_communities(IntegratedRelation(frozenset()), [1], 0)


def test_community_requires_members():
    with pytest.raises(ValidationError):
        Community(())


def test_condense_merges_cheapest_edge_first():
    stage = Stage(
        index=1,
        active_files=(1, 2, 3, 4),
        concurrency={(1, 2), (3, 4)},
    )
    sizes = {1: 2, 2: 2, 3: 1, 4: 1}
    cond = condense_files(stage, sizes, threshold=4)
    # (3,4) combined size 2 merges before (1,2) combined size 4
    assert cond.stage.active_files == (1, 3)
    assert dict(cond.groups) == {1: (1, 2), 3: (3, 4)}
    assert dict(cond.sizes) == {1: 4, 3: 2}


def test_condense_respects_threshold():
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    cond = condense_files(stage, {1: 2, 2: 2}, threshold=3)
    assert cond.stage.active_files == (1, 2)
    assert dict(cond.groups) == {}


def test_condense_relabels_relations_and_drops_loops():
    stage = Stage(
        index=1,
        active_files=(1, 2, 3),
        precedence={(2, 3), (1, 2)},
        concurrency={(1, 2)},
    )
    cond = condense_files(stage, {1: 1, 2: 1, 3: 1}, threshold=2)
    # merge (1,2); arc 2->3 relabels to 1->3; the 1->2 arc and 1-2 edge vanish
    assert cond.stage.active_files == (1, 3)
    assert cond.stage.precedence == frozenset({(1, 3)})
    assert cond.stage.concurrency == frozenset()


def test_condense_sums_movement_probabilities():
    stage = Stage(
        index=1,
        active_files=(1, 2, 3),
        concurrency={(1, 2)},
        phi={(1, 3): 0.2, (2, 3): 0.3, (3, 1): 0.1, (1, 2): 0.4},
    )
    cond = condense_files(stage, {1: 1, 2: 1, 3: 1}, threshold=2)
    assert cond.stage.active_files == (1, 3)
    assert dict(cond.stage.phi) == {(1, 3): 0.5, (3, 1): 0.1}


def test_condense_rewrites_override():
    stage = Stage(
        index=1,
        active_files=(1, 2, 3),
        e3_override=frozenset({(1, 2), (2, 3)}),
    )
    cond = condense_files(stage, {1: 1, 2: 1, 3: 1}, threshold=2)
    assert cond.stage.active_files == (1, 3)
    assert cond.stage.e3_override == frozenset({(1, 3)})


def test_condense_rejects_bad_threshold():
    stage = Stage(index=1, active_files=(1,))
    with pytest.raises(ValidationError):
        condense_files(stage, {1: 1}, threshold=0)


def test_expand_co_locates_merged_files():
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency={(1, 2)})
    cond = condense_files(stage, {1: 1, 2: 1, 3: 1}, threshold=2)
    out = expand_allocation(Allocation({1: 2, 3: 1}), cond)
    assert dict(out.assignment) == {1: 2, 2: 2, 3: 1}


def test_expand_unfolds_ordering_in_place():
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency={(1, 2)})
    cond = condense_files(stage, {1: 1, 2: 1, 3: 1}, threshold=2)
    out = expand_allocation(
        Allocation({1: 1, 3: 1}, ordering={1: (3, 1)}), cond
    )
    assert out.ordering == {1: (3, 1, 2)}
