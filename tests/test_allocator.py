"""Objective evaluation, spreading, the least-connection seed, local
search, and exact enumeration."""

import dataclasses
import itertools
import logging
import random
from fractions import Fraction

import pytest

from diskalloc import (
    Allocation,
    CostModel,
    Community,
    DiskSpec,
    EnumerationCapError,
    FileSpec,
    InfeasibleError,
    Instance,
    Stage,
    ValidationError,
    check_allocation_feasible,
    detect_communities,
    evaluate_objective,
    exact_solve,
    integrate_relations,
    local_search,
    parse_instance_document,
    solve_stage,
    spread_allocate,
    validate_instance,
)
from diskalloc.allocator import (
    PairWeights,
    _connection_tables,
    _Placement,
    _solve_stage,
    _suffix_floors,
)
from diskalloc.generator import generate_instance

import reference_data as ref
from naive import (
    naive_exact,
    naive_exact_decimal,
    naive_integrated,
    naive_internal_floor,
    naive_least_connection,
    naive_psi,
)


def communities_for(instance, index):
    stage = instance.stage(index)
    relation = integrate_relations(stage)
    return detect_communities(relation, stage.active_files, instance.gamma)


def small_instance(**overrides):
    fields = dict(
        files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
        disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
        stages=(
            Stage(index=1, active_files=(1, 2, 3), concurrency=frozenset({(1, 2), (1, 3)})),
        ),
    )
    fields.update(overrides)
    return validate_instance(Instance(**fields))


# --- objective -----------------------------------------------------------


def test_uniform_objective_counts_related_same_disk_pairs(instance):
    report = evaluate_objective(Allocation(ref.X1), instance.stage(2))
    assert report.value == 1.0
    assert [t.pair for t in report.terms] == [(1, 4)]


def test_objective_zero_for_spread_solutions(instance):
    for index, assignment in [(1, ref.X1), (2, ref.X2), (3, ref.X3_SOLVER)]:
        report = evaluate_objective(Allocation(assignment), instance.stage(index))
        assert report.value == 0.0
        assert report.terms == ()


def test_objective_matches_naive_on_bundled_allocations(instance):
    for assignment in (ref.X1, ref.X2, ref.X3, ref.X2_STAR, ref.X3_STAR):
        for stage in instance.stages:
            assert (
                evaluate_objective(Allocation(assignment), stage).value
                == naive_psi(assignment, stage)
            )


def test_objective_requires_every_active_file():
    stage = Stage(index=1, active_files=(1, 2))
    with pytest.raises(ValidationError, match="missing active"):
        evaluate_objective(Allocation({1: 1}), stage)


def test_objective_ignores_entries_for_inactive_files():
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    report = evaluate_objective(Allocation({1: 1, 2: 1, 9: 1}), stage)
    assert report.value == 1.0


def test_explicit_probabilities_sum_ordered_entries():
    stage = Stage(index=1, active_files=(1, 2), phi={(1, 2): 0.5, (2, 1): 0.3})
    together = evaluate_objective(Allocation({1: 1, 2: 1}), stage)
    assert together.value == pytest.approx(0.8)
    assert together.terms[0].weight == pytest.approx(0.8)
    apart = evaluate_objective(Allocation({1: 1, 2: 2}), stage)
    assert apart.value == 0.0


@pytest.mark.parametrize("phi", [None, {(1, 2): 0.5}], ids=["uniform", "phi"])
def test_objective_with_no_pair_on_one_disk_is_a_float(phi):
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)}, phi=phi)
    value = evaluate_objective(Allocation({1: 1, 2: 2}), stage).value
    assert value == 0.0 and type(value) is float


def adjacency_by_file(weights):
    """The weights' position links keyed by file id, linked files only."""
    files = weights.files
    assert weights.position == {f: i for i, f in enumerate(files)}
    return {
        files[i]: {files[j]: w for j, w in link.items()}
        for i, link in enumerate(weights.links)
        if link
    }


def test_uniform_weights_share_the_relations_neighbour_map():
    # The uniform weights build, from the stage's pairs, the adjacency
    # that the relation's neighbour map holds.
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency={(1, 2), (2, 3)})
    weights = PairWeights(stage)
    assert weights.files == [1, 2, 3]
    assert adjacency_by_file(weights) == integrate_relations(stage)._neighbours
    assert adjacency_by_file(weights) == {1: {2: 1.0}, 2: {1: 1.0, 3: 1.0}, 3: {2: 1.0}}


@pytest.mark.parametrize(
    "stage, adjacent",
    [
        (
            Stage(index=1, active_files=(1, 2, 3, 4), precedence={(1, 2), (2, 1), (3, 2)}),
            {1: {2: 1}, 2: {1: 1, 3: 1}, 3: {2: 1}},
        ),
        (
            Stage(
                index=1,
                active_files=(1, 2, 3, 4),
                precedence={(2, 1), (4, 3)},
                concurrency={(1, 2), (2, 3)},
            ),
            {1: {2: 1}, 2: {1: 1, 3: 1}, 3: {2: 1, 4: 1}, 4: {3: 1}},
        ),
        (
            Stage(
                index=1,
                active_files=(1, 2, 3, 4),
                precedence={(1, 2)},
                concurrency={(3, 4)},
                e3_override={(3, 1), (2, 4)},
            ),
            {1: {3: 1}, 3: {1: 1}, 2: {4: 1}, 4: {2: 1}},
        ),
    ],
    ids=["arcs-both-ways", "arcs-repeat-edges", "override"],
)
def test_uniform_adjacency_equals_the_integrated_relation(stage, adjacent):
    # The uniform weights read the stage's pairs directly; they must link
    # what the integrated relation links, the override replacing both
    # pair sets.
    weights = PairWeights(stage)
    assert weights.files == list(stage.active_files)
    assert adjacency_by_file(weights) == integrate_relations(stage)._neighbours == adjacent


def test_explicit_probabilities_need_no_relation_edge():
    # the weighted pair is not in the integrated relation; it still counts
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency={(2, 3)}, phi={(1, 2): 0.4})
    report = evaluate_objective(Allocation({1: 1, 2: 1, 3: 2}), stage)
    assert report.value == pytest.approx(0.4)


def test_ordered_distance_uses_track_midpoints():
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency={(1, 2), (1, 3)})
    alloc = Allocation({1: 1, 2: 1, 3: 1}, ordering={1: (1, 2, 3)})
    report = evaluate_objective(
        alloc, stage, CostModel.ORDERED_DISTANCE, sizes={1: 1, 2: 2, 3: 1}
    )
    # midpoints 0.5, 2.0, 3.5 -> distances 1.5 and 3.0
    assert report.value == pytest.approx(4.5)
    assert [t.cost for t in report.terms] == [pytest.approx(1.5), pytest.approx(3.0)]


def test_ordered_distance_direction_of_pair_does_not_matter():
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    forward = Allocation({1: 1, 2: 1}, ordering={1: (1, 2)})
    backward = Allocation({1: 1, 2: 1}, ordering={1: (2, 1)})
    sizes = {1: 1, 2: 3}
    a = evaluate_objective(forward, stage, CostModel.ORDERED_DISTANCE, sizes=sizes)
    b = evaluate_objective(backward, stage, CostModel.ORDERED_DISTANCE, sizes=sizes)
    assert a.value == pytest.approx(b.value) == pytest.approx(2.0)


def test_ordered_distance_requires_ordering_and_sizes():
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    with pytest.raises(ValidationError, match="sizes"):
        evaluate_objective(
            Allocation({1: 1, 2: 1}, ordering={1: (1, 2)}), stage, CostModel.ORDERED_DISTANCE
        )
    with pytest.raises(ValidationError, match="ordering"):
        evaluate_objective(
            Allocation({1: 1, 2: 1}), stage, CostModel.ORDERED_DISTANCE, sizes={1: 1, 2: 1}
        )


def test_ordered_distance_rejects_ordering_assignment_mismatch():
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    alloc = Allocation({1: 1, 2: 2}, ordering={1: (1, 2)})
    with pytest.raises(ValidationError, match="assigned to"):
        evaluate_objective(alloc, stage, CostModel.ORDERED_DISTANCE, sizes={1: 1, 2: 1})


@pytest.mark.parametrize(
    "ordering, sizes, message",
    [
        ({1: (1, 2), 2: (1,)}, {1: 1, 2: 1}, "file 1 is ordered on more than one disk"),
        ({1: (1, 2)}, {1: 1}, "ordered file 2 has no size"),
        ({1: (1,)}, {1: 1, 2: 1}, "track ordering is missing active files: [2]"),
    ],
)
def test_ordered_distance_rejects_malformed_orderings(ordering, sizes, message):
    stage = Stage(index=1, active_files=(1, 2), concurrency={(1, 2)})
    alloc = Allocation({1: 1, 2: 1}, ordering=ordering)
    with pytest.raises(ValidationError) as caught:
        evaluate_objective(alloc, stage, CostModel.ORDERED_DISTANCE, sizes=sizes)
    assert str(caught.value) == message


# An unvalidated stage may pair files it does not activate: here file 1 with
# file 2, and file 2 with file 3. The solvers place file 1 alone.
_PAIRS_AN_INACTIVE_FILE = Stage(index=1, active_files=(1,), concurrency={(1, 2), (2, 3)})


@pytest.mark.parametrize(
    "solve",
    [
        lambda stage, inst: exact_solve(stage, inst),
        lambda stage, inst: solve_stage(inst, 1, exact=False)[:2],
        lambda stage, inst: local_search(Allocation({1: 2}), stage, inst),
    ],
    ids=["exact", "heuristic", "local_search"],
)
def test_objective_scores_a_solvers_result_as_the_solver_did(solve):
    stage = _PAIRS_AN_INACTIVE_FILE
    inst = Instance(
        files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
        disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
        stages=(stage,),
    )
    alloc, psi = solve(stage, inst)
    assert set(alloc.assignment) == {1}
    # Files 2 and 3 are both unplaced, which is not one disk.
    assert evaluate_objective(alloc, stage).value == psi == 0.0


def test_ordered_distance_needs_a_track_only_for_a_counted_pair():
    stage, sizes = _PAIRS_AN_INACTIVE_FILE, {1: 1, 2: 1, 3: 1}
    apart = Allocation({1: 1, 2: 2}, ordering={1: (1,)})
    assert evaluate_objective(apart, stage, CostModel.ORDERED_DISTANCE, sizes).value == 0.0
    together = Allocation({1: 1, 2: 1}, ordering={1: (1,)})
    with pytest.raises(ValidationError, match="track ordering is missing file 2"):
        evaluate_objective(together, stage, CostModel.ORDERED_DISTANCE, sizes)


# --- spreading heuristic -------------------------------------------------


@pytest.mark.parametrize(
    "index, expected",
    [(1, ref.X1), (2, ref.X2), (3, ref.X3_SOLVER)],
)
def test_spread_reproduces_bundled_solutions(instance, index, expected):
    alloc = spread_allocate(communities_for(instance, index), instance, instance.stage(index))
    assert dict(alloc.assignment) == expected
    assert not alloc.degraded


def test_spread_flags_degraded_when_distinct_disks_impossible():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 2)),
            disks=(DiskSpec(1, 3), DiskSpec(2, 1)),
            stages=(Stage(index=1, active_files=(1, 2), concurrency=frozenset({(1, 2)})),),
        )
    )
    alloc = spread_allocate(communities_for(inst, 1), inst, inst.stage(1))
    assert alloc.degraded
    assert dict(alloc.assignment) == {1: 1, 2: 1}


def test_spread_raises_when_a_file_fits_nowhere():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 3),),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(Stage(index=1, active_files=(1,)),),
        )
    )
    with pytest.raises(InfeasibleError, match="fits on no disk"):
        spread_allocate(communities_for(inst, 1), inst, inst.stage(1))


def test_spread_pins_inactive_files_from_previous():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3)),
                Stage(index=2, active_files=(1, 2), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    stage = inst.stage(2)
    previous = Allocation({1: 2, 2: 2, 3: 2})
    relation = integrate_relations(stage)
    communities = detect_communities(relation, (1, 2), inst.gamma)
    alloc = spread_allocate(communities, inst, stage, previous)
    assert alloc.assignment[3] == 2  # inactive file stays put
    # disk 1 has more residual than disk 2 (which holds the pinned file)
    assert alloc.assignment[1] == 1
    assert alloc.assignment[2] == 2


def test_spread_rejects_community_overlapping_pins(instance):
    stage = instance.stage(1)
    communities = communities_for(instance, 1)
    with pytest.raises(ValidationError, match="already placed"):
        spread_allocate(communities, instance, stage, pinned={1: 1})


@pytest.mark.parametrize(
    "pinned, message",
    [
        ({1: 9}, "pinned file 1 sits on unknown disk 9"),
        ({99: 1}, "pinned file 99 does not exist"),
    ],
)
def test_spread_rejects_pins_off_the_instance(instance, pinned, message):
    with pytest.raises(ValidationError) as caught:
        spread_allocate([], instance, instance.stage(1), pinned=pinned)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "previous, message",
    [
        ({1: 1, 2: 1, 3: 9}, "previous allocation puts file 3 on unknown disk 9"),
        ({1: 1, 2: 1, 3: 2, 4: 1}, "previous allocation names unknown file 4"),
        ({1: 9, 2: 1, 3: 2}, "previous allocation puts file 1 on unknown disk 9"),
    ],
    ids=["inactive-file-on-unknown-disk", "unknown-file", "active-file-on-unknown-disk"],
)
def test_spread_rejects_previous_entries_off_the_instance(previous, message):
    # File 3 is inactive in stage 2 and file 4 does not exist; the caller
    # pinned nothing, so no message speaks of pins.
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3)),
                Stage(index=2, active_files=(1, 2), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    communities = [Community((1,)), Community((2,))]
    with pytest.raises(ValidationError) as caught:
        spread_allocate(communities, inst, inst.stage(2), Allocation(previous))
    assert str(caught.value) == message


def test_spread_rejects_a_community_member_that_does_not_exist():
    inst = small_instance()
    with pytest.raises(ValidationError) as caught:
        spread_allocate([Community((99,))], inst, inst.stage(1))
    assert str(caught.value) == "file 99 does not exist"


def test_spread_errors_when_pins_overfill_a_disk(instance):
    stage = instance.stage(1)
    with pytest.raises(InfeasibleError, match="overfill"):
        spread_allocate([], instance, stage, pinned={1: 3, 2: 3, 3: 3})


# --- feasibility check ---------------------------------------------------


def test_feasible_allocation_passes(instance):
    report = check_allocation_feasible(Allocation(ref.X1), instance.stage(1), instance)
    assert report.feasible and report.violations == ()


def test_feasibility_reports_each_violation(instance):
    alloc = Allocation({1: 3, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1, 7: 9, 9: 2})
    report = check_allocation_feasible(alloc, instance.stage(1), instance)
    assert not report.feasible
    text = "\n".join(report.violations)
    assert "active file 8 is not assigned" in text
    assert "disk 3 holds 3 tracks" in text
    assert "unknown disk 9" in text
    assert "file 9 does not exist" in text


def test_feasibility_checks_ordering_consistency(instance):
    alloc = Allocation(
        ref.X1, ordering={1: (1, 4, 6), 2: (5, 7, 1), 3: (3, 8)}
    )
    report = check_allocation_feasible(alloc, instance.stage(1), instance)
    text = "\n".join(report.violations)
    assert "ordered on more than one disk" in text


def test_feasibility_checks_ordering_disks_and_assignment():
    inst = small_instance()
    alloc = Allocation({1: 1, 2: 2, 3: 2}, ordering={1: (1, 4), 7: (2,)})
    report = check_allocation_feasible(alloc, inst.stage(1), inst)
    assert report.violations == (
        "file 4 is ordered on disk 1 but not assigned",
        "track ordering names unknown disk 7",
    )


# --- local search --------------------------------------------------------


def test_local_search_repairs_bundled_stage_two(instance):
    out, psi = local_search(Allocation(ref.X1), instance.stage(2), instance)
    assert psi == 0.0
    assert dict(out.assignment) == ref.RESTRUCTURE_GREEDY_BUDGET2
    assert evaluate_objective(out, instance.stage(2)).value == 0.0


def test_local_search_never_increases_objective(instance):
    for index in (1, 2, 3):
        stage = instance.stage(index)
        for assignment in (ref.X1, ref.X2, ref.X3, ref.X2_STAR, ref.X3_STAR):
            before = evaluate_objective(Allocation(assignment), stage).value
            out, after = local_search(Allocation(assignment), stage, instance)
            assert after <= before
            assert evaluate_objective(out, stage).value == after
            assert check_allocation_feasible(out, stage, instance).feasible


def test_local_search_respects_pins(instance):
    out, psi = local_search(
        Allocation(ref.X1), instance.stage(2), instance, pinned={1: 1}
    )
    assert out.assignment[1] == 1
    assert psi <= evaluate_objective(Allocation(ref.X1), instance.stage(2)).value


@pytest.mark.parametrize(
    "pinned", [{1: 2}, {99: 1}, {1: 9}], ids=["other-disk", "unknown-file", "unknown-disk"]
)
def test_local_search_rejects_pins_that_the_allocation_breaks(instance, pinned):
    # X1 puts file 1 on disk 1; the instance has no file 99 and no disk 9.
    with pytest.raises(ValidationError, match="pinned file"):
        local_search(Allocation(ref.X1), instance.stage(2), instance, pinned=pinned)


def test_local_search_keeps_inactive_entries():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3)),
                Stage(index=2, active_files=(1, 2), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    start = Allocation({1: 1, 2: 1, 3: 2})
    out, psi = local_search(start, inst.stage(2), inst)
    assert out.assignment[3] == 2
    assert psi == 0.0


def test_local_search_rejects_ordered_distance(instance):
    with pytest.raises(ValidationError, match="uniform"):
        ordered = dataclasses.replace(instance, cost_model=CostModel.ORDERED_DISTANCE)
        local_search(Allocation(ref.X1), ordered.stage(1), ordered)


def test_local_search_rejects_a_stage_file_the_instance_lacks(instance):
    # In exact_solve's words, whether or not the allocation places it.
    stage = Stage(index=2, active_files=(1, 2, 99))
    for start in ({**ref.X1, 99: 1}, ref.X1):
        with pytest.raises(ValidationError) as caught:
            local_search(Allocation(start), stage, instance)
        assert str(caught.value) == "stage 2: active file 99 does not exist"


def test_local_search_rejects_infeasible_start(instance):
    bad = Allocation({**ref.X1, 1: 3})  # three unit files on the 2-track disk
    with pytest.raises(InfeasibleError):
        local_search(bad, instance.stage(1), instance)


def test_local_search_eval_cap_logs_and_returns(instance, monkeypatch, caplog):
    import diskalloc.allocator as mod

    monkeypatch.setattr(mod, "_LOCAL_SEARCH_EVAL_FACTOR", 0)
    with caplog.at_level(logging.WARNING, logger="diskalloc.allocator"):
        out, psi = local_search(Allocation(ref.X1), instance.stage(2), instance)
    # The one descent stops at the cap on its first scan and warns once.
    assert ["evaluation cap" in r.getMessage() for r in caplog.records] == [True]
    assert dict(out.assignment) == ref.X1  # nothing applied under a zero cap


# --- exact enumeration ---------------------------------------------------


@pytest.mark.parametrize(
    "index, expected",
    [(1, ref.X1), (2, ref.X2), (3, ref.X3_SOLVER)],
)
def test_exact_reproduces_bundled_optima(instance, index, expected):
    alloc, psi = exact_solve(instance.stage(index), instance)
    assert psi == 0.0
    assert dict(alloc.assignment) == expected


def test_exact_agrees_with_brute_force_on_bundled(instance):
    for stage in instance.stages:
        alloc, psi = exact_solve(stage, instance)
        naive_assignment, naive_value = naive_exact(stage, instance)
        assert psi == naive_value
        assert dict(alloc.assignment) == naive_assignment


@pytest.mark.parametrize("seed", range(30))
def test_exact_agrees_with_brute_force_on_random_instances(seed):
    doc = generate_instance(
        n_files=4 + seed % 4,
        gamma=2 + seed % 2,
        n_stages=1,
        edge_density=0.15 * (seed % 6),
        size_range=(1, 1 + seed % 3),
        capacity_slack=1.0 + 0.25 * (seed % 3),
        seed=seed,
    )
    inst = parse_instance_document(doc)
    stage = inst.stage(1)
    brute = naive_exact(stage, inst)
    if brute is None:
        with pytest.raises(InfeasibleError):
            exact_solve(stage, inst)
        return
    naive_assignment, naive_value = brute
    alloc, psi = exact_solve(stage, inst)
    assert psi == naive_value
    assert dict(alloc.assignment) == naive_assignment  # lex tie-break too


def test_exact_minimizes_weighted_objective():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1), FileSpec(4, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(
                    index=1,
                    active_files=(1, 2, 3, 4),
                    phi={(1, 2): 0.5, (2, 1): 0.3, (3, 4): 0.2, (1, 3): 0.1},
                ),
            ),
        )
    )
    stage = inst.stage(1)
    alloc, psi = exact_solve(stage, inst)
    naive_assignment, naive_value = naive_exact(stage, inst)
    assert psi == pytest.approx(naive_value)
    assert dict(alloc.assignment) == naive_assignment


def test_exact_tie_break_holds_under_fractional_phi():
    """Float sums of the same weights in different orders differ in the
    last bits; the search must still return the lexicographically least
    of the placements whose objectives are equal in decimal."""
    mismatches = []
    for seed in range(300):
        rng = random.Random(seed)
        n_files, gamma = rng.choice((5, 6, 7)), rng.choice((2, 3))
        doc = generate_instance(n_files, gamma, 1, 0.4, (1, 2), 1.5, seed)
        inst = parse_instance_document(doc)
        files = inst.stage(1).active_files
        phi = {
            (a, b): rng.choice((0, 0.1, 0.2, 0.3, 0.7))
            for a in files
            for b in files
            if a != b
        }
        stage = dataclasses.replace(inst.stage(1), phi=phi)
        inst = dataclasses.replace(inst, stages=(stage,))
        brute = naive_exact_decimal(stage, inst)
        if brute is None:
            with pytest.raises(InfeasibleError):
                exact_solve(stage, inst)
            continue
        alloc, psi = exact_solve(stage, inst)
        assert psi == pytest.approx(float(brute[1]), abs=1e-9)
        if dict(alloc.assignment) != brute[0]:
            mismatches.append(seed)
    assert mismatches == []


def random_pins(rng, stage, inst):
    """One to three active files, each pinned to a disk it still fits on."""
    loads = dict.fromkeys(inst.capacities, 0)
    pinned = {}
    for f in rng.sample(stage.active_files, rng.choice((1, 2, 3))):
        room = [d for d in loads if loads[d] + inst.sizes[f] <= inst.capacities[d]]
        pinned[f] = rng.choice(room)
        loads[pinned[f]] += inst.sizes[f]
    return pinned


@pytest.mark.parametrize("seed", range(40))
def test_exact_agrees_with_brute_force_around_pinned_files(seed):
    # Pinned active files start the search's connection table non-zero,
    # and slack near 1.0 makes capacity, which the search's lower bound
    # ignores, keep files off their cheapest disks.
    rng = random.Random(seed)
    density, slack = rng.choice((0.35, 0.5, 0.7)), rng.uniform(1.0, 1.3)
    doc = generate_instance(8 + seed % 2, 3, 1, density, (1, 2), slack, seed)
    inst = parse_instance_document(doc)
    stage = inst.stage(1)
    pinned = random_pins(rng, stage, inst)
    brute = naive_exact(stage, inst, pinned=pinned)
    if brute is None:
        with pytest.raises(InfeasibleError):
            exact_solve(stage, inst, pinned=pinned)
        return
    alloc, psi = exact_solve(stage, inst, pinned=pinned)
    assert psi == brute[1]
    assert dict(alloc.assignment) == brute[0]


def with_dense_phi(rng, inst):
    """(stage, instance) of ``inst``'s one stage with a dense fractional
    ``phi``: every ordered cell in [0, 0.3], 3 decimals."""
    files = inst.stage(1).active_files
    phi = {(a, b): rng.randint(0, 300) / 1000 for a in files for b in files if a != b}
    stage = dataclasses.replace(inst.stage(1), phi=phi)
    return stage, dataclasses.replace(inst, stages=(stage,))


@pytest.mark.parametrize("seed", range(20))
def test_exact_agrees_with_exact_decimals_around_pinned_files_under_dense_phi(seed):
    rng = random.Random(seed)
    n_files, n_disks, slack = rng.choice((8, 9)), rng.choice((3, 4)), rng.uniform(1.1, 1.3)
    doc = generate_instance(n_files, n_disks, 1, 0.3, (1, 2), slack, seed)
    stage, inst = with_dense_phi(rng, parse_instance_document(doc))
    pinned = random_pins(rng, stage, inst)
    brute = naive_exact_decimal(stage, inst, pinned=pinned)
    if brute is None:
        with pytest.raises(InfeasibleError):
            exact_solve(stage, inst, pinned=pinned)
        return
    alloc, psi = exact_solve(stage, inst, pinned=pinned)
    assert dict(alloc.assignment) == brute[0]
    assert psi == pytest.approx(float(brute[1]), abs=1e-9)


def random_pair_weights(rng, n, shape):
    """Weights of the linked pairs among files 0..n-1, lower id first.
    Fractional weights sum two 3-decimal cells, as ``PairWeights`` does."""
    density = rng.uniform(0.3, 1.0)
    weights = {}
    for a in range(n):
        for b in range(a + 1, n):
            if shape == "complete":
                w = 1.0
            elif shape == "uniform":
                w = 1.0 if rng.random() < density else 0.0
            else:
                w = rng.randint(0, 300) / 1000 + rng.randint(0, 300) / 1000
                if shape == "sparse" and rng.random() >= 0.2:
                    w = 0.0
            if w:
                weights[a, b] = w
    return weights


@pytest.mark.parametrize("shape", ["complete", "uniform", "dense", "sparse"])
def test_suffix_floors_hold_against_brute_force(shape):
    # The floor of every depth is at most the least weight of same-disk
    # pairs among the files not yet placed, and is that weight when every
    # pair weighs the same.
    for seed in range(30):
        rng = random.Random(seed)
        n, k = rng.randint(0, 8), rng.randint(1, 4)
        weights = random_pair_weights(rng, n, shape)
        links = [{} for _ in range(n)]
        for (a, b), w in weights.items():
            links[a][b] = links[b][a] = w
        floors = _suffix_floors(links, k)
        assert len(floors) == n + 1
        for i in range(n + 1):
            least = naive_internal_floor(weights, range(i, n), k)
            if shape == "complete":
                assert floors[i] == least
            else:
                assert floors[i] <= least + 1e-9


def test_heuristic_objective_is_its_placements_on_sparse_fractional_phi():
    # 18-file, 5-disk stages where one ordered pair in 5, 10 or 20 carries
    # a 3-decimal weight. Float deltas summed onto the start value used to
    # drift to objectives a few 1e-16 below zero, or off the placement's
    # own in the last bits.
    for seed in range(40):
        rng = random.Random(seed)
        doc = generate_instance(18, 5, 1, 0.0, (1, 3), rng.uniform(1.3, 1.6), seed)
        sparsity = rng.choice([5, 10, 20])
        doc["stages"][0]["phi"] = [
            [round(rng.uniform(0.0, 0.3), 3) if i != j and rng.randrange(sparsity) == 0 else 0.0
             for j in range(18)]
            for i in range(18)
        ]
        inst = parse_instance_document(doc)
        alloc, psi, certified = solve_stage(inst, 1, exact=False)
        assert not certified
        assert psi >= 0, seed
        assert psi == evaluate_objective(alloc, inst.stage(1)).value, seed


# Node budgets for test_exact_search_stays_within_its_node_count's stages,
# by seed: one below the nodes the search enters without the pair floor of
# ``_suffix_floors`` (1148, 1836, 1875, 2161, 1117 and 549), so the test
# fails when the floor is lost. With it the search enters 929, 1651, 1593,
# 1914, 849 and 452.
NODE_BUDGETS = {0: 1147, 1: 1835, 2: 1874, 3: 2160, 4: 1116, 5: 548}


@pytest.mark.parametrize("seed", range(6))
def test_exact_search_stays_within_its_node_count(seed, monkeypatch):
    import diskalloc.allocator as mod

    rng = random.Random(seed)
    doc = generate_instance(10, 3, 1, 0.2, (1, 3), 1.3, seed)
    stage, inst = with_dense_phi(rng, parse_instance_document(doc))
    monkeypatch.setattr(mod, "_NODE_BUDGET", NODE_BUDGETS[seed])
    alloc, psi = exact_solve(stage, inst)
    brute = naive_exact_decimal(stage, inst)
    assert dict(alloc.assignment) == brute[0]
    assert psi == pytest.approx(float(brute[1]), abs=1e-9)


# Node budgets for test_exact_search_cuts_subtrees_that_can_only_tie's
# uniform stages, by seed: one below the nodes the search enters when it
# keeps a subtree whose bound only ties the incumbent, with no fewer moves
# (5568, 344, 2449, 207 and 962). With the cut it enters 2778, 183, 1259,
# 133 and 449.
TIE_NODE_BUDGETS = {0: 5567, 2: 343, 4: 2448, 5: 206, 6: 961}


@pytest.mark.parametrize("seed", sorted(TIE_NODE_BUDGETS))
def test_exact_search_cuts_subtrees_that_can_only_tie(seed, monkeypatch):
    import diskalloc.allocator as mod

    inst = parse_instance_document(generate_instance(12, 3 + seed % 2, 1, 0.25, (1, 3), 1.3, seed))
    stage = inst.stage(1)
    want = exact_solve(stage, inst)
    monkeypatch.setattr(mod, "_NODE_BUDGET", TIE_NODE_BUDGETS[seed])
    assert exact_solve(stage, inst) == want


# Node budgets for the dense-``phi`` stages of
# test_exact_search_stays_within_its_node_count, by seed. Testing each
# child's floor only after its placement raises the ``low`` entries, the
# search enters 929, 1651, 1593, 1914, 849 and 452 nodes. Tested before
# that update, a child that the floor cuts is no node: with the pairs
# among the files after the child's own, ``floors[i + 1]``, it enters 734,
# 1243, 1223, 1398, 693 and 358; with those among its own file and the
# files after it, ``floors[i]``, 627, 1049, 906, 1072, 549 and 293. Each
# budget is one below the middle count, so the test fails when either
# the early test or its own file's pairs are lost.
PRECHECK_NODE_BUDGETS = {0: 733, 1: 1242, 2: 1222, 3: 1397, 4: 692, 5: 357}


@pytest.mark.parametrize("seed", sorted(PRECHECK_NODE_BUDGETS))
def test_exact_search_cuts_children_before_their_table_update(seed, monkeypatch):
    import diskalloc.allocator as mod

    rng = random.Random(seed)
    doc = generate_instance(10, 3, 1, 0.2, (1, 3), 1.3, seed)
    stage, inst = with_dense_phi(rng, parse_instance_document(doc))
    want = exact_solve(stage, inst)
    monkeypatch.setattr(mod, "_NODE_BUDGET", PRECHECK_NODE_BUDGETS[seed])
    assert exact_solve(stage, inst) == want


def test_exact_respects_pins():
    inst = small_instance()
    stage = inst.stage(1)
    alloc, psi = exact_solve(stage, inst, pinned={2: 1})
    naive_assignment, naive_value = naive_exact(stage, inst, pinned={2: 1})
    assert alloc.assignment[2] == 1
    assert psi == naive_value
    assert dict(alloc.assignment) == naive_assignment


def test_exact_counts_pinned_inactive_capacity():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 2)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3)),
                Stage(index=2, active_files=(1, 2), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    stage = inst.stage(2)
    alloc, psi = exact_solve(stage, inst, pinned={3: 1})
    # disk 1 is full; both active files must share disk 2
    assert alloc.assignment == {1: 2, 2: 2, 3: 1}
    assert psi == 1.0


def test_exact_objective_is_evaluate_objective_on_a_pair_with_an_inactive_file():
    # Unvalidated: the pair names file 2, inactive and pinned. The search
    # counts the pair as the evaluation does, so file 1 leaves disk 1.
    inst = Instance(
        files=(FileSpec(1, 1), FileSpec(2, 1)),
        disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
        stages=(Stage(index=1, active_files=(1,), concurrency=frozenset({(1, 2)})),),
    )
    stage = inst.stage(1)
    alloc, psi = exact_solve(stage, inst, pinned={2: 1})
    assert psi == evaluate_objective(alloc, stage).value
    assert alloc.assignment == {1: 2, 2: 1}


@pytest.mark.parametrize(
    "phi",
    [None, {(1, 2): 0.25, (2, 3): 0.5, (3, 4): 0.125, (4, 1): 0.375}],
    ids=["uniform", "phi"],
)
def test_every_search_counts_a_pair_with_an_inactive_pinned_file(phi):
    # Unvalidated: pairs name file 2, inactive and pinned or held on disk
    # 1, which has room for one more file. Every search counts them as the
    # evaluation does, so only file 4, unpaired with 2, joins it.
    from diskalloc.restructure import RestructureMode, RestructuringProblem, restructure_one_stage

    inst = Instance(
        files=tuple(FileSpec(f, 1) for f in (1, 2, 3, 4)),
        disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
        stages=(
            Stage(
                index=1,
                active_files=(1, 3, 4),
                concurrency=frozenset({(1, 2), (2, 3), (3, 4)}),
                phi=phi,
            ),
        ),
    )
    stage = inst.stage(1)
    start = Allocation({1: 1, 2: 1, 3: 2, 4: 2})
    assert evaluate_objective(start, stage).value > 0
    found = [
        _solve_stage(stage, inst, {2: 1}, 0, exact=False)[:2],
        _solve_stage(stage, inst, {2: 1}, 3, exact=True)[:2],
        local_search(start, stage, inst, pinned={2: 1}),
    ]
    for mode in RestructureMode:
        problem = RestructuringProblem(
            instance=inst, stage=stage, previous=start, budget=2.0, reference=None
        )
        result = restructure_one_stage(problem, mode)
        found.append((result.allocation, result.objective))
    for alloc, psi in found:
        assert psi == evaluate_objective(alloc, stage).value == 0.0
        assert alloc.assignment == {1: 2, 2: 1, 3: 2, 4: 1}


def test_exact_handles_stage_with_no_active_files():
    inst = small_instance(
        stages=(Stage(index=1, active_files=()),),
    )
    alloc, psi = exact_solve(inst.stage(1), inst)
    assert dict(alloc.assignment) == {}
    assert psi == 0.0


def test_exact_raises_past_the_cap():
    files = tuple(FileSpec(i, 1) for i in range(1, 14))
    inst = validate_instance(
        Instance(
            files=files,
            disks=(DiskSpec(1, 7), DiskSpec(2, 7)),
            stages=(Stage(index=1, active_files=tuple(range(1, 14))),),
        )
    )
    with pytest.raises(EnumerationCapError):
        exact_solve(inst.stage(1), inst)
    alloc, psi = exact_solve(inst.stage(1), inst, cap=13)
    assert psi == 0.0


def test_exact_rejects_a_stage_file_the_instance_lacks(instance):
    # Checked before the cap, which 3 files pass at cap 0.
    stage = Stage(index=2, active_files=(1, 2, 99))
    for cap in (0, 12):
        with pytest.raises(ValidationError) as caught:
            exact_solve(stage, instance, cap=cap)
        assert str(caught.value) == "stage 2: active file 99 does not exist"


def test_exact_raises_when_nothing_fits():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 2), FileSpec(2, 2), FileSpec(3, 2)),
            disks=(DiskSpec(1, 3), DiskSpec(2, 3)),
            stages=(Stage(index=1, active_files=(1, 2, 3)),),
        )
    )
    # 6 tracks fit globally, but no split of three 2-track files works... it
    # does: 2+2 <= 3 fails, so one disk holds one file and the other two
    # files need 4 > 3. Nothing fits.
    with pytest.raises(InfeasibleError):
        exact_solve(inst.stage(1), inst)


def test_exact_rejects_ordered_distance(instance):
    with pytest.raises(ValidationError, match="uniform"):
        ordered = dataclasses.replace(instance, cost_model=CostModel.ORDERED_DISTANCE)
        exact_solve(ordered.stage(1), ordered)


# --- least-connection seed -----------------------------------------------


def exact_weight(stage, together):
    """Summed weight, in exact fractions, of the pairs of ``stage`` for
    which ``together(a, b)`` holds; each ``phi`` entry counts as the
    decimal it prints as."""
    if stage.phi is None:
        pairs = [(a, b, Fraction(1)) for a, b in naive_integrated(stage)]
    else:
        pairs = [(a, b, Fraction(repr(w))) for (a, b), w in stage.phi.items()]
    return sum((w for a, b, w in pairs if together(a, b)), Fraction(0))


def seed_case(seed, fractional, slack):
    """(rng, stage, instance): one generated stage of 10-30 files on 2-6
    disks, uniform or under dense 3-decimal ``phi``, at capacity slack
    ``slack(disks, rng)``."""
    rng = random.Random(seed)
    n, k = rng.randint(10, 30), rng.randint(2, 6)
    doc = generate_instance(n, k, 1, rng.uniform(0.1, 0.4), (1, 3), slack(k, rng), seed)
    inst = parse_instance_document(doc)
    if fractional:
        stage, inst = with_dense_phi(rng, inst)
        return rng, stage, inst
    return rng, inst.stage(1), inst


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_least_connection_leaves_at_most_a_kth_of_the_weight_on_one_disk(fractional):
    # Slack k gives every disk room for all the files, so capacity never
    # binds; each file then pays at most 1/k of its weight to the files
    # placed before it, pinned ones included (Sahni and Gonzalez). Of the
    # pairs it places, at most 1/k of the weight shares a disk.
    for seed in range(40):
        rng, stage, inst = seed_case(seed, fractional, lambda k, rng: float(k))
        pinned = random_pins(rng, stage, inst) if seed % 2 else {}
        free = [f for f in stage.active_files if f not in pinned]
        seeded = _Placement(pinned, free, inst, PairWeights(stage), {}, 0).assignment

        def placed(a, b):
            return a not in pinned or b not in pinned

        same = exact_weight(stage, lambda a, b: placed(a, b) and seeded[a] == seeded[b])
        assert inst.gamma * same <= exact_weight(stage, placed), seed


def test_least_connection_places_the_largest_files_first():
    # In id order files 1 and 2 would fill disk 1 to 2 tracks, and file 3
    # disk 2, leaving file 4 no room.
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 2), FileSpec(4, 2)),
            disks=(DiskSpec(1, 3), DiskSpec(2, 3)),
            stages=(Stage(index=1, active_files=(1, 2, 3, 4)),),
        )
    )
    stage = inst.stage(1)
    seeded = _Placement({}, stage.active_files, inst, PairWeights(stage), {}, 0).assignment
    assert seeded == {3: 1, 4: 2, 1: 1, 2: 2}


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_least_connection_is_a_feasible_deterministic_start_that_keeps_pins(fractional):
    for seed in range(40):
        rng, stage, inst = seed_case(seed, fractional, lambda k, rng: rng.uniform(1.2, 1.6))
        pinned = random_pins(rng, stage, inst)
        free = [f for f in stage.active_files if f not in pinned]
        weights = PairWeights(stage)
        seeded = _Placement(pinned, free, inst, weights, {}, 0).assignment
        assert seeded == _Placement(pinned, free, inst, weights, {}, 0).assignment, seed
        assert all(seeded[f] == d for f, d in pinned.items()), seed
        assert check_allocation_feasible(Allocation(seeded), stage, inst).feasible, seed
        alloc, psi, certified = _solve_stage(stage, inst, pinned, 0, exact=False)
        assert not certified
        assert psi <= evaluate_objective(Allocation(seeded), stage).value, seed


def test_least_connection_counts_pinned_files_as_placed():
    # File 1 is pinned to disk 1, so its neighbour 2 avoids it; file 3,
    # linked to neither, takes the lowest disk.
    inst = small_instance()
    stage = Stage(index=1, active_files=(1, 2, 3), concurrency=frozenset({(1, 2)}))
    seeded = _Placement({1: 1}, [2, 3], inst, PairWeights(stage), {}, 0).assignment
    assert seeded == {1: 1, 2: 2, 3: 1}


def held_case(seed, fractional):
    """(stage, instance, fixed): ``seed_case``'s stage at slack 1.2-1.6
    with one to three files made inactive and held on disks they fit, and,
    on odd seeds, one to three active files pinned the same way."""
    rng, stage, inst = seed_case(seed, fractional, lambda k, rng: rng.uniform(1.2, 1.6))
    held = set(rng.sample(stage.active_files, rng.randint(1, 3)))

    def kept(pair):
        return not held & set(pair)

    stage = Stage(
        index=1,
        active_files=[f for f in stage.active_files if f not in held],
        precedence=filter(kept, stage.precedence),
        concurrency=filter(kept, stage.concurrency),
        phi=None if stage.phi is None else {p: w for p, w in stage.phi.items() if kept(p)},
    )
    inst = dataclasses.replace(inst, stages=(stage,))
    pins = rng.sample(stage.active_files, rng.randint(1, 3)) if seed % 2 else []
    loads = dict.fromkeys(inst.capacities, 0)
    fixed = {}
    for f in sorted(held) + pins:
        room = [d for d in loads if loads[d] + inst.sizes[f] <= inst.capacities[d]]
        fixed[f] = rng.choice(room)
        loads[fixed[f]] += inst.sizes[f]
    return stage, inst, fixed


def homed_case(seed, fractional):
    """(stage, instance, held, base, allowance): ``held_case``'s stage and
    its inactive held files, with one to four active files given a
    ``base`` home on disks they fit, and a move allowance of at most that
    many, as greedy restructuring gives them; the other active files are
    new."""
    stage, inst, fixed = held_case(seed, fractional)
    held = {f: d for f, d in fixed.items() if f not in stage.active_set}
    rng = random.Random(seed)
    loads = dict.fromkeys(inst.capacities, 0)
    for f, d in held.items():
        loads[d] += inst.sizes[f]
    base = {}
    for f in rng.sample(stage.active_files, rng.randint(1, 4)):
        room = [d for d in sorted(loads) if loads[d] + inst.sizes[f] <= inst.capacities[d]]
        base[f] = rng.choice(room)
        loads[base[f]] += inst.sizes[f]
    return stage, inst, held, base, rng.randint(0, len(base))


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_the_seeded_placement_holds_the_table_of_a_fresh_build(fractional):
    # The seed fills the table that local search descends on one file at a
    # time; it must end where a build from scratch for the seeded
    # assignment starts, held and pinned files included. The oracle seed
    # orders the files by all their neighbours, pinned ones included.
    # Greedy restructuring seeds only its new files, beside the held files
    # and the homed ones it searches too.
    for seed, homed in itertools.product(range(40), (False, True)):
        if homed:
            stage, inst, held, base, allowance = homed_case(seed, fractional)
            given, files = {**held, **base}, stage.active_files
        else:
            stage, inst, given = held_case(seed, fractional)
            base, allowance = {}, 0
            files = [f for f in stage.active_files if f not in given]
        weights = PairWeights(stage)
        state = _Placement(given, files, inst, weights, base, allowance)
        assignment = state.assignment
        assert assignment == naive_least_connection(stage, inst, given), (seed, homed)
        rows, links, psi = _connection_tables(files, assignment, state.disks, weights)
        assert (state.rows, state.links, state.psi) == (rows, links, psi), (seed, homed)
        loads = dict.fromkeys(inst.capacities, 0)
        for f, d in assignment.items():
            loads[d] += inst.sizes[f]
        assert state.loads == [loads[d] for d in sorted(inst.capacities)], (seed, homed)
        own = [row[state.slot_of[assignment[f]]] for f, row in zip(files, rows)]
        assert state.discontent == {i for i, row in enumerate(rows) if min(row) < own[i]}
        value = evaluate_objective(Allocation(assignment), stage).value
        assert state.psi / weights.scale == value, (seed, homed)


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_heuristic_solve_builds_its_weights_and_table_once(monkeypatch, caplog, fractional):
    # Past the cap the seed builds the one table that local search
    # descends on, from the one set of weights.
    from diskalloc import allocator

    rng = random.Random(3)
    inst = parse_instance_document(generate_instance(40, 4, 1, 0.1, (1, 2), 1.4, 3))
    if fractional:
        inst = with_dense_phi(rng, inst)[1]
    tables, init, built = allocator._connection_tables, PairWeights.__init__, []

    def counted_tables(*args):
        built.append("table")
        return tables(*args)

    def counted_init(self, stage):
        built.append("weights")
        init(self, stage)

    monkeypatch.setattr(allocator, "_connection_tables", counted_tables)
    monkeypatch.setattr(PairWeights, "__init__", counted_init)
    with caplog.at_level(logging.WARNING, logger="diskalloc.allocator"):
        alloc, psi, certified = solve_stage(inst, 1)
    assert not caplog.records and not certified
    assert built == ["weights", "table"]


def test_heuristic_solves_a_tight_stage_that_least_connection_could_not_fill():
    # Least connection left file 7 (2 tracks) no disk; the seed takes
    # back the files it placed and places them best fit decreasing.
    rng = random.Random(192)
    n, k = rng.randint(8, 12), rng.randint(3, 4)
    inst = parse_instance_document(generate_instance(n, k, 2, 0.3, (1, 3), 1.05, 192))
    alloc, psi, certified = solve_stage(inst, 1, exact=False)
    assert check_allocation_feasible(alloc, inst.stage(1), inst).feasible
    assert psi == evaluate_objective(alloc, inst.stage(1)).value and not certified
    assert psi >= exact_solve(inst.stage(1), inst)[1]


def test_heuristic_solves_a_tight_stage_that_spreading_could_not_start():
    # Spreading placed file 25 (4 tracks) after smaller files had filled
    # every disk; taking the largest files first leaves room.
    inst = parse_instance_document(generate_instance(28, 6, 1, 0.17, (1, 4), 1.1, 54))
    alloc, psi, certified = solve_stage(inst, 1, exact=False)
    assert check_allocation_feasible(alloc, inst.stage(1), inst).feasible
    assert psi == 0.0 and not certified


# --- one-stop solve ------------------------------------------------------


def test_solve_stage_exact_by_default(instance):
    alloc, psi, certified = solve_stage(instance, 2)
    assert certified and psi == 0.0
    assert dict(alloc.assignment) == ref.X2


def test_solve_stage_falls_back_past_cap(instance):
    alloc, psi, certified = solve_stage(instance, 2, cap=3)
    assert not certified
    assert psi == 0.0
    assert dict(alloc.assignment) == ref.X2  # heuristic also lands on it


def test_solve_stage_forced_heuristic(instance):
    alloc, psi, certified = solve_stage(instance, 1, exact=False)
    assert not certified
    assert dict(alloc.assignment) == ref.X1


def test_solve_stage_forced_exact_respects_cap(instance):
    with pytest.raises(EnumerationCapError):
        solve_stage(instance, 1, exact=True, cap=3)


def test_node_budget_counts_every_node_entered(monkeypatch):
    import diskalloc.allocator as mod

    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1)),
            disks=(DiskSpec(1, 5),),
            stages=(Stage(index=1, active_files=(1, 2)),),
        )
    )
    # The root, file 1 placed, and the leaf with both files placed.
    monkeypatch.setattr(mod, "_NODE_BUDGET", 3)
    assert exact_solve(inst.stage(1), inst) == (Allocation({1: 1, 2: 1}), 0.0)
    monkeypatch.setattr(mod, "_NODE_BUDGET", 2)
    with pytest.raises(EnumerationCapError, match="budget of 2 nodes"):
        exact_solve(inst.stage(1), inst)


def test_node_budget_refusal_falls_back_unless_exact_is_forced(instance, monkeypatch):
    import diskalloc.allocator as mod

    monkeypatch.setattr(mod, "_NODE_BUDGET", 5)
    with pytest.raises(EnumerationCapError, match="greedy"):
        solve_stage(instance, 2, exact=True)
    alloc, psi, certified = solve_stage(instance, 2)
    assert not certified and psi == 0.0
    assert dict(alloc.assignment) == ref.X2


def test_no_package_function_calls_itself():
    # Searches run as loops, so their depth is not bounded by the recursion
    # limit.
    import ast
    import pathlib

    import diskalloc

    for path in sorted(pathlib.Path(diskalloc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func  # a plain name, or a method called on self
                if isinstance(callee, ast.Attribute) and getattr(callee.value, "id", "") == "self":
                    callee = ast.Name(callee.attr)
                assert getattr(callee, "id", None) != fn.name, f"{path.name}: {fn.name} calls itself"


# --- determinism under disk relabeling -----------------------------------


def relabeled_document(mapping):
    import json

    from diskalloc import paper_example_path

    doc = json.loads(paper_example_path().read_text())
    doc["disks"] = [
        {"id": mapping[d["id"]], "capacity": d["capacity"]} for d in doc["disks"]
    ]
    return doc


def test_spread_is_equivariant_under_monotone_disk_relabeling(instance):
    mapping = {1: 10, 2: 20, 3: 30}
    inst2 = parse_instance_document(relabeled_document(mapping))
    for index in (1, 2, 3):
        base = spread_allocate(
            communities_for(instance, index), instance, instance.stage(index)
        )
        relabeled = spread_allocate(
            communities_for(inst2, index), inst2, inst2.stage(index)
        )
        assert {f: mapping[d] for f, d in base.assignment.items()} == dict(
            relabeled.assignment
        )


def test_exact_is_equivariant_under_monotone_disk_relabeling(instance):
    mapping = {1: 2, 2: 5, 3: 9}
    inst2 = parse_instance_document(relabeled_document(mapping))
    for index in (1, 2, 3):
        base, psi_a = exact_solve(instance.stage(index), instance)
        relabeled, psi_b = exact_solve(inst2.stage(index), inst2)
        assert psi_a == psi_b
        assert {f: mapping[d] for f, d in base.assignment.items()} == dict(
            relabeled.assignment
        )


def test_scrambled_disk_entry_order_changes_nothing(instance):
    import json

    from diskalloc import paper_example_path

    doc = json.loads(paper_example_path().read_text())
    doc["disks"] = [doc["disks"][2], doc["disks"][0], doc["disks"][1]]
    inst2 = parse_instance_document(doc)
    assert inst2 == instance
    for index in (1, 2, 3):
        a, _ = exact_solve(instance.stage(index), instance)
        b, _ = exact_solve(inst2.stage(index), inst2)
        assert a == b
