"""Relocation plans, budgeted restructuring, and trajectory planning."""

import dataclasses
import random

import pytest

from diskalloc import (
    Allocation,
    CostModel,
    DiskSpec,
    EnumerationCapError,
    FileSpec,
    InfeasibleError,
    Instance,
    RestructureMode,
    RestructureResult,
    RestructuringProblem,
    Stage,
    TrajectoryStrategy,
    ValidationError,
    apply_plan,
    evaluate_objective,
    paper_replay_trajectories,
    parse_instance_document,
    plan_trajectory,
    relocation_diff,
    restructure_one_stage,
    solve_stage,
    spread_allocate,
    validate_instance,
)
from diskalloc.generator import generate_instance
from diskalloc.allocator import (
    EXACT_CAP_DEFAULT,
    PairWeights,
    _branch_and_bound,
    _held,
    _optimum,
    _Placement,
    _solve_stage,
    exact_solve,
    local_search,
)

import reference_data as ref
from naive import naive_restructure, naive_restructure_decimal


def problem(instance, index, previous, budget, **kw):
    return RestructuringProblem(
        instance=instance,
        stage=instance.stage(index),
        previous=Allocation(previous),
        budget=budget,
        **kw,
    )


# --- relocation diff -----------------------------------------------------


def test_diff_of_identical_allocations_is_empty():
    plan = relocation_diff(Allocation(ref.X1), Allocation(ref.X1))
    assert plan.moves == () and plan.total_cost == 0.0


@pytest.mark.parametrize(
    "src, dst, files, cost",
    [
        (ref.X1, ref.X2, [1, 2, 3, 4, 5, 6, 7, 8][1:], 7.0),
        (ref.X1, ref.X2_AFTER_RECORDED_MOVES, [1, 4, 5], 3.0),
        (ref.X2, ref.X3, [1, 3, 4, 5], 4.0),
        (ref.X2_STAR, ref.X3_STAR, [2, 3], 2.0),
    ],
)
def test_diff_counts_files_whose_disk_changed(src, dst, files, cost):
    plan = relocation_diff(Allocation(src), Allocation(dst))
    assert [m.file for m in plan.moves] == files
    assert plan.total_cost == cost
    assert all(m.src == src[m.file] and m.dst == dst[m.file] for m in plan.moves)


def test_diff_scales_with_unit_cost():
    plan = relocation_diff(Allocation(ref.X2_STAR), Allocation(ref.X3_STAR), unit_cost=0.5)
    assert plan.total_cost == 1.0


def test_diff_rejects_mismatched_file_sets():
    with pytest.raises(ValidationError, match="different file sets"):
        relocation_diff(Allocation({1: 1, 2: 1}), Allocation({1: 1, 3: 1}))


def test_diff_then_apply_reproduces_target(instance):
    plan = relocation_diff(Allocation(ref.X1), Allocation(ref.X2))
    assert dict(apply_plan(Allocation(ref.X1), plan).assignment) == ref.X2


# --- single-stage restructuring ------------------------------------------


def test_exact_restructure_swaps_the_cheapest_pair(instance):
    result = restructure_one_stage(problem(instance, 2, ref.X1, 2.0))
    assert dict(result.allocation.assignment) == ref.RESTRUCTURE_EXACT_BUDGET2
    assert result.objective == 0.0
    assert result.reference == 0.0
    assert result.proximity == 0.0
    assert result.certified
    assert [m.file for m in result.plan.moves] == [4, 8]
    assert result.plan.total_cost == 2.0


def test_greedy_restructure_takes_best_improvement_first(instance):
    result = restructure_one_stage(
        problem(instance, 2, ref.X1, 2.0), RestructureMode.GREEDY
    )
    assert dict(result.allocation.assignment) == ref.RESTRUCTURE_GREEDY_BUDGET2
    assert result.objective == 0.0
    assert result.proximity == 0.0
    assert [m.file for m in result.plan.moves] == [1, 8]


def test_zero_budget_keeps_the_previous_allocation(instance):
    result = restructure_one_stage(problem(instance, 2, ref.X1, 0.0))
    assert dict(result.allocation.assignment) == ref.X1
    assert result.plan.moves == ()
    assert result.objective == 1.0
    assert result.proximity == 1.0


@pytest.mark.parametrize("budget", [0.0, 1.0, 2.0])
def test_frozen_proximity_by_budget(instance, budget):
    result = restructure_one_stage(problem(instance, 2, ref.X1, budget))
    assert result.proximity == ref.RHO_BY_BUDGET_STAGE2[budget]
    assert result.plan.total_cost <= budget


def test_proximity_never_increases_with_budget(instance):
    rhos = [
        restructure_one_stage(problem(instance, 2, ref.X1, b)).proximity
        for b in (0.0, 1.0, 2.0, 3.0, 4.0)
    ]
    assert rhos == sorted(rhos, reverse=True)
    assert rhos[-1] == 0.0


def test_fractional_budget_floors_to_whole_moves(instance):
    low = restructure_one_stage(problem(instance, 2, ref.X1, 0.9))
    assert dict(low.allocation.assignment) == ref.X1
    enough = restructure_one_stage(problem(instance, 2, ref.X1, 2.5))
    assert dict(enough.allocation.assignment) == ref.RESTRUCTURE_EXACT_BUDGET2
    assert enough.plan.total_cost == 2.0


@pytest.mark.parametrize("mode", list(RestructureMode))
def test_a_budget_just_short_of_whole_moves_buys_them(instance, mode):
    # At 10.0 a move, 19.999999995 buys two moves within the allowance's
    # tolerance; the plan, priced 20.0, is checked in those two moves.
    costly = dataclasses.replace(instance, relocation_unit_cost=10.0)
    first, _, _ = solve_stage(costly, 1)
    result = restructure_one_stage(problem(costly, 2, first.assignment, 19.999999995), mode)
    assert len(result.plan.moves) == 2
    assert result.plan.total_cost == 20.0


def test_exact_restructure_matches_brute_force_on_bundled(instance):
    stage = instance.stage(2)
    for budget in (0.0, 1.0, 2.0, 3.0):
        result = restructure_one_stage(problem(instance, 2, ref.X1, budget))
        assignment, psi, moves = naive_restructure(
            stage, instance, Allocation(ref.X1), budget
        )
        assert result.objective == psi
        assert len(result.plan.moves) == moves
        assert dict(result.allocation.assignment) == assignment


@pytest.mark.parametrize("seed", range(12))
def test_exact_restructure_matches_brute_force_on_random_instances(seed):
    # The wide instances (4-5 disks, slack 1.6-2.0) leave empty disks that
    # are no file's home, where the search's symmetry prune applies.
    for gamma, slack in (
        (2 + seed % 2, 1.2 + 0.2 * (seed % 3)),
        (4 + seed % 2, 1.6 + 0.2 * (seed % 3)),
    ):
        doc = generate_instance(
            n_files=4 + seed % 3,
            gamma=gamma,
            n_stages=2,
            edge_density=0.2 + 0.1 * (seed % 5),
            size_range=(1, 1),
            capacity_slack=slack,
            seed=100 + seed,
        )
        inst = parse_instance_document(doc)
        previous, _ = exact_solve(inst.stage(1), inst)
        stage = inst.stage(2)
        for budget in (0.0, 1.0, 2.0):
            result = restructure_one_stage(
                RestructuringProblem(
                    instance=inst, stage=stage, previous=previous, budget=budget
                )
            )
            brute = naive_restructure(stage, inst, previous, budget)
            assert brute is not None
            assignment, psi, moves = brute
            assert result.objective == psi
            assert len(result.plan.moves) == moves
            assert dict(result.allocation.assignment) == assignment
            assert result.plan.total_cost <= budget + 1e-9


def test_fractional_phi_ties_with_a_certified_optimum_do_not_raise():
    # A placement tied with the certified optimum sums other fractional
    # weights, so it can differ from the optimum in the last bits; that
    # must read as a tie, not as beating it.
    for seed in range(100):
        doc = generate_instance(7, 3, 2, 0.4, (1, 2), 1.4, seed)
        rng = random.Random(seed)
        for raw in doc["stages"]:
            raw["phi"] = [
                [0.0 if i == j else round(rng.uniform(0, 0.3), 3) for j in range(7)]
                for i in range(7)
            ]
        inst = parse_instance_document(doc)
        previous, _ = exact_solve(inst.stage(1), inst)
        for budget in (0.0, 1.0, 2.0, 7.0):
            result = restructure_one_stage(
                RestructuringProblem(
                    instance=inst, stage=inst.stage(2), previous=previous, budget=budget
                )
            )
            assert result.certified
            assert 0.0 <= result.proximity
            if budget == 7.0:  # every file may move: an optimum is reachable
                assert result.proximity <= 1e-9


def test_exact_restructuring_at_the_certified_optimum_reports_rho_exactly_zero():
    # Exact restructuring and its reference solve add the same fractional
    # weights along the same search path, so one placement reads as one
    # float in both.
    shared = 0
    for seed in range(40):
        n = 7 + seed % 4
        doc = generate_instance(n, 3, 2, 0.4, (1, 2), 1.4, seed)
        rng = random.Random(seed)
        for raw in doc["stages"]:
            raw["phi"] = [
                [0.0 if i == j else round(rng.uniform(0, 0.3), 3) for j in range(n)]
                for i in range(n)
            ]
        inst = parse_instance_document(doc)
        previous, _ = exact_solve(inst.stage(1), inst)
        stage = inst.stage(2)
        result = restructure_one_stage(RestructuringProblem(inst, stage, previous, n))
        optimum, _ = exact_solve(stage, inst)
        if dict(result.allocation.assignment) == dict(optimum.assignment):
            shared += 1
            assert result.certified
            assert result.proximity == 0.0, seed
    assert shared >= 20


def _entering_and_leaving_case(seed, fractional):
    """Two stages of 8-11 active files each: two files of stage 1 sit out
    stage 2, and two files of stage 2 are new to it."""
    rng = random.Random(seed)
    n = 10 + seed % 4
    doc = generate_instance(n, 3, 2, 0.4, (1, 2), 1.5, 400 + seed)
    files = list(range(1, n + 1))
    entering = set(rng.sample(files, 2))
    leaving = set(rng.sample(sorted(set(files) - entering), 2))
    for raw, out in zip(doc["stages"], (entering, leaving)):
        active = [f for f in files if f not in out]
        raw["active_files"] = active
        for key in ("precedence", "concurrency"):
            raw[key] = [pair for pair in raw[key] if out.isdisjoint(pair)]
        if fractional:
            raw["phi"] = [
                [0.0 if a == b else round(rng.uniform(0, 0.3), 3) for b in active]
                for a in active
            ]
    return parse_instance_document(doc)


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "fractional"])
@pytest.mark.parametrize("mode", list(RestructureMode))
def test_restructured_objective_matches_its_placement_with_files_entering_and_leaving(
    mode, fractional
):
    for seed in range(15):
        inst = _entering_and_leaving_case(seed, fractional)
        previous, _ = exact_solve(inst.stage(1), inst)
        stage = inst.stage(2)
        for budget in (1.0, 2.0, float(len(stage.active_files))):
            result = restructure_one_stage(
                RestructuringProblem(inst, stage, previous, budget), mode
            )
            value = evaluate_objective(result.allocation, stage).value
            assert result.objective == pytest.approx(value, rel=1e-9, abs=1e-12), (seed, budget)


@pytest.mark.parametrize("seed", range(12))
def test_exact_restructure_matches_decimal_brute_force_on_fractional_phi(seed):
    # Objectives equal in decimal can differ in the last bits as floats, so
    # only an exact oracle checks that near-ties go to fewer moves and then
    # to the lexicographically least placement.
    n = 5 + seed % 3
    doc = generate_instance(n, 3, 2, 0.4, (1, 2), 1.4, 300 + seed)
    rng = random.Random(seed)
    for raw in doc["stages"]:
        raw["phi"] = [
            [0.0 if i == j else round(rng.uniform(0, 0.3), 3) for j in range(n)]
            for i in range(n)
        ]
    inst = parse_instance_document(doc)
    previous, _ = exact_solve(inst.stage(1), inst)
    stage = inst.stage(2)
    for budget in range(n + 1):
        result = restructure_one_stage(
            RestructuringProblem(instance=inst, stage=stage, previous=previous, budget=budget)
        )
        assignment, psi, moves = naive_restructure_decimal(stage, inst, previous, budget)
        assert result.objective == pytest.approx(float(psi), abs=1e-9)
        assert len(result.plan.moves) == moves
        assert dict(result.allocation.assignment) == assignment


def _new_and_pinned_case(seed, fractional):
    """(instance, previous) of 5-7 files on 2-4 disks: 1-2 files active in
    stage 2 are missing from ``previous``, so they have no home, and 1-2
    files of ``previous`` are inactive in stage 2, so they are pinned."""
    rng = random.Random(seed)
    n = 5 + seed % 3
    doc = generate_instance(
        n, 2 + seed % 3, 2, 0.5, (1, 2), rng.uniform(1.2, 1.6), 700 + seed
    )
    files = list(range(1, n + 1))
    leaving = set(rng.sample(files, rng.randint(1, 2)))
    raw = doc["stages"][1]
    active = [f for f in files if f not in leaving]
    raw["active_files"] = active
    for key in ("precedence", "concurrency"):
        raw[key] = [pair for pair in raw[key] if leaving.isdisjoint(pair)]
    if fractional:
        raw["phi"] = [
            [0.0 if a == b else rng.randint(0, 300) / 1000 for b in active] for a in active
        ]
    inst = parse_instance_document(doc)
    first, _ = exact_solve(inst.stage(1), inst)
    entering = set(rng.sample(active, rng.randint(1, 2)))
    previous = {f: d for f, d in first.assignment.items() if f not in entering}
    return inst, Allocation(previous)


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "dense"])
@pytest.mark.parametrize("seed", range(12))
def test_exact_restructure_matches_brute_force_with_new_and_pinned_files(seed, fractional):
    # New files count toward no allowance and pinned ones hold their disks,
    # so a bound on the moves left must price both correctly.
    inst, previous = _new_and_pinned_case(seed, fractional)
    stage = inst.stage(2)
    oracle = naive_restructure_decimal if fractional else naive_restructure
    for budget in range(len(stage.active_files) + 1):
        result = restructure_one_stage(RestructuringProblem(inst, stage, previous, budget))
        assignment, psi, moves = oracle(stage, inst, previous, budget)
        assert result.objective == pytest.approx(float(psi), abs=1e-9), budget
        assert len(result.plan.moves) == moves, budget
        assert dict(result.allocation.assignment) == assignment, budget


def test_greedy_restructuring_places_new_files_where_exact_mode_does():
    # Files 1, 3, 7, 9 and 10 are new to stage 2. Spread in id order, each
    # to the disk with the most room, they left file 10 (3 tracks) no disk
    # that fits it; placed largest first, they all fit.
    inst = parse_instance_document(generate_instance(11, 4, 2, 0.3, (1, 3), 1.2, 255))
    previous = {2: 4, 4: 2, 5: 4, 6: 3, 8: 1, 11: 2}
    for budget, objective in ((1.0, 1.0), (3.0, 0.0)):
        for mode in RestructureMode:
            result = restructure_one_stage(problem(inst, 2, previous, budget, reference=0.0), mode)
            assert result.objective == objective, (mode, budget)


def _dropped_case(seed, slack, inactive=False, dense=False):
    """(instance, previous): 8-12 files on 3-4 disks in two stages, and
    the heuristic stage-1 allocation with each file dropped at chance 0.4,
    so that the dropped files are new to stage 2. With ``inactive``, 1-3
    files leave stage 2 with their pairs; with ``dense``, stage 2 weighs
    every pair by 3-decimal ``phi``."""
    rng = random.Random(seed)
    n, k = rng.randint(8, 12), rng.randint(3, 4)
    doc = generate_instance(n, k, 2, 0.3, (1, 3), slack, seed)
    raw, active = doc["stages"][1], list(range(1, n + 1))
    if inactive:
        leaving = set(rng.sample(active, rng.randint(1, 3)))
        raw["active_files"] = active = [f for f in active if f not in leaving]
        for key in ("precedence", "concurrency"):
            raw[key] = [pair for pair in raw[key] if leaving.isdisjoint(pair)]
    if dense:
        raw["phi"] = [[0.0 if a == b else rng.randint(0, 999) / 1000 for b in active] for a in active]
    inst = parse_instance_document(doc)
    first = solve_stage(inst, 1, exact=False)[0].assignment
    return inst, {f: first[f] for f in sorted(first) if rng.random() >= 0.4}


def test_greedy_restructuring_places_new_files_wherever_exact_mode_can():
    # Spreading the new files refused 12 of these 300 (seed, budget) pairs,
    # the first at seed 4.
    refused = []
    for seed in range(100):
        inst, previous = _dropped_case(seed, 1.2)
        for budget in (0.0, 1.0, 2.0):
            solved = []
            for mode in (RestructureMode.EXACT, RestructureMode.GREEDY):
                try:
                    restructure_one_stage(problem(inst, 2, previous, budget, reference=0.0), mode)
                    solved.append(mode)
                except InfeasibleError:
                    pass
            if solved == [RestructureMode.EXACT]:
                refused.append((seed, budget))
    assert refused == []


@pytest.mark.parametrize("seed", [73, 493, 1077])
def test_greedy_restructuring_places_new_files_on_a_tight_stage(seed):
    # At slack 1.05, seeds 0-1499 left greedy refusing 9 of the 4,473
    # (seed, budget) pairs that exact mode solves: these three seeds, at
    # every budget. Least connection left a new file no disk; best fit
    # decreasing, the seed's fallback, places them all. First fit
    # decreasing would still miss seed 73.
    inst, previous = _dropped_case(seed, 1.05)
    for budget in (0.0, 1.0, 2.0):
        exact = restructure_one_stage(problem(inst, 2, previous, budget, reference=0.0))
        greedy = restructure_one_stage(
            problem(inst, 2, previous, budget, reference=0.0), RestructureMode.GREEDY
        )
        assert exact.objective <= greedy.objective, budget


@pytest.mark.parametrize("seed, objective", [(249, 1.0), (349, 2.0), (1193, 2.0)])
def test_the_heuristic_packs_a_tight_stage_that_best_fit_decreasing_misses(seed, objective):
    # Least connection, then best fit decreasing, left a file of stage 1
    # no disk ("file N (2 tracks) fits on no disk"); the branch-and-bound,
    # as a pure packing search, places them all, and local search descends
    # from there.
    rng = random.Random(seed)
    n, k = rng.randint(8, 12), rng.randint(3, 4)
    inst = parse_instance_document(generate_instance(n, k, 2, 0.3, (1, 3), 1.05, seed))
    assert solve_stage(inst, 1, exact=False)[1:] == (objective, False)
    assert solve_stage(inst, 1, exact=True)[1:] == (1.0, True)


def _exact_searches(inst, previous, budget):
    """(search, greedy): the branch-and-bound of exact restructuring of
    stage 2 from ``previous`` at ``budget`` moves, as a function of its
    incumbent, and greedy restructuring's placement after its descent, or
    None where greedy cannot seed the stage."""
    stage = inst.stage(2)
    fixed, _ = _held(stage, Allocation(previous), inst)
    base = {f: d for f, d in previous.items() if f in stage.active_set}
    weights, m = PairWeights(stage), min(budget, len(base))

    def search(incumbent=None):
        return _branch_and_bound(stage.active_files, fixed, inst, weights, base, m, incumbent)

    try:
        greedy = _Placement({**fixed, **base}, stage.active_files, inst, weights, base, m)
    except InfeasibleError:
        return search, None
    greedy.steepest_descent()
    return search, greedy


INCUMBENT_CASES = [(1.05, False, False), (1.2, False, False), (1.2, True, False), (1.2, False, True)]


def test_greedys_incumbent_changes_no_exact_result():
    # New files at slack 1.05 and 1.2, files inactive in stage 2, and dense
    # 3-decimal phi, at budgets 0, 1, 2 and every file.
    compared = 0
    for seed in range(100):
        inst, previous = _dropped_case(seed, *INCUMBENT_CASES[seed % 4])
        for budget in (0, 1, 2, len(previous)):
            search, greedy = _exact_searches(inst, previous, budget)
            if greedy is not None:
                assert search(greedy) == search(), (seed, budget)
                compared += 1
    assert compared >= 300


def test_greedys_incumbent_solves_where_the_bare_search_passes_its_node_budget(monkeypatch):
    # At budget 4 the search enters 657 nodes alone and 245 from greedy's
    # objective, with the same result.
    import diskalloc.allocator as mod

    inst = parse_instance_document(generate_instance(12, 3, 2, 0.3, (1, 3), 1.3, 2))
    previous = solve_stage(inst, 1, exact=False)[0].assignment
    want = restructure_one_stage(problem(inst, 2, previous, 4.0, reference=0.0))
    search, _ = _exact_searches(inst, previous, 4)
    monkeypatch.setattr(mod, "_NODE_BUDGET", 450)
    with pytest.raises(EnumerationCapError):
        search()
    assert restructure_one_stage(problem(inst, 2, previous, 4.0, reference=0.0)) == want


def _reference_case(seed):
    """(instance, pinned): one stage of 6-11 files on 2-4 disks, uniform or
    with dense 3-decimal ``phi``, and about a third of its files pinned
    where the heuristic put them."""
    rng = random.Random(seed)
    n, k = rng.randint(6, 11), rng.randint(2, 4)
    doc = generate_instance(n, k, 1, 0.3, (1, 3), rng.choice((1.05, 1.2, 1.5)), seed)
    if seed % 2:
        doc["stages"][0]["phi"] = [
            [0.0 if a == b else rng.randint(0, 999) / 1000 for b in range(n)] for a in range(n)
        ]
    inst = parse_instance_document(doc)
    first = solve_stage(inst, 1, exact=False)[0].assignment
    return inst, {f: d for f, d in first.items() if rng.random() < 0.3}


def test_the_reference_is_exact_solves_value():
    for seed in range(300):
        inst, pinned = _reference_case(seed)
        stage = inst.stage(1)
        _, psi = exact_solve(stage, inst, pinned=pinned)
        assert _optimum(stage, inst, pinned, EXACT_CAP_DEFAULT) == (psi, True), seed


def test_the_reference_past_the_cap_or_the_node_budget_is_the_heuristics(monkeypatch):
    import diskalloc.allocator as mod

    cases = [_reference_case(seed) for seed in range(60)]
    heuristic = [
        _solve_stage(inst.stage(1), inst, pinned, EXACT_CAP_DEFAULT, False)[1] for inst, pinned in cases
    ]
    for (inst, pinned), psi in zip(cases, heuristic):
        free = len(inst.stage(1).active_files) - len(pinned)
        assert _optimum(inst.stage(1), inst, pinned, free - 1) == (psi, False)
    monkeypatch.setattr(mod, "_NODE_BUDGET", 1)
    for (inst, pinned), psi in zip(cases, heuristic):
        assert _optimum(inst.stage(1), inst, pinned, EXACT_CAP_DEFAULT) == (psi, False)


def test_the_reference_raises_exact_solves_error_when_nothing_fits():
    # Three 2-track files on two 3-track disks fit in total tracks only.
    inst = Instance(
        files=tuple(FileSpec(f, 2) for f in (1, 2, 3)),
        disks=(DiskSpec(1, 3), DiskSpec(2, 3)),
        stages=(Stage(1, (1, 2, 3)),),
    )
    with pytest.raises(InfeasibleError) as want:
        exact_solve(inst.stage(1), inst)
    with pytest.raises(InfeasibleError, match=f"^{want.value}$"):
        _optimum(inst.stage(1), inst, {}, EXACT_CAP_DEFAULT)


def test_exact_restructuring_bounds_the_moves_left(monkeypatch):
    # Priced as if every file could still move, the search enters 189,511
    # nodes at budget 2; with the bound on the moves left it enters 1,613.
    import diskalloc.allocator as mod

    monkeypatch.setattr(mod, "_NODE_BUDGET", 20_000)
    inst = parse_instance_document(generate_instance(60, 4, 2, 0.05, (1, 1), 2.0, 1))
    previous = {f: f % 4 + 1 for f in inst.stage(2).active_files}
    for budget, objective, moves in (
        (1.0, 34.0, [(25, 2, 3)]),
        (2.0, 31.0, [(25, 2, 3), (26, 3, 2)]),
    ):
        result = restructure_one_stage(problem(inst, 2, previous, budget, reference=0.0))
        assert result.objective == objective
        assert [(m.file, m.src, m.dst) for m in result.plan.moves] == moves


# Node budgets for exact restructuring of 12-file dense-``phi`` stages, by
# (seed, budget): one below the nodes the search enters when it raises a
# child's ``low`` entries before it tests the child's floor. Tested before
# that update, a child that the floor cuts is no node: the search enters
# 271 and 1,602 nodes for seed 0, 200 and 1,073 for seed 1, 168 and 1,084
# for seed 2, and 159 and 850 for seed 3.
RESTRUCTURE_NODE_BUDGETS = {
    (0, 2): 288, (0, 4): 1862, (1, 2): 210, (1, 4): 1377,
    (2, 2): 181, (2, 4): 1285, (3, 2): 168, (3, 4): 1019,
}


@pytest.mark.parametrize("seed, budget", sorted(RESTRUCTURE_NODE_BUDGETS))
def test_exact_restructuring_cuts_children_before_their_table_update(seed, budget, monkeypatch):
    import diskalloc.allocator as mod

    rng = random.Random(seed)
    doc = generate_instance(12, 3, 2, 0.3, (1, 2), 1.3, seed)
    for raw in doc["stages"]:
        active = raw["active_files"]
        raw["phi"] = [
            [0.0 if a == b else rng.randint(0, 300) / 1000 for b in active] for a in active
        ]
    inst = parse_instance_document(doc)
    first = solve_stage(inst, 1, exact=False)[0]
    want = restructure_one_stage(problem(inst, 2, first.assignment, float(budget), reference=0.0))
    monkeypatch.setattr(mod, "_NODE_BUDGET", RESTRUCTURE_NODE_BUDGETS[seed, budget])
    got = restructure_one_stage(problem(inst, 2, first.assignment, float(budget), reference=0.0))
    assert got == want


def _dense_phi_instance(seed):
    doc = generate_instance(6, 2, 2, 0.5, (1, 2), 1.5, seed)
    rng = random.Random(seed)
    for raw in doc["stages"]:
        raw["phi"] = [
            [0.0 if i == j else rng.choice([0.1, 0.2, 0.3]) for j in range(6)]
            for i in range(6)
        ]
    return parse_instance_document(doc)


@pytest.fixture
def strict_descent(monkeypatch):
    """Fail any descent that returns to a placement it already held.

    A descent that only takes real gains never revisits a placement; one
    that takes rounding noise for a gain can swap a pair back and forth
    forever, and this turns that loop into a failure."""
    apply = _Placement.apply

    def checked(self, step, moved):
        seen = self.__dict__.setdefault("seen", {tuple(sorted(self.assignment.items()))})
        apply(self, step, moved)
        now = tuple(sorted(self.assignment.items()))
        assert now not in seen, f"descent revisited {now}"
        seen.add(now)

    monkeypatch.setattr(_Placement, "apply", checked)


@pytest.mark.parametrize("descent", ["greedy", "local_search"])
def test_descents_ignore_rounding_gains_on_fractional_phi(strict_descent, descent):
    # Seed 1 is a stage on which greedy restructuring used to swap one pair
    # back and forth on deltas of -2.2e-16 and -4.4e-16 without end.
    for seed in range(8):
        inst = _dense_phi_instance(seed)
        previous, _ = exact_solve(inst.stage(1), inst)
        stage = inst.stage(2)
        if descent == "local_search":
            alloc, psi = local_search(previous, stage, inst)
            assert psi == pytest.approx(evaluate_objective(alloc, stage).value)
            continue
        result = restructure_one_stage(
            RestructuringProblem(instance=inst, stage=stage, previous=previous, budget=6.0),
            RestructureMode.GREEDY,
        )
        if seed == 1:
            assert result.objective == pytest.approx(2.1)
            assert result.proximity == 0.0
            assert len(result.plan.moves) == 2


@pytest.mark.parametrize("mode", list(RestructureMode))
def test_restructuring_a_certified_optimum_reads_zero_proximity_on_fractional_phi(mode):
    # 8-11-file stages with dense or 1-in-5 sparse 3-decimal phi,
    # restructured from their own certified optimum: nothing beats it, so
    # the objective ties the reference. Objectives summed in different
    # orders used to read a proximity of a few 1e-16 on such ties.
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(8, 11)
        doc = generate_instance(n, rng.choice((3, 4)), 1, 0.0, (1, 2), rng.uniform(1.1, 1.4), seed)
        sparsity = rng.choice([1, 5])
        doc["stages"][0]["phi"] = [
            [round(rng.uniform(0.0, 0.3), 3) if i != j and rng.randrange(sparsity) == 0 else 0.0
             for j in range(n)]
            for i in range(n)
        ]
        inst = parse_instance_document(doc)
        stage = inst.stage(1)
        optimum, _ = exact_solve(stage, inst)
        for budget in (1, 2, n):
            result = restructure_one_stage(
                RestructuringProblem(instance=inst, stage=stage, previous=optimum, budget=budget),
                mode,
            )
            assert result.certified
            assert result.objective == result.reference, (seed, budget)
            assert result.proximity == 0.0, (seed, budget)
            assert result.objective == evaluate_objective(result.allocation, stage).value


def test_capacity_variant_needs_only_one_move(instance):
    import json

    from diskalloc import paper_example_path

    doc = json.loads(paper_example_path().read_text())
    for entry in doc["disks"]:
        entry["capacity"] = 3
    inst = parse_instance_document(doc)
    result = restructure_one_stage(problem(inst, 2, ref.X1, 1.0))
    assert dict(result.allocation.assignment) == ref.RESTRUCTURE_333_BUDGET1
    assert [(m.file, m.src, m.dst) for m in result.plan.moves] == [(4, 1, 3)]
    assert result.proximity == 0.0


def test_free_relocations_unlock_every_file(instance):
    import json

    from diskalloc import paper_example_path

    doc = json.loads(paper_example_path().read_text())
    doc["relocation_unit_cost"] = 0.0
    inst = parse_instance_document(doc)
    result = restructure_one_stage(problem(inst, 2, ref.X1, 0.0))
    # free moves still minimize the move count before the tie-break
    assert dict(result.allocation.assignment) == ref.RESTRUCTURE_EXACT_BUDGET2
    assert result.plan.total_cost == 0.0
    assert result.objective == 0.0


@pytest.mark.parametrize("mode", list(RestructureMode))
def test_restructure_pins_files_inactive_in_the_stage(mode):
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1), FileSpec(4, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3), concurrency=frozenset({(2, 3)})),
                Stage(index=2, active_files=(1, 2, 4), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    previous = Allocation({1: 1, 2: 1, 3: 2})
    result = restructure_one_stage(problem(inst, 2, dict(previous.assignment), 0.0), mode)
    final = dict(result.allocation.assignment)
    assert final[3] == 2  # inactive, held in place
    assert final[4] == 2  # new file lands on the emptier disk, free of charge
    assert final[1] == 1 and final[2] == 1
    assert result.plan.moves == ()
    assert result.objective == 1.0
    assert result.reference == 0.0 and result.certified
    assert result.proximity == 1.0


def test_restructure_rejects_previous_that_overfills(instance):
    bad = {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 2, 8: 1}
    with pytest.raises(InfeasibleError, match="previous allocation infeasible"):
        restructure_one_stage(problem(instance, 2, bad, 2.0))


def test_restructure_rejects_previous_on_unknown_disk(instance):
    bad = {**ref.X1, 8: 9}
    with pytest.raises(ValidationError, match="unknown disk 9"):
        restructure_one_stage(problem(instance, 2, bad, 2.0))


@pytest.mark.parametrize(
    "previous, message",
    [
        ({1: 1, 2: 1, 3: 9}, "previous allocation puts file 3 on unknown disk 9"),
        ({1: 1, 2: 1, 3: 2, 4: 1}, "previous allocation names unknown file 4"),
    ],
    ids=["inactive-file-on-unknown-disk", "unknown-file"],
)
def test_restructure_rejects_previous_entries_beyond_the_stage(previous, message):
    # File 3 is inactive in stage 2 and file 4 does not exist; neither was
    # pinned by the caller.
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
    with pytest.raises(ValidationError) as caught:
        restructure_one_stage(problem(inst, 2, previous, 1.0))
    assert str(caught.value) == message


def test_restructure_rejects_inactive_files_that_overfill():
    # Files 3 and 4 are inactive in stage 2 and fill 3 tracks of disk 1,
    # which holds 2; the caller pinned nothing.
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 2), FileSpec(4, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 3)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3, 4)),
                Stage(index=2, active_files=(1, 2), concurrency=frozenset({(1, 2)})),
            ),
        )
    )
    previous = {1: 2, 2: 2, 3: 1, 4: 1}
    for mode in RestructureMode:
        with pytest.raises(InfeasibleError) as caught:
            restructure_one_stage(problem(inst, 2, previous, 1.0), mode)
        assert str(caught.value) == "previous allocation infeasible for stage"
    with pytest.raises(InfeasibleError) as caught:
        spread_allocate([], inst, inst.stage(2), Allocation(previous))
    assert str(caught.value) == "previous allocation infeasible for stage"


@pytest.mark.parametrize("reference", [None, 0.0], ids=["solved", "declared"])
def test_restructure_rejects_a_stage_file_the_instance_lacks(instance, reference):
    stage = Stage(index=2, active_files=(1, 2, 99))
    for mode in RestructureMode:
        restructuring = RestructuringProblem(
            instance=instance, stage=stage, previous=Allocation(ref.X1), budget=1.0,
            reference=reference,
        )
        with pytest.raises(ValidationError) as caught:
            restructure_one_stage(restructuring, mode)
        assert str(caught.value) == "stage 2: active file 99 does not exist"


def test_exact_restructure_fails_when_no_placement_fits_the_allowance():
    # New file 2 needs both tracks of disk 1, which only a move of file 1
    # frees, and the budget buys none. The declared reference skips the
    # reference solve, which would fail first.
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 2)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 1)),
            stages=(Stage(index=1, active_files=(1,)), Stage(index=2, active_files=(1, 2))),
        )
    )
    problem = RestructuringProblem(
        instance=inst, stage=inst.stage(2), previous=Allocation({1: 1}), budget=0, reference=0.0
    )
    with pytest.raises(InfeasibleError) as caught:
        restructure_one_stage(problem, RestructureMode.EXACT)
    assert str(caught.value) == "no placement within the move allowance fits the disks"


def test_restructure_rejects_negative_budget(instance):
    with pytest.raises(ValidationError, match="non-negative"):
        problem(instance, 2, ref.X1, -1.0)


@pytest.mark.parametrize("reference", [float("nan"), -5.0, float("inf")])
def test_restructure_rejects_a_declared_reference_no_allocation_can_have(instance, reference):
    with pytest.raises(ValidationError) as caught:
        problem(instance, 2, ref.X1, 2.0, reference=reference)
    assert str(caught.value) == "declared reference must be non-negative and finite"


def test_exact_mode_refuses_oversized_spaces(instance, monkeypatch):
    import diskalloc.allocator as mod

    monkeypatch.setattr(mod, "_NODE_BUDGET", 1)
    with pytest.raises(EnumerationCapError, match="greedy"):
        restructure_one_stage(problem(instance, 2, ref.X1, 2.0))
    result = restructure_one_stage(
        problem(instance, 2, ref.X1, 2.0), RestructureMode.GREEDY
    )
    assert result.objective == 0.0


def test_exact_restructuring_searches_deeper_than_the_recursion_limit():
    # Budget 0 pins 1100 searched files to their disks: one path of 1100
    # levels, more than Python's default recursion limit.
    inst = parse_instance_document(generate_instance(1100, 4, 2, 0.002, (1, 1), 2.0, 1))
    previous = {f: f % 4 + 1 for f in inst.stage(2).active_files}
    result = restructure_one_stage(problem(inst, 2, previous, 0.0, reference=0.0))
    assert dict(result.allocation.assignment) == previous
    assert result.plan.moves == ()


@pytest.mark.parametrize("mode", list(RestructureMode))
def test_budget_overflowing_the_allowance_unlocks_every_file(mode):
    import json

    from diskalloc import paper_example_path

    doc = json.loads(paper_example_path().read_text())
    results = []
    # 2.0 / 1e-320 overflows to inf; a free move is the same unlimited case.
    for unit in (1e-320, 0.0):
        doc["relocation_unit_cost"] = unit
        inst = parse_instance_document(doc)
        results.append(restructure_one_stage(problem(inst, 2, ref.X1, 2.0), mode))
    assert results[0].allocation == results[1].allocation
    assert results[0].plan.moves == results[1].plan.moves


def test_declared_reference_skips_enumeration(instance):
    result = restructure_one_stage(problem(instance, 2, ref.X1, 0.0, reference=0.0))
    assert result.reference == 0.0
    assert not result.certified
    assert result.proximity == 1.0


def test_beating_an_uncertified_reference_lowers_it(instance):
    result = restructure_one_stage(problem(instance, 2, ref.X1, 0.0, reference=5.0))
    assert result.reference == 1.0
    assert result.proximity == 0.0
    assert not result.certified


def restructuring_case(shape, fractional):
    """The generated instance of ``shape``, with dense 3-decimal ``phi`` on
    stage 2 if ``fractional``, and the solve of its stage 1."""
    doc = generate_instance(*shape)
    if fractional:
        n, rng = shape[0], random.Random(shape[-1])
        doc["stages"][1]["phi"] = [
            [0.0 if i == j else round(rng.uniform(0, 0.3), 3) for j in range(n)]
            for i in range(n)
        ]
    inst = parse_instance_document(doc)
    first, _, _ = solve_stage(inst, 1)
    return inst, first


@pytest.mark.parametrize(
    "mode, shape, fractional, expected",
    [
        # Past the cap the heuristic reference reuses the search's weights.
        (RestructureMode.GREEDY, (60, 4, 2, 0.1, (1, 2), 1.4, 3), False, [2]),
        # Below it the exact reference searches the search's weights too.
        (RestructureMode.EXACT, (10, 3, 2, 0.3, (1, 2), 1.4, 3), False, [2]),
        # Movement probabilities are weighed without the stage's pairs.
        (RestructureMode.GREEDY, (60, 4, 2, 0.1, (1, 2), 1.4, 3), True, []),
        (RestructureMode.EXACT, (10, 3, 2, 0.3, (1, 2), 1.4, 3), True, []),
    ],
    ids=["greedy", "exact", "greedy-phi", "exact-phi"],
)
def test_restructuring_integrates_the_stage_only_where_it_is_read(
    monkeypatch, mode, shape, fractional, expected
):
    import diskalloc.allocator
    import diskalloc.restructure
    from diskalloc.relations import _related_pairs

    inst, first = restructuring_case(shape, fractional)
    calls = []

    def counted(stage):
        calls.append(stage.index)
        return _related_pairs(stage)

    # Only the allocator's uniform weights read the stage's pairs:
    # restructuring takes the stage's weights from it.
    assert not hasattr(diskalloc.restructure, "integrate_relations")
    assert not hasattr(diskalloc.restructure, "_related_pairs")
    monkeypatch.setattr(diskalloc.allocator, "_related_pairs", counted)
    result = restructure_one_stage(problem(inst, 2, first.assignment, 2.0), mode)
    assert calls == expected
    assert result.certified is (mode is RestructureMode.EXACT)


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_greedy_restructuring_past_the_cap_builds_the_weights_once(monkeypatch, fractional):
    # The heuristic reference solve reuses the search's weights.
    import diskalloc.allocator

    inst, first = restructuring_case((60, 4, 2, 0.1, (1, 2), 1.4, 3), fractional)
    weights = diskalloc.allocator.PairWeights
    init, built = weights.__init__, []

    def counted(self, stage, *rest):
        built.append(stage.index)
        init(self, stage, *rest)

    monkeypatch.setattr(weights, "__init__", counted)
    result = restructure_one_stage(
        problem(inst, 2, first.assignment, 2.0), RestructureMode.GREEDY
    )
    assert built == [2]
    assert not result.certified


@pytest.mark.parametrize("fractional", [False, True], ids=["uniform", "phi"])
def test_greedy_restructuring_past_the_cap_builds_two_tables(monkeypatch, fractional):
    # One table for the heuristic reference solve, which its seed fills,
    # and one for the descent from the previous allocation.
    import diskalloc.allocator

    inst, first = restructuring_case((60, 4, 2, 0.1, (1, 2), 1.4, 3), fractional)
    tables, built = diskalloc.allocator._connection_tables, []

    def counted(*args):
        built.append(args)
        return tables(*args)

    monkeypatch.setattr(diskalloc.allocator, "_connection_tables", counted)
    result = restructure_one_stage(
        problem(inst, 2, first.assignment, 2.0), RestructureMode.GREEDY
    )
    assert len(built) == 2
    assert not result.certified


# --- trajectories --------------------------------------------------------


def test_independent_trajectory_solves_each_stage_fresh(instance):
    traj = plan_trajectory(instance, TrajectoryStrategy.INDEPENDENT_OPTIMAL)
    assert traj.strategy == "independent_optimal"
    assert traj.stage_indices == (1, 2, 3)
    assert [dict(a.assignment) for a in traj.allocations] == [
        ref.X1,
        ref.X2,
        ref.X3_SOLVER,
    ]
    assert traj.objectives == (0.0, 0.0, 0.0)
    assert traj.proximities == (0.0, 0.0, 0.0)
    assert traj.certified == (True, True, True)
    assert [p.total_cost for p in traj.plans] == [7.0, 4.0]
    assert traj.total_modification_cost == 11.0


def test_independent_plans_are_literal_differences(instance):
    traj = plan_trajectory(instance, TrajectoryStrategy.INDEPENDENT_OPTIMAL)
    for prev, plan, nxt in zip(traj.allocations, traj.plans, traj.allocations[1:]):
        assert dict(apply_plan(prev, plan).assignment) == dict(nxt.assignment)


def test_sequential_trajectory_stays_within_budgets(instance):
    traj = plan_trajectory(
        instance, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, budgets=(2.0, 2.0)
    )
    assert traj.strategy == "sequential_restructured"
    assert [dict(a.assignment) for a in traj.allocations] == [
        ref.X1,
        ref.RESTRUCTURE_EXACT_BUDGET2,
        ref.RESTRUCTURE_EXACT_BUDGET2,
    ]
    assert [len(p.moves) for p in traj.plans] == [2, 0]
    assert traj.total_modification_cost == 2.0
    assert traj.objectives == (0.0, 0.0, 0.0)
    assert traj.proximities == (0.0, 0.0, 0.0)
    assert traj.certified == (True, True, True)


def test_sequential_zero_budgets_never_move_anything(instance):
    traj = plan_trajectory(
        instance, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, budgets=(0.0, 0.0)
    )
    assert all(not p.moves for p in traj.plans)
    assert dict(traj.allocations[2].assignment) == ref.X1
    assert traj.total_modification_cost == 0.0
    assert traj.objectives[0] == 0.0
    assert traj.objectives[1] == 1.0


def test_sequential_trajectory_spends_budgets_just_short_of_whole_moves(instance):
    costly = dataclasses.replace(instance, relocation_unit_cost=10.0)
    traj = plan_trajectory(
        costly, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, budgets=(19.999999995, 19.999999995)
    )
    assert [len(p.moves) for p in traj.plans] == [2, 0]
    assert traj.total_modification_cost == 20.0


def test_sequential_trajectory_requires_one_budget_per_transition(instance):
    with pytest.raises(ValidationError, match="needs 2 budgets"):
        plan_trajectory(instance, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED)
    with pytest.raises(ValidationError, match="needs 2 budgets"):
        plan_trajectory(
            instance, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, budgets=(2.0,)
        )


def test_trajectories_handle_files_entering_and_leaving():
    inst = validate_instance(
        Instance(
            files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1), FileSpec(4, 1)),
            disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
            stages=(
                Stage(index=1, active_files=(1, 2, 3), concurrency=frozenset({(2, 3)})),
                Stage(index=2, active_files=(1, 2, 4), concurrency=frozenset({(1, 2)})),
                Stage(index=3, active_files=(1, 3, 4), concurrency=frozenset({(3, 4)})),
            ),
        )
    )
    seq = plan_trajectory(
        inst, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, budgets=(0.0, 2.0)
    )
    assert dict(seq.allocations[1].assignment) == {1: 1, 2: 1, 3: 2, 4: 2}
    assert seq.plans[0].moves == ()  # placing file 4 is not a relocation
    assert [(m.file, m.src, m.dst) for m in seq.plans[1].moves] == [(1, 1, 2), (3, 2, 1)]
    assert seq.objectives == (0.0, 1.0, 0.0)

    greedy = plan_trajectory(
        inst,
        TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED,
        budgets=(0.0, 2.0),
        mode=RestructureMode.GREEDY,
    )
    assert greedy.allocations == seq.allocations

    ind = plan_trajectory(inst, TrajectoryStrategy.INDEPENDENT_OPTIMAL)
    assert dict(ind.allocations[1].assignment) == {1: 1, 2: 2, 3: 2, 4: 1}
    assert [m.file for m in ind.plans[0].moves] == [2]
    assert ind.plans[0].total_cost == 1.0
    assert [m.file for m in ind.plans[1].moves] == [3, 4]
    assert ind.total_modification_cost == 3.0
    assert ind.objectives == (0.0, 0.0, 0.0)

    # File 3 sits out stage 2 and re-enters at stage 3: each allocation
    # covers every file placed before it, and file 3 holds its disk between.
    for traj in (seq, greedy, ind):
        for before, after in zip(traj.allocations, traj.allocations[1:]):
            assert set(before.assignment) <= set(after.assignment)
        assert traj.allocations[1].assignment[3] == traj.allocations[0].assignment[3]


# --- recorded replay -----------------------------------------------------


def test_replay_returns_both_recorded_chains(instance):
    opt, restr = paper_replay_trajectories(instance)
    assert [dict(a.assignment) for a in opt.allocations] == [ref.X1, ref.X2, ref.X3]
    assert [p.total_cost for p in opt.plans] == [3.0, 4.0]
    assert opt.total_modification_cost == 7.0
    assert opt.objectives == (0.0, 0.0, 0.0)
    assert opt.proximities == (0.0, 0.0, 0.0)
    assert opt.certified == (True, True, True)

    assert [dict(a.assignment) for a in restr.allocations] == [
        ref.X1,
        ref.X2_STAR,
        ref.X3_STAR,
    ]
    assert [p.total_cost for p in restr.plans] == [2.0, 2.0]
    assert restr.total_modification_cost == 4.0
    assert restr.objectives == (0.0, 1.0, 1.0)
    assert restr.proximities == (0.0, 1.0, 1.0)


def test_replay_restructured_chain_is_move_consistent(instance):
    _, restr = paper_replay_trajectories(instance)
    state = restr.allocations[0]
    for plan, target in zip(restr.plans, restr.allocations[1:]):
        state = apply_plan(state, plan)
        assert dict(state.assignment) == dict(target.assignment)


def test_replay_stage_optimal_second_transition_is_move_consistent(instance):
    opt, _ = paper_replay_trajectories(instance)
    after = apply_plan(opt.allocations[1], opt.plans[1])
    assert dict(after.assignment) == ref.X3


def test_replay_first_recorded_move_list_reaches_a_relabeled_target(instance):
    # The recorded three moves do not produce the recorded second
    # allocation; they produce a variant of it with the disk labels
    # rotated. The plan is carried verbatim, so the mismatch is visible.
    opt, _ = paper_replay_trajectories(instance)
    after = apply_plan(opt.allocations[0], opt.plans[0])
    assert dict(after.assignment) == ref.X2_AFTER_RECORDED_MOVES
    assert dict(after.assignment) != ref.X2
    for stage_index in (2,):
        stage = instance.stage(stage_index)
        assert evaluate_objective(after, stage).value == evaluate_objective(
            Allocation(ref.X2), stage
        ).value


def test_plan_trajectory_replay_returns_the_restructured_chain(instance):
    traj = plan_trajectory(instance, TrajectoryStrategy.PAPER_REPLAY)
    assert traj.total_modification_cost == 4.0
    assert [dict(a.assignment) for a in traj.allocations] == [
        ref.X1,
        ref.X2_STAR,
        ref.X3_STAR,
    ]


def test_replay_refuses_other_instances():
    doc = generate_instance(
        n_files=8,
        gamma=3,
        n_stages=3,
        edge_density=0.3,
        size_range=(1, 1),
        capacity_slack=1.3,
        seed=7,
    )
    inst = parse_instance_document(doc)
    with pytest.raises(ValidationError, match="bundled example"):
        paper_replay_trajectories(inst)


def test_restructure_result_is_immutable(instance):
    result = restructure_one_stage(problem(instance, 2, ref.X1, 2.0))
    assert isinstance(result, RestructureResult)
    with pytest.raises(AttributeError):
        result.objective = 5.0


# --- ordered-distance instances ------------------------------------------


def _restructure(mode, reference):
    return lambda inst: restructure_one_stage(
        problem(inst, 2, ref.X1, 2.0, reference=reference), mode
    )


@pytest.mark.parametrize(
    "solver",
    [
        lambda inst: solve_stage(inst, 1),
        lambda inst: solve_stage(inst, 1, exact=True),
        lambda inst: solve_stage(inst, 1, exact=False),
        lambda inst: exact_solve(inst.stage(1), inst),
        lambda inst: local_search(Allocation(ref.X1), inst.stage(1), inst),
        _restructure(RestructureMode.EXACT, None),
        _restructure(RestructureMode.EXACT, 0.0),
        _restructure(RestructureMode.GREEDY, None),
        _restructure(RestructureMode.GREEDY, 0.0),
        lambda inst: plan_trajectory(inst, TrajectoryStrategy.INDEPENDENT_OPTIMAL),
        lambda inst: plan_trajectory(
            inst, TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED, [2.0, 2.0]
        ),
    ],
    ids=[
        "solve_stage", "solve_stage exact", "solve_stage heuristic", "exact_solve",
        "local_search", "exact restructure solved", "exact restructure declared",
        "greedy restructure solved", "greedy restructure declared",
        "trajectory independent", "trajectory sequential",
    ],
)
def test_solvers_refuse_ordered_distance_before_any_work(instance, monkeypatch, solver):
    """Every public solver refuses, in the command line's words, an
    instance whose costs it cannot optimize, before it weighs a pair."""
    import diskalloc.allocator as allocator
    import diskalloc.restructure as restructure

    def weigh(*args, **kwargs):
        raise AssertionError("a solver weighed an ordered-distance stage")

    inst = dataclasses.replace(instance, cost_model=CostModel.ORDERED_DISTANCE)
    for module in (allocator, restructure):
        monkeypatch.setattr(module, "PairWeights", weigh)
    with pytest.raises(ValidationError) as caught:
        solver(inst)
    assert str(caught.value) == (
        "ordered-distance instances can only be evaluated: the solvers "
        "optimize uniform costs and produce no track ordering"
    )
