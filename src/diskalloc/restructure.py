"""Budget-constrained restructuring and multi-stage trajectory planning.

Instead of re-solving a stage from scratch, restructuring starts from the
allocation already on the disks and buys improvement with relocation moves,
each priced at the instance's unit cost. The proximity rho of the result is
its objective's excess over the stage's reference optimum.

This module holds only budget logic (move allowance, reference, rho, plan
and its check); the allocator reads the previous allocation, holds the
stage's weights and takes every placement. The budget buys whole moves:
``_move_allowance`` reads it once, and the searches and the plan check
count moves against that allowance. Greedy restructuring runs
``_Placement``'s best-improvement descent under the move allowance, on a
placement that seeds the files new to the stage by least connection, as a
heuristic stage solve seeds its files. Exact restructuring runs that
descent first, then the branch-and-bound of ``exact_solve``, symmetry
prune and node budget included, with each file's previous disk as its
home, the move allowance, and greedy's placement as the incumbent to tie
or beat. The reference is a value only, ``_optimum``'s, found on the
search's own weights. Both modes run on exact integer weights, so an
objective that ties the reference reads a proximity of exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Optional, Sequence

from .errors import InfeasibleError, InternalError, ValidationError
from .model import (
    Allocation,
    Instance,
    RelocationMove,
    RelocationPlan,
    Stage,
    Trajectory,
)
from .allocator import (
    EXACT_CAP_DEFAULT,
    PairWeights,
    _branch_and_bound,
    _check_active,
    _held,
    _optimum,
    _Placement,
    _solve_stage,
)

# Budgets are floats: a budget of k unit moves buys k moves even where the
# division rounds just below k.
_BUDGET_TOL = 1e-9


def _relocation_plan(
    src: Mapping[int, int], dst: Mapping[int, int], files: Collection[int], unit_cost: float
) -> RelocationPlan:
    """One move per file of ``files`` whose disk differs between ``src``
    and ``dst``, ordered by file id, each priced at ``unit_cost``."""
    moves = tuple(
        RelocationMove(f, src[f], dst[f]) for f in sorted(files) if src[f] != dst[f]
    )
    return RelocationPlan(moves, total_cost=len(moves) * float(unit_cost))


def relocation_diff(src: Allocation, dst: Allocation, unit_cost: float = 1.0) -> RelocationPlan:
    """Relocation plan turning ``src`` into ``dst``: one move per file whose
    disk differs, ordered by file id. Both allocations must cover the same
    file set."""
    src_files = set(src.assignment)
    dst_files = set(dst.assignment)
    if src_files != dst_files:
        extra = sorted(src_files ^ dst_files)
        raise ValidationError(f"allocations cover different file sets: {extra}")
    return _relocation_plan(src.assignment, dst.assignment, src_files, unit_cost)


class RestructureMode(str, Enum):
    EXACT = "exact"
    GREEDY = "greedy"


class TrajectoryStrategy(str, Enum):
    INDEPENDENT_OPTIMAL = "independent_optimal"
    SEQUENTIAL_RESTRUCTURED = "sequential_restructured"
    PAPER_REPLAY = "paper_replay"


@dataclass(frozen=True)
class RestructuringProblem:
    """Improve ``previous`` for ``stage`` without spending more than
    ``budget`` on relocations. ``reference`` declares the stage's optimum,
    finite and non-negative, when the caller already knows it; left None,
    it is computed."""

    instance: Instance
    stage: Stage
    previous: Allocation
    budget: float
    reference: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "budget", float(self.budget))
        if not 0 <= self.budget < math.inf:
            raise ValidationError("restructuring budget must be non-negative and finite")
        if self.reference is not None:
            object.__setattr__(self, "reference", float(self.reference))
            if not 0 <= self.reference < math.inf:
                raise ValidationError("declared reference must be non-negative and finite")


@dataclass(frozen=True)
class RestructureResult:
    allocation: Allocation
    proximity: float
    objective: float
    reference: float
    certified: bool
    plan: RelocationPlan


def _move_allowance(budget: float, unit_cost: float, n_movable: int) -> int:
    """Whole moves the budget buys, at most ``n_movable`` (all when free)."""
    if unit_cost <= 0:
        return n_movable
    return int(min(budget / unit_cost + _BUDGET_TOL, n_movable))


def restructure_one_stage(
    problem: RestructuringProblem,
    mode: RestructureMode = RestructureMode.EXACT,
    *,
    cap: int = EXACT_CAP_DEFAULT,
) -> RestructureResult:
    """Best allocation reachable from the previous one within the budget.

    The budget buys whole moves, the allowance, and the plan is checked in
    moves against it. The reference, unless declared, is the stage's
    optimum around the held files as a value and a certified flag: the
    branch-and-bound's, heaviest files first, on the search's weights, or
    past the cap or the node budget the heuristic's, uncertified.

    Exact mode enumerates every capacity-feasible placement that keeps the
    number of moved files within the allowance, minimizing (objective,
    move count, assignment) lexicographically, and raises
    EnumerationCapError past the branch-and-bound's node budget.
    It first runs greedy mode's descent and starts the search from its
    placement, as an objective to tie or beat with a move count above the
    allowance, so the search returns the same result with fewer nodes;
    where greedy cannot seed the stage, the search runs alone.
    Where the allowance is below the number of files with a previous disk,
    the search also bounds each subtree by the moves left: only that many
    more files may leave their previous disks, each saving at most its own
    weight there. Greedy mode repeatedly applies the single move or disk
    swap that most reduces the objective while the result stays within the
    allowance, the first in scan order among equal gains, which are exact on
    integer weights. Its scan yields only records, the steps that gain more
    than every step before them, and skips each step whose floor, the least
    delta its files' gains allow, cannot beat the last record. With fewer
    than two moves left, it also pairs a file on its previous disk only with
    files that are off theirs or new to the stage.

    Files of the previous allocation that are inactive in the target stage
    hold their disks and are never moved. Active files absent from the
    previous allocation are placed fresh; placing them costs nothing.
    Greedy mode places them by least connection, as a heuristic stage
    solve seeds, before its descent.
    A stage, or a previous allocation, that names a file or disk the
    instance lacks raises ValidationError, whether or not the file is
    active and even with a declared reference.
    """
    mode = RestructureMode(mode)
    instance, stage, previous = problem.instance, problem.stage, problem.previous
    unit = instance.relocation_unit_cost

    _check_active(stage, instance)
    fixed, loads = _held(stage, previous, instance)
    # Each active file's previous disk, where it has one.
    base = {f: previous.assignment[f] for f in stage.active_files if f in previous.assignment}

    # The unmodified allocation must fit; a previous allocation that
    # overfills a disk for this stage is rejected outright.
    trial = dict(loads)
    for f, d in base.items():
        trial[d] += instance.sizes[f]
    if any(trial[d] > instance.capacities[d] for d in trial):
        raise InfeasibleError("previous allocation infeasible for stage")
    m = _move_allowance(problem.budget, unit, len(base))

    weights = PairWeights(stage)
    if problem.reference is not None:
        psi_star, certified = problem.reference, False
    else:
        psi_star, certified = _optimum(stage, instance, fixed, cap, weights)

    # New files start where the least-connection seed puts them, move-free.
    try:
        state = _Placement({**fixed, **base}, stage.active_files, instance, weights, base, m)
    except InfeasibleError:
        if mode is RestructureMode.GREEDY:
            raise
        state = None
    else:
        final, psi = state.steepest_descent()
    if mode is RestructureMode.EXACT:
        # Greedy's result, where it has one, is the incumbent to tie or beat.
        found = _branch_and_bound(stage.active_files, fixed, instance, weights, base, m, state)
        if found is None:
            raise InfeasibleError("no placement within the move allowance fits the disks")
        final, psi = found

    if psi < psi_star:
        if certified:
            raise InternalError(
                "restructuring beat a certified optimum; enumeration is broken"
            )
        psi_star = psi
    rho = psi - psi_star

    plan = _relocation_plan(base, final, base, unit)
    if len(plan.moves) > m:
        raise InternalError("restructuring plan exceeds its budget")
    return RestructureResult(
        allocation=Allocation(final),
        proximity=rho,
        objective=psi,
        reference=psi_star,
        certified=certified,
        plan=plan,
    )


def _trajectory(
    strategy: str,
    instance: Instance,
    allocations: Sequence[Allocation],
    plans: Sequence[RelocationPlan],
    objectives: Sequence[float],
    optima: Sequence[float],
    certified: Sequence[bool],
) -> Trajectory:
    """The trajectory over every stage of ``instance``: each stage's
    proximity is its objective less its optimum, and the modification cost
    is the plans' summed cost."""
    return Trajectory(
        strategy=strategy,
        stage_indices=tuple(s.index for s in instance.stages),
        allocations=tuple(allocations),
        plans=tuple(plans),
        objectives=tuple(objectives),
        optima=tuple(optima),
        proximities=tuple(psi - star for psi, star in zip(objectives, optima)),
        certified=tuple(certified),
        total_modification_cost=sum(p.total_cost for p in plans),
    )


def plan_trajectory(
    instance: Instance,
    strategy: TrajectoryStrategy,
    budgets: Optional[Sequence[float]] = None,
    *,
    mode: RestructureMode = RestructureMode.EXACT,
    cap: int = EXACT_CAP_DEFAULT,
) -> Trajectory:
    """Allocations for every stage plus the relocation plans between them.

    ``independent_optimal`` re-solves each stage from scratch and prices
    the literal differences between consecutive solutions. With
    ``sequential_restructured``, each stage after the first is restructured
    from its predecessor within the matching entry of ``budgets`` (one per
    transition). ``paper_replay`` reproduces the restructured chain
    recorded for the bundled example verbatim.
    """
    strategy = TrajectoryStrategy(strategy)
    if strategy is TrajectoryStrategy.PAPER_REPLAY:
        _, restructured = paper_replay_trajectories(instance)
        return restructured

    stages = instance.stages
    unit = instance.relocation_unit_cost
    if strategy is TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED:
        if budgets is None or len(budgets) != len(stages) - 1:
            need = len(stages) - 1
            got = "none" if budgets is None else str(len(budgets))
            raise ValidationError(
                f"sequential restructuring needs {need} budgets (one per "
                f"transition), got {got}"
            )

    allocations: list[Allocation] = []
    plans: list[RelocationPlan] = []
    objectives: list[float] = []
    optima: list[float] = []
    certified: list[bool] = []

    # Files inactive in a stage hold their disks from the allocation before,
    # so each allocation covers every file placed before it.
    for pos, stage in enumerate(stages):
        previous = allocations[-1] if allocations else None
        if previous is None or strategy is TrajectoryStrategy.INDEPENDENT_OPTIMAL:
            alloc, psi, cert = _solve_stage(stage, instance, _held(stage, previous, instance)[0], cap)
            psi_star = psi
            if previous is not None:
                # Files entering the stage are placed, not relocated.
                prev = previous.assignment
                plans.append(_relocation_plan(prev, alloc.assignment, prev, unit))
        else:
            problem = RestructuringProblem(
                instance=instance,
                stage=stage,
                previous=previous,
                budget=float(budgets[pos - 1]),
            )
            result = restructure_one_stage(problem, mode, cap=cap)
            alloc = result.allocation
            psi, psi_star, cert = result.objective, result.reference, result.certified
            plans.append(result.plan)
        allocations.append(alloc)
        objectives.append(psi)
        optima.append(psi_star)
        certified.append(cert)

    return _trajectory(strategy.value, instance, allocations, plans, objectives, optima, certified)


def paper_replay_trajectories(instance: Instance) -> tuple[Trajectory, Trajectory]:
    """The two recorded solution chains of the bundled example, verbatim.

    Returns (stage-optimal chain, restructured chain). Objectives are
    recomputed from the recorded allocations; move lists and their costs
    are carried exactly as recorded. Raises ValidationError for any other
    instance: the recorded data is meaningless elsewhere.
    """
    from . import fixtures
    from .allocator import evaluate_objective

    if instance != fixtures.load_paper_example():
        raise ValidationError(
            "replay is only defined for the bundled example instance"
        )
    unit = instance.relocation_unit_cost
    optima, certified = zip(
        *(_optimum(stage, instance, {}, EXACT_CAP_DEFAULT) for stage in instance.stages)
    )

    def build(name: str, assignments, move_lists) -> Trajectory:
        allocations = tuple(Allocation(a) for a in assignments)
        objectives = tuple(
            evaluate_objective(alloc, stage).value
            for alloc, stage in zip(allocations, instance.stages)
        )
        plans = tuple(
            RelocationPlan(
                tuple(RelocationMove(f, s, d) for f, s, d in moves),
                total_cost=len(moves) * unit,
            )
            for moves in move_lists
        )
        return _trajectory(name, instance, allocations, plans, objectives, optima, certified)

    stage_optimal = build(
        "paper_replay", fixtures.STAGE_OPTIMAL_ASSIGNMENTS, fixtures.STAGE_OPTIMAL_MOVES
    )
    restructured = build(
        "paper_replay", fixtures.RESTRUCTURED_ASSIGNMENTS, fixtures.RESTRUCTURED_MOVES
    )
    return stage_optimal, restructured
