"""Command-line interface.

Subcommands: solve, evaluate, diff, restructure, trajectory, oracle,
generate. Reports go to stdout; ``--output PATH`` writes the matching JSON
document. Exit codes: 0 success, 1 infeasible, 2 usage or document errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .allocator import EXACT_CAP_DEFAULT, _check_cost_model, evaluate_objective, check_allocation_feasible, exact_solve, solve_stage
from .errors import (
    DiskAllocError,
    DocumentError,
    EnumerationCapError,
    InfeasibleError,
    ValidationError,
)
from .generator import generate_instance
from .io import (
    SolutionDocument,
    SolutionStage,
    _plan_solution,
    allocation_from_solution_stage,
    dump_document,
    emit_solution_document,
    parse_instance,
    parse_solution,
    solution_from_allocation,
    solution_from_trajectory,
    write_document,
)
from .model import Instance
from .report import (
    _solution_text,
    diff_report,
    evaluation_report,
    relations_report,
    solution_report,
    trajectory_report,
)
from .restructure import (
    RestructureMode,
    RestructuringProblem,
    TrajectoryStrategy,
    paper_replay_trajectories,
    plan_trajectory,
    relocation_diff,
    restructure_one_stage,
)

_STRATEGIES = {
    "independent": TrajectoryStrategy.INDEPENDENT_OPTIMAL,
    "sequential": TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED,
    "replay": TrajectoryStrategy.PAPER_REPLAY,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskalloc",
        description=(
            "Deterministic solvers for allocating data files onto "
            "capacity-limited parallel disks across processing stages."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="allocate one stage's files")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--stage", type=int, required=True)
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="force exhaustive search")
    group.add_argument(
        "--local-search", action="store_true", help="force the heuristic path"
    )
    solve.add_argument(
        "--dump-relations",
        action="store_true",
        help="also print the stage's relations and communities",
    )
    solve.add_argument("--output")

    evaluate = sub.add_parser("evaluate", help="score an existing allocation")
    evaluate.add_argument("--instance", required=True)
    evaluate.add_argument("--solution", required=True)
    evaluate.add_argument("--stage", type=int, required=True)
    evaluate.add_argument("--output")

    diff = sub.add_parser("diff", help="relocation plan between two solutions")
    diff.add_argument("--from", dest="src", required=True)
    diff.add_argument("--to", dest="dst", required=True)
    diff.add_argument("--output")

    restructure = sub.add_parser(
        "restructure", help="adapt a previous allocation within a budget"
    )
    restructure.add_argument("--instance", required=True)
    restructure.add_argument("--stage", type=int, required=True)
    restructure.add_argument("--previous", required=True)
    restructure.add_argument("--budget", type=float, required=True)
    restructure.add_argument(
        "--mode", choices=["exact", "greedy"], default="exact"
    )
    restructure.add_argument("--output")

    trajectory = sub.add_parser("trajectory", help="plan all stages")
    trajectory.add_argument("--instance", required=True)
    trajectory.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), required=True
    )
    trajectory.add_argument(
        "--budgets", help="per-transition budgets, comma separated"
    )
    trajectory.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    trajectory.add_argument("--output")

    oracle = sub.add_parser(
        "oracle", help="certified optimum of one stage by exhaustive search"
    )
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--stage", type=int, required=True)
    oracle.add_argument("--output")

    generate = sub.add_parser("generate", help="emit a seeded random instance")
    generate.add_argument("--n-files", type=int, required=True)
    generate.add_argument("--gamma", type=int, required=True)
    generate.add_argument("--n-stages", type=int, required=True)
    generate.add_argument("--edge-density", type=float, required=True)
    generate.add_argument(
        "--size-range", type=int, nargs=2, required=True, metavar=("LO", "HI")
    )
    generate.add_argument("--capacity-slack", type=float, required=True)
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--output")

    return parser


def _single_stage(doc: SolutionDocument, label: str) -> SolutionStage:
    if len(doc.stages) != 1:
        raise ValidationError(
            f"{label} must hold exactly one stage entry, found {len(doc.stages)}"
        )
    return doc.stages[0]


def _check_ids(sol_stage: SolutionStage, k: int, instance: Instance) -> None:
    """Reject solution stage ``k`` if it names a file or disk the instance
    lacks, which the reader of the solution alone cannot tell."""
    for f, d in sol_stage.assignment.items():
        if f not in instance.sizes:
            raise DocumentError(f"file {f} is not in the instance", f"stages[{k}].assignment[{f}]")
        if d not in instance.capacities:
            raise DocumentError(f"disk {d} is not in the instance", f"stages[{k}].assignment[{f}]")
    for d in sol_stage.ordering or {}:
        if d not in instance.capacities:
            raise DocumentError(f"disk {d} is not in the instance", f"stages[{k}].ordering[{d}]")


def _check_plan_output(args, from_stage: int, to_stage: int) -> None:
    """Refuse ``--output`` for a plan within one stage before any work."""
    if args.output and from_stage == to_stage:
        raise ValidationError(
            f"--output needs solutions of two different stages: a plan "
            f"within stage {from_stage} has no document form"
        )


def _parse_budgets(raw: Optional[str]) -> Optional[list[float]]:
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(
            f"budgets must be comma-separated numbers, got {raw!r}"
        ) from None


def _solver_instance(path) -> Instance:
    """The instance at ``path`` for a command that solves it, refused, as
    the solvers refuse it, before any work when they cannot optimize its
    cost model."""
    instance = parse_instance(path)
    _check_cost_model(instance)
    return instance


@contextmanager
def _cap_hint():
    """Rephrase exact search's refusals, at the cap or the node budget, for
    the command line, where no option raises either: the way out is the
    heuristic ``solve``."""
    try:
        yield
    except EnumerationCapError as exc:
        reason = str(exc).partition(";")[0]
        raise EnumerationCapError(
            f"{reason}; run solve without --exact for a heuristic allocation"
        ) from None


def _cmd_solve(args):
    instance = _solver_instance(args.instance)
    exact = True if args.exact else False if args.local_search else None
    with _cap_hint():
        alloc, psi, certified = solve_stage(
            instance, args.stage, exact=exact, cap=EXACT_CAP_DEFAULT
        )
    text = [relations_report(instance, args.stage)] if args.dump_relations else []
    text.append(evaluation_report(alloc, instance, args.stage))
    if not certified:
        text.append("objective is heuristic, not certified optimal")
    doc = solution_from_allocation(alloc, args.stage, objective=psi)
    return "\n".join(text), lambda: emit_solution_document(doc)


def _cmd_evaluate(args):
    instance = parse_instance(args.instance)
    solution = parse_solution(args.solution)
    stage = instance.stage(args.stage)
    # A lone stage entry scores against any target stage; multi-stage
    # documents must carry an entry for the requested one.
    k = 0 if len(solution.stages) == 1 else solution.stages.index(solution.stage(args.stage))
    sol_stage = solution.stages[k]
    _check_ids(sol_stage, k, instance)
    alloc = allocation_from_solution_stage(sol_stage)
    feasibility = check_allocation_feasible(alloc, stage, instance)
    if not feasibility.feasible:
        raise InfeasibleError("; ".join(feasibility.violations))
    report = evaluate_objective(alloc, stage, instance.cost_model, sizes=instance.sizes)
    doc = solution_from_allocation(alloc, args.stage, objective=report.value)
    text = evaluation_report(alloc, instance, args.stage, report)
    return text, lambda: emit_solution_document(doc)


def _cmd_diff(args):
    src = _single_stage(parse_solution(args.src), "--from solution")
    dst = _single_stage(parse_solution(args.dst), "--to solution")
    _check_plan_output(args, src.index, dst.index)
    plan = relocation_diff(
        allocation_from_solution_stage(src), allocation_from_solution_stage(dst)
    )
    # Without --output, two solutions of one stage still diff, so the
    # document is built only when --output asks for it.
    return diff_report(plan), lambda: emit_solution_document(
        _plan_solution(src.index, dst.index, plan)
    )


def _cmd_restructure(args):
    instance = _solver_instance(args.instance)
    previous_stage = _single_stage(parse_solution(args.previous), "--previous solution")
    _check_ids(previous_stage, 0, instance)
    _check_plan_output(args, previous_stage.index, args.stage)
    problem = RestructuringProblem(
        instance=instance,
        stage=instance.stage(args.stage),
        previous=allocation_from_solution_stage(previous_stage),
        budget=args.budget,
    )
    result = restructure_one_stage(problem, RestructureMode(args.mode))
    plan = result.plan
    stages = solution_from_allocation(
        result.allocation, args.stage, objective=result.objective, rho=result.proximity
    ).stages
    transition = (previous_stage.index, args.stage, plan.total_cost, plan.moves)
    text = _solution_text(stages, [transition], plan.total_cost, instance)
    if not result.certified:
        text += "\nreference optimum is heuristic, not certified"
    return text, lambda: emit_solution_document(
        _plan_solution(previous_stage.index, args.stage, plan, stages)
    )


def _cmd_trajectory(args):
    instance = _solver_instance(args.instance)
    strategy = _STRATEGIES[args.strategy]
    budgets = _parse_budgets(args.budgets)
    text = ""
    if strategy is TrajectoryStrategy.PAPER_REPLAY:
        stage_optimal, traj = paper_replay_trajectories(instance)
        text = trajectory_report(stage_optimal, instance) + "\n\n"
    else:
        traj = plan_trajectory(
            instance, strategy, budgets, mode=RestructureMode(args.mode)
        )
    text += trajectory_report(traj, instance)
    return text, lambda: emit_solution_document(solution_from_trajectory(traj))


def _cmd_oracle(args):
    instance = _solver_instance(args.instance)
    with _cap_hint():
        alloc, psi = exact_solve(instance.stage(args.stage), instance)
    doc = solution_from_allocation(alloc, args.stage, objective=psi, rho=0.0)
    return solution_report(doc, instance), lambda: emit_solution_document(doc)


def _cmd_generate(args):
    doc = generate_instance(
        n_files=args.n_files,
        gamma=args.gamma,
        n_stages=args.n_stages,
        edge_density=args.edge_density,
        size_range=tuple(args.size_range),
        capacity_slack=args.capacity_slack,
        seed=args.seed,
    )
    return None if args.output else dump_document(doc), lambda: doc


# Each handler maps parsed arguments to (stdout text or None, a function
# returning the --output document); run_command prints, writes, and picks
# the exit code.
_COMMANDS = {
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "diff": _cmd_diff,
    "restructure": _cmd_restructure,
    "trajectory": _cmd_trajectory,
    "oracle": _cmd_oracle,
    "generate": _cmd_generate,
}


# Building the parser costs about as much as a small command; parsing
# leaves no state in it, so one serves every command line of a process.
_parser = functools.cache(build_parser)


def run_command(argv: Sequence[str]) -> int:
    """Parse and run one command line; returns the process exit code.

    The command runs with the cyclic garbage collector paused, and the
    collector is turned back on afterwards only if it was on before. A
    command leaves no reference cycles behind, so reference counting
    frees everything it builds. The collector's passes over a parsed
    document's many small objects found nothing to free, yet took about
    a sixth of the time of the benchmark's ``cli_documents`` commands.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_command(argv)
    finally:
        if collecting:
            gc.enable()


def _run_command(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse handles usage and --help itself
        return int(exc.code or 0)
    try:
        text, document = _COMMANDS[args.command](args)
        if text is not None:
            try:
                print(text, flush=True)
            except OSError as exc:  # a closed pipe, say
                raise DocumentError(f"cannot write standard output: {exc}") from None
        if args.output:
            write_document(document(), args.output)
        return 0
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DiskAllocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    code = run_command(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.flush()
    except OSError:  # closed: what it buffers would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
