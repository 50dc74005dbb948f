"""Plain-text reports for solutions, trajectories, diffs, and relations.

Costs, objectives, and proximities print with one decimal place. Layout is
stable: fixed ordering everywhere, no timestamps, so identical inputs give
identical text.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .allocator import ObjectiveReport, evaluate_objective
from .errors import ValidationError
from .io import SolutionDocument
from .model import Allocation, Instance, RelocationPlan, Trajectory
from .relations import detect_communities, integrate_relations


def _fmt(x: float) -> str:
    return f"{x:.1f}"


def allocation_lines(
    assignment: Mapping[int, int],
    instance: Optional[Instance] = None,
    indent: str = "  ",
) -> list[str]:
    """One line per disk: its files ascending, or ``-`` when empty."""
    by_disk: dict[int, list[int]] = {}
    for f, d in sorted(assignment.items()):
        by_disk.setdefault(d, []).append(f)
    if instance is not None:
        disk_ids = [d.id for d in instance.disks]
    else:
        disk_ids = sorted(by_disk)
    lines = []
    for d in disk_ids:
        files = " ".join(str(f) for f in by_disk.get(d, [])) or "-"
        if instance is not None:
            lines.append(f"{indent}disk {d} (capacity {instance.capacities[d]}): {files}")
        else:
            lines.append(f"{indent}disk {d}: {files}")
    return lines


def objective_lines(report: ObjectiveReport, indent: str = "  ") -> list[str]:
    lines = [f"objective {_fmt(report.value)}"]
    for term in report.terms:
        a, b = term.pair
        lines.append(
            f"{indent}pair {a}-{b}: weight {_fmt(term.weight)}, "
            f"cost {_fmt(term.cost)}, contribution {_fmt(term.contribution)}"
        )
    return lines


def _move_lines(moves, indent: str = "  ") -> list[str]:
    return [
        f"{indent}file {m.file}: disk {m.src} -> disk {m.dst}" for m in moves
    ]


def _transition_lines(from_stage: int, to_stage: int, cost: float, moves) -> list[str]:
    head = f"transition {from_stage} -> {to_stage} (modification cost {_fmt(cost)}):"
    return [head, *(_move_lines(moves) or ["  no moves"])]


def solution_report(doc: SolutionDocument, instance: Optional[Instance] = None) -> str:
    transitions = [(t.from_stage, t.to_stage, t.h, t.moves) for t in doc.transitions]
    return _solution_text(doc.stages, transitions, doc.total_modification_cost, instance)


def _solution_text(stages, transitions, total: Optional[float], instance: Optional[Instance]) -> str:
    """Stage entries, then each (from stage, to stage, cost, moves)
    transition, then the total; a transition within one stage, which has no
    document form, renders like any other."""
    lines: list[str] = []
    for s in stages:
        header = f"stage {s.index}:"
        details = []
        if s.objective is not None:
            details.append(f"objective {_fmt(s.objective)}")
        if s.rho is not None:
            details.append(f"rho {_fmt(s.rho)}")
        if details:
            header += " " + ", ".join(details)
        lines.append(header)
        lines.extend(allocation_lines(s.assignment, instance))
    for transition in transitions:
        lines.extend(_transition_lines(*transition))
    if total is not None:
        lines.append(f"total modification cost {_fmt(total)}")
    return "\n".join(lines)


def trajectory_report(traj: Trajectory, instance: Optional[Instance] = None) -> str:
    lines = [f"strategy {traj.strategy}"]
    for pos, j in enumerate(traj.stage_indices):
        rho = f"rho {_fmt(traj.proximities[pos])}"
        if not traj.certified[pos]:
            rho += " (reference uncertified)"
        lines.append(
            f"stage {j}: objective {_fmt(traj.objectives[pos])}, {rho}"
        )
        lines.extend(allocation_lines(traj.allocations[pos].assignment, instance))
        if pos < len(traj.plans):
            plan, nxt = traj.plans[pos], traj.stage_indices[pos + 1]
            lines.extend(_transition_lines(j, nxt, plan.total_cost, plan.moves))
    lines.append(f"total modification cost {_fmt(traj.total_modification_cost)}")
    return "\n".join(lines)


def diff_report(plan: RelocationPlan) -> str:
    n = len(plan.moves)
    noun = "move" if n == 1 else "moves"
    lines = [f"{n} {noun}, modification cost {_fmt(plan.total_cost)}"]
    lines.extend(_move_lines(plan.moves))
    return "\n".join(lines)


def _pair_list(pairs: Iterable[tuple[int, int]], sep: str) -> str:
    items = [f"{a}{sep}{b}" for a, b in sorted(pairs)]
    return " ".join(items) or "-"


def relations_report(instance: Instance, stage_index: int) -> str:
    stage = instance.stage(stage_index)
    relation = integrate_relations(stage)
    communities = detect_communities(relation, stage.active_files, instance.gamma)
    lines = [
        f"stage {stage_index} relations",
        f"precedence: {_pair_list(stage.precedence, '->')}",
        f"concurrency: {_pair_list(stage.concurrency, '-')}",
        f"integrated: {_pair_list(relation.edges, '-')}",
        "communities: "
        + (" ".join("{" + ",".join(map(str, c.members)) + "}" for c in communities) or "-"),
    ]
    return "\n".join(lines)


def emit_report(obj, instance: Optional[Instance] = None) -> str:
    """Text report for a trajectory or a solution document."""
    if isinstance(obj, Trajectory):
        return trajectory_report(obj, instance)
    if isinstance(obj, SolutionDocument):
        return solution_report(obj, instance)
    raise ValidationError(f"no report format for {type(obj).__name__}")


def evaluation_report(
    alloc: Allocation, instance: Instance, stage_index: int, report: Optional[ObjectiveReport] = None
) -> str:
    """Allocation layout plus its objective breakdown at one stage. Pass
    ``report`` when the caller has already evaluated the allocation."""
    if report is None:
        report = evaluate_objective(
            alloc, instance.stage(stage_index), instance.cost_model, sizes=instance.sizes
        )
    lines = [f"stage {stage_index}:"]
    lines.extend(allocation_lines(alloc.assignment, instance))
    lines.extend(objective_lines(report))
    return "\n".join(lines)
