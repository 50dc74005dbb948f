"""Instance and solution documents: strict JSON parsing and emission.

Documents are plain JSON. Parsing is strict: unknown keys, wrong types, and
malformed shapes are rejected with the offending field path in the message.
``parse_instance_document(emit_instance_document(x))`` returns ``x`` and
the same holds for solution documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .errors import DocumentError, ValidationError
from .model import (
    Allocation,
    CostModel,
    DiskSpec,
    FileSpec,
    Instance,
    ProblemClass,
    RelocationMove,
    RelocationPlan,
    Stage,
    Trajectory,
    validate_instance,
)


def _expect(value, types, path: str):
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise DocumentError(f"expected {names}, got {type(value).__name__}", path)
    return value


def _as_int(value, path: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected integer, got {type(value).__name__}", path)
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"expected number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DocumentError(f"expected a finite number, got {number}", path)
    return number


def _check_keys(obj: Mapping, allowed: set[str], required: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"unknown field {sorted(unknown)[0]!r}", path)
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"missing required field {sorted(missing)[0]!r}", path)


def _parse_pair_list(raw, path: str) -> list[tuple[int, int]]:
    _expect(raw, list, path)
    out = []
    for i, item in enumerate(raw):
        _expect(item, list, f"{path}[{i}]")
        if len(item) != 2:
            raise DocumentError(f"expected a pair, got {len(item)} entries", f"{path}[{i}]")
        out.append((_as_int(item[0], f"{path}[{i}][0]"), _as_int(item[1], f"{path}[{i}][1]")))
    return out


def _parse_phi(raw, active: Sequence[int], path: str) -> Optional[dict[tuple[int, int], float]]:
    """Movement probabilities: the string "uniform" or a dense matrix.

    The matrix rows and columns follow ``active`` sorted ascending. Entries
    become a sparse mapping keyed by ordered file pairs.
    """
    if raw == "uniform":
        return None
    _expect(raw, list, path)
    order = sorted(active)
    n = len(order)
    if len(raw) != n:
        raise DocumentError(f"matrix needs {n} rows, got {len(raw)}", path)
    entries: dict[tuple[int, int], float] = {}
    for i, row in enumerate(raw):
        _expect(row, list, f"{path}[{i}]")
        if len(row) != n:
            raise DocumentError(f"row needs {n} entries, got {len(row)}", f"{path}[{i}]")
        for j, cell in enumerate(row):
            w = _as_number(cell, f"{path}[{i}][{j}]")
            if i == j:
                if w != 0.0:
                    raise DocumentError("diagonal entries must be zero", f"{path}[{i}][{j}]")
                continue
            if w != 0.0:
                entries[(order[i], order[j])] = w
    return entries


def parse_instance_document(doc) -> Instance:
    """Build a validated Instance from a decoded JSON document."""
    _expect(doc, dict, "instance")
    _check_keys(
        doc,
        allowed={
            "files",
            "disks",
            "stages",
            "cost_model",
            "relocation_unit_cost",
            "problem_class",
            "task_digraphs",
        },
        required={"files", "disks", "stages"},
        path="instance",
    )

    files = []
    _expect(doc["files"], list, "files")
    for i, raw in enumerate(doc["files"]):
        path = f"files[{i}]"
        _expect(raw, dict, path)
        _check_keys(raw, {"id", "size"}, {"id", "size"}, path)
        files.append(FileSpec(_as_int(raw["id"], f"{path}.id"), _as_int(raw["size"], f"{path}.size")))

    disks = []
    _expect(doc["disks"], list, "disks")
    for i, raw in enumerate(doc["disks"]):
        path = f"disks[{i}]"
        _expect(raw, dict, path)
        _check_keys(raw, {"id", "capacity"}, {"id", "capacity"}, path)
        disks.append(
            DiskSpec(_as_int(raw["id"], f"{path}.id"), _as_int(raw["capacity"], f"{path}.capacity"))
        )

    stages = []
    _expect(doc["stages"], list, "stages")
    for i, raw in enumerate(doc["stages"]):
        path = f"stages[{i}]"
        _expect(raw, dict, path)
        _check_keys(
            raw,
            allowed={"index", "active_files", "precedence", "concurrency", "phi", "e3_override"},
            required={"index", "active_files"},
            path=path,
        )
        active = [
            _as_int(f, f"{path}.active_files[{k}]")
            for k, f in enumerate(_expect(raw["active_files"], list, f"{path}.active_files"))
        ]
        precedence = _parse_pair_list(raw.get("precedence", []), f"{path}.precedence")
        concurrency = _parse_pair_list(raw.get("concurrency", []), f"{path}.concurrency")
        phi = _parse_phi(raw.get("phi", "uniform"), active, f"{path}.phi")
        override = None
        if "e3_override" in raw:
            override = frozenset(_parse_pair_list(raw["e3_override"], f"{path}.e3_override"))
        stages.append(
            Stage(
                index=_as_int(raw["index"], f"{path}.index"),
                active_files=tuple(active),
                precedence=frozenset(precedence),
                concurrency=frozenset(concurrency),
                phi=phi,
                e3_override=override,
            )
        )

    cost_model_raw = doc.get("cost_model", "uniform")
    _expect(cost_model_raw, str, "cost_model")
    try:
        cost_model = CostModel(cost_model_raw)
    except ValueError:
        raise DocumentError(f"unknown cost model {cost_model_raw!r}", "cost_model") from None

    unit_cost = _as_number(doc.get("relocation_unit_cost", 1.0), "relocation_unit_cost")

    problem_class = None
    if "problem_class" in doc:
        raw = doc["problem_class"]
        _expect(raw, dict, "problem_class")
        _check_keys(raw, {"alpha", "beta", "gamma"}, {"alpha", "beta", "gamma"}, "problem_class")
        problem_class = ProblemClass(
            _as_int(raw["alpha"], "problem_class.alpha"),
            _as_int(raw["beta"], "problem_class.beta"),
            _as_int(raw["gamma"], "problem_class.gamma"),
        )

    instance = Instance(
        files=tuple(files),
        disks=tuple(disks),
        stages=tuple(stages),
        cost_model=cost_model,
        relocation_unit_cost=unit_cost,
        problem_class=problem_class,
        task_digraphs=doc.get("task_digraphs"),
    )
    return validate_instance(instance)


def _read_document(path, kind: str):
    """Decoded JSON of the ``kind`` document file at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {kind} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_instance(path) -> Instance:
    """Read, parse, and validate an instance document from a file."""
    return parse_instance_document(_read_document(path, "instance"))


def emit_instance_document(instance: Instance) -> dict:
    """Canonical JSON-ready form of an instance; parses back to equal."""
    doc: dict = {
        "files": [{"id": f.id, "size": f.size} for f in instance.files],
        "disks": [{"id": d.id, "capacity": d.capacity} for d in instance.disks],
        "stages": [],
    }
    for stage in instance.stages:
        raw: dict = {
            "index": stage.index,
            "active_files": list(stage.active_files),
            "precedence": [list(p) for p in sorted(stage.precedence)],
            "concurrency": [list(p) for p in sorted(stage.concurrency)],
        }
        if stage.phi is None:
            raw["phi"] = "uniform"
        else:
            order = list(stage.active_files)
            raw["phi"] = [
                [stage.phi.get((a, b), 0.0) if a != b else 0.0 for b in order]
                for a in order
            ]
        if stage.e3_override is not None:
            raw["e3_override"] = [list(p) for p in sorted(stage.e3_override)]
        doc["stages"].append(raw)
    doc["cost_model"] = instance.cost_model.value
    doc["relocation_unit_cost"] = instance.relocation_unit_cost
    pc = instance.problem_class
    doc["problem_class"] = {"alpha": pc.alpha, "beta": pc.beta, "gamma": pc.gamma}
    if instance.task_digraphs is not None:
        doc["task_digraphs"] = instance.task_digraphs
    return doc


@dataclass(frozen=True)
class SolutionStage:
    """One stage's slice of a solution document."""

    index: int
    assignment: Mapping[int, int]
    ordering: Optional[Mapping[int, tuple[int, ...]]] = None
    objective: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(
            self, "assignment", dict(sorted({int(f): int(d) for f, d in dict(self.assignment).items()}.items()))
        )
        if self.ordering is not None:
            object.__setattr__(
                self,
                "ordering",
                {int(d): tuple(int(f) for f in seq) for d, seq in sorted(dict(self.ordering).items())},
            )


@dataclass(frozen=True)
class SolutionTransition:
    """Relocation moves bridging two consecutive stages."""

    from_stage: int
    to_stage: int
    moves: tuple[RelocationMove, ...]
    h: float

    def __post_init__(self):
        if self.from_stage == self.to_stage:
            raise ValidationError(f"transition from stage {self.from_stage} to itself")
        object.__setattr__(self, "moves", tuple(self.moves))
        object.__setattr__(self, "h", float(self.h))


@dataclass(frozen=True)
class SolutionDocument:
    stages: tuple[SolutionStage, ...]
    transitions: tuple[SolutionTransition, ...] = ()
    total_modification_cost: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def stage(self, index: int) -> SolutionStage:
        for s in self.stages:
            if s.index == index:
                return s
        raise DocumentError(f"solution has no stage {index}")


def parse_solution_document(doc) -> SolutionDocument:
    _expect(doc, dict, "solution")
    _check_keys(
        doc,
        allowed={"stages", "transitions", "total_modification_cost"},
        required={"stages"},
        path="solution",
    )
    stages = []
    _expect(doc["stages"], list, "stages")
    for i, raw in enumerate(doc["stages"]):
        path = f"stages[{i}]"
        _expect(raw, dict, path)
        _check_keys(
            raw,
            allowed={"index", "assignment", "ordering", "objective", "rho"},
            required={"index", "assignment"},
            path=path,
        )
        _expect(raw["assignment"], dict, f"{path}.assignment")
        assignment = {}
        for key, disk in raw["assignment"].items():
            try:
                f = int(key)
            except ValueError:
                raise DocumentError(
                    f"assignment key {key!r} is not a file id", f"{path}.assignment"
                ) from None
            assignment[f] = _as_int(disk, f"{path}.assignment[{key}]")
        ordering = None
        if "ordering" in raw and raw["ordering"] is not None:
            _expect(raw["ordering"], dict, f"{path}.ordering")
            ordering = {}
            for key, seq in raw["ordering"].items():
                try:
                    d = int(key)
                except ValueError:
                    raise DocumentError(
                        f"ordering key {key!r} is not a disk id", f"{path}.ordering"
                    ) from None
                _expect(seq, list, f"{path}.ordering[{key}]")
                ordering[d] = tuple(
                    _as_int(f, f"{path}.ordering[{key}][{k}]") for k, f in enumerate(seq)
                )
        objective = None
        if "objective" in raw and raw["objective"] is not None:
            objective = _as_number(raw["objective"], f"{path}.objective")
        rho = None
        if "rho" in raw and raw["rho"] is not None:
            rho = _as_number(raw["rho"], f"{path}.rho")
        stages.append(
            SolutionStage(
                index=_as_int(raw["index"], f"{path}.index"),
                assignment=assignment,
                ordering=ordering,
                objective=objective,
                rho=rho,
            )
        )

    transitions = []
    raw_transitions = doc.get("transitions", [])
    _expect(raw_transitions, list, "transitions")
    for i, raw in enumerate(raw_transitions):
        path = f"transitions[{i}]"
        _expect(raw, dict, path)
        _check_keys(
            raw,
            allowed={"from_stage", "to_stage", "moves", "h"},
            required={"from_stage", "to_stage", "moves", "h"},
            path=path,
        )
        moves = []
        _expect(raw["moves"], list, f"{path}.moves")
        for k, m in enumerate(raw["moves"]):
            mpath = f"{path}.moves[{k}]"
            _expect(m, dict, mpath)
            _check_keys(m, {"file", "from", "to"}, {"file", "from", "to"}, mpath)
            moves.append(
                RelocationMove(
                    _as_int(m["file"], f"{mpath}.file"),
                    _as_int(m["from"], f"{mpath}.from"),
                    _as_int(m["to"], f"{mpath}.to"),
                )
            )
        transitions.append(
            SolutionTransition(
                from_stage=_as_int(raw["from_stage"], f"{path}.from_stage"),
                to_stage=_as_int(raw["to_stage"], f"{path}.to_stage"),
                moves=tuple(moves),
                h=_as_number(raw["h"], f"{path}.h"),
            )
        )

    total = None
    if "total_modification_cost" in doc and doc["total_modification_cost"] is not None:
        total = _as_number(doc["total_modification_cost"], "total_modification_cost")
    return SolutionDocument(tuple(stages), tuple(transitions), total)


def parse_solution(path) -> SolutionDocument:
    return parse_solution_document(_read_document(path, "solution"))


def emit_solution_document(solution: SolutionDocument) -> dict:
    doc: dict = {"stages": []}
    for s in solution.stages:
        raw: dict = {"index": s.index, "assignment": {str(f): d for f, d in s.assignment.items()}}
        if s.ordering is not None:
            raw["ordering"] = {str(d): list(seq) for d, seq in s.ordering.items()}
        if s.objective is not None:
            raw["objective"] = s.objective
        if s.rho is not None:
            raw["rho"] = s.rho
        doc["stages"].append(raw)
    if solution.transitions:
        doc["transitions"] = [
            {
                "from_stage": t.from_stage,
                "to_stage": t.to_stage,
                "moves": [{"file": m.file, "from": m.src, "to": m.dst} for m in t.moves],
                "h": t.h,
            }
            for t in solution.transitions
        ]
    if solution.total_modification_cost is not None:
        doc["total_modification_cost"] = solution.total_modification_cost
    return doc


def solution_from_allocation(
    alloc: Allocation,
    stage_index: int,
    objective: Optional[float] = None,
    rho: Optional[float] = None,
) -> SolutionDocument:
    return SolutionDocument(
        stages=(
            SolutionStage(
                index=stage_index,
                assignment=alloc.assignment,
                ordering=alloc.ordering,
                objective=objective,
                rho=rho,
            ),
        )
    )


def solution_from_trajectory(traj: Trajectory) -> SolutionDocument:
    stages = tuple(
        SolutionStage(
            index=j,
            assignment=alloc.assignment,
            ordering=alloc.ordering,
            objective=psi,
            rho=rho,
        )
        for j, alloc, psi, rho in zip(
            traj.stage_indices, traj.allocations, traj.objectives, traj.proximities
        )
    )
    transitions = tuple(
        _transition(traj.stage_indices[i], traj.stage_indices[i + 1], plan)
        for i, plan in enumerate(traj.plans)
    )
    return SolutionDocument(stages, transitions, traj.total_modification_cost)


def _transition(from_stage: int, to_stage: int, plan: RelocationPlan) -> SolutionTransition:
    return SolutionTransition(from_stage, to_stage, plan.moves, plan.total_cost)


def _plan_solution(
    from_stage: int, to_stage: int, plan: RelocationPlan, stages: Sequence[SolutionStage] = ()
) -> SolutionDocument:
    """``stages`` reached by one relocation plan between two stages."""
    return SolutionDocument(stages, (_transition(from_stage, to_stage, plan),), plan.total_cost)


def allocation_from_solution_stage(stage: SolutionStage) -> Allocation:
    return Allocation(stage.assignment, ordering=stage.ordering)


def write_document(doc: dict, path) -> None:
    """Write a document dict as stable, human-diffable JSON."""
    try:
        Path(path).write_text(dump_document(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write output file: {exc}") from exc


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)
