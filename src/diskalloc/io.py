"""Instance and solution documents: strict JSON parsing and emission.

Documents are plain JSON. Parsing is strict: unknown keys, wrong types, and
malformed shapes are rejected with the offending field path in the message.
Pair lists are first checked in one pass over exact types; only a list
that fails it is walked again pair by pair, and that walk alone builds
field paths, so the first fault in document order is the one reported.
``parse_instance_document(emit_instance_document(x))`` returns ``x`` and
the same holds for solution documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
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


def _expect(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise DocumentError(f"expected {kind.__name__}, got {type(value).__name__}", path)
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


def _optional_number(value, path: str) -> Optional[float]:
    """An absent or null number reads as None."""
    return None if value is None else _as_number(value, path)


def _object(raw, path: str, allowed, required) -> dict:
    """A JSON object holding only ``allowed`` keys and every ``required`` one."""
    _expect(raw, dict, path)
    unknown = raw.keys() - allowed
    if unknown:
        raise DocumentError(f"unknown field {min(unknown)!r}", path)
    missing = required - raw.keys()
    if missing:
        raise DocumentError(f"missing required field {min(missing)!r}", path)
    return raw


def _int_record(raw, path: str, *fields: str) -> list[int]:
    """The integer values of a JSON object with exactly ``fields``, in order."""
    _object(raw, path, fields, fields)
    return [_as_int(raw[key], f"{path}.{key}") for key in fields]


def _int_list(raw, path: str) -> list[int]:
    return [_as_int(v, f"{path}[{k}]") for k, v in enumerate(_expect(raw, list, path))]


def _id_map(raw, path: str, field: str, kind: str, read) -> dict:
    """``raw[field]``, a JSON object keyed by ``kind`` ids written as
    canonical decimals, so no two keys name one id; ``read(value, path)``
    reads each value."""
    path = f"{path}.{field}"
    entries = {}
    for key, value in _expect(raw[field], dict, path).items():
        try:
            ident = int(key)
        except ValueError:
            ident = None
        if ident is None or key != str(ident):
            canonical = "" if ident is None else "canonical "
            raise DocumentError(f"{field} key {key!r} is not a {canonical}{kind} id", path)
        entries[ident] = read(value, f"{path}[{key}]")
    return entries


def _unique(values: Sequence[int], what: str, path_of) -> None:
    """Reject the first of ``values`` that repeats an earlier one; its path
    is ``path_of(position)``."""
    seen = set()
    for k, value in enumerate(values):
        if value in seen:
            raise DocumentError(f"{what} {value} appears twice", path_of(k))
        seen.add(value)


def _check_ordering(
    ordering: Mapping[int, list[int]], assignment: Mapping[int, int], path: str
) -> None:
    """Reject an ordering that lists a file twice or off its assigned disk."""
    seen = set()
    for d, files in ordering.items():
        for k, f in enumerate(files):
            at = f"{path}.ordering[{d}][{k}]"
            if f in seen:
                raise DocumentError(f"file {f} appears twice", at)
            seen.add(f)
            if f not in assignment:
                raise DocumentError(f"file {f} is ordered on disk {d} but not assigned", at)
            if assignment[f] != d:
                raise DocumentError(
                    f"file {f} is ordered on disk {d} but assigned to disk {assignment[f]}", at
                )


def _parse_pair_list(raw, path: str) -> list[tuple[int, int]]:
    _expect(raw, list, path)
    # Exact types, no field paths: a bool or another int subclass fails
    # this test, and the walk below then judges each entry.
    if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
        ends = list(chain.from_iterable(raw))
        if set(map(type, ends)) <= {int}:
            return list(zip(ends[::2], ends[1::2]))
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
    _object(
        doc,
        "instance",
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
    )
    files = [
        FileSpec(*_int_record(raw, f"files[{i}]", "id", "size"))
        for i, raw in enumerate(_expect(doc["files"], list, "files"))
    ]
    disks = [
        DiskSpec(*_int_record(raw, f"disks[{i}]", "id", "capacity"))
        for i, raw in enumerate(_expect(doc["disks"], list, "disks"))
    ]

    stages = []
    for i, raw in enumerate(_expect(doc["stages"], list, "stages")):
        path = f"stages[{i}]"
        _object(
            raw,
            path,
            allowed={"index", "active_files", "precedence", "concurrency", "phi", "e3_override"},
            required={"index", "active_files"},
        )
        active = _int_list(raw["active_files"], f"{path}.active_files")
        # phi's rows follow the sorted list, so a repeat would shift them
        _unique(active, "file", lambda k: f"{path}.active_files[{k}]")
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

    cost_model_raw = _expect(doc.get("cost_model", "uniform"), str, "cost_model")
    try:
        cost_model = CostModel(cost_model_raw)
    except ValueError:
        raise DocumentError(f"unknown cost model {cost_model_raw!r}", "cost_model") from None

    unit_cost = _as_number(doc.get("relocation_unit_cost", 1.0), "relocation_unit_cost")

    problem_class = None
    if "problem_class" in doc:
        problem_class = ProblemClass(
            *_int_record(doc["problem_class"], "problem_class", "alpha", "beta", "gamma")
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
    _object(
        doc,
        "solution",
        allowed={"stages", "transitions", "total_modification_cost"},
        required={"stages"},
    )
    stages = []
    for i, raw in enumerate(_expect(doc["stages"], list, "stages")):
        path = f"stages[{i}]"
        _object(
            raw,
            path,
            allowed={"index", "assignment", "ordering", "objective", "rho"},
            required={"index", "assignment"},
        )
        assignment = _id_map(raw, path, "assignment", "file", _as_int)
        ordering = None
        if raw.get("ordering") is not None:
            ordering = _id_map(raw, path, "ordering", "disk", _int_list)
        # Keyword arguments run in order: the index is read after the other
        # fields, which fixes the error a document with several faults gets.
        stages.append(
            SolutionStage(
                assignment=assignment,
                ordering=ordering,
                objective=_optional_number(raw.get("objective"), f"{path}.objective"),
                rho=_optional_number(raw.get("rho"), f"{path}.rho"),
                index=_as_int(raw["index"], f"{path}.index"),
            )
        )
        if ordering is not None:
            _check_ordering(ordering, assignment, path)

    _unique([s.index for s in stages], "stage", lambda k: f"stages[{k}].index")

    transitions = []
    for i, raw in enumerate(_expect(doc.get("transitions", []), list, "transitions")):
        path = f"transitions[{i}]"
        fields = ("from_stage", "to_stage", "moves", "h")
        _object(raw, path, fields, fields)
        moves = [
            RelocationMove(*_int_record(m, f"{path}.moves[{k}]", "file", "from", "to"))
            for k, m in enumerate(_expect(raw["moves"], list, f"{path}.moves"))
        ]
        _unique([m.file for m in moves], "file", lambda k: f"{path}.moves[{k}].file")
        transitions.append(
            SolutionTransition(
                from_stage=_as_int(raw["from_stage"], f"{path}.from_stage"),
                to_stage=_as_int(raw["to_stage"], f"{path}.to_stage"),
                moves=tuple(moves),
                h=_as_number(raw["h"], f"{path}.h"),
            )
        )

    total = _optional_number(doc.get("total_modification_cost"), "total_modification_cost")
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
