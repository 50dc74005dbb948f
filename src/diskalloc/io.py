"""Instance and solution documents: strict JSON parsing and emission.

Documents are plain JSON. Parsing is strict: unknown keys, wrong types, and
malformed shapes are rejected with the offending field path in the message.
File, disk and move records, ``active_files`` and pair lists are each
first checked in one pass over exact types and key sets. Only a list that
fails it is walked again entry by entry, and that walk alone builds field
paths, so the first fault in document order is the one reported. Pairs
that pass are built once, here, and ``Stage`` does not walk them.
``parse_instance_document(emit_instance_document(x))`` returns ``x`` and
the same holds for solution documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import itemgetter, le
from json.encoder import encode_basestring_ascii
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
    _CheckedPairs,
    _int_assignment,
    _int_ordering,
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


def _ints(values) -> bool:
    """Whether every one of ``values`` is an exact ``int``: a bool or
    another int subclass fails."""
    return set(map(type, values)) <= {int}


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


def _records(raw, path: str, make, *fields: str) -> list:
    """``make(*values)`` for each object of a JSON list of objects holding
    exactly the integer ``fields``, their values in ``fields`` order."""
    _expect(raw, list, path)
    keys = frozenset(fields)
    if set(map(type, raw)) <= {dict} and set(map(frozenset, raw)) <= {keys}:
        rows = list(map(itemgetter(*fields), raw))
        if _ints(chain.from_iterable(rows)):
            return list(starmap(make, rows))
    return [make(*_int_record(item, f"{path}[{i}]", *fields)) for i, item in enumerate(raw)]


def _int_list(raw, path: str) -> list[int]:
    _expect(raw, list, path)
    if _ints(raw):
        return list(raw)
    return [_as_int(v, f"{path}[{k}]") for k, v in enumerate(raw)]


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
    if len(set(values)) == len(values):
        return
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


def _parse_pair_list(raw, path: str, unordered: bool = False):
    """The pairs of a JSON list of two-integer lists, for ``Stage``.

    One pass over exact types checks the whole list; a bool or another int
    subclass fails it. A list that passes, and for an ``unordered``
    relation holds only (low, high) pairs, comes back as a ``_CheckedPairs``
    that ``Stage`` takes as it is. Any other list comes back as tuples for
    ``Stage`` to canonicalize, after a failing one is walked pair by pair.
    """
    _expect(raw, list, path)
    if (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and _ints(chain.from_iterable(raw))
    ):
        if not unordered or all(starmap(le, raw)):
            return _CheckedPairs(map(tuple, raw))
        return list(map(tuple, raw))
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
    files = _records(doc["files"], "files", FileSpec, "id", "size")
    disks = _records(doc["disks"], "disks", DiskSpec, "id", "capacity")

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
        concurrency = _parse_pair_list(
            raw.get("concurrency", []), f"{path}.concurrency", unordered=True
        )
        phi = _parse_phi(raw.get("phi", "uniform"), active, f"{path}.phi")
        override = None
        if "e3_override" in raw:
            override = _parse_pair_list(
                raw["e3_override"], f"{path}.e3_override", unordered=True
            )
        stages.append(
            Stage(
                index=_as_int(raw["index"], f"{path}.index"),
                active_files=tuple(active),
                precedence=precedence,
                concurrency=concurrency,
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
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{kind} file is not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # the decoder recurses once per open bracket
        raise DocumentError(f"{kind} file nests JSON too deeply to read") from None


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
        object.__setattr__(self, "assignment", _int_assignment(self.assignment))
        if self.ordering is not None:
            object.__setattr__(self, "ordering", _int_ordering(self.ordering))


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
        moves = _records(raw["moves"], f"{path}.moves", RelocationMove, "file", "from", "to")
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
    """Write ``dump_document(doc)`` and a newline to ``path``."""
    try:
        Path(path).write_text(dump_document(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write output file: {exc}") from exc


_INDENT = "  "


def _scalar_text(value) -> Optional[str]:
    """JSON text of a string, number, bool or None; None for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _key_text(key) -> str:
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(text)


def _leaf_text(items: list, depth: int) -> Optional[str]:
    """The text of a non-empty list at ``depth`` holding only exact ints or
    only pairs of exact ints, formatted in one call; None for any other
    list."""
    kinds = set(map(type, items))
    inner = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth + "]"
    if kinds == {int}:
        return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + close
    if kinds <= {list, tuple} and set(map(len, items)) == {2}:
        ends = tuple(chain.from_iterable(items))
        if set(map(type, ends)) == {int}:
            end = inner + _INDENT + "%d"
            pair = "[" + end + "," + end + inner + "]"
            return ("[" + inner + ("," + inner).join([pair] * len(items)) + close) % ends
    return None


def dump_document(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, with its errors: a
    ``TypeError`` for a value or key JSON cannot hold and a ``ValueError``
    for a container that holds itself.

    One loop walks the document with a stack of open containers, so depth
    is not bounded by the recursion limit, and each list of exact ints or
    of exact-int pairs is written in one formatting call.
    """
    chunks: list[str] = []
    emit = chunks.append
    # One frame per open container: its (separator, item) pairs, its
    # closing text, whether its items are (key, value) pairs, and its id.
    frames: list[tuple] = []
    open_ids: set[int] = set()
    value = doc
    while True:
        text = _scalar_text(value)
        if text is None:
            is_dict = isinstance(value, dict)
            if not is_dict and not isinstance(value, (list, tuple)):
                raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
            if not value:
                text = "{}" if is_dict else "[]"
            elif not is_dict:
                text = _leaf_text(value, len(frames))
        if text is not None:
            emit(text)
        else:
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            inner = "\n" + _INDENT * (len(frames) + 1)
            separators = chain((inner,), repeat("," + inner))
            close = inner[: -len(_INDENT)] + ("}" if is_dict else "]")
            emit("{" if is_dict else "[")
            items = value.items() if is_dict else value
            frames.append((zip(separators, items), close, is_dict, id(value)))
        while frames:
            items, close, is_dict, ident = frames[-1]
            item = next(items, None)
            if item is not None:
                break
            frames.pop()
            open_ids.discard(ident)
            emit(close)
        else:
            return "".join(chunks)
        separator, value = item
        emit(separator)
        if is_dict:
            key, value = value
            emit(_key_text(key) + ": ")
