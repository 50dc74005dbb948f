"""Domain model: files, disks, stages, instances, allocations, plans.

Values are canonicalized on construction (identifiers ascending, pair sets
normalized) and are effectively immutable afterwards, so they can be shared
freely between concurrent solver runs. ``validate_instance`` checks the
semantic rules that construction alone cannot enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, starmap
from math import isfinite
from operator import eq
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import InfeasibleError, ValidationError

FileId = int
DiskId = int
Pair = tuple[int, int]


class CostModel(str, Enum):
    """How the head-movement cost between two same-disk files is priced."""

    UNIFORM = "uniform"
    ORDERED_DISTANCE = "ordered_distance"


def canonical_edge(a: int, b: int) -> Pair:
    """Unordered pair in (low, high) form."""
    a, b = int(a), int(b)
    return (a, b) if a <= b else (b, a)


class _CheckedPairs(list):
    """Pairs the document reader has proven canonical: exact ``int``
    2-tuples, each in (low, high) form where the relation is unordered.
    Only the reader builds one; ``Stage`` makes its frozenset straight
    from it, converting no pair."""

    __slots__ = ()


def _pair_set(pairs, unordered: bool) -> frozenset[Pair]:
    """``pairs`` as a plain frozenset of exact ``int`` 2-tuples, each in
    (low, high) form when ``unordered``; pairs the reader checked are taken
    as they are."""
    if type(pairs) is _CheckedPairs:
        return frozenset(pairs)
    if unordered:
        return frozenset(canonical_edge(a, b) for a, b in pairs)
    return frozenset((int(a), int(b)) for a, b in pairs)


@dataclass(frozen=True)
class FileSpec:
    id: FileId
    size: int  # occupied disk tracks


@dataclass(frozen=True)
class DiskSpec:
    id: DiskId
    capacity: int  # available disk tracks


@dataclass(frozen=True)
class Stage:
    """One step of the processing sequence.

    ``active_files`` lists the files the stage works on. ``precedence``
    holds directed arcs (first element processed before the second) and
    ``concurrency`` unordered jointly-processed pairs; together they drive
    the integrated relation used by the allocators.

    ``phi`` is None for the uniform movement-probability convention, or a
    sparse mapping of ordered file pairs to non-negative weights. Zero
    entries are dropped on construction.

    ``e3_override`` replaces the integrated relation wholesale. It exists
    for stages whose raw arc and edge lists are not available, only the
    integrated result.

    Construction canonicalizes every pair set and ``phi``, except pair sets
    the document reader hands over already canonical: those are taken as
    they are.
    """

    index: int
    active_files: tuple[FileId, ...]
    precedence: frozenset[Pair] = frozenset()
    concurrency: frozenset[Pair] = frozenset()
    phi: Optional[Mapping[Pair, float]] = None
    e3_override: Optional[frozenset[Pair]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "active_files", tuple(sorted({int(f) for f in self.active_files}))
        )
        object.__setattr__(self, "precedence", _pair_set(self.precedence, unordered=False))
        object.__setattr__(self, "concurrency", _pair_set(self.concurrency, unordered=True))
        if self.phi is not None:
            entries = {
                (int(a), int(b)): float(w)
                for (a, b), w in dict(self.phi).items()
                if float(w) != 0.0
            }
            object.__setattr__(self, "phi", MappingProxyType(entries))
        if self.e3_override is not None:
            object.__setattr__(self, "e3_override", _pair_set(self.e3_override, unordered=True))

    @property
    def active_set(self) -> frozenset[int]:
        return frozenset(self.active_files)


@dataclass(frozen=True)
class ProblemClass:
    """Problem descriptor: servers, channels per server, disks."""

    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class Instance:
    files: tuple[FileSpec, ...]
    disks: tuple[DiskSpec, ...]
    stages: tuple[Stage, ...]
    cost_model: CostModel = CostModel.UNIFORM
    relocation_unit_cost: float = 1.0
    problem_class: Optional[ProblemClass] = None
    task_digraphs: object = None  # opaque metadata, carried through untouched

    def __post_init__(self):
        object.__setattr__(self, "files", tuple(sorted(self.files, key=lambda f: f.id)))
        object.__setattr__(self, "disks", tuple(sorted(self.disks, key=lambda d: d.id)))
        object.__setattr__(self, "stages", tuple(sorted(self.stages, key=lambda s: s.index)))
        object.__setattr__(self, "cost_model", CostModel(self.cost_model))
        object.__setattr__(self, "relocation_unit_cost", float(self.relocation_unit_cost))
        if self.problem_class is None:
            object.__setattr__(self, "problem_class", ProblemClass(1, 1, len(self.disks)))

    @cached_property
    def sizes(self) -> Mapping[int, int]:
        return MappingProxyType({f.id: f.size for f in self.files})

    @cached_property
    def capacities(self) -> Mapping[int, int]:
        return MappingProxyType({d.id: d.capacity for d in self.disks})

    @property
    def gamma(self) -> int:
        return len(self.disks)

    def stage(self, index: int) -> Stage:
        for s in self.stages:
            if s.index == index:
                return s
        raise ValidationError(f"no stage with index {index}")


def _int_assignment(assignment) -> dict[int, int]:
    """``assignment``'s entries as ints, ascending by file; each id is
    converted before the sort, so "10" sorts after "9". Raises
    ValidationError for two keys that convert to one file."""
    raw = dict(assignment)
    out = {int(f): int(d) for f, d in raw.items()}
    if len(out) < len(raw):
        raise ValidationError("assignment names a file more than once")
    return dict(sorted(out.items()))


def _int_ordering(ordering) -> dict[int, tuple[int, ...]]:
    """``ordering``'s disks and files as ints, ascending by disk, as
    ``_int_assignment`` sorts them."""
    raw = dict(ordering)
    out = {int(d): tuple(map(int, seq)) for d, seq in raw.items()}
    if len(out) < len(raw):
        raise ValidationError("ordering names a disk more than once")
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class Allocation:
    """A placement of files onto disks.

    ``assignment`` maps each file to its disk. ``ordering``, when present,
    gives the left-to-right track layout of each disk as a sequence of its
    files; it is consumed by the ordered-distance cost model and never
    produced by the solvers. ``degraded`` marks heuristic results that had
    to relax the distinct-disks-per-community rule to fit.
    """

    assignment: Mapping[FileId, DiskId]
    ordering: Optional[Mapping[DiskId, tuple[FileId, ...]]] = None
    degraded: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", MappingProxyType(_int_assignment(self.assignment)))
        if self.ordering is not None:
            object.__setattr__(self, "ordering", MappingProxyType(_int_ordering(self.ordering)))

    @property
    def files(self) -> tuple[int, ...]:
        return tuple(self.assignment)

    def disk_of(self, file: int) -> int:
        return self.assignment[file]

    def files_on(self, disk: int) -> tuple[int, ...]:
        return tuple(f for f, d in self.assignment.items() if d == disk)

    def by_disk(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for f, d in self.assignment.items():
            out.setdefault(d, []).append(f)
        return {d: tuple(fs) for d, fs in out.items()}

    def loads(self, sizes: Mapping[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for f, d in self.assignment.items():
            out[d] = out.get(d, 0) + sizes[f]
        return out

    def move(self, file: int, disk: int) -> "Allocation":
        new = dict(self.assignment)
        new[int(file)] = int(disk)
        return Allocation(new, degraded=self.degraded)


@dataclass(frozen=True)
class RelocationMove:
    file: FileId
    src: DiskId
    dst: DiskId

    def __post_init__(self):
        if self.src == self.dst:
            raise ValidationError(f"relocation of file {self.file} must change disks")


@dataclass(frozen=True)
class RelocationPlan:
    moves: tuple[RelocationMove, ...]
    total_cost: float

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        object.__setattr__(self, "total_cost", float(self.total_cost))
        seen = set()
        for m in self.moves:
            if m.file in seen:
                raise ValidationError(f"file {m.file} appears twice in one plan")
            seen.add(m.file)


def apply_plan(alloc: Allocation, plan: RelocationPlan) -> Allocation:
    """Apply each move in order; move sources must match the allocation."""
    assignment = dict(alloc.assignment)
    for m in plan.moves:
        if assignment.get(m.file) != m.src:
            raise ValidationError(
                f"move of file {m.file} expects it on disk {m.src}, "
                f"found {assignment.get(m.file)}"
            )
        assignment[m.file] = m.dst
    return Allocation(assignment)


@dataclass(frozen=True)
class Trajectory:
    """A sequence of per-stage allocations linked by relocation plans.

    ``optima`` holds the reference objective minimum per stage and
    ``certified`` whether that reference came from exhaustive enumeration.
    For solver-built trajectories, applying plan j to allocation j yields
    allocation j+1 on the files active in both stages. The bundled recorded
    chains replay their move lists verbatim instead (see fixtures).
    """

    strategy: str
    stage_indices: tuple[int, ...]
    allocations: tuple[Allocation, ...]
    plans: tuple[RelocationPlan, ...]
    objectives: tuple[float, ...]
    optima: tuple[float, ...]
    proximities: tuple[float, ...]
    certified: tuple[bool, ...]
    total_modification_cost: float


def _spec_ids(specs, kind: str, amount: str) -> set[int]:
    """The ids of ``specs``, files or disks, each a positive integer named
    once, with a positive integer ``amount``; the first offending spec
    is named."""
    seen = set()
    for spec in specs:
        if not isinstance(spec.id, int) or spec.id < 1:
            raise ValidationError(f"{kind} id {spec.id!r} must be a positive integer")
        if spec.id in seen:
            raise ValidationError(f"duplicate {kind} id {spec.id}")
        seen.add(spec.id)
        value = getattr(spec, amount)
        if not isinstance(value, int) or value < 1:
            raise ValidationError(f"{kind} {spec.id}: {amount} must be a positive integer")
    return seen


def validate_instance(instance: Instance) -> Instance:
    """Check every structural rule and return the canonical instance.

    Idempotent. Structural defects raise ValidationError; instances whose
    files cannot fit the disks at all raise InfeasibleError.
    """
    if not instance.disks:
        raise ValidationError("instance needs at least one disk")
    if not instance.stages:
        raise ValidationError("instance needs at least one stage")

    file_ids = _spec_ids(instance.files, "file", "size")
    _spec_ids(instance.disks, "disk", "capacity")

    seen_indices = set()
    for stage in instance.stages:
        j = stage.index
        if not isinstance(j, int) or j < 1:
            raise ValidationError(f"stage index {j!r} must be a positive integer")
        if j in seen_indices:
            raise ValidationError(f"duplicate stage index {j}")
        seen_indices.add(j)

        active = stage.active_set
        for f in stage.active_files:
            if f not in file_ids:
                raise ValidationError(f"stage {j}: active file {f} does not exist")
        # Only movement probabilities carry a weight w; the rest are pair sets.
        phi = stage.phi or {}
        relations = (
            ("precedence arc", stage.precedence, None),
            ("concurrency edge", stage.concurrency, None),
            ("integrated override edge", stage.e3_override or (), None),
            ("movement probability entry", phi.keys(), phi),
        )
        # Set operations test every pair at once. Only a stage that fails
        # them is walked in sorted order, so the least offending pair is the
        # one named. A NaN or an infinity makes the sum non-finite.
        if min(phi.values(), default=0.0) >= 0 and isfinite(sum(phi.values())) and all(
            active.issuperset(chain.from_iterable(pairs)) and not any(starmap(eq, pairs))
            for _, pairs, _ in relations
        ):
            continue
        for kind, pairs, weights in relations:
            for a, b in sorted(pairs):
                w = None if weights is None else weights[(a, b)]
                if a == b and w is None:
                    raise ValidationError(f"stage {j}: {kind} ({a}, {b}) is reflexive")
                if a == b:
                    raise ValidationError(
                        f"stage {j}: movement probability diagonal entry ({a}, {a}) "
                        "must be zero"
                    )
                if a not in active or b not in active:
                    raise ValidationError(
                        f"stage {j}: {kind} ({a}, {b}) references an inactive file"
                    )
                if w is not None and not isfinite(w):
                    raise ValidationError(f"stage {j}: {kind} ({a}, {b}) is not finite")
                if w is not None and w < 0:
                    raise ValidationError(f"stage {j}: {kind} ({a}, {b}) is negative")

    pc = instance.problem_class
    if pc.alpha != 1 or pc.beta != 1:
        raise ValidationError(
            f"unsupported problem class ({pc.alpha}, {pc.beta}, {pc.gamma}): "
            "only one server with one channel is supported"
        )
    if pc.gamma != len(instance.disks):
        raise ValidationError(
            f"problem class names {pc.gamma} disks but the instance has "
            f"{len(instance.disks)}"
        )
    if instance.relocation_unit_cost < 0:
        raise ValidationError("relocation unit cost must be non-negative")

    total_capacity = sum(d.capacity for d in instance.disks)
    sizes = instance.sizes
    ever_active: set[int] = set()
    for stage in instance.stages:
        ever_active.update(stage.active_files)
    demand = sum(sizes[f] for f in ever_active)
    if demand > total_capacity:
        raise InfeasibleError(
            f"global capacity exceeded: active files need {demand} tracks, "
            f"disks offer {total_capacity}"
        )
    return instance
