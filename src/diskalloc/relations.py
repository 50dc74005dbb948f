"""Integrated file relations, communities, and file condensation.

A stage's precedence arcs and concurrency edges merge into one undirected
"integrated" relation; files linked by it want to sit on different disks.
Connected components of that relation are the communities the spreading
allocator works from. Components wider than the disk count are split by
repeatedly peeling low-degree members into sub-communities that fit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ValidationError
from .model import Pair, Stage, canonical_edge


@dataclass(frozen=True)
class IntegratedRelation:
    """Symmetric, irreflexive relation over a stage's active files."""

    edges: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset(canonical_edge(a, b) for a, b in self.edges)
        )

    def has_edge(self, a: int, b: int) -> bool:
        return canonical_edge(a, b) in self.edges

    @cached_property
    def _neighbours(self) -> dict[int, dict[int, int]]:
        """``{f: {g: 1}}`` for every edge (f, g), built on first use."""
        out: dict[int, dict[int, int]] = {}
        for a, b in self.edges:
            out.setdefault(a, {})[b] = 1
            out.setdefault(b, {})[a] = 1
        return out

    def adjacency(self, files: Iterable[int]) -> dict[int, frozenset[int]]:
        """Neighbour sets restricted to ``files``."""
        members = set(files)
        neighbours = self._neighbours
        return {f: frozenset(neighbours.get(f, {}).keys() & members) for f in sorted(members)}


def _related_pairs(stage: Stage) -> frozenset[Pair]:
    """The pairs that a stage relates, each in either direction: its
    explicit override when it carries one, else its precedence arcs and
    concurrency edges."""
    if stage.e3_override is not None:
        return stage.e3_override
    return stage.precedence | stage.concurrency


def integrate_relations(stage: Stage) -> IntegratedRelation:
    """Merge a stage's precedence and concurrency into one undirected relation.

    Stages carrying an explicit override use it verbatim instead.
    """
    return IntegratedRelation(_related_pairs(stage))


@dataclass(frozen=True)
class Community:
    """A group of mutually related files, kept apart by the allocator."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted({int(f) for f in self.members}))
        if not members:
            raise ValidationError("a community needs at least one member")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


def _peel(adjacency: Mapping[int, frozenset[int]], limit: int) -> list[tuple[int, ...]]:
    """Split the graph into pieces of at most ``limit`` members, sorted.

    Greedy peeling by (degree among the files not yet peeled, id), kept as
    one integer rank per file, degree times the file count plus the id's
    position: seed a piece with the least file, grow it by the least
    neighbour of the piece so far until it reaches the limit or has no
    neighbour left, then remove it and lower its neighbours' degrees.
    Seeds come from one min-heap of ranks; a file whose rank falls is
    pushed again, and entries that no longer match a rank are skipped.
    Degrees stay frozen while a piece grows. Pieces never cross
    components, and the least file of the whole graph is the least of its
    own component, so this peels each component as if it were alone; a
    component that fits becomes one piece. Keeps tightly linked files
    together as long as they fit.
    """
    n = len(adjacency)
    order = sorted(adjacency)
    rank = {f: len(adjacency[f]) * n + k for k, f in enumerate(order)}
    heap = sorted(rank.values())
    pieces: list[tuple[int, ...]] = []
    while heap:
        r = heapq.heappop(heap)
        f = order[r % n]
        if rank.get(f) != r:  # peeled already, or ranked lower since
            continue
        piece, frontier = {f}, set()
        while len(piece) < limit:
            frontier |= rank.keys() & adjacency[f]
            frontier -= piece
            if not frontier:
                break
            f = min(frontier, key=rank.__getitem__)
            piece.add(f)
        for f in piece:
            del rank[f]
        lowered = set()
        for f in piece:
            for g in adjacency[f]:
                if g in rank:
                    rank[g] -= n
                    lowered.add(g)
        for g in lowered:
            heapq.heappush(heap, rank[g])
        pieces.append(tuple(sorted(piece)))
    return sorted(pieces)


def split_oversized_component(
    component: tuple[int, ...], relation: IntegratedRelation, gamma: int
) -> list[Community]:
    """Break a component into communities no wider than the disk count."""
    if gamma < 1:
        raise ValidationError("need at least one disk to split against")
    component = tuple(sorted({int(f) for f in component}))
    if len(component) <= gamma:  # fits whole, even when disconnected
        return [Community(component)]
    return [Community(p) for p in _peel(relation.adjacency(component), gamma)]


def detect_communities(
    relation: IntegratedRelation, active: Iterable[int], gamma: int
) -> list[Community]:
    """Communities of the active files: components, split down to size gamma.

    Isolated files form singleton communities. The result is ordered by
    smallest member, which fixes the allocator's processing order.
    """
    if gamma < 1:
        raise ValidationError("need at least one disk to detect communities against")
    adjacency = relation.adjacency({int(f) for f in active})
    return [Community(p) for p in _peel(adjacency, gamma)]


@dataclass(frozen=True)
class Condensation:
    """Result of merging related files into representative super-files.

    ``stage`` is the rewritten stage over representatives. ``groups`` maps
    each representative that absorbed other files to the sorted tuple of
    original members; untouched files carry no entry. ``sizes`` gives the
    size of every file the rewritten stage mentions.
    """

    stage: Stage
    groups: Mapping[int, tuple[int, ...]]
    sizes: Mapping[int, int]

    def originals(self, rep: int) -> tuple[int, ...]:
        return self.groups.get(rep, (rep,))


def _merge_files(stage: Stage, rep: int, gone: int) -> Stage:
    """``stage`` with file ``gone`` relabelled ``rep``. Pairs that collapse
    onto one file drop out; probabilities of pairs that coincide add up."""

    def relabel(weights: Mapping[Pair, float]) -> dict[Pair, float]:
        out: dict[Pair, float] = {}
        for (a, b), w in weights.items():
            a, b = (rep if a == gone else a), (rep if b == gone else b)
            if a != b:
                out[(a, b)] = out.get((a, b), 0.0) + w
        return out

    def edges(pairs):
        return None if pairs is None else relabel(dict.fromkeys(pairs, 0.0))

    return Stage(
        index=stage.index,
        active_files=tuple(f for f in stage.active_files if f != gone),
        precedence=edges(stage.precedence),
        concurrency=edges(stage.concurrency),
        phi=None if stage.phi is None else relabel(stage.phi),
        e3_override=edges(stage.e3_override),
    )


def condense_files(stage: Stage, sizes: Mapping[int, int], threshold: int) -> Condensation:
    """Repeatedly merge the cheapest related file pair that fits the threshold.

    Candidate pairs are edges of the integrated relation whose combined size
    stays within ``threshold`` tracks; the merge picked is the one with the
    smallest (combined size, low id, high id). The surviving representative
    is the smaller id. Relations and movement probabilities are relabelled
    onto representatives (probability rows and columns add up; the diagonal
    is dropped). Stops when no candidate remains.
    """
    if threshold < 1:
        raise ValidationError("condensation threshold must be positive")

    cur_sizes = {int(f): int(sizes[f]) for f in stage.active_files}
    groups: dict[int, list[int]] = {f: [f] for f in cur_sizes}
    while True:
        candidates = [
            (cur_sizes[a] + cur_sizes[b], a, b)
            for a, b in integrate_relations(stage).edges
            if cur_sizes[a] + cur_sizes[b] <= threshold
        ]
        if not candidates:
            break
        _, rep, gone = min(candidates)  # integrated edges run (low, high)
        groups[rep] = sorted(groups[rep] + groups.pop(gone))
        cur_sizes[rep] += cur_sizes.pop(gone)
        stage = _merge_files(stage, rep, gone)

    return Condensation(
        stage=stage,
        groups={f: tuple(g) for f, g in sorted(groups.items()) if len(g) > 1},
        sizes=dict(sorted(cur_sizes.items())),
    )


def expand_allocation(alloc: "Allocation", cond: Condensation) -> "Allocation":
    """Map an allocation of representatives back onto the original files.

    Every original member of a merged group lands on its representative's
    disk, so merged files always co-locate. A track ordering, if present,
    expands each representative in place to its members ascending.
    """
    from .model import Allocation

    assignment: dict[int, int] = {}
    for rep, disk in alloc.assignment.items():
        for f in cond.originals(rep):
            assignment[f] = disk
    ordering = None
    if alloc.ordering is not None:
        ordering = {
            d: tuple(f for rep in seq for f in cond.originals(rep))
            for d, seq in alloc.ordering.items()
        }
    return Allocation(assignment, ordering=ordering, degraded=alloc.degraded)
