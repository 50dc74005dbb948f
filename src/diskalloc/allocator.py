"""Single-stage allocation: objective, the least-connection seed, local
search, exact enumeration, the paper's spreading heuristic, and
feasibility checking.

A heuristic stage solve seeds by least connection, the greedy Max-k-Cut
seed, then runs local search. It builds the stage's ``PairWeights`` once,
straight from the stage's pairs, and one connection table: ``_Placement``
seeds the files it is given no disk for, and local search descends on it.
Community spreading (``spread_allocate`` over ``detect_communities``)
remains the paper's scheme, on no solve path; one rule picks each
member's disk.

All tie-breaks run ascending file id then ascending disk id, so every entry
point is deterministic for a given input. Files outside the stage's active
set may appear in an assignment (they keep their spot from an earlier
stage); they contribute nothing to the objective and are never moved.

Budgeted restructuring takes every placement, the stage's weights and the
reading of a previous allocation (``_held``) from here. Exact
restructuring and ``exact_solve`` share one branch-and-bound, which sums
the loads of the files it keeps fixed from those files; greedy
restructuring is ``_Placement``'s best-improvement descent over local
search's move/swap neighbourhood, on a ``_Placement`` that seeds the
files new to a stage by least connection, as a heuristic solve does.
Exact restructuring starts its search from greedy's placement, and its
reference is ``_optimum``'s value, found on the same weights by
``exact_solve``'s value search, cutting every subtree that only ties.
The value searches leave the groups of files on the disks without a fixed
file unlabelled and fit them largest group to largest disk.
The searches run on ``PairWeights``' exact integer weights, so a gain is
a negative delta and a tie is equality; each objective they return is one
division by the weights' ``scale``.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from decimal import Decimal
from math import lcm
from operator import le
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EnumerationCapError, InfeasibleError, InternalError, ValidationError
from .model import Allocation, CostModel, Instance, Pair, Stage, canonical_edge
from .relations import Community, _related_pairs

log = logging.getLogger(__name__)

# Exact search is exponential in the active file count; past this many files
# callers must opt in explicitly.
EXACT_CAP_DEFAULT = 12

# The branch-and-bound refuses to enter more search nodes than this.
_NODE_BUDGET = 5_000_000

# Local search gives up after this multiple of n^2 evaluations, as _Placement.bound charges them.
_LOCAL_SEARCH_EVAL_FACTOR = 10


class PairWeights:
    """Interference weight of every unordered file pair of one stage, as an
    exact integer in units of ``1 / scale``, so sums are exact in any order.

    Uniform convention: weight 1 on each pair the stage relates, its
    override or else its precedence arcs and concurrency edges, set in
    both directions in one pass over them. Explicit movement
    probabilities: each entry is the decimal its float prints as, the two
    ordered entries of a pair add up on its unordered edge, whether or not
    the stage relates the pair, and ``scale`` is the lcm of the entries'
    denominators, 1000 for 3-decimal ``phi``.

    The weights index the files they weigh once: ``files`` lists, ascending,
    the stage's active files and any other file a weighted pair names (an
    unvalidated stage may pair an inactive file), ``position`` maps each to
    its index there, and ``links[i]`` maps ``j`` to the weight between
    ``files[i]`` and ``files[j]``, for each pair of non-zero weight.
    """

    def __init__(self, stage: Stage):
        self.scale = 1
        if stage.phi is None:
            edges = _related_pairs(stage)
        else:
            ratios = {w: Decimal(repr(w)).as_integer_ratio() for w in set(stage.phi.values())}
            self.scale = lcm(*(den for _, den in ratios.values()))
            scaled = {w: num * (self.scale // den) for w, (num, den) in ratios.items()}
            sums: dict[Pair, int] = {}
            for (a, b), w in stage.phi.items():
                edge = canonical_edge(a, b)
                sums[edge] = sums.get(edge, 0) + scaled[w]
            edges = {edge: w for edge, w in sums.items() if w}
        try:
            self._index(stage.active_files, edges)
        except KeyError:
            # An unvalidated stage may pair a file that it does not activate.
            self._index(sorted(set(stage.active_files).union(*edges)), edges)

    def _index(self, files: Sequence[int], edges: Iterable[Pair] | Mapping[Pair, int]) -> None:
        """Number ``files`` and link each pair of ``edges``, weight 1 each
        or the weight that ``edges`` maps it to; KeyError for a pair that
        names a file not in ``files``."""
        self.files = list(files)
        self.position = position = {f: i for i, f in enumerate(files)}
        self.links: list[dict[int, int]] = [{} for _ in files]
        links = self.links
        if isinstance(edges, Mapping):
            for (a, b), w in edges.items():
                i, j = position[a], position[b]
                links[i][j] = links[j][i] = w
        else:
            for a, b in edges:
                i, j = position[a], position[b]
                links[i][j] = links[j][i] = 1

    def attach_cost(self, f: int, others: Iterable[int]) -> int:
        """Cost added by placing ``f`` next to ``others`` on one disk."""
        position = self.position
        i = position.get(f)
        if i is None:
            return 0
        link = self.links[i]
        return sum(link[j] for j in map(position.get, others) if j in link)


@dataclass(frozen=True)
class ObjectiveTerm:
    """One same-disk pair's contribution to the objective."""

    pair: Pair
    weight: float
    cost: float

    @property
    def contribution(self) -> float:
        return self.weight * self.cost


@dataclass(frozen=True)
class ObjectiveReport:
    value: float
    terms: tuple[ObjectiveTerm, ...]


def _ordered_positions(
    alloc: Allocation, files: Iterable[int], sizes: Mapping[int, int]
) -> dict[int, float]:
    """Track midpoint of each file under the allocation's disk orderings."""
    if alloc.ordering is None:
        raise ValidationError("ordered-distance costs need a track ordering")
    needed = set(files)
    positions: dict[int, float] = {}
    seen: set[int] = set()
    for disk in sorted(alloc.ordering):
        offset = 0
        for f in alloc.ordering[disk]:
            if f in seen:
                raise ValidationError(f"file {f} is ordered on more than one disk")
            seen.add(f)
            if f not in sizes:
                raise ValidationError(f"ordered file {f} has no size")
            if f in needed and alloc.assignment.get(f) != disk:
                raise ValidationError(
                    f"file {f} is ordered on disk {disk} but assigned to "
                    f"disk {alloc.assignment.get(f)}"
                )
            positions[f] = offset + sizes[f] / 2.0
            offset += sizes[f]
    missing = needed - set(positions)
    if missing:
        raise ValidationError(
            f"track ordering is missing active files: {sorted(missing)}"
        )
    return positions


def evaluate_objective(
    alloc: Allocation,
    stage: Stage,
    model: CostModel = CostModel.UNIFORM,
    sizes: Optional[Mapping[int, int]] = None,
) -> ObjectiveReport:
    """Head-movement objective of an allocation at one stage.

    The assignment must cover the stage's active files; entries for other
    files are ignored, and a pair with a file it leaves out, which an
    unvalidated stage may name, costs nothing. Under the uniform cost model
    each same-disk related pair costs its weight; under the ordered-distance
    model the cost of a pair is the distance between the two files' track
    midpoints, which requires the allocation to carry an ordering and
    ``sizes`` to be given.
    The value is a float; under the uniform model it is the exact sum of
    ``PairWeights``' integers, divided once by their ``scale``.
    """
    model = CostModel(model)
    active = stage.active_set
    missing = active - set(alloc.assignment)
    if missing:
        raise ValidationError(f"assignment is missing active files: {sorted(missing)}")

    weights = PairWeights(stage)
    positions: Optional[dict[int, float]] = None
    if model is CostModel.ORDERED_DISTANCE:
        if sizes is None:
            raise ValidationError("ordered-distance costs need file sizes")
        positions = _ordered_positions(alloc, active, sizes)

    # Positions ascend with file ids, so walking each file's later
    # neighbours in index order lists the same-disk pairs ascending. An
    # unplaced file shares no disk, not even with another unplaced one.
    files, scale = weights.files, weights.scale
    disk_of = [alloc.assignment.get(f) if link else None for f, link in zip(files, weights.links)]
    terms: list[ObjectiveTerm] = []
    psi = 0
    for i, (a, d, link) in enumerate(zip(files, disk_of, weights.links)):
        if d is None:
            continue
        for j in sorted([j for j in link if j >= i and disk_of[j] == d]):
            b, w = files[j], link[j]
            psi += w
            try:
                cost = 1.0 if positions is None else abs(positions[a] - positions[b])
            except KeyError as err:
                raise ValidationError(f"track ordering is missing file {err.args[0]}") from None
            terms.append(ObjectiveTerm((a, b), w / scale, cost))
    value = psi / scale if positions is None else sum(t.contribution for t in terms)
    return ObjectiveReport(value=float(value), terms=tuple(terms))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]


def check_allocation_feasible(
    alloc: Allocation, stage: Stage, instance: Instance
) -> FeasibilityReport:
    """Capacity and coverage check of an allocation at one stage."""
    violations: list[str] = []
    sizes = instance.sizes
    capacities = instance.capacities

    for f in stage.active_files:
        if f not in alloc.assignment:
            violations.append(f"active file {f} is not assigned to any disk")
    for f, d in alloc.assignment.items():
        if f not in sizes:
            violations.append(f"assigned file {f} does not exist")
        if d not in capacities:
            violations.append(f"file {f} is assigned to unknown disk {d}")

    loads: dict[int, int] = {}
    for f, d in alloc.assignment.items():
        if f in sizes and d in capacities:
            loads[d] = loads.get(d, 0) + sizes[f]
    for d in sorted(loads):
        if loads[d] > capacities[d]:
            violations.append(
                f"disk {d} holds {loads[d]} tracks, capacity is {capacities[d]}"
            )

    if alloc.ordering is not None:
        seen: set[int] = set()
        for d in sorted(alloc.ordering):
            if d not in capacities:
                violations.append(f"track ordering names unknown disk {d}")
                continue
            for f in alloc.ordering[d]:
                if f in seen:
                    violations.append(f"file {f} is ordered on more than one disk")
                seen.add(f)
                if f not in alloc.assignment:
                    violations.append(f"file {f} is ordered on disk {d} but not assigned")
                elif alloc.assignment[f] != d:
                    violations.append(
                        f"file {f} is ordered on disk {d} but assigned to "
                        f"disk {alloc.assignment[f]}"
                    )

    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def _pinned_loads(
    pinned: Mapping[int, int], sizes: Mapping[int, int], capacities: Mapping[int, int]
) -> dict[int, int]:
    """The tracks ``pinned`` fills on every disk. Raises ValidationError
    for a pin that names a file or disk the instance lacks, and
    InfeasibleError when the pins overfill a disk."""
    loads = {d: 0 for d in capacities}
    for f, d in pinned.items():
        if d not in capacities:
            raise ValidationError(f"pinned file {f} sits on unknown disk {d}")
        if f not in sizes:
            raise ValidationError(f"pinned file {f} does not exist")
        loads[d] += sizes[f]
    for d, used in loads.items():
        if used > capacities[d]:
            raise InfeasibleError(
                f"pinned files overfill disk {d}: {used} tracks of {capacities[d]}"
            )
    return loads


def _held(
    stage: Stage, previous: Optional[Allocation], instance: Instance
) -> tuple[dict[int, int], dict[int, int]]:
    """(files, loads): the files of ``previous`` inactive in ``stage``, each
    on its disk, and the tracks they fill on every disk. Raises
    ValidationError for an entry, active or not, that names a file or disk
    the instance lacks, and InfeasibleError when they overfill a disk."""
    sizes, capacities = instance.sizes, instance.capacities
    active = stage.active_set
    held: dict[int, int] = {}
    loads = dict.fromkeys(capacities, 0)
    for f, d in previous.assignment.items() if previous is not None else ():
        if f not in sizes:
            raise ValidationError(f"previous allocation names unknown file {f}")
        if d not in capacities:
            raise ValidationError(f"previous allocation puts file {f} on unknown disk {d}")
        if f not in active:
            held[f] = d
            loads[d] += sizes[f]
    if any(loads[d] > capacities[d] for d in loads):
        raise InfeasibleError("previous allocation infeasible for stage")
    return held, loads


def _check_cost_model(instance: Instance) -> None:
    """Raise ValidationError unless ``instance`` prices uniform costs: the
    solvers optimize those alone and lay out no tracks."""
    if instance.cost_model is not CostModel.UNIFORM:
        raise ValidationError(
            "ordered-distance instances can only be evaluated: the solvers "
            "optimize uniform costs and produce no track ordering"
        )


def _check_active(stage: Stage, instance: Instance) -> None:
    """Raise ValidationError, as ``_check_cost_model`` does, for an instance
    the solvers cannot optimize, and, in ``validate_instance``'s wording,
    for an active file of ``stage`` that the instance lacks."""
    _check_cost_model(instance)
    for f in stage.active_files:
        if f not in instance.sizes:
            raise ValidationError(f"stage {stage.index}: active file {f} does not exist")


# No solve path calls spread_allocate, yet it stays in this module, as
# PairWeights.attach_cost does: bench/tracing.py wraps
# allocator.spread_allocate and PairWeights.attach_cost by those names.
def spread_allocate(
    communities: Sequence[Community],
    instance: Instance,
    stage: Stage,
    previous: Optional[Allocation] = None,
    *,
    pinned: Optional[Mapping[int, int]] = None,
) -> Allocation:
    """Place each community's files on pairwise distinct disks.

    Communities are handled in the given order, members ascending; each
    member goes, among the disks it fits, to one its community has not
    used yet, then to the one with the most room left, then to the lowest
    disk id. When the disk it gets was already used by its community, the
    result is flagged degraded. Raises InfeasibleError when some member
    fits no disk at all.

    The files of ``pinned``, or else those of ``previous`` inactive in
    ``stage``, keep their disks; ``_held`` reads ``previous``, checks all
    its entries and rejects held files that overfill a disk.
    """
    sizes = instance.sizes
    capacities = instance.capacities
    if pinned is None:
        fixed, loads = _held(stage, previous, instance)
    else:
        fixed, loads = pinned, _pinned_loads(pinned, sizes, capacities)

    assignment: dict[int, int] = dict(fixed)
    degraded = False
    disks = sorted(capacities)

    for community in communities:
        used: set[int] = set()
        for f in community.members:
            if f in assignment:
                raise ValidationError(f"file {f} is already placed")
            size = sizes.get(f)
            if size is None:
                raise ValidationError(f"file {f} does not exist")

            fits = [d for d in disks if loads[d] + size <= capacities[d]]
            if not fits:
                raise InfeasibleError(f"file {f} ({size} tracks) fits on no disk")
            best = max(fits, key=lambda d: (d not in used, capacities[d] - loads[d], -d))
            degraded = degraded or best in used
            assignment[f] = best
            loads[best] += size
            used.add(best)

    return Allocation(assignment, degraded=degraded)


def _connection_tables(
    files: Sequence[int],
    placed: Mapping[int, int],
    disks: Sequence[int],
    weights: PairWeights,
) -> tuple[list[list[int]], list[dict[int, int]], int]:
    """(rows, links, psi) of ``files``, built in O(E) from the weights'
    links: ``rows[i][s]`` is the summed weight from ``files[i]`` to the
    files that ``placed`` puts on disk ``disks[s]``, ``links[i]`` maps j to
    the weight of each neighbour ``files[j]``, and ``psi`` is the objective
    of ``placed``, the weight of each pair on one disk, once; all in the
    weights' integer units. Where ``files`` are the weights' own ``files``,
    ``links`` are the weights' own links; a subset, such as the files left
    when some are pinned, gets them re-keyed to its positions.
    Only linked files count: an inactive file, which ``validate_instance``
    leaves unlinked, only fills its disk."""
    position, own, named = weights.position, weights.links, weights.files
    index = {position[f]: i for i, f in enumerate(files)}
    if list(files) == named:
        links = own
    else:
        links = [{index[q]: w for q, w in own[position[f]].items() if q in index} for f in files]
    slot_of = {d: s for s, d in enumerate(disks)}
    rows = [[0] * len(disks) for _ in files]
    psi = 0
    for g, d in placed.items():
        p = position.get(g)
        if p is None:
            continue
        s = slot_of[d]
        for q, w in own[p].items():
            if q > p and placed.get(named[q]) == d:
                psi += w
            i = index.get(q)
            if i is not None:
                rows[i][s] += w
    return rows, links, psi


class _Placement:
    """Mutable placement of ``files`` beside the other files of
    ``assignment``, searched by moving and swapping ``files``.

    Numbers the disks ascending as slots, ``disks[s]``, and holds the
    searched files' slots, ``disk_of[i]`` for ``files[i]``, and ``homes``
    as ``home_of[i]``, the loads and capacities as lists by slot, the
    table rows below, and ``psi``, the objective of the placement; the
    other files of ``assignment`` stay fixed. Steps name disk ids,
    as they are yielded, applied and charged, so slots stay inside.
    Once the tables are built, only ``place`` and ``unplace`` change
    ``disk_of``, the loads, the rows and ``psi``; ``apply`` takes a step
    through them, so ``psi`` stays exact after every step.
    Only linked files count: an inactive file, which ``validate_instance``
    leaves unlinked, only fills its disk. Every file starts on its entry
    in ``homes``, if it has one, and counts as moved while it sits
    elsewhere; no step may leave more than ``allowance`` files moved.

    ``rows[i][s]`` is the summed weight from ``files[i]`` to the files on
    slot ``s`` (Kernighan and Lin's gain bookkeeping). One
    ``_connection_tables`` call builds the rows over the fixed files, then
    ``place`` puts each searched file on its slot in O(deg): first the
    files that ``assignment`` gives a disk, then the rest by least
    connection (see ``__init__``), so the table costs O(E + n·k) and every
    file is placed before any step is scanned.
    Evaluating a step costs O(1). Applying one costs O(deg) per moved
    file, and so does keeping each file's ``gain``, ``rows[i][disk_of[i]]
    - min(rows[i])``, the most a move of ``files[i]`` can save,
    and ``discontent``, the positions whose gain is positive, the way
    Fiduccia and Mattheyses keep their gain buckets.
    The table holds ``PairWeights``' integers, so every delta is exact.
    No step's delta can get below its floor:

    - A move of ``files[i]``: ``-gain[i]``, since its new entry is at
      least the least of its row.
    - A swap of a and b: ``-(gain[a] + gain[b] + 2·w_ab)``. The delta is
      ``rows[a][db] + rows[b][da] - rows[a][da] - rows[b][db] - 2·w_ab``,
      and ``rows[a][db]`` and ``rows[b][da]`` are at least the least of
      their rows.
    - The same swap: ``-(rows[a][da] + rows[b][db])``, their own entries,
      since each of ``rows[a][db]`` and ``rows[b][da]`` sums ``w_ab`` with
      other non-negative weights. Two settled files, whose own entries
      are 0, never gain by a swap.

    The scan yields only records, the steps whose delta is below every
    delta yielded before them, and skips every step whose floor cannot get
    below the last record, or below 0 before the first.
    """

    def __init__(
        self,
        assignment: Mapping[int, int],
        files: Sequence[int],
        instance: Instance,
        weights: PairWeights,
        homes: Mapping[int, Optional[int]],
        allowance: int,
    ):
        """Place every file of ``files``: each that ``assignment`` gives a
        disk on that disk, and the rest by least connection, the greedy
        Max-k-Cut seed of Sahni and Gonzalez (1976). Those go largest
        first, then by linked neighbours, placed or not, most first (Welsh
        and Powell), then by id; each to the disk it fits with the least
        summed weight to the files already placed, the fixed and given ones
        from the start, ties to the lowest disk id: its own table row, whose
        least entry it tries first. Where capacity never binds, each file
        pays at most 1/k of its weight to the files before it, so at most
        1/k of the weight it places shares a disk. When a file fits no
        disk, the files placed by least connection are taken back and all
        of them are placed best fit decreasing instead, or else packed by
        ``_pack`` (see ``_best_fit_decreasing``). Every file is
        then classified once."""
        self.files = files
        self.disks = sorted(instance.capacities)
        self.slot_of = slot_of = {d: s for s, d in enumerate(self.disks)}
        self.capacities = [instance.capacities[d] for d in self.disks]
        self.homes = homes
        self.allowance = allowance
        self.scale = weights.scale
        self.moved = 0
        self.position = {f: i for i, f in enumerate(files)}
        self.fixed = {f: d for f, d in assignment.items() if f not in self.position}
        self.loads = [0] * len(self.disks)
        for f, d in self.fixed.items():
            self.loads[slot_of[d]] += instance.sizes[f]
        self.rows, self.links, self.psi = _connection_tables(files, self.fixed, self.disks, weights)
        self.disk_of: list[Optional[int]] = [None] * len(files)
        self.size_of = [instance.sizes[f] for f in files]
        self.home_of = [slot_of.get(homes.get(f)) for f in files]
        # later[i]: positions of files[i]'s neighbours after it, ascending,
        # filled in the order of j.
        self.later: list[list[int]] = [[] for _ in files]
        for j, link in enumerate(self.links):
            for i in link:
                if i < j:
                    self.later[i].append(j)
        self.gain = [0] * len(files)
        self.discontent: set[int] = set()
        unplaced = []
        for i, f in enumerate(files):
            if f in assignment:
                self.place(i, slot_of[assignment[f]])
            else:
                unplaced.append(i)
        links, position, size_of = weights.links, weights.position, self.size_of
        unplaced.sort(key=lambda i: (-size_of[i], -len(links[position[files[i]]]), files[i]))
        loads, rows, capacities = self.loads, self.rows, self.capacities
        slots = range(len(capacities))
        for seeded, i in enumerate(unplaced):
            size, row = size_of[i], rows[i]
            s = row.index(min(row))
            if loads[s] + size > capacities[s]:
                fits = [s for s in slots if loads[s] + size <= capacities[s]]
                if not fits:
                    for j in unplaced[:seeded]:
                        self.unplace(j)
                    self._best_fit_decreasing(unplaced)
                    break
                s = min(fits, key=row.__getitem__)
            self.place(i, s)
        self._classify(range(len(files)))

    @property
    def assignment(self) -> dict[int, int]:
        """Every file's disk, the fixed files' and the searched files'."""
        disks = self.disks
        return {**self.fixed, **{f: disks[s] for f, s in zip(self.files, self.disk_of)}}

    def place(self, i: int, s: int) -> None:
        """Put the unplaced ``files[i]`` on slot ``s``, in O(deg): its own
        entry there joins ``psi``, and its weight joins its neighbours'
        entries for ``s``."""
        self.disk_of[i] = s
        self.loads[s] += self.size_of[i]
        rows = self.rows
        self.psi += rows[i][s]
        for j, w in self.links[i].items():
            rows[j][s] += w

    def unplace(self, i: int) -> None:
        """Take ``files[i]`` back off its slot, undoing ``place``."""
        s = self.disk_of[i]
        self.disk_of[i] = None
        self.loads[s] -= self.size_of[i]
        rows = self.rows
        self.psi -= rows[i][s]
        for j, w in self.links[i].items():
            rows[j][s] -= w

    def _best_fit_decreasing(self, unplaced: Sequence[int]) -> None:
        """Place ``unplaced``, which come largest first, each in turn on the
        disk it fits with the least room left, ties to the lowest disk id.
        Where a file fits no disk, the files placed so are taken back and
        ``_pack`` places them, largest first, then by id, in the room the
        files already placed leave; raises InfeasibleError for that file
        when it finds no packing within its node budget. It raises so before
        any search where no packing can exist: where the disks' free room
        is less than the tracks of ``unplaced``, or where ``unplaced`` holds
        more files than the disks take of its smallest, each disk its room
        over that size, rounded down."""
        loads, capacities, size_of = self.loads, self.capacities, self.size_of
        slots = range(len(loads))
        for placed, i in enumerate(unplaced):
            size = size_of[i]
            room = [capacities[s] - loads[s] for s in slots]
            fits = [(room[s], s) for s in slots if room[s] >= size]
            if not fits:
                for j in unplaced[:placed]:
                    self.unplace(j)
                refusal = InfeasibleError(f"file {self.files[i]} ({size} tracks) fits on no disk")
                room = [capacities[s] - loads[s] for s in slots]
                sizes = [size_of[j] for j in unplaced]
                least = min(sizes)
                if sum(room) < sum(sizes) or least and len(sizes) > sum(r // least for r in room):
                    raise refusal
                order = sorted(unplaced, key=lambda j: (-size_of[j], self.files[j]))
                try:
                    found = _pack([size_of[j] for j in order], room)
                except EnumerationCapError:
                    found = None
                if found is None:
                    raise refusal
                for j, s in zip(order, found):
                    self.place(j, s)
                return
            self.place(i, min(fits)[1])

    def _classify(self, positions: Iterable[int]) -> None:
        """Set the ``gain`` of each of ``positions`` and put it in or out
        of ``discontent``."""
        rows, disk_of, discontent, gain = self.rows, self.disk_of, self.discontent, self.gain
        for i in positions:
            row = rows[i]
            gain[i] = g = row[disk_of[i]] - min(row)
            if g:
                discontent.add(i)
            else:
                discontent.discard(i)

    def neighbourhood(self) -> Iterator[tuple[int, tuple[tuple[int, int], ...], int]]:
        """The records of the scan, in scan order, as (objective delta in
        the weights' units, step, files moved after it): each step whose
        delta is below 0 and below every delta yielded before it. The first
        record is the first step that gains, the last the first step that
        gains most.

        The scan order covers every capacity- and allowance-feasible step:
        single-file moves (file ascending, then disk ascending), then pair
        swaps (pair-lexicographic). A step lists (file, new disk). The
        generator must not be resumed after apply.

        It visits only the steps whose floor (see the class docstring) is
        below ``bar``, the last delta yielded or 0: the moves of the files
        whose gain exceeds ``-bar``, and for each i, with ``need = -bar -
        gain[i]``, the swaps with every later file if ``need < 0``, else
        with its later neighbours and the later files whose gain exceeds
        ``need``. With ``homes`` set and fewer than two moves left, a swap
        of two files at home would move both, so a file at home pairs only
        with those of them that are off their homes or have none. Where
        ``cut = -bar - rows[i][disk_of[i]]`` is at least 0, i pairs only
        with those whose own entry exceeds ``cut``; where ``need < 0``,
        ``cut`` is below 0. The steps yielded stay the same.
        """
        loads, rows, capacities, disks = self.loads, self.rows, self.capacities, self.disks
        files, disk_of, size_of, home_of = self.files, self.disk_of, self.size_of, self.home_of
        allowance, moved = self.allowance, self.moved
        homes, gain = self.homes, self.gain
        slots = range(len(disks))
        worried = sorted(self.discontent)
        bar = 0
        for i in worried:
            if gain[i] <= -bar:
                continue
            src, home, size, row = disk_of[i], home_of[i], size_of[i], rows[i]
            detach = row[src]
            for dst in slots:
                if dst == src or loads[dst] + size > capacities[dst]:
                    continue
                after = moved
                if home is not None:
                    after += (dst != home) - (src != home)
                    if after > allowance:
                        continue
                delta = row[dst] - detach
                if delta < bar:
                    bar = delta
                    yield delta, ((files[i], disks[dst]),), after

        links, later_of = self.links, self.later
        free = [capacities[s] - loads[s] for s in slots]
        n = len(files)
        cost = [row[s] for row, s in zip(rows, disk_of)]
        # hot: the discontent files whose gain exceeds -hot_bar, the partners
        # of a file with no gain while the bar is hot_bar.
        hot, hot_bar = worried, 0
        # roaming: the files off their homes or with none, where a file at
        # home may find its only partners (see above).
        roaming = None
        if homes and allowance - moved < 2:
            roaming = [j for j in range(n) if disk_of[j] != home_of[j]]
        for i in range(n - 1):
            need = -bar - gain[i]
            if roaming is not None and disk_of[i] == home_of[i]:
                later = roaming[bisect_right(roaming, i):]
                if need >= 0:
                    link_a = links[i]
                    later = [j for j in later if j in link_a or gain[j] > need]
            elif need < 0:
                later = range(i + 1, n)
            else:
                if gain[i]:
                    rivals = [j for j in worried[bisect_right(worried, i):] if gain[j] > need]
                else:
                    if hot_bar != bar:
                        hot, hot_bar = [j for j in hot if gain[j] > need], bar
                    rivals = hot[bisect_right(hot, i):]
                later = later_of[i]
                if rivals:
                    later = sorted(set(later).union(rivals)) if later else rivals
            cut = -bar - cost[i]
            if cut >= 0:
                later = [j for j in later if cost[j] > cut]
            if not later:
                continue
            da, size_a, ha, row_a, link_a = disk_of[i], size_of[i], home_of[i], rows[i], links[i]
            room_a = free[da] + size_a
            for j in later:
                db = disk_of[j]
                if db == da or size_of[j] > room_a or size_a > free[db] + size_of[j]:
                    continue
                after = moved
                if homes:
                    hb = home_of[j]
                    if ha is not None:
                        after += (db != ha) - (da != ha)
                    if hb is not None:
                        after += (da != hb) - (db != hb)
                    if after > allowance:
                        continue
                w_ab = link_a.get(j, 0)
                row_b = rows[j]
                delta = row_a[db] - w_ab + row_b[da] - w_ab - row_a[da] - row_b[db]
                if delta < bar:
                    bar = delta
                    yield delta, ((files[i], disks[db]), (files[j], disks[da])), after

    def bound(self, step: tuple[tuple[int, int], ...] = ()) -> int:
        """The evaluations local search charges a scan, in O(1): the moves
        and pairs of files that it passes up to and including ``step``, or
        all of them when ``step`` is empty, feasible or not, where a move of
        ``files[i]`` brings in all k - 1 of that file's moves."""
        n, moves = len(self.files), len(self.disks) - 1
        if not step:
            return n * moves + n * (n - 1) // 2
        i = self.position[step[0][0]]
        if len(step) == 1:
            return (i + 1) * moves
        j = self.position[step[1][0]]
        return n * moves + i * (2 * n - i - 1) // 2 + (j - i)

    def steepest_descent(self) -> tuple[dict[int, int], float]:
        """(assignment, objective) after best-improvement descent: while a
        step gains, take the one that gains most, the first in scan order,
        which is the scan's last record."""
        while True:
            best = None
            for best in self.neighbourhood():
                pass
            if best is None:
                return self.assignment, self.psi / self.scale
            self.apply(best[1], best[2])

    def apply(self, step: tuple[tuple[int, int], ...], moved: int) -> None:
        """Take ``step``, after which ``moved`` files sit off their homes:
        each of its files is unplaced and placed on its new disk."""
        self.moved = moved
        links, touched = self.links, set()
        for f, d in step:
            i = self.position[f]
            self.unplace(i)
            self.place(i, self.slot_of[d])
            touched.add(i)
            touched.update(links[i])
        self._classify(touched)


def local_search(
    alloc: Allocation,
    stage: Stage,
    instance: Instance,
    *,
    pinned: Optional[Mapping[int, int]] = None,
) -> tuple[Allocation, float]:
    """First-improvement descent over single-file moves and pair swaps.

    Only the stage's active files move; any other assigned file acts as a
    capacity-consuming fixture. Scanning order is file ascending then disk
    ascending for moves, pair-lexicographic for swaps, restarting after
    every accepted step, so the result is deterministic. Deltas are exact
    on ``PairWeights``' integers, so any gain counts, and only steps that
    can gain have their delta computed, each in O(1) from ``_Placement``'s
    connection table (see ``_Placement.neighbourhood``); each accepted
    step costs O(deg) per moved file. Evaluations are capped at 10 n^2:
    each move and each pair that a scan passes, feasible or not, a move
    charged with its file's k - 1 moves (see ``_Placement.bound``). Where
    a scan passes the cap before its gaining step, the descent stops
    there, logs a warning and returns the allocation it holds.
    Raises ValidationError, as ``exact_solve`` does, for an instance whose
    cost model is not uniform or an active file the instance lacks,
    InfeasibleError for an infeasible ``alloc``, and ValidationError when
    a file of ``pinned`` is not on its pinned disk in ``alloc``.
    """
    _check_active(stage, instance)
    report = check_allocation_feasible(alloc, stage, instance)
    if not report.feasible:
        raise InfeasibleError("; ".join(report.violations))
    fixed = pinned or {}
    for f, d in fixed.items():
        if alloc.assignment.get(f) != d:
            raise ValidationError(f"pinned file {f} is not on disk {d} in the allocation")
    movable = [f for f in stage.active_files if f not in fixed]
    state = _Placement(alloc.assignment, movable, instance, PairWeights(stage), {}, 0)
    assignment, psi = _local_search(state)
    return Allocation(assignment, degraded=alloc.degraded), psi


def _local_search(state: _Placement) -> tuple[dict[int, int], float]:
    """(assignment, objective): ``local_search`` of the feasible placement
    ``state``, built with no homes, under uniform costs."""
    cap = _LOCAL_SEARCH_EVAL_FACTOR * len(state.files) ** 2
    evals = 0
    while True:
        # A scan passes bound(step) - 1 evaluations before its gaining step,
        # or bound() when none gains; once a scan that passes some brings
        # the total to the cap, the descent stops without the step.
        _, step, moved = next(state.neighbourhood(), (0, (), 0))
        passed = state.bound(step) - (1 if step else 0)
        evals += passed
        if passed and evals >= cap:
            log.warning("local search stopped at the evaluation cap (%d evaluations)", cap)
            break
        if not step:
            break
        state.apply(step, moved)
        evals += 1
    return state.assignment, state.psi / state.scale


def _pack(sizes: Sequence[int], room: Sequence[int]) -> Optional[list[int]]:
    """The lexicographically least packing of items of ``sizes``, which
    come largest first, into slots of ``room``, as the slot of each item,
    or None when none exists. Depth-first, slots ascending, so its first
    leaf is the least packing; it raises EnumerationCapError once it has
    entered more than ``_NODE_BUDGET`` nodes. Three prunes keep that
    packing, since it meets each of them:

    - An item tries, of the slots with equal room, only the lowest: were
      it on another, the two slots' items from it on could be swapped.
    - An item the size of the one before it takes no lower slot: the two
      could be swapped.
    - A placement that leaves less room on the slots that still fit the
      smallest item than the items after it fill is no node.
    """
    n = len(sizes)
    left = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        left[i] = left[i + 1] + sizes[i]
    room, least = list(room), sizes[-1]
    slots = len(room)
    chosen = [-1] * n
    i = nodes = 0
    while 0 <= i < n:
        size, s = sizes[i], chosen[i]
        if s >= 0:
            room[s] += size
        first = s + 1
        if i and sizes[i - 1] == size:
            first = max(first, chosen[i - 1])
        seen = set(room[:first])
        for s in range(first, slots):
            r = room[s]
            if r < size or r in seen:
                continue
            seen.add(r)
            room[s] = r - size
            if sum(x for x in room if x >= least) >= left[i + 1]:
                break
            room[s] = r
        else:
            chosen[i] = -1
            i -= 1
            continue
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise EnumerationCapError(f"packing search passed its budget of {_NODE_BUDGET} nodes")
        chosen[i] = s
        i += 1
    return chosen if i == n else None


def _suffix_floors(links: Sequence[Mapping[int, int]], k: int) -> list[int]:
    """``floors[i]``: a lower bound of the weight of the same-disk pairs
    among ``files[i:]`` over every split of them onto ``k`` disks, for
    ``links`` as ``_connection_tables`` gives them; ``floors[n]`` is 0.

    Any split of u files into k parts leaves at least T = r·C(q+1, 2) +
    (k - r)·C(q, 2) same-part pairs, with q, r = divmod(u, k) (Turán). Of
    the suffix's pairs, Z are unlinked and weigh 0, so the split pays for
    at least T - Z linked pairs, at least the sum of the T - Z smallest
    weights. One descending pass; it sorts only where T > Z, so a sparse
    stage costs O(n + E)."""
    n = len(links)
    floors = [0] * (n + 1)
    weights: list[int] = []
    for i in range(n - 1, -1, -1):
        weights.extend(w for j, w in links[i].items() if j > i)
        u = n - i
        # With no disk nothing fits, and any floor holds.
        q, r = divmod(u, max(k, 1))
        pairs = r * (q + 1) * q // 2 + (k - r) * q * (q - 1) // 2
        need = pairs - (u * (u - 1) // 2 - len(weights))
        if need > 0:
            weights.sort()
            floors[i] = sum(weights[:need])
    return floors


def _branch_and_bound(
    files: Sequence[int],
    fixed: Mapping[int, int],
    instance: Instance,
    weights: PairWeights,
    homes: Mapping[int, Optional[int]],
    allowance: int,
    incumbent: Optional[_Placement] = None,
    *,
    value: bool = False,
    one_split: bool = False,
    reach: Optional[int] = None,
) -> Optional[tuple[dict[int, int], float] | int | tuple[Optional[dict[int, int]], int]]:
    """Depth-first search over placements of ``files``, in the given order,
    beside the ``fixed`` ones; returns (assignment of the fixed and searched
    files, objective), or None when nothing fits. The ``fixed`` files fill
    their disks, as in ``_Placement``. Only linked files count: an
    inactive file, which ``validate_instance`` leaves unlinked, only fills
    its disk.

    A file counts as moved when it lands off its entry in ``homes``; at
    most ``allowance`` files may move. Minimizes (objective, moves,
    assignment vector), exactly on the weights' integers: disks are tried
    ascending, so the first optimum recorded is the lexicographically
    least. An ``incumbent``, a placement of the same files beside the same
    ``fixed`` ones on the same weights within the allowance, such as
    greedy restructuring's descent, starts the search with its objective
    as the value to tie or beat and ``allowance + 1`` as its move count:
    any placement that ties it within the allowance still beats it, so the
    result is the same least (objective, moves, assignment), found with
    fewer nodes. Prunes on capacity, on the allowance, on the partial
    objective once an incumbent exists, on symmetry (an empty disk that holds no
    pinned file and is home to no file still unplaced is interchangeable
    with such a disk of equal residual capacity tried before it), and on
    an admissible lower bound.

    A value search with no homes goes further and pools the slots that
    hold no ``fixed`` file, as bins whose groups of files go unlabelled:
    a file joins any non-empty pooled slot and opens only the first empty
    one it meets. A pooled placement fits when the pooled loads, sorted
    descending, are each no larger than the pooled capacities, sorted
    descending: some labelling puts every group on a disk that holds it
    exactly when the largest group to the largest disk, and so on down,
    does. A new load above the largest pooled capacity fails where the
    capacity test runs, and one no larger than the least keeps its
    parent's match; the loads in between are sorted, only for the
    children that pass the O(1) test below. A leaf's pooled slots
    name groups, not disks, and its objective is that of every labelling;
    ``_relabel`` turns it into the least one that fits. Reserved slots,
    the witness search and every search with homes test each slot
    against its own capacity.

    Two private modes split an optimum's search in two, each counting its
    own nodes against ``_NODE_BUDGET``. The value search, ``value``,
    returns the least objective alone, in the weights' integer units, or
    None: it takes the files heaviest first, by summed weight, then by id,
    each next file the one with the most weight to those before it, and
    tries each file's slots cheapest entry first, ties to the lower slot,
    so it meets low objectives early and cuts more. The witness search,
    ``reach``, takes that integer objective as its incumbent, to reach
    rather than beat, with ``allowance + 1`` as its move count, and
    returns the first leaf that it records: no ancestor of an optimal
    leaf has a floor above the optimum, so with the files in their given
    order and the slots ascending, that leaf is the lexicographically
    least optimum. A value search with ``one_split``, which must have no
    homes, also enters the nodes whose floor only ties the best objective
    while every leaf that ties it splits the files as the best leaf does:
    the same files on each reserved slot, one that holds a ``fixed`` file,
    and the same groups of files on the other slots, in any order. It
    returns (assignment, objective in integer units): the best leaf's
    assignment where that still holds at the end, else None. The first
    tie that splits differently stops the keeping of ties, and each better
    leaf starts it again: a node cut as a tie of an earlier best has a
    floor above the new one. So where it holds at the end, each split of
    the files was entered or cut as no optimum, every optimum relabels
    the pooled groups of the best leaf, and every optimum splits the
    files one way.

    The search numbers the disks ascending as slots 0..k-1 and keeps
    loads, capacities, homes and table rows as lists indexed by slot, so a
    placement hashes no disk id; slots turn back into disk ids only in the
    returned assignment. The bound keeps ``conn[i][s]``, the summed weight
    from ``files[i]`` to the files now on slot ``s`` (the connection
    table of ``_Placement``, as ``_connection_tables`` builds it), so
    placing a file costs one lookup. Each
    unplaced file adds at least its cheapest entry, ``low[i]``, because
    weights are non-negative and later placements only raise ``conn``.
    The pairs among the unplaced files add at least ``floors[i]`` (see
    ``_suffix_floors``); those edges are not yet in ``conn``, so the two
    parts count no edge twice. Capacity and the allowance are ignored,
    which only loosens the bound. A subtree is cut when partial objective
    plus the summed ``low`` of its unplaced files plus their floor fails
    the incumbent test: none of its leaves could be accepted, so cutting
    it changes no result. A child that places ``files[i]`` is tested
    first, in O(1) and before its placement raises any ``low`` entry:
    partial objective plus the ``low`` of ``files[i+1:]`` as they stand,
    each one's least weight to the files before ``files[i]``, plus
    ``floors[i]``, whose pairs include those of ``files[i]`` with later
    files. Its own entry counts only its weight to earlier files, so again
    no edge counts twice. A child cut there is no node: ``_NODE_BUDGET``
    counts only the children that pass.

    Where files have homes and fewer moves are allowed than there are
    homed files, a second bound prices the allowance. The completion that
    leaves each unplaced homed file at home and each new one on its
    cheapest slot costs ``stay``: the homed files' entries for their homes,
    the weight between unplaced files that share a home, and the new
    files' ``low``. Moving ``files[j]`` off home takes at most ``saving[j]``
    from that: its home entry less ``low[j]``, plus its weight to its
    unplaced homemates. At most r = allowance - moves more files move, so
    no completion costs less than ``stay`` less the r largest savings; an
    edge between two moved files is subtracted twice, which only loosens
    it. A child whose partial objective plus this bound fails the
    incumbent test is cut like any other node; the bound is
    skipped where r is at least the number of unplaced homed files.
    A layer over the placements keeps the savings and ``stay``'s excess
    over the summed ``low`` current in O(deg) per placement, with the
    unplaced homed files' savings in one sorted list, and restores them on
    backtrack. A search with no homes, or with moves to spare, runs
    without that layer.

    A loop over per-level generators, not recursion, runs the search, so
    any depth fits; past ``_NODE_BUDGET`` nodes it raises EnumerationCapError.
    """
    if value:
        # Each next file is the one with the most weight to those before it,
        # ties to the heaviest, then to the lowest id: weights.files ascend,
        # and so do their positions.
        own = weights.links
        ties = sorted(map(weights.position.__getitem__, files), key=lambda p: (-sum(own[p].values()), p))
        attached = dict.fromkeys(ties, 0)
        files = []
        while attached:
            p = max(attached, key=attached.__getitem__)
            del attached[p]
            files.append(weights.files[p])
            for q, w in own[p].items():
                if q in attached:
                    attached[q] += w
    sizes = [instance.sizes[f] for f in files]
    disks = sorted(instance.capacities)
    slot_of = {d: s for s, d in enumerate(disks)}
    capacities = [instance.capacities[d] for d in disks]
    loads = [0] * len(disks)
    for f, d in fixed.items():
        loads[slot_of[d]] += instance.sizes[f]
    slots = range(len(disks))
    n = len(files)
    file_homes = [slot_of.get(homes.get(f)) for f in files]
    # reserved[i]: slots never skipped as empty while files[i:] are unplaced.
    reserved = [{slot_of[d] for d in fixed.values()}] * (n + 1)
    if homes:
        for i in range(n - 1, -1, -1):
            reserved[i] = reserved[i + 1] | {file_homes[i]}

    # pool: the slots of a value search with no homes that hold no fixed
    # file, whose groups go unlabelled (see above); shelf holds their
    # capacities descending. Slot s never holds more than limit[s], always
    # holds up to sure[s] and, in between, holds what keeps the pooled
    # match: outside the pool both are its capacity, in it the largest and
    # the least pooled one. kind[s] tells an empty slot reserved to no
    # unplaced file from the others: by capacity, or not at all in the pool.
    pool = frozenset(slots).difference(reserved[n]) if value and not homes else frozenset()
    shelf = sorted((capacities[s] for s in pool), reverse=True)
    limit = sure = kind = capacities
    if pool:
        limit = [shelf[0] if s in pool else c for s, c in enumerate(capacities)]
        sure = [shelf[-1] if s in pool else c for s, c in enumerate(capacities)]
        kind = [0] * len(disks)

    def matched(s: int, load: int) -> bool:
        """Whether the pooled groups fit their disks with ``load`` on slot
        ``s``: sorted descending, each group no larger than the capacity it
        meets. Callers skip it up to ``sure[s]``: raising one group of
        groups that fit to at most the least pooled capacity keeps the
        match."""
        groups = [loads[t] for t in pool if t != s]
        groups.append(load)
        groups.sort(reverse=True)
        return all(map(le, groups, shelf))

    # Interference of fixed files among themselves is a constant floor;
    # interference with searched files accrues during the descent.
    conn, links, psi = _connection_tables(files, fixed, disks, weights)
    low = [min(row, default=0) for row in conn]
    floors = _suffix_floors(links, len(disks))
    # later[i]: (j, weight) for each neighbour files[j] placed after files[i].
    later = [[(j, w) for j, w in link.items() if j > i] for i, link in enumerate(links)]

    inf = float("inf")
    best: Optional[list[int]] = None
    start = reach if incumbent is None else incumbent.psi
    best_psi, best_moves = (inf, 0) if start is None else (start, allowance + 1)
    chosen = [0] * n
    # split: the split of every leaf so far that ties best_psi, or None
    # while ties are cut. While it is set, best_moves is 1, above the move
    # count of any node of a search with no homes, so the floor tests let
    # ties through. A split numbers reserved slots as themselves and the
    # others by first use.
    split: Optional[list[int]] = None

    def split_of(placed: list[int]) -> list[int]:
        names: dict[int, int] = {}
        return [s if s in reserved[n] else names.setdefault(s, ~len(names)) for s in placed]

    def children(i: int, partial: int, bound: int, moves: int):
        """Place files[i] on each slot in turn, yielding the child (partial,
        bound, moves) and undoing the placement when resumed. A child that
        fails the O(1) test (see above) is cut before its table update."""
        home, size, cost, mine = file_homes[i], sizes[i], conn[i], later[i]
        rest = bound - low[i]
        ahead = rest + floors[i]
        seen_empty: set[int] = set()
        for s in sorted(slots, key=cost.__getitem__) if value else slots:
            load = loads[s] + size
            if load > limit[s]:
                continue
            used = moves
            if home is not None and s != home:
                used += 1
                if used > allowance:
                    continue
            if not loads[s] and s not in reserved[i]:
                if kind[s] in seen_empty:
                    continue
                seen_empty.add(kind[s])
            child_partial = partial + cost[s]
            floor = child_partial + ahead
            if floor > best_psi or (floor == best_psi and used >= best_moves):
                continue
            # A pooled slot is tested last, as its match may sort: every
            # empty one fits or none does.
            if load > sure[s] and not matched(s, load):
                continue
            saved_low, child = [], rest
            for j, w in mine:
                row = conn[j]
                c = row[s]
                row[s] = c + w
                if c == low[j]:
                    saved_low.append((j, c))
                    low[j] = min(row)
                    child += low[j] - c
            loads[s] += size
            chosen[i] = s
            yield child_partial, child, used
            loads[s] -= size
            for j, w in mine:
                conn[j][s] -= w
            for j, c in saved_low:
                low[j] = c

    # The allowance bound (see above), where it can bind. mates[j] is the
    # weight from files[j] to the unplaced files of its home, ranked holds
    # the unplaced homed files' savings ascending, and extra is stay less
    # the summed low: the savings less the weight between unplaced files
    # that share a home, which the savings count twice.
    homed = sum(h is not None for h in file_homes) > allowance
    mates, saving, ranked, extra = [0] * n, [0] * n, [], 0
    if homed:
        homed_files = [(j, h) for j, h in enumerate(file_homes) if h is not None]
        for j, h in homed_files:
            for l, w in later[j]:
                if file_homes[l] == h:
                    mates[j] += w
                    mates[l] += w
                    extra -= w
        for j, h in homed_files:
            saving[j] = conn[j][h] - low[j] + mates[j]
            ranked.append(saving[j])
        ranked.sort()
        extra += sum(ranked)

    def moving_children(i: int, partial: int, bound: int, moves: int):
        """``children`` under the allowance bound: keeps ``mates``, the
        savings and ``extra`` current for each child, and passes on a child
        that the bound cuts with an infinite bound, so that the search loop
        counts it as a node and cuts it. A leaf, or a child that the search
        loop's own floor cuts, is passed on as it is, with no upkeep."""
        nonlocal extra
        home, outer = file_homes[i], extra
        if home is not None:
            extra -= saving[i] - mates[i]
            del ranked[bisect_left(ranked, saving[i])]
        inner, last, ahead, mine = extra, i + 1 == n, floors[i + 1], later[i]
        for child_partial, child, used in children(i, partial, bound, moves):
            floor = child_partial + child + ahead
            if last or floor > best_psi or (floor == best_psi and used >= best_moves):
                yield child_partial, child, used
                continue
            saved = []
            for j, w in mine:
                h = file_homes[j]
                if h is None:
                    continue
                m, old = mates[j], saving[j]
                if h == home:
                    mates[j] = m - w
                new = conn[j][h] - low[j] + mates[j]
                if new != old or h == home:
                    saved.append((j, old, m))
                    saving[j] = new
                    del ranked[bisect_left(ranked, old)]
                    insort(ranked, new)
                    extra += new - old
            # At most r more files leave home, each taking at most its
            # saving from the stay-at-home completion.
            r = allowance - used
            if r < len(ranked):
                floor = child_partial + child + extra - sum(ranked[len(ranked) - r:])
                if floor > best_psi or (floor == best_psi and used >= best_moves):
                    child = inf
            yield child_partial, child, used
            extra = inner
            for j, old, m in saved:
                del ranked[bisect_left(ranked, saving[j])]
                insort(ranked, old)
                saving[j], mates[j] = old, m
        extra = outer
        if home is not None:
            insort(ranked, saving[i])

    # stack[i] yields the nodes with files[:i] placed.
    expand = moving_children if homed else children
    budget, nodes = _NODE_BUDGET, 0
    stack = [iter([(psi, sum(low), 0)])]
    while stack:
        for partial, bound, moves in stack[-1]:
            nodes += 1
            if nodes > budget:
                raise EnumerationCapError(
                    f"exact search passed its budget of {budget} nodes; use "
                    "greedy mode to restructure or the heuristic path to solve"
                )
            floor = partial + bound + floors[len(stack) - 1]
            if floor > best_psi or (floor == best_psi and moves >= best_moves):
                continue
            if len(stack) > n:
                if split is not None and partial == best_psi:
                    if split_of(chosen) != split:
                        split, best_moves = None, 0
                    continue
                best, best_psi, best_moves = chosen.copy(), partial, moves
                if one_split:
                    split, best_moves = split_of(best), 1
                if reach is not None:
                    stack.clear()
                    break
                continue
            stack.append(expand(len(stack) - 1, partial, bound, moves))
            break
        else:
            stack.pop()
    if best is None:
        return None
    if value and not one_split:
        return best_psi
    assignment = {**fixed, **{f: disks[s] for f, s in zip(files, best)}}
    if one_split:
        return (None if split is None else assignment), best_psi
    return assignment, best_psi / weights.scale


def exact_solve(
    stage: Stage,
    instance: Instance,
    *,
    cap: int = EXACT_CAP_DEFAULT,
    pinned: Optional[Mapping[int, int]] = None,
) -> tuple[Allocation, float]:
    """Provably minimal placement by depth-first enumeration.

    Runs up to two searches on one ``PairWeights``, each within its own
    node budget. The value search finds the least objective, files
    heaviest first, each next the most connected to those before it, and
    each file's disks cheapest first. It leaves the groups of files on
    the disks that hold no pinned file unlabelled: each file opens at most
    one empty such disk, and the groups fit when, sorted descending, each
    is no larger than the capacity it meets among those disks, sorted
    descending. It also enters the subtrees that only tie the best
    objective while every placement that ties it splits
    the files the same way (see ``_branch_and_bound``). Where that holds
    at the end, every optimum relabels that split among the disks that
    hold no pinned file, and ``_relabel`` turns its best placement into
    the least one. Otherwise the witness search takes the value as its
    incumbent, searches files ascending over disks ascending, and stops
    at the first placement that reaches it. Where the value search that
    keeps ties passes the budget, the plain value search, which cuts
    ties, and the witness search run instead; the witness search merges
    only empty disks of equal capacity. All prune on capacity, on partial
    objective once an incumbent exists, and on a lower bound: partial
    objective plus, for each unplaced file, its summed weight to
    the disk where that weight is least, plus a floor for the pairs among
    the unplaced files from how many of them must share a disk (see
    ``_suffix_floors``). Disks are numbered as list slots for the search
    and mapped back in the result. Objectives compare exactly, on
    ``PairWeights``' integers. Among minimum-objective placements it
    returns the lexicographically least assignment vector; the bound
    prunes only subtrees that hold no such placement.
    Raises EnumerationCapError beyond ``cap`` active files, up front, or
    once the plain value search or the witness search has entered more
    than ``_NODE_BUDGET`` nodes, and
    ValidationError, before the cap check, for an instance whose cost
    model is not uniform or an active file the instance lacks.
    """
    _check_active(stage, instance)
    fixed = pinned or {}
    _pinned_loads(fixed, instance.sizes, instance.capacities)

    files = [f for f in stage.active_files if f not in fixed]
    n = len(files)
    if n > cap:
        raise EnumerationCapError(
            f"exact search over {n} files exceeds the cap of {cap}; "
            "raise the cap explicitly or use the heuristic path"
        )
    weights = PairWeights(stage)
    try:
        found = _branch_and_bound(files, fixed, instance, weights, {}, n, value=True, one_split=True)
    except EnumerationCapError:
        psi = _branch_and_bound(files, fixed, instance, weights, {}, n, value=True)
        found = None if psi is None else (None, psi)
    if found is None:
        raise InfeasibleError("no placement satisfies the disk capacities")
    leaf, psi = found
    if leaf is None:
        assignment = _branch_and_bound(files, fixed, instance, weights, {}, n, reach=psi)[0]
    else:
        assignment = _relabel(leaf, fixed, instance)
    return Allocation(assignment), psi / weights.scale


def _relabel(leaf: Mapping[int, int], fixed: Mapping[int, int], instance: Instance) -> dict[int, int]:
    """The lexicographically least assignment that splits the files of
    ``leaf``, an assignment of them that keeps the ``fixed`` files on their
    disks, as ``leaf`` does. A file on a disk of a fixed file stays there.
    The groups of files on the other disks, in order of their least file
    id, each take the lowest disk still free that holds the group and
    leaves room for the groups after it: sorted descending, each of their
    sizes no larger than the capacity it meets among the disks left.
    Raises InternalError where no disk left holds a group: the value
    search's pooled match proved that a labelling exists."""
    sizes, capacities = instance.sizes, instance.capacities
    reserved = set(fixed.values())
    groups: dict[int, list[int]] = {}
    for f in sorted(leaf):
        if leaf[f] not in reserved:
            groups.setdefault(leaf[f], []).append(f)
    need = [sum(sizes[f] for f in group) for group in groups.values()]
    free = sorted(d for d in capacities if d not in reserved)
    assignment = dict(leaf)
    for k, group in enumerate(groups.values()):
        rest = sorted(need[k + 1:], reverse=True)
        for d in free:
            left = sorted((capacities[e] for e in free if e != d), reverse=True)
            if need[k] <= capacities[d] and all(a <= b for a, b in zip(rest, left)):
                break
        else:
            raise InternalError(f"no disk left holds the {need[k]} tracks of files {group}")
        free.remove(d)
        assignment.update(dict.fromkeys(group, d))
    return assignment


def _optimum(
    stage: Stage,
    instance: Instance,
    fixed: Mapping[int, int],
    cap: int,
    weights: Optional[PairWeights] = None,
) -> tuple[float, bool]:
    """(objective, certified): the value alone of ``_solve_stage``'s
    result for the stage around the ``fixed`` files, which must fit the
    disks, as ``_held`` and ``exact_solve`` check, on ``weights``, the
    stage's ``PairWeights``, when given. Since only the value is kept,
    ``exact_solve``'s value search runs alone over the free files, at most
    ``cap`` of them, in its order: heaviest first, each next the most
    connected to those before it, each file's disks cheapest first, the
    groups on the disks without a fixed file unlabelled and fitted largest
    to largest; it cuts every subtree that only ties (see
    ``_branch_and_bound``). Past
    the cap or the node budget the heuristic's objective comes back
    uncertified.
    Raises ``exact_solve``'s InfeasibleError when no placement fits."""
    weights = weights or PairWeights(stage)
    free = [f for f in stage.active_files if f not in fixed]
    if len(free) <= cap:
        try:
            psi = _branch_and_bound(free, fixed, instance, weights, {}, len(free), value=True)
        except EnumerationCapError:
            pass
        else:
            if psi is None:
                raise InfeasibleError("no placement satisfies the disk capacities")
            return psi / weights.scale, True
    return _solve_stage(stage, instance, fixed, cap, False, weights)[1], False


def _solve_stage(
    stage: Stage,
    instance: Instance,
    fixed: Mapping[int, int],
    cap: int,
    exact: Optional[bool] = None,
    weights: Optional[PairWeights] = None,
) -> tuple[Allocation, float, bool]:
    """(allocation, objective, certified) of one stage around the ``fixed``
    files: enumeration unless ``exact`` is False, falling back past the cap,
    unless ``exact`` is True, to the heuristic: a ``_Placement`` that
    seeds the free files by least connection, and local search descending
    on it, so the heuristic builds one connection table. It reuses
    ``weights``, the stage's ``PairWeights``, when given; enumeration
    builds its own. ``fixed`` must fit the disks, as ``_held`` and
    ``exact_solve`` check."""
    if exact is None or exact:
        try:
            alloc, psi = exact_solve(stage, instance, cap=cap, pinned=fixed)
            return alloc, psi, True
        except EnumerationCapError:
            if exact:
                raise

    _check_active(stage, instance)
    free = [f for f in stage.active_files if f not in fixed]
    state = _Placement(fixed, free, instance, weights or PairWeights(stage), {}, 0)
    assignment, psi = _local_search(state)
    return Allocation(assignment), psi, False


def solve_stage(
    instance: Instance,
    stage_index: int,
    *,
    exact: Optional[bool] = None,
    cap: int = EXACT_CAP_DEFAULT,
) -> tuple[Allocation, float, bool]:
    """One-stop single-stage solve: (allocation, objective, certified).

    ``exact=True`` forces enumeration (EnumerationCapError above the cap),
    ``exact=False`` forces the heuristic, and None tries enumeration first,
    falling back when the stage is too wide. The heuristic seeds by least
    connection: largest files first, each to the disk it fits with the
    least weight to the files placed so far; then local search. Community
    spreading, the paper's scheme, stays available as ``spread_allocate``,
    but neither this solve nor restructuring calls it.
    """
    return _solve_stage(instance.stage(stage_index), instance, {}, cap, exact)
