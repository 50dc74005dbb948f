"""Single-stage allocation: objective, spreading heuristic, local search,
exact enumeration, and feasibility checking.

All tie-breaks run ascending file id then ascending disk id, so every entry
point is deterministic for a given input. Files outside the stage's active
set may appear in an assignment (they keep their spot from an earlier
stage); they contribute nothing to the objective and are never moved.

The search cores here also serve budgeted restructuring. Exact
restructuring and ``exact_solve`` share one branch-and-bound, symmetry
prune included. Greedy restructuring is local search's move/swap
neighbourhood with best-improvement under a move allowance. Files new to a
restructured stage are placed by ``spread_allocate``. Both descents ignore
gains of at most ``_EPS``, and the branch-and-bound counts objectives
within ``_EPS`` of each other as equal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EnumerationCapError, InfeasibleError, ValidationError
from .model import Allocation, CostModel, Instance, Pair, Stage, canonical_edge
from .relations import (
    Community,
    IntegratedRelation,
    detect_communities,
    integrate_relations,
)

log = logging.getLogger(__name__)

# Exact search is exponential in the active file count; past this many files
# callers must opt in explicitly.
EXACT_CAP_DEFAULT = 12

# The branch-and-bound refuses to enter more search nodes than this.
_NODE_BUDGET = 5_000_000

# Local search gives up after this multiple of n^2 neighbour evaluations.
_LOCAL_SEARCH_EVAL_FACTOR = 10

# Objective tolerance. Fractional weights summed in different orders differ
# in the last bits; a descent that took that for a gain could swap one pair
# back and forth forever.
_EPS = 1e-9


class PairWeights:
    """Interference weight of every unordered file pair of one stage.

    Uniform convention: weight 1.0 on each edge of the integrated relation.
    Explicit movement probabilities: the two ordered entries of a pair add
    up on its unordered edge, whether or not the relation links the pair.
    """

    def __init__(self, stage: Stage, relation: Optional[IntegratedRelation] = None):
        """``relation``, when given, is the stage's integrated relation.
        Under uniform weights its neighbour map is the adjacency, shared."""
        if stage.phi is None:
            if relation is None:
                relation = integrate_relations(stage)
            self._adjacent = relation._neighbours
            return
        weights: dict[Pair, float] = {}
        for (a, b), w in stage.phi.items():
            edge = canonical_edge(a, b)
            weights[edge] = weights.get(edge, 0.0) + w
        self._adjacent: dict[int, dict[int, float]] = {}
        for (a, b), w in weights.items():
            if w != 0.0:
                self._adjacent.setdefault(a, {})[b] = w
                self._adjacent.setdefault(b, {})[a] = w

    def pairs(self) -> list[tuple[Pair, float]]:
        return sorted(
            ((a, b), w) for a, adj in self._adjacent.items() for b, w in adj.items() if a <= b
        )

    def attach_cost(self, f: int, others: Iterable[int]) -> float:
        """Cost added by placing ``f`` next to ``others`` on one disk."""
        adj = self._adjacent.get(f)
        if not adj:
            return 0.0
        return sum(adj[g] for g in others if g in adj)


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
    files are ignored. Under the uniform cost model each same-disk related
    pair costs its weight; under the ordered-distance model the cost of a
    pair is the distance between the two files' track midpoints, which
    requires the allocation to carry an ordering and ``sizes`` to be given.
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

    terms: list[ObjectiveTerm] = []
    for (a, b), w in weights.pairs():
        if alloc.assignment[a] != alloc.assignment[b]:
            continue
        if model is CostModel.UNIFORM:
            cost = 1.0
        else:
            cost = abs(positions[a] - positions[b])
        terms.append(ObjectiveTerm((a, b), w, cost))
    value = sum(t.contribution for t in terms)
    return ObjectiveReport(value=value, terms=tuple(terms))


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


def _resolve_pinned(
    stage: Stage,
    previous: Optional[Allocation],
    pinned: Optional[Mapping[int, int]],
) -> dict[int, int]:
    """Files that must keep a fixed disk while this stage is solved.

    Explicit ``pinned`` wins; otherwise every file of ``previous`` that is
    not active in this stage stays where it was.
    """
    if pinned is not None:
        return {int(f): int(d) for f, d in pinned.items()}
    if previous is None:
        return {}
    active = stage.active_set
    return {f: d for f, d in previous.assignment.items() if f not in active}


def _best_fit(
    size: int,
    disks: Iterable[int],
    loads: Mapping[int, int],
    capacities: Mapping[int, int],
) -> Optional[int]:
    """Disk among ``disks`` with the most residual capacity that still fits
    ``size`` tracks, ties to the lowest disk id; None when none fits."""
    fits = [d for d in disks if loads[d] + size <= capacities[d]]
    if not fits:
        return None
    return max(fits, key=lambda d: (capacities[d] - loads[d], -d))


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
    member goes to the disk with the most residual capacity among those it
    fits that the community has not used yet (ties to the lowest disk id).
    When no unused disk fits, the distinct-disk rule is dropped for that
    member and the result is flagged degraded. Raises InfeasibleError only
    when some member fits no disk at all.
    """
    sizes = instance.sizes
    capacities = instance.capacities
    fixed = _resolve_pinned(stage, previous, pinned)
    loads = _pinned_loads(fixed, sizes, capacities)

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

            best = _best_fit(size, [d for d in disks if d not in used], loads, capacities)
            if best is None:
                best = _best_fit(size, disks, loads, capacities)
                if best is None:
                    raise InfeasibleError(
                        f"file {f} ({size} tracks) fits on no disk"
                    )
                degraded = True
            assignment[f] = best
            loads[best] += size
            used.add(best)

    return Allocation(assignment, degraded=degraded)


def _connection_tables(
    files: Sequence[int],
    on_disk: Mapping[int, Collection[int]],
    weights: PairWeights,
) -> tuple[list[dict[int, float]], list[dict[int, float]], float]:
    """(rows, links, psi) of ``files``, built in O(E) from the weights'
    adjacency: ``rows[i][d]`` is the summed weight from ``files[i]`` to
    the files in ``on_disk[d]``, added in that collection's order as
    ``PairWeights.attach_cost`` adds them, ``links[i]`` maps j to the
    weight of each neighbour ``files[j]``, and ``psi`` is the objective of
    ``on_disk``, the weight of each pair within one of its sets, once."""
    adjacent = weights._adjacent
    position = {f: i for i, f in enumerate(files)}
    disk_of = {g: d for d, members in on_disk.items() for g in members}
    rows = [dict.fromkeys(on_disk, 0.0) for _ in files]
    psi = 0.0
    for d, members in on_disk.items():
        for g in members:
            for f, w in adjacent.get(g, {}).items():
                if f > g and disk_of.get(f) == d:
                    psi += w
                i = position.get(f)
                if i is not None:
                    rows[i][d] += w
    links = [
        {position[g]: w for g, w in adjacent.get(f, {}).items() if g in position}
        for f in files
    ]
    return rows, links, psi


class _Placement:
    """Mutable placement of one stage, searched by moving and swapping
    ``files``.

    Holds the assignment, the per-disk loads, the per-disk sets of active
    files, pinned ones included, and ``psi``, the objective when built.
    Every file starts on its entry in ``homes``, if it has one, and counts
    as moved while it sits elsewhere; no step may leave more than
    ``allowance`` files moved.

    ``conn[f][d]`` is the summed weight from searched file ``f`` to the
    active files on disk ``d`` (Kernighan and Lin's gain bookkeeping),
    built in O(E). Evaluating a step costs O(1). Applying one costs O(deg)
    per moved file, and so does keeping ``discontent``, the positions in
    ``files`` of the files with ``min(conn[f]) < conn[f][own]``, which
    tell the scan where a gain can be, the way Fiduccia and Mattheyses
    keep their gain buckets. A move of any other file cannot gain, since
    its own entry is its least. Two kinds of swap cannot gain either, and
    the scan skips them:

    - Two files not linked by a weight, neither discontent. The computed
      delta is ``conn[a][db] + conn[b][da] - conn[a][da] - conn[b][db]``
      (``w_ab = 0.0`` drops out exactly), and each file's own entry is its
      least, so the exact sum of those four floats is at least zero.
      Where the table holds integers, as under uniform weights, the
      computed delta is that sum. Otherwise its three roundings take it
      below the sum by at most about ``3 * 2**-53`` times ``conn[a][db] +
      conn[b][da]``, under ``_EPS`` while those two entries sum to less
      than about 10**6.
    - Two settled files, whose own entries are exactly 0.0. The delta is
      ``(conn[a][db] - w_ab) + (conn[b][da] - w_ab)``, and each of
      ``conn[a][db]`` and ``conn[b][da]`` sums ``w_ab`` with other
      non-negative weights, so where the table holds those sums exactly
      each bracket rounds to at least 0.0. Under fractional weights an
      entry may drift below its exact sum by rounding in the incremental
      updates, by many orders of magnitude less than ``_EPS`` (tests hold
      the table to from-scratch sums).
    """

    def __init__(
        self,
        assignment: Mapping[int, int],
        files: Sequence[int],
        stage: Stage,
        instance: Instance,
        weights: PairWeights,
        homes: Mapping[int, Optional[int]],
        allowance: int,
    ):
        self.assignment = dict(assignment)
        self.files = files
        self.weights = weights
        self.sizes = instance.sizes
        self.capacities = instance.capacities
        self.disks = sorted(self.capacities)
        self.homes = homes
        self.allowance = allowance
        self.moved = 0
        self.loads = dict.fromkeys(self.disks, 0)
        self.on_disk: dict[int, set[int]] = {d: set() for d in self.disks}
        active = stage.active_set
        for f, d in self.assignment.items():
            self.loads[d] += self.sizes[f]
            if f in active:
                self.on_disk[d].add(f)
        self.rows, self.links, self.psi = _connection_tables(files, self.on_disk, weights)
        self.conn = dict(zip(files, self.rows))
        self.position = {f: i for i, f in enumerate(files)}
        self.disk_of = [self.assignment[f] for f in files]
        self.size_of = [self.sizes[f] for f in files]
        self.home_of = [homes.get(f) for f in files]
        # later[i]: positions of files[i]'s neighbours after it, ascending.
        self.later = [
            sorted([j for j in link if j > i]) for i, link in enumerate(self.links)
        ]
        self.discontent: set[int] = set()
        self._classify(range(len(files)))

    def _classify(self, positions: Iterable[int]) -> None:
        """Put each of ``positions`` in or out of ``discontent``."""
        rows, disk_of, discontent = self.rows, self.disk_of, self.discontent
        for i in positions:
            row = rows[i]
            if min(row.values()) < row[disk_of[i]]:
                discontent.add(i)
            else:
                discontent.discard(i)

    def _after(self, i: int, src: int, dst: int) -> int:
        """Change in files moved when ``files[i]`` goes from ``src`` to ``dst``."""
        home = self.home_of[i]
        if home is None:
            return 0
        return (dst != home) - (src != home)

    def neighbourhood(self) -> Iterator[tuple[float, tuple[tuple[int, int], ...], int]]:
        """The steps that gain more than ``_EPS``, in scan order, as
        (objective delta, step, files moved after it).

        The scan order covers every capacity- and allowance-feasible step:
        single-file moves (file ascending, then disk ascending), then pair
        swaps (pair-lexicographic). A step lists (file, new disk). The
        generator must not be resumed after apply.

        It visits only steps that can gain (see the class docstring): the
        moves of discontent files, and the swaps that pair a discontent
        file with every later file and any other file with its later
        neighbours and the later discontent files.
        """
        loads, rows, capacities, disks = self.loads, self.rows, self.capacities, self.disks
        files, disk_of, size_of, home_of = self.files, self.disk_of, self.size_of, self.home_of
        allowance, moved = self.allowance, self.moved
        homes, discontent = self.homes, self.discontent
        worried = sorted(discontent)
        for i in worried:
            src, home, size, row = disk_of[i], home_of[i], size_of[i], rows[i]
            detach = row[src]
            for dst in disks:
                if dst == src or loads[dst] + size > capacities[dst]:
                    continue
                after = moved
                if home is not None:
                    after += (dst != home) - (src != home)
                    if after > allowance:
                        continue
                delta = row[dst] - detach
                if delta < -_EPS:
                    yield delta, ((files[i], dst),), after

        links, later_of = self.links, self.later
        free = {d: capacities[d] - loads[d] for d in disks}
        n, k, m = len(files), 0, len(worried)
        for i in range(n - 1):
            if i in discontent:
                later = range(i + 1, n)
            else:
                later = later_of[i]
                while k < m and worried[k] <= i:
                    k += 1
                if k < m:
                    later = sorted(set(later).union(worried[k:])) if later else worried[k:]
                if not later:
                    continue
            da, size_a, ha, row_a, link_a = disk_of[i], size_of[i], home_of[i], rows[i], links[i]
            room_a, settled_a = free[da] + size_a, row_a[da] == 0.0
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
                row_b = rows[j]
                if settled_a and row_b[db] == 0.0:
                    continue
                w_ab = link_a.get(j, 0.0)
                delta = row_a[db] - w_ab + row_b[da] - w_ab - row_a[da] - row_b[db]
                if delta < -_EPS:
                    yield delta, ((files[i], db), (files[j], da)), after

    def count(self, step: tuple[tuple[int, int], ...] = ()) -> int:
        """The feasible steps in scan order up to and including ``step``,
        counted one by one; all of them when ``step`` is empty."""
        loads, capacities, disks = self.loads, self.capacities, self.disks
        files, disk_of, size_of = self.files, self.disk_of, self.size_of
        slack = self.allowance - self.moved
        seen = 0
        for i, f in enumerate(files):
            src, size = disk_of[i], size_of[i]
            for dst in disks:
                if dst == src or loads[dst] + size > capacities[dst]:
                    continue
                if self._after(i, src, dst) <= slack:
                    seen += 1
                    if step == ((f, dst),):
                        return seen
        for i, a in enumerate(files):
            da, size_a = disk_of[i], size_of[i]
            for j in range(i + 1, len(files)):
                db, size_b = disk_of[j], size_of[j]
                if db == da:
                    continue
                if loads[da] - size_a + size_b > capacities[da]:
                    continue
                if loads[db] - size_b + size_a > capacities[db]:
                    continue
                if self._after(i, da, db) + self._after(j, db, da) <= slack:
                    seen += 1
                    if step == ((a, db), (files[j], da)):
                        return seen
        return seen

    def bound(self, step: tuple[tuple[int, int], ...] = ()) -> int:
        """An upper bound of ``count(step)`` in O(1): the moves to another
        disk and the pairs of files that the scan passes up to and
        including ``step``, feasible or not, where a move of ``files[i]``
        takes all of that file's moves."""
        n, moves = len(self.files), len(self.disks) - 1
        if not step:
            return n * moves + n * (n - 1) // 2
        i = self.position[step[0][0]]
        if len(step) == 1:
            return (i + 1) * moves
        j = self.position[step[1][0]]
        return n * moves + i * (2 * n - i - 1) // 2 + (j - i)

    def apply(self, step: tuple[tuple[int, int], ...], moved: int) -> None:
        """Take ``step``, after which ``moved`` files sit off their homes."""
        self.moved = moved
        assignment, loads, sizes = self.assignment, self.loads, self.sizes
        rows, disk_of, position = self.rows, self.disk_of, self.position
        touched = {position[f] for f, _ in step}
        for f, dst in step:
            src = assignment[f]
            i = position[f]
            assignment[f] = disk_of[i] = dst
            self.on_disk[src].discard(f)
            self.on_disk[dst].add(f)
            loads[src] -= sizes[f]
            loads[dst] += sizes[f]
            for j, w in self.links[i].items():
                row = rows[j]
                row[src] -= w
                row[dst] += w
            touched.update(self.links[i])
        self._classify(touched)


def local_search(
    alloc: Allocation,
    stage: Stage,
    instance: Instance,
    model: CostModel = CostModel.UNIFORM,
    *,
    pinned: Optional[Mapping[int, int]] = None,
) -> tuple[Allocation, float]:
    """First-improvement descent over single-file moves and pair swaps.

    Only the stage's active files move; any other assigned file acts as a
    capacity-consuming fixture. Scanning order is file ascending then disk
    ascending for moves, pair-lexicographic for swaps, restarting after
    every accepted step, so the result is deterministic. A step counts as
    an improvement only when it gains more than 1e-9. Every feasible step
    scanned counts as one evaluation, capped at 10 n^2; hitting the cap
    logs a warning and returns the best allocation found. Only steps that
    can gain have their delta computed, each in O(1) from ``_Placement``'s
    connection table (see ``_Placement.neighbourhood``); each accepted
    step costs O(deg) per moved file. The descent charges each scan an
    O(1) upper bound of its evaluations, and counts them exactly, in a
    second descent from the start, only when those bounds meet the cap.
    """
    model = CostModel(model)
    if model is not CostModel.UNIFORM:
        raise ValidationError(
            "local search only optimizes uniform costs; ordered-distance is "
            "evaluation-only"
        )
    return _local_search(alloc, stage, instance, PairWeights(stage), pinned)


def _local_search(
    alloc: Allocation,
    stage: Stage,
    instance: Instance,
    weights: PairWeights,
    pinned: Optional[Mapping[int, int]],
) -> tuple[Allocation, float]:
    """``local_search`` under uniform costs with the stage's ``weights``."""
    report = check_allocation_feasible(alloc, stage, instance)
    if not report.feasible:
        raise InfeasibleError("; ".join(report.violations))

    if pinned is not None:
        movable = sorted(set(stage.active_files) - set(pinned))
    else:
        movable = sorted(set(stage.active_files) & set(alloc.assignment))
    cap = _LOCAL_SEARCH_EVAL_FACTOR * len(movable) ** 2

    def descend(
        charge: Callable[[_Placement, tuple[tuple[int, int], ...]], int]
    ) -> tuple[_Placement, float, bool]:
        """(placement, objective, capped) of a descent that charges each
        scan ``charge(placement, first gaining step or ())`` evaluations."""
        state = _Placement(alloc.assignment, movable, stage, instance, weights, {}, 0)
        psi = state.psi
        evals = 0
        while True:
            # Only the first gaining step of each scan is taken.
            delta, step, moved = next(state.neighbourhood(), (0.0, (), 0))
            seen = charge(state, step)
            evals += seen
            # A scan step by step would have stopped at the cap on a step
            # that does not gain, before reaching this gaining step, if any.
            gaining = 1 if step else 0
            if seen > gaining and evals - gaining >= cap:
                return state, psi, True
            if not step:
                return state, psi, False
            state.apply(step, moved)
            psi += delta

    # Each bound is at least the exact count, so where the bounds never
    # meet the cap, counting exactly would take the same steps.
    state, psi, capped = descend(_Placement.bound)
    if capped:
        state, psi, capped = descend(_Placement.count)
        if capped:
            log.warning(
                "local search stopped at the evaluation cap (%d evaluations)", cap
            )
    return Allocation(state.assignment, degraded=alloc.degraded), psi


def _suffix_floors(links: Sequence[Mapping[int, float]], k: int) -> list[float]:
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
    floors = [0.0] * (n + 1)
    weights: list[float] = []
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
    pinned_loads: Mapping[int, int],
    stage: Stage,
    instance: Instance,
    weights: PairWeights,
    homes: Mapping[int, Optional[int]],
    allowance: int,
) -> Optional[tuple[dict[int, int], float]]:
    """Depth-first search over placements of ``files``, in the given order,
    beside the ``fixed`` ones; returns (assignment of the fixed and searched
    files, objective), or None when nothing fits.

    A file counts as moved when it lands off its entry in ``homes``; at
    most ``allowance`` files may move. Minimizes (objective, moves,
    assignment vector), objectives within ``_EPS`` counting as equal: disks
    are tried ascending, so the first optimum recorded is the
    lexicographically least. Prunes on capacity, on the allowance, on the
    partial objective once an incumbent exists, on symmetry (an empty disk
    that holds no pinned file and is home to no file still unplaced is
    interchangeable with an earlier such disk of equal residual capacity),
    and on an admissible lower bound.

    The search numbers the disks ascending as slots 0..k-1 and keeps
    loads, capacities, homes and table rows as lists indexed by slot, so a
    placement hashes no disk id; slots turn back into disk ids only in the
    returned assignment. The bound keeps ``conn[i][s]``, the summed weight
    from ``files[i]`` to the active files now on slot ``s`` (the
    connection table of ``_Placement``), so placing a file costs one
    lookup. Each unplaced file adds at least its cheapest entry,
    ``low[i]``, because weights are non-negative and later placements only
    raise ``conn``. The pairs among the unplaced files add at least
    ``floors[i]`` (see ``_suffix_floors``); those edges are not yet in
    ``conn``, so the two parts count no edge twice. Capacity and the
    allowance are ignored, which only loosens the bound. A subtree is cut
    when partial objective plus the summed ``low`` of its unplaced files
    plus their floor, less ``_EPS`` for rounding, fails the incumbent
    test: none of its leaves could be accepted, so cutting it changes no
    result.

    A loop over per-level generators, not recursion, runs the search, so
    any depth fits; past ``_NODE_BUDGET`` nodes it raises EnumerationCapError.
    """
    sizes = [instance.sizes[f] for f in files]
    disks = sorted(instance.capacities)
    slot_of = {d: s for s, d in enumerate(disks)}
    capacities = [instance.capacities[d] for d in disks]
    loads = [pinned_loads[d] for d in disks]
    slots = range(len(disks))
    n = len(files)
    file_homes = [slot_of.get(homes.get(f)) for f in files]
    # reserved[i]: slots never skipped as empty while files[i:] are unplaced.
    reserved = [{slot_of[d] for d in fixed.values()}]
    for home in reversed(file_homes):
        reserved.append(reserved[-1] | {home})
    reserved.reverse()

    # Interference of pinned active files among themselves is a constant
    # floor; interference with searched files accrues during the descent.
    active = stage.active_set
    on_disk: dict[int, list[int]] = {d: [] for d in disks}
    for f, d in fixed.items():
        if f in active:
            on_disk[d].append(f)

    rows, links, psi = _connection_tables(files, on_disk, weights)
    # Each row follows on_disk's keys, the disks ascending: slot order.
    conn = [list(row.values()) for row in rows]
    low = [min(row, default=0.0) for row in conn]
    floors = _suffix_floors(links, len(disks))
    # later[i]: (j, weight) for each neighbour files[j] placed after files[i].
    later = [[(j, w) for j, w in link.items() if j > i] for i, link in enumerate(links)]

    best: Optional[list[int]] = None
    best_psi = float("inf")
    best_moves = 0
    # Objectives in [tie, above] tie with the incumbent's.
    above = tie = float("inf")
    chosen: list[int] = []

    def children(i: int, partial: float, bound: float, moves: int):
        """Place files[i] on each slot in turn, yielding the child (partial,
        bound, moves) and undoing the placement when resumed."""
        home, size, cost = file_homes[i], sizes[i], conn[i]
        rest = bound - low[i]
        seen_empty: set[int] = set()
        for s in slots:
            if loads[s] + size > capacities[s]:
                continue
            used = moves
            if home is not None and s != home:
                used += 1
                if used > allowance:
                    continue
            if not loads[s] and s not in reserved[i]:
                key = capacities[s] - loads[s]
                if key in seen_empty:
                    continue
                seen_empty.add(key)
            child_partial = partial + cost[s]
            if child_partial > above or (child_partial >= tie and used >= best_moves):
                continue
            # Saved entries are restored, not subtracted back, so sibling
            # subtrees see no rounding drift.
            saved_conn, saved_low, child = [], [], rest
            for j, w in later[i]:
                row = conn[j]
                c = row[s]
                saved_conn.append((row, c))
                row[s] = c + w
                if c == low[j]:
                    saved_low.append((j, c))
                    low[j] = min(row)
                    child += low[j] - c
            loads[s] += size
            chosen.append(s)
            yield child_partial, child, used
            chosen.pop()
            loads[s] -= size
            for row, c in saved_conn:
                row[s] = c
            for j, c in saved_low:
                low[j] = c

    # stack[i] yields the nodes with files[:i] placed.
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
            floor = partial + bound + floors[len(stack) - 1] - _EPS
            if floor > above or (floor >= tie and moves >= best_moves):
                continue
            if len(stack) > n:
                best, best_psi, best_moves = chosen.copy(), partial, moves
                above, tie = partial + _EPS, partial - _EPS
                continue
            stack.append(children(len(stack) - 1, partial, bound, moves))
            break
        else:
            stack.pop()
    if best is None:
        return None
    return {**fixed, **{f: disks[s] for f, s in zip(files, best)}}, best_psi


def exact_solve(
    stage: Stage,
    instance: Instance,
    model: CostModel = CostModel.UNIFORM,
    *,
    cap: int = EXACT_CAP_DEFAULT,
    pinned: Optional[Mapping[int, int]] = None,
) -> tuple[Allocation, float]:
    """Provably minimal placement by depth-first enumeration.

    Searches files ascending over disks ascending, pruning on capacity, on
    partial objective once an incumbent exists, on symmetry between empty
    disks of equal residual capacity, and on a lower bound: partial
    objective plus, for each unplaced file, its summed weight to the disk
    where that weight is least, plus a floor for the pairs among the
    unplaced files from how many of them must share a disk (see
    ``_suffix_floors``). Disks are numbered as list slots for the search
    and mapped back in the result. Among minimum-objective placements (to
    within ``_EPS``) it returns the lexicographically least assignment
    vector; the bound prunes only subtrees that hold no such placement.
    Raises EnumerationCapError beyond ``cap`` active files, up front, or
    once the search has entered more than ``_NODE_BUDGET`` nodes.
    """
    model = CostModel(model)
    if model is not CostModel.UNIFORM:
        raise ValidationError(
            "exact search only optimizes uniform costs; ordered-distance is "
            "evaluation-only"
        )
    fixed = _resolve_pinned(stage, None, pinned)
    loads = _pinned_loads(fixed, instance.sizes, instance.capacities)

    files = [f for f in stage.active_files if f not in fixed]
    n = len(files)
    if n > cap:
        raise EnumerationCapError(
            f"exact search over {n} files exceeds the cap of {cap}; "
            "raise the cap explicitly or use the heuristic path"
        )
    found = _branch_and_bound(files, fixed, loads, stage, instance, PairWeights(stage), {}, n)
    if found is None:
        raise InfeasibleError("no placement satisfies the disk capacities")
    return Allocation(found[0]), found[1]


def _solve_stage(
    stage: Stage,
    instance: Instance,
    fixed: Mapping[int, int],
    cap: int,
    exact: Optional[bool] = None,
    relation: Optional[IntegratedRelation] = None,
) -> tuple[Allocation, float, bool]:
    """(allocation, objective, certified) of one stage around the ``fixed``
    files: enumeration unless ``exact`` is False, falling back to spreading
    plus local search past the cap unless ``exact`` is True. ``relation``,
    when given, is the stage's integrated relation, which the heuristic path
    then does not build again."""
    if exact is None or exact:
        try:
            alloc, psi = exact_solve(stage, instance, cap=cap, pinned=fixed)
            return alloc, psi, True
        except EnumerationCapError:
            if exact:
                raise

    if relation is None:
        relation = integrate_relations(stage)
    free = [f for f in stage.active_files if f not in fixed]
    communities = detect_communities(relation, free, instance.gamma)
    seeded = spread_allocate(communities, instance, stage, pinned=fixed)
    weights = PairWeights(stage, relation)
    alloc, psi = _local_search(seeded, stage, instance, weights, fixed)
    return alloc, psi, False


def solve_stage(
    instance: Instance,
    stage_index: int,
    *,
    exact: Optional[bool] = None,
    cap: int = EXACT_CAP_DEFAULT,
) -> tuple[Allocation, float, bool]:
    """One-stop single-stage solve: (allocation, objective, certified).

    ``exact=True`` forces enumeration (EnumerationCapError above the cap),
    ``exact=False`` forces the spreading heuristic plus local search, and
    None tries enumeration first, falling back when the stage is too wide.
    """
    return _solve_stage(instance.stage(stage_index), instance, {}, cap, exact)
