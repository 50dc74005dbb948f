"""The move/swap descents against independent oracles.

Local search and greedy restructuring share ``allocator._Placement``,
which keeps a connection table instead of rescanning disks and computes
deltas only for steps that can beat the best delta of the scan so far.
These tests hold it to the scan order, evaluation charge and cap of
``tests/naive.py``, which recounts every delta from the assignment, in
exact decimals under fractional ``phi``, hold each scan to an
enumeration of every feasible step, and hold its incremental sums to
from-scratch sums under fractional ``phi``.
"""

import logging
import random

import pytest

from diskalloc import allocator
from diskalloc.allocator import (
    PairWeights,
    _connection_tables,
    _Placement,
    evaluate_objective,
    local_search,
)
from diskalloc.generator import generate_instance
from diskalloc.io import parse_instance_document
from diskalloc.model import Allocation, Stage
from diskalloc.restructure import RestructureMode, RestructuringProblem, restructure_one_stage

from naive import (
    naive_connection_tables,
    naive_feasible_steps,
    naive_greedy_descent,
    naive_greedy_descent_decimal,
    naive_local_search,
    naive_scan_charge,
)

# Assertion tolerance of the float comparisons below.
_EPS = 1e-9


def _uniform_case(seed):
    """A one-stage uniform instance of 20-60 files on 3-6 tightly sized
    disks, some files inactive, and a random placement of every file."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    doc = generate_instance(
        n, rng.randint(3, 6), 1, rng.uniform(0.03, 0.15), (1, 3), rng.uniform(1.03, 1.3), seed
    )
    raw = doc["stages"][0]
    inactive = set(rng.sample(range(1, n + 1), rng.randint(0, n // 5)))
    raw["active_files"] = [f for f in raw["active_files"] if f not in inactive]
    for key in ("precedence", "concurrency"):
        raw[key] = [e for e in raw[key] if not inactive & set(e)]
    inst = parse_instance_document(doc)
    return inst, _random_placement(inst, rng), rng


def _dense_phi_case(seed):
    """A one-stage instance of 15-30 files whose every pair carries a
    3-decimal fractional weight, and a random placement of every file."""
    rng = random.Random(seed)
    n = rng.randint(15, 30)
    doc = generate_instance(n, rng.randint(3, 5), 1, 0.0, (1, 3), rng.uniform(1.1, 1.5), seed)
    doc["stages"][0]["phi"] = [
        [0.0 if i == j else round(rng.uniform(0.0, 0.3), 3) for j in range(n)]
        for i in range(n)
    ]
    inst = parse_instance_document(doc)
    return inst, _random_placement(inst, rng), rng


def _sparse_phi_case(seed):
    """A one-stage instance of 20-40 files on tight disks where one pair
    in five carries a 3-decimal fractional weight, so that many files are
    not linked and the table holds inexact sums."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    doc = generate_instance(n, rng.randint(3, 5), 1, 0.0, (1, 3), rng.uniform(1.05, 1.3), seed)
    doc["stages"][0]["phi"] = [
        [round(rng.uniform(0.0, 0.3), 3) if i != j and rng.random() < 0.2 else 0.0 for j in range(n)]
        for i in range(n)
    ]
    inst = parse_instance_document(doc)
    return inst, _random_placement(inst, rng), rng


def _random_placement(inst, rng):
    """Every file on a random disk it fits, largest files first."""
    sizes, capacities = inst.sizes, inst.capacities
    for _ in range(100):
        loads = dict.fromkeys(capacities, 0)
        assignment = {}
        for f in sorted(sizes, key=lambda f: (-sizes[f], rng.random())):
            fits = [d for d in sorted(capacities) if loads[d] + sizes[f] <= capacities[d]]
            if not fits:
                break
            assignment[f] = rng.choice(fits)
            loads[assignment[f]] += sizes[f]
        else:
            return assignment
    raise AssertionError("no random placement fits")


_FACTOR = allocator._LOCAL_SEARCH_EVAL_FACTOR


# Lowered factors make the cap fire at varied points of a scan.
@pytest.mark.parametrize("factor", [_FACTOR, 1, 0.3, 0.1])
def test_local_search_follows_the_naive_scan(monkeypatch, caplog, factor):
    monkeypatch.setattr(allocator, "_LOCAL_SEARCH_EVAL_FACTOR", factor)
    caplog.set_level(logging.WARNING, logger=allocator.__name__)
    for seed in range(40):
        inst, assignment, rng = _uniform_case(seed)
        stage = inst.stage(1)
        pinned = None
        files = stage.active_files
        if seed % 2:
            pinned = {f: assignment[f] for f in rng.sample(files, len(files) // 6)}
            files = [f for f in files if f not in pinned]
        alloc, psi = local_search(Allocation(assignment), stage, inst, pinned=pinned)
        want, want_psi = naive_local_search(assignment, stage, inst, files, factor)
        assert (dict(alloc.assignment), psi) == (want, want_psi), seed
    cap_hits = sum("evaluation cap" in r.getMessage() for r in caplog.records)
    assert (cap_hits > 0) == (factor < _FACTOR)


def test_greedy_restructure_follows_the_naive_scan():
    for seed in range(40):
        inst, assignment, rng = _uniform_case(seed)
        stage = inst.stage(1)
        n = len(stage.active_files)
        allowance = rng.choice([1, 2, rng.randint(1, n), n])
        problem = RestructuringProblem(
            instance=inst,
            stage=stage,
            previous=Allocation(assignment),
            budget=float(allowance),
            reference=0.0,
        )
        result = restructure_one_stage(problem, RestructureMode.GREEDY)
        want, want_psi = naive_greedy_descent(assignment, stage, inst, allowance)
        assert (dict(result.allocation.assignment), result.objective) == (want, want_psi), seed


def _scan_states(case, with_homes):
    """(placement, instance, weights, homes, allowance) of 30 seeds of
    ``case``, each after a few random feasible steps and a few
    first-improvement steps, so the table has been updated in place and
    files sit off their homes. With homes, three files in four have one
    and the allowance varies."""
    for seed in range(30):
        inst, assignment, rng = case(seed)
        stage = inst.stage(1)
        files = sorted(stage.active_files)
        homes, allowance = {}, 0
        if with_homes:
            homes = {f: assignment[f] for f in files if rng.random() < 0.75}
            allowance = rng.choice([1, 2, len(homes)])
        weights = PairWeights(stage)
        state = _Placement(assignment, files, inst, weights, homes, allowance)
        for _ in range(rng.randint(0, 3)):
            steps = list(naive_feasible_steps(state.assignment, files, inst, homes, allowance))
            if steps:
                state.apply(*rng.choice(steps))
        for _ in range(rng.randint(0, 40)):
            item = next(state.neighbourhood(), None)
            if item is None:
                break
            state.apply(item[1], item[2])
        yield state, inst, weights, homes, allowance


def _table_delta(state, weights, step):
    """A step's delta from the connection table, in the expression and
    summation order of the neighbourhood."""
    rows, position, slot_of = state.rows, state.position, state.slot_of
    if len(step) == 1:
        ((f, dst),) = step
        row = rows[position[f]]
        return row[slot_of[dst]] - row[slot_of[state.assignment[f]]]
    (a, db), (b, da) = step
    row_a, row_b = rows[position[a]], rows[position[b]]
    da, db = slot_of[da], slot_of[db]
    w_ab = weights.links[weights.position[a]].get(weights.position[b], 0)
    return row_a[db] - w_ab + row_b[da] - w_ab - row_a[da] - row_b[db]


def _on_disk(state):
    """Each disk's files, from the placement's assignment."""
    on_disk = {d: set() for d in state.disks}
    for f, d in state.assignment.items():
        on_disk[d].add(f)
    return on_disk


@pytest.mark.parametrize("with_homes", [False, True])
@pytest.mark.parametrize("case", [_uniform_case, _dense_phi_case, _sparse_phi_case])
def test_neighbourhood_yields_every_gaining_step_and_counts_the_rest(case, with_homes):
    """The scan yields its records, each feasible step whose delta is below
    0 and below every delta before it in scan order, with the files moved
    after it; it skips the rest, of which there are some. With homes, the
    sparse case has files of no gain and few links at home under an
    allowance with fewer than two moves left."""
    skipped = 0
    for state, inst, weights, homes, allowance in _scan_states(case, with_homes):
        want, total, bar = [], 0, 0
        steps = naive_feasible_steps(state.assignment, state.files, inst, homes, allowance)
        for step, after in steps:
            total += 1
            delta = _table_delta(state, weights, step)
            if delta < bar:
                bar = delta
                want.append((delta, step, after))
        assert list(state.neighbourhood()) == want
        skipped += total - len(want)
    assert skipped


# Swaps that test_swap_scan_skips_partners_below_the_cost_floor's
# descents evaluate, by case and homes. Without the cost floor, skipping
# only the swaps of two settled files, they evaluate 8,329 and 1,013
# (uniform), 19,884 and 8,766 (dense ``phi``), and 14,673 and 3,792
# (sparse ``phi``).
SWAP_EVALUATIONS = {
    ("_uniform_case", False): 3829,
    ("_uniform_case", True): 290,
    ("_dense_phi_case", False): 19868,
    ("_dense_phi_case", True): 8760,
    ("_sparse_phi_case", False): 9317,
    ("_sparse_phi_case", True): 1571,
}


@pytest.mark.parametrize("with_homes", [False, True])
@pytest.mark.parametrize("case", [_uniform_case, _dense_phi_case, _sparse_phi_case])
def test_swap_scan_skips_partners_below_the_cost_floor(case, with_homes):
    """The scan evaluates no swap of a and b whose own same-disk weights,
    ``rows[a][da] + rows[b][db]``, the most it can gain, cannot get below
    the last record. It looks up the pair's weight once per swap it
    evaluates, and only there, so counting the lookups counts them."""
    evaluated = 0

    class CountedLinks(dict):
        def get(self, key, default=None):
            nonlocal evaluated
            evaluated += 1
            return dict.get(self, key, default)

    for seed in range(10):
        inst, assignment, rng = case(seed)
        stage = inst.stage(1)
        files = sorted(stage.active_files)
        homes, allowance = {}, 0
        if with_homes:
            homes = {f: assignment[f] for f in files}
            allowance = rng.choice([1, 2, len(files)])
        state = _Placement(assignment, files, inst, PairWeights(stage), homes, allowance)
        state.links = [CountedLinks(link) for link in state.links]
        state.steepest_descent()
    assert evaluated <= SWAP_EVALUATIONS[case.__name__, with_homes]


@pytest.fixture
def checked_tables(monkeypatch):
    """Check every connection-table entry against a from-scratch sum by
    the test's ``weights`` after each applied step; returns a dict of the
    ``weights``, which the test sets, and the ``steps`` applied."""
    apply = _Placement.apply
    checks = {"weights": None, "steps": []}

    def checked(self, step, moved):
        apply(self, step, moved)
        on_disk = _on_disk(self)
        for f in self.files:
            for d, value in zip(self.disks, self.rows[self.position[f]], strict=True):
                scratch = checks["weights"].attach_cost(f, on_disk[d])
                assert abs(value - scratch) <= _EPS, (f, d, value, scratch)
        checks["steps"].append(step)

    monkeypatch.setattr(_Placement, "apply", checked)
    return checks


@pytest.mark.parametrize("descent", ["greedy", "local_search"])
def test_connection_tables_stay_exact_on_fractional_phi(checked_tables, descent):
    for seed in range(20):
        inst, assignment, rng = _dense_phi_case(seed)
        stage = inst.stage(1)
        checked_tables["weights"] = PairWeights(stage)
        if descent == "local_search":
            alloc, psi = local_search(Allocation(assignment), stage, inst)
        else:
            n = len(stage.active_files)
            problem = RestructuringProblem(
                instance=inst,
                stage=stage,
                previous=Allocation(assignment),
                budget=float(rng.randint(1, n)),
                reference=0.0,
            )
            result = restructure_one_stage(problem, RestructureMode.GREEDY)
            alloc, psi = result.allocation, result.objective
        value = evaluate_objective(alloc, stage).value
        assert abs(psi - value) <= _EPS * max(1.0, abs(psi)), seed
    assert checked_tables["steps"]


@pytest.mark.parametrize("case", [_dense_phi_case, _sparse_phi_case])
def test_greedy_restructure_follows_the_decimal_scan(case):
    """Under fractional ``phi``, greedy restructuring takes the first step
    of largest gain in exact decimals, at allowances 1, 2, random and n,
    the first two of which leave the scan fewer than two moves."""
    for seed in range(12):
        inst, assignment, rng = case(seed)
        stage = inst.stage(1)
        n = len(stage.active_files)
        for allowance in (1, 2, rng.randint(1, n), n):
            problem = RestructuringProblem(
                instance=inst,
                stage=stage,
                previous=Allocation(assignment),
                budget=float(allowance),
                reference=0.0,
            )
            result = restructure_one_stage(problem, RestructureMode.GREEDY)
            want, want_psi = naive_greedy_descent_decimal(assignment, stage, inst, allowance)
            got = (dict(result.allocation.assignment), result.objective)
            assert got == (want, float(want_psi)), (seed, allowance)


def _holding(stage, held, paired):
    """``stage`` with the files of ``held`` made inactive, their pairs
    dropped, as ``validate_instance`` requires, unless ``paired``."""

    def kept(pair):
        return paired or not held & set(pair)

    return Stage(
        index=stage.index,
        active_files=[f for f in stage.active_files if f not in held],
        precedence=filter(kept, stage.precedence),
        concurrency=filter(kept, stage.concurrency),
        phi=None if stage.phi is None else {p: w for p, w in stage.phi.items() if kept(p)},
    )


@pytest.mark.parametrize("case", [_uniform_case, _dense_phi_case, _sparse_phi_case])
def test_connection_tables_equal_a_recount(case):
    """The tables of the weights' own files share the weights' links, and
    those of the files left beside pinned ones re-key them; both equal a
    recount from the stage's pairs. One to three files are held inactive
    and, on one seed in three, stay paired, as an unvalidated stage may
    pair them; the placed files are every file, or the held and pinned
    ones."""
    paths = set()
    for seed in range(30):
        inst, assignment, rng = case(seed)
        held = set(rng.sample(inst.stage(1).active_files, rng.randint(1, 3)))
        stage = _holding(inst.stage(1), held, paired=seed % 3 == 0)
        pinned = rng.sample(stage.active_files, rng.randint(0, 3))
        files = [f for f in stage.active_files if f not in pinned]
        weights = PairWeights(stage)
        disks = sorted(inst.capacities)
        shared = files == weights.files
        paths.add(shared)
        for placed in (assignment, {f: assignment[f] for f in [*held, *pinned]}):
            rows, links, psi = _connection_tables(files, placed, disks, weights)
            assert (links is weights.links) == shared, seed
            want = naive_connection_tables(stage, files, placed, disks)
            assert (rows, links, psi, weights.scale) == want, seed
    assert paths == {False, True}


def _recount(state):
    """Each file's gain and the discontent positions, recomputed from the
    assignment and the table."""
    gain, discontent = [], set()
    assignment = state.assignment
    for i, f in enumerate(state.files):
        row = state.rows[i]
        gain.append(row[state.slot_of[assignment[f]]] - min(row))
        if gain[i] > 0:
            discontent.add(i)
    return gain, discontent


@pytest.mark.parametrize("with_homes", [False, True])
@pytest.mark.parametrize("case", [_uniform_case, _dense_phi_case, _sparse_phi_case])
def test_placement_bookkeeping_matches_a_recount(case, with_homes):
    """After random and first-improvement steps, the gains and the set the
    scan visits equal a recount, the table equals from-scratch sums, and
    the objective, in the weights' integer units, and the loads equal a
    recount from the assignment."""
    for seed in range(30):
        inst, assignment, rng = case(seed)
        stage = inst.stage(1)
        files = sorted(stage.active_files)
        homes, allowance = {}, 0
        if with_homes:
            homes = {f: assignment[f] for f in files if rng.random() < 0.75}
            allowance = rng.choice([1, 2, len(homes)])
        weights = PairWeights(stage)
        state = _Placement(assignment, files, inst, weights, homes, allowance)
        for _ in range(rng.randint(10, 60)):
            item = next(state.neighbourhood(), None) if rng.random() < 0.5 else None
            if item is not None:
                state.apply(item[1], item[2])
            else:
                steps = list(naive_feasible_steps(state.assignment, files, inst, homes, allowance))
                if not steps:
                    break
                state.apply(*rng.choice(steps))
            assert (state.gain, state.discontent) == _recount(state), seed
            placed = state.assignment
            assert state.psi == naive_connection_tables(stage, [], placed, state.disks)[2], seed
            loads = [sum(inst.sizes[f] for f in placed if placed[f] == d) for d in state.disks]
            assert state.loads == loads, seed
            on_disk = _on_disk(state)
            for f in files:
                for d, value in zip(state.disks, state.rows[state.position[f]], strict=True):
                    assert abs(value - weights.attach_cost(f, on_disk[d])) <= _EPS


@pytest.mark.parametrize("with_homes", [False, True])
@pytest.mark.parametrize("case", [_uniform_case, _sparse_phi_case])
def test_swap_filter_never_skips_a_gaining_pair(case, with_homes):
    """Every feasible swap that gains, by the neighbourhood's own delta,
    pairs two neighbours or a discontent file; the states include local
    optima of the moves, where only swaps are left to gain."""
    skipped = 0
    for state, inst, weights, homes, allowance in _scan_states(case, with_homes):
        for _ in range(2):
            links, at = weights.links, weights.position
            position = {f: i for i, f in enumerate(state.files)}
            for step, _ in naive_feasible_steps(state.assignment, state.files, inst, homes, allowance):
                if len(step) == 1:
                    continue
                (a, _), (b, _) = step
                if at[b] in links[at[a]] or {position[a], position[b]} & state.discontent:
                    continue
                skipped += 1
                assert _table_delta(state, weights, step) >= -_EPS, step
            _descend_through_the_moves(state)
    assert skipped


def _descend_through_the_moves(state):
    """Take first-improvement moves until the first gaining step is a swap
    or nothing gains."""
    while True:
        item = next(state.neighbourhood(), None)
        if item is None or len(item[1]) != 1:
            break
        state.apply(item[1], item[2])


@pytest.mark.parametrize("with_homes", [False, True])
@pytest.mark.parametrize("case", [_uniform_case, _sparse_phi_case])
def test_scan_bounds_equal_the_naive_charge(case, with_homes):
    """Local search charges each scan ``bound``: for every feasible step,
    any of which a scan may yield first, and for a scan without a gain, it
    equals the oracle's charge, every move and pair passed, feasible or
    not. The states include local optima of the moves."""
    checked = 0
    for state, inst, _, homes, allowance in _scan_states(case, with_homes):
        files, disks = state.files, sorted(inst.capacities)
        for _ in range(2):
            for step, _ in naive_feasible_steps(state.assignment, files, inst, homes, allowance):
                checked += 1
                assert state.bound(step) == naive_scan_charge(files, disks, step), step
            assert state.bound() == naive_scan_charge(files, disks, ())
            _descend_through_the_moves(state)
    assert checked
