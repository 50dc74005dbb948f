"""The benchmark's four workloads: their inputs, requests and output checks.

Each workload builds a fixed list of requests from the workload seed. A
pass runs every request once, in order; the runner repeats passes in a
closed loop (one client, one process, no extra threads) until its time is
up. Requests call the package through module attributes at call time, so
the traced run's wrappers see every call.

Every request returns a result that ``check`` turns into an ``Outcome`` or
rejects with ``CheckFailed``. Checks run outside the timed window.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

# Relative tolerance when comparing objectives: fractional phi weights are
# summed in different orders by different code paths.
TOLERANCE = 1e-9

SIZE_RANGE = (1, 3)
SLACK = 1.3


class CheckFailed(Exception):
    """A request's result failed an output check."""


@dataclass(frozen=True)
class Outcome:
    """What a checked result contributes to the run's metrics."""

    objective: Optional[float]  # None when the request returns no allocation
    certified: Optional[bool]  # None when no optimum is claimed
    canon: str  # canonical text of the result, hashed into the digest


@dataclass
class Request:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    prepare: Callable[[], None] = lambda: None


def same_objective(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def canon(*parts) -> str:
    return json.dumps(parts, separators=(",", ":"))


def _assignment(alloc) -> list:
    return sorted(alloc.assignment.items())


def _generate(da, rng: random.Random, n, disks, stages, density) -> dict:
    return da.generate_instance(
        n, disks, stages, density, SIZE_RANGE, SLACK, rng.randrange(2**31)
    )


def _check_allocation(da, alloc, stage, instance, objective: float) -> None:
    """Feasible, and the returned objective is the allocation's real one."""
    report = da.check_allocation_feasible(alloc, stage, instance)
    if not report.feasible:
        raise CheckFailed("infeasible: " + "; ".join(report.violations))
    value = da.evaluate_objective(alloc, stage).value
    if not same_objective(objective, value):
        raise CheckFailed(f"returned objective {objective!r}, evaluates to {value!r}")


class Workload:
    """Base: ``requests`` is the pass; ``reset`` runs before every pass."""

    requests: list[Request]

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class WideHeuristic(Workload):
    """Stages too wide to enumerate: refused enumeration, then integrate,
    communities, spread and local search, as ``solve_stage`` runs them."""

    # Stage k of a pass has a file count spread evenly over FILES; disks and
    # edge density cycle. Many mid-sized stages of similar cost, rather than
    # a few large ones, keep the per-seed medians and tail steady.
    FILES = (66, 84)
    DISKS = (4, 6, 8)
    DENSITIES = (0.06, 0.08, 0.10, 0.12)
    STAGES = 288
    TINY = ((20, 3, 0.3), (24, 3, 0.25))

    def __init__(self, da, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        lo, hi = self.FILES
        specs = list(self.TINY) if tiny else [
            (lo + (hi - lo) * k // self.STAGES, self.DISKS[k % 3], self.DENSITIES[k % 4])
            for k in range(self.STAGES)
        ]
        rng.shuffle(specs)
        self.requests = []
        for k, (n, disks, density) in enumerate(specs):
            doc = _generate(da, rng, n, disks, 1, density)
            instance = da.parse_instance_document(doc)
            self.requests.append(self._request(da, f"{k}:{n}f{disks}d", instance))

    @staticmethod
    def _request(da, label, instance) -> Request:
        stage = instance.stages[0]

        def check(result) -> Outcome:
            alloc, objective, certified = result
            _check_allocation(da, alloc, stage, instance, objective)
            return Outcome(
                objective,
                certified,
                canon(label, _assignment(alloc), round(objective, 9), certified),
            )

        return Request(label, lambda: da.allocator.solve_stage(instance, stage.index), check)


class SmallCertify(Workload):
    """Certified optima by enumeration: uniform-weight stages, plus smaller
    stages carrying a dense fractional phi matrix, whose weak partial-
    objective prune makes branch-and-bound work much harder per file."""

    # One copy: (files, disks, edge density, dense fractional phi). Phi
    # entries are drawn in [0, 0.3] with 3 decimals.
    COPY = (
        (12, 3, 0.30, False),
        (13, 3, 0.30, False),
        (14, 3, 0.25, False),
        (10, 3, 0.20, True),
        (10, 4, 0.20, True),
        (11, 3, 0.20, True),
        (11, 4, 0.20, True),
        (12, 3, 0.20, True),
    )
    COPIES = 72
    TINY_COPY = ((8, 3, 0.30, False), (7, 3, 0.20, True))

    def __init__(self, da, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        specs = list(self.TINY_COPY if tiny else self.COPY * self.COPIES)
        rng.shuffle(specs)
        self.requests = []
        self.instances = []
        for k, (n, disks, density, fractional) in enumerate(specs):
            doc = _generate(da, rng, n, disks, 1, density)
            if fractional:
                doc["stages"][0]["phi"] = [
                    [0.0 if i == j else rng.randint(0, 300) / 1000 for j in range(n)]
                    for i in range(n)
                ]
            instance = da.parse_instance_document(doc)
            label = f"{k}:{n}f{disks}d" + ("-phi" if fractional else "")
            self.instances.append(instance)
            self.requests.append(self._request(da, label, instance))

    @staticmethod
    def _request(da, label, instance) -> Request:
        stage = instance.stages[0]
        cap = len(stage.active_files)

        def check(result) -> Outcome:
            alloc, objective = result
            _check_allocation(da, alloc, stage, instance, objective)
            return Outcome(
                objective, True, canon(label, _assignment(alloc), round(objective, 9))
            )

        return Request(
            label, lambda: da.allocator.exact_solve(stage, instance, cap=cap), check
        )


class _Chain:
    """One instance walked stage to stage under a fixed mode and budget.
    ``current`` is the allocation the next stage restructures from."""

    def __init__(self, label, instance, first, mode, budget):
        self.label = label
        self.instance = instance
        self.first = first
        self.mode = mode
        self.budget = budget
        self.current = first


class RestructureChain(Workload):
    """Budgeted restructuring, walked like ``trajectory --strategy
    sequential``: each request restructures one stage from the previous
    request's result, with the reference optimum computed internally."""

    # (files, disks, edge density, mode); budgets are 1, 2, 4 and ceil(n/4).
    # Greedy requests outnumber exact ones, so the median request is a
    # greedy one rather than a boundary between the two groups.
    CHAINS = tuple(
        (n, (4, 6)[k % 2], (0.10, 0.08)[k // 2 % 2], "greedy")
        for k, n in enumerate(range(48, 80, 2))
    ) + tuple((n, 3, 0.30, "exact") for n in (11, 12, 13, 14) * 2)
    TINY_CHAINS = ((16, 3, 0.2, "greedy"), (8, 3, 0.3, "exact"))
    STAGES = 4

    def __init__(self, da, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        specs = list(self.TINY_CHAINS if tiny else self.CHAINS)
        rng.shuffle(specs)
        self.chains: list[_Chain] = []
        for k, (n, disks, density, mode) in enumerate(specs):
            doc = _generate(da, rng, n, disks, self.STAGES, density)
            instance = da.parse_instance_document(doc)
            first, _, _ = da.solve_stage(instance, instance.stages[0].index)
            for budget in sorted({1, 2, 4, math.ceil(n / 4)}):
                label = f"{k}:{n}f{disks}d-{mode}-b{budget}"
                chain = _Chain(label, instance, first, da.RestructureMode(mode), float(budget))
                self.chains.append(chain)
        # Stage by stage across the shuffled chains: each chain still walks
        # its stages in order, and any prefix of a pass mixes all kinds.
        rng.shuffle(self.chains)
        self.requests = []
        for position in range(1, self.STAGES):
            for chain in self.chains:
                stage = chain.instance.stages[position]
                label = f"{chain.label}-s{stage.index}"
                self.requests.append(self._request(da, label, chain, stage))

    def reset(self) -> None:
        for chain in self.chains:
            chain.current = chain.first

    @staticmethod
    def _request(da, label, chain: _Chain, stage) -> Request:
        instance = chain.instance
        previous: list = [None]

        def run():
            previous[0] = chain.current
            problem = da.RestructuringProblem(
                instance=instance, stage=stage, previous=chain.current, budget=chain.budget
            )
            result = da.restructure.restructure_one_stage(problem, chain.mode)
            chain.current = result.allocation
            return result

        def check(result) -> Outcome:
            prev = previous[0]
            alloc = result.allocation
            _check_allocation(da, alloc, stage, instance, result.objective)
            moves = [(m.file, m.src, m.dst) for m in result.plan.moves]
            expected = [
                (f, prev.assignment[f], d)
                for f, d in alloc.assignment.items()
                if f in prev.assignment and prev.assignment[f] != d
            ]
            if moves != expected:
                raise CheckFailed(f"plan {moves} does not match the allocation change")
            allowance = math.floor(chain.budget / instance.relocation_unit_cost + 1e-9)
            if len(moves) > allowance:
                raise CheckFailed(f"{len(moves)} moves exceed the allowance {allowance}")
            before = da.evaluate_objective(prev, stage).value
            if result.objective > before and not same_objective(result.objective, before):
                raise CheckFailed(
                    f"objective {result.objective!r} is worse than the previous "
                    f"allocation's {before!r}"
                )
            if not same_objective(result.proximity, result.objective - result.reference):
                raise CheckFailed("proximity is not objective minus reference")
            return Outcome(
                result.objective,
                result.certified,
                canon(
                    label,
                    _assignment(alloc),
                    moves,
                    round(result.objective, 9),
                    round(result.reference, 9),
                    result.certified,
                ),
            )

        return Request(label, run, check)


class CliDocuments(Workload):
    """Whole ``diskalloc`` command lines run in-process, reading and writing
    documents: large dense instances for evaluate and diff, the bundled
    example and small generated instances for the solver commands."""

    BIG = (150, 4, 3, 0.30)  # files, disks, stages, edge density: about 1 MB
    SMALL = (10, 3, 3, 0.30)
    MEDIUM = (40, 4, 3, 0.10)
    TINY_BIG = (20, 3, 3, 0.30)

    def __init__(self, da, seed: int, tiny: bool, workdir: Path):
        self.da = da
        rng = random.Random(seed)
        self.dir = workdir
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        d = self.dir
        big = _generate(da, rng, *(self.TINY_BIG if tiny else self.BIG))
        da.write_document(big, d / "big.json")
        big_instance = da.parse_instance(d / "big.json")
        for stage in big_instance.stages:
            relation = da.integrate_relations(stage)
            communities = da.detect_communities(
                relation, stage.active_files, big_instance.gamma
            )
            alloc = da.spread_allocate(communities, big_instance, stage)
            solution = da.solution_from_allocation(alloc, stage.index)
            da.write_document(
                da.emit_solution_document(solution), d / f"big_s{stage.index}.json"
            )
        da.write_document(_generate(da, rng, *self.SMALL), d / "small.json")
        medium = self.SMALL if tiny else self.MEDIUM
        da.write_document(_generate(da, rng, *medium), d / "medium.json")
        example = str(da.paper_example_path())
        example_instance = da.load_paper_example()
        first, objective = da.exact_solve(example_instance.stages[0], example_instance)
        da.write_document(
            da.emit_solution_document(da.solution_from_allocation(first, 1, objective)),
            d / "example_s1.json",
        )
        generate = [
            "--n-files", "100", "--gamma", "4", "--n-stages", "3",
            "--edge-density", "0.3", "--size-range", "1", "3",
            "--capacity-slack", "1.3", "--seed", str(rng.randrange(2**31)),
        ]
        if tiny:
            generate[1] = "12"
        commands = [
            ["evaluate", "--instance", "big.json", "--solution", "big_s1.json", "--stage", "1"],
            ["evaluate", "--instance", "big.json", "--solution", "big_s2.json", "--stage", "2"],
            ["evaluate", "--instance", "big.json", "--solution", "big_s3.json", "--stage", "3"],
            ["diff", "--from", "big_s1.json", "--to", "big_s2.json"],
            ["diff", "--from", "big_s2.json", "--to", "big_s3.json"],
            ["solve", "--instance", example, "--stage", "1"],
            ["solve", "--instance", example, "--stage", "2", "--dump-relations"],
            ["solve", "--instance", example, "--stage", "3", "--exact"],
            ["evaluate", "--instance", example, "--solution", "example_s1.json", "--stage", "2"],
            ["solve", "--instance", "small.json", "--stage", "1"],
            ["solve", "--instance", "medium.json", "--stage", "2"],
            ["oracle", "--instance", example, "--stage", "1"],
            ["oracle", "--instance", example, "--stage", "3"],
            ["oracle", "--instance", "small.json", "--stage", "2"],
            ["restructure", "--instance", example, "--stage", "2",
             "--previous", "example_s1.json", "--budget", "2"],
            ["restructure", "--instance", example, "--stage", "3",
             "--previous", "example_s1.json", "--budget", "1", "--mode", "greedy"],
            ["trajectory", "--instance", example, "--strategy", "sequential",
             "--budgets", "2,2"],
            ["trajectory", "--instance", example, "--strategy", "independent"],
            ["trajectory", "--instance", "small.json", "--strategy", "sequential",
             "--budgets", "1,3", "--mode", "greedy"],
            ["trajectory", "--instance", example, "--strategy", "replay"],
            ["generate", *generate],
        ]
        self.requests = []
        for k, argv in enumerate(commands):
            out = d / f"out{k}.json"
            argv = [str(d / a) if a.endswith(".json") and "/" not in a else a for a in argv]
            argv += ["--output", str(out)]
            self.requests.append(self._request(f"{k}:{argv[0]}", argv, out))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _request(self, label, argv, out: Path) -> Request:
        da = self.da

        def prepare():
            out.unlink(missing_ok=True)

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = da.cli.run_command(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        def check(result) -> Outcome:
            code, stdout, stderr = result
            if code != 0:
                raise CheckFailed(f"exit code {code}: {stderr.strip()}")
            try:
                written = out.read_bytes()
            except OSError as exc:
                raise CheckFailed(f"no --output document: {exc}") from None
            objective = certified = None
            if argv[0] == "generate":
                da.parse_instance(out)
            else:
                doc = da.parse_solution(out)
                if doc.stages:
                    objective = sum(s.objective for s in doc.stages if s.objective is not None)
                if argv[0] in ("solve", "oracle", "restructure", "trajectory"):
                    certified = "certified" not in stdout
            digest = hashlib.sha256(written).hexdigest()
            return Outcome(objective, certified, canon(label, stdout, digest))

        return Request(label, run, check, prepare)


WORKLOADS = {
    "wide_heuristic": WideHeuristic,
    "small_certify": SmallCertify,
    "restructure_chain": RestructureChain,
    "cli_documents": CliDocuments,
}


def package_namespace(modules) -> SimpleNamespace:
    """Flat view of the package: its re-exports plus its submodules."""
    package = modules["diskalloc"]
    ns = SimpleNamespace(**{k: getattr(package, k) for k in package.__all__})
    for name in ("allocator", "cli", "restructure", "io", "relations", "report"):
        setattr(ns, name, modules[f"diskalloc.{name}"])
    return ns
