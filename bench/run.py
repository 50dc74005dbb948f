#!/usr/bin/env python3
"""diskalloc benchmark.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload wide_heuristic --seed 1 --seconds 20 --trace 0

or every workload, each in its own process, with ``--workload all``.
The package is imported from ``src/`` of the checkout; nothing is
installed. Workloads are described in ``bench/README.md`` and
``BENCHMARK.json``.

A run sets the workload up several times (a fresh import of the package
each time) and reports the median as ``setup_s``. It then runs passes over
the workload's requests in a closed loop until ``--seconds`` have passed,
always finishing the first pass, and checks every result outside the
timed window. Times are scaled to a reference machine speed (see
``REFERENCE_S``). With ``--trace 1`` it measures half the time untraced
and half traced, in whole passes, prints the per-layer metrics instead of
the end-to-end ones, and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it name each metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, package_namespace  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Every time the benchmark reports is scaled to a reference machine speed.
# The shared host this benchmark was tuned on swings in speed by up to 1.7x
# over tens of seconds: the same local-search work (equal attach_cost counts
# within 2.5%) took 2.8 s in one run and 4.9 s a minute later. A fixed
# calibration loop, written here and shaped like the solvers' inner loops,
# is timed every CALIBRATE_EVERY seconds; each time is multiplied by
# REFERENCE_S over the median of the latest CALIBRATIONS loop times. The
# calibration is the benchmark's own code, so at a steady machine speed a
# change to the package moves scaled and wall times in the same proportion.
# Raw wall times are printed beside the metrics.
REFERENCE_S = 0.0025
CALIBRATE_EVERY = 0.1
CALIBRATIONS = 15
_rng = random.Random(0)
_CAL_ADJACENT = {
    f: {g: 1.0 for g in _rng.sample(range(60), 8) if g != f} for f in range(60)
}
_CAL_GROUPS = [set(range(d, 60, 4)) for d in range(4)]


def calibrate() -> float:
    """Seconds one fixed pass of dictionary and set work takes right now."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(6):
        for f, adjacent in _CAL_ADJACENT.items():
            for group in _CAL_GROUPS:
                total += sum(adjacent[g] for g in group if g in adjacent)
    return time.perf_counter() - start


class Clock:
    """Converts wall seconds to reference seconds at the current speed."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=CALIBRATIONS)
        self.last = -math.inf

    def tick(self) -> None:
        """Calibrate if the last calibration is older than CALIBRATE_EVERY."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY:
            self.recent.append(calibrate())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)


def load_package():
    """Import ``diskalloc`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "diskalloc" or n.startswith("diskalloc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("diskalloc")
    importlib.import_module("diskalloc.cli")
    location = Path(sys.modules["diskalloc"].__file__).resolve()
    if SRC not in location.parents:
        raise ImportError(f"diskalloc was imported from {location}, not from {SRC}")
    return package_namespace(sys.modules)


def set_up(name: str, seed: int, tiny: bool):
    """Import, generate and parse inputs, pre-solve and warm up.

    Returns the last workload built and the median set-up time in
    reference seconds."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        before = calibrate()
        start = time.perf_counter()
        da = load_package()
        workload = WORKLOADS[name](da, seed, tiny, OUT / f"work-{os.getpid()}")
        workload.requests[0].prepare()
        workload.requests[0].run()
        elapsed = time.perf_counter() - start
        times.append(elapsed * REFERENCE_S / statistics.median([before, calibrate()]))
    return workload, statistics.median(times)


class Measurement:
    def __init__(self):
        self.times: list[float] = []  # reference seconds, one per attempted request
        self.wall: list[float] = []  # the same requests' wall seconds
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.first_error = None
        self.outcomes: list = []  # the first pass's outcomes, in request order

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{label}: {reason}"


def measure(workload, seconds: float, result: Measurement, tracer=None) -> None:
    """Run passes until ``seconds`` have passed. The first pass always runs
    to its end, so every request has a reference result; a traced run ends
    on a pass boundary, so its counts are whole passes. Failures are
    counted, never retried; a result that differs from the first pass's
    fails."""
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while True:
        workload.reset()
        first_pass = len(result.outcomes) < len(workload.requests)
        for index, request in enumerate(workload.requests):
            if tracer is None and not first_pass and time.perf_counter() >= deadline:
                return
            request.prepare()
            clock.tick()
            result.attempted += 1
            if tracer is not None:
                tracer.request = f"{result.passes}:{index}"
                tracer.scale = clock.scale()
            start = time.perf_counter()
            try:
                value = request.run()
            except Exception:  # counted as a failed request, then the loop goes on
                value = None
                result.fail(request.label, traceback.format_exc(limit=3))
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.request = None
            result.wall.append(elapsed)
            result.times.append(elapsed * clock.scale())
            outcome = None
            if value is not None:
                try:
                    outcome = request.check(value)
                except CheckFailed as exc:
                    result.fail(request.label, str(exc))
                except Exception:  # a check the result breaks, e.g. a bad document
                    result.fail(request.label, traceback.format_exc(limit=3))
            if first_pass:
                result.outcomes.append(outcome)
            elif outcome is not None and outcome != result.outcomes[index]:
                result.fail(request.label, "result differs from the first pass")
        result.passes += 1
        if time.perf_counter() >= deadline:
            return


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    objectives = [o.objective for o in m.outcomes if o is not None and o.objective is not None]
    return {
        "requests_per_s": len(m.times) / sum(m.times),
        "request_ms.p50": statistics.median(m.times) * 1000,
        "request_ms.tail": tail(m.times)[0] * 1000,
        "success_rate": 1.0 - m.failed / m.attempted,
        "objective_sum": sum(objectives),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def certified_share(m: Measurement) -> float:
    claims = [o.certified for o in m.outcomes if o is not None and o.certified is not None]
    return sum(claims) / len(claims) if claims else 0.0


def digest(m: Measurement) -> str:
    h = hashlib.sha256()
    for outcome in m.outcomes:
        h.update((outcome.canon if outcome is not None else "FAILED").encode())
        h.update(b"\n")
    return h.hexdigest()


def heuristic_gaps(workload, m: Measurement) -> tuple[float, float]:
    """On small_certify: heuristic objective minus the certified optimum,
    summed, and the share of stages where the heuristic misses it."""
    if not isinstance(workload, WORKLOADS["small_certify"]):
        return 0.0, 0.0
    da = sys.modules["diskalloc.allocator"]
    gaps = []
    for instance, request, outcome in zip(workload.instances, workload.requests, m.outcomes):
        if outcome is None:
            continue
        try:
            _, heuristic, _ = da.solve_stage(instance, instance.stages[0].index, exact=False)
        except Exception:  # the heuristic's own failure is a failed check
            m.fail(request.label, "heuristic solve raised:\n" + traceback.format_exc(limit=3))
            continue
        gap = heuristic - outcome.objective
        if gap < -1e-9 * max(1.0, abs(heuristic)):
            m.fail(request.label, f"heuristic {heuristic!r} beat the certified optimum")
        gaps.append(max(gap, 0.0))
    missed = sum(1 for g in gaps if g > 1e-9)
    return sum(gaps), (missed / len(gaps) if gaps else 0.0)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diskalloc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    workload, setup_s = set_up(args.workload, args.seed, args.tiny)
    m = Measurement()
    try:
        if args.trace:
            measure(workload, args.seconds / 2, m)
            untraced_p50 = statistics.median(m.times)
            gap_sum, gap_share = heuristic_gaps(workload, m)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = Measurement()
            traced.outcomes = m.outcomes
            measure(workload, args.seconds / 2, traced, tracer)
            m.attempted += traced.attempted
            m.failed += traced.failed
            m.first_error = m.first_error or traced.first_error
            metrics = tracer.per_layer(traced.passes)
            metrics["allocator.heuristic_gap_sum"] = gap_sum
            metrics["allocator.heuristic_gap_share"] = gap_share
            metrics["certified_share"] = certified_share(m)
            metrics["trace.overhead"] = statistics.median(traced.times) / untraced_p50
            OUT.mkdir(exist_ok=True)
            labels = {i: r.label for i, r in enumerate(workload.requests)}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.dump(labels)))
            passes = f"{m.passes} untraced, {traced.passes} traced"
        else:
            measure(workload, args.seconds, m)
            metrics = end_to_end(m, setup_s)
            passes = str(m.passes)
    finally:
        workload.close()

    unit = units()
    _, percentile = tail(m.times)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {int(args.trace)}")
    print(f"nproc: {os.cpu_count()}  python: {platform.python_version()}  platform: {platform.platform()}")
    print(f"commit: {git_commit()}  source sha256: {source_digest()}")
    print(f"requests per pass: {len(workload.requests)}  passes: {passes}")
    print(f"request_ms.tail is p{percentile:.2f} of {len(m.times)} samples ({TAIL_BEYOND} beyond it)")
    print(
        f"unscaled wall time: request_ms.p50 {statistics.median(m.wall) * 1000:.3f}, "
        f"requests_per_s {len(m.wall) / sum(m.wall):.3f}; median scale to reference "
        f"speed {statistics.median(t / w for t, w in zip(m.times, m.wall) if w > 0):.4f}"
    )
    print(f"error_rate: {m.failed / m.attempted:.6f} ({m.failed} of {m.attempted})")
    print(f"certified_share: {certified_share(m):.6f}")
    print(f"output digest: {digest(m)}")
    if m.first_error:
        print(f"first failure: {m.first_error}", file=sys.stderr)
    for name, v in metrics.items():
        print(f"  {name} = {v!r} {unit.get(name, '')}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": unit[name]} for name, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        status |= subprocess.run(command, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the benchmark's self-test"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import diskalloc from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
