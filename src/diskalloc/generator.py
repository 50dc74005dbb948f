"""Seeded random instance documents for benchmarks and property tests."""

from __future__ import annotations

import math
import random
from typing import Sequence

from .errors import ValidationError


def generate_instance(
    n_files: int,
    gamma: int,
    n_stages: int,
    edge_density: float,
    size_range: Sequence[int],
    capacity_slack: float,
    seed: int,
) -> dict:
    """Deterministic random instance document.

    File sizes are drawn uniformly from ``size_range`` (inclusive). Total
    disk capacity is ceil(slack x total file size), dealt round-robin so
    the first disks get the extra tracks. Every stage is over all files;
    each file pair independently draws a precedence arc and a concurrency
    edge at ``edge_density``. The same seed always yields the same
    document, which is guaranteed to pass validation.
    """
    if n_files < 1 or gamma < 1 or n_stages < 1:
        raise ValidationError("file, disk, and stage counts must be positive")
    if not 0.0 <= edge_density <= 1.0:
        raise ValidationError("edge density must lie in [0, 1]")
    lo, hi = (int(size_range[0]), int(size_range[1]))
    if not 1 <= lo <= hi:
        raise ValidationError("size range must satisfy 1 <= low <= high")
    if not math.isfinite(capacity_slack):
        raise ValidationError("capacity slack must be finite")
    if capacity_slack < 1.0:
        raise ValidationError("capacity slack below 1.0 cannot fit the files")

    rng = random.Random(seed)
    sizes = [rng.randint(lo, hi) for _ in range(n_files)]
    total = sum(sizes)
    if not math.isfinite(capacity_slack * total):
        raise ValidationError(f"capacity slack times {total} tracks overflows")
    total_capacity = math.ceil(capacity_slack * total)
    if total_capacity < gamma:
        raise ValidationError(
            f"total capacity {total_capacity} cannot give each of {gamma} "
            "disks a positive share"
        )
    base, extra = divmod(total_capacity, gamma)
    capacities = [base + 1 if d < extra else base for d in range(gamma)]

    files = list(range(1, n_files + 1))
    stages = []
    for j in range(1, n_stages + 1):
        precedence = []
        concurrency = []
        for i, a in enumerate(files):
            for b in files[i + 1 :]:
                if rng.random() < edge_density:
                    precedence.append([a, b])
                if rng.random() < edge_density:
                    concurrency.append([a, b])
        stages.append(
            {
                "index": j,
                "active_files": list(files),
                "precedence": precedence,
                "concurrency": concurrency,
                "phi": "uniform",
            }
        )

    doc = {
        "files": [{"id": f, "size": sizes[f - 1]} for f in files],
        "disks": [{"id": d + 1, "capacity": capacities[d]} for d in range(gamma)],
        "stages": stages,
        "cost_model": "uniform",
        "relocation_unit_cost": 1.0,
        "problem_class": {"alpha": 1, "beta": 1, "gamma": gamma},
    }

    from .io import parse_instance_document

    parse_instance_document(doc)  # self-check: never emit an invalid document
    return doc
