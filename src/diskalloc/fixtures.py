"""Bundled worked example and its recorded solution chains.

The package ships one small instance (eight unit-size files, three disks,
three stages) together with two published solution chains for it:

* a stage-optimal chain, re-solving every stage from scratch, with recorded
  inter-stage move lists costing 3.0 and 4.0 (total 7.0);
* a restructured chain, limited to a relocation budget of 2.0 per
  transition, costing 2.0 and 2.0 (total 4.0) at an objective penalty of
  1.0 at stages two and three.

The replay trajectory strategy reproduces these chains verbatim. Note one
quirk of the source material, kept as recorded: the stage-optimal chain's
first move list does not transform its first allocation into the printed
second one (the printed solution has its disk labels rotated). The
restructured chain is internally consistent throughout.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import Instance


def paper_example_path() -> Path:
    """Location of the bundled example instance document."""
    return Path(__file__).resolve().parent / "data" / "paper_example.json"


def load_paper_example() -> Instance:
    """Parse and validate the bundled example instance."""
    from .io import parse_instance_document

    doc = json.loads(paper_example_path().read_text(encoding="utf-8"))
    return parse_instance_document(doc)


# Recorded stage-optimal chain: fresh minimum-objective solution per stage.
STAGE_OPTIMAL_ASSIGNMENTS = (
    {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 1, 7: 2, 8: 3},
    {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 1, 8: 2},
    {1: 2, 2: 1, 3: 1, 4: 3, 5: 2, 6: 3, 7: 1, 8: 2},
)

# Recorded move lists between consecutive stage-optimal solutions,
# as (file, source disk, target disk).
STAGE_OPTIMAL_MOVES = (
    ((4, 1, 3), (5, 2, 1), (1, 1, 2)),
    ((4, 2, 3), (5, 3, 2), (3, 2, 1), (1, 1, 2)),
)

# Recorded restructured chain: stages two and three limited to a
# modification budget of 2.0 each, trading objective 1.0 for cheaper moves.
RESTRUCTURED_ASSIGNMENTS = (
    {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 1, 7: 2, 8: 3},
    {1: 2, 2: 2, 3: 3, 4: 1, 5: 1, 6: 1, 7: 2, 8: 3},
    {1: 2, 2: 3, 3: 2, 4: 1, 5: 1, 6: 1, 7: 2, 8: 3},
)

RESTRUCTURED_MOVES = (
    ((1, 1, 2), (5, 2, 1)),
    ((3, 3, 2), (2, 2, 3)),
)
