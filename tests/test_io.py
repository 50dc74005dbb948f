"""Document parsing, emission, and the instance generator."""

import gc
import json
import random
from types import MappingProxyType

import pytest

from diskalloc import (
    Allocation,
    DocumentError,
    SolutionDocument,
    SolutionStage,
    SolutionTransition,
    Stage,
    TrajectoryStrategy,
    ValidationError,
    allocation_from_solution_stage,
    dump_document,
    emit_instance_document,
    emit_solution_document,
    paper_example_path,
    parse_instance,
    parse_instance_document,
    parse_solution,
    parse_solution_document,
    plan_trajectory,
    solution_from_allocation,
    solution_from_trajectory,
    write_document,
)
from diskalloc.cli import _cmd_evaluate, build_parser
from diskalloc.generator import generate_instance

import reference_data as ref


def bundled_doc():
    return json.loads(paper_example_path().read_text())


def parse_error(doc):
    with pytest.raises(DocumentError) as info:
        parse_instance_document(doc)
    return str(info.value)


# --- instance documents --------------------------------------------------


def test_bundled_document_round_trips(instance):
    emitted = emit_instance_document(instance)
    assert parse_instance_document(emitted) == instance


def test_task_digraphs_round_trip(instance):
    doc = emit_instance_document(instance)
    doc["task_digraphs"] = {"1": [[1, 2], [2, 3]]}
    parsed = parse_instance_document(json.loads(dump_document(doc)))
    assert parsed.task_digraphs == {"1": [[1, 2], [2, 3]]}
    assert emit_instance_document(parsed) == doc
    assert parse_instance_document(emit_instance_document(parsed)) == parsed


def test_emitted_document_is_json_serializable(instance):
    text = dump_document(emit_instance_document(instance))
    assert parse_instance_document(json.loads(text)) == instance


def test_parse_instance_reads_the_bundled_file(instance):
    assert parse_instance(paper_example_path()) == instance


def test_parse_instance_wraps_missing_files(tmp_path):
    with pytest.raises(DocumentError, match="cannot read instance file"):
        parse_instance(tmp_path / "absent.json")


def test_parse_instance_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"files": [,]}')
    with pytest.raises(DocumentError, match="line 1, column 12"):
        parse_instance(bad)


def test_unknown_top_level_field():
    doc = bundled_doc()
    doc["spindles"] = 4
    assert "unknown field 'spindles'" in parse_error(doc)


def test_missing_required_field():
    doc = bundled_doc()
    del doc["disks"]
    message = parse_error(doc)
    assert "missing required field 'disks'" in message
    assert message.startswith("instance:")


def test_field_paths_name_the_offending_entry():
    doc = bundled_doc()
    doc["files"][2]["size"] = "big"
    assert parse_error(doc).startswith("files[2].size: expected integer")


def test_booleans_are_not_integers():
    doc = bundled_doc()
    doc["files"][0]["id"] = True
    assert "files[0].id: expected integer, got bool" in parse_error(doc)


def test_pair_lists_must_hold_pairs():
    doc = bundled_doc()
    doc["stages"][0]["precedence"][1] = [1, 2, 3]
    assert "stages[0].precedence[1]: expected a pair" in parse_error(doc)
    doc = bundled_doc()
    doc["stages"][0]["concurrency"][0] = "2-3"
    assert "stages[0].concurrency[0]: expected list" in parse_error(doc)


def test_python_built_documents_are_checked_as_json_ones():
    # The one-pass checks take only exact JSON types; anything else is
    # walked entry by entry, which rejects a tuple as ever.
    doc = bundled_doc()
    doc["stages"][0]["precedence"][1] = (1, 2)
    assert parse_error(doc) == "stages[0].precedence[1]: expected list, got tuple"
    doc = bundled_doc()
    doc["stages"][2]["e3_override"][1] = (1, 2)
    assert parse_error(doc) == "stages[2].e3_override[1]: expected list, got tuple"


class _Id(int):
    """An int subclass, as a Python caller may hold ids."""


def _with_int_subclasses(value):
    if type(value) is int:
        return _Id(value)
    if isinstance(value, list):
        return [_with_int_subclasses(v) for v in value]
    if isinstance(value, dict):
        return {k: _with_int_subclasses(v) for k, v in value.items()}
    return value


def test_int_subclasses_read_as_their_values():
    doc = bundled_doc()
    doc["stages"][0]["phi"] = _phi((0, 1), 1.0)
    expected = parse_instance_document(doc)
    doc["stages"][0]["phi"] = _phi((0, 1), 1)
    assert parse_instance_document(_with_int_subclasses(doc)) == expected


def _assert_canonical_stage(stage):
    """Plain frozensets of exact-int 2-tuples, unordered ones (low, high),
    and a read-only phi over a plain dict of exact-int pair keys and float
    weights."""
    for field, unordered in (
        (stage.precedence, False),
        (stage.concurrency, True),
        (stage.e3_override or frozenset(), True),
    ):
        assert type(field) is frozenset
        assert {type(pair) for pair in field} <= {tuple}
        assert {len(pair) for pair in field} <= {2}
        assert {type(end) for pair in field for end in pair} <= {int}
        if unordered:
            assert all(a <= b for a, b in field)
    if stage.phi is not None:
        assert type(stage.phi) is MappingProxyType
        assert [type(mapping) for mapping in gc.get_referents(stage.phi)] == [dict]
        assert {type(end) for pair in stage.phi for end in pair} <= {int}
        assert {type(w) for w in stage.phi.values()} <= {float}


def _messy_document(seed):
    """A generated document whose concurrency and override pairs are partly
    written reversed and duplicated, with uniform, dense or sparse phi whose
    cells are floats or ints, and zeros 0.0, -0.0 or 0."""
    rng = random.Random(seed)
    doc = generate_instance(8, 2, 3, 0.5, (1, 2), 1.5, seed)
    for raw in doc["stages"]:
        files = raw["active_files"]
        flip = rng.choice([0.0, 0.3, 1.0])

        def messy(pairs):
            pairs = [p[::-1] if rng.random() < flip else p for p in pairs]
            return pairs + [list(p) for p in rng.sample(pairs, len(pairs) // 4)]

        raw["concurrency"] = messy(raw["concurrency"])
        if rng.random() < 0.7:
            raw["e3_override"] = messy(
                [[a, b] for a in files for b in files if a < b and rng.random() < 0.4]
            )
        density = rng.choice([None, 1.0, 0.2])
        if density is not None:
            raw["phi"] = [
                [
                    rng.choice((round(rng.random(), 3), rng.randint(1, 3)))
                    if a != b and rng.random() < density
                    else rng.choice((0.0, -0.0, 0))
                    for b in files
                ]
                for a in files
            ]
    return doc


@pytest.mark.parametrize("seed", range(12))
def test_handed_over_pairs_equal_a_directly_built_stage(seed):
    doc = _messy_document(seed)
    instance = parse_instance_document(doc)
    for raw, stage in zip(doc["stages"], instance.stages):
        phi = raw["phi"]
        weights = None
        if phi != "uniform":
            files = raw["active_files"]
            weights = {
                (a, b): w for a, row in zip(files, phi) for b, w in zip(files, row) if w != 0.0
            }
        expected = Stage(
            index=raw["index"],
            active_files=tuple(raw["active_files"]),
            precedence=frozenset(map(tuple, raw["precedence"])),
            concurrency=frozenset(map(tuple, raw["concurrency"])),
            phi=weights,
            e3_override=(
                frozenset(map(tuple, raw["e3_override"])) if "e3_override" in raw else None
            ),
        )
        assert stage == expected
        assert stage.concurrency == {(min(p), max(p)) for p in raw["concurrency"]}
        assert (None if stage.phi is None else dict(stage.phi)) == weights
        _assert_canonical_stage(stage)
        _assert_canonical_stage(expected)


def test_int_subclass_pair_ends_read_as_exact_ints():
    doc = _messy_document(3)
    doc["stages"][0]["e3_override"] = [[2, 1], [3, 4]]
    doc["stages"][0]["phi"] = [[0, 1] + [0] * 6] + [[0] * 8 for _ in range(7)]
    instance = parse_instance_document(_with_int_subclasses(doc))
    assert instance == parse_instance_document(doc)
    for stage in instance.stages:
        _assert_canonical_stage(stage)


def test_stage_keys_are_checked():
    doc = bundled_doc()
    del doc["stages"][1]["index"]
    assert "stages[1]: missing required field 'index'" in parse_error(doc)
    doc = bundled_doc()
    doc["stages"][0]["relations"] = []
    assert "stages[0]: unknown field 'relations'" in parse_error(doc)


def test_unknown_cost_model():
    doc = bundled_doc()
    doc["cost_model"] = "zoned"
    assert "unknown cost model 'zoned'" in parse_error(doc)


def test_parsed_documents_are_validated():
    doc = bundled_doc()
    doc["stages"][0]["precedence"].append([1, 1])
    with pytest.raises(ValidationError):
        parse_instance_document(doc)


def test_phi_matrix_round_trips():
    doc = bundled_doc()
    doc["stages"] = [
        {
            "index": 1,
            "active_files": [1, 2, 3],
            "concurrency": [[1, 2]],
            "phi": [[0.0, 0.5, 0.0], [0.25, 0.0, 0.0], [0.0, 0.125, 0.0]],
        }
    ]
    inst = parse_instance_document(doc)
    phi = dict(inst.stage(1).phi)
    assert phi == {(1, 2): 0.5, (2, 1): 0.25, (3, 2): 0.125}
    assert parse_instance_document(emit_instance_document(inst)) == inst


def test_active_files_are_unique():
    # phi rows follow the listed files, so a repeat would put the weights
    # on the wrong pairs: this one read as {(1, 2): 0.3, (2, 1): 0.6}
    doc = bundled_doc()
    doc["stages"] = [
        {
            "index": 1,
            "active_files": [1, 1, 2],
            "phi": [[0.0, 0.0, 0.1], [0.0, 0.0, 0.3], [0.4, 0.6, 0.0]],
        }
    ]
    assert parse_error(doc) == "stages[0].active_files[1]: file 1 appears twice"


def test_phi_matrix_shape_is_enforced():
    doc = bundled_doc()
    doc["stages"][0]["phi"] = [[0.0] * 8] * 7
    assert "stages[0].phi: matrix needs 8 rows, got 7" in parse_error(doc)
    doc = bundled_doc()
    doc["stages"][0]["phi"] = [[0.0] * 8] * 7 + [[0.0] * 3]
    assert "stages[0].phi[7]: row needs 8 entries, got 3" in parse_error(doc)


def test_phi_matrix_diagonal_must_be_zero():
    doc = bundled_doc()
    matrix = [[0.0] * 8 for _ in range(8)]
    matrix[4][4] = 0.1
    doc["stages"][0]["phi"] = matrix
    assert "stages[0].phi[4][4]: diagonal entries must be zero" in parse_error(doc)


def test_phi_matrix_rejects_non_numbers():
    doc = bundled_doc()
    matrix = [[0.0] * 8 for _ in range(8)]
    matrix[0][1] = "half"
    doc["stages"][0]["phi"] = matrix
    assert "stages[0].phi[0][1]: expected number" in parse_error(doc)


def _set_unit_cost(doc, value):
    doc["relocation_unit_cost"] = value


def _set_phi_cell(doc, value):
    matrix = [[0.0] * 8 for _ in range(8)]
    matrix[0][1] = value
    doc["stages"][0]["phi"] = matrix


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "huge"])
@pytest.mark.parametrize(
    "edit, path",
    [
        (_set_unit_cost, "relocation_unit_cost"),
        (_set_phi_cell, "stages[0].phi[0][1]"),
    ],
    ids=["relocation_unit_cost", "phi"],
)
def test_instance_numbers_must_be_finite(edit, path, value):
    doc = bundled_doc()
    edit(doc, value)
    assert f"{path}: expected a finite number" in parse_error(doc)


def test_e3_override_round_trips():
    doc = bundled_doc()
    inst = parse_instance_document(doc)
    assert inst.stage(3).e3_override == frozenset(ref.INTEGRATED_STAGE_3)
    again = parse_instance_document(emit_instance_document(inst))
    assert again.stage(3).e3_override == inst.stage(3).e3_override


def test_defaults_fill_in_optional_fields():
    doc = {
        "files": [{"id": 1, "size": 1}],
        "disks": [{"id": 1, "capacity": 1}],
        "stages": [{"index": 1, "active_files": [1]}],
    }
    inst = parse_instance_document(doc)
    assert inst.cost_model.value == "uniform"
    assert inst.relocation_unit_cost == 1.0
    assert inst.problem_class.gamma == 1
    assert inst.stage(1).precedence == frozenset()
    assert inst.stage(1).phi is None


# --- solution documents --------------------------------------------------


def solution_doc():
    return {
        "stages": [
            {"index": 1, "assignment": {str(f): d for f, d in ref.X1.items()}},
            {
                "index": 2,
                "assignment": {str(f): d for f, d in ref.X2_STAR.items()},
                "objective": 1.0,
                "rho": 1.0,
            },
        ],
        "transitions": [
            {
                "from_stage": 1,
                "to_stage": 2,
                "moves": [
                    {"file": 1, "from": 1, "to": 2},
                    {"file": 5, "from": 2, "to": 1},
                ],
                "h": 2.0,
            }
        ],
        "total_modification_cost": 2.0,
    }


def test_solution_document_parses():
    sol = parse_solution_document(solution_doc())
    assert dict(sol.stage(1).assignment) == ref.X1
    assert sol.stage(2).objective == 1.0
    assert sol.stage(2).rho == 1.0
    assert sol.transitions[0].h == 2.0
    assert [m.file for m in sol.transitions[0].moves] == [1, 5]
    assert sol.total_modification_cost == 2.0


def test_solution_document_round_trips():
    sol = parse_solution_document(solution_doc())
    assert parse_solution_document(emit_solution_document(sol)) == sol


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_solution_objective_must_be_finite(value):
    doc = solution_doc()
    doc["stages"][1]["objective"] = value
    with pytest.raises(DocumentError, match=r"stages\[1\]\.objective: expected a finite number"):
        parse_solution_document(doc)


def test_solution_rejects_non_numeric_keys():
    doc = solution_doc()
    doc["stages"][0]["assignment"]["one"] = 1
    with pytest.raises(DocumentError, match="is not a file id"):
        parse_solution_document(doc)


@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("assignment", {"1": 1, "01": 2, " 2": 1, "3_0": 2}, "assignment key '01' is not a canonical file id"),
        ("assignment", {"1": 1, " 2": 1}, "assignment key ' 2' is not a canonical file id"),
        ("assignment", {"1": 1, "3_0": 2}, "assignment key '3_0' is not a canonical file id"),
        ("assignment", {"+1": 1}, "assignment key '+1' is not a canonical file id"),
        ("assignment", {"-0": 1}, "assignment key '-0' is not a canonical file id"),
        ("ordering", {"1": [1], "01": [2]}, "ordering key '01' is not a canonical disk id"),
    ],
)
def test_solution_id_keys_must_be_canonical(field, entries, message):
    doc = solution_doc()
    doc["stages"][0][field] = entries
    with pytest.raises(DocumentError) as info:
        parse_solution_document(doc)
    assert str(info.value) == f"stages[0].{field}: {message}"


def test_solution_negative_id_keys_stay_canonical():
    doc = solution_doc()
    doc["stages"][0]["assignment"] = {"-1": 1, "0": 2}
    assert dict(parse_solution_document(doc).stage(1).assignment) == {-1: 1, 0: 2}


def test_solution_stage_indexes_are_unique():
    # evaluate --stage 2 would otherwise score the first entry silently
    doc = solution_doc()
    doc["stages"].append({"index": 2, "assignment": {"1": 3}})
    with pytest.raises(DocumentError) as info:
        parse_solution_document(doc)
    assert str(info.value) == "stages[2].index: stage 2 appears twice"


def test_solution_transition_moves_each_file_once():
    doc = solution_doc()
    doc["transitions"][0]["moves"].append({"file": 1, "from": 2, "to": 3})
    with pytest.raises(DocumentError) as info:
        parse_solution_document(doc)
    assert str(info.value) == "transitions[0].moves[2].file: file 1 appears twice"


def test_solution_rejects_unknown_stage_field():
    doc = solution_doc()
    doc["stages"][0]["psi"] = 0.0
    with pytest.raises(DocumentError, match="unknown field 'psi'"):
        parse_solution_document(doc)


def test_solution_transition_fields_are_required():
    doc = solution_doc()
    del doc["transitions"][0]["h"]
    with pytest.raises(DocumentError, match="missing required field 'h'"):
        parse_solution_document(doc)


def test_solution_move_shape_is_checked():
    doc = solution_doc()
    doc["transitions"][0]["moves"][1] = {"file": 5, "from": 2}
    with pytest.raises(
        DocumentError, match=r"transitions\[0\].moves\[1\]: missing required field 'to'"
    ):
        parse_solution_document(doc)


def test_solution_stage_lookup():
    sol = parse_solution_document(solution_doc())
    assert sol.stage(2).index == 2
    with pytest.raises(DocumentError, match="no stage 9"):
        sol.stage(9)


def test_solution_from_allocation_and_back():
    alloc = Allocation(ref.X1, ordering={1: (1, 4, 6), 2: (2, 5, 7), 3: (3, 8)})
    sol = solution_from_allocation(alloc, 1, objective=0.0)
    emitted = emit_solution_document(sol)
    assert emitted["stages"][0]["ordering"] == {"1": [1, 4, 6], "2": [2, 5, 7], "3": [3, 8]}
    parsed = parse_solution_document(emitted)
    restored = allocation_from_solution_stage(parsed.stage(1))
    assert restored == alloc


def trajectory_chains(instance):
    """Every strategy's chain over the bundled example, then the
    independent and both sequential chains over generated 9-file, 3-stage
    instances whose moves cost 0.1 or 0.7, at budgets of a few moves."""
    sequential = TrajectoryStrategy.SEQUENTIAL_RESTRUCTURED
    yield plan_trajectory(instance, sequential, budgets=(2.0, 2.0))
    yield plan_trajectory(instance, sequential, budgets=(2.0, 2.0), mode="greedy")
    yield plan_trajectory(instance, TrajectoryStrategy.INDEPENDENT_OPTIMAL)
    yield plan_trajectory(instance, TrajectoryStrategy.PAPER_REPLAY)
    for seed, unit in ((1, 0.1), (2, 0.7), (3, 0.1)):
        doc = generate_instance(9, 3, 3, 0.3, (1, 2), 1.3, seed)
        doc["relocation_unit_cost"] = unit
        inst = parse_instance_document(doc)
        budgets = (3 * unit, 2 * unit + 0.05)
        yield plan_trajectory(inst, TrajectoryStrategy.INDEPENDENT_OPTIMAL)
        yield plan_trajectory(inst, sequential, budgets=budgets)
        yield plan_trajectory(inst, sequential, budgets=budgets, mode="greedy")


def test_solution_from_trajectory_mirrors_every_field(instance):
    for traj in trajectory_chains(instance):
        sol = solution_from_trajectory(traj)
        assert [s.index for s in sol.stages] == list(traj.stage_indices)
        assert sol.total_modification_cost == traj.total_modification_cost
        assert [t.h for t in sol.transitions] == [p.total_cost for p in traj.plans]
        assert [s.objective for s in sol.stages] == list(traj.objectives)
        assert [s.rho for s in sol.stages] == list(traj.proximities)
        assert parse_solution_document(emit_solution_document(sol)) == sol
        # Each total is derived from the chain's own parts.
        for i, rho in enumerate(traj.proximities):
            assert rho == traj.objectives[i] - traj.optima[i]
        assert traj.total_modification_cost == sum(p.total_cost for p in traj.plans)


def test_empty_transitions_key_is_omitted():
    sol = SolutionDocument(
        stages=(SolutionStage(index=1, assignment={1: 1}),),
    )
    emitted = emit_solution_document(sol)
    assert "transitions" not in emitted
    assert "total_modification_cost" not in emitted


def test_transition_dataclass_validates():
    with pytest.raises(ValidationError):
        SolutionTransition(from_stage=1, to_stage=1, moves=(), h=0.0)


def test_write_document_ends_with_newline(tmp_path, instance):
    target = tmp_path / "out.json"
    write_document(emit_instance_document(instance), target)
    text = target.read_text()
    assert text.endswith("}\n")
    assert parse_instance_document(json.loads(text)) == instance


def _circular_list():
    value = [1, [2]]
    value[1].append(value)
    return value


def _circular_dict():
    value = {"a": {}}
    value["a"]["b"] = value
    return value


@pytest.mark.parametrize(
    "value, error",
    [
        ({"stages": [{1, 2}]}, TypeError),
        ([[1, 2], [object(), 3]], TypeError),
        ({(1, 2): 3}, TypeError),
        (_circular_list(), ValueError),
        (_circular_dict(), ValueError),
    ],
    ids=["set", "object", "tuple key", "circular list", "circular dict"],
)
def test_dump_document_refuses_what_json_dumps_refuses(value, error):
    with pytest.raises(error) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(error, match=f"^{expected.value}$"):
        dump_document(value)


def test_dump_document_nests_past_the_recursion_limit():
    depth = 5000
    value: list = []
    for _ in range(depth):
        value = [value]
    opening = "".join("[\n" + "  " * (level + 1) for level in range(depth))
    closing = "".join("\n" + "  " * level + "]" for level in reversed(range(depth)))
    assert dump_document(value) == opening + "[]" + closing


# --- generator -----------------------------------------------------------


def gen(**overrides):
    kw = dict(
        n_files=8,
        gamma=3,
        n_stages=2,
        edge_density=0.4,
        size_range=(1, 3),
        capacity_slack=1.5,
        seed=42,
    )
    kw.update(overrides)
    return generate_instance(**kw)


def test_generator_is_deterministic():
    assert gen() == gen()
    assert dump_document(gen()) == dump_document(gen())


def test_generator_varies_with_seed():
    assert gen(seed=1) != gen(seed=2)


def test_generated_documents_validate():
    for seed in range(10):
        inst = parse_instance_document(gen(seed=seed))
        assert inst.gamma == 3
        assert len(inst.stages) == 2
        for stage in inst.stages:
            assert stage.active_files == tuple(f.id for f in inst.files)


def test_generator_splits_capacity_round_robin():
    doc = gen(size_range=(1, 1), capacity_slack=1.0)
    # eight tracks over three disks: remainder goes to the lowest ids
    assert [d["capacity"] for d in doc["disks"]] == [3, 3, 2]


def test_generator_density_extremes():
    sparse = gen(edge_density=0.0)
    for stage in sparse["stages"]:
        assert stage["precedence"] == [] and stage["concurrency"] == []
    dense = gen(edge_density=1.0, n_files=4)
    pairs = 4 * 3 // 2
    for stage in dense["stages"]:
        assert len(stage["precedence"]) == pairs
        assert len(stage["concurrency"]) == pairs


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(n_files=0), "must be positive"),
        (dict(gamma=0), "must be positive"),
        (dict(n_stages=0), "must be positive"),
        (dict(edge_density=1.5), "lie in"),
        (dict(edge_density=-0.1), "lie in"),
        (dict(size_range=(0, 2)), "1 <= low <= high"),
        (dict(size_range=(3, 2)), "1 <= low <= high"),
        (dict(capacity_slack=0.9), "slack below 1.0"),
        (dict(n_files=1, gamma=2, size_range=(1, 1), capacity_slack=1.0), "positive share"),
        (dict(capacity_slack=float("nan")), "slack must be finite"),
        (dict(capacity_slack=float("inf")), "slack must be finite"),
        (dict(capacity_slack=1e308), "overflows"),
    ],
)
def test_generator_rejects_bad_parameters(overrides, message):
    with pytest.raises(ValidationError, match=message):
        gen(**overrides)


# --- error corpus --------------------------------------------------------
#
# Each malformed document is paired with the exact message the reader
# raises, so a rewrite of the readers must keep every message, field path
# and error order. An edit returns the document to write as JSON, a str to
# write as raw text, or None to write no file. Messages may name the file
# as {path} and its directory as {dir}.

_DROP = object()


def _edit(*changes):
    """An edit applying (key path, value) changes; _DROP deletes the key."""

    def apply(doc):
        for keys, value in changes:
            target = doc
            for key in keys[:-1]:
                target = target[key]
            if value is _DROP:
                del target[keys[-1]]
            else:
                target[keys[-1]] = value
        return doc

    return apply


def _phi(cell=(0, 1), value=0.0, rows=8):
    matrix = [[0.0] * 8 for _ in range(rows)]
    if cell is not None:
        matrix[cell[0]][cell[1]] = value
    return matrix


def _read_stage_9(path):
    return parse_solution(path).stage(9)


def _write_to_the_directory(path):
    write_document({}, path.parent)


def _evaluate(path, stage):
    argv = ["evaluate", "--instance", str(paper_example_path()), "--solution", str(path)]
    _cmd_evaluate(build_parser().parse_args(argv + ["--stage", str(stage)]))


def _evaluate_stage_1(path):
    _evaluate(path, 1)


def _evaluate_stage_2(path):
    _evaluate(path, 2)


_INSTANCE_ERRORS = [
    (lambda doc: [doc], "instance: expected dict, got list"),
    (_edit((("spindles",), 4)), "instance: unknown field 'spindles'"),
    (_edit((("zz",), 1), (("yy",), 1), (("disks",), _DROP)), "instance: unknown field 'yy'"),
    (_edit((("stages",), _DROP), (("disks",), _DROP)), "instance: missing required field 'disks'"),
    (_edit((("files",), {})), "files: expected list, got dict"),
    (_edit((("files", 1), 3)), "files[1]: expected dict, got int"),
    (_edit((("files", 0, "name"), "a")), "files[0]: unknown field 'name'"),
    (_edit((("files", 0, "size"), _DROP)), "files[0]: missing required field 'size'"),
    (_edit((("files", 0, "id"), True)), "files[0].id: expected integer, got bool"),
    (_edit((("files", 2), {"id": "x", "size": "y"})), "files[2].id: expected integer, got str"),
    (_edit((("files", 2, "size"), 1.5)), "files[2].size: expected integer, got float"),
    (_edit((("files", 7, "size"), "1"), (("disks",), "3")), "files[7].size: expected integer, got str"),
    (_edit((("disks",), "3")), "disks: expected list, got str"),
    (_edit((("disks", 0), None)), "disks[0]: expected dict, got NoneType"),
    (_edit((("disks", 2, "capacity"), _DROP)), "disks[2]: missing required field 'capacity'"),
    (_edit((("disks", 1, "id"), 2.0)), "disks[1].id: expected integer, got float"),
    (_edit((("disks", 0, "capacity"), None)), "disks[0].capacity: expected integer, got NoneType"),
    (_edit((("stages",), {})), "stages: expected list, got dict"),
    (_edit((("stages", 1), [])), "stages[1]: expected dict, got list"),
    (_edit((("stages", 0, "relations"), [])), "stages[0]: unknown field 'relations'"),
    (_edit((("stages", 1, "index"), _DROP)), "stages[1]: missing required field 'index'"),
    (_edit((("stages", 2, "active_files"), _DROP)), "stages[2]: missing required field 'active_files'"),
    (_edit((("stages", 0, "active_files"), "1-8")), "stages[0].active_files: expected list, got str"),
    (_edit((("stages", 0, "active_files", 3), "4")), "stages[0].active_files[3]: expected integer, got str"),
    (_edit((("stages", 1, "index"), "2"), (("stages", 1, "active_files", 0), None)), "stages[1].active_files[0]: expected integer, got NoneType"),
    (_edit((("stages", 2, "index"), 3.0)), "stages[2].index: expected integer, got float"),
    (_edit((("stages", 1, "index"), "2"), (("stages", 1, "phi"), "random")), "stages[1].phi: expected list, got str"),
    (_edit((("stages", 0, "precedence"), {})), "stages[0].precedence: expected list, got dict"),
    (_edit((("stages", 0, "precedence", 1), [1, 2, 3])), "stages[0].precedence[1]: expected a pair, got 3 entries"),
    (_edit((("stages", 0, "precedence", 0, 0), False)), "stages[0].precedence[0][0]: expected integer, got bool"),
    (_edit((("stages", 0, "concurrency", 0), "2-3")), "stages[0].concurrency[0]: expected list, got str"),
    (_edit((("stages", 0, "concurrency", 0, 1), "3")), "stages[0].concurrency[0][1]: expected integer, got str"),
    (_edit((("stages", 0, "concurrency"), 1), (("stages", 0, "precedence"), 1)), "stages[0].precedence: expected list, got int"),
    (_edit((("stages", 0, "phi"), "random")), "stages[0].phi: expected list, got str"),
    (_edit((("stages", 0, "phi"), _phi(rows=7))), "stages[0].phi: matrix needs 8 rows, got 7"),
    (_edit((("stages", 0, "phi"), _phi()), (("stages", 0, "phi", 2), 0)), "stages[0].phi[2]: expected list, got int"),
    (_edit((("stages", 0, "phi"), _phi()), (("stages", 0, "phi", 7), [0.0] * 3)), "stages[0].phi[7]: row needs 8 entries, got 3"),
    (_edit((("stages", 0, "phi"), _phi((4, 4), 0.1))), "stages[0].phi[4][4]: diagonal entries must be zero"),
    (_edit((("stages", 0, "phi"), _phi((0, 1), "half"))), "stages[0].phi[0][1]: expected number, got str"),
    (_edit((("stages", 0, "phi"), _phi((0, 1), True))), "stages[0].phi[0][1]: expected number, got bool"),
    (_edit((("stages", 0, "phi"), _phi((0, 1), float("nan")))), "stages[0].phi[0][1]: expected a finite number, got nan"),
    (_edit((("stages", 0, "phi"), _phi((3, 2), -float("inf")))), "stages[0].phi[3][2]: expected a finite number, got -inf"),
    (_edit((("stages", 2, "e3_override"), "none")), "stages[2].e3_override: expected list, got str"),
    (_edit((("stages", 2, "e3_override", 0), [1])), "stages[2].e3_override[0]: expected a pair, got 1 entries"),
    (_edit((("cost_model",), 1)), "cost_model: expected str, got int"),
    (_edit((("cost_model",), "zoned")), "cost_model: unknown cost model 'zoned'"),
    (_edit((("cost_model",), "zoned"), (("relocation_unit_cost",), "1")), "cost_model: unknown cost model 'zoned'"),
    (_edit((("relocation_unit_cost",), "1")), "relocation_unit_cost: expected number, got str"),
    (_edit((("relocation_unit_cost",), False)), "relocation_unit_cost: expected number, got bool"),
    (_edit((("relocation_unit_cost",), float("inf"))), "relocation_unit_cost: expected a finite number, got inf"),
    (_edit((("relocation_unit_cost",), 10**400)), "relocation_unit_cost: expected a finite number, got inf"),
    (_edit((("relocation_unit_cost",), "1"), (("problem_class",), [])), "relocation_unit_cost: expected number, got str"),
    (_edit((("problem_class",), [])), "problem_class: expected dict, got list"),
    (_edit((("problem_class", "delta"), 1)), "problem_class: unknown field 'delta'"),
    (_edit((("problem_class", "gamma"), _DROP)), "problem_class: missing required field 'gamma'"),
    (_edit((("problem_class", "beta"), "1"), (("problem_class", "gamma"), "3")), "problem_class.beta: expected integer, got str"),
    (_edit((("problem_class", "gamma"), 3.5)), "problem_class.gamma: expected integer, got float"),
    (lambda doc: '{"files": [,]}', "malformed JSON at line 1, column 12: Expecting value"),
    (lambda doc: "", "malformed JSON at line 1, column 1: Expecting value"),
    (lambda doc: None, "cannot read instance file: [Errno 2] No such file or directory: '{path}'"),
]

_SOLUTION_ERRORS = [
    (lambda doc: [doc], "solution: expected dict, got list"),
    (_edit((("psi",), 0.0)), "solution: unknown field 'psi'"),
    (_edit((("stages",), _DROP)), "solution: missing required field 'stages'"),
    (_edit((("stages",), {})), "stages: expected list, got dict"),
    (_edit((("stages", 0), 1)), "stages[0]: expected dict, got int"),
    (_edit((("stages", 0, "psi"), 0.0)), "stages[0]: unknown field 'psi'"),
    (_edit((("stages", 1, "assignment"), _DROP)), "stages[1]: missing required field 'assignment'"),
    (_edit((("stages", 0, "index"), _DROP)), "stages[0]: missing required field 'index'"),
    (_edit((("stages", 0, "assignment"), [1, 2])), "stages[0].assignment: expected dict, got list"),
    (_edit((("stages", 0, "assignment", "one"), 1)), "stages[0].assignment: assignment key 'one' is not a file id"),
    (_edit((("stages", 0, "assignment", "1.5"), 1)), "stages[0].assignment: assignment key '1.5' is not a file id"),
    (_edit((("stages", 0, "assignment", "3"), "2")), "stages[0].assignment[3]: expected integer, got str"),
    (_edit((("stages", 1, "assignment", "8"), 1.0)), "stages[1].assignment[8]: expected integer, got float"),
    (_edit((("stages", 0, "ordering"), [])), "stages[0].ordering: expected dict, got list"),
    (_edit((("stages", 0, "ordering"), {"a": [1]})), "stages[0].ordering: ordering key 'a' is not a disk id"),
    (_edit((("stages", 0, "ordering"), {"1": 1})), "stages[0].ordering[1]: expected list, got int"),
    (_edit((("stages", 0, "ordering"), {"1": [1, 4, "6"]})), "stages[0].ordering[1][2]: expected integer, got str"),
    (_edit((("stages", 0, "ordering"), {"1": 1}), (("stages", 0, "assignment", "2"), None)), "stages[0].assignment[2]: expected integer, got NoneType"),
    (_edit((("stages", 1, "objective"), "1")), "stages[1].objective: expected number, got str"),
    (_edit((("stages", 1, "objective"), float("nan"))), "stages[1].objective: expected a finite number, got nan"),
    (_edit((("stages", 1, "rho"), float("inf"))), "stages[1].rho: expected a finite number, got inf"),
    (_edit((("stages", 1, "rho"), [])), "stages[1].rho: expected number, got list"),
    (_edit((("stages", 1, "objective"), "1"), (("stages", 1, "rho"), "1")), "stages[1].objective: expected number, got str"),
    (_edit((("stages", 0, "index"), "1")), "stages[0].index: expected integer, got str"),
    (_edit((("stages", 0, "index"), "1"), (("stages", 0, "assignment", "x"), 1)), "stages[0].assignment: assignment key 'x' is not a file id"),
    (_edit((("stages", 1, "index"), None), (("stages", 1, "rho"), "1")), "stages[1].rho: expected number, got str"),
    (_edit((("stages", 1, "index"), None), (("transitions",), {})), "stages[1].index: expected integer, got NoneType"),
    (_edit((("transitions",), {})), "transitions: expected list, got dict"),
    (_edit((("transitions", 0), "1->2")), "transitions[0]: expected dict, got str"),
    (_edit((("transitions", 0, "cost"), 2.0)), "transitions[0]: unknown field 'cost'"),
    (_edit((("transitions", 0, "h"), _DROP)), "transitions[0]: missing required field 'h'"),
    (_edit((("transitions", 0, "moves"), {})), "transitions[0].moves: expected list, got dict"),
    (_edit((("transitions", 0, "moves", 1), [5, 2, 1])), "transitions[0].moves[1]: expected dict, got list"),
    (_edit((("transitions", 0, "moves", 1, "to"), _DROP)), "transitions[0].moves[1]: missing required field 'to'"),
    (_edit((("transitions", 0, "moves", 0, "cost"), 1)), "transitions[0].moves[0]: unknown field 'cost'"),
    (_edit((("transitions", 0, "moves", 0, "file"), "1")), "transitions[0].moves[0].file: expected integer, got str"),
    (_edit((("transitions", 0, "moves", 0, "from"), 1.0), (("transitions", 0, "moves", 0, "to"), "2")), "transitions[0].moves[0].from: expected integer, got float"),
    (_edit((("transitions", 0, "moves", 1, "to"), True)), "transitions[0].moves[1].to: expected integer, got bool"),
    (_edit((("transitions", 0, "from_stage"), "1")), "transitions[0].from_stage: expected integer, got str"),
    (_edit((("transitions", 0, "to_stage"), 2.0)), "transitions[0].to_stage: expected integer, got float"),
    (_edit((("transitions", 0, "h"), "2")), "transitions[0].h: expected number, got str"),
    (_edit((("transitions", 0, "h"), float("nan"))), "transitions[0].h: expected a finite number, got nan"),
    (_edit((("transitions", 0, "from_stage"), "1"), (("transitions", 0, "moves", 0), 0)), "transitions[0].moves[0]: expected dict, got int"),
    (_edit((("transitions", 0, "h"), "2"), (("transitions", 0, "to_stage"), "2")), "transitions[0].to_stage: expected integer, got str"),
    (_edit((("total_modification_cost",), "2")), "total_modification_cost: expected number, got str"),
    (_edit((("total_modification_cost",), 10**400)), "total_modification_cost: expected a finite number, got inf"),
    (_edit((("total_modification_cost",), "2"), (("transitions", 0, "h"), "2")), "transitions[0].h: expected number, got str"),
    (lambda doc: "{", "malformed JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
    (lambda doc: None, "cannot read solution file: [Errno 2] No such file or directory: '{path}'"),
]

# A solution's ordering lists each file once, on its assigned disk, and
# names only disks of the instance.
_ORDERING_ERRORS = [
    (_edit((("stages", 0, "ordering"), {"1": [1, 4, 1]})), "stages[0].ordering[1][2]: file 1 appears twice"),
    (_edit((("stages", 0, "ordering"), {"1": [1], "2": [2, 1]})), "stages[0].ordering[2][1]: file 1 appears twice"),
    (_edit((("stages", 1, "ordering"), {"2": [1, 2, 2]})), "stages[1].ordering[2][2]: file 2 appears twice"),
    (_edit((("stages", 0, "ordering"), {"1": [1, 2]})), "stages[0].ordering[1][1]: file 2 is ordered on disk 1 but assigned to disk 2"),
    (_edit((("stages", 0, "ordering"), {"7": [5]})), "stages[0].ordering[7][0]: file 5 is ordered on disk 7 but assigned to disk 2"),
    (_edit((("stages", 0, "ordering"), {"3": [3, 9]})), "stages[0].ordering[3][1]: file 9 is ordered on disk 3 but not assigned"),
    (_edit((("stages", 0, "ordering"), {"1": [1, 1]}), (("stages", 0, "rho"), "1")), "stages[0].rho: expected number, got str"),
    (_edit((("stages", 0, "ordering"), {"1": [1, 1]}), (("stages", 1, "rho"), "1")), "stages[0].ordering[1][1]: file 1 appears twice"),
]

# Faults deep in long lists, which the one-pass check hands to the
# entry-by-entry walk, an integer beyond the float range, and pair ends
# that fail the exact-type pass in an unordered relation.
_WALKED_ERRORS = [
    (_edit((("stages", 0, "concurrency"), [[1, 2]] * 40 + [[3, True]])), "stages[0].concurrency[40][1]: expected integer, got bool"),
    (_edit((("stages", 0, "active_files"), list(range(1, 17)) + [True])), "stages[0].active_files[16]: expected integer, got bool"),
    (_edit((("stages", 0, "phi"), _phi((2, 5), 10**400))), "stages[0].phi[2][5]: expected a finite number, got inf"),
    (_edit((("stages", 0, "concurrency", 1), [1, 2.0])), "stages[0].concurrency[1][1]: expected integer, got float"),
    (_edit((("stages", 2, "e3_override", 1), [True, 2])), "stages[2].e3_override[1][0]: expected integer, got bool"),
]

# One fault in each kind of list: records and active files, whose one-pass
# check must send it to the entry-by-entry walk, and dense phi matrices and
# solution id maps, which are walked entry by entry. The walk names it.
_ONE_PASS_ERRORS = [
    (_edit((("files", 6, "size"), True)), "files[6].size: expected integer, got bool"),
    (_edit((("files", 7, "id"), 8.0)), "files[7].id: expected integer, got float"),
    (_edit((("files", 4, "name"), "e")), "files[4]: unknown field 'name'"),
    (_edit((("files", 7, "id"), _DROP)), "files[7]: missing required field 'id'"),
    (_edit((("files", 3), [4, 1])), "files[3]: expected dict, got list"),
    (_edit((("files", 4), {"id": 5, "name": 1})), "files[4]: unknown field 'name'"),
    (_edit((("disks", 2, "capacity"), True)), "disks[2].capacity: expected integer, got bool"),
    (_edit((("disks", 1, "capacity"), 2.5)), "disks[1].capacity: expected integer, got float"),
    (_edit((("disks", 1, "speed"), 1)), "disks[1]: unknown field 'speed'"),
    (_edit((("disks", 2, "id"), _DROP)), "disks[2]: missing required field 'id'"),
    (_edit((("disks", 2), 3)), "disks[2]: expected dict, got int"),
    (_edit((("disks", 1), {"id": 2, "space": 3})), "disks[1]: unknown field 'space'"),
    (_edit((("stages", 1, "active_files", 6), True)), "stages[1].active_files[6]: expected integer, got bool"),
    (_edit((("stages", 2, "active_files", 7), 8.0)), "stages[2].active_files[7]: expected integer, got float"),
    (_edit((("stages", 2, "active_files", 7), 2)), "stages[2].active_files[7]: file 2 appears twice"),
    (_edit((("stages", 0, "phi"), _phi()), (("stages", 0, "phi", 5), [0.0] * 7)), "stages[0].phi[5]: row needs 8 entries, got 7"),
    (_edit((("stages", 0, "phi"), _phi()), (("stages", 0, "phi", 2), [0.0] * 9)), "stages[0].phi[2]: row needs 8 entries, got 9"),
    (_edit((("stages", 0, "phi"), _phi((6, 3), True))), "stages[0].phi[6][3]: expected number, got bool"),
    (_edit((("stages", 0, "phi"), _phi((7, 7), float("nan")))), "stages[0].phi[7][7]: expected a finite number, got nan"),
    (_edit((("stages", 0, "phi"), _phi((5, 2), float("inf")))), "stages[0].phi[5][2]: expected a finite number, got inf"),
    (_edit((("stages", 0, "phi"), _phi((7, 0), 10**400))), "stages[0].phi[7][0]: expected a finite number, got inf"),
    (_edit((("stages", 0, "phi"), _phi((6, 6), 1))), "stages[0].phi[6][6]: diagonal entries must be zero"),
]

# The same faults after int subclasses, read as their values, in every
# list: no check may take a bool for one of them.
_INT_SUBCLASS_ERRORS = [
    (_edit((("files", 5, "id"), False)), "files[5].id: expected integer, got bool"),
    (_edit((("disks", 2, "id"), True)), "disks[2].id: expected integer, got bool"),
    (_edit((("stages", 0, "active_files", 4), True)), "stages[0].active_files[4]: expected integer, got bool"),
]

_ONE_PASS_SOLUTION_ERRORS = [
    (_edit((("stages", 1, "assignment", "01"), 1)), "stages[1].assignment: assignment key '01' is not a canonical file id"),
    (_edit((("stages", 1, "assignment", "+1"), 1)), "stages[1].assignment: assignment key '+1' is not a canonical file id"),
    (_edit((("stages", 1, "assignment", " 1"), 1)), "stages[1].assignment: assignment key ' 1' is not a canonical file id"),
    (_edit((("stages", 1, "assignment", "\u0661"), 1)), "stages[1].assignment: assignment key '\u0661' is not a canonical file id"),
    (_edit((("stages", 1, "assignment", "8"), True)), "stages[1].assignment[8]: expected integer, got bool"),
    (_edit((("stages", 0, "ordering"), {"1": [1], "+2": [2]})), "stages[0].ordering: ordering key '+2' is not a canonical disk id"),
    (_edit((("stages", 0, "ordering"), {"1": [1, True]})), "stages[0].ordering[1][1]: expected integer, got bool"),
    (_edit((("transitions", 0, "moves", 1, "file"), 5.0)), "transitions[0].moves[1].file: expected integer, got float"),
    (_edit((("transitions", 0, "moves", 1, "from"), False)), "transitions[0].moves[1].from: expected integer, got bool"),
]


def _parse_int_subclasses(path):
    parse_instance_document(_with_int_subclasses(json.loads(path.read_text())))


_CORPUS = (
    [(parse_instance, bundled_doc, edit, message) for edit, message in _INSTANCE_ERRORS]
    + [(parse_solution, solution_doc, edit, message) for edit, message in _SOLUTION_ERRORS]
    + [
        (_read_stage_9, solution_doc, lambda doc: doc, "solution has no stage 9"),
        (_write_to_the_directory, solution_doc, lambda doc: doc, "cannot write output file: [Errno 21] Is a directory: '{dir}'"),
    ]
    + [(parse_solution, solution_doc, edit, message) for edit, message in _ORDERING_ERRORS]
    + [
        (_evaluate_stage_1, solution_doc, _edit((("stages", 0, "ordering"), {"1": [1, 4, 6], "7": []})), "stages[0].ordering[7]: disk 7 is not in the instance"),
        (_evaluate_stage_2, solution_doc, _edit((("stages", 1, "ordering"), {"2": [], "0": []})), "stages[1].ordering[0]: disk 0 is not in the instance"),
        (_evaluate_stage_1, solution_doc, _edit((("stages", 0, "ordering"), {"7": [1]})), "stages[0].ordering[7][0]: file 1 is ordered on disk 7 but assigned to disk 1"),
    ]
    + [(parse_instance, bundled_doc, edit, message) for edit, message in _WALKED_ERRORS]
    + [(parse_instance, bundled_doc, edit, message) for edit, message in _ONE_PASS_ERRORS]
    + [(_parse_int_subclasses, bundled_doc, edit, message) for edit, message in _INT_SUBCLASS_ERRORS]
    + [(parse_solution, solution_doc, edit, message) for edit, message in _ONE_PASS_SOLUTION_ERRORS]
)


@pytest.mark.parametrize(
    "call, base, edit, message", _CORPUS, ids=[f"{c[0].__name__}-{k}" for k, c in enumerate(_CORPUS)]
)
def test_document_error_corpus(tmp_path, call, base, edit, message):
    path = tmp_path / "doc.json"
    doc = edit(base())
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    with pytest.raises(DocumentError) as info:
        call(path)
    assert type(info.value) is DocumentError
    assert str(info.value) == message.replace("{path}", str(path)).replace("{dir}", str(tmp_path))
