"""End-to-end command-line behaviour, including exit codes and determinism."""

import gc
import io
import json
import os
import subprocess
import sys

import pytest

from diskalloc import (
    CostModel,
    InfeasibleError,
    emit_solution_document,
    evaluate_objective,
    paper_example_path,
    parse_instance_document,
    parse_solution,
    solution_from_allocation,
    solve_stage,
    write_document,
)
from diskalloc.cli import main, run_command
from diskalloc.generator import generate_instance
from diskalloc.model import Allocation

import reference_data as ref

INSTANCE = str(paper_example_path())


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_stage_doc(path, assignment, index):
    doc = solution_from_allocation(Allocation(assignment), index)
    write_document(emit_solution_document(doc), path)
    return str(path)


# --- solve ---------------------------------------------------------------


def test_solve_prints_allocation_and_objective(capsys):
    code, out, err = run(capsys, "solve", "--instance", INSTANCE, "--stage", "1")
    assert code == 0 and err == ""
    assert "stage 1:" in out
    assert "  disk 1 (capacity 3): 1 4 6" in out
    assert "objective 0.0" in out
    assert "heuristic" not in out


def test_solve_writes_a_solution_document(capsys, tmp_path):
    target = tmp_path / "x1.json"
    code, _, _ = run(
        capsys, "solve", "--instance", INSTANCE, "--stage", "1", "--output", str(target)
    )
    assert code == 0
    sol = parse_solution(target)
    assert dict(sol.stage(1).assignment) == ref.X1
    assert sol.stage(1).objective == 0.0


def test_solve_local_search_is_marked_uncertified(capsys):
    code, out, _ = run(
        capsys, "solve", "--instance", INSTANCE, "--stage", "2", "--local-search"
    )
    assert code == 0
    assert "objective is heuristic, not certified optimal" in out


def test_solve_dump_relations_prefixes_the_report(capsys):
    code, out, _ = run(
        capsys, "solve", "--instance", INSTANCE, "--stage", "1", "--dump-relations"
    )
    assert code == 0
    assert out.startswith("stage 1 relations\n")
    assert "precedence: 1->2 1->3 4->5" in out
    assert "concurrency: 2-3 6-7 6-8 7-8" in out
    assert "integrated: 1-2 1-3 2-3 4-5 6-7 6-8 7-8" in out
    assert "communities: {1,2,3} {4,5} {6,7,8}" in out
    assert "stage 1:" in out


def test_solve_exact_surfaces_the_enumeration_cap(capsys, tmp_path):
    doc = generate_instance(
        n_files=13,
        gamma=2,
        n_stages=1,
        edge_density=0.2,
        size_range=(1, 1),
        capacity_slack=1.5,
        seed=3,
    )
    path = tmp_path / "wide.json"
    write_document(doc, path)
    code, _, err = run(
        capsys, "solve", "--instance", str(path), "--stage", "1", "--exact"
    )
    assert code == 2
    assert "exceeds the cap" in err


@pytest.mark.parametrize("command", [["solve", "--exact"], ["oracle"]])
def test_cap_refusal_names_only_what_the_cli_offers(capsys, tmp_path, command):
    doc = generate_instance(13, 2, 1, 0.2, (1, 1), 1.5, 3)
    path = tmp_path / "wide.json"
    write_document(doc, path)
    code, out, err = run(
        capsys, command[0], "--instance", str(path), "--stage", "1", *command[1:]
    )
    assert code == 2 and out == ""
    assert "exceeds the cap of 12" in err
    assert "raise the cap" not in err  # no option raises it
    assert "solve without --exact" in err


def test_node_budget_refusal_names_only_what_the_cli_offers(capsys, monkeypatch):
    import diskalloc.allocator as mod

    monkeypatch.setattr(mod, "_NODE_BUDGET", 1)
    code, out, err = run(capsys, "oracle", "--instance", INSTANCE, "--stage", "1")
    assert code == 2 and out == ""
    assert err == (
        "error: exact search passed its budget of 1 nodes; "
        "run solve without --exact for a heuristic allocation\n"
    )


def test_solve_exact_and_local_search_conflict(capsys):
    code, _, err = run(
        capsys,
        "solve", "--instance", INSTANCE, "--stage", "1", "--exact", "--local-search",
    )
    assert code == 2
    assert "not allowed with" in err


# --- evaluate ------------------------------------------------------------


def test_evaluate_scores_a_written_solution(capsys, tmp_path):
    path = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, _ = run(
        capsys, "evaluate", "--instance", INSTANCE, "--solution", path, "--stage", "1"
    )
    assert code == 0
    assert "objective 0.0" in out


def test_evaluate_single_stage_doc_scores_any_stage(capsys, tmp_path):
    path = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, _ = run(
        capsys, "evaluate", "--instance", INSTANCE, "--solution", path, "--stage", "2"
    )
    assert code == 0
    assert "objective 1.0" in out
    assert "pair 1-4" in out


def test_evaluate_multi_stage_doc_needs_a_matching_entry(capsys, tmp_path):
    from diskalloc import SolutionDocument, SolutionStage

    doc = SolutionDocument(
        stages=(
            SolutionStage(index=1, assignment=ref.X1),
            SolutionStage(index=2, assignment=ref.X2),
        )
    )
    path = tmp_path / "two.json"
    write_document(emit_solution_document(doc), path)
    code, _, err = run(
        capsys,
        "evaluate", "--instance", INSTANCE, "--solution", str(path), "--stage", "3",
    )
    assert code == 2
    assert "no stage 3" in err


def test_evaluate_infeasible_allocation_exits_1(capsys, tmp_path):
    bad = {1: 3, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2}
    path = write_stage_doc(tmp_path / "bad.json", bad, 1)
    code, _, err = run(
        capsys, "evaluate", "--instance", INSTANCE, "--solution", path, "--stage", "1"
    )
    assert code == 1
    assert "disk 3 holds 3 tracks, capacity is 2" in err


@pytest.mark.parametrize(
    "ordering, message",
    [
        ({"1": [1, 1, 2, 9], "7": [5]}, "stages[0].ordering[1][1]: file 1 appears twice"),
        ({"1": [1, 4, 6, 9]}, "stages[0].ordering[1][3]: file 9 is ordered on disk 1 but not assigned"),
        ({"1": [1, 4, 6], "7": []}, "stages[0].ordering[7]: disk 7 is not in the instance"),
    ],
)
def test_evaluate_malformed_ordering_is_a_document_error(capsys, tmp_path, ordering, message):
    path = tmp_path / "x1.json"
    doc = emit_solution_document(solution_from_allocation(Allocation(ref.X1), 1))
    doc["stages"][0]["ordering"] = ordering
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "evaluate", "--instance", INSTANCE, "--solution", str(path), "--stage", "1"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "assignment, message",
    [
        ({**ref.X1, 8: 9}, "stages[0].assignment[8]: disk 9 is not in the instance"),
        ({**ref.X1, 99: 1}, "stages[0].assignment[99]: file 99 is not in the instance"),
    ],
    ids=["unknown disk", "unknown file"],
)
@pytest.mark.parametrize("command", ["evaluate", "restructure"])
def test_a_solution_naming_what_the_instance_lacks_is_a_document_error(
    capsys, tmp_path, command, assignment, message
):
    path = write_stage_doc(tmp_path / "x1.json", assignment, 1)
    if command == "evaluate":
        argv = ["evaluate", "--instance", INSTANCE, "--solution", path, "--stage", "1"]
    else:
        argv = ["restructure", "--instance", INSTANCE, "--stage", "2",
                "--previous", path, "--budget", "2"]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# --- diff ----------------------------------------------------------------


def test_diff_lists_each_move(capsys, tmp_path):
    src = write_stage_doc(tmp_path / "a.json", ref.X1, 1)
    dst = write_stage_doc(tmp_path / "b.json", ref.X2_AFTER_RECORDED_MOVES, 2)
    out_path = tmp_path / "plan.json"
    code, out, _ = run(
        capsys, "diff", "--from", src, "--to", dst, "--output", str(out_path)
    )
    assert code == 0
    assert out.splitlines()[0] == "3 moves, modification cost 3.0"
    assert "  file 1: disk 1 -> disk 2" in out
    assert "  file 4: disk 1 -> disk 3" in out
    assert "  file 5: disk 2 -> disk 1" in out
    plan_doc = parse_solution(out_path)
    assert plan_doc.transitions[0].h == 3.0
    assert plan_doc.transitions[0].from_stage == 1
    assert plan_doc.transitions[0].to_stage == 2
    assert plan_doc.total_modification_cost == 3.0


def test_diff_rejects_multi_stage_documents(capsys, tmp_path):
    from diskalloc import SolutionDocument, SolutionStage

    doc = SolutionDocument(
        stages=(
            SolutionStage(index=1, assignment=ref.X1),
            SolutionStage(index=2, assignment=ref.X2),
        )
    )
    multi = tmp_path / "multi.json"
    write_document(emit_solution_document(doc), multi)
    single = write_stage_doc(tmp_path / "one.json", ref.X1, 1)
    code, _, err = run(capsys, "diff", "--from", str(multi), "--to", single)
    assert code == 2
    assert "exactly one stage entry" in err


def test_diff_output_of_one_stage_fails_before_printing(capsys, tmp_path):
    src = write_stage_doc(tmp_path / "a.json", ref.X1, 1)
    dst = write_stage_doc(tmp_path / "b.json", ref.X2_AFTER_RECORDED_MOVES, 1)
    out_path = tmp_path / "plan.json"
    code, out, err = run(
        capsys, "diff", "--from", src, "--to", dst, "--output", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no document form" in err
    assert not out_path.exists()
    # Without --output the same plan prints as before.
    code, out, _ = run(capsys, "diff", "--from", src, "--to", dst)
    assert code == 0
    assert out.splitlines()[0] == "3 moves, modification cost 3.0"


# --- restructure ---------------------------------------------------------


def test_restructure_reports_moves_and_proximity(capsys, tmp_path):
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    out_path = tmp_path / "restr.json"
    code, out, _ = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", "2", "--output", str(out_path),
    )
    assert code == 0
    assert "stage 2: objective 0.0, rho 0.0" in out
    assert "transition 1 -> 2 (modification cost 2.0):" in out
    assert "  file 4: disk 1 -> disk 3" in out
    assert "  file 8: disk 3 -> disk 1" in out
    assert "not certified" not in out
    doc = parse_solution(out_path)
    assert dict(doc.stage(2).assignment) == ref.RESTRUCTURE_EXACT_BUDGET2
    assert doc.stage(2).rho == 0.0
    assert doc.total_modification_cost == 2.0


def test_restructure_greedy_mode(capsys, tmp_path):
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, _ = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", "2", "--mode", "greedy",
    )
    assert code == 0
    assert "  file 1: disk 1 -> disk 3" in out
    assert "  file 8: disk 3 -> disk 1" in out


def test_restructure_zero_budget_reports_no_moves(capsys, tmp_path):
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, _ = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", "0",
    )
    assert code == 0
    assert "stage 2: objective 1.0, rho 1.0" in out
    assert "  no moves" in out


def test_restructure_marks_a_heuristic_reference(capsys, tmp_path):
    # 13 active files: past the enumeration cap, so the reference optimum
    # that rho is measured against comes from the heuristic path.
    doc = generate_instance(
        n_files=13,
        gamma=3,
        n_stages=2,
        edge_density=0.3,
        size_range=(1, 1),
        capacity_slack=1.5,
        seed=1,
    )
    path = tmp_path / "wide.json"
    write_document(doc, path)
    previous = tmp_path / "s1.json"
    code, _, _ = run(
        capsys, "solve", "--instance", str(path), "--stage", "1", "--output", str(previous)
    )
    assert code == 0
    code, out, err = run(
        capsys,
        "restructure", "--instance", str(path), "--stage", "2",
        "--previous", str(previous), "--budget", "2",
    )
    assert code == 0 and err == ""
    assert out == (
        "stage 2: objective 8.0, rho 3.0\n"
        "  disk 1 (capacity 7): 1 2 5 7\n"
        "  disk 2 (capacity 7): 4 8 9 11 12\n"
        "  disk 3 (capacity 6): 3 6 10 13\n"
        "transition 1 -> 2 (modification cost 2.0):\n"
        "  file 12: disk 3 -> disk 2\n"
        "  file 13: disk 2 -> disk 3\n"
        "total modification cost 2.0\n"
        "reference optimum is heuristic, not certified\n"
    )


def test_restructure_onto_the_previous_solutions_own_stage(capsys, tmp_path):
    previous = write_stage_doc(tmp_path / "x2.json", ref.X2, 1)
    argv = (
        "restructure", "--instance", INSTANCE, "--stage", "1",
        "--previous", previous, "--budget", "2",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "stage 1: objective 0.0, rho 0.0"
    assert "transition 1 -> 1 (modification cost 2.0):" in out
    assert "  file 2: disk 1 -> disk 3" in out
    assert out.splitlines()[-1] == "total modification cost 2.0"
    # As with diff, --output fails before printing: such a plan has no
    # document form.
    out_path = tmp_path / "restr.json"
    code, out, err = run(capsys, *argv, "--output", str(out_path))
    assert (code, out) == (2, "")
    assert err == (
        "error: --output needs solutions of two different stages: "
        "a plan within stage 1 has no document form\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_restructure_spends_a_budget_just_short_of_whole_moves(capsys, tmp_path, mode):
    # At 10.0 a move, 19.999999995 buys the two moves of stage 2's optimum.
    doc = json.loads(paper_example_path().read_text())
    doc["relocation_unit_cost"] = 10.0
    costly = tmp_path / "costly.json"
    costly.write_text(json.dumps(doc))
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, err = run(
        capsys,
        "restructure", "--instance", str(costly), "--stage", "2",
        "--previous", previous, "--budget", "19.999999995", "--mode", mode,
    )
    assert (code, err) == (0, "")
    assert "transition 1 -> 2 (modification cost 20.0):" in out


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_restructure_rejects_a_non_finite_budget(capsys, tmp_path, budget):
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, err = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", budget,
    )
    assert code == 2 and out == ""
    assert err == "error: restructuring budget must be non-negative and finite\n"


@pytest.mark.parametrize(
    "command",
    [
        ("restructure", "--stage", "2", "--budget", "1e308"),
        ("trajectory", "--strategy", "sequential", "--budgets", "1e308,1e308"),
    ],
)
def test_budget_past_the_float_range_in_moves_exits_0(capsys, tmp_path, command):
    doc = json.loads(paper_example_path().read_text())
    doc["relocation_unit_cost"] = 0.5  # 1e308 / 0.5 overflows to inf
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    extra = ("--previous", previous) if command[0] == "restructure" else ()
    code, out, err = run(capsys, command[0], "--instance", str(path), *command[1:], *extra)
    assert code == 0 and err == ""
    assert "objective 0.0" in out


def test_broken_invariant_exits_2_without_a_traceback(capsys, tmp_path, monkeypatch):
    from diskalloc import restructure

    optimum = restructure._optimum

    def inflated(*args, **kwargs):
        psi, certified = optimum(*args, **kwargs)
        assert certified
        return psi + 1.0, certified

    # A certified reference above the true optimum: the search beats it.
    monkeypatch.setattr(restructure, "_optimum", inflated)
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, err = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", "2",
    )
    assert (code, out) == (2, "")
    assert err == "error: restructuring beat a certified optimum; enumeration is broken\n"


def test_plan_past_the_budget_exits_2_without_a_traceback(capsys, tmp_path, monkeypatch):
    from diskalloc import restructure

    search = restructure._branch_and_bound

    def unlimited(files, fixed, instance, weights, homes, allowance, incumbent=None):
        return search(files, fixed, instance, weights, homes, len(files), incumbent)

    # The optimum of stage 2 from X1 takes two moves; the budget pays one.
    monkeypatch.setattr(restructure, "_branch_and_bound", unlimited)
    previous = write_stage_doc(tmp_path / "x1.json", ref.X1, 1)
    code, out, err = run(
        capsys,
        "restructure", "--instance", INSTANCE, "--stage", "2",
        "--previous", previous, "--budget", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: restructuring plan exceeds its budget\n"


# --- trajectory ----------------------------------------------------------


def test_trajectory_sequential(capsys, tmp_path):
    out_path = tmp_path / "seq.json"
    code, out, _ = run(
        capsys,
        "trajectory", "--instance", INSTANCE, "--strategy", "sequential",
        "--budgets", "2,2", "--output", str(out_path),
    )
    assert code == 0
    assert out.splitlines()[0] == "strategy sequential_restructured"
    assert "total modification cost 2.0" in out
    doc = parse_solution(out_path)
    assert [s.index for s in doc.stages] == [1, 2, 3]
    assert len(doc.transitions) == 2
    assert doc.total_modification_cost == 2.0


def test_trajectory_independent(capsys):
    code, out, _ = run(
        capsys, "trajectory", "--instance", INSTANCE, "--strategy", "independent"
    )
    assert code == 0
    assert "total modification cost 11.0" in out


def test_trajectory_replay_prints_both_chains(capsys, tmp_path):
    out_path = tmp_path / "replay.json"
    code, out, _ = run(
        capsys,
        "trajectory", "--instance", INSTANCE, "--strategy", "replay",
        "--output", str(out_path),
    )
    assert code == 0
    first, blank, second = out.partition("\n\n")
    assert blank == "\n\n"
    assert first.splitlines()[0] == "strategy paper_replay"
    assert "total modification cost 7.0" in first
    assert "total modification cost 4.0" in second
    doc = parse_solution(out_path)
    assert doc.total_modification_cost == 4.0
    assert dict(doc.stage(3).assignment) == ref.X3_STAR


def test_trajectory_replay_document_writes_every_objective_as_a_float(capsys, tmp_path):
    # Stage 1 of the restructured chain has no related pair on one disk;
    # its objective used to be written as the integer 0.
    out_path = tmp_path / "replay.json"
    code, _, _ = run(
        capsys,
        "trajectory", "--instance", INSTANCE, "--strategy", "replay",
        "--output", str(out_path),
    )
    assert code == 0
    assert '"objective": 0,' not in out_path.read_text()
    objectives = [stage["objective"] for stage in json.loads(out_path.read_text())["stages"]]
    assert objectives == [0.0, 1.0, 1.0]
    assert all(type(value) is float for value in objectives)


def test_trajectory_sequential_needs_budgets(capsys):
    code, _, err = run(
        capsys, "trajectory", "--instance", INSTANCE, "--strategy", "sequential"
    )
    assert code == 2
    assert "needs 2 budgets" in err


def test_trajectory_rejects_malformed_budgets(capsys):
    code, _, err = run(
        capsys,
        "trajectory", "--instance", INSTANCE, "--strategy", "sequential",
        "--budgets", "2,levels",
    )
    assert code == 2
    assert "comma-separated numbers" in err


# --- oracle --------------------------------------------------------------


def test_oracle_prints_the_certified_optimum(capsys, tmp_path):
    out_path = tmp_path / "oracle.json"
    code, out, _ = run(
        capsys,
        "oracle", "--instance", INSTANCE, "--stage", "3", "--output", str(out_path),
    )
    assert code == 0
    assert "stage 3: objective 0.0, rho 0.0" in out
    doc = parse_solution(out_path)
    assert dict(doc.stage(3).assignment) == ref.X3_SOLVER
    assert doc.stage(3).rho == 0.0


# --- generate ------------------------------------------------------------


def test_generate_prints_a_parseable_document(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--n-files", "6", "--gamma", "2", "--n-stages", "2",
        "--edge-density", "0.3", "--size-range", "1", "2",
        "--capacity-slack", "1.4", "--seed", "11",
    )
    assert code == 0
    inst = parse_instance_document(json.loads(out))
    assert len(inst.files) == 6


def test_generate_output_writes_quietly(capsys, tmp_path):
    target = tmp_path / "gen.json"
    code, out, _ = run(
        capsys,
        "generate", "--n-files", "6", "--gamma", "2", "--n-stages", "2",
        "--edge-density", "0.3", "--size-range", "1", "2",
        "--capacity-slack", "1.4", "--seed", "11", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert parse_instance_document(json.loads(target.read_text())) is not None


# --- ordered-distance instances ------------------------------------------


def _solver_must_not_run(*args, **kwargs):
    raise AssertionError("a solver ran on an ordered-distance instance")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--stage", "1"],
        ["solve", "--stage", "1", "--exact"],
        ["oracle", "--stage", "1"],
        ["restructure", "--stage", "2", "--previous", "{previous}", "--budget", "2"],
        ["trajectory", "--strategy", "sequential", "--budgets", "2"],
        ["trajectory", "--strategy", "independent"],
    ],
    ids=["solve", "solve exact", "oracle", "restructure", "trajectory sequential", "trajectory independent"],
)
def test_solver_commands_refuse_ordered_distance_before_solving(
    capsys, tmp_path, monkeypatch, argv
):
    from diskalloc import cli

    doc = generate_instance(10, 3, 2, 0.4, (1, 2), 1.5, 3)
    doc["cost_model"] = "ordered_distance"
    instance = tmp_path / "ordered.json"
    write_document(doc, instance)
    previous = write_stage_doc(tmp_path / "previous.json", {f: 1 + f % 3 for f in range(1, 11)}, 1)
    for name in ("solve_stage", "exact_solve", "restructure_one_stage", "plan_trajectory"):
        monkeypatch.setattr(cli, name, _solver_must_not_run)
    out_path = tmp_path / "out.json"
    argv = [a.format(previous=previous) for a in argv]
    code, out, err = run(
        capsys, argv[0], "--instance", str(instance), *argv[1:], "--output", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: ordered-distance instances can only be evaluated: the solvers "
        "optimize uniform costs and produce no track ordering\n"
    )
    assert not out_path.exists()


def test_evaluate_scores_an_ordered_distance_instance_by_track_distance(capsys, tmp_path):
    doc = generate_instance(8, 3, 2, 0.4, (1, 2), 1.5, 3)
    alloc, _, _ = solve_stage(parse_instance_document(doc), 1)
    doc["cost_model"] = "ordered_distance"
    instance = tmp_path / "ordered.json"
    write_document(doc, instance)
    ordered = parse_instance_document(doc)
    ordering = {d: alloc.files_on(d) for d in sorted(ordered.capacities)}
    laid_out = Allocation(alloc.assignment, ordering=ordering)
    solution = tmp_path / "laid_out.json"
    write_document(emit_solution_document(solution_from_allocation(laid_out, 1)), solution)
    out_path = tmp_path / "scored.json"
    code, _, err = run(
        capsys, "evaluate", "--instance", str(instance), "--solution", str(solution),
        "--stage", "1", "--output", str(out_path),
    )
    assert (code, err) == (0, "")
    want = evaluate_objective(
        laid_out, ordered.stage(1), CostModel.ORDERED_DISTANCE, sizes=ordered.sizes
    )
    scored = parse_solution(out_path).stage(1)
    assert scored.objective == want.value
    assert scored.ordering == laid_out.ordering

    bare = write_stage_doc(tmp_path / "bare.json", alloc.assignment, 1)
    code, out, err = run(
        capsys, "evaluate", "--instance", str(instance), "--solution", bare, "--stage", "1"
    )
    assert (code, out, err) == (2, "", "error: ordered-distance costs need a track ordering\n")


def test_the_heuristic_refuses_a_stage_that_packs_on_no_disk(capsys, tmp_path):
    """Three 2-track files on two 3-track disks: six tracks fit in total,
    yet no disk takes two files, so the seed's best-fit-decreasing
    fallback refuses the third file."""
    doc = {
        "files": [{"id": f, "size": 2} for f in (1, 2, 3)],
        "disks": [{"id": d, "capacity": 3} for d in (1, 2)],
        "stages": [{"index": 1, "active_files": [1, 2, 3], "concurrency": [[1, 2]]}],
    }
    with pytest.raises(InfeasibleError, match=r"^file 3 \(2 tracks\) fits on no disk$"):
        solve_stage(parse_instance_document(doc), 1, exact=False)
    instance = tmp_path / "tight.json"
    write_document(doc, instance)
    argv = ["solve", "--instance", str(instance), "--stage", "1", "--local-search"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: file 3 (2 tracks) fits on no disk\n")


# --- exit codes and determinism ------------------------------------------


def test_missing_instance_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--instance", "/nonexistent.json", "--stage", "1")
    assert code == 2
    assert "cannot read instance file" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"files": [\xff]}', "file is not UTF-8: invalid start byte at byte 11"),
        (b"[" * 100000 + b"]" * 100000, "file nests JSON too deeply to read"),
    ],
    ids=["not utf-8", "nested too deeply"],
)
@pytest.mark.parametrize("kind", ["instance", "solution"])
def test_an_unreadable_document_exits_2_with_one_error_line(capsys, tmp_path, kind, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if kind == "instance":
        argv = ["solve", "--instance", str(bad), "--stage", "1"]
    else:
        argv = ["evaluate", "--instance", INSTANCE, "--solution", str(bad), "--stage", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {kind} {message}\n"


def _fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "diskalloc", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "first, first_code, then",
    [
        # 14 files: past the exact cap, so --exact refuses and solve does not
        (["solve", "--instance", "WIDE", "--stage", "1", "--exact"], 2,
         ["solve", "--instance", "WIDE", "--stage", "1"]),
        (["solve", "--instance", INSTANCE, "--stage", "2", "--dump-relations"], 0,
         ["solve", "--instance", INSTANCE, "--stage", "2"]),
        (["solve", "--instance", INSTANCE, "--stage", "1", "--exact", "--local-search"], 2,
         ["solve", "--instance", INSTANCE, "--stage", "1", "--local-search"]),
    ],
    ids=["exact", "dump-relations", "usage error"],
)
def test_the_reused_parser_keeps_nothing_between_commands(
    capsys, tmp_path, monkeypatch, first, first_code, then
):
    # The same width for usage text here and in the child processes.
    monkeypatch.setenv("COLUMNS", "80")
    wide = tmp_path / "wide.json"
    write_document(generate_instance(14, 3, 2, 0.3, (1, 2), 1.5, 7), wide)
    first, then = ([str(wide) if a == "WIDE" else a for a in argv] for argv in (first, then))
    in_process = [run(capsys, *first), run(capsys, *then)]
    assert [code for code, _, _ in in_process] == [first_code, 0]
    assert in_process == [_fresh_process(first), _fresh_process(then)]


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "oracle", "--instance", INSTANCE, "--stage", "1", "--output", str(target)
    )
    assert code == 2
    assert out.startswith("stage 1: objective 0.0")  # the report still prints
    assert err.startswith("error: cannot write output file: ")
    assert len(err.splitlines()) == 1


def test_output_onto_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "generate", "--n-files", "6", "--gamma", "2", "--n-stages", "2",
        "--edge-density", "0.3", "--size-range", "1", "2",
        "--capacity-slack", "1.4", "--seed", "11", "--output", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file: ")


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_before_writing_the_output_document(capsys, monkeypatch, tmp_path):
    target = tmp_path / "x1.json"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = run_command(["solve", "--instance", INSTANCE, "--stage", "1", "--output", str(target)])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 32] Broken pipe\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, first_read",
    [
        # The document, about 800 KB, outgrows the pipe, so the writer meets
        # the pipe closed after the first read.
        (["generate", "--n-files", "200", "--gamma", "3", "--n-stages", "2",
          "--edge-density", "0.2", "--size-range", "1", "2",
          "--capacity-slack", "1.5", "--seed", "3"], 4096),
        # A short report stays in the stream's buffer until its flush fails,
        # and the interpreter flushes that buffer again at exit.
        (["solve", "--instance", INSTANCE, "--stage", "1"], 0),
    ],
    ids=["large document", "short report"],
)
def test_a_closed_stdout_pipe_exits_2_with_one_error_line(argv, first_read):
    # Buffered, as by default: an unbuffered stream keeps no tail to flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "diskalloc", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        if first_read:
            assert os.read(proc.stdout.fileno(), first_read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["error: cannot write standard output: [Errno 32] Broken pipe"]


def test_unknown_subcommand_exits_2(capsys):
    assert run_command(["defragment"]) == 2
    capsys.readouterr()


def test_repeated_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "trajectory", "--instance", INSTANCE, "--strategy", "replay"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]

    gens = []
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "generate", "--n-files", "9", "--gamma", "3", "--n-stages", "2",
            "--edge-density", "0.5", "--size-range", "1", "3",
            "--capacity-slack", "1.6", "--seed", "4",
        )
        assert code == 0
        gens.append(out)
    assert gens[0] == gens[1]


def test_module_entry_point_matches_in_process_output(capsys):
    code, expected, _ = run(
        capsys, "solve", "--instance", INSTANCE, "--stage", "1", "--dump-relations"
    )
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "diskalloc", "solve", "--instance", INSTANCE,
         "--stage", "1", "--dump-relations"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_main_defaults_to_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["diskalloc", "solve", "--instance", INSTANCE, "--stage", "1"]
    )
    assert main() == 0
    capsys.readouterr()


# --- the cyclic garbage collector ----------------------------------------


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--instance", INSTANCE, "--stage", "1"], 0),
        (["evaluate", "--instance", INSTANCE, "--solution", "BAD", "--stage", "1"], 1),
        (["solve", "--instance", "/nonexistent.json", "--stage", "1"], 2),
        (["solve", "--instance", INSTANCE, "--stage", "one"], 2),
        (["--help"], 0),
    ],
    ids=["exit 0", "infeasible", "document error", "usage error", "help"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_a_command_leaves_the_collector_as_it_found_it(
    capsys, tmp_path, collector, enabled, argv, expected
):
    bad = write_stage_doc(tmp_path / "bad.json", {1: 3, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2}, 1)
    (gc.enable if enabled else gc.disable)()
    code = run_command([bad if a == "BAD" else a for a in argv])
    capsys.readouterr()
    assert (code, gc.isenabled()) == (expected, enabled)


_GENERATE = [
    "generate", "--n-files", "9", "--gamma", "3", "--n-stages", "2",
    "--edge-density", "0.5", "--size-range", "1", "3",
    "--capacity-slack", "1.6", "--seed", "4",
]


# Pausing the collector inside run_command costs nothing later only while
# no command leaves a reference cycle behind. Argparse usage errors and
# --help leave a few objects of its own in cycles (6 and 25-37), which the
# collector frees once it runs again; they are not checked here.
_COMMAND_LINES = {
    "solve": ["solve", "--instance", "{instance}", "--stage", "1", "--output", "{out}"],
    "solve exact": ["solve", "--instance", "{instance}", "--stage", "1", "--exact"],
    "solve local search": ["solve", "--instance", "{instance}", "--stage", "2", "--local-search"],
    "solve dump-relations": ["solve", "--instance", "{instance}", "--stage", "2", "--dump-relations"],
    "evaluate": ["evaluate", "--instance", "{instance}", "--solution", "{s1}", "--stage", "1",
                 "--output", "{out}"],
    "diff": ["diff", "--from", "{s1}", "--to", "{s2}", "--output", "{out}"],
    "restructure exact": ["restructure", "--instance", "{instance}", "--stage", "2",
                          "--previous", "{s1}", "--budget", "2", "--mode", "exact", "--output", "{out}"],
    "restructure greedy": ["restructure", "--instance", "{instance}", "--stage", "2",
                           "--previous", "{s1}", "--budget", "2", "--mode", "greedy"],
    "trajectory independent": ["trajectory", "--instance", "{instance}", "--strategy", "independent",
                               "--output", "{out}"],
    "trajectory sequential": ["trajectory", "--instance", "{instance}", "--strategy", "sequential",
                              "--budgets", "2,2"],
    "trajectory replay": ["trajectory", "--instance", "{instance}", "--strategy", "replay"],
    "oracle": ["oracle", "--instance", "{instance}", "--stage", "2", "--output", "{out}"],
    "generate": _GENERATE,
    "generate output": _GENERATE + ["--output", "{out}"],
}


@pytest.mark.parametrize(
    "instance, argv",
    [
        pytest.param(instance, argv, id=f"{name}-{instance}")
        for name, argv in _COMMAND_LINES.items()
        # the recorded chains replay the bundled example alone
        for instance in (["bundled"] if name == "trajectory replay" else ["bundled", "generated"])
    ],
)
def test_no_command_leaves_cyclic_garbage(capsys, tmp_path, instance, argv):
    path = INSTANCE
    if instance == "generated":
        path = str(tmp_path / "small.json")
        write_document(generate_instance(10, 3, 3, 0.3, (1, 2), 1.5, 5), path)
    fields = {name: str(tmp_path / f"{name}.json") for name in ("s1", "s2", "out")}
    for stage in (1, 2):
        argv_solve = ["solve", "--instance", path, "--stage", str(stage), "--output", fields[f"s{stage}"]]
        assert run_command(argv_solve) == 0
    capsys.readouterr()
    gc.collect()
    code = run_command([a.format(instance=path, **fields) for a in argv])
    garbage = gc.collect()
    capsys.readouterr()
    assert (code, garbage) == (0, 0)
