"""End-to-end command-line behaviour, including exit codes and determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from diskalloc import (
    emit_solution_document,
    paper_example_path,
    parse_instance_document,
    parse_solution,
    solution_from_allocation,
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
        "  disk 1 (capacity 7): 1 2 4 7\n"
        "  disk 2 (capacity 7): 5 6 8 9 12\n"
        "  disk 3 (capacity 6): 3 10 11 13\n"
        "transition 1 -> 2 (modification cost 2.0):\n"
        "  file 3: disk 2 -> disk 3\n"
        "  file 8: disk 3 -> disk 2\n"
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

    solve = restructure._solve_stage

    def inflated(*args, **kwargs):
        alloc, psi, certified = solve(*args, **kwargs)
        assert certified
        return alloc, psi + 1.0, certified

    # A certified reference above the true optimum: the search beats it.
    monkeypatch.setattr(restructure, "_solve_stage", inflated)
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

    def unlimited(files, fixed, loads, stage, instance, weights, homes, allowance):
        return search(files, fixed, loads, stage, instance, weights, homes, len(files))

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


# --- exit codes and determinism ------------------------------------------


def test_missing_instance_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--instance", "/nonexistent.json", "--stage", "1")
    assert code == 2
    assert "cannot read instance file" in err


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
