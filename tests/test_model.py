"""Model construction, canonicalization, and validation rules."""

import pytest

from diskalloc import (
    Allocation,
    DiskSpec,
    FileSpec,
    InfeasibleError,
    Instance,
    ProblemClass,
    RelocationMove,
    RelocationPlan,
    Stage,
    ValidationError,
    apply_plan,
    canonical_edge,
    validate_instance,
)


def make_instance(**overrides):
    fields = dict(
        files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 1)),
        disks=(DiskSpec(1, 2), DiskSpec(2, 2)),
        stages=(Stage(index=1, active_files=(1, 2, 3), concurrency=frozenset({(1, 2)})),),
    )
    fields.update(overrides)
    return Instance(**fields)


def test_canonical_edge_orders_pairs():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)


def test_stage_normalizes_members_and_pairs():
    stage = Stage(
        index=1,
        active_files=(3, 1, 2, 2),
        precedence={(2, 1)},
        concurrency={(3, 1)},
        phi={(1, 2): 0.5, (2, 1): 0.0},
    )
    assert stage.active_files == (1, 2, 3)
    assert stage.precedence == frozenset({(2, 1)})  # arcs keep direction
    assert stage.concurrency == frozenset({(1, 3)})  # edges are canonical
    assert dict(stage.phi) == {(1, 2): 0.5}  # zero entries dropped


@pytest.mark.parametrize(
    "pairs",
    [
        frozenset({(3, 1), (2, 4)}),  # reversed
        [[3, 1], (4, 2)],  # lists
        frozenset({(True, 3), (2, 4)}),  # a bool end
        frozenset({(1.0, 3), (2, 4)}),  # a float end
    ],
)
def test_a_directly_built_stage_canonicalizes_its_pairs(pairs):
    stage = Stage(
        index=1, active_files=(1, 2, 3, 4), precedence=pairs, concurrency=pairs, e3_override=pairs
    )
    arcs = {(int(a), int(b)) for a, b in pairs}
    assert stage.precedence == arcs
    assert stage.concurrency == stage.e3_override == {(min(p), max(p)) for p in arcs}
    for field in (stage.precedence, stage.concurrency, stage.e3_override):
        assert type(field) is frozenset
        assert {type(end) for pair in field for end in pair} == {int}
        assert {type(pair) for pair in field} == {tuple}


def test_instance_sorts_and_defaults_problem_class():
    inst = Instance(
        files=(FileSpec(2, 1), FileSpec(1, 1)),
        disks=(DiskSpec(2, 3), DiskSpec(1, 3)),
        stages=(Stage(index=1, active_files=(1, 2)),),
    )
    assert [f.id for f in inst.files] == [1, 2]
    assert [d.id for d in inst.disks] == [1, 2]
    assert inst.problem_class == ProblemClass(1, 1, 2)
    assert inst.gamma == 2
    assert dict(inst.sizes) == {1: 1, 2: 1}
    assert dict(inst.capacities) == {1: 3, 2: 3}


def test_stage_lookup_raises_for_unknown_index():
    inst = make_instance()
    with pytest.raises(ValidationError):
        inst.stage(9)


def test_validate_accepts_canonical_instance():
    inst = make_instance()
    assert validate_instance(inst) is inst


def test_validate_is_idempotent(instance):
    assert validate_instance(validate_instance(instance)) == instance


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(files=(FileSpec(1, 1), FileSpec(1, 2), FileSpec(3, 1))), "duplicate file id"),
        (dict(files=(FileSpec(0, 1), FileSpec(2, 1), FileSpec(3, 1))), "positive"),
        (dict(files=(FileSpec(1, 0), FileSpec(2, 1), FileSpec(3, 1))), "size"),
        (dict(disks=(DiskSpec(1, 2), DiskSpec(1, 3))), "duplicate disk id"),
        (dict(disks=(DiskSpec(1, 0), DiskSpec(2, 4))), "capacity"),
        (dict(disks=()), "at least one disk"),
        (dict(stages=()), "at least one stage"),
        (
            dict(
                stages=(
                    Stage(index=1, active_files=(1, 2)),
                    Stage(index=1, active_files=(1,)),
                )
            ),
            "duplicate stage index",
        ),
        (dict(stages=(Stage(index=0, active_files=(1,)),)), "positive"),
        (dict(stages=(Stage(index=1, active_files=(1, 9)),)), "does not exist"),
        (
            dict(stages=(Stage(index=1, active_files=(1, 2), precedence={(1, 3)}),)),
            "inactive",
        ),
        (
            dict(stages=(Stage(index=1, active_files=(1, 2), precedence={(1, 1)}),)),
            "reflexive",
        ),
        (
            dict(stages=(Stage(index=1, active_files=(1, 2), concurrency={(2, 3)}),)),
            "inactive",
        ),
        (
            dict(
                stages=(
                    Stage(index=1, active_files=(1, 2), e3_override=frozenset({(1, 3)})),
                )
            ),
            "inactive",
        ),
        (
            dict(stages=(Stage(index=1, active_files=(1, 2), phi={(1, 3): 0.5}),)),
            "inactive",
        ),
        (
            dict(stages=(Stage(index=1, active_files=(1, 2), phi={(1, 2): -0.5}),)),
            "negative",
        ),
        (dict(problem_class=ProblemClass(2, 1, 2)), "one server"),
        (dict(problem_class=ProblemClass(1, 1, 5)), "names 5 disks"),
        (dict(relocation_unit_cost=-1.0), "non-negative"),
    ],
)
def test_validate_rejects(overrides, message):
    with pytest.raises(ValidationError, match=message):
        validate_instance(make_instance(**overrides))


def test_validate_rejects_a_non_positive_disk_id():
    with pytest.raises(ValidationError) as caught:
        validate_instance(make_instance(disks=(DiskSpec(0, 2), DiskSpec(2, 2))))
    assert str(caught.value) == "disk id 0 must be a positive integer"


def test_validate_rejects_a_phi_diagonal_on_a_directly_built_stage():
    # Documents cannot carry one (the matrix reader rejects it first).
    stage = Stage(index=1, active_files=(1, 2), phi={(1, 1): 0.5, (1, 2): 0.5})
    with pytest.raises(ValidationError) as caught:
        validate_instance(make_instance(stages=(stage,)))
    assert str(caught.value) == (
        "stage 1: movement probability diagonal entry (1, 1) must be zero"
    )


@pytest.mark.parametrize(
    "stage, message",
    [
        (
            Stage(index=1, active_files=(1, 2), concurrency={(2, 3), (1, 3)}),
            "stage 1: concurrency edge (1, 3) references an inactive file",
        ),
        (
            Stage(index=1, active_files=(1, 2), precedence={(2, 2), (1, 3)}),
            "stage 1: precedence arc (1, 3) references an inactive file",
        ),
        (
            Stage(index=1, active_files=(1, 2, 3), e3_override=frozenset({(3, 3), (2, 2)})),
            "stage 1: integrated override edge (2, 2) is reflexive",
        ),
        (
            Stage(index=1, active_files=(1, 2, 3), phi={(3, 1): -0.5, (2, 1): -0.25}),
            "stage 1: movement probability entry (2, 1) is negative",
        ),
        (
            Stage(index=1, active_files=(1, 2), precedence={(2, 3)}, concurrency={(1, 3)}),
            "stage 1: precedence arc (2, 3) references an inactive file",
        ),
    ],
    ids=["concurrency", "precedence", "override", "phi", "relation-order"],
)
def test_validate_names_the_least_offending_pair(stage, message):
    # Relations are checked in a fixed order, each one's pairs ascending.
    with pytest.raises(ValidationError) as caught:
        validate_instance(make_instance(stages=(stage,)))
    assert str(caught.value) == message


def test_validate_flags_global_capacity_excess():
    inst = make_instance(
        files=(FileSpec(1, 9), FileSpec(2, 1), FileSpec(3, 1)),
        disks=(DiskSpec(1, 4), DiskSpec(2, 4)),
    )
    with pytest.raises(InfeasibleError, match="global capacity exceeded"):
        validate_instance(inst)


def test_inactive_oversize_file_does_not_trip_global_check():
    # A huge file never active in any stage places no demand on the disks.
    inst = make_instance(
        files=(FileSpec(1, 1), FileSpec(2, 1), FileSpec(3, 99)),
        stages=(Stage(index=1, active_files=(1, 2)),),
    )
    assert validate_instance(inst) is inst


def test_allocation_normalizes_and_queries():
    alloc = Allocation({3: 2, 1: 1, 2: 1})
    assert alloc.files == (1, 2, 3)
    assert alloc.disk_of(3) == 2
    assert alloc.files_on(1) == (1, 2)
    assert alloc.by_disk() == {1: (1, 2), 2: (3,)}
    assert alloc.loads({1: 2, 2: 3, 3: 1}) == {1: 5, 2: 1}
    moved = alloc.move(1, 2)
    assert moved.disk_of(1) == 2
    assert alloc.disk_of(1) == 1  # original untouched


def test_allocation_equality_ignores_degraded_flag():
    assert Allocation({1: 1}, degraded=True) == Allocation({1: 1}, degraded=False)


def test_allocation_assignment_is_read_only():
    alloc = Allocation({1: 1})
    with pytest.raises(TypeError):
        alloc.assignment[1] = 2


def test_relocation_move_rejects_no_op():
    with pytest.raises(ValidationError):
        RelocationMove(1, 2, 2)


def test_relocation_plan_rejects_duplicate_files():
    with pytest.raises(ValidationError):
        RelocationPlan((RelocationMove(1, 1, 2), RelocationMove(1, 2, 3)), 2.0)


def test_apply_plan_follows_moves_in_order():
    alloc = Allocation({1: 1, 2: 2})
    plan = RelocationPlan((RelocationMove(1, 1, 2), RelocationMove(2, 2, 1)), 2.0)
    out = apply_plan(alloc, plan)
    assert dict(out.assignment) == {1: 2, 2: 1}


def test_apply_plan_checks_move_sources():
    alloc = Allocation({1: 1})
    plan = RelocationPlan((RelocationMove(1, 2, 3),), 1.0)
    with pytest.raises(ValidationError, match="expects it on disk 2"):
        apply_plan(alloc, plan)
