"""Structure rules over the package's and the oracles' source, checked on
their syntax trees."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path("src/diskalloc")


def parse(path):
    """The syntax tree of ``path``, a path relative to the repository root."""
    return ast.parse((ROOT / path).read_text(), str(path))


def package_modules():
    """Each module of the package, relative to the repository root, sorted."""
    return sorted(path.relative_to(ROOT) for path in (ROOT / PACKAGE).glob("*.py"))


def names(tree):
    """Every name, attribute and definition name in ``tree``, None for a
    node that has none of them."""
    for node in ast.walk(tree):
        yield from (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))


def test_no_assert_statements_in_the_package():
    # assert vanishes under -O and would reach a CLI user as a bare
    # AssertionError; the solvers raise InternalError instead.
    found = [
        f"{path}:{node.lineno}"
        for path in package_modules()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/diskalloc: " + ", ".join(found)


def test_integer_units_only_in_the_allocator():
    # The searches' integer weights, their links and scale, and the
    # objectives kept in those units stay inside the allocator; every
    # other module takes objectives as floats from it.
    found = [
        f"{path}:{node.lineno} .{node.attr}"
        for path in package_modules()
        if path.name != "allocator.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr in {"scale", "psi", "rows", "links"}
    ]
    assert not found, "integer units read outside allocator.py: " + ", ".join(found)


def test_no_integrated_relation_in_the_allocator():
    # The solve path reads a stage's pairs through PairWeights alone, so
    # no solve builds an integrated relation again.
    path = PACKAGE / "allocator.py"
    found = sorted({name for name in names(parse(path)) if name in {"IntegratedRelation", "integrate_relations"}})
    assert not found, f"{path} names " + ", ".join(found)


def test_spreading_off_the_solve_path():
    # Heuristic solves and greedy restructuring both seed by least
    # connection; the paper's community spreading stays public, but no
    # solve path reaches it.
    found = []
    for path in (PACKAGE / "restructure.py", PACKAGE / "cli.py"):
        found += sorted({
            f"{path} names {name}"
            for name in names(parse(path))
            if name in {"spread_allocate", "Community", "detect_communities"}
        })
    path = PACKAGE / "allocator.py"
    found += [
        f"{path}:{call.lineno} {fn.name} calls {call.func.id}"
        for fn in ast.walk(parse(path))
        if isinstance(fn, ast.FunctionDef) and fn.name != "spread_allocate"
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "spread_allocate"
    ]
    assert not found, "; ".join(found)


def test_one_document_writer():
    # Every document the package writes goes through io.dump_document,
    # which writes what json.dumps(doc, indent=2) writes without its
    # pure-Python encoder; a second writer path would bring that one back.
    found = [
        f"{path}:{node.lineno}"
        for path in package_modules()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr in {"dump", "dumps"}
        and getattr(node.value, "id", None) == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(a.name in {"dump", "dumps"} for a in node.names)
    ]
    assert not found, "json.dump or json.dumps in src/diskalloc: " + ", ".join(found)


def test_one_cost_model_refusal():
    # The solvers read the cost model from the instance, and one helper,
    # allocator._check_cost_model, refuses the costs they cannot optimize;
    # only evaluate_objective, which takes no instance, takes a model.
    found = []
    for path in package_modules():
        tree = parse(path)
        if path.name in {"allocator.py", "restructure.py"}:
            found += [
                f"{path}:{fn.lineno} {fn.name} takes model"
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name != "evaluate_objective"
                and any(a.arg == "model" for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs)
            ]
        if path.name not in {"allocator.py", "model.py"}:
            found += sorted({f"{path} names ORDERED_DISTANCE" for name in names(tree) if name == "ORDERED_DISTANCE"})
    assert not found, "; ".join(found)


def test_oracles_independent_of_the_package():
    # The brute-force oracles check the package only while they share
    # none of its code.
    path = pathlib.Path("tests/naive.py")
    found = [
        f"{path}:{node.lineno}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "diskalloc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diskalloc"
    ]
    assert not found, "tests/naive.py imports diskalloc: " + ", ".join(found)
