"""Every import in a realcubic module is used by that module, every
top-level name has a caller in ``src/``, and every name the benchmark's
traced run wraps exists.

Each ``src/realcubic/*.py`` except ``__init__.py`` (which re-exports) is
parsed with ``ast``. A name counts as used when it is loaded anywhere in
the module, or appears inside a string annotation such as ``"VertexData"``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "realcubic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, ``__future__`` excluded."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from x import A, B\n"
                     "def f(a: 'A') -> 'list[int]':\n    pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"B"}


# top-level names that nothing in src/ loads, each kept for a reason
UNCALLED = {
    "intmat.is_unimodular": "test oracle of the SNF contract (criterion 11)",
    "lattices.gram_from_rows": "test oracle: Gram matrices from raw rows",
    "lattices.discriminant_group": "test oracle; the benchmark traces it",
    "lattices.AMBIENT_M": "ROADMAP items 5 and 6 read it",
    "lattices.AMBIENT_M0": "ROADMAP item 5 reads it",
    "ramified.handle_counts": "acceptance criterion 10",
    "surgery.blow_down": "Kirby move, acceptance criterion 8",
    "surgery.presentation_from_linking": "Kirby helper, demo 05",
    "walls.classify_move": "ROADMAP item 3 calls it",
}


def definitions(tree: ast.Module):
    """(name, statement) of each top-level def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name))


def statement_uses(tree: ast.Module):
    """(statement, names it loads) for each top-level statement; ``mod.x``
    counts as a use of ``x`` when ``mod`` is a sibling module import."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for a in node.names}
    for stmt in tree.body:
        attrs = {n.attr for n in ast.walk(stmt)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in modules}
        yield stmt, used_names(stmt) | attrs


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    uses = [su for tree in trees.values() for su in statement_uses(tree)]
    uncalled = {f"{mod}.{name}" for mod, tree in trees.items()
                for name, node in definitions(tree)
                if not any(name in used for stmt, used in uses
                           if stmt is not node)}
    assert uncalled <= set(UNCALLED), \
        f"no caller in src/: {sorted(uncalled - set(UNCALLED))}"
    assert set(UNCALLED) <= uncalled, \
        f"allow-listed but called: {sorted(set(UNCALLED) - uncalled)}"


def test_no_assert_statements():
    # a check must survive ``python -O``, which strips assert statements
    found = [f"{p.name}:{n.lineno}" for p in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps TARGETS in their home modules; a deleted
    # or renamed function would stop `perfbench/run.py --trace 1` with an
    # AttributeError. The file is only read.
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}"
               for layer, names in tracing.TARGETS.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"realcubic.{layer}"), name, None))]
    assert missing == []
