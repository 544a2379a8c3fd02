"""The modules of ``src/realcubic`` import their siblings in one direction.

The layers run intmat < lattices < atlas < walls < topology < cli: a module
may import, at run time, only layers below it. Two leaves sit beside the
chain: ``ramified`` imports no sibling at run time and ``surgery`` only
``intmat``; any layer above intmat may import them. An import under
``if TYPE_CHECKING:`` runs only for the type checker and is not counted.
The check reads each file with ``ast`` and runs none of them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "realcubic"
CHAIN = ("intmat", "lattices", "atlas", "walls", "topology", "cli")
# the sibling modules each module may import at run time
ALLOWED = {"__init__": set(), "intmat": set(), "ramified": set(),
           "surgery": {"intmat"}}
ALLOWED.update((m, set(CHAIN[:k]) | {"ramified", "surgery"})
               for k, m in enumerate(CHAIN) if k)


def runtime_imports(tree: ast.AST) -> set[str]:
    """The sibling modules ``tree`` imports outside ``if TYPE_CHECKING:``."""
    out: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import a, b
                out.update(a.name for a in node.names)
            elif (node.module or "").startswith("realcubic."):
                out.add(node.module.split(".")[1])
            elif node.module == "realcubic":
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("realcubic."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def test_every_module_has_a_place():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    above = runtime_imports(tree) - ALLOWED[module]
    assert not above, f"{module} imports {sorted(above)} at run time"


def test_the_check_sees_through_type_checking_only():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .atlas import VertexId\n"
                     "if TYPE_CHECKING:\n"
                     "    from .walls import MoveKind\n"
                     "def f():\n"
                     "    from . import topology\n"
                     "    import realcubic.cli\n")
    assert runtime_imports(tree) == {"atlas", "topology", "cli"}
