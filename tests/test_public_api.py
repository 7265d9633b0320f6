"""Every function that ``framelab`` exports has a caller in the package.

A public helper that no module calls is either a paper statement that no
report carries or dead code; the allowlist names the exceptions and why.
"""

import ast
import importlib
import inspect
from pathlib import Path

import framelab

SRC = Path(framelab.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# Exported functions with no caller in src/, besides the ones that the
# acceptance suite imports (it pins the public signatures it calls).
ALLOWLIST = {
    "riesz_transition": "ROADMAP item 4: its cli wiring is still open",
    "l2_inner": "the reference inner product that the tests compare against",
}


def acceptance_imports() -> set[str]:
    """Names that the acceptance suite imports from ``framelab``."""
    tree = ast.parse(ACCEPTANCE.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "framelab"
            for alias in node.names}


class References(ast.NodeVisitor):
    """Names and attributes read in a module, outside the def of the same name."""

    def __init__(self):
        self.enclosing = []
        self.names = set()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Name(self, node):
        if node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_exported_function_has_a_caller():
    refs = References()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            refs.visit(ast.parse(path.read_text()))
    exported = {name for name, obj in vars(framelab).items()
                if inspect.isfunction(obj)}
    allowed = acceptance_imports() | set(ALLOWLIST)
    assert sorted(exported - refs.names - allowed) == []


def test_allowlist_names_exported_functions():
    for name in ALLOWLIST:
        assert inspect.isfunction(getattr(framelab, name, None)), name


def test_framelab_init_is_the_one_list_of_public_names():
    modules = [framelab] + [importlib.import_module(f"framelab.{path.stem}")
                            for path in SRC.glob("*.py") if path.stem != "__init__"]
    assert [m.__name__ for m in modules if "__all__" in vars(m)] == []
