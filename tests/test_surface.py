"""The package keeps no public function or class that only the tests use,
and its command line imports nothing it does not need."""

import ast
import subprocess
import sys
from pathlib import Path

import vfair

SRC = Path(vfair.__file__).parent

# public names the package itself never calls, each with its caller
ALLOWED = {
    "group_utilities": "called by perfbench/",
    "dro_objective": "called by perfbench/",
    "take_batch": "called by perfbench/",
}


def _names_used(tree, skip=None) -> set:
    """Every name a tree loads, reads as an attribute or imports, outside
    the subtree `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "harness.py" in trees
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = set().union(*(_names_used(t, skip=node) for t in trees.values()))
            if node.name not in used | set(vfair.__all__) | set(ALLOWED):
                unused.append(f"{module}:{node.name}")
    assert unused == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a command's start-up; the package ranks and
    # Welch-tests with numpy and scipy.special instead
    code = "import sys, vfair.cli; print('scipy.stats' in sys.modules)"
    # run from the directory holding the package, so it imports without an install
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=SRC.parent)
    assert out.stdout.strip() == "False"
