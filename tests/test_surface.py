"""The package keeps no public function, class, method or property that
only the tests use, its command line imports nothing it does not need, and
the README's library example runs as written."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np

import vfair
from vfair.nnet import parameter_count

SRC = Path(vfair.__file__).parent

# public names the package itself never calls, each with its caller
ALLOWED = {
    "group_utilities": "called by perfbench/",
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


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and class,
    and of each public method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "harness.py" in trees
    unused = []
    checked = 0
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            checked += "." in qualified
            used = set().union(*(_names_used(t, skip=node) for t in trees.values()))
            if node.name not in used | set(vfair.__all__) | set(ALLOWED):
                unused.append(f"{module}:{qualified}")
    assert unused == []
    assert checked > 10  # methods and properties are checked, not only module-level names


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a command's start-up; the package ranks and
    # Welch-tests with numpy and scipy.special instead
    code = "import sys, vfair.cli; print('scipy.stats' in sys.modules)"
    # run from the directory holding the package, so it imports without an install
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=SRC.parent)
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["params"].shape == (parameter_count(scope["spec"]),)
    assert np.isfinite(scope["params"]).all()
    assert scope["state"].ema_mean > 0.0  # one step of the update ran
