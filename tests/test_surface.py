"""The package keeps no public function, class, method or property that
only the tests use, its command line imports nothing it does not need, and
the README's library example runs as written."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import README, config_from_readme
import vfair
from vfair.cli import main as cli_main
from vfair.nnet import parameter_count

SRC = Path(vfair.__file__).parent

# public names the package itself never calls, each with its caller
ALLOWED = {
    "group_utilities": "called by perfbench/",
    # random_partition_rank checks the split once and draws through the
    # private helper that random_partition wraps
    "random_partition": "called by perfbench/",
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


def _fresh_python(code: str, *args) -> str:
    """Stdout of `code` run by a fresh interpreter with `args` as argv[1:],
    from the directory holding the package, so it imports without an install."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, check=True, cwd=SRC.parent)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy is only the tests' oracle: the command line loads no scipy module
    code = "import sys, vfair.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python(code) == "[]"


# train, rank, curve and compare in one interpreter that cannot import scipy,
# as if it were not installed; prints each command that exits 0
COLD_COMMANDS = """
import json, sys
sys.modules["scipy"] = None
from vfair.cli import main
cfg, out = sys.argv[1:]
methods = ("erm", "vfair_std", "vfair_var", "vfair_pairwise", "dro")
runs = [f"{out}/runs/{m}_seed0.json" for m in methods]
every_run = [f"{out}/runs/{m}_seed{s}.json" for m in methods for s in json.load(open(cfg))["seeds"]]
commands = [
    ["train", "--config", cfg, "--out", out],
    ["rank", "--runs", *runs, "--k", "4", "--trials", "10", "--seed", "0", "--out", out + "/r.csv"],
    ["curve", "--run", runs[1], "--out", out + "/c.csv"],
    ["compare", "--runs", *every_run],
]
for argv in commands:
    assert main(argv) == 0, argv
    print("exit 0:", argv[0])
"""


def _small_config(task: str, seeds) -> dict:
    """The README config on 300 rows for 2 epochs; a binary_bce one has
    sigmoid hidden units, so it runs the logistic everywhere it can."""
    d = config_from_readme(dataset={"n": 300, "task": task}, epochs=2, seeds=seeds)
    if task == "binary_bce":
        d["model"]["activation"] = "sigmoid"
    return d


def _commands_without_scipy(tmp_path, task, seeds) -> list:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_small_config(task, seeds)))
    lines = _fresh_python(COLD_COMMANDS, cfg, tmp_path / "o").splitlines()
    return [line for line in lines if line.startswith("exit 0:")]


EVERY_COMMAND = [f"exit 0: {command}" for command in ("train", "rank", "curve", "compare")]
COLD_TASKS = pytest.mark.parametrize("task", ["regression_mse", "binary_bce"])


@COLD_TASKS
def test_one_seed_train_rank_and_curve_never_load_scipy(tmp_path, task):
    assert _commands_without_scipy(tmp_path, task, [0]) == EVERY_COMMAND


@COLD_TASKS
def test_two_seed_train_and_compare_never_load_scipy(tmp_path, task):
    # two seeds give aggregate.csv and compare Welch p-values, the package's own
    assert _commands_without_scipy(tmp_path, task, [0, 1]) == EVERY_COMMAND


def test_sigmoid_train_in_a_fresh_interpreter_writes_the_bits_of_this_one(tmp_path, capsys):
    # (config, seed) determinism across processes on the logistic's path,
    # which no regression config takes: the same bytes and the same stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_small_config("binary_bce", [0, 1])))
    code = ("import sys; from vfair.cli import main; "
            "assert main(['train', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0")
    cold_stdout = _fresh_python(code, cfg, tmp_path / "cold").splitlines()
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "warm")]) == 0
    assert cold_stdout == capsys.readouterr().out.replace("warm", "cold").splitlines()
    cold = sorted(p.relative_to(tmp_path / "cold") for p in (tmp_path / "cold").rglob("*.*"))
    warm = sorted(p.relative_to(tmp_path / "warm") for p in (tmp_path / "warm").rglob("*.*"))
    assert cold == warm and Path("aggregate.csv") in cold and len(cold) == 1 + 2 * 5 + 2 * 4
    for rel in cold:
        assert (tmp_path / "cold" / rel).read_bytes() == (tmp_path / "warm" / rel).read_bytes(), rel


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["params"].shape == (parameter_count(scope["spec"]),)
    assert np.isfinite(scope["params"]).all()
    assert scope["state"].ema_mean > 0.0  # one step of the update ran
