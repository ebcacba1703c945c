"""Import hygiene of the package sources, checked on their syntax trees.

No import inside a function or class, no private name imported from a
sibling module, every imported name used in its module or exported
through that module's `__all__`, every `__all__` entry bound at module
level, every public name referenced somewhere in the package unless the
package re-exports it, numpy as the only third-party import, sibling
imports that only reach down the module layering, no draw from numpy's
global random state, and no draw of a single value or row by a literal
count.  A subprocess checks that
running the command line loads no SciPy module and no `numpy.ma`, which
`np.median` imports on first use (about 1 MB).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "unot"
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = _tree(path)
    nested = [
        f"line {node.lineno}"
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in _imports(scope)
    ]
    assert nested == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in _imports(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_are_used_or_exported(path):
    tree = _tree(path)
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in _imports(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(bound - used - _exported(tree)) == []


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exported_names_are_bound_at_module_level(path):
    tree = _tree(path)
    assert sorted(_exported(tree) - _module_level_names(tree)) == []


def _references(tree: ast.Module) -> set[str]:
    # Names read as variables or attributes; definitions, assignment targets
    # and the strings of `__all__` are not reads.
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_names_have_a_caller_or_are_re_exported(path):
    referenced = set().union(*(_references(_tree(p)) for p in SOURCES))
    re_exported = _exported(_tree(PACKAGE_DIR / "__init__.py"))
    assert sorted(_exported(_tree(path)) - referenced - re_exported) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_the_only_third_party_import(path):
    roots = set()
    for node in _imports(_tree(path)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            roots.add(node.module.split(".")[0])
    assert sorted(roots - sys.stdlib_module_names - {"numpy"}) == []


# The only `numpy.random` names the package may read: every draw comes from
# a `Generator` passed in or built from a seed, so a rerun from the seed is
# byte-identical.  A draw from the global state, `np.random.random(...)`,
# would break that.
ALLOWED_RANDOM = {"default_rng", "SeedSequence", "Generator"}


def _numpy_random_names(tree: ast.Module) -> list[str]:
    """Every name read off `numpy.random` in `tree`, "" for the bare module."""
    aliases = {
        alias.asname or alias.name
        for node in _imports(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "numpy.random"
        ):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend("" for a in node.names if a.name.startswith("numpy.random"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            parent = parents.get(node)
            attribute = isinstance(parent, ast.Attribute) and parent.value is node
            names.append(parent.attr if attribute else "")
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_draws_come_from_passed_in_generators(path):
    assert sorted(set(_numpy_random_names(_tree(path))) - ALLOWED_RANDOM) == []


# Drawing calls by name, with the position and keyword of their count or
# shape.  Each sampled array is drawn in one call, so none of them may draw
# one value or one leading row by literal, as `random(1)`,
# `standard_normal((1, 3))`, `sample_bloch(rng, 1)` or
# `sample_ladders(rng, q, 1)` would inside a loop.
DRAW_COUNTS = {
    "random": (0, "size"),
    "standard_normal": (0, "size"),
    "uniform": (2, "size"),
    "integers": (2, "size"),
    "sample_bloch": (1, "count"),
    "sample_gates": (1, "count"),
    "sample_ladders": (2, "count"),
}


def _one_row_draws(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name not in DRAW_COUNTS:
            continue
        position, keyword = DRAW_COUNTS[name]
        sizes = node.args[position : position + 1]
        sizes += [k.value for k in node.keywords if k.arg == keyword]
        size = sizes[0] if sizes else None
        if isinstance(size, ast.Tuple) and size.elts:
            size = size.elts[0]
        if isinstance(size, ast.Constant) and size.value == 1:
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_draw_of_one_value_by_literal(path):
    assert _one_row_draws(_tree(path)) == []


# The modules from the bottom layer up; each may import only earlier ones.
LAYERS = ("rotation", "fidelity", "oracle", "circuit", "evolve", "experiments", "cli")
MODULES = [p for p in SOURCES if p.stem != "__init__"]


def test_layers_cover_the_package():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_lower_layers(path):
    below = set(LAYERS[: LAYERS.index(path.stem)])
    siblings = set()
    for node in _imports(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif node.level > 0:
            # `from .x import y` names x; `from . import x` names x.
            modules = [node.module] if node.module else [a.name for a in node.names]
            names = [f"unot.{m}" for m in modules]
        else:
            names = [node.module]
        siblings.update(n.split(".")[1] for n in names if n.startswith("unot."))
    assert sorted(siblings - below) == []


# Every subcommand at tiny settings, in one process that then lists the
# scipy and numpy.ma modules it holds.
_CLI_RUNS = """
import json, sys
import unot.cli
runs = [
    ["optimize", "--trials", "1", "--iters", "5"],
    ["recover", "--trials", "1", "--iters", "6", "--period", "3"],
    ["noise-sweep", "--trials", "10"],
    ["verify", "--trials", "2", "--samples", "1000"],
    ["tradeoff", "--trials", "5"],
    ["compensate"],
]
codes = [unot.cli.main(argv + ["--out", f"rows{i}.csv"]) for i, argv in enumerate(runs)]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
ma = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])
print(json.dumps({"codes": codes, "scipy": scipy, "numpy.ma": ma}))
"""


def test_command_line_runs_load_no_scipy(tmp_path):
    path = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _CLI_RUNS],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": [], "numpy.ma": []}


def test_importing_the_command_line_loads_no_logging():
    # `concurrent.futures` pulls in `logging`; the two added 3.7-5.2 ms to
    # every command's start-up.  The threads come from `threading`.
    path = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")) if p
    )
    script = (
        "import json, sys, unot.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'logging'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == []
