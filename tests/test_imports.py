"""The package's imports: its own all at module level and without a cycle, and
scipy's only inside the functions that call it, so that importing the package
and running the subcommands that need no scipy never load scipy.  No module
imports scipy.optimize: the package finds its roots with spline2d.refine_roots.
Only cli._write opens a file for writing."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from frenetkit import DiscreteCurve, curve_to_json, elliptic_K, fresnel, jacobi_sn, sogo_turning_angles
from frenetkit.cli import main
from frenetkit.spline2d import _bracket_roots

# read from the source tree, not imported: a cycle can make the import itself fail
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frenetkit"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _relative_targets(node):
    """The package modules a relative ImportFrom node names."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_no_package_import_inside_a_function():
    local = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert not local, local


def test_module_level_imports_form_no_cycle():
    graph = {
        name: {
            target
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level
            for target in _relative_targets(node)
            if target in MODULES
        }
        for name, tree in MODULES.items()
    }
    state = {}  # 1 while a module is on the search path, 2 once finished

    def visit(name, path):
        state[name] = 1
        for target in sorted(graph[name]):
            assert state.get(target) != 1, " -> ".join(path + [name, target])
            if target not in state:
                visit(target, path + [name])
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [])


def _run_at_import(tree):
    """Every node of a module that runs when it is imported: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def _imports(node, package):
    """An import of package or a module under it."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == package for alias in node.names)
    return isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == package


def test_no_scipy_import_at_module_level():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in _run_at_import(tree)
        if _imports(node, "scipy")
    ]
    assert not found, found


def test_no_module_imports_click():
    """The standard library's argparse parses the command line; click is a test dependency only."""
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if _imports(node, "click")
    ]
    assert not found, found


def _imports_scipy_optimize(node):
    """An import of scipy.optimize or a module under it, in any form, or its name
    in a string (for importlib)."""
    names = []
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    return any(name == "scipy.optimize" or name.startswith("scipy.optimize.") for name in names)


def test_no_module_imports_scipy_optimize():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if _imports_scipy_optimize(node)
    ]
    assert not found, found


def _opens_for_writing(node):
    """A call that may open a file for writing: open(), io.open() or path.open() with a
    mode holding w, a, x or + (or a mode that is not a literal), os.open, .write_text
    and .write_bytes."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    module = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    if module == "os":
        return True
    # the mode follows the path in open(path, mode) and io.open(...), and comes first in path.open(mode)
    at = 1 if isinstance(func, ast.Name) or module in ("io", "builtins", "codecs", "gzip", "bz2", "lzma") else 0
    mode = [kw.value for kw in node.keywords if kw.arg == "mode"] or node.args[at : at + 1]
    if not mode:
        return False
    if not (isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)):
        return True
    return any(c in mode[0].value for c in "wax+")


def _nodes_with_enclosing_def(tree):
    """Yield (dotted name of the innermost enclosing def or class, or None, node) for every node."""
    stack = [(tree, None)]
    while stack:
        node, where = stack.pop()
        yield where, node
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            stack.append((child, inner))


def test_only_cli_write_opens_a_file_for_writing():
    found = {
        (name, where)
        for name, tree in MODULES.items()
        for where, node in _nodes_with_enclosing_def(tree)
        if _opens_for_writing(node)
    }
    # cli._write's own open() and os.open are seen, so the check can see a writer
    assert found == {("cli", "_write")}, sorted(found, key=str)


def _fresh_python(*args):
    """Run python with the source tree first on its path, in a new interpreter: this
    one has loaded scipy already."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_cli_starts_and_runs_scipy_free_subcommands_without_scipy():
    result = _fresh_python(str(ROOT / "scripts" / "scipy_free_start.py"))
    assert result.returncode == 0, result.stdout + result.stderr


# each function that imports a scipy subpackage, called first in a new interpreter;
# its value printed as JSON for this process to compare with its own
_FIRST_CALLS = """
import contextlib, io, json, sys
import numpy as np
assert not any(name.partition(".")[0] == "scipy" for name in sys.modules)
from frenetkit import elliptic_K, fresnel, jacobi_sn, sogo_turning_angles
from frenetkit.cli import main
from frenetkit.spline2d import _bracket_roots

def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(args=argv, prog_name="frenetkit", standalone_mode=False)
    return out.getvalue()

print(json.dumps({
    "sine": cli(%(sine)r),
    "centered": cli(%(centered)r),
    "fresnel": [float(v) for v in fresnel(0.7)],
    "elliptic_K": elliptic_K(0.6),
    "jacobi_sn": float(jacobi_sn(0.9, 0.6)),
    "sogo": sogo_turning_angles(0.8, 0.5, 6).tolist(),
    "bracket": _bracket_roots(np.array([0.3]), np.array([-0.5]), np.array([0.2])).tolist(),
}))
"""


def test_scipy_users_called_first_in_a_new_interpreter_give_this_process_values(tmp_path):
    ang = np.arange(6) * math.pi / 3.0
    curve = tmp_path / "hex.json"
    curve.write_text(curve_to_json(DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)))
    argv = {
        "sine": ["discretize", "sine", "--method", "circumscribed", "--samples", "17"],
        "centered": ["spline", str(curve), "--method", "centered"],
    }
    result = _fresh_python("-c", _FIRST_CALLS % argv)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    runner = CliRunner()
    for key, args in argv.items():
        mine = runner.invoke(main, args)
        assert mine.exit_code == 0, mine.output
        assert got[key] == mine.stdout, key
    assert got["fresnel"] == [float(v) for v in fresnel(0.7)]
    assert got["elliptic_K"] == elliptic_K(0.6)
    assert got["jacobi_sn"] == float(jacobi_sn(0.9, 0.6))
    assert got["sogo"] == sogo_turning_angles(0.8, 0.5, 6).tolist()
    assert got["bracket"] == _bracket_roots(np.array([0.3]), np.array([-0.5]), np.array([0.2])).tolist()
