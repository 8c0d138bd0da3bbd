"""The package's own imports: all at module level, and without a cycle."""

import ast
from pathlib import Path

# read from the source tree, not imported: a cycle can make the import itself fail
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frenetkit"
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
