"""The demos and the benchmark run outside the test suite, so a deleted
sparsesep name they read would go unnoticed; this test resolves each one."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unresolved(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    modules = {}                            # module-level alias -> sparsesep module
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module == "sparsesep" or node.module.startswith("sparsesep."))):
            continue
        source = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(source, alias.name):
                missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
            elif node in tree.body and inspect.ismodule(getattr(source, alias.name)):
                modules[alias.asname or alias.name] = getattr(source, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return missing


def test_demo_and_benchmark_imports_resolve():
    paths = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    assert len(paths) >= 10
    assert [m for p in paths for m in _unresolved(p)] == []
