"""No code of the package is reached only by tests.

Every module-level function or class of ``src/rewritebench`` is loaded by
name or imported somewhere in the package, and every method other than a
dunder is read as an attribute somewhere in the package. The allowlist
names the helpers that ``tests/test_acceptance.py`` pins and nothing in the
package reaches; each must stay unreached, so the list cannot go stale.
"""

import ast
from pathlib import Path

import rewritebench

ALLOWED = {"lexical.batched_entropy", "retrieval.ndcg_at_k", "stores.DiagnosticsStore.by_kind"}


def _unreached() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rewritebench.__file__).parent.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    unreached = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names:
                unreached.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unreached.update(
                    f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                    and item.name not in attrs)
    return unreached


def test_no_code_is_reached_only_by_tests():
    assert _unreached() == ALLOWED
