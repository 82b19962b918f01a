"""Fail on a module-level import whose name its module never reads.

    python tools/unused_imports.py src tests

A name is read where the module loads it (`name`, or `name` in
`name.attr`) or lists it in `__all__`. `from __future__` imports are
skipped. Prints one `path:line: name` per unused import and exits 1 if
there is any.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each top-level import in `tree` that nothing reads."""
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def main(roots: list[str]) -> int:
    found = 0
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for line, name in unused_imports(tree):
                print(f"{path}:{line}: {name} is imported but never read")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
