"""Report imported names that a module never uses.

    python scripts/check_imports.py src tests scripts

Walks each given directory for .py files, skipping __init__.py (whose imports
are re-exports), and prints path:line: name for every name bound by an import
that no other expression in the module reads.  Exits 1 when any is found.
"""

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def main(roots: list[str]) -> int:
    found = 0
    for path in sorted(p for root in roots for p in Path(root).rglob("*.py")):
        if path.name != "__init__.py":
            for line, name in unused_imports(ast.parse(path.read_text(), str(path))):
                print(f"{path}:{line}: {name} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
