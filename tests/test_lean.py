"""Guard against test-only code in src/: every top-level function and class of
``src/bitopt`` must be referenced by program code, meaning src/, scripts/ or
perfbench/ (its tests excluded), somewhere other than its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bitopt"

# Modules whose definitions need no caller in program code.
ALLOWED_MODULES = {
    "oracle.py": "the brute-force reference evaluator that the engine is tested against",
}

# A string constant that names a definition, e.g. ``"TripleStore.open"`` in
# the benchmark's list of functions to wrap.
_DOTTED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(node: ast.AST) -> set[str]:
    """Every identifier that ``node`` and its subtree refer to."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and _DOTTED_NAME.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def _program_files() -> list[Path]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts)
    return files


def unreferenced_definitions() -> list[str]:
    # Names referred to by each top-level statement of each program file.
    statements = []
    for path in _program_files():
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path, stmt, _names(stmt)))
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or path.name in ALLOWED_MODULES:
            continue
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unused


def test_every_definition_has_a_program_caller():
    assert unreferenced_definitions() == []
