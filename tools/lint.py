#!/usr/bin/env python
"""``make lint``: ruff when available, a stdlib fallback otherwise —
then the project-native ``repro.checks`` passes either way.

CI installs ruff from ``requirements-dev.txt`` and gets the real thing
(``ruff check`` with the repo's configuration).  Hermetic environments
without ruff — and without a way to install it — still get a useful gate:
a stdlib-only subset of ruff's default rule set

* ``E9``  — syntax/indentation errors (the file must compile), and
* ``F401`` — imported names never used in the module,

implemented with ``ast``.  The fallback is deliberately conservative: a
name is *used* if it appears as an identifier anywhere outside import
statements, including inside string literals (which covers ``__all__``
re-export lists and string-typed annotations), so it reports no finding
ruff would not also report.  Docstrings are the one kind of string that
does not count: a name mentioned only in prose is unused, as ruff's
F401 has it.

After the style gate, ``repro.checks`` (determinism, transport-boundary,
resource-lifecycle, hot-path and stats-registry invariants — see
``src/repro/checks/README.md``) runs over ``src tools benchmarks`` in
the same process, so ``make lint`` is the single static-analysis entry
point.

Usage: ``python tools/lint.py PATH [PATH ...]``
"""

from __future__ import annotations

import ast
import pathlib
import re
import shutil
import subprocess
import sys

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The nodes whose first statement may be a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _python_files(paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def _imported_bindings(tree: ast.AST) -> list[tuple[str, int, str]]:
    """The names each import statement binds: (binding, lineno, shown)."""
    bindings: list[tuple[str, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.asname == alias.name:
                    continue  # `import x as x`: explicit re-export
                bindings.append((name, node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue  # `from m import x as x`: re-export
                name = alias.asname or alias.name
                bindings.append((name, node.lineno, alias.name))
    return bindings


def _docstrings(tree: ast.AST) -> set[int]:
    """The ``id`` of every module, class and function docstring node."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _used_names(tree: ast.AST) -> set[str]:
    """Identifiers referenced outside import statements.

    String literals other than docstrings contribute their identifier
    tokens, so ``__all__`` entries and string-typed annotations count as
    uses.
    """
    docstrings = _docstrings(tree)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def _fallback_lint(files: list[pathlib.Path]) -> list[str]:
    findings: list[str] = []
    for path in files:
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            findings.append(
                f"{path}:{error.lineno}: E999 syntax error: {error.msg}"
            )
            continue
        used = _used_names(tree)
        for name, lineno, shown in _imported_bindings(tree):
            if name not in used:
                findings.append(
                    f"{path}:{lineno}: F401 `{shown}` imported but unused"
                )
    return findings


def _style_gate(paths: list[str]) -> int:
    ruff = shutil.which("ruff")
    if ruff:
        return subprocess.run([ruff, "check", *paths]).returncode
    files = _python_files(paths)
    findings = _fallback_lint(files)
    for finding in findings:
        print(finding)
    print(
        f"lint (stdlib fallback: ruff not installed): {len(files)} files, "
        f"{len(findings)} findings"
    )
    return 1 if findings else 0


def _project_checks() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from repro.checks import main as checks_main

    return checks_main(["--root", str(root)])


def main(argv: list[str]) -> int:
    paths = argv or ["src", "tests", "benchmarks", "tools"]
    style = _style_gate(paths)
    checks = _project_checks()
    return style or checks


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
