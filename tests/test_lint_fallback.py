"""``tools/lint.py``'s stdlib fallback: the F401 unused-import check."""

from __future__ import annotations

import importlib.util
import pathlib
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "lint", REPO / "tools" / "lint.py"
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


def _findings(tmp_path, source: str) -> list[str]:
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source))
    return lint._fallback_lint([path])


def test_import_named_only_in_docstrings_is_reported(tmp_path):
    findings = _findings(
        tmp_path,
        '''
        """Builds a ``RuleSet`` per family."""

        from repro.rules.ruleset import RuleSet


        class Family:
            """Wraps a RuleSet."""

            def build(self):
                """Return a RuleSet."""
                return None
        ''',
    )
    assert len(findings) == 1
    assert "F401 `RuleSet` imported but unused" in findings[0]


def test_import_used_in_a_string_annotation_is_not_reported(tmp_path):
    assert _findings(
        tmp_path,
        '''
        """A module."""

        from repro.rules.ruleset import RuleSet


        def build() -> "RuleSet":
            """Return nothing."""
            return None
        ''',
    ) == []


def test_import_listed_in_all_is_not_reported(tmp_path):
    assert _findings(
        tmp_path,
        '''
        """Re-exports the rule set type."""

        from repro.rules.ruleset import RuleSet

        __all__ = ["RuleSet"]
        ''',
    ) == []
