"""Framework tests: markers, fingerprints, baseline, driver — and the
self-check that the repo itself is clean modulo the committed baseline.
"""

import json
import pathlib
import textwrap

import pytest

from repro.checks.base import (
    Finding,
    SourceModule,
    assign_fingerprints,
    load_baseline,
)
from repro.checks.driver import all_passes, main, run_checks

REPO = pathlib.Path(__file__).resolve().parents[1]


def module(source, rel="src/repro/example.py"):
    return SourceModule.from_source(textwrap.dedent(source), rel)


# -- markers ----------------------------------------------------------


def test_hot_marker_attaches_to_the_next_def():
    mod = module(
        """
        # checks: hot
        def inner():
            pass
        """
    )
    func = mod.tree.body[0]
    assert mod.is_hot(func)


def test_allow_marker_requires_a_justification():
    mod = module(
        """
        # checks: allow[D101]
        x = 1
        """
    )
    assert [f.rule for f in mod.marker_findings] == ["C001"]
    assert "justification" in mod.marker_findings[0].message


def test_malformed_marker_is_a_finding():
    mod = module(
        """
        # checks: allow D101 -- missing brackets
        x = 1
        """
    )
    assert [f.rule for f in mod.marker_findings] == ["C001"]


def test_marker_syntax_inside_docstrings_is_inert():
    mod = module(
        '''
        def helper():
            """Document the marker: ``# checks: allow[D101]`` needs a why."""
        '''
    )
    assert mod.marker_findings == []
    assert mod.allows == {}


def test_allow_file_marker_covers_the_whole_module():
    mod = module(
        """
        # checks: allow-file[transport] -- fixture module for codec tests.
        x = 1
        """
    )
    finding = Finding("transport", "T201", mod.rel, 40, "pickled")
    assert mod.allowed(finding)


def test_multiline_justification_attributes_to_next_code_line():
    mod = module(
        """
        # checks: allow[D102] -- the justification runs long and wraps
        # onto a continuation comment line before the code.
        bucket = hash
        """
    )
    finding = Finding("determinism", "D102", mod.rel, 4, "bucketing")
    assert mod.allowed(finding)


# -- fingerprints -----------------------------------------------------


def test_fingerprint_is_content_addressed_not_line_addressed():
    a = Finding("hotpath", "H402", "src/x.py", 10, "alloc", snippet="y = set(z)")
    b = Finding("hotpath", "H402", "src/x.py", 99, "alloc", snippet="y =  set(z)")
    assign_fingerprints([a])
    assign_fingerprints([b])
    assert a.fingerprint == b.fingerprint


def test_identical_lines_get_distinct_fingerprints():
    a = Finding("hotpath", "H402", "src/x.py", 10, "alloc", snippet="y = set(z)")
    b = Finding("hotpath", "H402", "src/x.py", 20, "alloc", snippet="y = set(z)")
    assign_fingerprints([a, b])
    assert a.fingerprint and b.fingerprint
    assert a.fingerprint != b.fingerprint


# -- baseline ---------------------------------------------------------


def test_baseline_entry_without_justification_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps([{"fingerprint": "abc", "justification": " "}]))
    with pytest.raises(ValueError, match="justification"):
        load_baseline(path)


def test_committed_baseline_is_small_and_justified():
    entries = json.loads((REPO / "tools" / "checks_baseline.json").read_text())
    assert len(entries) <= 10
    for entry in entries:
        assert entry["justification"].strip()
        assert entry["fingerprint"]


# -- driver -----------------------------------------------------------


def test_all_five_passes_are_registered():
    assert [p.name for p in all_passes()] == [
        "determinism",
        "transport",
        "lifecycle",
        "hotpath",
        "stats-registry",
    ]


def test_run_checks_applies_marker_suppression(tmp_path):
    target = tmp_path / "src" / "repro" / "engine" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        textwrap.dedent(
            """
            def reply(value):
                return ("ok", value)
            """
        )
    )
    kept, allowed, modules = run_checks(tmp_path, ["src"])
    assert [f.rule for f in kept] == ["T204"]
    assert kept[0].fingerprint
    assert allowed == []
    assert len(modules) == 1


def test_syntax_error_becomes_a_finding(tmp_path):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    kept, _, _ = run_checks(tmp_path, ["src"])
    assert [f.rule for f in kept] == ["E999"]


def test_repo_is_clean_modulo_committed_baseline(capsys):
    assert main(["--root", str(REPO)]) == 0
    out = capsys.readouterr().out
    assert "repro.checks: 5 passes" in out


def test_json_report_shape(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["--root", str(REPO), "--json", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["clean"] is True
    assert report["version"] == 1
    assert [p["name"] for p in report["passes"]] == [
        p.name for p in all_passes()
    ]
    assert report["findings"] == []
    assert report["stale_baseline"] == []
    assert report["baselined"] == []
    assert report["files"] > 100
