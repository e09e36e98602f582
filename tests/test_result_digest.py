"""``tools/result_digest.py``: the cross-commit chase-result digest."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "result_digest.py"
_SPEC = importlib.util.spec_from_file_location("result_digest", TOOL)
result_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(result_digest)

#: The bdd corpus, one growing tournament and Example 1: about 1.5 s of
#: chases per run, budget stops and fixpoints alike.
SMALL = [
    name
    for name, _, _, steps, _ in result_digest.cases()
    if steps == 5 or name in ("growing_tournament_1", "example1")
]


def _digest(seed: int) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=str(REPO / "src"),
    )
    return subprocess.run(
        [sys.executable, str(TOOL), *SMALL],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_digest_does_not_depend_on_the_hash_seed():
    first = _digest(1)
    assert first == _digest(2)
    lines = [line.split() for line in first.splitlines()]
    assert [variant for variant, _ in lines] == list(result_digest.VARIANTS)
    assert all(len(sha) == 64 for _, sha in lines)


def test_lines_cover_records_timestamps_levels_and_counts():
    from repro.chase import oblivious_chase
    from repro.rules.parser import parse_instance, parse_rules

    rules = parse_rules("E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)")
    result = oblivious_chase(parse_instance("E(a,b)"), rules, max_levels=2)
    lines = list(result_digest.result_lines(result, (3, 4, 5)))
    kinds = {line.split()[0] for line in lines}
    assert kinds == {
        "instance", "record", "timestamp", "level", "levels", "counts"
    }
    records = [line for line in lines if line.startswith("record")]
    assert len(records) == len(result.records())
    assert "Null:_n0" in records[0]  # the created null
    assert lines[-1] == "counts 3 4 5"
    assert lines[-2] == "levels 2 terminated False"


def test_unknown_case_is_an_error(capsys):
    with pytest.raises(SystemExit):
        result_digest.main(["no_such_case"])
    err = capsys.readouterr().err
    assert "unknown case(s): no_such_case" in err
    assert "tc_path_80" in err
