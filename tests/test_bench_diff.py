"""``tools/bench_diff.py`` on synthetic ``perfbench/run.py`` outputs."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_diff", REPO / "tools" / "bench_diff.py"
)
bench_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_diff)


def _write_run(tmp_path, name, workload, metrics, failed=0, attempted=10):
    """One run's stdout: the metric table, provenance, then the result."""
    lines = [f"{key:34s} {value:16.6f} s" for key, value in metrics.items()]
    lines.append(json.dumps({"provenance": {"workload": workload, "seed": 1}}))
    lines.append(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": "s"}
                    for key, value in metrics.items()
                },
            }
        )
    )
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _runs(tmp_path, side, workload, values, **extra):
    return [
        _write_run(
            tmp_path,
            f"{side}_{workload}_{i}.out",
            workload,
            {"run_s": value, "peak_rss_mb": 50.0, **extra},
        )
        for i, value in enumerate(values)
    ]


PARENT = [0.60, 0.62, 0.61, 0.65, 0.59, 0.63, 0.60, 0.64, 0.62, 0.61]


def test_clear_gain_is_better_and_exits_zero(tmp_path, capsys):
    parent = _runs(tmp_path, "p", "restricted_tc", PARENT)
    change = _runs(tmp_path, "c", "restricted_tc", [v / 4 for v in PARENT])
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 0
    out = capsys.readouterr().out
    run_row = next(line for line in out.splitlines() if "run_s" in line)
    assert "10/10" in run_row and run_row.endswith("better")
    assert "0 metric(s) worse" in out


def test_regression_beyond_the_bound_exits_nonzero(tmp_path, capsys):
    parent = _runs(tmp_path, "p", "closure_w2", PARENT)
    change = _runs(tmp_path, "c", "closure_w2", [v * 1.4 for v in PARENT])
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 1
    out = capsys.readouterr().out
    run_row = next(line for line in out.splitlines() if "run_s" in line)
    assert " 0/10" in run_row and run_row.endswith("WORSE")


def test_small_slowdown_within_the_bound_passes(tmp_path, capsys):
    parent = _runs(tmp_path, "p", "serve_mix", PARENT)
    change = _runs(tmp_path, "c", "serve_mix", [v * 1.05 for v in PARENT])
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 0
    run_row = next(
        line for line in capsys.readouterr().out.splitlines() if "run_s" in line
    )
    assert run_row.endswith("within bound")


def test_wide_parent_spread_is_unresolved(tmp_path, capsys):
    noisy = [0.3, 0.9, 0.5, 0.7, 0.4, 0.8, 0.6, 0.5, 0.7, 0.6]
    parent = _runs(tmp_path, "p", "property_p", noisy)
    change = _runs(tmp_path, "c", "property_p", list(reversed(noisy)))
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 0
    run_row = next(
        line for line in capsys.readouterr().out.splitlines() if "run_s" in line
    )
    assert run_row.endswith("unresolved")


def test_workloads_are_grouped_and_failures_count(tmp_path, capsys):
    parent = _runs(tmp_path, "p", "restricted_tc", PARENT[:3]) + _runs(
        tmp_path, "p", "serve_mix", PARENT[:3]
    )
    change = _runs(tmp_path, "c", "restricted_tc", PARENT[:3]) + [
        _write_run(tmp_path, f"c_serve_{i}.out", "serve_mix",
                   {"run_s": value}, failed=1)
        for i, value in enumerate(PARENT[:3])
    ]
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 1
    out = capsys.readouterr().out
    assert "restricted_tc: 3 parent runs, 3 change runs" in out
    failed_rows = [line for line in out.splitlines() if "failed share" in line]
    assert failed_rows[0].endswith("within bound")  # restricted_tc
    assert failed_rows[1].endswith("WORSE")  # serve_mix


def test_unreadable_output_exits_two(tmp_path):
    path = tmp_path / "empty.out"
    path.write_text("no json here\n")
    assert bench_diff.main(["--parent", str(path), "--change", str(path)]) == 2


@pytest.mark.parametrize("lower", [True, False])
def test_pairs_won_follow_the_metric_direction(lower):
    metric = {"name": "m", "better": "lower" if lower else "higher",
              "bound": 0.25}
    row = bench_diff.compare(metric, [1.0, 1.0, 1.0], [0.9, 1.0, 1.1])
    assert row["won"] == 1
    assert row["pairs"] == 3
