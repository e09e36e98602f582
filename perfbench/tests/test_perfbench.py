"""Tests of the benchmark itself: seeding, metric names, tiny oracle runs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _tiny(name):
    """A workload shrunk so one pass takes well under a second or two."""
    workload = type(workloads.WORKLOADS[name])()
    if name in ("restricted_tc", "closure_w2"):
        workload.length = 8
    elif name == "serve_mix":
        workload.mix = dict.fromkeys(workloads.MIX, 2)
        workload.tc_path = 6
    else:
        workload.random_rule_sets = 2
        workload.tournament_levels = 4
        workload.example_levels = 5
    return workload


def _describe(request):
    return (
        request.kind,
        str(request.query),
        tuple(str(term) for term in request.bindings),
        tuple(sorted(str(atom) for atom in request.instance)),
        tuple(str(rule) for rule in request.rules),
        request.budgets,
        request.expected_entailed,
        request.expected_tuples,
    )


class TestSeeding:
    def test_serve_mix_stream_is_a_function_of_the_seed(self):
        workload = _tiny("serve_mix")
        first = [_describe(r) for r in workload.setup(7)]
        again = [_describe(r) for r in workload.setup(7)]
        other = [_describe(r) for r in workload.setup(8)]
        assert first == again
        assert first != other

    def test_serve_mix_class_counts_are_fixed(self):
        workload = workloads.ServeMix()
        for seed in (1, 2):
            kinds = [r.kind for r in workload.setup(seed)]
            assert {k: kinds.count(k) for k in workloads.MIX} == workloads.MIX

    def test_path_inputs_are_a_function_of_the_seed(self):
        first = workloads.path_inputs(10, 3)
        again = workloads.path_inputs(10, 3)
        other = workloads.path_inputs(10, 4)
        assert frozenset(first.instance) == frozenset(again.instance)
        assert first.expected == again.expected
        assert frozenset(first.instance) != frozenset(other.instance)
        assert len(first.expected) == len(other.expected) == 11 * 10 // 2 + 1

    def test_property_p_rows_are_a_function_of_the_seed(self):
        workload = _tiny("property_p")

        def rows(seed):
            return [
                (row.name, tuple(str(rule) for rule in row.rules),
                 None if row.instance is None
                 else tuple(sorted(str(a) for a in row.instance)))
                for row in workload.setup(seed)
            ]

        assert rows(5) == rows(5)
        assert rows(5) != rows(6)


class TestMetricNames:
    def test_end_to_end_names_and_units_match_the_spec(self):
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert spec == run.END_TO_END

    def test_per_layer_names_and_units_match_the_spec(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert spec == workloads.LAYER_METRICS

    def test_workload_names_match_the_spec(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    def test_spec_bounds(self):
        assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
        for metric in SPEC["end_to_end"]:
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_oracle(name):
    workload = _tiny(name)
    inputs = workload.setup(1)
    untraced = workload.run(inputs, traced=False)
    traced = workload.run(inputs, traced=True)
    for one_pass in (untraced, traced):
        assert one_pass.ops, "a pass must attempt at least one operation"
        assert one_pass.ok, [op.error for op in one_pass.ops if not op.ok]
        assert one_pass.atoms > 0
    metrics = run.end_to_end([0.01], [untraced])
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    layers = run.per_layer([untraced], [traced], workloads.LAYER_METRICS)
    assert set(layers) == set(workloads.LAYER_METRICS)


def test_without_the_library_the_driver_fails_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "restricted_tc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
