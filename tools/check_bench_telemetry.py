#!/usr/bin/env python
"""Gate: every ``BENCH_*.json`` artifact must embed a telemetry snapshot.

``benchmarks/conftest.emit_json`` stamps a ``telemetry`` block — the
trace schema version plus a snapshot of the default metrics registry —
into every machine-readable benchmark artifact.  This check (run at the
end of ``make perf-smoke``) fails when an artifact is missing the block,
carries a stale schema version, or lost the registry groups: that means
a benchmark started writing JSON behind ``emit_json``'s back, or the
telemetry schema was bumped without regenerating the artifacts.

It also asserts the perf-smoke artifact set is complete: the
``REQUIRED`` artifacts below are regenerated by ``make perf-smoke``
itself, so their absence means a benchmark silently stopped emitting
its JSON (e.g. EXP-17's goal-directed serving pin, whose telemetry
counters the acceptance criteria reference).

Exit status: 0 when every artifact checks out, 1 otherwise (or when no
artifacts exist at all — run ``make perf-smoke`` first).
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"

#: Artifacts `make perf-smoke` regenerates — must exist after the run.
REQUIRED = {"BENCH_exp14.json", "BENCH_exp17.json"}

sys.path.insert(0, str(ROOT / "src"))

from repro.obs import TRACE_SCHEMA_VERSION  # noqa: E402


def check_artifact(path: pathlib.Path) -> list[str]:
    """Return the problems of one artifact (empty = clean)."""
    rel = path.relative_to(ROOT)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{rel}: unreadable JSON ({exc})"]
    telemetry = payload.get("telemetry")
    if not isinstance(telemetry, dict):
        return [f"{rel}: no telemetry block (emit_json should stamp one)"]
    problems = []
    version = telemetry.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        problems.append(
            f"{rel}: telemetry schema_version {version!r} != "
            f"{TRACE_SCHEMA_VERSION} — regenerate the artifact"
        )
    registry = telemetry.get("registry")
    if not isinstance(registry, dict) or not registry:
        problems.append(f"{rel}: telemetry.registry missing or empty")
    if path.name == "BENCH_exp17.json":
        problems.extend(_check_exp17(rel, payload))
    return problems


def _check_exp17(rel: pathlib.Path, payload: dict) -> list[str]:
    """EXP-17's pin: every goal-directed config carries serving counters."""
    problems = []
    registry = (payload.get("telemetry") or {}).get("registry") or {}
    if "serving" not in registry:
        problems.append(
            f"{rel}: telemetry.registry has no 'serving' group — the "
            f"serving stats are not registered"
        )
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + [f"{rel}: no workloads block"]
    for workload, configs in workloads.items():
        goal_configs = [
            c for name, c in configs.items() if name.startswith("goal_directed")
        ]
        if not goal_configs:
            problems.append(f"{rel}: {workload}: no goal-directed config")
        for config in goal_configs:
            serving = config.get("serving")
            if not isinstance(serving, dict) or not serving.get("goal_stops"):
                problems.append(
                    f"{rel}: {workload}: goal-directed config lacks "
                    f"serving counters (goal_stops)"
                )
    return problems


def main() -> int:
    artifacts = sorted(RESULTS_DIR.glob("BENCH_*.json"))
    if not artifacts:
        print(
            f"bench telemetry: no BENCH_*.json under "
            f"{RESULTS_DIR.relative_to(ROOT)} — run `make perf-smoke` first",
            file=sys.stderr,
        )
        return 1
    problems: list[str] = []
    present = {path.name for path in artifacts}
    for name in sorted(REQUIRED - present):
        problems.append(
            f"benchmarks/results/{name}: required perf-smoke artifact "
            f"missing — its benchmark stopped emitting JSON"
        )
    for path in artifacts:
        problems.extend(check_artifact(path))
    if problems:
        for problem in problems:
            print(f"bench telemetry: {problem}", file=sys.stderr)
        return 1
    print(
        f"bench telemetry: {len(artifacts)} artifact(s) carry a "
        f"schema-v{TRACE_SCHEMA_VERSION} registry snapshot"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
