#!/usr/bin/env python
"""Transport-bytes regression guard for the persistent worker protocol.

Compares the measurements ``make perf-smoke`` just wrote
(``benchmarks/results/BENCH_*.json``) against the checked-in budgets
(``benchmarks/transport_budget.json``) and fails when any gated channel
exceeds its budget.  Byte counters are deterministic — unlike the
wall-clocks in the same artifacts — so these are hard gates, not noisy
ones: if one trips, the wire protocol really did get chattier (a symbol
re-shipped per round, a payload falling back to pickle, a widened id
stream), and either the protocol or, deliberately, the budget must
change.

Each gate names an artifact, an engine label inside it, and a byte
*channel* of that engine's entry: ``payload_bytes`` is the pickled
envelopes sent down the pool's pipes, which carry every payload, and
``reply_bytes`` the reply envelopes the workers send back.

Exit status: 0 when every gate holds, 1 on any over-budget channel or a
missing/stale artifact (run ``make perf-smoke`` first).
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUDGET_PATH = ROOT / "benchmarks" / "transport_budget.json"
RESULTS_DIR = ROOT / "benchmarks" / "results"


def check_gate(gate: dict, artifacts: dict) -> str | None:
    """Apply one gate; return an error line or None when it holds."""
    name = gate["artifact"]
    if name not in artifacts:
        path = RESULTS_DIR / name
        try:
            artifacts[name] = json.loads(path.read_text())
        except FileNotFoundError:
            return (
                f"{name} missing — run `make perf-smoke` (or the "
                f"{gate['experiment']} benchmark) first"
            )
        except ValueError as exc:
            return f"{name}: unreadable JSON ({exc})"
    engine, channel = gate["engine"], gate["channel"]
    try:
        measured = artifacts[name]["engines"][engine][channel]
    except KeyError:
        return f"{name}: no {channel} for engine {engine!r}"
    limit = gate["max_bytes"]
    verdict = "within" if measured <= limit else "OVER"
    print(
        f"transport budget: {gate['experiment']} {engine} {channel} "
        f"{measured} B, budget {limit} B — {verdict} budget"
    )
    if measured > limit:
        return (
            f"{gate['experiment']} {engine} {channel}: {measured} B over "
            f"the {limit} B budget"
        )
    return None


def main() -> int:
    budget = json.loads(BUDGET_PATH.read_text())
    artifacts: dict[str, dict] = {}
    failures = []
    for gate in budget["gates"]:
        problem = check_gate(gate, artifacts)
        if problem is not None:
            failures.append(problem)
    if failures:
        for problem in failures:
            print(f"transport budget: {problem}", file=sys.stderr)
        print(
            "transport budget: the persistent transport got chattier; fix "
            "the regression or deliberately raise "
            f"{BUDGET_PATH.relative_to(ROOT)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
