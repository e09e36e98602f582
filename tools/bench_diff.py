#!/usr/bin/env python
"""Compare repeated ``perfbench/run.py`` runs of a parent and a change.

Usage::

    python tools/bench_diff.py --parent p1.out p2.out ... --change c1.out c2.out ...

Each file is the standard output of one ``perfbench/run.py`` run.  The
tool reads the run's last JSON line (the result: ``metrics``, ``failed``,
``attempted``) and its ``provenance`` line (the workload name), groups
the runs by workload and pairs the i-th parent run of a workload with
its i-th change run — so list the runs in the order they were made,
alternating sides.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
run reported, it prints both sides' median and quartiles, the relative
change of the median, the pairs the change won (ties count for
neither), and a verdict:

``better``
    the change won at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile range;
``WORSE``
    the change median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's own spread is wider than the bound and not every change
    run beats every parent run, so no-regression cannot be read off;
``within bound``
    anything else.

A change with a larger failed share of operations than its parent is
also ``WORSE``.  Exit status: 0 when nothing is ``WORSE``, 1 otherwise,
2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The share of pairs the change must win for a ``better`` verdict.
WIN_SHARE = 0.9


def read_run(path: pathlib.Path) -> tuple[str, dict]:
    """``(workload, result)`` of one run's output."""
    workload = None
    result = None
    for line in path.read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "provenance" in record:
            workload = record["provenance"]["workload"]
        elif "metrics" in record:
            result = record
    if workload is None or result is None:
        raise ValueError(f"{path}: no provenance and result JSON lines")
    return workload, result


def group(paths) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        workload, result = read_run(pathlib.Path(path))
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row: medians, quartiles, pairs won and the verdict."""
    lower = metric["better"] == "lower"
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if beats(c, p))
    base = abs(p_med) or 1.0
    worsening = ((c_med - p_med) if lower else (p_med - c_med)) / base
    if worsening > metric["bound"]:
        verdict = "WORSE"
    elif (
        pairs
        and won >= WIN_SHARE * len(pairs)
        and abs(c_med - p_med) > p3 - p1
    ):
        verdict = "better"
    elif (p3 - p1) / base > metric["bound"] and not all(
        beats(c, p) for c in change for p in parent
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (p_med, p1, p3),
        "change": (c_med, c1, c3),
        "relative": (c_med - p_med) / base,
        "won": won,
        "pairs": len(pairs),
        "verdict": verdict,
    }


def _failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def diff(spec: dict, parent_runs: dict, change_runs: dict) -> tuple[list, int]:
    """Report lines and the number of ``WORSE`` verdicts."""
    lines: list[str] = []
    worse = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        lines.append(
            f"{workload}: {len(parents)} parent runs, {len(changes)} change runs"
        )
        if not parents or not changes:
            lines.append("  one side is missing: nothing to compare")
            worse += 1
            continue
        lines.append(
            f"  {'metric':16s} {'unit':5s} {'parent median [q1, q3]':32s} "
            f"{'change median [q1, q3]':32s} {'change':>8s} {'won':>6s}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in r["metrics"] for r in parents + changes):
                continue
            row = compare(
                metric,
                [r["metrics"][name]["value"] for r in parents],
                [r["metrics"][name]["value"] for r in changes],
            )
            worse += row["verdict"] == "WORSE"
            lines.append(
                f"  {name:16s} {metric['unit']:5s} "
                f"{_spread(row['parent']):32s} {_spread(row['change']):32s} "
                f"{row['relative']:+8.1%} {row['won']:>3d}/{row['pairs']:<2d}  "
                f"{row['verdict']}"
            )
        parent_failed = _failed_share(parents)
        change_failed = _failed_share(changes)
        verdict = "WORSE" if change_failed > parent_failed else "within bound"
        worse += verdict == "WORSE"
        lines.append(
            f"  {'failed share':16s} {'ratio':5s} {parent_failed:<32.4f} "
            f"{change_failed:<32.4f} {'':>8s} {'':>6s}  {verdict}"
        )
    return lines, worse


def _spread(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    try:
        spec = json.loads(pathlib.Path(args.benchmark).read_text())
        parent_runs = group(args.parent)
        change_runs = group(args.change)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2
    lines, worse = diff(spec, parent_runs, change_runs)
    print("\n".join(lines))
    print(f"bench_diff: {worse} metric(s) worse than the bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
