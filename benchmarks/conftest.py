"""Shared helpers for the experiment benchmarks.

Each ``bench_expN_*.py`` regenerates one experiment's artifact — the
paper claims under ``make paper-claims``, the engine measurements under
``make perf-smoke`` — and both prints its table and records it under
``benchmarks/results/``.  Experiments with
machine-readable consumers (the transport-budget guard in
``tools/check_transport_budget.py``, the ROADMAP manifest migration)
additionally write a ``BENCH_<name>.json`` next to the table via
:func:`emit_json`.
"""

from __future__ import annotations

import json
import pathlib
import platform

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    print()
    print(table)


def emit_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result as ``BENCH_<name>.json``.

    A ``host`` provenance block (interpreter + platform) is stamped in so
    a checked-in artifact says where its numbers came from; byte counters
    are deterministic, wall-clocks are not.  Every artifact also carries a
    ``telemetry`` block — the schema version plus a snapshot of the
    default metrics registry (matcher / instantiation / transport
    groups) taken at emit time, i.e. the cumulative work of the whole
    benchmark process up to this artifact (``tools/check_bench_telemetry.py``
    gates its presence); benchmarks that scope their counters per phase
    can pass their own ``telemetry`` to override the default.
    """
    from repro.obs import TRACE_SCHEMA_VERSION, default_registry

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault(
        "host",
        {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    )
    payload.setdefault(
        "telemetry",
        {
            "schema_version": TRACE_SCHEMA_VERSION,
            "registry": default_registry().snapshot(),
        },
    )
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def engine_provenance(engine) -> dict:
    """The engine/workers provenance block of one configuration."""
    from repro.engine import resolve_engine

    config = resolve_engine(engine) if isinstance(engine, str) else engine
    return {
        "engine": config.name,
        "mode": config.mode,
        "workers": config.workers,
    }
