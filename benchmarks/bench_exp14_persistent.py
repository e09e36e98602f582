"""EXP-14 — persistent delta-fed workers: wall-clock and pipe payload.

The persistent ``WorkerPool`` seeds each worker's replica once and then
ships only per-round deltas, so its transport cost grows with the
*change*, not with the instance.  This experiment measures it on the
EXP-13 workload (transitive closure of a 60-path: ~24 semi-naive rounds
over a growing instance with shrinking deltas) next to the inline
engines, plus an existential chase whose levels enumerate on the pool
and fire in the parent.

Acceptance:

* every engine produces the identical closure/chase (pinned here and in
  ``tests/test_engine_persistent.py``), and
* the pool's pipe payload (``bytes_sent``, the pickled envelopes) and
  its replies (``bytes_received``: a derive reply carries only the new
  heads, as id rows) stay within their checked-in budgets —
  ``tools/check_transport_budget.py`` gates the ``payload_bytes`` and
  ``reply_bytes`` this file writes to ``BENCH_exp14.json``.

Wall-clock columns are report-only: the pool only wins on multicore
machines where spreading the matching outweighs the per-round sync.
"""

import statistics
import time

from conftest import emit, emit_json, engine_provenance
from repro.chase import oblivious_chase
from repro.corpus import path_instance
from repro.corpus.generators import tournament_instance
from repro.engine import TRANSPORT_STATS, EngineConfig
from repro.io import format_table
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_rules

N = 60
MAX_ROUNDS = 24
TRIALS = 3

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"
SUCC_OVERLAY = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"

ENGINES = [
    ("delta (sequential)", "delta"),
    ("parallel (inline)", EngineConfig("parallel", workers=1)),
    ("persistent (delta-fed)", EngineConfig("persistent", workers=2)),
]


def _measure(run):
    """Median wall-clock of TRIALS runs plus the last run's transport."""
    times, result, transport = [], None, None
    for _ in range(TRIALS):
        TRANSPORT_STATS.reset()
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        transport = TRANSPORT_STATS.snapshot()
    return result, statistics.median(times), transport["bytes_sent"], transport


def test_exp14_persistent_closure(benchmark):
    rows = []
    results = {}
    payloads = {}
    times = {}
    transports = {}
    for label, engine in ENGINES:
        closure, median_s, payload, transport = _measure(
            lambda: semi_naive_closure(
                path_instance(N),
                parse_rules(TRANSITIVITY),
                max_rounds=MAX_ROUNDS,
                engine=engine,
            )
        )
        results[label] = closure
        payloads[label] = payload
        times[label] = median_s
        transports[label] = transport
        rows.append(
            (
                label,
                len(closure),
                f"{median_s:.3f}",
                f"{payload / 1024:.0f}" if payload else "0",
            )
        )

    reference = results["delta (sequential)"]
    assert all(closure == reference for closure in results.values())

    atoms = benchmark.pedantic(
        lambda: len(
            semi_naive_closure(
                path_instance(N),
                parse_rules(TRANSITIVITY),
                max_rounds=MAX_ROUNDS,
                engine=EngineConfig("persistent", workers=2),
            )
        ),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp14_persistent",
        format_table(
            ["engine", "atoms", "median s", "payload KiB"],
            rows,
            title=(
                f"EXP-14: persistent delta-fed workers, {N}-path Datalog "
                f"closure"
            ),
        ),
    )
    emit_json(
        "exp14",
        {
            "experiment": "EXP-14",
            "workload": {
                "generator": "path_instance",
                "n": N,
                "rules": TRANSITIVITY,
                "max_rounds": MAX_ROUNDS,
                "trials": TRIALS,
            },
            "engines": {
                label: {
                    "provenance": engine_provenance(engine),
                    "atoms": len(results[label]),
                    "median_s": times[label],
                    "payload_bytes": payloads[label],
                    "reply_bytes": transports[label]["bytes_received"],
                    "transport": transports[label],
                }
                for label, engine in ENGINES
            },
        },
    )
    assert atoms == len(reference)


def test_exp14_pool_chase():
    """An existential chase enumerated on the pool, fired in the parent."""
    rules = parse_rules(SUCC_OVERLAY)
    make = lambda: tournament_instance(10, seed=0)

    reference, delta_s, _, _ = _measure(
        lambda: oblivious_chase(make(), rules, max_levels=4)
    )
    rows = [("delta (sequential)", len(reference.instance), f"{delta_s:.3f}")]
    for label, engine in ENGINES[1:]:
        result, median_s, _, _ = _measure(
            lambda: oblivious_chase(make(), rules, max_levels=4, engine=engine)
        )
        assert result.instance == reference.instance
        assert result.records() == reference.records()
        rows.append((label, len(result.instance), f"{median_s:.3f}"))
    emit(
        "exp14_firing",
        format_table(
            ["engine", "atoms", "median s"],
            rows,
            title=(
                "EXP-14: pool enumeration, parent-side firing, oblivious "
                "chase (tournament n=10, 4 levels)"
            ),
        ),
    )
