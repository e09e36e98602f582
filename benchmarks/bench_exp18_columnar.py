"""EXP-18 — shared-memory transport vs the pipe, on columnar replicas.

The interned-term varint transport got the persistent pool's EXP-14
pipe payload down to ~18.8 KB; this experiment measures the next rung
on the same 60-path closure workload so the numbers are directly
comparable.  Workers keep id-native
:class:`~repro.engine.columnar.ColumnarInstance` replicas fed by
``ingest_packed`` in both rows; with **shared-memory transport**
(``shared_memory=True``) payloads at or above the threshold ride
:class:`~repro.engine.shm.SegmentPool` segments and the pipes carry only
refs, splitting the transport into a pipe channel and an shm channel.

Acceptance (deterministic byte counters, hard-gated by
``tools/check_transport_budget.py`` against
``benchmarks/transport_budget.json``):

* all engines produce the identical closure (pinned here and in the
  equivalence suites),
* with shared memory on, the **pipe** channel drops at least 3x vs the
  18 809 B the pipe-only persistent engine ships on this workload
  (budget 6 269 B), and
* the combined pipe+shm bytes stay within the total budget — moving
  payload off the pipe must not inflate it.

Wall-clock columns are report-only on shared runners; the existential
fan-out test pins result equality for a chase whose levels enumerate on
the columnar replicas and fire in the parent.
"""

import statistics
import time

from conftest import emit, emit_json, engine_provenance
from repro.chase import oblivious_chase
from repro.corpus import path_instance
from repro.corpus.generators import tournament_instance
from repro.engine import TRANSPORT_STATS, EngineConfig, shm_available
from repro.io import format_table
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_rules

N = 60
MAX_ROUNDS = 24
TRIALS = 3

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"
SUCC_OVERLAY = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"

#: The EXP-14 pipe-only measurement this experiment's shm gate is
#: anchored to (see benchmarks/transport_budget.json).
EXP14_PIPE_BYTES = 18_809

ENGINES = [
    ("persistent (pipe, columnar)",
     EngineConfig("persistent", workers=2)),
]
if shm_available():
    ENGINES.append(
        ("persistent (shm, columnar)",
         EngineConfig("persistent", workers=2, shared_memory=True))
    )


def _measure(run):
    """Median wall-clock of TRIALS runs plus the last run's channels."""
    times, result, transport = [], None, None
    for _ in range(TRIALS):
        TRANSPORT_STATS.reset()
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        transport = TRANSPORT_STATS.snapshot()
    pipe = transport["bytes_sent"]
    shm = transport["shm_bytes"]
    return result, statistics.median(times), pipe, shm, transport


def test_exp18_columnar_shm_closure(benchmark):
    rows = []
    results, pipes, shms, times, transports = {}, {}, {}, {}, {}
    for label, engine in ENGINES:
        closure, median_s, pipe, shm, transport = _measure(
            lambda: semi_naive_closure(
                path_instance(N),
                parse_rules(TRANSITIVITY),
                max_rounds=MAX_ROUNDS,
                engine=engine,
            )
        )
        results[label] = closure
        pipes[label], shms[label] = pipe, shm
        times[label], transports[label] = median_s, transport
        rows.append(
            (
                label,
                len(closure),
                f"{median_s:.3f}",
                str(pipe),
                str(shm),
            )
        )

    reference = results[ENGINES[0][0]]
    assert all(closure == reference for closure in results.values())

    atoms = benchmark.pedantic(
        lambda: len(
            semi_naive_closure(
                path_instance(N),
                parse_rules(TRANSITIVITY),
                max_rounds=MAX_ROUNDS,
                engine=ENGINES[-1][1],
            )
        ),
        rounds=3,
        iterations=1,
    )
    assert atoms == len(reference)

    emit(
        "exp18_columnar",
        format_table(
            ["engine", "atoms", "median s", "pipe B", "shm B"],
            rows,
            title=(
                f"EXP-18: shared-memory transport on columnar replicas, "
                f"{N}-path Datalog closure"
            ),
        ),
    )
    emit_json(
        "exp18",
        {
            "experiment": "EXP-18",
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
                    "pipe_bytes": pipes[label],
                    "shm_bytes": shms[label],
                    "total_bytes": pipes[label] + shms[label],
                    "transport": transports[label],
                }
                for label, engine in ENGINES
            },
        },
    )

    if shm_available():
        pipe = pipes["persistent (shm, columnar)"]
        shm = shms["persistent (shm, columnar)"]
        # The headline claim: the pipe channel drops >= 3x vs the
        # pipe-only transport on the same workload.
        assert pipe * 3 <= EXP14_PIPE_BYTES, (pipe, EXP14_PIPE_BYTES)
        assert shm > 0
        # Splitting channels must not inflate the combined traffic.
        assert pipe + shm <= pipes["persistent (pipe, columnar)"], (
            pipe, shm, pipes["persistent (pipe, columnar)"]
        )


def test_exp18_pool_chase_fanout():
    """Wide fan-out: an existential chase enumerated over both transports."""
    rules = parse_rules(SUCC_OVERLAY)
    make = lambda: tournament_instance(10, seed=0)

    reference, delta_s, _, _, _ = _measure(
        lambda: oblivious_chase(make(), rules, max_levels=4)
    )
    rows = [("delta (sequential)", len(reference.instance), f"{delta_s:.3f}")]
    for label, engine in ENGINES:
        result, median_s, _, _, _ = _measure(
            lambda: oblivious_chase(make(), rules, max_levels=4, engine=engine)
        )
        assert result.instance == reference.instance
        assert result.records() == reference.records()
        rows.append((label, len(result.instance), f"{median_s:.3f}"))
    emit(
        "exp18_firing",
        format_table(
            ["engine", "atoms", "median s"],
            rows,
            title=(
                "EXP-18: enumeration on columnar replicas, parent-side "
                "firing, oblivious chase (tournament n=10, 4 levels)"
            ),
        ),
    )
