"""EXP-13 — semi-naive vs naive Datalog closure, inline and on the pool.

Measures the semi-naive closure engines against naive re-derivation on
the EXP-12-scale Datalog closure (transitive closure of a 60-path, ~1.8k
atoms over ~24 rounds), plus the cross-engine equality guarantee:

* ``naive`` re-derives every round from the whole instance on the object
  matcher — the reference;
* ``delta`` (the closure default) derives only the heads whose body uses
  a delta atom, collected as id rows by the delta core's join kernel;
* ``parallel`` at one worker runs those same rounds inline;
* ``persistent`` at two workers splits them across the worker pool
  (replicas seeded once, per-round delta sync).

The acceptance bar is ≥1.5x wall-clock for ``delta`` over ``naive``;
medians of three runs keep the assert stable on noisy boxes.
"""

import statistics
import time

from conftest import emit
from repro.corpus import path_instance
from repro.engine import EngineConfig
from repro.io import format_table
from repro.rewriting.datalog import semi_naive_closure
from repro.rules import parse_rules

N = 60
MAX_ROUNDS = 24
TRIALS = 3

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"

#: (label, workers, engine) — the naive reference first.
ENGINES = [
    ("naive", 1, "naive"),
    ("delta", 1, "delta"),
    ("parallel", 1, EngineConfig("parallel", workers=1)),
    ("persistent", 2, EngineConfig("persistent", workers=2)),
]


def _run(engine):
    start = time.perf_counter()
    closure = semi_naive_closure(
        path_instance(N), parse_rules(TRANSITIVITY), max_rounds=MAX_ROUNDS,
        engine=engine,
    )
    return closure, time.perf_counter() - start


def _median_time(engine):
    times = []
    closure = None
    for _ in range(TRIALS):
        closure, elapsed = _run(engine)
        times.append(elapsed)
    return closure, statistics.median(times)


def test_exp13_parallel_closure(benchmark):
    reference, naive_s = _median_time("naive")
    rows = []
    times = {}
    for label, workers, engine in ENGINES:
        if label == "naive":
            closure, elapsed = reference, naive_s
        else:
            closure, elapsed = _median_time(engine)
        assert closure == reference  # same fixpoint on every engine
        times[label] = elapsed
        rows.append(
            (
                label,
                workers,
                len(closure),
                f"{elapsed:.3f}",
                f"{naive_s / elapsed:.1f}x",
            )
        )

    atoms = benchmark.pedantic(
        lambda: len(_run("delta")[0]),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp13_parallel",
        format_table(
            ["engine", "workers", "atoms", "median s", "speedup"],
            rows,
            title=(
                f"EXP-13: semi-naive vs naive Datalog closure, "
                f"{N}-path transitive closure"
            ),
        ),
    )
    assert atoms == len(reference)
    # The acceptance bar: the semi-naive closure default is >=1.5x over
    # naive re-derivation.
    assert naive_s / times["delta"] >= 1.5
