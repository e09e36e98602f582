"""EXP-13 — parallel chase engine: batched firing + sharded scheduling.

Measures ``engine="parallel"`` against the sequential delta engine on the
EXP-12-scale Datalog closure (transitive closure of a 60-path, ~1.8k
atoms over ~24 semi-naive rounds) at 1, 2 and 4 workers, plus the
cross-engine equality guarantee.

On a single-core GIL build (this harness) the speedup comes from the
batched derivation path — heads collected per round as id rows by the
delta core's join kernel, no trigger identity, no
canonical sort — while thread fan-out is a structural win reserved for
free-threaded/multicore builds.  The acceptance bar is ≥1.5x wall-clock
at 4 workers over ``engine="delta"``; medians of three runs keep the
assert stable on noisy boxes.
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
    reference, delta_s = _median_time("delta")

    rows = [("delta (sequential)", 1, len(reference), f"{delta_s:.3f}", "1.0x")]
    by_workers = {}
    for workers in (1, 2, 4):
        config = EngineConfig("parallel", workers=workers)
        closure, elapsed = _median_time(config)
        assert closure == reference  # same fixpoint, every worker count
        by_workers[workers] = elapsed
        rows.append(
            (
                "parallel",
                workers,
                len(closure),
                f"{elapsed:.3f}",
                f"{delta_s / elapsed:.1f}x",
            )
        )

    atoms = benchmark.pedantic(
        lambda: len(_run(EngineConfig("parallel", workers=4))[0]),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp13_parallel",
        format_table(
            ["engine", "workers", "atoms", "median s", "speedup"],
            rows,
            title=(
                f"EXP-13: parallel vs sequential delta engine, "
                f"{N}-path Datalog closure"
            ),
        ),
    )
    assert atoms == len(reference)
    # The acceptance bar: >=1.5x over the sequential delta engine at 4
    # workers (batched derivation; see module docstring).
    assert delta_s / by_workers[4] >= 1.5
