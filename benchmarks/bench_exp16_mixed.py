"""EXP-16 — mixed restricted rounds: pruned enumeration, one firing stream.

Mixed rounds — existential and existential-free triggers in the same
round — fire through the runner's one lazy stream like every other
round.  The enumeration drops every existential-free match whose ground
head is already in the round-start instance or repeats the head of a
smaller image (on the persistent backend inside the
``enumerate_unsatisfied`` command, against each worker's replica), so
the stream's satisfaction claims are mostly membership tests of parked
heads, plus the small existential remainder's index-seeded checks.

The workload makes every round genuinely mixed: a successor rule keeps
extending a path with fresh nulls (one unsatisfied existential trigger
per round) while transitive closure over the same ``E`` predicate
floods each round with existential-free matches (the pruned part).

Acceptance:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, rounds), and
* the persistent backend sends no ``probe`` or unpruned ``enumerate``
  command, and its ``enumerate_unsatisfied`` replies carry only pruned
  images: each configuration enumerates exactly the candidates of the
  inline pruned enumeration, far fewer than the unpruned ``naive``
  reference.
"""

import statistics
import time

from conftest import emit, emit_json, engine_provenance
from repro.chase import restricted_chase
from repro.corpus import path_instance
from repro.engine import EngineConfig, TRANSPORT_STATS
from repro.io import format_table
from repro.obs import RunTrace
from repro.rules.parser import parse_rules

PATH_N = 60
MAX_ROUNDS = 8
MAX_ATOMS = 200_000
TRIALS = 3

MIXED_RULES = (
    "E(x,y) -> exists z. E(y,z)\n"
    "E(x,y), E(y,z) -> E(x,z)"
)

#: (label, engine) — the inline reference first.
CONFIGS = [
    ("inline (delta)", "delta"),
    ("persistent (w=2, hash)", EngineConfig("persistent", workers=2)),
]


def _measure(run):
    times, result = [], None
    for _ in range(TRIALS):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def _assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()


def _candidates(engine, rules) -> int:
    """Triggers the enumeration handed to the firing path, all rounds."""
    trace = RunTrace()
    restricted_chase(
        path_instance(PATH_N),
        rules,
        max_rounds=MAX_ROUNDS,
        max_atoms=MAX_ATOMS,
        engine=engine,
        trace=trace,
    )
    return sum(record["triggers"] for record in trace.rounds)


def test_exp16_mixed_rounds():
    rules = parse_rules(MIXED_RULES, name="succ_tc")
    rows, results, times, candidates, transports = [], {}, {}, {}, {}
    for label, engine in CONFIGS:
        TRANSPORT_STATS.reset()
        result, median_s = _measure(
            lambda: restricted_chase(
                path_instance(PATH_N),
                rules,
                max_rounds=MAX_ROUNDS,
                max_atoms=MAX_ATOMS,
                engine=engine,
            )
        )
        results[label] = result
        times[label] = median_s
        transports[label] = TRANSPORT_STATS.snapshot()
        candidates[label] = _candidates(engine, rules)
        rows.append(
            (
                label,
                len(result.instance),
                result.levels_completed,
                candidates[label],
                f"{median_s:.3f}",
            )
        )
    unpruned = _candidates("naive", rules)
    reference = results["inline (delta)"]
    for result in results.values():
        _assert_bit_identical(result, reference)
    emit(
        "exp16_mixed",
        format_table(
            ["configuration", "atoms", "rounds", "candidates", "median s"],
            rows,
            title=(
                f"EXP-16: pruned enumeration for mixed restricted "
                f"rounds, successor + transitive closure on a "
                f"{PATH_N}-path ({MAX_ROUNDS} rounds; unpruned naive "
                f"reference: {unpruned} candidates)"
            ),
        ),
    )
    emit_json(
        "exp16",
        {
            "experiment": "EXP-16",
            "workload": {
                "generator": "path_instance",
                "n": PATH_N,
                "rules": MIXED_RULES,
                "max_rounds": MAX_ROUNDS,
                "max_atoms": MAX_ATOMS,
                "trials": TRIALS,
            },
            "unpruned_candidates": unpruned,
            # Transport counters accumulate over the TRIALS runs of each
            # configuration (the per-config reset is before the measure
            # loop); byte counters are deterministic, wall-clocks noisy.
            "configurations": {
                label: {
                    "provenance": engine_provenance(engine),
                    "atoms": len(results[label].instance),
                    "rounds": results[label].levels_completed,
                    "candidates": candidates[label],
                    "median_s": times[label],
                    "transport": transports[label],
                }
                for label, engine in CONFIGS
            },
        },
    )
    # Every configuration enumerates the same pruned candidates — on the
    # persistent backend that is what the replicas' replies carried —
    # and pruning removes most of the unpruned reference's triggers.
    assert len(set(candidates.values())) == 1, candidates
    assert candidates["inline (delta)"] * 5 < unpruned
    commands = transports["persistent (w=2, hash)"]["commands"]
    assert "probe" not in commands
    assert "enumerate" not in commands
    assert commands["enumerate_unsatisfied"]["messages"] > 0
