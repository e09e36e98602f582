"""EXP-16 — mixed restricted rounds: pruned enumeration + split firing.

Mixed rounds — existential and existential-free triggers in the same
round — run the restricted chase's *split* path.  The enumeration drops
every existential-free match whose ground head is already in the
round-start instance or repeats the head of a smaller image (on the
persistent backend inside the ``enumerate_unsatisfied`` command, against
each worker's replica), and the round then records in one
canonical-order lazy pass that interleaves only the small existential
remainder.

The workload makes every round genuinely mixed: a successor rule keeps
extending a path with fresh nulls (one unsatisfied existential trigger
per round — the interleaved remainder) while transitive closure over the
same ``E`` predicate floods each round with existential-free matches
(the pruned part).

Acceptance:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, rounds) — the split decomposition of a mixed round
  is invisible in the results,
* the inline split path does not regress vs the interleaved loop
  (amortized recording is the single-core win), and
* the persistent backend agrees exactly, sends no ``probe`` command
  (split rounds record parent-side from the parked heads), and its
  ``enumerate_unsatisfied`` replies carry only pruned images: each
  configuration enumerates exactly the candidates of the inline pruned
  enumeration, far fewer than the unpruned ``naive`` reference.
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

#: (label, engine, delta_satisfaction) — the seed interleaved path first.
CONFIGS = [
    ("interleaved (seed path)", "delta", False),
    ("split inline (delta)", "delta", True),
    ("persistent split (w=2, hash)", EngineConfig("persistent", workers=2), True),
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


def _candidates(engine, gate, rules) -> int:
    """Triggers the enumeration handed to the firing path, all rounds."""
    trace = RunTrace()
    restricted_chase(
        path_instance(PATH_N),
        rules,
        max_rounds=MAX_ROUNDS,
        max_atoms=MAX_ATOMS,
        engine=engine,
        delta_satisfaction=gate,
        trace=trace,
    )
    return sum(record["triggers"] for record in trace.rounds)


def test_exp16_mixed_rounds():
    rules = parse_rules(MIXED_RULES, name="succ_tc")
    rows, results, times, candidates, transports = [], {}, {}, {}, {}
    for label, engine, gate in CONFIGS:
        TRANSPORT_STATS.reset()
        result, median_s = _measure(
            lambda: restricted_chase(
                path_instance(PATH_N),
                rules,
                max_rounds=MAX_ROUNDS,
                max_atoms=MAX_ATOMS,
                engine=engine,
                delta_satisfaction=gate,
            )
        )
        results[label] = result
        times[label] = median_s
        transports[label] = TRANSPORT_STATS.snapshot()
        candidates[label] = _candidates(engine, gate, rules)
        rows.append(
            (
                label,
                len(result.instance),
                result.levels_completed,
                candidates[label],
                f"{median_s:.3f}",
            )
        )
    unpruned = _candidates("naive", True, rules)
    reference = results["interleaved (seed path)"]
    for result in results.values():
        _assert_bit_identical(result, reference)
    emit(
        "exp16_mixed",
        format_table(
            ["configuration", "atoms", "rounds", "candidates", "median s"],
            rows,
            title=(
                f"EXP-16: pruned enumeration + split firing for mixed "
                f"restricted rounds, successor + transitive closure on a "
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
                    "delta_satisfaction": gate,
                    "atoms": len(results[label].instance),
                    "rounds": results[label].levels_completed,
                    "candidates": candidates[label],
                    "median_s": times[label],
                    "transport": transports[label],
                }
                for label, engine, gate in CONFIGS
            },
        },
    )
    # The single-core claim: the inline split path must not lose to the
    # per-trigger interleaved loop it replaces (noise-bounded guard; the
    # expected direction is a win from amortized recording).
    assert times["split inline (delta)"] <= times[
        "interleaved (seed path)"
    ] * 1.5, times
    # Every configuration enumerates the same pruned candidates — on the
    # persistent backend that is what the replicas' replies carried —
    # and pruning removes most of the unpruned reference's triggers.
    assert len(set(candidates.values())) == 1, candidates
    assert candidates["split inline (delta)"] * 5 < unpruned
    commands = transports["persistent split (w=2, hash)"]["commands"]
    assert "probe" not in commands
    assert "enumerate" not in commands
    assert commands["enumerate_unsatisfied"]["messages"] > 0
