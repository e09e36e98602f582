"""EXP-15 — restricted satisfaction: pruned enumeration, batched firing.

The restricted chase historically forced *interleaved* firing: every
trigger was satisfaction-checked against the growing instance, then
instantiated and recorded one at a time (`record_application` per
trigger).  Two steps changed that.  The enumeration drops every
existential-free match that cannot add an atom — its ground head is
already in the round-start instance, or a smaller image of the same rule
grounds the same head — so on these Datalog saturations each round
builds one trigger per new atom instead of one per body match.  And a
round with existential-free triggers records through one amortized
``record_round`` pass that gates each trigger by membership of the head
the enumeration parked (a *split* round).

This experiment measures both on restricted Datalog saturations — the
transitive closure of a path and of a tournament — against the
interleaved firing path (``delta_satisfaction=False``, over the same
pruned candidates; bit-identical by construction and asserted here).
The persistent backend prunes on its worker replicas (the
``enumerate_unsatisfied`` command) and records the survivors
parent-side.

Acceptance:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, levels),
* the split batched path does not regress vs the interleaved path (the
  amortized recording is the single-core win), and
* the persistent path agrees exactly.  On 2 CPUs its wall-clock is at
  parity with the inline engines, not ahead: the per-round sync and
  enumeration round trips cost about what spreading the pruned
  matching across workers saves.

Times are medians of five trials, and the configurations alternate
trial by trial, so a swing in host speed lands on all of them alike
instead of on whichever configuration happened to run during it.
"""

import statistics
import time

from conftest import emit
from repro.chase import restricted_chase
from repro.corpus import path_instance
from repro.corpus.generators import tournament_instance
from repro.engine import EngineConfig
from repro.io import format_table
from repro.rules.parser import parse_rules

PATH_N = 80
TOURNAMENT_N = 13
MAX_ROUNDS = 30
TRIALS = 5

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"

#: (label, engine, delta_satisfaction) — the seed interleaved path first.
CONFIGS = [
    ("interleaved (seed path)", "delta", False),
    ("delta-gated batched", "delta", True),
    ("parallel inline (w=1)", EngineConfig("parallel", workers=1), True),
    ("persistent (w=2)", EngineConfig("persistent", workers=2), True),
]


def _assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()


def _sweep(make_instance, rules):
    """Median time of every configuration, alternating them per trial."""
    samples = {label: [] for label, _, _ in CONFIGS}
    results = {}
    for _ in range(TRIALS):
        for label, engine, gate in CONFIGS:
            start = time.perf_counter()
            results[label] = restricted_chase(
                make_instance(),
                rules,
                max_rounds=MAX_ROUNDS,
                engine=engine,
                delta_satisfaction=gate,
            )
            samples[label].append(time.perf_counter() - start)
    times = {label: statistics.median(runs) for label, runs in samples.items()}
    rows = [
        (
            label,
            len(results[label].instance),
            results[label].levels_completed,
            f"{times[label]:.3f}",
        )
        for label, _, _ in CONFIGS
    ]
    reference = results["interleaved (seed path)"]
    assert reference.terminated
    for result in results.values():
        _assert_bit_identical(result, reference)
    return rows, times


def test_exp15_restricted_path(benchmark):
    rules = parse_rules(TRANSITIVITY)
    rows, times = _sweep(lambda: path_instance(PATH_N), rules)
    atoms = benchmark.pedantic(
        lambda: len(
            restricted_chase(
                path_instance(PATH_N), rules, max_rounds=MAX_ROUNDS
            ).instance
        ),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp15_restricted",
        format_table(
            ["configuration", "atoms", "rounds", "median s"],
            rows,
            title=(
                f"EXP-15: restricted satisfaction (pruned enumeration, "
                f"split firing), transitive closure of a {PATH_N}-path"
            ),
        ),
    )
    assert atoms == len(
        restricted_chase(path_instance(PATH_N), rules).instance
    )
    # The single-core claim: the delta-gated batched path must not lose
    # to the per-trigger interleaved loop it replaces (noise-bounded
    # guard; the expected direction is a win from amortized recording).
    assert times["delta-gated batched"] <= times[
        "interleaved (seed path)"
    ] * 1.5, times


def test_exp15_restricted_tournament():
    rules = parse_rules(TRANSITIVITY)
    rows, times = _sweep(
        lambda: tournament_instance(TOURNAMENT_N, seed=0), rules
    )
    emit(
        "exp15_restricted_tournament",
        format_table(
            ["configuration", "atoms", "rounds", "median s"],
            rows,
            title=(
                f"EXP-15: restricted satisfaction (pruned enumeration, "
                f"split firing), transitive closure of a tournament "
                f"(n={TOURNAMENT_N})"
            ),
        ),
    )
