"""EXP-15 — restricted satisfaction: pruned enumeration, one firing stream.

The restricted chase fires a trigger only when its head is not yet
satisfied, so its claim must see every atom the round has added so far.
Every round fires through the runner's one lazy stream, which
``record_round`` pulls one application at a time.  The enumeration
drops every existential-free match that cannot add an atom — its ground
head is already in the round-start instance, or a smaller image of the
same rule grounds the same head — so on these Datalog saturations each
round builds one trigger per new atom instead of one per body match,
and each claim is a membership test of the head the enumeration parked.

This experiment times the restricted transitive closure of a path and
of a tournament inline (``delta`` and ``parallel`` at one worker) and
on the worker pool, which prunes on its replicas (the
``enumerate_unsatisfied`` command) and fires the survivors parent-side.

Acceptance:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, levels), and
* the path's result is its transitive closure, ``{E(Ci,Cj) : i < j}``.

On 2 CPUs the pool's wall-clock is at parity with the inline engines,
not ahead: the per-round sync and enumeration round trips cost about
what spreading the pruned matching across workers saves.

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
from repro.logic.atoms import Atom
from repro.logic.predicates import EDGE
from repro.logic.terms import Constant
from repro.rules.parser import parse_rules

PATH_N = 80
TOURNAMENT_N = 13
MAX_ROUNDS = 30
TRIALS = 5

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"

#: (label, engine) — the inline reference first.
CONFIGS = [
    ("delta", "delta"),
    ("parallel inline (w=1)", EngineConfig("parallel", workers=1)),
    ("persistent (w=2)", EngineConfig("persistent", workers=2)),
]


def _assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()


def _sweep(make_instance, rules):
    """Median time of every configuration, alternating them per trial."""
    samples = {label: [] for label, _ in CONFIGS}
    results = {}
    for _ in range(TRIALS):
        for label, engine in CONFIGS:
            start = time.perf_counter()
            results[label] = restricted_chase(
                make_instance(),
                rules,
                max_rounds=MAX_ROUNDS,
                engine=engine,
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
        for label, _ in CONFIGS
    ]
    reference = results["delta"]
    assert reference.terminated
    for result in results.values():
        _assert_bit_identical(result, reference)
    return rows, reference


def test_exp15_restricted_path(benchmark):
    rules = parse_rules(TRANSITIVITY)
    rows, reference = _sweep(lambda: path_instance(PATH_N), rules)
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
                f"EXP-15: restricted satisfaction (pruned enumeration), "
                f"transitive closure of a {PATH_N}-path"
            ),
        ),
    )
    closure = {
        Atom(EDGE, (Constant(f"C{i}"), Constant(f"C{j}")))
        for i in range(PATH_N + 1)
        for j in range(i + 1, PATH_N + 1)
    }
    assert reference.instance.with_predicate(EDGE) == closure
    assert atoms == len(reference.instance)


def test_exp15_restricted_tournament():
    rules = parse_rules(TRANSITIVITY)
    rows, _ = _sweep(
        lambda: tournament_instance(TOURNAMENT_N, seed=0), rules
    )
    emit(
        "exp15_restricted_tournament",
        format_table(
            ["configuration", "atoms", "rounds", "median s"],
            rows,
            title=(
                f"EXP-15: restricted satisfaction (pruned enumeration), "
                f"transitive closure of a tournament (n={TOURNAMENT_N})"
            ),
        ),
    )
