"""Differential tests for the restricted chase's pruned enumeration.

The delta-family engines enumerate restricted rounds through
:func:`repro.chase.trigger.restricted_new_triggers_of`: an
existential-free match whose ground head is already in the round-start
instance, or whose head a smaller image of the same rule grounds too,
never becomes a trigger.  The ``naive`` engine prunes nothing, so it is
the reference here: every pruned engine — inline ``delta``, and
``parallel`` and ``persistent`` on the worker pool (pruning on their
replicas) — must produce a bit-identical
:class:`~repro.chase.result.ChaseResult` (records, timestamps, levels)
and leave the fresh-null supply at the same position, with and without a
budget stop mid-round.

Every engine, ``naive`` included, fires through the same lazy stream, so
an oracle that does not share it checks the firing itself
(:class:`TestRestrictedFiringOracle`): replayed in order, each recorded
trigger fails the object matcher's satisfaction test just before its
output is added, and a terminated result is a model that is
homomorphically equivalent to the terminated oblivious chase.
"""

from __future__ import annotations

import pytest

from repro.chase import oblivious_chase, restricted_chase
from repro.chase.trigger import (
    new_triggers_of,
    restricted_new_triggers_of,
    triggers_of,
)
from repro.corpus.generators import (
    path_instance,
    random_digraph_instance,
    random_instance,
    random_nonrecursive_ruleset,
    tournament_instance,
)
from repro.engine import EngineConfig
from repro.logic.homomorphisms import homomorphically_equivalent
from repro.logic.instances import Instance
from repro.logic.terms import FreshSupply
from repro.obs import RunTrace
from repro.rules.parser import parse_instance, parse_rules

MAX_ROUNDS = 6


def assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()
    for term in a.instance.active_domain():
        assert a.timestamp(term) == b.timestamp(term)
    for at in a.instance:
        assert a.atom_level(at) == b.atom_level(at)


def _random_case(seed: int):
    rules = random_nonrecursive_ruleset(
        n_strata=3, rules_per_stratum=3, existential_probability=0.4, seed=seed
    )
    signature = sorted(
        {a.predicate for rule in rules for a in rule.body | rule.head},
        key=lambda p: p.name,
    )
    return (
        f"random_{seed}",
        lambda: random_instance(signature, 5, 14, seed=seed),
        rules,
    )


#: (id, instance factory, rules).  The hand-built sets aim at the pruning
#: rules one by one; the random non-recursive sets add breadth.
CASES = [
    (
        "multi_atom_heads",
        lambda: path_instance(6),
        parse_rules(
            "E(x,y), E(y,z) -> E(x,z), F(z,x)\nF(x,y) -> G(x), G(y)",
            name="multi",
        ),
    ),
    (
        "cross_rule_duplicates",
        lambda: path_instance(8),
        parse_rules(
            "E(x,y), E(y,z) -> E(x,z)\nE(x,y), E(y,z), E(z,w) -> E(x,w)",
            name="two_tc",
        ),
    ),
    (
        "symmetric_head",
        lambda: random_digraph_instance(5, 0.35, seed=3),
        parse_rules("E(x,y), E(y,z) -> E(x,z), E(z,x)", name="sym"),
    ),
    (
        "mixed_rounds",
        lambda: tournament_instance(5, seed=0),
        parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
            name="succ_overlay",
        ),
    ),
    (
        "mixed_multi_atom",
        lambda: path_instance(5),
        parse_rules(
            "E(x,y) -> exists z. F(y,z), F(z,x)\n"
            "F(x,y), F(y,z) -> E(x,z), G(x)\n"
            "E(x,y) -> G(x)",
            name="mixed_multi",
        ),
    ),
] + [_random_case(seed) for seed in range(6)]
CASE_IDS = [case[0] for case in CASES]

#: (id, engine) — every pruning configuration.
ENGINES = [
    ("delta", "delta"),
    ("parallel_w2", EngineConfig("parallel", workers=2)),
    ("parallel_w3", EngineConfig("parallel", workers=3)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]
ENGINE_IDS = [e[0] for e in ENGINES]


def _run(make, rules, engine, max_atoms):
    supply = FreshSupply("_r")
    result = restricted_chase(
        make(),
        rules,
        max_rounds=MAX_ROUNDS,
        max_atoms=max_atoms,
        supply=supply,
        engine=engine,
    )
    return result, supply.position


def _tight_budget(make, rules) -> int:
    """An atom budget that stops the chase about halfway through."""
    start = len(make())
    full, _ = _run(make, rules, "naive", 20_000)
    added = len(full.instance) - start
    assert added > 1, "the case must derive something"
    return start + added // 2


@pytest.mark.parametrize("ename,engine", ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("cname,make,rules", CASES, ids=CASE_IDS)
class TestPrunedEnumerationMatchesNaive:
    def test_unbounded(self, cname, make, rules, ename, engine):
        reference, ref_position = _run(make, rules, "naive", 20_000)
        result, position = _run(make, rules, engine, 20_000)
        assert_bit_identical(result, reference)
        assert position == ref_position

    def test_budget_stop(self, cname, make, rules, ename, engine):
        budget = _tight_budget(make, rules)
        reference, ref_position = _run(make, rules, "naive", budget)
        assert not reference.terminated
        result, position = _run(make, rules, engine, budget)
        assert_bit_identical(result, reference)
        assert position == ref_position


class TestPrunedCandidates:
    TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

    def test_transitivity_triggers_equal_applications(self):
        # Every pruned candidate of a single existential-free rule has a
        # missing, unrepeated head, so each one fires.
        trace = RunTrace()
        result = restricted_chase(path_instance(12), self.TC, trace=trace)
        assert result.terminated
        assert trace.rounds
        for record in trace.rounds:
            assert record["triggers"] == record["applied"], record

    @pytest.mark.parametrize(
        "engine",
        [
            EngineConfig("parallel", workers=3),
            EngineConfig("persistent", workers=5),
        ],
        ids=["parallel_w3", "persistent_w5"],
    )
    def test_worker_merge_keeps_one_trigger_per_head(self, engine):
        # Workers each keep their own smallest image per head; the merge
        # must leave exactly the inline enumeration's candidates.
        counts = []
        for eng in ("delta", engine):
            trace = RunTrace()
            restricted_chase(path_instance(16), self.TC, engine=eng, trace=trace)
            counts.append([r["triggers"] for r in trace.rounds])
        assert counts[0] == counts[1]

    def test_naive_reference_stays_unpruned(self):
        pruned, naive = RunTrace(), RunTrace()
        restricted_chase(path_instance(12), self.TC, trace=pruned)
        restricted_chase(
            path_instance(12), self.TC, engine="naive", trace=naive
        )
        count = lambda t: sum(r["triggers"] for r in t.rounds)
        assert count(pruned) < count(naive)

    def test_naive_heads_are_instantiated_once(self):
        # The satisfaction check parks each unpruned ground head it
        # instantiates, so a trigger that then fires reuses it.
        trace = RunTrace()
        result = restricted_chase(
            path_instance(12), self.TC, engine="naive", trace=trace
        )
        heads = result.telemetry["registry"]["instantiation"]["heads"]
        assert heads == sum(r["triggers"] for r in trace.rounds)
        assert len(result.records()) < heads

    def test_survivors_are_the_smallest_image_per_missing_head(self):
        # E(a,c) and E(b,d) are present; E(a,d) is reached from the three
        # images a-b-d, a-c-d and a-e-d.
        instance = parse_instance(
            "E(a,b), E(b,c), E(c,d), E(a,c), E(b,d), E(a,e), E(e,d)"
        )
        delta = instance.atoms()
        everything = list(new_triggers_of(instance, self.TC, delta))
        survivors = restricted_new_triggers_of(instance, self.TC, delta)
        expected = {}
        for trigger in everything:
            head = frozenset(trigger.rule.instantiate_head(trigger.mapping))
            if all(a in instance for a in head) or head in expected:
                continue
            expected[head] = trigger
        assert len(everything) == 5
        assert survivors == list(expected.values())
        (survivor,) = survivors
        assert [t.name for t in survivor.image()] == ["a", "b", "d"]
        assert survivor._ground_output == frozenset(
            survivor.rule.instantiate_head(survivor.mapping)
        )

    def test_existential_rules_are_not_pruned(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)", name="succ")
        instance = Instance(path_instance(4).atoms())
        delta = instance.atoms()
        assert restricted_new_triggers_of(instance, rules, delta) == list(
            new_triggers_of(instance, rules, delta)
        )


def assert_fired_only_unsatisfied(result, initial):
    """Replay ``result``'s records into ``initial``, checking each one.

    Every recorded trigger must be active (its body image present) and
    unsatisfied (:meth:`Trigger.is_satisfied_in`, the seeded object
    matcher) in the instance as it stood just before its output was
    added; the replay must rebuild the result's instance exactly.
    """
    replay = initial.copy()
    for record in result.records():
        trigger = record.trigger
        body = trigger.mapping.apply_atoms(trigger.rule.body)
        assert all(a in replay for a in body), record
        assert not trigger.is_satisfied_in(replay), record
        replay.update(record.output_atoms)
    assert replay == result.instance


#: The engines the oracle runs: the inline pruned engine, the unpruned
#: reference and the worker pool.
ORACLE_ENGINES = [
    ("delta", "delta"),
    ("naive", "naive"),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]


def assert_universal_model(result, initial, rules):
    """A terminated restricted chase is a model of ``rules`` that is
    homomorphically equivalent to the terminated oblivious chase."""
    for trigger in triggers_of(result.instance, rules):
        assert trigger.is_satisfied_in(result.instance), trigger
    oblivious = oblivious_chase(initial, rules, max_atoms=20_000)
    assert oblivious.terminated
    assert homomorphically_equivalent(result.instance, oblivious.instance)


@pytest.mark.parametrize(
    "ename,engine", ORACLE_ENGINES, ids=[e[0] for e in ORACLE_ENGINES]
)
@pytest.mark.parametrize("cname,make,rules", CASES, ids=CASE_IDS)
class TestRestrictedFiringOracle:
    def test_fired_triggers_and_model(self, cname, make, rules, ename, engine):
        stopped, _ = _run(make, rules, engine, _tight_budget(make, rules))
        assert_fired_only_unsatisfied(stopped, make())
        result, _ = _run(make, rules, engine, 20_000)
        assert_fired_only_unsatisfied(result, make())
        # The two hand-built existential cases never terminate; every
        # other case does within MAX_ROUNDS.
        if result.terminated:
            assert_universal_model(result, make(), rules)
