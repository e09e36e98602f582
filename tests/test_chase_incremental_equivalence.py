"""Engine equivalence: the delta-driven chase must be bit-identical to the
naive reference enumeration.

The delta engine enumerates only triggers using ≥ 1 atom of the previous
level's delta (semi-naive evaluation); the naive engine re-matches every
rule body against the whole instance and subtracts the already-seen
triggers.  Both fire in the same canonical per-rule order, so for every
workload the produced :class:`ChaseResult` — atom sets, levels,
termination flag, timestamps, null names, provenance records — must agree
exactly, across all three chase variants and all corpus families.
"""

from __future__ import annotations

import pytest

from repro.chase import (
    naive_new_triggers_of,
    new_triggers_of,
    oblivious_chase,
    restricted_chase,
    semi_oblivious_chase,
    triggers_of,
)
from repro.corpus.families import (
    branching_tree,
    datalog_grid,
    inclusion_chain,
    merge_ladder,
)
from repro.corpus.generators import (
    path_instance,
    random_digraph_instance,
    random_nonrecursive_ruleset,
    tournament_instance,
)
from repro.logic.homomorphisms import MATCHER_STATS
from repro.logic.instances import Instance
from repro.rules.parser import parse_instance, parse_rules


def assert_bit_identical(a, b):
    """Full ChaseResult equality: atoms, levels, provenance, timestamps."""
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()
    for term in a.instance.active_domain():
        assert a.timestamp(term) == b.timestamp(term)
    for atom in a.instance:
        assert a.atom_level(atom) == b.atom_level(atom)


def _workloads():
    succ = parse_rules(
        "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
        name="succ_overlay",
    )
    transitivity = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")
    cases = [
        ("path_succ", path_instance(8), succ, 4),
        ("path_tc", path_instance(8), transitivity, 6),
        ("tournament_succ", tournament_instance(7, seed=0), succ, 3),
        ("tournament_tc", tournament_instance(6, seed=3), transitivity, 4),
    ]
    for entry in (
        inclusion_chain(3),
        branching_tree(2),
        merge_ladder(2),
        datalog_grid(6),
    ):
        cases.append((entry.name, entry.instance, entry.rules, 4))
    for seed in (0, 1):
        cases.append(
            (
                f"random_{seed}",
                random_digraph_instance(5, 0.4, seed=seed),
                parse_rules(
                    "E(x,y) -> exists z. F(y,z)\nF(x,y), E(y,z) -> E(x,z)",
                    name="mixed",
                ),
                4,
            )
        )
        cases.append(
            (
                f"stratified_{seed}",
                parse_instance("L0P0(a,b), L0P1(b,c)"),
                random_nonrecursive_ruleset(seed=seed),
                5,
            )
        )
    return cases


WORKLOADS = _workloads()
IDS = [w[0] for w in WORKLOADS]


@pytest.mark.parametrize("name,instance,rules,levels", WORKLOADS, ids=IDS)
class TestEngineEquivalence:
    def test_oblivious(self, name, instance, rules, levels):
        delta = oblivious_chase(
            instance.copy(), rules, max_levels=levels, max_atoms=20_000
        )
        naive = oblivious_chase(
            instance.copy(),
            rules,
            max_levels=levels,
            max_atoms=20_000,
            engine="naive",
        )
        assert_bit_identical(delta, naive)

    def test_semi_oblivious(self, name, instance, rules, levels):
        delta = semi_oblivious_chase(
            instance.copy(), rules, max_levels=levels, max_atoms=20_000
        )
        naive = semi_oblivious_chase(
            instance.copy(),
            rules,
            max_levels=levels,
            max_atoms=20_000,
            engine="naive",
        )
        assert_bit_identical(delta, naive)

    def test_restricted(self, name, instance, rules, levels):
        delta = restricted_chase(
            instance.copy(), rules, max_rounds=levels, max_atoms=20_000
        )
        naive = restricted_chase(
            instance.copy(),
            rules,
            max_rounds=levels,
            max_atoms=20_000,
            engine="naive",
        )
        assert_bit_identical(delta, naive)


class TestRestrictedMidRound:
    def test_mid_round_satisfaction_checks_match(self):
        # The first trigger's output satisfies the second before it is
        # checked; both engines must observe the same mid-round growth.
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b), E(c,b)")
        delta = restricted_chase(inst.copy(), rules, max_rounds=4)
        naive = restricted_chase(
            inst.copy(), rules, max_rounds=4, engine="naive"
        )
        assert_bit_identical(delta, naive)
        # Both E(a,b) and E(c,b) share the successor-of-b obligation: one
        # trigger fires at round 1, the other is satisfied by its output
        # mid-round and never fires.
        round_one = [r for r in delta.records() if r.level == 1]
        assert len(round_one) == 1

    def test_partially_satisfied_instance(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b), E(b,c)")
        delta = restricted_chase(inst.copy(), rules, max_rounds=5)
        naive = restricted_chase(
            inst.copy(), rules, max_rounds=5, engine="naive"
        )
        assert_bit_identical(delta, naive)


class TestNewTriggersOf:
    def test_full_delta_equals_full_enumeration(self):
        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        inst = path_instance(5)
        full = set(triggers_of(inst, rules))
        incremental = set(new_triggers_of(inst, rules, inst))
        assert full == incremental

    def test_only_delta_touching_triggers(self):
        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d)")
        rev = inst.revision
        from repro.logic.atoms import atom
        from repro.logic.terms import Constant

        added = atom("E", "'d'", "'f'")  # parse_instance froze d as Constant
        inst.add(added)
        delta = inst.delta_since(rev)
        assert delta == [added]
        new = list(new_triggers_of(inst, rules, delta))
        # Only the (c,d),(d,f) join uses the new atom; the old joins
        # (a,b),(b,c) and (b,c),(c,d) must not be re-enumerated.
        assert len(new) == 1
        assert Constant("f") in new[0].image()

    def test_duplicate_pivots_deduplicated(self):
        # Both body atoms match delta atoms: the trigger is found via two
        # pivots but must be reported once.
        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        inst = parse_instance("E(a,b), E(b,c)")
        new = list(new_triggers_of(inst, rules, inst))
        assert len(new) == len(set(new)) == 1

    def test_matches_naive_reference(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        inst = tournament_instance(5, seed=2)
        fired: set = set()
        naive = naive_new_triggers_of(inst, rules, fired)
        incremental = list(new_triggers_of(inst, rules, inst))
        assert naive == incremental  # same triggers, same canonical order


class TestMatcherScalesWithDelta:
    def test_candidates_proportional_to_delta_not_instance(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )

        def candidates(engine, n):
            MATCHER_STATS.reset()
            oblivious_chase(
                path_instance(n),
                rules,
                max_levels=8,
                max_atoms=100_000,
                engine=engine,
            )
            return MATCHER_STATS.candidates

        delta_cand = candidates("delta", 40)
        naive_cand = candidates("naive", 40)
        # The naive engine re-matches the whole instance per level; the
        # delta engine touches work proportional to each level's delta.
        assert naive_cand >= 3 * delta_cand

    def test_instance_revision_and_delta(self):
        inst = Instance()
        base = inst.revision
        from repro.logic.atoms import atom

        a, b = atom("P", "x0"), atom("P", "x1")
        inst.add(a)
        inst.add(b)
        assert inst.revision == base + 2
        assert inst.delta_since(base) == [a, b]
        assert inst.delta_since(inst.revision) == []
        mid = base + 1
        assert inst.delta_since(mid) == [b]
