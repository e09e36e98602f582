"""Differential answer matrix for the serving front door.

Every strategy of :func:`repro.serving.answer` must tell the same story
as the naive reference — a full-saturation oblivious chase followed by a
single entailment probe (the pre-serving ``certain_answer`` recipe) —
on the bdd corpus, across engines and worker counts, including
budget-stopped runs where only a ``sound`` verdict is available.
"""

from __future__ import annotations

import pytest

from repro.chase.oblivious import oblivious_chase
from repro.corpus.examples import bdd_corpus, full_corpus
from repro.engine.config import EngineConfig
from repro.errors import ChaseError
from repro.logic.instances import Instance
from repro.logic.terms import Constant
from repro.queries.entailment import entails_cq
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.serving import (
    SERVING_STATS,
    answer,
    goal_predicates,
    relevant_closure,
    relevant_rules,
)

REF_LEVELS = 4

#: (corpus entry name, query text, ground-truth certain answer).  Every
#: True case is witnessed within REF_LEVELS chase rounds, so the naive
#: reference at that depth is conclusive and all strategies must agree.
CASES = [
    ("example1_bdd", "E(u,v), E(v,u)", True),
    ("example1_bdd", "Z(u)", False),
    ("tournament_builder", "E(x,y)", True),
    ("tournament_builder", "Z(u)", False),
    ("infinite_path", "E(x1,x2), E(x2,x3), E(x3,x4)", True),
    ("infinite_path", "E(x,x)", False),
    ("two_relation_linear", "P(x,y), Q(y,z)", True),
    ("two_relation_linear", "Q(x,x)", False),
    ("dense_overlay", "F(x,y), F(y,z)", True),
    ("dense_overlay", "F(x,x)", False),
    ("wide_signature", "E(x,y), E(y,z)", True),
    ("wide_signature", "E(x,x)", False),
    ("datalog_chain_3", "P3(x,y)", True),
    ("datalog_chain_3", "P3(x,x)", False),
    ("sticky_pair", "T(y), R(y,w)", True),
    ("sticky_pair", "S(x,x)", False),
    ("bowtie_merge", "D(x,z), E(y,z)", True),
    ("bowtie_merge", "D(x,x)", False),
    ("guarded_triangle", "E(c,w)", True),
    ("guarded_triangle", "E(x,y), E(y,z)", False),
    ("backward_growth", "E(u,v), E(v,w)", True),
    ("backward_growth", "E(x,x)", False),
]

#: Modest rewriting budgets keep non-FUS entries (the composition rule
#: of example1_bdd diverges under piece-rewriting) fast; a budget stop
#: there downgrades the verdict to "sound", which the assertions allow.
REWRITE_BUDGETS = dict(max_rewrite_depth=6, max_disjuncts=256, max_cq_size=12)

ENTRIES = {entry.name: entry for entry in full_corpus()}

ENGINES = [
    ("delta", "delta"),
    ("naive", "naive"),
    ("parallel_w1", EngineConfig("parallel", workers=1)),
    ("parallel_w3", EngineConfig("parallel", workers=3)),
    ("persistent_w1", EngineConfig("persistent", workers=1)),
    ("persistent_w3", EngineConfig("persistent", workers=3)),
]


def naive_reference(entry, query, bindings=(), max_levels=REF_LEVELS):
    """The pre-serving recipe: saturate to depth, then probe once."""
    chased = oblivious_chase(
        entry.instance, entry.rules, max_levels=max_levels
    )
    return entails_cq(chased.instance, query, bindings), chased


class TestDifferentialMatrix:
    """All strategies vs the naive reference, bdd corpus, delta engine."""

    @pytest.mark.parametrize(
        "name,text,expected",
        CASES,
        ids=[f"{name}-{text.replace(' ', '')}" for name, text, _ in CASES],
    )
    @pytest.mark.parametrize("strategy", ["chase", "rewrite", "hybrid", "auto"])
    def test_agrees_with_naive_reference(self, name, text, expected, strategy):
        entry = ENTRIES[name]
        query = parse_query(text)
        ref, _ = naive_reference(entry, query)
        assert ref == expected, "reference must be conclusive at REF_LEVELS"

        result = answer(
            entry.instance,
            entry.rules,
            query,
            strategy=strategy,
            max_levels=REF_LEVELS,
            **REWRITE_BUDGETS,
        )
        # A positive is always certain, whatever the strategy.
        if result.entailed:
            assert expected
            assert result.verdict == "exact"
        # An exact verdict is conclusive — it must equal the ground truth.
        if result.verdict == "exact":
            assert result.entailed == expected
        # No strategy may miss a witness the depth-equal reference found:
        # only a budget stop excuses a False on an entailed query.
        if ref and not result.entailed:
            assert result.verdict == "sound"
        # The goal-directed chase is depth-equal to the reference.
        if strategy == "chase":
            assert result.entailed == ref
        assert result.strategy in ("chase", "rewrite", "hybrid")
        assert result.provenance["requested"] == strategy
        assert result.telemetry["registry"]["serving"]["requests"] == 1

    def test_every_bdd_entry_is_covered(self):
        assert {name for name, _, _ in CASES} == {
            entry.name for entry in bdd_corpus()
        }


class TestEngineWorkerMatrix:
    """Strategy verdicts are engine- and worker-count-independent."""

    SUBSET = [
        ("infinite_path", "E(x1,x2), E(x2,x3), E(x3,x4)"),
        ("two_relation_linear", "Q(x,x)"),
    ]

    @pytest.mark.parametrize("name,text", SUBSET, ids=[n for n, _ in SUBSET])
    @pytest.mark.parametrize("strategy", ["chase", "hybrid"])
    @pytest.mark.parametrize(
        "engine", [e for _, e in ENGINES], ids=[label for label, _ in ENGINES]
    )
    def test_engine_invariant(self, name, text, strategy, engine):
        entry = ENTRIES[name]
        query = parse_query(text)
        baseline = answer(
            entry.instance,
            entry.rules,
            query,
            strategy=strategy,
            max_levels=REF_LEVELS,
            **REWRITE_BUDGETS,
        )
        result = answer(
            entry.instance,
            entry.rules,
            query,
            strategy=strategy,
            engine=engine,
            max_levels=REF_LEVELS,
            **REWRITE_BUDGETS,
        )
        assert result.entailed == baseline.entailed
        assert result.verdict == baseline.verdict
        assert result.evidence["kind"] == baseline.evidence["kind"]
        config = engine if isinstance(engine, EngineConfig) else None
        if config is not None:
            assert result.provenance["engine"] == config.name
            assert result.provenance["workers"] == config.workers


class TestBudgetStops:
    """Budget-stopped runs report partial ("sound") verdicts."""

    SIX_CHAIN = parse_query(
        "E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7)"
    )

    def test_chase_budget_is_sound_not_exact(self):
        entry = ENTRIES["infinite_path"]
        tight = answer(
            entry.instance,
            entry.rules,
            self.SIX_CHAIN,
            strategy="chase",
            max_levels=2,
        )
        assert not tight.entailed
        assert tight.verdict == "sound"
        assert tight.evidence["kind"] == "chase_budget"
        ref, _ = naive_reference(entry, self.SIX_CHAIN, max_levels=2)
        assert ref == tight.entailed

        ample = answer(
            entry.instance,
            entry.rules,
            self.SIX_CHAIN,
            strategy="chase",
            max_levels=8,
        )
        assert ample.entailed
        assert ample.verdict == "exact"
        assert ample.evidence["kind"] == "chase_witness"

    @pytest.mark.parametrize("max_atoms", range(3, 8))
    def test_atom_budget_stop_probes_the_partial_round(self, max_atoms):
        # Round 1 fires E(a,b) -> Q(b) first.  An atom budget stops it
        # mid-round, before the post-round probe; the partial round's
        # atoms still witness the query, one level above the last
        # completed round.
        result = answer(
            parse_instance("E(a,b), E(c,d), E(e,f)"),
            parse_rules("E(x,y) -> Q(y)"),
            parse_query("Q(b)"),
            strategy="chase",
            max_atoms=max_atoms,
        )
        assert entails_cq(result.chase.instance, parse_query("Q(b)"))
        assert result.entailed
        assert result.verdict == "exact"
        assert result.evidence["kind"] == "chase_witness"
        assert result.evidence["level"] == 1
        stopped_mid_round = not result.chase.stopped_on_goal
        assert stopped_mid_round == (max_atoms < 7)
        assert result.chase.levels_completed == (0 if stopped_mid_round else 1)

    @pytest.mark.parametrize("value,entailed", [("b", True), ("f", False)])
    def test_atom_budget_stop_probes_with_the_seed(self, value, entailed):
        # Q(f) is derived last in round 1, after the budget stop.
        result = answer(
            parse_instance("E(a,b), E(c,d), E(e,f)"),
            parse_rules("E(x,y) -> Q(y)"),
            parse_query("Q(y)", answers=("y",)),
            (Constant(value),),
            strategy="chase",
            max_atoms=5,
        )
        assert result.entailed == entailed
        if entailed:
            assert result.verdict == "exact"
            assert result.evidence["kind"] == "chase_witness"
        else:
            assert result.verdict == "sound"
            assert result.evidence == {
                "kind": "chase_budget", "level": 0, "atoms": 6,
            }

    def test_hybrid_rewriting_beats_the_chase_budget(self):
        # The complete rewriting folds the six-chain down to the base
        # edge, answering exactly where the chase budget gave up.
        entry = ENTRIES["infinite_path"]
        result = answer(
            entry.instance,
            entry.rules,
            self.SIX_CHAIN,
            strategy="hybrid",
            max_levels=2,
        )
        assert result.entailed
        assert result.verdict == "exact"
        assert result.evidence["kind"] == "rewriting_witness"
        assert result.strategy == "hybrid"

    def test_rewrite_budget_is_sound_then_exact(self):
        entry = ENTRIES["datalog_chain_3"]
        query = parse_query("P3(x,y)")
        tight = answer(
            entry.instance,
            entry.rules,
            query,
            strategy="rewrite",
            max_rewrite_depth=1,
        )
        assert not tight.entailed
        assert tight.verdict == "sound"
        assert tight.evidence["kind"] == "rewriting_budget"

        ample = answer(
            entry.instance, entry.rules, query, strategy="rewrite"
        )
        assert ample.entailed
        assert ample.verdict == "exact"
        assert ample.evidence["kind"] == "rewriting_witness"

    @pytest.mark.parametrize("strategy", ["rewrite", "auto", "chase"])
    def test_size_drop_gives_no_exact_negative(self, strategy):
        # With max_cq_size=3 the transitivity rewriting drops its 4-atom
        # candidates; the 4-hop witness c0 -> c4 needs one of them, so
        # the rewriting is incomplete: "rewrite" may only say "sound",
        # and "auto" must fall through to the goal-directed chase.
        instance = parse_instance("E(c0,c1), E(c1,c2), E(c2,c3), E(c3,c4)")
        result = answer(
            instance,
            parse_rules("E(x,y), E(y,z) -> E(x,z)"),
            parse_query("E(x,y)", answers=("x", "y")),
            (Constant("c0"), Constant("c4")),
            strategy=strategy,
            max_cq_size=3,
        )
        if strategy == "rewrite":
            assert not result.entailed
            assert result.verdict == "sound"
            assert result.evidence["kind"] == "rewriting_budget"
            assert not result.rewriting.complete
        else:
            assert result.entailed
            assert result.verdict == "exact"
            assert result.evidence["kind"] == "chase_witness"
            assert result.strategy == ("hybrid" if strategy == "auto" else "chase")


class TestWatermarkOnTheChaseCopy:
    """``check_full`` anchors the goal probe on the caller's instance,
    and the chase runs on a copy of it.  A revision counts the atoms
    added, so the watermark marks the copy's base too, whatever repeats
    the caller's instance was built with."""

    RULES = parse_rules("E(x,y), E(y,z) -> E(x,z)")
    QUERY = parse_query("E(x,y)", answers=("x", "y"))

    def _instance(self):
        # Repeated atoms in the constructor and in two updates.
        instance = parse_instance(
            "E(a,b), E(b,c), E(a,b), E(b,c), E(c,d)"
        )
        more = parse_instance("E(c,d), E(d,e), E(a,b)").sorted_atoms()
        assert instance.update(more + more) == 1
        assert instance.update(more) == 0
        assert instance.revision == len(instance) == 5
        return instance

    @pytest.mark.parametrize(
        "pair,kind,level",
        [
            (("a", "b"), "instance_witness", 0),
            (("a", "c"), "chase_witness", 1),
            (("b", "d"), "chase_witness", 1),
            (("a", "e"), "chase_witness", 2),
        ],
    )
    def test_witness_level(self, pair, kind, level):
        result = answer(
            self._instance(),
            self.RULES,
            self.QUERY,
            tuple(Constant(name) for name in pair),
            strategy="chase",
        )
        assert result.entailed
        assert result.verdict == "exact"
        assert result.evidence["kind"] == kind
        assert result.evidence["level"] == level


class TestGoalDirectedSavings:
    """The acceptance pin: same verdict, measurably fewer atoms."""

    @staticmethod
    def workload():
        edges = ", ".join(f"E(c{i},c{i + 1})" for i in range(60))
        side = ", ".join(f"S(d{i},d{i + 1})" for i in range(10))
        instance = parse_instance(f"{edges}, {side}")
        rules = parse_rules(
            """
            E(x,y), E(y,z) -> E(x,z)
            S(x,y) -> exists z. S(y,z)
            """,
            name="tc_with_noise",
        )
        return instance, rules

    def test_same_verdict_fewer_atoms_than_saturation(self):
        instance, rules = self.workload()
        query = parse_query("E(x,y)", answers=["x", "y"])
        bindings = (Constant("c0"), Constant("c5"))

        goal = answer(
            instance, rules, query, bindings, strategy="chase", max_levels=4
        )
        assert goal.entailed
        assert goal.verdict == "exact"
        assert goal.evidence["kind"] == "chase_witness"

        saturated = oblivious_chase(instance, rules, max_levels=4)
        assert entails_cq(saturated.instance, query, bindings)
        assert goal.evidence["atoms"] < len(saturated.instance)

        serving = goal.telemetry["registry"]["serving"]
        assert serving["goal_stops"] == 1
        assert serving["delta_probes"] > 0
        # The S-successor rule cannot reach the goal predicate.
        assert serving["rules_pruned"] == 1
        assert goal.provenance["rules_used"] == 1
        assert goal.provenance["rules_total"] == 2


class TestEnumerationMode:
    """No bindings + answer variables: certain tuples, Boolean reading."""

    RULES = parse_rules(
        """
        P(x) -> exists z. R(x,z)
        R(x,y) -> S(x)
        """,
        name="enum_rules",
    )
    INSTANCE = parse_instance("P(a)")

    @pytest.mark.parametrize("strategy", ["chase", "rewrite", "auto"])
    def test_constant_tuples_agree(self, strategy):
        query = parse_query("S(x)", answers=["x"])
        result = answer(self.INSTANCE, self.RULES, query, strategy=strategy)
        assert result.tuples == {(Constant("a"),)}
        assert result.entailed
        assert result.verdict == "exact"

    @pytest.mark.parametrize("strategy", ["chase", "rewrite", "auto"])
    def test_null_only_witness_entails_but_yields_no_tuple(self, strategy):
        # The chase satisfies ∃x,y R(x,y) only via a null, so the Boolean
        # reading holds while the certain answer set stays empty — on
        # every strategy (the rewrite path rewrites the Boolean reading
        # separately; R's second position cannot absorb the existential
        # as an answer variable, but can as a free one).
        query = parse_query("R(x,y)", answers=["x", "y"])
        result = answer(self.INSTANCE, self.RULES, query, strategy=strategy)
        assert result.tuples == set()
        assert result.entailed
        assert result.verdict == "exact"


class TestUniformSurface:
    """Request validation and relevance pruning."""

    def test_unknown_strategy_is_rejected(self):
        entry = ENTRIES["infinite_path"]
        with pytest.raises(ValueError, match="unknown strategy"):
            answer(
                entry.instance,
                entry.rules,
                parse_query("E(x,y)"),
                strategy="magic",
            )

    def test_sequential_engine_rejects_workers(self):
        # A worker count the engine would never use must not reach the
        # provenance record: the configuration rejects the pair.
        entry = ENTRIES["infinite_path"]
        with pytest.raises(ChaseError, match="runs sequentially"):
            answer(
                entry.instance,
                entry.rules,
                parse_query("E(x,y)"),
                engine="delta",
                workers=3,
            )

    def test_binding_arity_mismatch_is_rejected(self):
        entry = ENTRIES["infinite_path"]
        query = parse_query("E(x,y)", answers=["x"])
        with pytest.raises(ValueError, match="binding"):
            answer(
                entry.instance,
                entry.rules,
                query,
                (Constant("a"), Constant("b")),
                strategy="chase",
            )

    def test_inconsistent_binding_is_exact_false(self):
        entry = ENTRIES["infinite_path"]
        query = parse_query("E(x,x)", answers=["x", "x"])
        result = answer(
            entry.instance,
            entry.rules,
            query,
            (Constant("a"), Constant("b")),
            strategy="chase",
        )
        assert not result.entailed
        assert result.verdict == "exact"
        assert result.evidence["kind"] == "inconsistent_binding"

    def test_relevance_closure_and_pruning(self):
        rules = parse_rules(
            """
            A(x) -> B(x)
            B(x) -> C(x)
            S(x,y) -> exists z. S(y,z)
            """,
            name="layers",
        )
        query = parse_query("C(x)")
        preds = goal_predicates([query])
        closure = relevant_closure(rules, preds)
        assert {p.name for p in closure} == {"A", "B", "C"}
        pruned = relevant_rules(rules, preds)
        assert len(pruned) == 2
        assert all(
            atom.predicate.name != "S"
            for rule in pruned
            for atom in rule.head
        )

    def test_empty_instance_terminates_exactly(self):
        entry = ENTRIES["tournament_builder"]
        assert isinstance(entry.instance, Instance)
        # Pruning for the unknown predicate drops every rule, so the
        # chase on the empty instance reaches its fixpoint immediately.
        result = answer(
            entry.instance, entry.rules, parse_query("Z(u)"), strategy="chase"
        )
        assert not result.entailed
        assert result.verdict == "exact"
        assert result.evidence["kind"] == "chase_fixpoint"

    def test_serving_counters_reset_between_requests(self):
        entry = ENTRIES["infinite_path"]
        answer(entry.instance, entry.rules, parse_query("E(x,y)"))
        snapshot = SERVING_STATS.snapshot()
        assert snapshot["requests"] >= 1
        SERVING_STATS.reset()
        assert SERVING_STATS.snapshot()["requests"] == 0
