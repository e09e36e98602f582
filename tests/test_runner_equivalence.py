"""The unified-runner cross-product equivalence suite.

Every saturation entry point now runs through
:class:`repro.engine.runner.ChaseRunner`; this suite pins the runner's
hard invariant across the full cross-product — every chase variant ×
every registered engine (``naive``/``delta``/``parallel``/``persistent``)
× worker counts {1, 3} on the corpus generators — asserting *bit-identical*
:class:`~repro.chase.result.ChaseResult`s: atoms, provenance records,
null names, levels/rounds, termination flags, timestamps, and the exact
supply position after a mid-round ``max_atoms`` budget stop.

It also pins the **delta-driven restricted firing** path: rounds with
existential-free triggers enumerate pruned (inline or on the worker
replicas) and fire as split rounds — compared here against the
always-interleaved reference (``delta_satisfaction=False``, the
pre-runner behavior) for every engine and worker count.

Inline-engine internals stay in ``test_engine_parallel.py`` and the
worker-pool internals in ``test_engine_persistent.py``; this file is the
variant × engine matrix.
"""

from __future__ import annotations

import pytest

from repro.chase import (
    oblivious_chase,
    restricted_chase,
    semi_oblivious_chase,
)
from repro.chase.restricted import RestrictedPolicy
from repro.chase.semi_oblivious import SemiObliviousPolicy
from repro.corpus.generators import (
    path_instance,
    random_digraph_instance,
    tournament_instance,
)
from repro.engine import (
    ChaseRunner,
    EngineConfig,
    RoundPlan,
    VariantPolicy,
)
from repro.errors import ChaseBudgetExceeded
from repro.logic.terms import FreshSupply
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_rules


def assert_bit_identical(a, b):
    """Full ChaseResult equality: atoms, levels, provenance, timestamps."""
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()
    for term in a.instance.active_domain():
        assert a.timestamp(term) == b.timestamp(term)
    for at in a.instance:
        assert a.atom_level(at) == b.atom_level(at)


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

#: Corpus-generator workloads: a datalog saturation (exercises the
#: delta-driven restricted gate and split restricted firing), an
#: existential successor overlay (exercises null drawing and supply
#: positions), and a mixed ruleset (rounds alternate between gate modes).
WORKLOADS = [
    (
        "path_tc",
        lambda: path_instance(8),
        parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc"),
        5,
    ),
    (
        "tournament_succ",
        lambda: tournament_instance(6, seed=0),
        parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
            name="succ_overlay",
        ),
        3,
    ),
    (
        "random_mixed",
        lambda: random_digraph_instance(5, 0.4, seed=1),
        parse_rules(
            "E(x,y) -> exists z. F(y,z)\nF(x,y), E(y,z) -> E(x,z)",
            name="mixed",
        ),
        4,
    ),
]
WORKLOAD_IDS = [w[0] for w in WORKLOADS]

VARIANTS = [
    ("oblivious", lambda i, r, n, e, mx: oblivious_chase(
        i, r, max_levels=n, max_atoms=mx, engine=e)),
    ("semi_oblivious", lambda i, r, n, e, mx: semi_oblivious_chase(
        i, r, max_levels=n, max_atoms=mx, engine=e)),
    ("restricted", lambda i, r, n, e, mx: restricted_chase(
        i, r, max_rounds=n, max_atoms=mx, engine=e)),
]
VARIANT_IDS = [v[0] for v in VARIANTS]

#: The engine axis: sequential engines at their single configuration,
#: parallel/persistent at workers ∈ {1, 3} — inline at one worker, on
#: the worker pool at three — plus an even pool of two — all
#: bit-identical by construction.
ENGINES = [
    ("delta", "delta"),
    ("naive", "naive"),
    ("parallel_w1", EngineConfig("parallel", workers=1)),
    ("parallel_w3", EngineConfig("parallel", workers=3)),
    ("persistent_w1", EngineConfig("persistent", workers=1)),
    ("persistent_w3", EngineConfig("persistent", workers=3)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]
ENGINE_IDS = [e[0] for e in ENGINES]


@pytest.mark.parametrize(
    "wname,make,rules,steps", WORKLOADS, ids=WORKLOAD_IDS
)
@pytest.mark.parametrize("vname,run", VARIANTS, ids=VARIANT_IDS)
class TestRunnerCrossProduct:
    def test_every_engine_is_bit_identical(
        self, vname, run, wname, make, rules, steps
    ):
        reference = run(make(), rules, steps, "delta", 20_000)
        for ename, engine in ENGINES:
            result = run(make(), rules, steps, engine, 20_000)
            assert_bit_identical(result, reference)

    def test_budget_stop_positions_match(
        self, vname, run, wname, make, rules, steps
    ):
        # A tight atom budget stops every engine mid-round at the same
        # application, with the same partial result.
        reference = run(make(), rules, steps, "delta", 25)
        for ename, engine in ENGINES:
            result = run(make(), rules, steps, engine, 25)
            assert_bit_identical(result, reference)


class TestClosureCrossProduct:
    RULES = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

    def test_every_engine_agrees(self):
        reference = semi_naive_closure(
            path_instance(10), self.RULES, engine="delta"
        )
        for ename, engine in ENGINES:
            assert (
                semi_naive_closure(path_instance(10), self.RULES, engine=engine)
                == reference
            )

    def test_budget_raise_carries_partial(self):
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            semi_naive_closure(path_instance(30), self.RULES, max_atoms=60)
        assert len(excinfo.value.partial_result) > 60


# ----------------------------------------------------------------------
# Delta-driven restricted firing vs the interleaved reference
# ----------------------------------------------------------------------


class TestDeltaDrivenRestrictedFiring:
    TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")
    MIXED = parse_rules(
        "E(x,y) -> exists z. F(y,z)\nF(x,y), E(y,z) -> E(x,z)", name="mixed"
    )

    def _interleaved_reference(self, make, rules, max_atoms=20_000):
        return restricted_chase(
            make(), rules, max_rounds=8, max_atoms=max_atoms,
            delta_satisfaction=False,
        )

    @pytest.mark.parametrize("ename,engine", ENGINES, ids=ENGINE_IDS)
    def test_split_path_matches_interleaved_reference(self, ename, engine):
        make = lambda: path_instance(8)
        reference = self._interleaved_reference(make, self.TC)
        result = restricted_chase(
            make(), self.TC, max_rounds=8, engine=engine
        )
        assert_bit_identical(result, reference)

    def test_worker_counts_do_not_matter(self):
        make = lambda: tournament_instance(6, seed=2)
        reference = self._interleaved_reference(make, self.TC)
        for workers in (1, 2, 3, 4):
            for name in ("parallel", "persistent"):
                config = EngineConfig(name, workers=workers)
                result = restricted_chase(
                    make(), self.TC, max_rounds=8, engine=config
                )
                assert_bit_identical(result, reference)

    def test_budget_stop_matches_interleaved_reference(self):
        make = lambda: path_instance(20)
        reference = self._interleaved_reference(make, self.TC, max_atoms=60)
        assert not reference.terminated
        for ename, engine in ENGINES:
            result = restricted_chase(
                make(), self.TC, max_rounds=8, max_atoms=60, engine=engine
            )
            assert_bit_identical(result, reference)

    def test_mixed_rounds_choose_per_round_and_agree(self):
        # A ruleset whose rounds alternate between all-existential
        # (interleaved) and split plans; the plan choice is per round and
        # the results still match the reference exactly.
        plans = self._spy_plans(
            lambda: restricted_chase(
                tournament_instance(5, seed=1), self.MIXED, max_rounds=8
            )
        )[1]
        reference = self._interleaved_reference(
            lambda: tournament_instance(5, seed=1), self.MIXED
        )
        result = restricted_chase(
            tournament_instance(5, seed=1), self.MIXED, max_rounds=8
        )
        assert_bit_identical(result, reference)
        # Round 1 (existential triggers only) interleaves; later rounds
        # never produce an existential-free trigger in this ruleset
        # (rule 2's join variable is always a fresh null), so no split
        # plan appears.
        assert plans and plans[0].interleaved and not any(
            p.split for p in plans
        )

    #: A workload with *genuinely mixed* rounds: every round's delta is a
    #: set of E atoms, which pivots both the existential successor rule
    #: and the existential-free overlay rule at once.
    GENUINELY_MIXED = parse_rules(
        "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
        name="succ_overlay",
    )

    @staticmethod
    def _spy_plans(run):
        plans: list[RoundPlan] = []
        original = RestrictedPolicy.plan_round

        def spying_plan(self, result, triggers):
            plan = original(self, result, triggers)
            if triggers:
                plans.append(plan)
            return plan

        RestrictedPolicy.plan_round = spying_plan
        try:
            result = run()
        finally:
            RestrictedPolicy.plan_round = original
        return result, plans

    @pytest.mark.parametrize("ename,engine", ENGINES, ids=ENGINE_IDS)
    def test_genuinely_mixed_rounds_split_and_agree(self, ename, engine):
        # Mixed rounds (existential + existential-free triggers) run the
        # split plan — pruned enumeration (on the worker replicas, on the
        # persistent backends) + interleaved existential remainder — and
        # stay bit-identical to the fully interleaved reference on every
        # engine.
        make = lambda: tournament_instance(6, seed=0)
        reference = self._interleaved_reference(make, self.GENUINELY_MIXED)
        result, plans = self._spy_plans(
            lambda: restricted_chase(
                make(), self.GENUINELY_MIXED, max_rounds=8, engine=engine
            )
        )
        assert_bit_identical(result, reference)
        # Every non-empty round of this workload is mixed, hence split.
        assert plans and all(
            p.split and not p.interleaved for p in plans
        )

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig("persistent", workers=2),
            EngineConfig("persistent", workers=3),
            EngineConfig("persistent", workers=4),
            EngineConfig("persistent", workers=5),
        ],
        ids=["w2", "w3", "w4", "w5"],
    )
    def test_mixed_budget_stop_matches_reference(self, config):
        # A tight budget stops a *mixed* round mid-way (after real null
        # draws: the path's tail successor trigger is unsatisfied every
        # round): the split path must stop at the same application, with
        # the same supply position, for every worker count.
        make = lambda: path_instance(8)
        reference_supply = FreshSupply("_r")
        pool_supply = FreshSupply("_r")
        reference = restricted_chase(
            make(), self.GENUINELY_MIXED, max_rounds=6, max_atoms=20,
            supply=reference_supply, delta_satisfaction=False,
        )
        assert not reference.terminated
        assert reference_supply.position > 0
        result = restricted_chase(
            make(), self.GENUINELY_MIXED, max_rounds=6, max_atoms=20,
            supply=pool_supply, engine=config,
        )
        assert_bit_identical(result, reference)
        assert pool_supply.position == reference_supply.position

    def test_existential_rounds_stay_interleaved(self):
        succ = parse_rules("E(x,y) -> exists z. E(y,z)", name="succ")
        plans: list[bool] = []
        original = RestrictedPolicy.plan_round

        def spying_plan(self, result, triggers):
            plan = original(self, result, triggers)
            plans.append(plan.interleaved)
            return plan

        RestrictedPolicy.plan_round = spying_plan
        try:
            result = restricted_chase(
                path_instance(4), succ, max_rounds=4
            )
        finally:
            RestrictedPolicy.plan_round = original
        # The successor rule keeps spawning an unsatisfied tail trigger,
        # so the chase never terminates — every round must interleave.
        assert not result.terminated
        assert plans and all(plans)

    def test_supply_position_parity_on_pool_budget_stop(self):
        # Existential-free rounds draw no nulls either way; the supply
        # position after a budget stop in a round enumerated on the pool
        # must equal the reference's.
        make = lambda: path_instance(20)
        reference_supply = FreshSupply("_r")
        pool_supply = FreshSupply("_r")
        reference = restricted_chase(
            make(), self.TC, max_rounds=8, max_atoms=60,
            supply=reference_supply, delta_satisfaction=False,
        )
        result = restricted_chase(
            make(), self.TC, max_rounds=8, max_atoms=60,
            supply=pool_supply,
            engine=EngineConfig("persistent", workers=3),
        )
        assert_bit_identical(result, reference)
        assert pool_supply.position == reference_supply.position


# ----------------------------------------------------------------------
# Strict-mode semantics through the runner
# ----------------------------------------------------------------------


class TestRunnerStrictSemantics:
    SUCC = parse_rules("E(x,y) -> exists z. E(y,z)", name="succ")

    def test_atom_budget_messages_are_variant_specific(self):
        make = lambda: tournament_instance(6, seed=0)
        cases = [
            (lambda: oblivious_chase(
                make(), self.SUCC, max_levels=5, max_atoms=40, strict=True),
             "chase exceeded 40 atoms at level"),
            (lambda: semi_oblivious_chase(
                make(), self.SUCC, max_levels=5, max_atoms=20, strict=True),
             "semi-oblivious chase exceeded 20 atoms"),
            (lambda: restricted_chase(
                path_instance(20),
                parse_rules("E(x,y), E(y,z) -> E(x,z)"),
                max_rounds=8, max_atoms=60, strict=True),
             "restricted chase exceeded 60 atoms"),
        ]
        for run, needle in cases:
            with pytest.raises(ChaseBudgetExceeded, match=needle) as excinfo:
                run()
            assert excinfo.value.partial_result is not None

    def test_step_budget_messages_are_variant_specific(self):
        make = lambda: path_instance(3)
        cases = [
            (lambda: oblivious_chase(
                make(), self.SUCC, max_levels=2, strict=True),
             "did not terminate within 2 levels"),
            (lambda: semi_oblivious_chase(
                make(), self.SUCC, max_levels=2, strict=True),
             "semi-oblivious chase did not terminate within 2 levels"),
            (lambda: restricted_chase(
                make(), self.SUCC, max_rounds=2, strict=True),
             "restricted chase did not terminate within 2 rounds"),
        ]
        for run, needle in cases:
            with pytest.raises(ChaseBudgetExceeded, match=needle):
                run()

    def test_fixpoint_probe_still_terminates_at_exact_budget(self):
        # The oblivious chase that finishes in exactly max_levels must be
        # flagged terminated by the post-budget probe, on every engine.
        tc = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        reference = oblivious_chase(path_instance(4), tc, max_levels=3)
        assert reference.terminated
        for ename, engine in ENGINES:
            result = oblivious_chase(
                path_instance(4), tc, max_levels=3, engine=engine
            )
            assert result.terminated
            assert_bit_identical(result, reference)


# ----------------------------------------------------------------------
# Stateful claims on a mid-round budget stop: the lazy/exactly-once
# contract on rounds enumerated inline and on the pool
# ----------------------------------------------------------------------


class RecordingSemiOblivious(SemiObliviousPolicy):
    """A semi-oblivious policy that journals its claim-call sequence."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple] = []

    def _claim(self, trigger):
        decision = SemiObliviousPolicy._claim(self, trigger)
        self.calls.append((trigger.rule, trigger.image(), decision))
        return decision


class TestStatefulClaimBudgetStopMatrix:
    """Every backend must claim lazily, exactly once, in order.

    The batched stream stops claiming at a mid-round budget hit
    (``engine/batch.py``: "no further trigger is claimed").  Rounds the
    pool enumerates fire through the same stream in the parent; this
    matrix pins the *claim-call sequence*, the post-stop claim state
    (the fired frontier classes) and the supply position of every
    pool configuration — strict and partial — against the sequential lazy
    reference.
    """

    RULES = parse_rules(
        "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
        name="succ_overlay",
    )
    MAX_ATOMS = 40

    ENGINES = [
        ("delta", "delta"),
        ("persistent_w1", EngineConfig("persistent", workers=1)),
        ("persistent_w3", EngineConfig("persistent", workers=3)),
        ("persistent_w2", EngineConfig("persistent", workers=2)),
    ]

    def _run(self, engine, *, strict, max_atoms=MAX_ATOMS):
        policy = RecordingSemiOblivious()
        supply = FreshSupply("_so")
        runner = ChaseRunner(
            policy,
            engine,
            max_steps=5,
            max_atoms=max_atoms,
            strict=strict,
            supply=supply,
        )
        instance = tournament_instance(6, seed=0)
        if strict:
            with pytest.raises(ChaseBudgetExceeded) as excinfo:
                runner.run(instance, self.RULES)
            result = excinfo.value.partial_result
        else:
            result = runner.run(instance, self.RULES)
        return result, policy, supply

    @pytest.mark.parametrize("strict", [False, True], ids=["partial", "strict"])
    def test_claim_sequence_state_and_supply_parity(self, strict):
        reference, ref_policy, ref_supply = self._run("delta", strict=strict)
        assert not reference.terminated
        for ename, engine in self.ENGINES:
            result, policy, supply = self._run(engine, strict=strict)
            assert_bit_identical(result, reference)
            # Identical claim-call sequence: same triggers, same order,
            # same decisions — and nothing claimed past the budget stop.
            assert policy.calls == ref_policy.calls, ename
            # Identical post-stop claim state.
            assert policy._fired_keys == ref_policy._fired_keys, ename
            # Identical supply position (no speculative draws survive).
            assert supply.position == ref_supply.position, ename

    @pytest.mark.parametrize("strict", [False, True], ids=["partial", "strict"])
    def test_mid_round_stop_claims_nothing_past_the_stop(self, strict):
        # At 30 atoms the budget stops the first round part-way through
        # its triggers.  Every engine fires through the same lazy stream:
        # each claimed trigger is recorded, no trigger after the one that
        # hit the budget is claimed, and every null drawn is in the
        # partial result.
        from repro.logic.terms import Null

        for ename, engine in self.ENGINES:
            result, policy, supply = self._run(
                engine, strict=strict, max_atoms=30
            )
            assert result.levels_completed == 0, ename
            claimed = [call for call in policy.calls if call[2]]
            assert len(claimed) == len(result.records()), ename
            assert policy.calls[-1][2], ename
            nulls = [
                term
                for term in result.instance.active_domain()
                if isinstance(term, Null)
            ]
            assert supply.position == len(nulls), ename


# ----------------------------------------------------------------------
# Parked ground outputs are reused, not re-instantiated
# ----------------------------------------------------------------------


class TestParkedGroundOutputReuse:
    TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

    @pytest.mark.parametrize(
        "engine",
        ["delta", EngineConfig("persistent", workers=2)],
        ids=["delta", "persistent_w2"],
    )
    def test_parked_outputs_are_not_reinstantiated(self, engine):
        # A claim gate that instantiates and parks every ground head:
        # firing must reuse the parked atoms instead of instantiating a
        # second time, whichever backend enumerated the round.
        from repro.chase.oblivious import ObliviousPolicy

        class ParkingPolicy(ObliviousPolicy):
            def plan_round(self, result, triggers):
                def claim(trigger):
                    trigger._ground_output = (
                        trigger.rule.instantiate_head(trigger.mapping)
                    )
                    return True

                return RoundPlan(claim=claim, interleaved=False)

        reference = oblivious_chase(
            path_instance(6), self.TC, max_levels=4
        )
        runner = ChaseRunner(
            ParkingPolicy(), engine, max_steps=4, max_atoms=20_000
        )
        result = runner.run(path_instance(6), self.TC)
        assert_bit_identical(result, reference)
        # One instantiation per claimed trigger — the claim's own.
        heads = result.telemetry["registry"]["instantiation"]["heads"]
        assert heads == len(result.records())


# ----------------------------------------------------------------------
# The policy surface itself
# ----------------------------------------------------------------------


class TestVariantPolicySurface:
    def test_default_policy_hooks(self):
        policy = VariantPolicy()
        assert policy.plan_round(None, []) == RoundPlan(None, False)
        assert policy.filter_new(iter([])) == []
        with pytest.raises(NotImplementedError):
            policy.naive_new_triggers(None, None)
        with pytest.raises(NotImplementedError):
            policy.naive_has_remaining(None, None)
        assert "levels" in policy.step_budget_message(4)

    def test_runner_rejects_unknown_engines(self):
        from repro.errors import ChaseError

        with pytest.raises(ChaseError, match="valid engines"):
            ChaseRunner(
                VariantPolicy(), "bogus", max_steps=1, max_atoms=1
            )

    def test_runner_serves_exactly_one_run(self):
        # The revision watermark and policy state are per-run; reuse must
        # raise instead of silently enumerating a wrong delta.
        from repro.chase.oblivious import ObliviousPolicy
        from repro.errors import ChaseError

        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        runner = ChaseRunner(ObliviousPolicy(), max_steps=2, max_atoms=1000)
        runner.run(path_instance(3), rules)
        with pytest.raises(ChaseError, match="exactly one run"):
            runner.run(path_instance(3), rules)

    def test_custom_policy_runs_through_the_runner(self):
        # A third-party variant: an oblivious chase that refuses to fire
        # triggers of one predicate — exercises the claim gate hook.
        from repro.chase.oblivious import ObliviousPolicy

        class NoFPolicy(ObliviousPolicy):
            def plan_round(self, result, triggers):
                return RoundPlan(
                    claim=lambda t: all(
                        a.predicate.name != "F"
                        for a in t.rule.head
                    ),
                    interleaved=False,
                )

        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)\nE(x,y) -> G(y,x)")
        runner = ChaseRunner(NoFPolicy(), max_steps=3, max_atoms=1000)
        result = runner.run(path_instance(4), rules)
        produced = {a.predicate.name for a in result.instance}
        assert "G" in produced and "F" not in produced
