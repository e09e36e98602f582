"""The unified-runner cross-product equivalence suite.

Every saturation entry point now runs through
:class:`repro.engine.runner.ChaseRunner`; this suite pins the runner's
hard invariant across the full cross-product — every chase variant ×
every registered engine (``naive``/``delta``/``parallel``/``persistent``)
× worker counts {1, 3} on the corpus generators — asserting *bit-identical*
:class:`~repro.chase.result.ChaseResult`s: atoms, provenance records,
null names, levels/rounds, termination flags, timestamps, and the exact
supply position after a mid-round ``max_atoms`` budget stop.

It also pins the **pruned restricted chase**: rounds with
existential-free triggers enumerate pruned (inline or on the worker
replicas) — compared here against the unpruned ``naive`` reference for
every engine and worker count.

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
from repro.chase.oblivious import ObliviousPolicy
from repro.chase.restricted import RestrictedPolicy
from repro.chase.semi_oblivious import SemiObliviousPolicy
from repro.chase.trigger import (
    Trigger,
    new_triggers_of,
    restricted_new_triggers_of,
)
from repro.corpus import example_1
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    growing_tournament_ruleset,
    path_instance,
    random_chase_ruleset,
    random_digraph_instance,
    random_instance,
    tournament_instance,
)
from repro.engine import ChaseRunner, EngineConfig, VariantPolicy
from repro.errors import ChaseBudgetExceeded
from repro.logic.instances import Instance
from repro.logic.terms import FreshSupply, Null
from repro.obs import RunTrace
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_instance, parse_rules


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
#: restricted chase's pruned enumeration and parked heads), an
#: existential successor overlay (exercises null drawing and supply
#: positions), and a mixed ruleset (rounds alternate between existential
#: and existential-free triggers).
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


#: The heavy rows of Theorem 1's Property (p) check: the growing
#: tournaments, whose merge rules fire most of its triggers, and
#: Example 1.
PAPER_ROWS = [
    (f"growing_tournament_{merge_rules}", Instance,
     growing_tournament_ruleset(merge_rules), 5)
    for merge_rules in (1, 2, 3)
] + [("example_1", lambda: example_1().instance, example_1().rules, 6)]
PAPER_ROW_IDS = [row[0] for row in PAPER_ROWS]

PAPER_ENGINES = [
    ("naive", "naive"),
    ("delta", "delta"),
    ("parallel_w1", EngineConfig("parallel", workers=1)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]


@pytest.mark.parametrize(
    "wname,make,rules,steps", PAPER_ROWS, ids=PAPER_ROW_IDS
)
@pytest.mark.parametrize("vname,run", VARIANTS, ids=VARIANT_IDS)
def test_paper_rows_are_bit_identical(vname, run, wname, make, rules, steps):
    reference = run(make(), rules, steps, "naive", 100_000)
    assert reference.records()
    for ename, engine in PAPER_ENGINES[1:]:
        result = run(make(), rules, steps, engine, 100_000)
        assert_bit_identical(result, reference)


POLICIES = {
    "oblivious": ObliviousPolicy,
    "semi_oblivious": SemiObliviousPolicy,
    "restricted": RestrictedPolicy,
}


def _traced_run(vname, engine, instance, rules, steps, max_atoms):
    """One traced run of ``vname`` and its supply position after it."""
    trace = RunTrace()
    supply = FreshSupply("_g")
    result = ChaseRunner(
        POLICIES[vname](),
        engine,
        max_steps=steps,
        max_atoms=max_atoms,
        supply=supply,
        trace=trace,
    ).run(instance, rules)
    return result, trace, supply.position


def assert_records_are_creating(result):
    """Every record adds an atom at its level, and every atom above level
    0 is added by exactly one record; every chase null has its creator.

    A record adds the atoms of its output that lie neither in ``Ch_0``
    nor in an earlier record's output.
    """
    present = {a for a in result.instance if result.atom_level(a) == 0}
    added = []
    for record in result.records():
        new = record.output_atoms - present
        assert new, record
        assert {result.atom_level(a) for a in new} == {record.level}
        added.append(new)
        present |= record.output_atoms
    above = {a for a in result.instance if result.atom_level(a) > 0}
    assert sum(len(new) for new in added) == len(above)
    assert set().union(*added) == above
    for term in result.instance.active_domain():
        if isinstance(term, Null) and result.is_chase_term(term):
            record = result.creation_of(term)
            assert term in record.created_nulls
            assert record.level == result.timestamp(term)


@pytest.mark.parametrize(
    "wname,make,rules,steps", PAPER_ROWS, ids=PAPER_ROW_IDS
)
@pytest.mark.parametrize("vname", list(POLICIES))
def test_paper_rows_record_only_creating_applications(
    vname, wname, make, rules, steps
):
    # Applications that add nothing are counted, not recorded: the count
    # is the trace's ``applied`` summed over rounds, on every engine.
    counts = {}
    for ename, engine in PAPER_ENGINES:
        result, trace, _ = _traced_run(
            vname, engine, make(), rules, steps, 100_000
        )
        assert_records_are_creating(result)
        counts[ename] = result.statistics()["trigger_applications"]
        assert counts[ename] == sum(r["applied"] for r in trace.rounds)
    assert set(counts.values()) == {counts["naive"]}


TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

#: The rows of :data:`BUDGET_STOPS`: the paper rows, and transitivity
#: on two paths, whose oblivious levels are existential-free, so a stop
#: falls among the applications the join kernel counts instead of
#: building their triggers.
BUDGET_ROWS = {row[0]: row for row in PAPER_ROWS} | {
    f"tc_path_{n}": (f"tc_path_{n}", lambda n=n: path_instance(n), TC, 12)
    for n in (16, 30)
}

#: Mid-round atom-budget stops: ``(row, variant, steps, max_atoms,
#: applied per round, supply position after the stop)``.  Recording only
#: creating applications, and counting the oblivious chase's pruned
#: images instead of firing them, must not move which applications run
#: before a stop.
BUDGET_STOPS = [
    ("growing_tournament_3", "oblivious", 5, 12, [1, 4, 10, 21], 7),
    ("growing_tournament_3", "semi_oblivious", 5, 12, [1, 4, 10, 16, 2], 6),
    ("growing_tournament_3", "restricted", 5, 12, [1, 1, 3, 5, 2], 6),
    ("example_1", "oblivious", 10, 200, [1, 2, 4, 10, 26, 72, 153], 96),
    ("tc_path_16", "oblivious", 12, 100, [15, 41, 133], 0),
    ("tc_path_30", "oblivious", 12, 300, [29, 83, 304, 548], 0),
]


@pytest.mark.parametrize(
    "wname,vname,steps,max_atoms,applied,position",
    BUDGET_STOPS,
    ids=[f"{row[0]}-{row[1]}" for row in BUDGET_STOPS],
)
def test_budget_stop_applies_and_draws_the_same(
    wname, vname, steps, max_atoms, applied, position
):
    _, make, rules, _ = BUDGET_ROWS[wname]
    for ename, engine in PAPER_ENGINES:
        result, trace, at = _traced_run(
            vname, engine, make(), rules, steps, max_atoms
        )
        assert [r["applied"] for r in trace.rounds] == applied, ename
        assert at == position, ename
        assert result.statistics()["trigger_applications"] == sum(applied)
        assert result.levels_completed == len(applied) - 1, ename
        assert len(result.instance) > max_atoms, ename
        assert_records_are_creating(result)


@pytest.mark.parametrize("vname,run", VARIANTS, ids=VARIANT_IDS)
def test_growing_tournament_mid_round_budget_stop(vname, run):
    # 12 atoms stop growing_tournament_3 part-way through a round: every
    # engine records the same applications and draws the same nulls, and
    # the oblivious variants instantiate one head per application (the
    # restricted chase's claims instantiate heads of triggers they skip,
    # too).
    rules = growing_tournament_ruleset(3)

    def stopped(engine):
        supply = FreshSupply("_g")
        result = ChaseRunner(
            POLICIES[vname](),
            engine,
            max_steps=5,
            max_atoms=12,
            supply=supply,
        ).run(Instance(), rules)
        return result, supply.position

    reference, position = stopped("naive")
    assert len(reference.instance) == 13
    assert not reference.terminated and reference.levels_completed < 5
    nulls = sum(len(r.created_nulls) for r in reference.records())
    assert position == nulls
    for ename, engine in PAPER_ENGINES:
        result, at = stopped(engine)
        assert_bit_identical(result, reference)
        assert at == position, ename
        if vname != "restricted":
            heads = result.telemetry["registry"]["instantiation"]["heads"]
            applied = result.statistics()["trigger_applications"]
            assert heads == applied, ename


# ----------------------------------------------------------------------
# Oblivious rounds count the applications that cannot add an atom
# ----------------------------------------------------------------------


def test_oblivious_rounds_build_only_the_triggers_that_can_add_an_atom(
    monkeypatch,
):
    # Transitivity over the 16-edge path: 680 applications, 120 of them
    # add an atom.  The others ground a head present at round start or
    # repeat a smaller image's head; they are counted, not built.
    built = []
    from_image = Trigger.from_image.__func__

    def counting(cls, rule, image, shared_head=None):
        built.append(image)
        return from_image(cls, rule, image, shared_head)

    monkeypatch.setattr(Trigger, "from_image", classmethod(counting))
    trace = RunTrace()
    result = oblivious_chase(path_instance(16), TC, max_levels=12, trace=trace)
    assert result.terminated
    assert len(built) == 120
    assert result.statistics()["trigger_applications"] == 680
    assert sum(r["triggers"] for r in trace.rounds) == 680
    assert len(result.records()) == 120
    heads = result.telemetry["registry"]["instantiation"]["heads"]
    assert heads == 680


def test_a_level_of_pruned_images_is_a_level_not_the_fixpoint():
    # The only trigger re-derives E(a,c), present from the start: the
    # level builds no trigger, applies one and adds nothing; the next
    # level is the empty one.
    for ename, engine in ENGINES:
        trace = RunTrace()
        result = oblivious_chase(
            parse_instance("E(a,b), E(b,c), E(a,c)"), TC, engine=engine,
            trace=trace,
        )
        rounds = [
            (r["triggers"], r["applied"], r["new_atoms"]) for r in trace.rounds
        ]
        assert rounds == [(1, 1, 0), (0, 0, 0)], ename
        assert result.levels_completed == 1, ename
        assert result.terminated, ename
        assert result.statistics()["trigger_applications"] == 1, ename
        assert result.records() == (), ename


@pytest.mark.parametrize(
    "facts,records",
    [("E(a,b), E(b,c), F(a)", 0), ("E(a,b), E(b,c), F(b)", 1)],
    ids=["pruned_first", "survivor_first"],
)
def test_a_level_over_budget_from_the_start_stops_at_its_first_application(
    facts, records
):
    # Four atoms (with top) exceed the budget before level 1 fires, so
    # the level stops after its first application in canonical order:
    # the image (a,b), pruned when its head F(a) is present, fired when
    # it is not.
    rules = parse_rules("E(x,y) -> F(x)")
    reference = oblivious_chase(
        parse_instance(facts), rules, max_atoms=1, engine="naive"
    )
    assert reference.statistics()["trigger_applications"] == 1
    assert len(reference.records()) == records
    assert reference.levels_completed == 0
    for ename, engine in ENGINES:
        trace = RunTrace()
        result = oblivious_chase(
            parse_instance(facts), rules, max_atoms=1, engine=engine,
            trace=trace,
        )
        assert_bit_identical(result, reference)
        assert [r["applied"] for r in trace.rounds] == [1], ename
        assert result.statistics()["trigger_applications"] == 1, ename
        heads = result.telemetry["registry"]["instantiation"]["heads"]
        assert heads == 1, ename


class _RecordingProbe(ObliviousPolicy):
    """The oblivious policy, noting each post-budget probe's answer next
    to whether :func:`new_triggers_of` finds a trigger on its delta."""

    def __init__(self):
        super().__init__()
        self.answers = []

    def delta_has_remaining(self, instance, rules, delta):
        answer = super().delta_has_remaining(instance, rules, delta)
        found = any(True for _ in new_triggers_of(instance, rules, delta))
        self.answers.append((answer, found))
        return answer


def test_fixpoint_probe_answers_whether_a_trigger_remains():
    # Budget-stopped runs: the growing tournaments, Example 1, the
    # transitive closure of a path (which reaches its fixpoint at some
    # budgets) and fuzz draws, each at several level budgets.
    tc = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")
    runs = [
        (growing_tournament_ruleset(n), Instance) for n in (1, 2, 3)
    ] + [
        (example_1().rules, lambda: example_1().instance),
        (tc, lambda: path_instance(6)),
    ] + [
        (
            random_chase_ruleset(
                constant_probability=0.25 if seed % 2 else 0.0, seed=seed
            ),
            lambda seed=seed: random_instance(
                FUZZ_SIGNATURE, 4, 16, seed=seed
            ),
        )
        for seed in range(8)
    ]
    answers = []
    for rules, make in runs:
        for steps in range(1, 5):
            policy = _RecordingProbe()
            result = ChaseRunner(
                policy, "delta", max_steps=steps, max_atoms=20_000
            ).run(make(), rules)
            if result.levels_completed == steps:
                assert len(policy.answers) == 1
                assert result.terminated == (not policy.answers[0][0])
            answers.extend(policy.answers)
    assert all(probe == found for probe, found in answers)
    assert {probe for probe, _ in answers} == {True, False}


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
# The pruned restricted chase vs the unpruned naive reference
# ----------------------------------------------------------------------


class TestPrunedRestrictedFiring:
    TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")
    MIXED = parse_rules(
        "E(x,y) -> exists z. F(y,z)\nF(x,y), E(y,z) -> E(x,z)", name="mixed"
    )

    def _naive_reference(self, make, rules, max_atoms=20_000, supply=None):
        return restricted_chase(
            make(), rules, max_rounds=8, max_atoms=max_atoms,
            supply=supply, engine="naive",
        )

    @pytest.mark.parametrize("ename,engine", ENGINES, ids=ENGINE_IDS)
    def test_pruned_engines_match_naive_reference(self, ename, engine):
        make = lambda: path_instance(8)
        reference = self._naive_reference(make, self.TC)
        result = restricted_chase(
            make(), self.TC, max_rounds=8, engine=engine
        )
        assert_bit_identical(result, reference)

    def test_worker_counts_do_not_matter(self):
        make = lambda: tournament_instance(6, seed=2)
        reference = self._naive_reference(make, self.TC)
        for workers in (1, 2, 3, 4):
            for name in ("parallel", "persistent"):
                config = EngineConfig(name, workers=workers)
                result = restricted_chase(
                    make(), self.TC, max_rounds=8, engine=config
                )
                assert_bit_identical(result, reference)

    def test_budget_stop_matches_naive_reference(self):
        make = lambda: path_instance(20)
        reference = self._naive_reference(make, self.TC, max_atoms=60)
        assert not reference.terminated
        for ename, engine in ENGINES:
            result = restricted_chase(
                make(), self.TC, max_rounds=8, max_atoms=60, engine=engine
            )
            assert_bit_identical(result, reference)

    def test_existential_then_datalog_rounds_agree(self):
        # Round 1 has existential triggers only; later rounds never
        # produce an existential-free trigger in this ruleset (rule 2's
        # join variable is always a fresh null).  Every fired round
        # records the one plan.
        make = lambda: tournament_instance(5, seed=1)
        reference = self._naive_reference(make, self.MIXED)
        trace = RunTrace()
        result = restricted_chase(
            make(), self.MIXED, max_rounds=8, trace=trace
        )
        assert_bit_identical(result, reference)
        assert {r["plan"] for r in trace.rounds} == {"batched"}

    #: A workload with *genuinely mixed* rounds: every round's delta is a
    #: set of E atoms, which pivots both the existential successor rule
    #: and the existential-free overlay rule at once.
    GENUINELY_MIXED = parse_rules(
        "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
        name="succ_overlay",
    )

    @pytest.mark.parametrize("ename,engine", ENGINES, ids=ENGINE_IDS)
    def test_genuinely_mixed_rounds_agree(self, ename, engine):
        # Mixed rounds (existential + existential-free triggers) fire
        # pruned (on the worker replicas, on the persistent backends) and
        # stay bit-identical to the unpruned reference on every engine.
        make = lambda: tournament_instance(6, seed=0)
        reference = self._naive_reference(make, self.GENUINELY_MIXED)
        result = restricted_chase(
            make(), self.GENUINELY_MIXED, max_rounds=8, engine=engine
        )
        assert_bit_identical(result, reference)
        # The first round's candidates include both kinds of trigger.
        instance = make()
        candidates = restricted_new_triggers_of(
            instance, self.GENUINELY_MIXED, instance.atoms()
        )
        assert {bool(t.rule.existential_order()) for t in candidates} == {
            True, False
        }

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
        # round): the pool must stop at the same application, with the
        # same supply position, for every worker count.
        make = lambda: path_instance(8)
        reference_supply = FreshSupply("_r")
        pool_supply = FreshSupply("_r")
        reference = restricted_chase(
            make(), self.GENUINELY_MIXED, max_rounds=6, max_atoms=20,
            supply=reference_supply, engine="naive",
        )
        assert not reference.terminated
        assert reference_supply.position > 0
        result = restricted_chase(
            make(), self.GENUINELY_MIXED, max_rounds=6, max_atoms=20,
            supply=pool_supply, engine=config,
        )
        assert_bit_identical(result, reference)
        assert pool_supply.position == reference_supply.position

    def test_existential_rounds_match_naive_reference(self):
        # The successor rule keeps spawning an unsatisfied tail trigger,
        # so the chase never terminates and every round is existential.
        succ = parse_rules("E(x,y) -> exists z. E(y,z)", name="succ")
        result = restricted_chase(path_instance(4), succ, max_rounds=4)
        reference = restricted_chase(
            path_instance(4), succ, max_rounds=4, engine="naive"
        )
        assert not result.terminated
        assert_bit_identical(result, reference)

    def test_supply_position_parity_on_pool_budget_stop(self):
        # Existential-free rounds draw no nulls either way; the supply
        # position after a budget stop in a round enumerated on the pool
        # must equal the reference's.
        make = lambda: path_instance(20)
        reference_supply = FreshSupply("_r")
        pool_supply = FreshSupply("_r")
        reference = self._naive_reference(
            make, self.TC, max_atoms=60, supply=reference_supply
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

    The firing stream stops claiming at a mid-round budget hit
    (``ChaseResult.record_round`` pulls it lazily).  Rounds the
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
            def round_claim(self, result, triggers):
                def claim(trigger):
                    trigger._ground_output = (
                        trigger.rule.instantiate_head(trigger.mapping)
                    )
                    return True

                return claim

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
        assert heads == result.statistics()["trigger_applications"]


# ----------------------------------------------------------------------
# The policy surface itself
# ----------------------------------------------------------------------


class TestVariantPolicySurface:
    def test_default_policy_hooks(self):
        policy = VariantPolicy()
        assert policy.round_claim(None, []) is None
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
            # A claim that skips triggers needs every trigger built.
            round_mode = "enumerate"

            def round_claim(self, result, triggers):
                return lambda t: all(
                    a.predicate.name != "F" for a in t.rule.head
                )

        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)\nE(x,y) -> G(y,x)")
        runner = ChaseRunner(NoFPolicy(), max_steps=3, max_atoms=1000)
        result = runner.run(path_instance(4), rules)
        produced = {a.predicate.name for a in result.instance}
        assert "G" in produced and "F" not in produced
