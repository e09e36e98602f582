"""The engine subsystem: registry, routing, parallel equivalence.

The parallel engine's contract is the strongest the library makes: for
every chase variant, every corpus workload, and *every* worker count,
``engine="parallel"`` must produce a :class:`ChaseResult` that is
bit-identical to the sequential delta engine — same atoms, levels,
termination flag, timestamps, null names and provenance records — inline
at one worker and on the worker pool above.  The suite pins that
contract, the registry's error behavior, the pool's hash routing,
the firing stream's budget stops, the Datalog closure engines (against
``naive``), and the index-seeded satisfaction fast path of the
restricted chase.
"""

from __future__ import annotations

import pytest

from repro.chase import (
    oblivious_chase,
    restricted_chase,
    semi_oblivious_chase,
)
from repro.chase.trigger import round_triggers, triggers_of
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
from repro.engine import (
    EngineConfig,
    WorkerPool,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.errors import ChaseError
from repro.logic.atoms import atom
from repro.logic.instances import Instance
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

VARIANTS = [
    ("oblivious", lambda i, r, n, e: oblivious_chase(
        i.copy(), r, max_levels=n, max_atoms=20_000, engine=e)),
    ("semi_oblivious", lambda i, r, n, e: semi_oblivious_chase(
        i.copy(), r, max_levels=n, max_atoms=20_000, engine=e)),
    ("restricted", lambda i, r, n, e: restricted_chase(
        i.copy(), r, max_rounds=n, max_atoms=20_000, engine=e)),
]


# ----------------------------------------------------------------------
# Registry and configuration
# ----------------------------------------------------------------------


class TestRegistry:
    def test_available_engines(self):
        assert available_engines() == (
            "delta", "naive", "parallel", "persistent",
        )

    def test_unknown_engine_is_chase_error_listing_names(self):
        with pytest.raises(ChaseError) as excinfo:
            resolve_engine("semi-naive")
        message = str(excinfo.value)
        assert "semi-naive" in message
        for name in available_engines():
            assert name in message

    def test_every_entry_point_rejects_unknown_names(self):
        inst = path_instance(3)
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        for runner in (
            lambda: oblivious_chase(inst, rules, engine="bogus"),
            lambda: semi_oblivious_chase(inst, rules, engine="bogus"),
            lambda: restricted_chase(inst, rules, engine="bogus"),
            lambda: semi_naive_closure(inst, rules, engine="bogus"),
        ):
            with pytest.raises(ChaseError, match="valid engines"):
                runner()

    def test_explicit_config_passes_through(self):
        config = EngineConfig("parallel", workers=2)
        assert resolve_engine(config) is config

    def test_invalid_config_rejected(self):
        with pytest.raises(ChaseError):
            EngineConfig("parallel", workers=0)
        # The delta always routes one slice per worker: there is no
        # separate shard count to set.
        with pytest.raises(TypeError):
            EngineConfig("parallel", workers=2, shards=4)

    def test_sequential_engines_reject_workers(self):
        # A sequential engine runs in-process: a worker count above one
        # would be reported in traces and provenance but never used.
        for mode in ("delta", "naive"):
            with pytest.raises(ChaseError, match="runs sequentially"):
                EngineConfig(mode, workers=3)
            with pytest.raises(ChaseError, match="runs sequentially"):
                resolve_engine(mode).with_workers(2)
            assert resolve_engine(mode).with_workers(1).workers == 1
        assert EngineConfig("parallel", workers=3).uses_pool
        assert not EngineConfig("parallel", workers=1).uses_pool

    # Rejected at construction: unchecked, a float would reach the pool
    # and fail mid-round, a string would fail the ``< 1`` comparison,
    # both with a raw TypeError, and True would count as one worker.
    @pytest.mark.parametrize(
        "workers", [2.0, "2", True], ids=["float", "str", "bool"]
    )
    def test_non_integer_worker_counts_rejected(self, workers):
        with pytest.raises(ChaseError, match="integer worker count"):
            EngineConfig("persistent", workers=workers)
        with pytest.raises(ChaseError, match="integer worker count"):
            resolve_engine("parallel").with_workers(workers)

    def test_register_engine_roundtrip(self):
        original = resolve_engine("parallel")
        with pytest.raises(ChaseError):
            register_engine(EngineConfig("delta"))  # name taken
        register_engine(
            EngineConfig("parallel", workers=2), replace_existing=True
        )
        try:
            assert resolve_engine("parallel").workers == 2
        finally:
            register_engine(original, replace_existing=True)
        assert resolve_engine("parallel") is original

    def test_custom_named_preset_dispatches_by_mode(self):
        # A preset under a new name must actually run its mode's engine.
        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        register_engine(EngineConfig("turbo", mode="parallel", workers=2))
        try:
            reference = oblivious_chase(path_instance(6), rules, max_levels=3)
            run = oblivious_chase(
                path_instance(6), rules, max_levels=3, engine="turbo"
            )
            assert_bit_identical(run, reference)
            assert resolve_engine("turbo").is_parallel
        finally:
            import repro.engine.config as config_module

            del config_module._REGISTRY["turbo"]

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ChaseError, match="valid modes"):
            EngineConfig("bogus-mode")
        with pytest.raises(ChaseError, match="valid modes"):
            EngineConfig("preset", mode="bogus")


# ----------------------------------------------------------------------
# Hash routing
# ----------------------------------------------------------------------


class TestSchedulerRouting:
    def test_partition_is_exact(self, monkeypatch):
        # The pivots the pool's routing hands its round: one slice per
        # worker in delta order, each atom in the slice its hash names,
        # nothing lost.
        atoms = [atom("E", f"x{i}", f"x{i+1}") for i in range(20)]
        shipped = []

        def capture(pool, mode, rules, instance, pivots_per_worker):
            shipped.append(pivots_per_worker)
            return []

        monkeypatch.setattr(WorkerPool, "run_round", capture)
        with WorkerPool(3) as pool:
            pool.round_matches("derive", [], Instance(atoms), atoms)
        (pivots,) = shipped
        assert len(pivots) == 3
        assert sorted(a for piece in pivots for a in piece) == sorted(atoms)
        for worker, piece in enumerate(pivots):
            assert piece == [a for a in atoms if a in piece]
            for a in piece:
                assert hash(a) % 3 == worker


# ----------------------------------------------------------------------
# Cross-engine equivalence: parallel == delta == naive
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,instance,rules,levels", WORKLOADS, ids=IDS)
@pytest.mark.parametrize("variant,run", VARIANTS, ids=[v[0] for v in VARIANTS])
class TestParallelEquivalence:
    def test_parallel_matches_delta_and_naive(
        self, variant, run, name, instance, rules, levels
    ):
        delta = run(instance, rules, levels, "delta")
        naive = run(instance, rules, levels, "naive")
        parallel = run(instance, rules, levels, "parallel")
        assert_bit_identical(parallel, delta)
        assert_bit_identical(parallel, naive)

    def test_pool_fanout_matches_delta(
        self, variant, run, name, instance, rules, levels
    ):
        # The ``persistent`` preset fans every round out over a pool of
        # four workers: pool enumeration and parent-side firing on the
        # whole corpus, not just the slice in test_engine_persistent.py.
        assert resolve_engine("persistent").uses_pool
        delta = run(instance, rules, levels, "delta")
        pooled = run(instance, rules, levels, "persistent")
        assert_bit_identical(pooled, delta)


class TestSchedulerDeterminism:
    def test_worker_counts_do_not_matter(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        make = lambda: tournament_instance(6, seed=1)
        reference = oblivious_chase(make(), rules, max_levels=3)
        for workers in (1, 2, 3, 4):
            config = EngineConfig("parallel", workers=workers)
            run = oblivious_chase(
                make(), rules, max_levels=3, engine=config
            )
            assert_bit_identical(run, reference)

    def test_repeated_runs_are_identical(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        config = EngineConfig("parallel", workers=4)
        reference = restricted_chase(
            path_instance(7), rules, max_rounds=6, engine=config
        )
        for _ in range(3):
            again = restricted_chase(
                path_instance(7), rules, max_rounds=6, engine=config
            )
            assert_bit_identical(again, reference)

    def test_pickles_rehash_across_hash_seeds(self):
        # Spawned workers run under a different PYTHONHASHSEED; a cached
        # _hash copied verbatim across that boundary would break equality
        # and set membership (Atom.__eq__ short-circuits on _hash).  The
        # __reduce__ hooks on Term/Predicate/Atom/Rule rebuild through
        # __init__, recomputing the hash with the local seed.
        import os
        import pathlib
        import subprocess
        import sys
        import tempfile

        writer = (
            "import pickle, sys\n"
            "from repro.logic.atoms import atom\n"
            "from repro.rules.parser import parse_rules\n"
            "rules = parse_rules('E(x,y), E(y,z) -> E(x,z)')\n"
            "payload = (atom('E', 'a', 'b'), tuple(rules))\n"
            "pickle.dump(payload, open(sys.argv[1], 'wb'))\n"
        )
        reader = (
            "import pickle, sys\n"
            "from repro.logic.atoms import atom\n"
            "from repro.rules.parser import parse_rules\n"
            "a, rules = pickle.load(open(sys.argv[1], 'rb'))\n"
            "assert a == atom('E', 'a', 'b'), 'atom equality broke'\n"
            "assert a in {atom('E', 'a', 'b')}, 'atom membership broke'\n"
            "assert hash(a) == hash(atom('E', 'a', 'b'))\n"
            "local = tuple(parse_rules('E(x,y), E(y,z) -> E(x,z)'))\n"
            "assert rules == local and hash(rules[0]) == hash(local[0])\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            blob = pathlib.Path(tmp) / "payload.pickle"
            for seed, script, arg in (("1", writer, blob), ("2", reader, blob)):
                env = dict(
                    os.environ,
                    PYTHONHASHSEED=seed,
                    PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
                )
                subprocess.run(
                    [sys.executable, "-c", script, str(arg)],
                    check=True,
                    env=env,
                    cwd=pathlib.Path(__file__).parent.parent,
                )

    def test_scheduler_context_manager_closes_pool(self):
        with WorkerPool(2) as pool:
            inst = path_instance(4)
            rules = list(parse_rules("E(x,y), E(y,z) -> F(x,z)"))
            per_rule = pool.round_matches(
                "enumerate", rules, inst, list(inst)
            )
            assert len(per_rule) == 1
            images = [t.image() for t in round_triggers(rules, per_rule)]
            assert images == sorted(images)
        assert not pool._started
        assert pool._connections == [] and pool._processes == []


# ----------------------------------------------------------------------
# Budget behavior through the firing stream
# ----------------------------------------------------------------------


class TestBudgetsThroughBatchedFiring:
    def test_partial_results_match_on_atom_budget(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        for engine in ("delta", "parallel"):
            result = oblivious_chase(
                tournament_instance(6, seed=0),
                rules,
                max_levels=5,
                max_atoms=40,
                engine=engine,
            )
            assert not result.terminated
            assert len(result.instance) > 40  # stopped right after the hit
        delta = oblivious_chase(
            tournament_instance(6, seed=0), rules, max_levels=5,
            max_atoms=40,
        )
        parallel = oblivious_chase(
            tournament_instance(6, seed=0), rules, max_levels=5,
            max_atoms=40, engine="parallel",
        )
        assert_bit_identical(delta, parallel)

    def test_strict_budget_raises_for_parallel(self):
        from repro.errors import ChaseBudgetExceeded

        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        with pytest.raises(ChaseBudgetExceeded):
            oblivious_chase(
                tournament_instance(6, seed=0),
                rules,
                max_levels=5,
                max_atoms=40,
                strict=True,
                engine="parallel",
            )


# ----------------------------------------------------------------------
# Datalog closure engines
# ----------------------------------------------------------------------


class TestClosureEngines:
    def test_all_engines_agree_with_the_chase(self):
        rules = parse_rules(
            """
            E(x,y), E(y,z) -> E(x,z)
            E(x,y) -> F(y,x)
            F(x,y), F(y,z) -> G(x,z)
            """
        )
        inst = parse_instance("E(a,b), E(b,c), E(c,a)")
        chased = oblivious_chase(inst, rules, max_levels=10).instance
        reference = semi_naive_closure(inst, rules, engine="naive")
        assert reference == chased
        for engine in (
            "delta",
            "parallel",
            EngineConfig("persistent", workers=2),
        ):
            assert semi_naive_closure(inst, rules, engine=engine) == reference

    def test_worker_counts_agree_on_corpus(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        reference = semi_naive_closure(path_instance(12), rules, engine="naive")
        for workers in (1, 2, 4):
            config = EngineConfig("parallel", workers=workers)
            assert (
                semi_naive_closure(path_instance(12), rules, engine=config)
                == reference
            )

    def test_closure_budget_still_enforced(self):
        from repro.errors import ChaseBudgetExceeded

        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        with pytest.raises(ChaseBudgetExceeded):
            semi_naive_closure(path_instance(30), rules, max_atoms=50)


# ----------------------------------------------------------------------
# Index-seeded satisfaction fast path (restricted chase)
# ----------------------------------------------------------------------


class TestSatisfactionFastPath:
    def _all_triggers(self, instance, rules):
        return list(triggers_of(instance, rules))

    @pytest.mark.parametrize("name,instance,rules,levels", WORKLOADS, ids=IDS)
    def test_agrees_with_generic_matcher(self, name, instance, rules, levels):
        # Grow the instance one chase level so heads are partially
        # satisfied, then compare both satisfaction tests on every trigger.
        grown = oblivious_chase(instance.copy(), rules, max_levels=1).instance
        checked = 0
        for trigger in self._all_triggers(grown, rules):
            assert trigger.is_satisfied_using_index(grown) == \
                trigger.is_satisfied_in(grown)
            checked += 1
        assert checked > 0

    def test_datalog_head_membership(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d), E(a,c)")
        satisfied, unsatisfied = 0, 0
        for trigger in self._all_triggers(inst, rules):
            if trigger.is_satisfied_using_index(inst):
                satisfied += 1
            else:
                unsatisfied += 1
        # (a,b),(b,c) -> E(a,c) is satisfied; (b,c),(c,d) -> E(b,d) and
        # (a,c),(c,d) -> E(a,d) are not.
        assert satisfied == 1 and unsatisfied == 2

    def test_existential_single_atom_head_uses_index(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b), E(b,c)")
        triggers = {
            t.image(): t for t in self._all_triggers(inst, rules)
        }
        results = {
            image: t.is_satisfied_using_index(inst)
            for image, t in triggers.items()
        }
        # E(a,b) has the successor E(b,c); E(b,c) has none.
        assert sorted(results.values()) == [False, True]

    def test_repeated_existential_variable(self):
        # exists z. E(z,z): only a loop satisfies the head.
        rules = parse_rules("P(x) -> exists z. E(z,z)")
        (rule,) = list(rules)
        inst_no_loop = parse_instance("P(a), E(a,b)")
        inst_loop = parse_instance("P(a), E(b,b)")
        for inst, expected in ((inst_no_loop, False), (inst_loop, True)):
            for trigger in self._all_triggers(inst, [rule]):
                assert trigger.is_satisfied_using_index(inst) == expected
                assert trigger.is_satisfied_in(inst) == expected
