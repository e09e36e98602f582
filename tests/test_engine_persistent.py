"""Persistent delta-fed workers and sharded firing: the pool suite.

Extends the engine-equivalence suite over the persistent
:class:`~repro.engine.workers.WorkerPool` (replicas seeded once,
per-round delta sync, sharded firing) — asserting bit-identical
instances, provenance order, timestamps, null names and budget-stop
positions against the sequential ``delta`` engine.

Pools fork per run, so this file parametrizes over a reduced but
structurally diverse slice of the corpus workloads at two pool shapes;
the full workload matrix runs on the ``persistent`` preset in
``test_engine_parallel.py``.
"""

from __future__ import annotations

import pytest

from test_engine_parallel import VARIANTS, WORKLOADS, assert_bit_identical

from repro.chase import oblivious_chase, semi_oblivious_chase
from repro.corpus.generators import path_instance, tournament_instance
from repro.engine import (
    TRANSPORT_STATS,
    EngineConfig,
    WorkerPool,
    resolve_engine,
)
from repro.errors import ChaseError
from repro.logic.atoms import atom
from repro.logic.instances import Instance
from repro.logic.terms import FreshSupply
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_rules

#: A structurally diverse slice of the shared workload list (existential
#: growth, datalog closure, merges, stratified random) — pools fork per
#: run, so the full matrix stays in the inline suite.
PROCESS_WORKLOAD_NAMES = (
    "path_succ",
    "tournament_tc",
    "merge_ladder_2",
    "datalog_grid_6",
    "random_0",
    "stratified_1",
)
PROCESS_WORKLOADS = [w for w in WORKLOADS if w[0] in PROCESS_WORKLOAD_NAMES]
PROCESS_IDS = [w[0] for w in PROCESS_WORKLOADS]

#: Two pool shapes: shards defaulting to one per worker, and an odd
#: worker count over more shards than workers (a worker owns several).
PROCESS_MODES = [
    ("persistent", EngineConfig("persistent", workers=2)),
    ("persistent_w3s7", EngineConfig("persistent", workers=3, shards=7)),
]


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------


class TestPersistentConfig:
    def test_persistent_name_normalizes_to_parallel_mode(self):
        config = resolve_engine("persistent")
        assert config.mode == "parallel"
        assert config.is_parallel
        assert config.uses_pool

    def test_explicit_knob_on_parallel_mode(self):
        # Pool use is derived from the worker count alone.
        config = EngineConfig("parallel", workers=3)
        assert config.uses_pool
        assert config.with_workers(2).uses_pool
        assert not config.with_workers(1).uses_pool

    def test_persistent_requires_parallel_mode(self):
        with pytest.raises(ChaseError, match="parallel-mode"):
            EngineConfig("delta", workers=2)
        with pytest.raises(ChaseError, match="parallel-mode"):
            EngineConfig("delta", shared_memory=True)

    def test_persistent_spelled_as_mode(self):
        config = EngineConfig("custom", mode="persistent", workers=2)
        assert config.mode == "parallel"
        assert config.uses_pool


# ----------------------------------------------------------------------
# Cross-engine equivalence over the pool
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,instance,rules,levels", PROCESS_WORKLOADS, ids=PROCESS_IDS
)
@pytest.mark.parametrize("variant,run", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize(
    "mode,config", PROCESS_MODES, ids=[m[0] for m in PROCESS_MODES]
)
class TestProcessModeEquivalence:
    def test_bit_identical_to_sequential_delta(
        self, mode, config, variant, run, name, instance, rules, levels
    ):
        reference = run(instance, rules, levels, "delta")
        result = run(instance, rules, levels, config)
        assert_bit_identical(result, reference)


class TestPersistentDeterminism:
    def test_worker_and_shard_counts_do_not_matter(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        make = lambda: tournament_instance(6, seed=1)
        reference = oblivious_chase(make(), rules, max_levels=3)
        for workers, shards in [(2, 2), (2, 8), (3, 5)]:
            config = EngineConfig(
                "persistent", workers=workers, shards=shards
            )
            run = oblivious_chase(make(), rules, max_levels=3, engine=config)
            assert_bit_identical(run, reference)

    def test_closure_on_persistent_pool(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        reference = semi_naive_closure(path_instance(12), rules, engine="naive")
        config = EngineConfig("persistent", workers=2)
        assert semi_naive_closure(path_instance(12), rules, engine=config) == reference


# ----------------------------------------------------------------------
# Budget stops: same partial result, same supply position
# ----------------------------------------------------------------------


class TestShardedFiringBudgetStop:
    RULES = "E(x,y) -> exists z. E(y,z)"

    def _run(self, engine, supply):
        return oblivious_chase(
            tournament_instance(6, seed=0),
            parse_rules(self.RULES),
            max_levels=5,
            max_atoms=40,
            supply=supply,
            engine=engine,
        )

    @pytest.mark.parametrize(
        "mode,config", PROCESS_MODES, ids=[m[0] for m in PROCESS_MODES]
    )
    def test_partial_result_and_supply_position_match(self, mode, config):
        sequential_supply = FreshSupply("_n")
        sharded_supply = FreshSupply("_n")
        reference = self._run("delta", sequential_supply)
        result = self._run(config, sharded_supply)
        assert not reference.terminated
        assert_bit_identical(result, reference)
        # The sharded round drew nulls speculatively and rewound: the next
        # name either supply hands out is the same.
        assert sharded_supply.position == sequential_supply.position
        assert sharded_supply.null() == sequential_supply.null()

    def test_semi_oblivious_claim_gate_with_sharded_firing(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        reference = semi_oblivious_chase(
            tournament_instance(6, seed=2), rules, max_levels=3
        )
        result = semi_oblivious_chase(
            tournament_instance(6, seed=2),
            rules,
            max_levels=3,
            engine=EngineConfig("persistent", workers=2),
        )
        assert_bit_identical(result, reference)


# ----------------------------------------------------------------------
# Supply position API
# ----------------------------------------------------------------------


class TestFreshSupplyRewind:
    def test_position_tracks_draws(self):
        supply = FreshSupply("_t")
        assert supply.position == 0
        names = [supply.null().name for _ in range(3)]
        assert names == ["_t0", "_t1", "_t2"]
        assert supply.position == 3

    def test_rewind_replays_names(self):
        supply = FreshSupply("_t")
        supply.nulls(4)
        supply.rewind(2)
        assert supply.position == 2
        assert supply.null().name == "_t2"

    def test_rewind_bounds_checked(self):
        supply = FreshSupply("_t")
        supply.nulls(2)
        with pytest.raises(ValueError):
            supply.rewind(3)
        with pytest.raises(ValueError):
            supply.rewind(-1)


# ----------------------------------------------------------------------
# WorkerPool unit behavior
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_size_validated(self):
        with pytest.raises(ChaseError):
            WorkerPool(0)

    def test_close_idempotent_and_lazy(self):
        pool = WorkerPool(2)
        pool.close()  # never started: no-op
        pool.close()
        assert not pool._started

    def test_seed_once_then_delta_sync(self):
        rules = tuple(parse_rules("E(x,y), E(y,z) -> F(x,z)"))
        instance = Instance([atom("E", "a", "b"), atom("E", "b", "c")])
        with WorkerPool(2) as pool:
            TRANSPORT_STATS.reset()
            first = pool.run_round(
                "enumerate", rules, instance, [instance.sorted_atoms(), []]
            )
            assert TRANSPORT_STATS.seeds == 1
            images = {
                image for per_rule in first for found in per_rule
                for image in found
            }
            assert len(images) == 1  # E(a,b), E(b,c) -> F(a,c)
            # Grow the instance; the next round ships only the delta and
            # does not reseed.
            instance.add(atom("E", "c", "d"))
            delta = [atom("E", "c", "d")]
            second = pool.run_round("enumerate", rules, instance, [delta, []])
            assert TRANSPORT_STATS.seeds == 1
            images = {
                image for per_rule in second for found in per_rule
                for image in found
            }
            assert len(images) == 1  # the new E(b,c), E(c,d) match

    def test_rule_change_reseeds(self):
        rules_a = tuple(parse_rules("E(x,y) -> F(x,y)"))
        rules_b = tuple(parse_rules("E(x,y) -> G(x,y)"))
        instance = Instance([atom("E", "a", "b")])
        with WorkerPool(1) as pool:
            TRANSPORT_STATS.reset()
            pool.run_round("derive", rules_a, instance, [[atom("E", "a", "b")]])
            pool.run_round("derive", rules_b, instance, [[atom("E", "a", "b")]])
            assert TRANSPORT_STATS.seeds == 2

    def test_worker_errors_surface_as_chase_error(self):
        with WorkerPool(1) as pool:
            pool._start()
            pool._send(0, ("enumerate", [], "not-an-atom-list"))
            with pytest.raises(ChaseError, match="worker 0 failed"):
                pool._receive(0)
        # The pool is still closeable after a failed round.

    def test_unsatisfied_round_prunes_against_the_replica(self):
        # The restricted chase's enumeration command: matches whose ground
        # head the replica already holds, or whose head a smaller image
        # repeats, never leave the worker.
        rules = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        instance = Instance(
            [
                atom("E", "a", "b"),
                atom("E", "b", "c"),
                atom("E", "c", "d"),
                atom("E", "a", "c"),
                atom("E", "a", "e"),
                atom("E", "e", "d"),
            ]
        )
        pivots = [instance.sorted_atoms(), []]
        with WorkerPool(2) as pool:
            (full,) = pool.run_round("enumerate", rules, instance, pivots)
            (pruned,) = pool.run_round(
                "enumerate_unsatisfied", rules, instance, pivots
            )
        (rule,) = rules
        heads = {
            image: rule.instantiate_head(hom)
            for image, hom in full[0].items()
        }
        # Four 2-paths: a-b-c grounds the present E(a,c); a-c-d and
        # a-e-d both ground E(a,d); b-c-d grounds E(b,d).
        assert len(heads) == 4
        expected = {}
        for image in sorted(heads):
            head = frozenset(heads[image])
            if all(a in instance for a in head) or head in expected:
                continue
            expected[head] = image
        assert sorted(pruned[0]) == sorted(expected.values())
        assert len(pruned[0]) == 2

    def test_unsatisfied_round_checks_the_synced_replica(self):
        # A head that became present since the last round is pruned: the
        # replica folds the sync delta before the enumeration runs.
        rules = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        instance = Instance([atom("E", "a", "b"), atom("E", "b", "c")])
        with WorkerPool(2) as pool:
            (first,) = pool.run_round(
                "enumerate_unsatisfied",
                rules,
                instance,
                [instance.sorted_atoms(), []],
            )
            assert len(first[0]) == 1  # E(a,b), E(b,c) -> E(a,c) missing
            instance.add(atom("E", "a", "c"))
            instance.add(atom("E", "c", "c"))
            TRANSPORT_STATS.reset()
            (second,) = pool.run_round(
                "enumerate_unsatisfied",
                rules,
                instance,
                [[atom("E", "a", "c")], []],
            )
            assert TRANSPORT_STATS.seeds == 0
        # E(a,c), E(c,c) -> E(a,c) is present on the synced replica.
        assert second[0] == {}

    def test_fire_without_prior_seed(self):
        # Firing ships the round's distinct rules, so it works on a
        # fresh pool (enumeration may have run inline all along).
        rules = list(parse_rules("E(x,y) -> exists z. E(y,z)"))
        from repro.chase.trigger import triggers_of

        instance = Instance([atom("E", "a", "b")])
        (trigger,) = list(triggers_of(instance, rules))
        supply = FreshSupply("_w")
        existential_map = {
            v: supply.null() for v in trigger.rule.existential_order()
        }
        with WorkerPool(2) as pool:
            pairs = pool.fire(
                [trigger.rule],
                [[(0, 0, trigger.mapping, existential_map)], []],
            )
        ((index, atoms),) = pairs
        expected, _ = trigger.output(FreshSupply("_w"))
        assert index == 0 and atoms == expected


# ----------------------------------------------------------------------
# Failing workers: reply drain, broken-pool teardown
# ----------------------------------------------------------------------


class TestWorkerPoolFailureTeardown:
    RULES = tuple(parse_rules("E(x,y) -> F(x,y)"))

    def _mapping(self):
        from repro.chase.trigger import triggers_of

        instance = Instance([atom("E", "a", "b")])
        (trigger,) = list(triggers_of(instance, list(self.RULES)))
        return trigger.mapping

    def _fire_message(self, pool, tasks):
        # A valid wire-format fire message for a fresh pool: encode the
        # tasks first, then cut the segment from mark (0, 0) so it covers
        # every symbol the buffer references.
        tasks_buf = pool._encoder.encode_fire_tasks(self.RULES, tasks)
        segment = pool._encoder.segment(0, 0)
        return ("fire", segment, self.RULES, tasks_buf)

    def test_failed_reply_drains_survivors_and_marks_broken(self):
        # Worker 1 errors mid-round (its task buffer is not a valid id
        # stream); workers 0 and 2 reply normally.  The gather must drain
        # *all* outstanding replies before raising, so no pipe is left
        # holding a stale round reply, and the pool must be marked broken.
        mapping = self._mapping()
        pool = WorkerPool(3)
        pool._start()
        healthy = self._fire_message(pool, [(0, 0, mapping, {})])
        messages = [
            healthy,
            ("fire", None, self.RULES, b"bad"),
            healthy,
        ]
        with pytest.raises(ChaseError, match="worker 1 failed"):
            pool._broadcast_and_gather(messages)
        assert pool.broken
        # Every reply was drained: no pipe has pending bytes that the
        # stop handshake could misread as its ack.
        assert not any(conn.poll(0.05) for conn in pool._connections)
        processes = list(pool._processes)
        pool.close()
        assert not pool._started
        assert not any(p.is_alive() for p in processes)

    def test_broken_pool_refuses_further_rounds(self):
        pool = WorkerPool(2)
        pool._start()
        with pytest.raises(ChaseError, match="worker 0 failed"):
            pool._broadcast_and_gather(
                [("fire", self.RULES, ["bad-task"]), None]
            )
        assert pool.broken
        with pytest.raises(ChaseError, match="broken"):
            pool.run_round(
                "enumerate", self.RULES, Instance([atom("E", "a", "b")]), [[]]
            )
        pool.close()

    def test_dead_worker_at_send_time_drains_sent_replies(self):
        # Worker 1's process dies before the round; the send fails, the
        # already-sent worker 0 is still drained, and the failure
        # surfaces as a ChaseError with the pool marked broken.
        mapping = self._mapping()
        pool = WorkerPool(2)
        pool._start()
        pool._processes[1].terminate()
        pool._processes[1].join(timeout=5.0)
        healthy = self._fire_message(pool, [(0, 0, mapping, {})])
        with pytest.raises(ChaseError, match="died mid-round"):
            pool._broadcast_and_gather([healthy, healthy])
        assert pool.broken
        # The surviving worker's reply was drained (the dead worker's
        # pipe stays "readable" — it reports EOF — so only the survivor
        # is checked).
        assert not pool._connections[0].poll(0.05)
        pool.close()
        assert not pool._started

    def test_close_after_failed_round_completes_quickly(self):
        # A broken pool skips the stop handshake entirely: close() tears
        # the pipes down and the workers exit on EOF.
        pool = WorkerPool(2)
        pool._start()
        with pytest.raises(ChaseError):
            pool._broadcast_and_gather(
                [("fire", self.RULES, ["bad"]), ("fire", self.RULES, ["bad"])]
            )
        import time

        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 5.0
        assert pool._connections == [] and pool._processes == []
        # A closed broken pool still refuses reuse.
        with pytest.raises(ChaseError, match="broken"):
            pool._start()
