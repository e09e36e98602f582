"""Persistent delta-fed workers: the pool suite.

Extends the engine-equivalence suite over the persistent
:class:`~repro.engine.workers.WorkerPool` (replicas seeded once,
per-round delta sync, enumeration on the pool, firing in the parent) —
asserting bit-identical instances, provenance order, timestamps, null
names and budget-stop positions against the sequential ``delta`` engine.

Pools fork per run, so this file parametrizes over a reduced but
structurally diverse slice of the corpus workloads at two pool shapes;
the full workload matrix runs on the ``persistent`` preset in
``test_engine_parallel.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from test_engine_parallel import VARIANTS, WORKLOADS, assert_bit_identical

from repro.chase import (
    oblivious_chase,
    restricted_chase,
    semi_oblivious_chase,
)
from repro.chase.trigger import Trigger
from repro.corpus.generators import path_instance, tournament_instance
from repro.engine import (
    TRANSPORT_STATS,
    EngineConfig,
    WorkerPool,
    resolve_engine,
    wire,
)
from repro.engine.core import as_delta_instance, round_matches
from repro.errors import ChaseError
from repro.logic import MATCHER_STATS
from repro.logic.atoms import atom
from repro.logic.instances import Instance
from repro.logic.terms import Constant, FreshSupply
from repro.obs import RunTrace
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

#: Two pool shapes: an even and an odd worker count.
PROCESS_MODES = [
    ("persistent", EngineConfig("persistent", workers=2)),
    ("persistent_w3", EngineConfig("persistent", workers=3)),
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
    def test_worker_counts_do_not_matter(self):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        make = lambda: tournament_instance(6, seed=1)
        reference = oblivious_chase(make(), rules, max_levels=3)
        for workers in (2, 3, 5):
            config = EngineConfig("persistent", workers=workers)
            run = oblivious_chase(make(), rules, max_levels=3, engine=config)
            assert_bit_identical(run, reference)

    def test_closure_on_persistent_pool(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        reference = semi_naive_closure(path_instance(12), rules, engine="naive")
        config = EngineConfig("persistent", workers=2)
        assert semi_naive_closure(path_instance(12), rules, engine=config) == reference


class TestPoolMatchesParentFires:
    """The pool enumerates and derives; no round fires on it."""

    TC = "E(x,y), E(y,z) -> E(x,z)"
    POOL = EngineConfig("persistent", workers=2)

    @pytest.mark.parametrize(
        "chase,command",
        [
            (oblivious_chase, "enumerate_counted"),
            (semi_oblivious_chase, "enumerate"),
            (restricted_chase, "enumerate_unsatisfied"),
        ],
        ids=["oblivious", "semi_oblivious", "restricted"],
    )
    def test_chase_rounds_enumerate_on_the_pool(self, chase, command):
        # A 25-atom first delta reaches both workers, so the first round
        # runs on the pool; its triggers still fire in the parent.
        rules = parse_rules(self.TC)
        reference = chase(path_instance(24), rules, engine="delta")
        TRANSPORT_STATS.reset()
        result = chase(path_instance(24), rules, engine=self.POOL)
        assert_bit_identical(result, reference)
        commands = TRANSPORT_STATS.commands
        assert commands[command]["messages"] >= 2
        assert set(commands) <= {"seed", "sync", command, "stop"}

    def test_unknown_reply_symbol_fails_the_round(self, monkeypatch):
        # Replies carry table ids only.  A head symbol the parent never
        # interned (here: intern_rules skipped at seed) cannot be encoded
        # worker-side, and the round fails with a typed error.
        monkeypatch.setattr(
            wire, "intern_rules", lambda vocabulary, rules: None
        )
        rules = tuple(parse_rules("E(x,y) -> G(y,x)"))
        instance = Instance([atom("E", "a", "b"), atom("E", "b", "c")])
        with WorkerPool(1) as pool:
            with pytest.raises(ChaseError, match="not in the wire table"):
                pool.run_round(
                    "derive", rules, instance, [instance.sorted_atoms()]
                )
            assert pool.broken


class TestDeriveRepliesCarryNewHeadsOnly:
    """A worker's replica mirrors the instance at round start, so its
    derive reply holds only the heads the instance lacks."""

    RULES = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))

    def test_closed_instance_receives_no_atom(self):
        instance = Instance(
            [atom("E", "a", "b"), atom("E", "b", "c"), atom("E", "a", "c")]
        )
        with WorkerPool(2) as pool:
            TRANSPORT_STATS.reset()
            (heads,) = pool.run_round(
                "derive", self.RULES, instance, [instance.sorted_atoms(), []]
            )
        assert heads == set()
        assert TRANSPORT_STATS.commands["derive"]["messages"] == 1
        assert TRANSPORT_STATS.commands["derive"]["atoms_received"] == 0

    def test_one_new_and_one_present_head_receive_one_atom(self):
        # Pivoting on E(b,c) derives E(a,c), which is present, and the
        # new E(b,d).
        instance = Instance(
            [
                atom("E", "a", "b"),
                atom("E", "b", "c"),
                atom("E", "a", "c"),
                atom("E", "c", "d"),
            ]
        )
        with WorkerPool(2) as pool:
            TRANSPORT_STATS.reset()
            (heads,) = pool.run_round(
                "derive", self.RULES, instance, [[atom("E", "b", "c")], []]
            )
            assert pool._vocabulary.atoms(heads) == {atom("E", "b", "d")}
        assert TRANSPORT_STATS.commands["derive"]["atoms_received"] == 1


class TestPooledRunsCountWorkerMatching:
    """Workers send their matcher counts back in every reply envelope:
    a pooled run counts the candidates an inline run counts, and one
    search per pivot per busy worker slice."""

    TC = "E(x,y), E(y,z) -> E(x,z)"

    def _run(self, name, engine):
        if name == "closure":
            semi_naive_closure(
                path_instance(30), parse_rules(self.TC), engine=engine
            )
        elif name == "restricted":
            restricted_chase(
                path_instance(30), parse_rules(self.TC), engine=engine
            )
        else:
            rules = parse_rules(self.TC + "\nE(x,y) -> exists z. F(y,z)")
            oblivious_chase(
                path_instance(30), rules, max_levels=4, engine=engine
            )

    @pytest.mark.parametrize("name", ["closure", "restricted", "oblivious"])
    def test_pooled_candidates_equal_inline_candidates(self, name):
        counts = []
        for engine in ("delta", EngineConfig("persistent", workers=2)):
            MATCHER_STATS.reset()
            TRANSPORT_STATS.reset()
            self._run(name, engine)
            counts.append((MATCHER_STATS.searches, MATCHER_STATS.candidates))
        (searches, candidates), (pooled_searches, pooled_candidates) = counts
        assert TRANSPORT_STATS.commands  # the pool ran rounds
        assert pooled_candidates == candidates > 0
        assert searches < pooled_searches <= 2 * searches


# ----------------------------------------------------------------------
# Budget stops: same partial result, same supply position
# ----------------------------------------------------------------------


class TestPoolEnumerationBudgetStop:
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
        pool_supply = FreshSupply("_n")
        reference = self._run("delta", sequential_supply)
        result = self._run(config, pool_supply)
        assert not reference.terminated
        assert_bit_identical(result, reference)
        # The round enumerated on the pool fires lazily in the parent: the
        # next name either supply hands out is the same.
        assert pool_supply.position == sequential_supply.position
        assert pool_supply.null() == sequential_supply.null()

    def test_semi_oblivious_claim_gate_on_the_pool(self):
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


class TestFreshSupplyPosition:
    def test_position_tracks_draws(self):
        supply = FreshSupply("_t")
        assert supply.position == 0
        names = [supply.null().name for _ in range(3)]
        assert names == ["_t0", "_t1", "_t2"]
        assert supply.position == 3


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
            with pytest.raises(ChaseError, match="worker 0 failed"):
                pool._broadcast_and_gather(
                    [("enumerate", None, b"", "not-an-id-buffer")]
                )
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
            image: rule.instantiate_head(
                Trigger.from_image(rule, image).mapping
            )
            for image in full[0]
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
        assert second[0] == []


def _path(prefix: str, length: int) -> list:
    """The edges ``E(P0,P1), ..., E(P{length-1},P{length})``."""
    return [
        atom("E", f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)
    ]


def _terms(*names: str) -> tuple:
    return tuple(Constant(name) for name in names)


class TestReplicaFreshness:
    """Replicas are append-only copies of one instance: a round on
    another instance must reseed them."""

    RULES = tuple(parse_rules("E(x,y), E(y,z) -> F(x,z)"))

    def _pooled(self, pool, instance, pivots):
        (per_rule,) = pool.run_round(
            "enumerate", self.RULES, instance, [pivots, []]
        )
        return per_rule[0]

    def test_second_instance_under_the_same_rules_reseeds(self):
        first = Instance(_path("A", 7))  # revision 8, counting the top atom
        second = Instance(_path("B", 2))  # revision 3
        with WorkerPool(2) as pool:
            TRANSPORT_STATS.reset()
            self._pooled(pool, first, first.sorted_atoms())
            found = self._pooled(pool, second, second.sorted_atoms())
            assert TRANSPORT_STATS.seeds == 2
        assert sorted(found) == [_terms("B0", "B1", "B2")]


def _assert_same_image_sets(found, expected):
    """Per rule, the same images, each listed once."""
    assert len(found) == len(expected)
    for images, want in zip(found, expected):
        assert len(set(images)) == len(images)
        assert set(images) == set(want)


class TestInlineFallback:
    """:meth:`WorkerPool.round_matches` runs a round whose delta routes
    to a single worker inline; the next pooled round's sync carries it."""

    RULES = tuple(parse_rules("E(x,y), E(y,z) -> F(x,z)"))

    @staticmethod
    def _routed(atoms, worker):
        return [a for a in atoms if hash(a) % 2 == worker]

    def test_one_busy_slice_runs_inline_then_syncs(self):
        # Round 1 seeds; round 2's starts E(Ki,Li) all route to worker
        # 0; round 3 adds their continuations E(Li,Mi) and one filler
        # edge per worker, so it fans out.
        seed = [atom("E", f"S{i}", f"T{i}") for i in range(100)]
        seed = self._routed(seed, 0)[:1] + self._routed(seed, 1)[:1]
        starts = [atom("E", f"K{i}", f"L{i}") for i in range(100)]
        inline = self._routed(starts, 0)[:3]
        fillers = [atom("E", f"F{i}", f"G{i}") for i in range(100)]
        pooled = [atom("E", a.args[1], f"M{a.args[1].name}") for a in inline]
        pooled += self._routed(fillers, 0)[:1] + self._routed(fillers, 1)[:1]
        instance = Instance(seed)
        with WorkerPool(2) as pool:
            TRANSPORT_STATS.reset()
            pool.round_matches("enumerate", self.RULES, instance, seed)
            assert TRANSPORT_STATS.seeds == 1
            instance.update(inline)
            messages = TRANSPORT_STATS.messages
            found = pool.round_matches(
                "enumerate", self.RULES, instance, inline
            )
            assert TRANSPORT_STATS.messages == messages
            _assert_same_image_sets(found, round_matches(
                "enumerate", self.RULES, instance, as_delta_instance(inline)
            ))
            instance.update(pooled)
            synced = TRANSPORT_STATS.command("sync")["atoms_sent"]
            found = pool.round_matches(
                "enumerate", self.RULES, instance, pooled
            )
            assert TRANSPORT_STATS.messages == messages + 2
            assert TRANSPORT_STATS.command("sync")["atoms_sent"] == (
                synced + 2 * (len(inline) + len(pooled))
            )
            assert TRANSPORT_STATS.seeds == 1
        _assert_same_image_sets(found, round_matches(
            "enumerate", self.RULES, instance, as_delta_instance(pooled)
        ))
        # The matches through round 2's atoms: the replicas learned those
        # atoms only from round 3's sync.
        for start in inline:
            middle = start.args[1]
            assert start.args + _terms(f"M{middle.name}") in found[0]


# ----------------------------------------------------------------------
# Failing workers: reply drain, broken-pool teardown
# ----------------------------------------------------------------------


class TestWorkerPoolFailureTeardown:
    RULES = tuple(parse_rules("E(x,y) -> F(x,y)"))

    def _derive_message(self, pool):
        # A valid wire-format derive message for a fresh pool: a seed
        # first (workers derive over their replica and rule list), then
        # the pivot buffer, with the segment cut from the pool's current
        # marks so it covers every symbol the buffer references.
        instance = Instance([atom("E", "a", "b")])
        pool._seed(self.RULES, instance)
        pivot_buf = wire.encode_atoms(
            pool._vocabulary, instance.sorted_atoms()
        )
        segment = pool._vocabulary.segment(*pool._marks[0])
        return ("derive", segment, b"", pivot_buf)

    def test_failed_reply_drains_survivors_and_marks_broken(self):
        # Worker 1 errors mid-round (its pivot buffer is not a valid id
        # stream); workers 0 and 2 reply normally.  The gather must drain
        # *all* outstanding replies before raising, so no pipe is left
        # holding a stale round reply, and the pool must be marked broken.
        pool = WorkerPool(3)
        pool._start()
        healthy = self._derive_message(pool)
        messages = [
            healthy,
            ("derive", None, b"", b"\x80"),
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
                [("enumerate", None, b"", "bad-pivots"), None]
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
        pool = WorkerPool(2)
        pool._start()
        healthy = self._derive_message(pool)
        pool._processes[1].terminate()
        pool._processes[1].join(timeout=5.0)
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
                [("derive", None, b"", "bad"), ("derive", None, b"", "bad")]
            )
        import time

        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 5.0
        assert pool._connections == [] and pool._processes == []
        # A closed broken pool still refuses reuse.
        with pytest.raises(ChaseError, match="broken"):
            pool._start()

    def test_spawn_failure_tears_down_spawned_workers(self, monkeypatch):
        # The second worker fails to spawn: the first, already running,
        # is stopped and the failure surfaces as a typed error.
        import errno

        process_class = multiprocessing.get_context("fork").Process
        original_start = process_class.start
        started = []

        def start_once(process):
            if started:
                raise OSError(errno.EAGAIN, "fork refused")
            started.append(process)
            original_start(process)

        monkeypatch.setattr(process_class, "start", start_once)
        pool = WorkerPool(3)
        with pytest.raises(ChaseError, match="worker 1 of 3") as excinfo:
            pool._start()
        monkeypatch.undo()
        assert isinstance(excinfo.value.__cause__, OSError)
        pool.close()
        assert multiprocessing.active_children() == []
        assert pool._connections == [] and pool._processes == []
        assert not pool.broken

    def test_interrupted_gather_marks_the_pool_broken(self, monkeypatch):
        # An interrupt after the sends leaves both round replies on the
        # pipes.  The stop handshake would read them as its acks, so the
        # pool must be broken and torn down without one.
        pool = WorkerPool(2)
        pool._start()
        healthy = self._derive_message(pool)

        def interrupted(worker, command):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "_receive", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pool._broadcast_and_gather([healthy, healthy])
        assert pool.broken
        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 5.0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Fault injection through the public API
# ----------------------------------------------------------------------


class TestWorkerKilledMidCommand:
    """A worker process that dies inside a round's command surfaces as
    ``ChaseError`` from the public entry points and leaves no process
    behind."""

    TC = "E(x,y), E(y,z) -> E(x,z)"
    POOL = EngineConfig("persistent", workers=2)

    @pytest.fixture(autouse=True)
    def workers_die_mid_command(self, monkeypatch):
        # Workers fork from this process and look ``round_matches`` up
        # on the core module for every command, so they inherit the
        # patch; the parent keeps the real function for the rounds it
        # runs inline.
        from repro.engine import core

        parent = os.getpid()
        round_matches = core.round_matches

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return round_matches(*args)

        monkeypatch.setattr(core, "round_matches", die_in_worker)

    def test_closure(self):
        with pytest.raises(ChaseError, match="died mid-round"):
            semi_naive_closure(
                path_instance(24), parse_rules(self.TC), engine=self.POOL
            )
        assert multiprocessing.active_children() == []

    def test_restricted_chase(self):
        with pytest.raises(ChaseError, match="died mid-round"):
            restricted_chase(
                path_instance(24), parse_rules(self.TC), engine=self.POOL
            )
        assert multiprocessing.active_children() == []

    def test_traced_closure_summarizes_the_failed_round(self):
        trace = RunTrace()
        with pytest.raises(ChaseError, match="died mid-round"):
            semi_naive_closure(
                path_instance(24),
                parse_rules(self.TC),
                engine=self.POOL,
                trace=trace,
            )
        assert len(trace.rounds) == 1
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "atoms": len(path_instance(24)),
            "rounds": 1,
        }
        assert multiprocessing.active_children() == []

    def test_traced_chase_summarizes_the_failed_round(self):
        trace = RunTrace()
        with pytest.raises(ChaseError, match="died mid-round"):
            restricted_chase(
                path_instance(24),
                parse_rules(self.TC),
                engine=self.POOL,
                trace=trace,
            )
        assert len(trace.rounds) == 1
        assert trace.summary["terminated"] is False
        assert trace.summary["levels"] == 0
        assert trace.summary["trigger_applications"] == 0
        assert multiprocessing.active_children() == []


class TestPipeAccounting:
    """Every payload byte rides the pipe, and the transport counters see
    each one: what the parent writes to and reads from its connections
    equals ``bytes_sent``/``bytes_received``, stop handshake included."""

    TC = "E(x,y), E(y,z) -> E(x,z)"
    POOL = EngineConfig("persistent", workers=2)

    @pytest.mark.parametrize(
        "run",
        [semi_naive_closure, restricted_chase],
        ids=["closure", "restricted_chase"],
    )
    def test_counters_match_the_connection_traffic(self, monkeypatch, run):
        from multiprocessing.connection import Connection

        parent = os.getpid()
        wire = {"sent": 0, "received": 0}
        send_bytes, recv_bytes = Connection.send_bytes, Connection.recv_bytes

        def counted_send(self, buf, *args):
            if os.getpid() == parent:
                wire["sent"] += len(buf)
            return send_bytes(self, buf, *args)

        def counted_recv(self, *args):
            blob = recv_bytes(self, *args)
            if os.getpid() == parent:
                wire["received"] += len(blob)
            return blob

        monkeypatch.setattr(Connection, "send_bytes", counted_send)
        monkeypatch.setattr(Connection, "recv_bytes", counted_recv)
        sent = TRANSPORT_STATS.bytes_sent
        received = TRANSPORT_STATS.bytes_received
        run(path_instance(24), parse_rules(self.TC), engine=self.POOL)
        assert wire["sent"] == TRANSPORT_STATS.bytes_sent - sent > 0
        assert (
            wire["received"] == TRANSPORT_STATS.bytes_received - received > 0
        )
        assert multiprocessing.active_children() == []
