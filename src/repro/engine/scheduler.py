"""The parallel round scheduler: sharded fan-out, canonical merge.

One :class:`RoundScheduler` serves one chase (or closure) run.  Each round
it routes the level's delta through a :class:`~repro.engine.shards.ShardedIndex`,
fans the per-shard enumeration out over a worker pool, and merges the
candidates back into the canonical order of the sequential delta engine —
per rule in rule-set order, matches sorted by body-variable image — so the
results are bit-identical no matter how many workers or shards ran.

Workers and determinism
-----------------------
Shard assignment is hash-based and workers finish in arbitrary order, but
neither can influence the output: every shard worker returns its matches
keyed by canonical image, equal keys imply equal (restricted) matches, and
the merge is a keyed union followed by a sort.  The worker/shard count is
therefore purely a throughput knob.

Threads, processes, persistent workers
--------------------------------------
The default pool is threads: enumeration only *reads* the shared instance
(index-cache fills are idempotent, and the join kernel's id view is
brought up to date before the fan-out), so no locking is needed, and thread
fan-out composes with free-threaded builds and with matchers that release
the GIL.  On a GIL build the wall-clock win of ``engine="parallel"`` comes
from the batched firing path (:mod:`repro.engine.batch`) rather than from
concurrency; ``use_processes=True`` opts into a process pool that
sidesteps the GIL at the cost of pickling the instance per round (the
blob is built once per (revision, rules) and reused across same-revision
rounds), which pays off only when per-round matching dominates by a wide
margin.  ``persistent_workers=True`` replaces the executor with a
:class:`~repro.engine.workers.WorkerPool`: workers keep long-lived
instance replicas seeded once and synced with per-round deltas, and the
*firing* path is sharded across the pool too (:meth:`RoundScheduler.fire_round`)
— for every batched round the :class:`~repro.engine.runner.ChaseRunner`
policies produce.  All pool payloads — sync deltas, pivots, fire task
slices and their replies — travel in the interned-term columnar
encoding of :mod:`repro.engine.wire` (flat id buffers over a shared
append-only symbol table), batched per worker: the scheduler hands the
pool one task list per worker and gets one merged reply per worker
back, never per-trigger messages.  The restricted chase enumerates
through :meth:`RoundScheduler.unsatisfied_images`: every shard — a
worker replica on the persistent backend — drops the existential-free
matches whose ground head is already present or repeated before
replying, so its round-start satisfaction check rides the enumeration
itself.

Shard → worker placement on the persistent pool is hash-uniform
round-robin by default; ``EngineConfig.adaptive_routing`` switches to
size-balanced placement (largest shard first onto the least-loaded
worker, by wire byte weight — :func:`~repro.engine.shards.atom_weight`
is exactly the packed-encoding cost, so routing balances the bytes the
pool actually ships), which keeps a skewed delta — one hot predicate
hashing into one shard — from serializing the pool.  Placement never
affects results.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.batch import RoundOutcome
from repro.obs.trace import active_round
from repro.engine.config import EngineConfig
from repro.engine.core import (
    derive_delta_atoms,
    id_view,
    rule_delta_images,
    rule_unsatisfied_images,
)
from repro.engine.shards import ShardedIndex, atom_weight
from repro.engine.workers import TRANSPORT_STATS, WorkerPool, _fire_payload
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.rules.rule import Rule

if TYPE_CHECKING:  # annotation-only: keeps engine importable below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import Trigger
    from repro.logic.terms import FreshSupply

#: Task modes shipped to shard workers (the persistent pool's command
#: names).
_ENUMERATE = "enumerate"
_UNSATISFIED = "enumerate_unsatisfied"
_DERIVE = "derive"


def _run_shard(
    mode: str,
    rules: Sequence[Rule],
    instance: Instance,
    view: Instance,
):
    """Enumerate one shard's delta view against the full instance.

    Returns per-rule ``{image: homomorphism}`` dicts in the enumeration
    modes — all matches (``enumerate``) or the restricted chase's pruned
    ones (``enumerate_unsatisfied``, checked against ``instance``, the
    round-start state) — or the derived head-atom set in ``derive`` mode.
    Top-level so process pools can pickle it by reference.
    """
    if mode == _DERIVE:
        derived: set[Atom] = set()
        for rule in rules:
            derived.update(derive_delta_atoms(rule, instance, view))
        return derived
    images = (
        rule_unsatisfied_images if mode == _UNSATISFIED else rule_delta_images
    )
    return [images(rule, instance, view) for rule in rules]


def _run_shard_payload(payload):
    """Process-pool entry point: unpack one pickled shard task.

    The shared (rules, instance) context arrives as one pre-pickled blob —
    serialized once per round by the parent, shipped as raw bytes per task
    — so the parent does a single object-graph pickle per round no matter
    how many shards run.
    """
    context_blob, mode, atoms = payload
    rules, instance = pickle.loads(context_blob)
    view = Instance(atoms, add_top=False)
    return _run_shard(mode, rules, instance, view)


def _merge_images(
    rules: Sequence[Rule], shard_results: Iterable[list[dict]]
) -> list[list[tuple[tuple, Substitution]]]:
    """Keyed union of per-shard ``{image: hom}`` dicts, sorted per rule.

    Equal images imply equal restricted homomorphisms, so a body
    touching delta atoms in two shards merges to one match.
    """
    merged: list[dict[tuple, Substitution]] = [{} for _ in rules]
    for per_rule in shard_results:
        for target, found in zip(merged, per_rule):
            for image, hom in found.items():
                if image not in target:
                    target[image] = hom
    return [sorted(found.items()) for found in merged]


class RoundScheduler:
    """Fans per-round delta enumeration out across a worker pool.

    Create one per run and :meth:`close` it afterwards (the chase variants
    do both); the pool and the sharded index persist across rounds.  With
    ``workers == 1`` everything runs inline — same code path, no pool —
    which the determinism tests use as the parallel baseline.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        # Chase deltas never repeat an atom, so the index skips cumulative
        # shard copies and only routes per-round views (half the memory).
        self._index = ShardedIndex(config.shard_count, track_shards=False)
        self._executor: Executor | None = None
        self._worker_pool: WorkerPool | None = None
        # Legacy process-mode context cache: (instance, revision, rules)
        # -> pickled blob, so two same-revision rounds (e.g. enumeration
        # then firing, or repeated fixpoint probes) serialize the
        # object graph once instead of once per call.
        self._context: tuple[Instance, int, tuple[Rule, ...], bytes] | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _pool(self) -> Executor:
        if self._executor is None:
            workers = self.config.workers
            if self.config.use_processes:
                self._executor = ProcessPoolExecutor(max_workers=workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-engine",
                )
        return self._executor

    def _persistent_pool(self) -> WorkerPool:
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(
                self.config.workers,
                columnar=self.config.columnar,
                shared_memory=self.config.shared_memory,
                shm_threshold=self.config.shm_threshold,
            )
        return self._worker_pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
        self._context = None

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def _context_blob(
        self, rules: Sequence[Rule], instance: Instance
    ) -> bytes:
        """The pickled ``(rules, instance)`` context of legacy process
        mode, cached per (instance identity, revision, rules).

        Enumeration and firing of one round, and repeated probes on an
        unchanged instance, hit the cache; any mutation bumps the
        revision and invalidates it.
        """
        rules = tuple(rules)
        cached = self._context
        if (
            cached is not None
            and cached[0] is instance
            and cached[1] == instance.revision
            and cached[2] == rules
        ):
            return cached[3]
        # checks: allow[T202] -- the legacy process backend ships the whole
        # context by design (it is the baseline the persistent pool is
        # measured against); the bytes are budget-gated via context_bytes.
        blob = pickle.dumps(
            (rules, instance), protocol=pickle.HIGHEST_PROTOCOL
        )
        TRANSPORT_STATS.context_pickles += 1
        TRANSPORT_STATS.context_bytes += len(blob)
        self._context = (instance, instance.revision, rules, blob)
        return blob

    def _run_round(
        self,
        mode: str,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list:
        """Shard the delta, run one task per non-empty shard, return the
        per-shard results in shard order."""
        views = self._index.ingest(delta)
        recorder = active_round()
        if recorder is not None:
            # The adaptive router's cost model, reported per shard: the
            # packed-encoding byte weight each shard routed this round.
            recorder.shard_weights = tuple(
                sum(atom_weight(atom) for atom in view) if len(view) else 0
                for view in views
            )
        tasks = [view for view in views if len(view)]
        if not tasks:
            return []
        if self.config.workers == 1 or len(tasks) == 1:
            return [_run_shard(mode, rules, instance, v) for v in tasks]
        if self.config.is_persistent:
            pool = self._persistent_pool()
            return pool.run_round(
                mode, rules, instance, self._route_pivots(views, pool.size)
            )
        if self.config.use_processes:
            context_blob = self._context_blob(rules, instance)
            payloads = [
                (context_blob, mode, tuple(v.sorted_atoms())) for v in tasks
            ]
            return list(self._pool().map(_run_shard_payload, payloads))
        if mode != _ENUMERATE and any(
            not rule.existential_order() for rule in rules
        ):
            # The join kernel reads the instance's id view: sync it once
            # here so the shard threads only read it.
            id_view(instance)
        return list(
            self._pool().map(
                lambda v: _run_shard(mode, rules, instance, v), tasks
            )
        )

    def _route_pivots(
        self, views: Sequence[Instance], pool_size: int
    ) -> list[list[Atom]]:
        """Shard → worker placement for the persistent pool.

        The reference placement is hash-uniform: round-robin on the shard
        index.  With ``adaptive_routing`` the round's non-empty shard
        views are binned onto workers largest-first by estimated byte
        weight (greedy bin packing: heaviest view to the least-loaded
        worker), so one hot predicate hashing into one shard no longer
        pins the whole round's work on one worker.  Placement is a pure
        function of the views, and — like shard routing itself — can
        never affect results, only load balance: the merge is keyed by
        canonical image.
        """
        pivots: list[list[Atom]] = [[] for _ in range(pool_size)]
        if not self.config.adaptive_routing:
            for shard, view in enumerate(views):
                if len(view):
                    pivots[shard % pool_size].extend(view.sorted_atoms())
            return pivots
        weights = {
            shard: sum(atom_weight(a) for a in view)
            for shard, view in enumerate(views)
            if len(view)
        }
        loads = [0] * pool_size
        for shard in sorted(weights, key=lambda s: (-weights[s], s)):
            worker = min(range(pool_size), key=lambda w: (loads[w], w))
            loads[worker] += weights[shard]
            pivots[worker].extend(views[shard].sorted_atoms())
        return pivots

    def enumerate_images(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list[list[tuple[tuple, Substitution]]]:
        """Canonically ordered body matches of one round.

        Returns one list per rule (in rule order) of ``(image, hom)``
        pairs sorted by image — exactly the order the sequential delta
        engine fires in.  Duplicate images across shards (a body touching
        delta atoms in two shards) merge by keyed union.
        """
        return _merge_images(
            rules, self._run_round(_ENUMERATE, instance, rules, delta)
        )

    def unsatisfied_images(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list[list[tuple[tuple, Substitution]]]:
        """:meth:`enumerate_images` for the restricted chase.

        Each shard runs :func:`~repro.engine.core.rule_unsatisfied_images`
        against the round-start instance (a worker's synced replica on
        the persistent backend), so existential-free matches whose ground
        head is present or repeated never leave the shard.  Two shards
        may still each keep an image for one head;
        :func:`~repro.chase.trigger.restricted_new_triggers_of` keeps the
        smallest.
        """
        return _merge_images(
            rules, self._run_round(_UNSATISFIED, instance, rules, delta)
        )

    def derive_atoms(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> set[Atom]:
        """Batched derivation mode: the union of all head instantiations
        whose body uses ≥ 1 delta atom (order-free, for saturations)."""
        shard_results = self._run_round(_DERIVE, instance, rules, delta)
        derived: set[Atom] = set()
        for per_shard in shard_results:
            derived.update(per_shard)
        return derived

    # ------------------------------------------------------------------
    # Sharded firing
    # ------------------------------------------------------------------

    @property
    def can_fire_rounds(self) -> bool:
        """True when this scheduler shards non-interleaved firing.

        Only the process backends qualify: pure-Python head instantiation
        under one GIL gains nothing from thread fan-out, so thread mode
        keeps the inline batched path of :func:`repro.engine.batch.fire_round`.
        """
        return self.config.workers > 1 and (
            self.config.is_persistent or self.config.use_processes
        )

    def fire_round(
        self,
        result: "ChaseResult",
        triggers: Sequence["Trigger"],
        supply: "FreshSupply",
        *,
        level: int,
        max_atoms: int,
        claim: Callable[["Trigger"], bool] | None = None,
    ) -> RoundOutcome | None:
        """Fire one round with head instantiation sharded across workers.

        Bit-identical to the sequential batched path by construction:

        * the claim gate runs parent-side, in canonical order, exactly
          once per trigger, and *lazily with respect to budget stops*:
          the round proceeds in budget-safe chunks (see
          :meth:`_claim_cap`), so a stateful claim (the semi-oblivious
          frontier dedup) observes exactly the call sequence of the lazy
          inline stream — after a mid-round budget stop, no further
          trigger is claimed;
        * every null is drawn from ``supply`` parent-side, in canonical
          trigger order, and shipped to the worker that instantiates the
          trigger's heads — workers never allocate names;
        * a claim gate that already instantiated a trigger's ground head
          (parking it on ``Trigger._ground_output``) produces no fire
          task at all: the parked atoms are reused, instead of being
          instantiated a second time in a worker;
        * the gathered outputs are re-ordered by canonical trigger index
          and recorded through the same amortized
          :meth:`~repro.chase.result.ChaseResult.record_round` pass, so
          provenance records, atom levels and timestamps match exactly;
        * a budget stop can only land in a single-claim chunk, so the
          supply stops at exactly the position the lazy sequential
          stream stops at (the defensive rewind in :meth:`_fire_chunk`
          would restore it even if a chunk overran).

        Returns ``None`` when this round should run inline instead (too
        few triggers, or a non-sharding backend); the caller falls back
        to :func:`repro.engine.batch.fire_round` with claim and supply
        untouched.
        """
        if not self.can_fire_rounds or len(triggers) < 2:
            return None
        # The chunk cap below assumes one application adds at most
        # max_head new atoms — exact, since outputs are head images.
        max_head = max(len(t.rule.head) for t in triggers)
        total_applied = 0
        cursor = 0
        count = len(triggers)
        while cursor < count:
            cap = self._claim_cap(result, max_atoms, max_head)
            claimed: list["Trigger"] = []
            while cursor < count and len(claimed) < cap:
                trigger = triggers[cursor]
                cursor += 1
                if claim is None or claim(trigger):
                    claimed.append(trigger)
            if not claimed:
                continue
            outcome = self._fire_chunk(
                result, claimed, supply, level=level, max_atoms=max_atoms
            )
            total_applied += outcome.applied
            if outcome.budget_exceeded:
                return RoundOutcome(total_applied, True)
        return RoundOutcome(total_applied, False)

    def _claim_cap(
        self, result: "ChaseResult", max_atoms: int, max_head: int
    ) -> int:
        """How many triggers the next chunk may claim, budget-safely.

        Recording ``cap`` claimed triggers adds at most ``cap * max_head``
        atoms, so a chunk capped at ``headroom // max_head`` can never
        exceed ``max_atoms`` — claims and null draws for it run at most
        one *safe* chunk ahead of recording, never past a budget stop.
        Once the headroom is smaller than one worst-case application the
        cap degrades to 1: claim one trigger, record it, re-check — the
        exact per-trigger laziness of the inline stream, which is what
        keeps stateful claims and supply positions bit-identical there
        too.  Away from the budget the cap covers the whole round and the
        round fans out in a single chunk, as before.
        """
        headroom = max_atoms - len(result.instance)
        return max(1, headroom // max_head)

    def _fire_chunk(
        self,
        result: "ChaseResult",
        claimed: Sequence["Trigger"],
        supply: "FreshSupply",
        *,
        level: int,
        max_atoms: int,
    ) -> RoundOutcome:
        """Instantiate and record one chunk of already-claimed triggers."""
        # Draw the chunk's nulls in canonical order, remembering the
        # supply position after each trigger for exact budget-stop rewind.
        existential_maps: list[dict] = []
        positions: list[int] = []
        for trigger in claimed:
            existential_maps.append(
                {v: supply.null() for v in trigger.rule.existential_order()}
            )
            positions.append(supply.position)
        # Tasks reference rules by index into the chunk's distinct-rule
        # tuple (a few atoms per rule) instead of re-shipping the rule per
        # trigger; the persistent pool further packs each worker's task
        # list into one flat id buffer (repro.engine.wire).  Triggers
        # whose claim parked a ground output produce no task: the parked
        # atoms are the output.
        rule_indexes: dict[Rule, int] = {}
        fire_rules: list[Rule] = []
        outputs: dict[int, set[Atom]] = {}
        tasks_per_worker: list[list[tuple]] = [
            [] for _ in range(self.config.workers)
        ]
        for index, trigger in enumerate(claimed):
            parked = trigger._ground_output
            if parked is not None:
                outputs[index] = parked
                continue
            rule_index = rule_indexes.get(trigger.rule)
            if rule_index is None:
                rule_index = len(fire_rules)
                rule_indexes[trigger.rule] = rule_index
                fire_rules.append(trigger.rule)
            tasks_per_worker[index % self.config.workers].append(
                (index, rule_index, trigger.mapping, existential_maps[index])
            )
        if fire_rules:
            if self.config.is_persistent:
                pairs = self._persistent_pool().fire(
                    fire_rules, tasks_per_worker
                )
            else:
                payloads = [
                    (tuple(fire_rules), tasks)
                    for tasks in tasks_per_worker
                    if tasks
                ]
                pairs = [
                    pair
                    for per_worker in self._pool().map(_fire_payload, payloads)
                    for pair in per_worker
                ]
            outputs.update(pairs)
        applications = (
            (trigger, (outputs[index], existential_maps[index]))
            for index, trigger in enumerate(claimed)
        )
        applied, exceeded = result.record_round(
            applications, level=level, max_atoms=max_atoms
        )
        if exceeded:
            supply.rewind(positions[applied - 1])
        return RoundOutcome(applied, exceeded)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def shard_sizes(self) -> tuple[int, ...]:
        """Cumulative per-shard atom counts routed so far this run."""
        return self._index.sizes()
