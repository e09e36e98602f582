"""The parallel round scheduler: sharded fan-out, canonical merge.

One :class:`RoundScheduler` serves one chase (or closure) run whose
engine uses the worker pool (parallel mode at ``workers > 1``; at one
worker the runner runs rounds inline and opens no scheduler).  Each round
it routes the level's delta through a :class:`~repro.engine.shards.ShardedIndex`,
hands every worker its shards' slice of the delta on the persistent
:class:`~repro.engine.workers.WorkerPool`, and merges the candidates
back into the canonical order of the sequential delta engine — per rule
in rule-set order, matches sorted by body-variable image — so the
results are bit-identical no matter how many workers or shards ran.

Workers and determinism
-----------------------
Shard assignment is hash-based and workers finish in arbitrary order, but
neither can influence the output: every shard worker returns its matches
keyed by canonical image, equal keys imply equal (restricted) matches, and
the merge is a keyed union followed by a sort.  The worker/shard count is
therefore purely a throughput knob.

The pool
--------
Workers keep long-lived instance replicas seeded once and synced with
per-round deltas, and the *firing* path is sharded across the pool too
(:meth:`RoundScheduler.fire_round`) — for every batched round the
:class:`~repro.engine.runner.ChaseRunner` policies produce.  All pool
payloads — sync deltas, pivots, fire task slices and their replies —
travel in the interned-term encoding of :mod:`repro.engine.wire` (flat
id buffers over a shared append-only symbol table), batched per worker:
the scheduler hands the pool one task list per worker and gets one
merged reply per worker back, never per-trigger messages.  Shard →
worker placement is round-robin on the shard index.  A round whose delta
lands in a single shard runs inline against the parent's instance
instead; the pool's replicas catch up on its next round.  The restricted
chase enumerates through :meth:`RoundScheduler.unsatisfied_images`:
every shard — a worker replica, or the parent's instance inline — drops
the existential-free matches whose ground head is already present or
repeated before replying, so its round-start satisfaction check rides
the enumeration itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.batch import RoundOutcome
from repro.obs.trace import active_round
from repro.engine.config import EngineConfig
from repro.engine.core import (
    derive_delta_atoms,
    rule_delta_images,
    rule_unsatisfied_images,
)
from repro.engine.shards import ShardedIndex, atom_weight
from repro.engine.workers import WorkerPool
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.rules.rule import Rule

if TYPE_CHECKING:  # annotation-only: keeps engine importable below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import Trigger
    from repro.logic.terms import FreshSupply

#: Task modes run on shards (the worker pool's command names).
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
    Runs inline in the parent and inside every pool worker.
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
    """Fans per-round delta enumeration and firing out across the pool.

    Create one per run and :meth:`close` it afterwards (the runner does
    both); the pool and the sharded index persist across rounds.  The
    pool spawns lazily, on the first round that fans out.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self._index = ShardedIndex(config.shard_count)
        self._worker_pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _pool(self) -> WorkerPool:
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(
                self.config.workers,
                shared_memory=self.config.shared_memory,
                shm_threshold=self.config.shm_threshold,
            )
        return self._worker_pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def _run_round(
        self,
        mode: str,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list:
        """Shard the delta, run one task per non-empty shard, return the
        per-shard (per-worker on the pool) results."""
        views = self._index.ingest(delta)
        recorder = active_round()
        if recorder is not None:
            # Per-shard routing weights: the packed-encoding ids each
            # shard's view costs to ship this round.
            recorder.shard_weights = tuple(
                sum(atom_weight(atom) for atom in view) if len(view) else 0
                for view in views
            )
        tasks = [view for view in views if len(view)]
        if not tasks:
            return []
        if len(tasks) == 1:
            return [_run_shard(mode, rules, instance, tasks[0])]
        pool = self._pool()
        pivots: list[list[Atom]] = [[] for _ in range(pool.size)]
        for shard, view in enumerate(views):
            if len(view):
                pivots[shard % pool.size].extend(view.sorted_atoms())
        return pool.run_round(mode, rules, instance, pivots)

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
        against the round-start instance (a worker's synced replica, or
        the parent's instance for an inline round), so existential-free
        matches whose ground head is present or repeated never leave the
        shard.  Two shards
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

        Returns ``None`` when this round should run inline instead (fewer
        than two triggers); the caller falls back to
        :func:`repro.engine.batch.fire_round` with claim and supply
        untouched.
        """
        if len(triggers) < 2:
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
        # trigger; the pool packs each worker's task list into one flat
        # id buffer (repro.engine.wire).  Triggers whose claim parked a
        # ground output produce no task: the parked atoms are the output.
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
            outputs.update(self._pool().fire(fire_rules, tasks_per_worker))
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
