"""The parallel round scheduler: hash-routed fan-out, canonical merge.

One :class:`RoundScheduler` serves one chase (or closure) run whose
engine uses the worker pool (parallel mode at ``workers > 1``; at one
worker the runner runs rounds inline and opens no scheduler).  Each round
it routes the level's delta to the workers by atom hash, hands every
worker its slice of the delta on the persistent
:class:`~repro.engine.workers.WorkerPool`, and merges the candidates
back into the canonical order of the sequential delta engine — per rule
in rule-set order, matches sorted by body-variable image — so the
results are bit-identical no matter how many workers ran.

Workers and determinism
-----------------------
Routing is hash-based and workers finish in arbitrary order, but
neither can influence the output: every worker returns its matches
keyed by canonical image, equal keys imply equal (restricted) matches, and
the merge is a keyed union followed by a sort.  The worker count is
therefore purely a throughput knob.

The pool matches, the parent fires
----------------------------------
Workers keep long-lived instance replicas seeded once and synced with
per-round deltas; the pool enumerates (and, for closures, derives) and
nothing else.  Every round then fires in the parent, through the
runner's lazy claim/output stream (:mod:`repro.engine.runner`).  All pool
payloads — sync deltas, pivots and the replies — travel in the
interned-term encoding of :mod:`repro.engine.wire` (flat id buffers over
a shared append-only symbol table), one message per worker per round.
A round whose delta routes to a single worker runs inline against the
parent's instance instead; the pool's replicas catch up on its next
round.  The restricted chase enumerates through
:meth:`RoundScheduler.unsatisfied_images`: every worker — a replica, or
the parent's instance inline — drops the existential-free matches whose
ground head is already present or repeated before replying, so its
round-start satisfaction check rides the enumeration itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.trace import active_round
from repro.engine.config import EngineConfig
from repro.engine.core import (
    as_delta_instance,
    derive_delta_atoms,
    rule_delta_images,
    rule_unsatisfied_images,
)
from repro.engine.wire import atom_weight
from repro.engine.workers import WorkerPool
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.rules.rule import Rule

#: Task modes run per worker slice (the worker pool's command names).
_ENUMERATE = "enumerate"
_UNSATISFIED = "enumerate_unsatisfied"
_DERIVE = "derive"


def _run_shard(
    mode: str,
    rules: Sequence[Rule],
    instance: Instance,
    view: Instance,
):
    """Enumerate one delta slice against the full instance.

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
    rules: Sequence[Rule], worker_results: Iterable[list[dict]]
) -> list[list[tuple[tuple, Substitution]]]:
    """Keyed union of per-worker ``{image: hom}`` dicts, sorted per rule.

    Equal images imply equal restricted homomorphisms, so a body
    touching delta atoms routed to two workers merges to one match.
    """
    merged: list[dict[tuple, Substitution]] = [{} for _ in rules]
    for per_rule in worker_results:
        for target, found in zip(merged, per_rule):
            for image, hom in found.items():
                if image not in target:
                    target[image] = hom
    return [sorted(found.items()) for found in merged]


class RoundScheduler:
    """Fans per-round delta enumeration out across the pool.

    Create one per run and :meth:`close` it afterwards (the runner does
    both); the pool persists across rounds and spawns lazily, on the
    first round that fans out.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self._worker_pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _pool(self) -> WorkerPool:
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(self.config.workers)
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
        """Route the delta by hash, run one task per worker with pivots,
        return the per-worker results."""
        workers = self.config.workers
        routed: list[list[Atom]] = [[] for _ in range(workers)]
        for atom in delta:
            # checks: allow[D102] -- routing only decides *which worker*
            # computes; the merge is a keyed union sorted by canonical
            # image, so results are bit-identical across routings (pinned
            # by the equivalence matrix).
            routed[hash(atom) % workers].append(atom)
        recorder = active_round()
        if recorder is not None:
            # Per-worker routing weights: the packed-encoding ids each
            # worker's slice costs to ship this round.
            recorder.shard_weights = tuple(
                sum(atom_weight(atom) for atom in atoms) for atoms in routed
            )
        pivots = [sorted(atoms) for atoms in routed]
        busy = [atoms for atoms in pivots if atoms]
        if not busy:
            return []
        if len(busy) == 1:
            return [
                _run_shard(mode, rules, instance, as_delta_instance(busy[0]))
            ]
        return self._pool().run_round(mode, rules, instance, pivots)

    def enumerate_images(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list[list[tuple[tuple, Substitution]]]:
        """Canonically ordered body matches of one round.

        Returns one list per rule (in rule order) of ``(image, hom)``
        pairs sorted by image — exactly the order the sequential delta
        engine fires in.  Duplicate images across workers (a body touching
        delta atoms routed to two workers) merge by keyed union.
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

        Each worker runs :func:`~repro.engine.core.rule_unsatisfied_images`
        against the round-start instance (its synced replica, or the
        parent's instance for an inline round), so existential-free
        matches whose ground head is present or repeated never leave the
        worker.  Two workers may still each keep an image for one head;
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
        derived: set[Atom] = set()
        for per_worker in self._run_round(_DERIVE, instance, rules, delta):
            derived.update(per_worker)
        return derived
