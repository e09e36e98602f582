"""The unified saturation runner: one strategy-driven loop for every variant.

The paper's chase variants (oblivious, semi-oblivious, restricted) and the
semi-naive Datalog closure are all the *same* loop — enumerate the triggers
new against the last delta, gate them, fire, record, check budgets and the
fixpoint — differing only in a handful of strategy decisions.  This module
owns that loop once:

* :class:`ChaseRunner` — engine resolution, the worker pool's
  lifecycle, the per-round enumerate → gate → fire → record cycle, budget
  handling with strict/partial semantics, and fixpoint detection.
* :class:`VariantPolicy` — the small strategy surface that actually
  differs per variant: how triggers are enumerated (delta-filtered or by
  naive re-match against a seen set), the claim gate (none, frontier-class
  dedup, or the restricted chase's satisfaction check), and the
  budget-exceeded wording of round-vs-level accounting.

The chase variants (:mod:`repro.chase.oblivious`,
:mod:`repro.chase.semi_oblivious`, :mod:`repro.chase.restricted`) and the
Datalog closure (:mod:`repro.rewriting.datalog`) are thin policy
declarations over this runner; engine features — the worker pool, the
firing stream — land here once instead of once per variant.

Both of the runner's modes grow an instance: :meth:`~ChaseRunner.run`
(the chases) and :meth:`~ChaseRunner.saturate` (the closure).  The UCQ
rewriter grows none, so its breadth loop runs in
:func:`repro.rewriting.rewriter.rewrite` itself.

One round path
--------------
Every delta round of every engine but ``naive`` — trigger enumeration
and closure derivation alike — is one call of
:func:`~repro.engine.core.round_matches` on the round's delta: inline,
or handed to the run's :class:`~repro.engine.workers.WorkerPool`, which
splits the delta across its workers and merges their replies into the
same result.  :func:`~repro.chase.trigger.round_triggers` turns the
per-rule matches into the round's triggers in canonical order.

One firing path
---------------
Every round of every variant fires through one lazy stream,
``((t, t.output(supply)) for t in triggers if claim(t))``, handed to
:meth:`~repro.chase.result.ChaseResult.record_round`.  The recorder pulls
the stream one application at a time and records it before it pulls the
next, so each claim runs exactly once per trigger, in canonical order,
and sees every atom the round has added so far — which is what the
restricted chase's satisfaction check needs — and a mid-round budget
stop claims, instantiates and draws nothing further.  Two round modes
(:attr:`VariantPolicy.round_mode`) prune inside the join kernel the
existential-free images that cannot add an atom — a ground head present
at round start, or one a smaller image of the same rule grounds too —
so the stream carries only the survivors.  The restricted chase's
enumeration (``enumerate_unsatisfied``) drops them, since its claim
would skip them, and parks the survivors' heads, so most of its claims
are a membership test of a parked head.  The oblivious chase's
(``enumerate_counted``) applies every trigger, so its pruned images
reach the recorder as :class:`~repro.chase.trigger.CountedImages`:
each is one application that adds nothing, counted without a
``Trigger`` being built, and ordered against the stream only when the
atom budget stops the round.

Import layering
---------------
``repro.engine`` sits *below* ``repro.chase`` (the trigger module builds
on :mod:`repro.engine.core`), so this module imports the trigger/result
layer lazily inside its methods — the runner is importable from either
direction without cycles.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.core import delta_rows, round_matches, rule_delta_match
from repro.engine.workers import TRANSPORT_STATS, WorkerPool
from repro.errors import ChaseBudgetExceeded, ChaseError
from repro.logic.terms import FreshSupply
from repro.obs import default_registry
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    RoundRecorder,
    RunTrace,
    active_round,
    timed,
)

if TYPE_CHECKING:  # annotation-only: keeps engine importable below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import CountedImages, Trigger
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.rules.ruleset import RuleSet


#: A claim gate: called once per trigger, in canonical firing order,
#: while the round fires; False skips the trigger.
Claim = Callable[["Trigger"], bool]


def _timed_claim(claim: Claim, recorder: RoundRecorder) -> Claim:
    """Wrap ``claim`` so each call's wall-clock lands on ``gate``.

    Installed only while a round is traced.
    """
    perf = time.perf_counter
    add_phase = recorder.add_phase

    def gated(trigger: "Trigger") -> bool:
        start = perf()
        try:
            return claim(trigger)
        finally:
            add_phase("gate", perf() - start)

    return gated


class VariantPolicy:
    """The strategy surface of one saturation variant.

    A policy instance is created per run (it may carry per-run state such
    as the naive engine's seen set or the semi-oblivious frontier classes)
    and handed to :class:`ChaseRunner`, which owns everything else.  The
    base class implements the common case — unfiltered delta enumeration,
    no claim gate, level accounting — so concrete policies only
    override what genuinely differs.
    """

    #: Human-readable variant name, used in budget-exceeded messages.
    variant = "chase"
    #: Prefix of the run's default :class:`~repro.logic.terms.FreshSupply`.
    supply_prefix = "_n"
    #: Stop (fixpoint) as soon as a round enumerates no new triggers.
    stop_on_empty_round = True
    #: Stop (fixpoint) when a fired round recorded no applications — the
    #: restricted chase's convergence rule.
    stop_on_idle_round = False
    #: After the step budget runs out, enumerate once more to distinguish
    #: "stopped exactly at the fixpoint" from a genuine budget stop.
    probe_fixpoint = True
    #: What a step is called in budget messages (``levels`` or ``rounds``).
    step_noun = "levels"
    #: The :func:`~repro.engine.core.round_matches` mode of a round on
    #: the delta-family engines (``naive`` stays unpruned).
    #: ``"enumerate"`` builds a trigger per distinct image.  The pruned
    #: modes build none for an existential-free image whose ground head
    #: is present at round start, or repeats a smaller image's head:
    #: ``"enumerate_unsatisfied"`` drops them, sound only for a claim
    #: gate that skips satisfied triggers (the restricted chase);
    #: ``"enumerate_counted"`` counts each as an application that adds
    #: nothing, sound only for a policy that applies every trigger it
    #: enumerates, with no claim gate that skips one and no
    #: :meth:`filter_new` that drops one (the oblivious chase).
    round_mode = "enumerate"

    # -- enumeration ---------------------------------------------------

    def filter_new(self, triggers: Iterable["Trigger"]) -> list["Trigger"]:
        """Post-filter the delta/parallel enumeration of one round."""
        return triggers if isinstance(triggers, list) else list(triggers)

    def naive_new_triggers(
        self, instance: "Instance", rules: "RuleSet"
    ) -> list["Trigger"]:
        """One round of the naive engine: full re-match minus the seen set.

        The policy owns the seen-set bookkeeping (trigger identity for the
        oblivious/restricted variants, frontier classes for the
        semi-oblivious one) and must register the returned triggers so the
        next round does not re-fire them.
        """
        raise NotImplementedError

    # -- fixpoint probe ------------------------------------------------

    def naive_has_remaining(
        self, instance: "Instance", rules: "RuleSet"
    ) -> bool:
        """Existence probe after the step budget, naive engine."""
        raise NotImplementedError

    def delta_has_remaining(
        self, instance: "Instance", rules: "RuleSet", delta: list["Atom"]
    ) -> bool:
        """Existence probe after the step budget, delta engines.

        Whether some rule has a body match that uses a delta atom, asked
        of the join kernel's existence mode
        (:func:`~repro.engine.core.rule_delta_match`), which stops at the
        first match.  It runs inline on every engine (the worker pool is
        already closed when this runs).
        """
        rows = delta_rows(instance, delta)
        return any(rule_delta_match(rule, instance, rows)[0] for rule in rules)

    # -- firing --------------------------------------------------------

    def round_claim(
        self, result: "ChaseResult", triggers: Sequence["Trigger"]
    ) -> Claim | None:
        """The claim gate of one round; ``None`` fires every trigger.

        The claim may be stateful and may read ``result.instance``: it
        runs exactly once per trigger, in canonical order, after every
        earlier application of the round is recorded, and never past a
        mid-round budget stop.
        """
        return None

    # -- goal-directed stopping ----------------------------------------

    def round_complete(self, result: "ChaseResult") -> bool:
        """Post-round hook; return True to stop the run at this round.

        Evaluated after the round's applications are recorded (and after
        the idle-round fixpoint check).  A True return is a *goal stop*:
        the run ends with ``result.stopped_on_goal`` set and without the
        post-budget fixpoint probe — the instance is a sound chase prefix,
        not necessarily the full chase.  The default never stops, so the
        existing variants are unaffected.  While the round is traced the
        hook's wall-clock lands on the ``probe`` phase.
        """
        return False

    # -- budget wording ------------------------------------------------

    def atom_budget_message(self, max_atoms: int, step: int) -> str:
        return f"{self.variant} exceeded {max_atoms} atoms"

    def step_budget_message(self, max_steps: int) -> str:
        return (
            f"{self.variant} did not terminate within "
            f"{max_steps} {self.step_noun}"
        )


class ChaseRunner:
    """The saturation loop every chase variant and closure runs through.

    One runner serves one run: it resolves the engine, owns the worker
    pool of a pooled engine (spawned on the first round that fans out,
    released by :meth:`close` when the run ends), executes the
    per-round enumerate → gate → fire → record cycle, enforces the atom
    and step budgets with strict/partial semantics, and detects the
    fixpoint.  Everything variant-specific is delegated to the
    :class:`VariantPolicy`.

    Parameters
    ----------
    policy:
        The per-run strategy instance.
    engine:
        A registered engine name or an explicit :class:`EngineConfig`.
    max_steps:
        The level/round budget (the policy's ``step_noun`` names it).
    max_atoms:
        Abort (or raise, with ``strict=True``) when the instance outgrows
        this budget mid-round.
    strict:
        When True, exceeding a budget raises
        :class:`~repro.errors.ChaseBudgetExceeded` instead of returning
        the partial result.
    supply:
        The run's fresh-null supply; defaults to a new supply with the
        policy's prefix.
    trace:
        An optional :class:`~repro.obs.trace.RunTrace`.  When given, the
        runner emits one structured record per round — disjoint phase
        timers (enumerate/gate/fire/record/sync/probe), trigger and
        new-atom counts, the round plan, per-worker routing weights, and
        transport byte / worker-time deltas — plus a run header and a
        final summary.  Tracing never changes results: the engine hooks
        are no-ops while no round is active.
    """

    def __init__(
        self,
        policy: VariantPolicy,
        engine: str | EngineConfig = "delta",
        *,
        max_steps: int,
        max_atoms: int,
        strict: bool = False,
        supply: FreshSupply | None = None,
        trace: RunTrace | None = None,
    ):
        self.policy = policy
        self.config = resolve_engine(engine)
        self.max_steps = max_steps
        self.max_atoms = max_atoms
        self.strict = strict
        self.supply = supply or FreshSupply(prefix=policy.supply_prefix)
        self.trace = trace
        self._seen_revision = 0
        self._pool: WorkerPool | None = (
            WorkerPool(self.config.workers) if self.config.uses_pool else None
        )
        self._used = False
        self._wire_mark: tuple | None = None

    def _begin_trace(self, mode: str) -> None:
        if self.trace is not None:
            self.trace.begin_run(
                variant=self.policy.variant,
                engine=self.config.name,
                mode=mode,
                workers=self.config.workers,
                max_steps=self.max_steps,
                max_atoms=self.max_atoms,
            )

    def _begin_round(
        self, number: int, plan: str | None = None
    ) -> RoundRecorder | None:
        """Open round ``number``'s trace record, if the run is traced.

        Marks the transport counters too, so :meth:`_end_round` can
        report the round's byte and worker-time deltas.
        """
        if self.trace is None:
            return None
        self._wire_mark = (
            TRANSPORT_STATS.bytes_sent,
            TRANSPORT_STATS.bytes_received,
            TRANSPORT_STATS.worker_totals(),
        )
        recorder = self.trace.begin_round(number)
        recorder.plan = plan
        return recorder

    def _end_round(self, recorder: RoundRecorder | None, **counts) -> None:
        """Close a traced round with ``counts`` and its transport deltas."""
        if recorder is None:
            return
        sent, received, worker_before = self._wire_mark
        worker_after = TRANSPORT_STATS.worker_totals()
        self.trace.end_round(
            recorder,
            **counts,
            transport={
                "bytes_sent": TRANSPORT_STATS.bytes_sent - sent,
                "bytes_received": TRANSPORT_STATS.bytes_received - received,
            },
            worker={
                key: worker_after[key] - worker_before[key]
                for key in worker_after
            },
        )

    # ------------------------------------------------------------------
    # Trigger-mode runs (the three chase variants)
    # ------------------------------------------------------------------

    def run(self, instance: "Instance", rules: "RuleSet") -> "ChaseResult":
        """Run the policy's chase from ``instance`` under ``rules``.

        Returns the :class:`~repro.chase.result.ChaseResult` with full
        timestamps and provenance; all engines produce bit-identical
        results (same atoms, levels, null names, provenance records and
        budget-stop supply positions) for every worker count.

        The run executes inside a :meth:`MetricsRegistry.collect
        <repro.obs.registry.MetricsRegistry.collect>` scope of the
        default registry; the counter deltas it isolates land on
        ``result.telemetry`` (also on the strict-mode partial result).
        """
        from repro.chase.result import ChaseResult

        self._claim_run()
        result = ChaseResult(instance)
        self._begin_trace("trigger")
        try:
            with default_registry().collect() as scope:
                self._run_rounds(result, rules)
        finally:
            result.telemetry = {
                "schema_version": TRACE_SCHEMA_VERSION,
                "registry": scope.delta,
            }
            if self.trace is not None:
                self.trace.finish_run(
                    terminated=result.terminated, **result.statistics()
                )
        return result

    def _run_rounds(self, result: "ChaseResult", rules: "RuleSet") -> None:
        """The per-round loop of a trigger-mode run.

        Mutates ``result`` in place (levels, termination flag) so every
        stop path — fixpoint, budget, strict raise — leaves it
        consistent for the :meth:`run` wrapper to finalize.
        """
        policy = self.policy
        try:
            for step in range(self.max_steps):
                recorder = self._begin_round(step + 1)
                atoms_before = len(result.instance)
                triggers_count = 0
                applied = 0
                try:
                    with timed(recorder, "enumerate"):
                        triggers, counted = self._new_triggers(
                            result.instance, rules
                        )
                    triggers_count = len(triggers) + len(counted)
                    if policy.stop_on_empty_round and not triggers_count:
                        result.terminated = True
                        result.levels_completed = step
                        return
                    claim = policy.round_claim(result, triggers)
                    if recorder is not None:
                        recorder.plan = "batched"
                        if claim is not None:
                            claim = _timed_claim(claim, recorder)
                    supply = self.supply
                    with timed(recorder, "fire"):
                        applied, exceeded = result.record_round(
                            (
                                (t, t.output(supply))
                                for t in triggers
                                if claim is None or claim(t)
                            ),
                            level=step + 1,
                            max_atoms=self.max_atoms,
                            counted=counted,
                        )
                    if exceeded:
                        result.levels_completed = step
                        if self.strict:
                            raise ChaseBudgetExceeded(
                                policy.atom_budget_message(
                                    self.max_atoms, step + 1
                                ),
                                partial_result=result,
                            )
                        return
                    result.levels_completed = step + 1
                    if policy.stop_on_idle_round and not applied:
                        result.terminated = True
                        return
                    with timed(recorder, "probe"):
                        goal_stop = policy.round_complete(result)
                    if goal_stop:
                        result.stopped_on_goal = True
                        return
                finally:
                    self._end_round(
                        recorder,
                        triggers=triggers_count,
                        applied=applied,
                        new_atoms=len(result.instance) - atoms_before,
                    )
        finally:
            self.close()

        if policy.probe_fixpoint and not self._has_remaining(
            result.instance, rules
        ):
            result.terminated = True
        elif self.strict:
            raise ChaseBudgetExceeded(
                policy.step_budget_message(self.max_steps),
                partial_result=result,
            )

    def _new_triggers(
        self, instance: "Instance", rules: "RuleSet"
    ) -> tuple[list["Trigger"], "CountedImages"]:
        """Enumerate one round's candidate triggers on the run's engine,
        with the applications it counts instead of building a trigger
        (none on ``naive`` or outside ``enumerate_counted``)."""
        from repro.chase.trigger import CountedImages, round_triggers

        policy = self.policy
        if self.config.is_naive:
            return policy.naive_new_triggers(instance, rules), CountedImages()
        mode = policy.round_mode
        per_rule = self._round_matches(mode, instance, rules)
        triggers, counted = round_triggers(rules, per_rule, mode)
        return policy.filter_new(triggers), counted

    def _round_matches(
        self, mode: str, instance: "Instance", rules: "RuleSet"
    ):
        """:func:`~repro.engine.core.round_matches` of what the instance
        gained since the last round, on the run's pool if it has one;
        ``naive`` (only derivation rounds reach it) re-matches it all."""
        if self.config.is_naive:
            return round_matches(mode, rules, instance, None)
        delta = instance.delta_since(self._seen_revision)
        self._seen_revision = instance.revision
        recorder = active_round()
        if recorder is not None:
            recorder.delta_atoms = len(delta)
        if self._pool is not None:
            return self._pool.round_matches(mode, rules, instance, delta)
        return round_matches(mode, rules, instance, delta_rows(instance, delta))

    def _has_remaining(self, instance: "Instance", rules: "RuleSet") -> bool:
        """The post-budget fixpoint probe."""
        if self.config.is_naive:
            return self.policy.naive_has_remaining(instance, rules)
        delta = instance.delta_since(self._seen_revision)
        return self.policy.delta_has_remaining(instance, rules, delta)

    # ------------------------------------------------------------------
    # Derivation-mode runs (the Datalog closure)
    # ------------------------------------------------------------------

    def saturate(self, instance: "Instance", rules: "RuleSet") -> "Instance":
        """Run a derivation-mode saturation to its set fixpoint.

        The loop of the semi-naive Datalog closure: each round derives the
        head atoms whose body uses at least one delta atom — with no
        trigger identity or provenance, which is all a saturation needs —
        and folds the new ones in.  Budget violations always raise (a
        closure has no meaningful partial-result mode); the overgrown or
        unconverged instance rides along as ``partial_result``.

        With a :class:`~repro.obs.trace.RunTrace` attached each round is
        recorded with ``plan="derive"``: the derivation sweep lands on
        the ``enumerate`` phase, the fold-in of new atoms on ``record``.
        A round's ``triggers`` counts the distinct heads it derived.  A
        delta round derives only heads the instance lacks at round start
        (:func:`~repro.engine.core.derive_delta_rows`), so on every engine
        but ``naive`` ``triggers == applied == new_atoms``; ``naive``
        re-derives every head of the whole instance, present or not.
        """
        self._claim_run()
        policy = self.policy
        total = instance.copy()
        self._begin_trace("derivation")
        # Rounds that ran, and whether the last one reached the fixpoint:
        # the trace summary written on every stop path below.
        rounds = 0
        terminated = False
        try:
            for step in range(self.max_steps):
                recorder = self._begin_round(step + 1, plan="derive")
                rounds = step + 1
                derived = new_atoms = ()
                try:
                    with timed(recorder, "enumerate"):
                        derived = self._round_matches("derive", total, rules)
                    with timed(recorder, "record"):
                        new_atoms = {a for a in derived if a not in total}
                        if new_atoms:
                            total.update(new_atoms)
                finally:
                    self._end_round(
                        recorder,
                        triggers=len(derived),
                        applied=len(new_atoms),
                        new_atoms=len(new_atoms),
                    )
                if not new_atoms:
                    # The empty round only confirmed the fixpoint.
                    rounds, terminated = step, True
                    return total
                if len(total) > self.max_atoms:
                    raise ChaseBudgetExceeded(
                        policy.atom_budget_message(self.max_atoms, 0),
                        partial_result=total,
                    )
            raise ChaseBudgetExceeded(
                policy.step_budget_message(self.max_steps),
                partial_result=total,
            )
        finally:
            self.close()
            if self.trace is not None:
                self.trace.finish_run(
                    terminated=terminated, atoms=len(total), rounds=rounds
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _claim_run(self) -> None:
        """Reject reuse: one runner serves one run.

        The revision watermark and the policy's per-run state (seen sets,
        fired frontier classes) are meaningless against a second instance,
        so a reused runner would silently enumerate a wrong delta —
        raising is the only safe behavior.
        """
        if self._used:
            raise ChaseError(
                "a ChaseRunner serves exactly one run; construct a new "
                "runner (and policy) per chase or closure"
            )
        self._used = True

    def close(self) -> None:
        """Shut the run's worker pool down (idempotent); every trigger and
        derivation run calls it on each of its stop paths."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
