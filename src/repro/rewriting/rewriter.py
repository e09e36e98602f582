"""Breadth-first UCQ rewriting with subsumption pruning, on the runner.

``rewrite(q, R)`` iterates one-step piece-unifications (backward chaining)
from the input CQ, minimizing the growing disjunct set by subsumption.
When a breadth level adds nothing new the rewriting is *complete*: the
resulting UCQ ``Q`` satisfies ``⟨I,R⟩ ⊨ q(t̄) ⇔ I ⊨ Q(t̄)`` — i.e. ``R``
is UCQ-rewritable for ``q`` (Definition 2), with fixpoint depth reported.

The breadth loop itself is no longer local: :class:`RewritePolicy` is a
:class:`~repro.engine.runner.FixpointPolicy` and the loop runs through
:meth:`ChaseRunner.fixpoint <repro.engine.runner.ChaseRunner.fixpoint>`,
so rewriting inherits the engine stack's budgets, strict/partial
semantics, round tracing (``plan="expand"``) and metrics-registry
telemetry — the same machinery the chase variants run on.  Query serving
(:func:`repro.serving.answer`) consumes rewriting through this module.

For rule sets that are not bdd (e.g. transitivity, Example 1) the loop
would not terminate; budgets turn that into an explicit
:class:`~repro.errors.RewritingBudgetExceeded` or an incomplete result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.bounds import (
    DEFAULT_MAX_CQ_SIZE,
    DEFAULT_MAX_DISJUNCTS,
    DEFAULT_MAX_REWRITE_DEPTH,
)
from repro.engine.runner import ChaseRunner, FixpointPolicy
from repro.errors import ChaseBudgetExceeded, RewritingBudgetExceeded
from repro.logic.terms import FreshSupply
from repro.obs import default_registry
from repro.obs.trace import TRACE_SCHEMA_VERSION, RunTrace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.minimization import is_subsumed_by_any, subsumes
from repro.queries.ucq import UCQ
from repro.rewriting.piece_unifier import one_step_rewritings
from repro.rules.ruleset import RuleSet

#: Historical names, now re-exported from :mod:`repro.chase.bounds` so the
#: rewriter and the chase entry points share one budget vocabulary.
DEFAULT_MAX_DEPTH = DEFAULT_MAX_REWRITE_DEPTH

__all__ = [
    "DEFAULT_MAX_CQ_SIZE",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_DISJUNCTS",
    "RewritePolicy",
    "RewritingResult",
    "rewrite",
    "rewrite_ucq",
]


@dataclass
class RewritingResult:
    """Outcome of a rewriting run.

    Attributes
    ----------
    ucq:
        The disjuncts accumulated so far (always sound: each disjunct's
        match entails the original query under ``R``).
    complete:
        True when a fixpoint was reached and no candidate was dropped for
        exceeding ``max_cq_size`` — the UCQ is then a rewriting in the
        sense of Definition 2.
    depth:
        Number of completed breadth levels (the fixpoint depth when
        ``complete``).
    generated:
        Total number of candidate CQs generated before minimization.
    telemetry:
        The runner's metrics-registry delta for the run (schema version
        plus ``{group: counters}``), mirroring
        :attr:`repro.chase.result.ChaseResult.telemetry`.
    """

    ucq: UCQ
    complete: bool
    depth: int
    generated: int = 0
    telemetry: dict | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(self.ucq)

    def __len__(self) -> int:
        return len(self.ucq)


class RewritePolicy(FixpointPolicy):
    """The piece-rewriter as a frontier-expansion policy.

    Owns the accumulated disjunct set (with cross-round subsumption
    minimization), the per-candidate budgets and the ``generated``
    counter; the breadth loop, depth budget, tracing and telemetry all
    live in
    :meth:`ChaseRunner.fixpoint <repro.engine.runner.ChaseRunner.fixpoint>`.

    ``max_disjuncts`` truncates the round and marks the run exhausted.
    ``max_cq_size`` strict-raises, or skips the oversized candidate and
    sets :attr:`dropped`: the breadth loop runs on without the candidate,
    but an empty level reached after a drop is no fixpoint, and
    :func:`rewrite` reports the rewriting incomplete.
    """

    variant = "rewriting"
    supply_prefix = "_rw"

    def __init__(
        self,
        query: ConjunctiveQuery,
        rules: RuleSet,
        *,
        max_disjuncts: int,
        max_cq_size: int,
        strict: bool,
        supply: FreshSupply,
    ):
        self.query = query
        self.rules = rules
        self.max_disjuncts = max_disjuncts
        self.max_cq_size = max_cq_size
        self.strict_budgets = strict
        self.supply = supply
        self.accepted: list[ConjunctiveQuery] = [query]
        self.generated = 0
        #: True once a candidate was skipped for exceeding ``max_cq_size``.
        self.dropped = False
        self._round = 0
        self._exhausted = False

    def partial(self) -> UCQ:
        """The sound UCQ accumulated so far."""
        return UCQ(self.accepted, self.query.answers)

    def expand(self, frontier: list) -> list:
        self._round += 1
        new_frontier: list[ConjunctiveQuery] = []
        for current in frontier:
            for candidate in one_step_rewritings(
                current, self.rules, supply=self.supply
            ):
                self.generated += 1
                if len(candidate.atoms) > self.max_cq_size:
                    if self.strict_budgets:
                        raise RewritingBudgetExceeded(
                            f"rewriting produced a CQ of size "
                            f"{len(candidate.atoms)} > {self.max_cq_size}",
                            partial_rewriting=self.partial(),
                            depth=self._round,
                        )
                    self.dropped = True
                    continue
                if is_subsumed_by_any(candidate, self.accepted):
                    continue
                self.accepted = [
                    q for q in self.accepted if not subsumes(candidate, q)
                ]
                new_frontier = [
                    q for q in new_frontier if not subsumes(candidate, q)
                ]
                self.accepted.append(candidate)
                new_frontier.append(candidate)
                if len(self.accepted) > self.max_disjuncts:
                    if self.strict_budgets:
                        raise RewritingBudgetExceeded(
                            f"rewriting exceeded "
                            f"{self.max_disjuncts} disjuncts",
                            partial_rewriting=self.partial(),
                            depth=self._round,
                        )
                    self._exhausted = True
                    return new_frontier
        return new_frontier

    def exhausted(self) -> bool:
        return self._exhausted

    def step_budget_message(self, max_steps: int) -> str:
        return f"rewriting did not reach a fixpoint within depth {max_steps}"


def rewrite(
    query: ConjunctiveQuery,
    rules: RuleSet,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_cq_size: int = DEFAULT_MAX_CQ_SIZE,
    strict: bool = False,
    *,
    trace: RunTrace | None = None,
) -> RewritingResult:
    """Compute ``rew(q, R)`` breadth-first with subsumption pruning.

    Parameters
    ----------
    max_depth, max_disjuncts, max_cq_size:
        Budgets; exceeding any of them either raises (``strict=True``) or
        returns an incomplete result.  Defaults come from
        :mod:`repro.chase.bounds`.  A candidate CQ with more than
        ``max_cq_size`` atoms is dropped, and the breadth loop goes on
        without it; ``complete`` is then False even when a level adds
        nothing, since the dropped candidate's rewritings were never
        explored.
    trace:
        An optional :class:`~repro.obs.trace.RunTrace`; each breadth
        level lands as one ``plan="expand"`` round record with the
        frontier size on ``delta_atoms``.
    """
    supply = FreshSupply(prefix="_rw")
    policy = RewritePolicy(
        query,
        rules,
        max_disjuncts=max_disjuncts,
        max_cq_size=max_cq_size,
        strict=strict,
        supply=supply,
    )
    runner = ChaseRunner(
        policy,
        max_steps=max_depth,
        max_atoms=max_disjuncts,
        strict=strict,
        supply=supply,
        trace=trace,
    )
    try:
        outcome = runner.fixpoint([query])
    except RewritingBudgetExceeded:
        raise
    except ChaseBudgetExceeded as exc:
        # The runner's depth-budget stop, reworded to the rewriting API's
        # exception type with the partial UCQ attached.
        raise RewritingBudgetExceeded(
            str(exc),
            partial_rewriting=policy.partial(),
            depth=max_depth,
        ) from None
    return RewritingResult(
        ucq=policy.partial(),
        complete=outcome.complete and not policy.dropped,
        depth=outcome.rounds,
        generated=policy.generated,
        telemetry=outcome.telemetry,
    )


def rewrite_ucq(
    query: UCQ,
    rules: RuleSet,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_cq_size: int = DEFAULT_MAX_CQ_SIZE,
    strict: bool = False,
    *,
    trace: RunTrace | None = None,
) -> RewritingResult:
    """Rewrite every disjunct of a UCQ and merge the results.

    The merged disjunct set is minimized across disjuncts; completeness
    requires every per-disjunct rewriting to be complete.  With a
    ``trace``, the per-disjunct runs append their rounds to the same
    trace; the telemetry block spans the whole merge.
    """
    all_disjuncts: list[ConjunctiveQuery] = []
    complete = True
    depth = 0
    generated = 0
    with default_registry().collect() as scope:
        for disjunct in query:
            result = rewrite(
                disjunct,
                rules,
                max_depth=max_depth,
                max_disjuncts=max_disjuncts,
                max_cq_size=max_cq_size,
                strict=strict,
                trace=trace,
            )
            complete = complete and result.complete
            depth = max(depth, result.depth)
            generated += result.generated
            for candidate in result.ucq:
                if not is_subsumed_by_any(candidate, all_disjuncts):
                    all_disjuncts = [
                        q
                        for q in all_disjuncts
                        if not subsumes(candidate, q)
                    ]
                    all_disjuncts.append(candidate)
    return RewritingResult(
        ucq=UCQ(all_disjuncts, query.answers),
        complete=complete,
        depth=depth,
        generated=generated,
        telemetry={
            "schema_version": TRACE_SCHEMA_VERSION,
            "registry": scope.delta,
        },
    )
