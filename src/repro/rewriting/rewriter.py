"""Breadth-first UCQ rewriting with subsumption pruning.

``rewrite(q, R)`` iterates one-step piece-unifications (backward chaining)
from the input CQ, minimizing the growing disjunct set by subsumption.
When a breadth level adds nothing new the rewriting is *complete*: the
resulting UCQ ``Q`` satisfies ``⟨I,R⟩ ⊨ q(t̄) ⇔ I ⊨ Q(t̄)`` — i.e. ``R``
is UCQ-rewritable for ``q`` (Definition 2), with fixpoint depth reported.

The breadth loop lives in :func:`rewrite`: it grows no instance, so it
runs on none of the chase runner's machinery.  :class:`RewritePolicy`
holds one rewriting's state (the accepted disjuncts, the counters and
the budgets) and expands one level at a time; the loop records each
level as one ``plan="expand"`` trace round and collects the run's
metrics-registry telemetry.  Query serving (:func:`repro.serving.answer`)
consumes rewriting through this module.

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
from repro.errors import RewritingBudgetExceeded
from repro.logic.terms import FreshSupply
from repro.obs import default_registry
from repro.obs.trace import TRACE_SCHEMA_VERSION, RunTrace, timed
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
        The deepest breadth level that added a disjunct.  When
        ``complete`` it is the fixpoint depth (the empty level after it
        does not count); after ``max_depth`` levels it is ``max_depth``;
        a ``max_disjuncts`` stop reports the level it cut short, which
        added the disjunct over the budget (transitivity's ``E(x,y)``
        with ``max_disjuncts=3``: depth 3, four disjuncts).  A
        ``max_cq_size`` drop does not count as adding: with
        ``max_cq_size=3`` the same rewriting drops every candidate of
        level 3 and reports depth 2, while the strict run raises with
        :attr:`~repro.errors.RewritingBudgetExceeded.depth` 3.
    generated:
        Total number of candidate CQs generated before minimization.
    telemetry:
        The metrics-registry delta of the run (schema version plus
        ``{group: counters}``), mirroring
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


class RewritePolicy:
    """One rewriting's state: its disjuncts, counters and budgets.

    :func:`rewrite` runs the breadth loop and hands each level's frontier
    to :meth:`expand`, which returns the level's new disjuncts (the next
    frontier) and folds them into :attr:`accepted`, minimized by
    subsumption across levels.

    ``max_disjuncts`` truncates the level and sets :attr:`exhausted`.
    ``max_cq_size`` strict-raises, or skips the oversized candidate and
    sets :attr:`dropped`: the breadth loop runs on without the candidate,
    but an empty level reached after a drop is no fixpoint, and
    :func:`rewrite` reports the rewriting incomplete.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        rules: RuleSet,
        *,
        max_disjuncts: int,
        max_cq_size: int,
        strict: bool,
    ):
        self.query = query
        self.rules = rules
        self.max_disjuncts = max_disjuncts
        self.max_cq_size = max_cq_size
        self.strict = strict
        self.supply = FreshSupply(prefix="_rw")
        self.accepted: list[ConjunctiveQuery] = [query]
        self.generated = 0
        #: True once a candidate was skipped for exceeding ``max_cq_size``.
        self.dropped = False
        #: True once ``max_disjuncts`` truncated a level.
        self.exhausted = False

    def partial(self) -> UCQ:
        """The sound UCQ accumulated so far."""
        return UCQ(self.accepted, self.query.answers)

    def expand(
        self, frontier: list[ConjunctiveQuery], level: int
    ) -> list[ConjunctiveQuery]:
        """Breadth level ``level``: the new disjuncts one step from
        ``frontier``."""
        new_frontier: list[ConjunctiveQuery] = []
        for current in frontier:
            for candidate in one_step_rewritings(
                current, self.rules, supply=self.supply
            ):
                self.generated += 1
                if len(candidate.atoms) > self.max_cq_size:
                    if self.strict:
                        raise RewritingBudgetExceeded(
                            f"rewriting produced a CQ of size "
                            f"{len(candidate.atoms)} > {self.max_cq_size}",
                            partial_rewriting=self.partial(),
                            depth=level,
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
                    if self.strict:
                        raise RewritingBudgetExceeded(
                            f"rewriting exceeded "
                            f"{self.max_disjuncts} disjuncts",
                            partial_rewriting=self.partial(),
                            depth=level,
                        )
                    self.exhausted = True
                    return new_frontier
        return new_frontier


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

    Level ``d`` rewrites the disjuncts that level ``d - 1`` added.  A
    level that adds nothing is the fixpoint, and ``depth`` is the level
    before it; a disjunct budget stop or ``max_depth`` levels without a
    fixpoint leave the rewriting incomplete at the level that ran last.
    Either way ``depth`` is the deepest level that added a disjunct
    (:attr:`RewritingResult.depth`): on transitivity's ``E(x,y)``,
    ``max_disjuncts=3`` stops in level 3 and reports 3, and
    ``max_cq_size=3`` drops all of level 3 and reports 2.  A strict
    budget error carries the level it was raised in instead: 3 for that
    ``max_cq_size=3`` run, the level cut short for ``max_disjuncts``,
    and ``max_depth`` for a missed fixpoint.

    Parameters
    ----------
    max_depth, max_disjuncts, max_cq_size:
        Budgets; exceeding any of them either raises
        :class:`~repro.errors.RewritingBudgetExceeded` (``strict=True``)
        or returns an incomplete result.  Defaults come from
        :mod:`repro.chase.bounds`.  A candidate CQ with more than
        ``max_cq_size`` atoms is dropped, and the breadth loop goes on
        without it; ``complete`` is then False even when a level adds
        nothing, since the dropped candidate's rewritings were never
        explored.
    trace:
        An optional :class:`~repro.obs.trace.RunTrace`; each breadth
        level lands as one ``plan="expand"`` round record with the
        frontier size on ``delta_atoms`` (and as ``triggers``) and the
        new disjuncts as ``applied`` and ``new_atoms``.  The summary's
        ``terminated`` is ``complete`` and its ``rounds`` is ``depth``.
    """
    policy = RewritePolicy(
        query,
        rules,
        max_disjuncts=max_disjuncts,
        max_cq_size=max_cq_size,
        strict=strict,
    )
    if trace is not None:
        trace.begin_run(
            variant="rewriting",
            mode="fixpoint",
            max_steps=max_depth,
            max_atoms=max_disjuncts,
        )
    # The level that ran last (the one before the empty level at the
    # fixpoint) and whether the rewriting is complete: the result, and
    # the trace summary written on every stop path below.
    depth = 0
    complete = False
    frontier = [query]
    with default_registry().collect() as scope:
        try:
            for level in range(1, max_depth + 1):
                depth = level
                recorder = None
                if trace is not None:
                    recorder = trace.begin_round(level)
                    recorder.plan = "expand"
                    recorder.delta_atoms = len(frontier)
                new = ()
                try:
                    with timed(recorder, "enumerate"):
                        new = policy.expand(frontier, level)
                finally:
                    if recorder is not None:
                        trace.end_round(
                            recorder,
                            triggers=len(frontier),
                            applied=len(new),
                            new_atoms=len(new),
                        )
                if policy.exhausted:
                    break
                if not new:
                    # The empty level only confirmed the fixpoint.
                    depth, complete = level - 1, not policy.dropped
                    break
                frontier = new
            else:
                if strict:
                    raise RewritingBudgetExceeded(
                        f"rewriting did not reach a fixpoint within "
                        f"depth {max_depth}",
                        partial_rewriting=policy.partial(),
                        depth=max_depth,
                    )
        finally:
            if trace is not None:
                trace.finish_run(terminated=complete, rounds=depth)
    return RewritingResult(
        ucq=policy.partial(),
        complete=complete,
        depth=depth,
        generated=policy.generated,
        telemetry={
            "schema_version": TRACE_SCHEMA_VERSION,
            "registry": scope.delta,
        },
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
    trace (each run numbers its levels from 1), and the trace ends with
    one summary of the merged result; the telemetry block spans the
    whole merge.
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
    if trace is not None:
        trace.finish_run(terminated=complete, rounds=depth)
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
