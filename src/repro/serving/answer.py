"""The query-serving front door: ``answer()`` and :class:`AnswerResult`.

One entry point turns "run the chase, then check" into "serve an
entailment request": pick a strategy (goal-directed chase, UCQ
rewriting, or the hybrid of both), run it on the unified engine stack,
and report the answer *with its epistemic status* — an ``exact``
verdict is conclusive, a ``sound`` one means a budget stopped the run
before completeness was reached (a True is still certain; a False or a
tuple set may be missing answers).

Strategies
----------
``"chase"``
    Prune the rules to the query-relevant fragment
    (:mod:`repro.serving.relevance`), chase with
    :class:`~repro.serving.goal.GoalDirectedPolicy` and stop the moment
    a per-round incremental delta probe witnesses the query.
``"rewrite"``
    Run the UCQ piece-rewriter (:mod:`repro.rewriting.rewriter`, whose
    breadth loop runs no chase engine) and evaluate the rewriting on the
    *base* instance — no chase at all; exact when the rewriting reached
    its fixpoint (the rule set is bdd for the query, Definition 2).
``"hybrid"``
    Rewrite within budgets first; a complete rewriting answers from the
    base instance, an incomplete one seeds the goal-directed chase with
    its disjuncts as *extra* goals (any sound rewriting disjunct
    matching a chase prefix witnesses the original query earlier).
``"auto"``
    ``hybrid`` that reports which leg decided: ``rewrite`` when the
    rewriting completed, else ``hybrid`` (or ``chase`` when answers are
    being enumerated — enumeration cannot stop early on a witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.chase.bounds import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_CQ_SIZE,
    DEFAULT_MAX_DISJUNCTS,
    DEFAULT_MAX_LEVELS,
    DEFAULT_MAX_REWRITE_DEPTH,
)
from repro.chase.oblivious import ObliviousPolicy
from repro.chase.result import ChaseResult
from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.runner import ChaseRunner
from repro.logic.instances import Instance
from repro.logic.terms import Term
from repro.obs import TRACE_SCHEMA_VERSION, default_registry
from repro.obs.trace import RunTrace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.entailment import (
    _seed_for,
    answer_homomorphisms,
    entails_ucq,
)
from repro.queries.ucq import UCQ
from repro.rewriting.rewriter import RewritingResult, rewrite, rewrite_ucq
from repro.rules.ruleset import RuleSet
from repro.serving.goal import GoalDirectedPolicy, GoalProbe
from repro.serving.relevance import goal_predicates, relevant_rules
from repro.serving.stats import SERVING_STATS

STRATEGIES = ("auto", "chase", "rewrite", "hybrid")


@dataclass
class AnswerResult:
    """What one ``answer()`` request produced, and how much to trust it.

    Attributes
    ----------
    entailed:
        ``⟨R, I⟩ ⊨ Q(t̄)`` as far as the run could tell.  In
        answer-enumeration mode this is the Boolean reading of the query
        with its answer variables left free.
    tuples:
        The certain answer tuples found (constants only), or ``None`` in
        decision mode (Boolean query or explicit bindings).
    verdict:
        ``"exact"`` — conclusive: a witness was found (always certain),
        or the strategy ran to completeness (chase fixpoint / complete
        rewriting) without one.  ``"sound"`` — a budget stopped the run
        first: what was found is certain, but a negative (or the tuple
        set) may be incomplete.
    evidence:
        The fact behind the verdict: ``{"kind": ..., ...}`` where kind is
        one of ``instance_witness``, ``chase_witness``,
        ``chase_fixpoint``, ``chase_budget``, ``rewriting_witness``,
        ``rewriting_fixpoint``, ``rewriting_budget``,
        ``inconsistent_binding`` — with the decisive chase level or
        rewriting depth alongside.
    strategy:
        The strategy that actually decided (``auto`` resolves to one).
    provenance:
        How the request was served: requested/resolved strategy, mode,
        engine name and workers, rule counts before/after relevance
        pruning, goal count.
    chase / rewriting:
        The underlying :class:`~repro.chase.result.ChaseResult` /
        :class:`~repro.rewriting.rewriter.RewritingResult`, when that leg
        ran — telemetry, traces and provenance records intact.
    telemetry:
        The metrics-registry delta of the whole request (schema version
        plus ``{group: counters}``), spanning every leg that ran —
        including the ``serving`` counter group.
    """

    entailed: bool
    tuples: set[tuple[Term, ...]] | None
    verdict: str
    evidence: dict
    strategy: str
    provenance: dict
    chase: ChaseResult | None = None
    rewriting: RewritingResult | None = None
    telemetry: dict | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.entailed


def _disjuncts_of(query: ConjunctiveQuery | UCQ) -> list[ConjunctiveQuery]:
    return list(query) if isinstance(query, UCQ) else [query]


def _constant_answers(
    instance: Instance,
    disjuncts: Sequence[ConjunctiveQuery],
    bindings: Sequence[Term],
) -> tuple[set[tuple[Term, ...]], bool]:
    """Constants-only answer tuples plus the free-variable Boolean reading."""
    tuples: set[tuple[Term, ...]] = set()
    any_match = False
    for disjunct in disjuncts:
        for hom in answer_homomorphisms(instance, disjunct, bindings):
            any_match = True
            image = tuple(hom.apply_term(v) for v in disjunct.answers)
            if all(t.is_constant for t in image):
                tuples.add(image)
    return tuples, any_match


def _goals_for(
    disjuncts: Sequence[ConjunctiveQuery], bindings: Sequence[Term]
) -> list[tuple[list, dict]]:
    """Seeded probe goals, dropping inconsistent bindings and duplicates."""
    goals: list[tuple[list, dict]] = []
    seen: set = set()
    for disjunct in disjuncts:
        seed = _seed_for(disjunct, bindings)
        if seed is None:
            continue
        key = (disjunct.atoms, frozenset(seed.items()))
        if key in seen:
            continue
        seen.add(key)
        goals.append((sorted(disjunct.atoms), seed))
    return goals


def answer(
    instance: Instance,
    rules: RuleSet,
    query: ConjunctiveQuery | UCQ,
    bindings: Sequence[Term] = (),
    *,
    strategy: str = "auto",
    engine: str | EngineConfig = "delta",
    workers: int | None = None,
    prune: bool = True,
    max_levels: int = DEFAULT_MAX_LEVELS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_rewrite_depth: int = DEFAULT_MAX_REWRITE_DEPTH,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_cq_size: int = DEFAULT_MAX_CQ_SIZE,
    trace: RunTrace | None = None,
) -> AnswerResult:
    """Serve one certain-answer request: ``⟨R, I⟩ ⊨ Q(t̄)`` or its tuples.

    Parameters
    ----------
    bindings:
        Ground the query's answer variables (decision mode).  Empty with
        a non-Boolean query means *enumeration* mode: the certain answer
        tuples are computed (``tuples``), and ``entailed`` is the
        Boolean reading with the answer variables free.
    strategy:
        ``"auto"``, ``"chase"``, ``"rewrite"`` or ``"hybrid"`` — see the
        module docstring's decision table.
    engine, workers:
        The chase execution engine (name or
        :class:`~repro.engine.config.EngineConfig`) and an optional
        worker-pool override for the parallel backends.
    prune:
        Restrict the chase to the query-relevant rule fragment
        (:func:`repro.serving.relevance.relevant_rules`).  Per-level
        complete for the query, so verdicts are unaffected — only the
        atoms materialized.
    max_levels, max_atoms:
        Chase budgets (:mod:`repro.chase.bounds` defaults).
    max_rewrite_depth, max_disjuncts, max_cq_size:
        Rewriting budgets, same home.
    trace:
        Optional :class:`~repro.obs.trace.RunTrace`, attached to the
        strategy's main run only: the chase for ``chase``/``hybrid``/
        ``auto``, the rewriting of the query for ``rewrite`` (not the
        Boolean reading's rewriting that enumeration mode adds).
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}"
        )
    config = resolve_engine(engine)
    if workers is not None:
        config = config.with_workers(workers)
    with default_registry().collect() as scope:
        SERVING_STATS.requests += 1
        result = _serve(
            instance,
            rules,
            query,
            bindings,
            strategy=strategy,
            config=config,
            prune=prune,
            max_levels=max_levels,
            max_atoms=max_atoms,
            max_rewrite_depth=max_rewrite_depth,
            max_disjuncts=max_disjuncts,
            max_cq_size=max_cq_size,
            trace=trace,
        )
    result.telemetry = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "registry": scope.delta,
    }
    return result


def _serve(
    instance: Instance,
    rules: RuleSet,
    query: ConjunctiveQuery | UCQ,
    bindings: Sequence[Term],
    *,
    strategy: str,
    config: EngineConfig,
    prune: bool,
    max_levels: int,
    max_atoms: int,
    max_rewrite_depth: int,
    max_disjuncts: int,
    max_cq_size: int,
    trace: RunTrace | None,
) -> AnswerResult:
    disjuncts = _disjuncts_of(query)
    enumerating = not bindings and bool(query.answers)
    mode = "enumerate" if enumerating else "decision"

    def provenance(resolved: str, used: RuleSet, goals: int = 0) -> dict:
        return {
            "requested": strategy,
            "resolved": resolved,
            "mode": mode,
            "engine": config.name,
            "workers": config.workers,
            "rules_total": len(rules),
            "rules_used": len(used),
            "goals": goals,
        }

    # -- rewriting leg -------------------------------------------------
    rewriting: RewritingResult | None = None
    boolean_rewriting: RewritingResult | None = None
    if strategy in ("rewrite", "hybrid", "auto"):
        SERVING_STATS.rewrite_runs += 1

        def _run_rewrite(q, traced=False):
            kwargs = dict(
                max_depth=max_rewrite_depth,
                max_disjuncts=max_disjuncts,
                max_cq_size=max_cq_size,
                trace=trace if traced else None,
            )
            if isinstance(q, UCQ):
                return rewrite_ucq(q, rules, **kwargs)
            return rewrite(q, rules, **kwargs)

        # The rewriting is the main run only under ``rewrite``; the other
        # strategies trace their chase leg.
        rewriting = _run_rewrite(query, traced=strategy == "rewrite")
        if enumerating:
            # The Boolean reading (answer variables freed) rewrites
            # differently — an answer variable may not absorb a rule's
            # existential, an existential variable may — and it is what
            # ``entailed`` reports in enumeration mode, so it gets its
            # own rewriting on the rewrite path, untraced.
            boolean_rewriting = _run_rewrite(
                UCQ([d.boolean() for d in disjuncts], ())
            )

    rewrite_leg_complete = rewriting is not None and rewriting.complete and (
        boolean_rewriting is None or boolean_rewriting.complete
    )
    if strategy == "rewrite" or (
        strategy in ("hybrid", "auto") and rewrite_leg_complete
    ):
        resolved = "rewrite" if strategy in ("rewrite", "auto") else "hybrid"
        return _answer_by_rewriting(
            instance,
            rewriting,
            boolean_rewriting,
            bindings,
            enumerating,
            provenance(resolved, rules),
        )

    # -- chase leg -----------------------------------------------------
    resolved = strategy
    if strategy == "auto":
        resolved = "chase" if enumerating else "hybrid"
    goal_disjuncts = list(disjuncts)
    if rewriting is not None and not enumerating:
        goal_disjuncts.extend(rewriting.ucq)
    used = rules
    if prune:
        used = relevant_rules(rules, goal_predicates(goal_disjuncts))
        SERVING_STATS.rules_pruned += len(rules) - len(used)

    if enumerating:
        return _enumerate_by_chase(
            instance,
            used,
            disjuncts,
            bindings,
            config,
            max_levels,
            max_atoms,
            trace,
            provenance(resolved, used),
            rewriting,
        )
    return _decide_by_chase(
        instance,
        used,
        goal_disjuncts,
        bindings,
        config,
        max_levels,
        max_atoms,
        trace,
        provenance(resolved, used),
        rewriting,
    )


def _answer_by_rewriting(
    instance: Instance,
    rewriting: RewritingResult,
    boolean_rewriting: RewritingResult | None,
    bindings: Sequence[Term],
    enumerating: bool,
    provenance: dict,
) -> AnswerResult:
    """Evaluate the (possibly partial) rewriting on the base instance."""
    tuples: set[tuple[Term, ...]] | None = None
    complete = rewriting.complete
    if enumerating:
        tuples, _ = _constant_answers(instance, list(rewriting.ucq), bindings)
        entailed = entails_ucq(instance, boolean_rewriting.ucq, ())
        complete = complete and boolean_rewriting.complete
    else:
        entailed = entails_ucq(instance, rewriting.ucq, bindings)
    if entailed:
        verdict, kind = "exact", "rewriting_witness"
    elif complete:
        verdict, kind = "exact", "rewriting_fixpoint"
    else:
        verdict, kind = "sound", "rewriting_budget"
    return AnswerResult(
        entailed=entailed,
        tuples=tuples,
        verdict=verdict,
        evidence={
            "kind": kind,
            "depth": rewriting.depth,
            "disjuncts": len(rewriting.ucq),
        },
        strategy=provenance["resolved"],
        provenance=provenance,
        rewriting=rewriting,
    )


def _decide_by_chase(
    instance: Instance,
    used: RuleSet,
    goal_disjuncts: Sequence[ConjunctiveQuery],
    bindings: Sequence[Term],
    config: EngineConfig,
    max_levels: int,
    max_atoms: int,
    trace: RunTrace | None,
    provenance: dict,
    rewriting: RewritingResult | None,
) -> AnswerResult:
    """Goal-directed decision: probe round deltas, stop on a witness."""
    goals = _goals_for(goal_disjuncts, bindings)
    provenance["goals"] = len(goals)
    if not goals:
        # Every disjunct's binding identified answer variables to
        # different values; no model can satisfy that.
        return AnswerResult(
            entailed=False,
            tuples=None,
            verdict="exact",
            evidence={"kind": "inconsistent_binding"},
            strategy=provenance["resolved"],
            provenance=provenance,
            rewriting=rewriting,
        )
    probe = GoalProbe(goals)
    if probe.check_full(instance):
        return AnswerResult(
            entailed=True,
            tuples=None,
            verdict="exact",
            evidence={"kind": "instance_witness", "level": 0},
            strategy=provenance["resolved"],
            provenance=provenance,
            rewriting=rewriting,
        )
    SERVING_STATS.chase_runs += 1
    runner = ChaseRunner(
        GoalDirectedPolicy(probe),
        config,
        max_steps=max_levels,
        max_atoms=max_atoms,
        trace=trace,
    )
    chased = runner.run(instance, used)
    level = chased.levels_completed
    if chased.stopped_on_goal:
        SERVING_STATS.goal_stops += 1
        verdict, kind, entailed = "exact", "chase_witness", True
    elif chased.terminated:
        verdict, kind, entailed = "exact", "chase_fixpoint", False
    elif probe.check_delta(chased.instance):
        # An atom budget stops a run mid-round, before the policy's
        # post-round probe: the partial round's atoms may hold a witness.
        verdict, kind, entailed = "exact", "chase_witness", True
        level += 1
    else:
        verdict, kind, entailed = "sound", "chase_budget", False
    return AnswerResult(
        entailed=entailed,
        tuples=None,
        verdict=verdict,
        evidence={
            "kind": kind,
            "level": level,
            "atoms": len(chased.instance),
        },
        strategy=provenance["resolved"],
        provenance=provenance,
        chase=chased,
        rewriting=rewriting,
    )


def _enumerate_by_chase(
    instance: Instance,
    used: RuleSet,
    disjuncts: Sequence[ConjunctiveQuery],
    bindings: Sequence[Term],
    config: EngineConfig,
    max_levels: int,
    max_atoms: int,
    trace: RunTrace | None,
    provenance: dict,
    rewriting: RewritingResult | None,
) -> AnswerResult:
    """Answer enumeration: chase the relevant fragment, then evaluate.

    No early exit — every answer tuple is wanted, so the chase runs to
    its fixpoint or budget and the query is evaluated once at the end.
    """
    SERVING_STATS.chase_runs += 1
    runner = ChaseRunner(
        ObliviousPolicy(),
        config,
        max_steps=max_levels,
        max_atoms=max_atoms,
        trace=trace,
    )
    chased = runner.run(instance, used)
    tuples, entailed = _constant_answers(chased.instance, disjuncts, bindings)
    verdict = "exact" if chased.terminated else "sound"
    kind = "chase_fixpoint" if chased.terminated else "chase_budget"
    return AnswerResult(
        entailed=entailed,
        tuples=tuples,
        verdict=verdict,
        evidence={
            "kind": kind,
            "level": chased.levels_completed,
            "atoms": len(chased.instance),
        },
        strategy=provenance["resolved"],
        provenance=provenance,
        chase=chased,
        rewriting=rewriting,
    )
