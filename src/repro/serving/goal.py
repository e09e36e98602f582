"""Goal-directed chase stopping: incremental entailment probes.

:class:`GoalProbe` watches a set of Boolean goals (query disjuncts, and
in hybrid mode the piece-rewriter's disjuncts) against a growing
instance.  Instead of re-evaluating each goal on the whole instance
after every round, the probe is *incremental*: a full check anchors a
revision watermark, and each subsequent check only looks for matches
that use at least one atom of the ``delta_since`` slice.  That is the
delta core's pivot decomposition, so each goal — as the rule ``body →
⊤``, seeded with its answer-variable binding — joins on the instance's
id view through :func:`~repro.engine.core.rule_delta_match`: every goal
atom takes a turn as the pivot, matched against the delta's rows only,
while the rest of the goal matches the whole instance, and the join
stops at its first match.  A homomorphism confined to pre-watermark
atoms was already searched by an earlier check, so nothing is missed; a
hit is a chase witness, and :class:`GoalDirectedPolicy` turns it into
the runner's goal stop
(:meth:`~repro.engine.runner.VariantPolicy.round_complete`).

The round-0 full check stays on the object matcher
(:func:`~repro.logic.homomorphisms.find_homomorphism`): it reads the
caller's instance, which must not get an id view attached.
"""

from __future__ import annotations

from typing import Sequence

from repro.chase.oblivious import ObliviousPolicy
from repro.engine.core import as_delta_instance, rule_delta_match
from repro.logic.atoms import TOP_ATOM, Atom
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.instances import Instance
from repro.rules.rule import Rule
from repro.serving.stats import SERVING_STATS


class GoalProbe:
    """Incremental existence check of Boolean goals over a growing instance.

    Parameters
    ----------
    goals:
        ``(atoms, seed)`` pairs — each a goal CQ body with the partial
        binding its answer variables are pinned to (``{}`` for a free or
        Boolean goal).  Goals whose seed came out inconsistent must be
        dropped by the caller.
    """

    def __init__(self, goals: Sequence[tuple[Sequence[Atom], dict]]):
        self._goals = [
            (Rule(atoms, (TOP_ATOM,)), dict(seed)) for atoms, seed in goals
        ]
        self.witnessed = False
        self._watermark = 0

    def check_full(self, instance: Instance) -> bool:
        """Probe every goal against the whole instance; anchor the watermark.

        The round-0 check: later :meth:`check_delta` calls only search
        matches using atoms added after this point.  The watermark is a
        revision, which counts the atoms added (``len(instance)``), so
        it marks the same base in the chase's copy of ``instance``.
        """
        self._watermark = instance.revision
        for goal, seed in self._goals:
            match = find_homomorphism(goal.sorted_body(), instance, seed=seed)
            if match is not None:
                self.witnessed = True
                return True
        return False

    def check_delta(self, instance: Instance) -> bool:
        """Probe only for matches using an atom added since the watermark.

        Goals are tried in order; the first witness ends the check.
        ``SERVING_STATS.delta_probes`` counts the pivot searches run.
        """
        if self.witnessed:
            return True
        delta = instance.delta_since(self._watermark)
        self._watermark = instance.revision
        if not delta:
            return False
        delta_inst = as_delta_instance(delta)
        for goal, seed in self._goals:
            found, searches = rule_delta_match(
                goal, instance, delta_inst, seed
            )
            SERVING_STATS.delta_probes += searches
            if found:
                self.witnessed = True
                return True
        return False


class GoalDirectedPolicy(ObliviousPolicy):
    """The oblivious chase with a goal stop after every round.

    Identical firing to :class:`~repro.chase.oblivious.ObliviousPolicy`
    — same triggers, same canonical order, same null names — so any
    prefix it materializes is a genuine oblivious-chase prefix; the only
    difference is that the run ends as soon as the probe witnesses a
    goal (``result.stopped_on_goal``).
    """

    def __init__(self, probe: GoalProbe):
        super().__init__()
        self.probe = probe

    def round_complete(self, result) -> bool:
        return self.probe.check_delta(result.instance)
