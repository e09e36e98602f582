"""The restricted (standard) chase: a trigger fires only when unsatisfied.

The paper works with the oblivious chase throughout; the restricted chase
is provided as the practical baseline a downstream user would expect from a
chase library — it produces smaller universal models and terminates in more
cases, at the cost of the clean level/timestamp structure of the oblivious
variant.

The saturation loop lives in :class:`repro.engine.runner.ChaseRunner`;
this module only declares the restricted strategy: each round considers
the triggers that are new with respect to the previous round's additions
(round 0 considers everything) in canonical order and applies those whose
head is not already satisfied, with round accounting (a round that applies
nothing is a fixpoint) and no post-budget probe.

Satisfaction gating starts inside the enumeration.  An existential-free
trigger's output is fully determined by its body homomorphism, so the
delta-family engines (``round_mode = "enumerate_unsatisfied"``) never
build the triggers
that could not add an atom: a match whose ground head is already in the
round-start instance, or whose head a smaller image of the same rule
grounds too, is dropped where it is found — inline, or on the worker
replica that enumerated it — and each survivor arrives with its head
parked (:func:`~repro.chase.trigger.round_triggers`).  The
round then fires through the runner's one lazy stream with the
satisfaction check
(:meth:`~repro.chase.trigger.Trigger.is_satisfied_using_index`) as its
claim: each trigger is checked against the instance as the round has
grown it so far, just before it would fire.  ``engine="delta"``
(default) enumerates new triggers semi-naively, ``engine="naive"``
re-matches everything, subtracts the seen set and prunes nothing (the
reference), and ``engine="persistent"`` (or ``"parallel"`` with
``workers > 1``) fans the pruned enumeration over the worker pool — all
fire identically.
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.engine.runner import ChaseRunner, VariantPolicy
from repro.obs.trace import RunTrace
from repro.logic.instances import Instance
from repro.logic.terms import FreshSupply
from repro.rules.ruleset import RuleSet
# Re-exported for compatibility: the default budgets now live in
# repro.chase.bounds.
from repro.chase.bounds import (
    DEFAULT_MAX_ATOMS as DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_ROUNDS as DEFAULT_MAX_ROUNDS,
)
from repro.chase.result import ChaseResult
from repro.chase.trigger import Trigger, naive_new_triggers_of


class RestrictedPolicy(VariantPolicy):
    """Fire only unsatisfied triggers, round by round.

    Round accounting: the fixpoint is a round that applies nothing (atoms
    produced mid-round feed the *next* round's delta), there is no
    post-budget probe, and the naive engine's seen set is full trigger
    identity.  Enumeration prunes existential-free triggers that cannot
    add an atom (``enumerate_unsatisfied``).
    """

    variant = "restricted chase"
    supply_prefix = "_r"
    stop_on_empty_round = False
    stop_on_idle_round = True
    probe_fixpoint = False
    step_noun = "rounds"
    round_mode = "enumerate_unsatisfied"

    def __init__(self):
        self._seen: set[Trigger] = set()

    def naive_new_triggers(self, instance, rules):
        new_triggers = naive_new_triggers_of(instance, rules, self._seen)
        self._seen.update(new_triggers)
        return new_triggers

    def round_claim(self, result, triggers):
        instance = result.instance

        def unsatisfied(trigger: Trigger) -> bool:
            return not trigger.is_satisfied_using_index(instance)

        return unsatisfied


def restricted_chase(
    instance: Instance,
    rules: RuleSet,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    strict: bool = False,
    supply: FreshSupply | None = None,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> ChaseResult:
    """Run the restricted chase: apply unsatisfied triggers round by round.

    A round that applies nothing is a fixpoint (no atoms were added, so no
    trigger can become applicable later).
    """
    runner = ChaseRunner(
        RestrictedPolicy(),
        engine,
        max_steps=max_rounds,
        max_atoms=max_atoms,
        strict=strict,
        supply=supply,
        trace=trace,
    )
    return runner.run(instance, rules)
