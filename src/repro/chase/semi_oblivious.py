"""The semi-oblivious (frugal) chase.

Between the oblivious chase (fire every trigger) and the restricted chase
(fire only unsatisfied triggers) sits the semi-oblivious chase: fire one
trigger per rule and *frontier image* — two body homomorphisms that agree
on the frontier produce the same head up to null renaming, so only one
needs to fire.  It produces the same result as the oblivious chase up to
homomorphic equivalence while materializing fewer atoms; the ablation
experiments quantify the gap.

The saturation loop lives in :class:`repro.engine.runner.ChaseRunner`;
this module only declares the semi-oblivious strategy: delta enumeration
post-filtered by fired frontier classes and a stateful frontier-class claim
gate (first trigger of a class in canonical order claims it).  All engines
(``delta``/``naive``/``parallel``/``persistent``) fire in the same
canonical order and produce bit-identical results.
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.engine.runner import ChaseRunner, VariantPolicy
from repro.obs.trace import RunTrace
from repro.logic.instances import Instance
from repro.logic.terms import FreshSupply
from repro.rules.ruleset import RuleSet
from repro.chase.bounds import DEFAULT_MAX_ATOMS, DEFAULT_MAX_LEVELS
from repro.chase.result import ChaseResult
from repro.chase.trigger import Trigger, new_triggers_of, triggers_of


def _frontier_key(trigger: Trigger) -> tuple:
    """The (rule, frontier image) identity of the semi-oblivious chase."""
    apply = trigger.mapping.apply_term
    return (
        trigger.rule,
        tuple(apply(v) for v in trigger.rule.frontier_order()),
    )


class SemiObliviousPolicy(VariantPolicy):
    """Fire one trigger per (rule, frontier image) class.

    The fired-classes set gates twice: enumeration drops triggers of
    classes fired at *earlier* levels, and the claim dedups *within* a
    level (triggers arrive sorted, so the first of a class claims it).
    """

    variant = "semi-oblivious chase"
    supply_prefix = "_so"

    def __init__(self):
        self._fired_keys: set[tuple] = set()

    def filter_new(self, triggers):
        fired_keys = self._fired_keys
        return [t for t in triggers if _frontier_key(t) not in fired_keys]

    def naive_new_triggers(self, instance, rules):
        # Full re-match, keeping triggers of not-yet-fired frontier
        # classes; per rule in canonical image order.  The claim (not this
        # enumeration) registers the fired classes.
        fired_keys = self._fired_keys
        fresh: list[Trigger] = []
        for rule in rules:
            batch = [
                t
                for t in triggers_of(instance, [rule])
                if _frontier_key(t) not in fired_keys
            ]
            batch.sort(key=Trigger.image)
            fresh.extend(batch)
        return fresh

    def naive_has_remaining(self, instance, rules):
        fired_keys = self._fired_keys
        return any(
            _frontier_key(t) not in fired_keys
            for t in triggers_of(instance, rules)
        )

    def delta_has_remaining(self, instance, rules, delta):
        fired_keys = self._fired_keys
        return any(
            _frontier_key(t) not in fired_keys
            for t in new_triggers_of(instance, rules, delta)
        )

    def round_claim(self, result, triggers):
        return self._claim

    def _claim(self, trigger: Trigger) -> bool:
        # First trigger of a frontier class this level claims it; later
        # ones (sorted after it in canonical order) are skipped.
        key = _frontier_key(trigger)
        if key in self._fired_keys:
            return False
        self._fired_keys.add(key)
        return True


def semi_oblivious_chase(
    instance: Instance,
    rules: RuleSet,
    max_levels: int = DEFAULT_MAX_LEVELS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    strict: bool = False,
    supply: FreshSupply | None = None,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> ChaseResult:
    """Run the semi-oblivious chase, level-synchronous like §2.2's chase.

    At each level, among the new triggers only the first per
    ``(rule, frontier image)`` class fires.  ``trace`` optionally
    receives one structured record per level (see :mod:`repro.obs`).
    """
    runner = ChaseRunner(
        SemiObliviousPolicy(),
        engine,
        max_steps=max_levels,
        max_atoms=max_atoms,
        strict=strict,
        supply=supply,
        trace=trace,
    )
    return runner.run(instance, rules)
