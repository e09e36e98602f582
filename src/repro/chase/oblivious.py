"""The oblivious chase, level-synchronous as in Section 2.2.

``Ch_0 = I``; ``Ch_{n+1} = Ch_n ∪ ⋃_{τ ∈ T_n} output(τ)`` where ``T_n`` is
the set of triggers over ``Ch_n`` that were not triggers over ``Ch_{n-1}``.
Every trigger therefore fires exactly once, at the first level where its
body matches, and the level at which a term is created is its timestamp
(Definition 34).

The loop itself — enumerate the level's new triggers, fire them, record
provenance, check budgets and the fixpoint — lives in
:class:`repro.engine.runner.ChaseRunner`; this module only declares the
oblivious strategy: delta enumeration with no claim gate (every new
trigger fires), batched firing, level accounting with a post-budget
fixpoint probe.

Engines
-------
The ``engine`` argument selects an execution engine from the registry in
:mod:`repro.engine.config` (a name or an explicit
:class:`~repro.engine.config.EngineConfig`):

* ``"delta"`` (default) computes ``T_n`` directly: a trigger is new at
  level ``n`` exactly when its body image uses an atom produced at level
  ``n`` (all-older bodies fired at an earlier level), so each level only
  enumerates homomorphisms pivoted on the previous level's delta — no
  re-match of the whole instance, and no ever-growing ``fired`` set.
* ``"naive"`` keeps the pre-incremental full-rematch enumeration as the
  reference implementation.
* ``"parallel"`` runs the levels inline at one worker; with
  ``workers > 1`` (``"persistent"`` presets four) it runs them on
  persistent delta-fed process workers: replicas are seeded once, each
  level ships only its delta to be enumerated there, and the level
  fires in the parent.

All engines fire the same triggers in the same canonical order and
produce bit-identical results.

The chase of a rule set alone, ``Ch(R)``, is the chase from the instance
``{⊤}`` (Section 2.2 notation).
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
    DEFAULT_MAX_LEVELS as DEFAULT_MAX_LEVELS,
)
from repro.chase.result import ChaseResult
from repro.chase.trigger import Trigger, naive_new_triggers_of


class ObliviousPolicy(VariantPolicy):
    """Fire every new trigger exactly once, level by level.

    No claim gate, batched firing, level accounting.  The naive
    engine's seen set is full trigger identity; registered before firing
    so each trigger fires at the first level its body matches.
    """

    variant = "chase"
    supply_prefix = "_n"

    def __init__(self):
        self._fired: set[Trigger] = set()

    def naive_new_triggers(self, instance, rules):
        new_triggers = naive_new_triggers_of(instance, rules, self._fired)
        self._fired.update(new_triggers)
        return new_triggers

    def naive_has_remaining(self, instance, rules):
        return bool(naive_new_triggers_of(instance, rules, self._fired))

    def atom_budget_message(self, max_atoms, step):
        return f"chase exceeded {max_atoms} atoms at level {step}"


def oblivious_chase(
    instance: Instance,
    rules: RuleSet,
    max_levels: int = DEFAULT_MAX_LEVELS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    strict: bool = False,
    supply: FreshSupply | None = None,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> ChaseResult:
    """Run the oblivious chase from ``instance`` under ``rules``.

    Parameters
    ----------
    max_levels:
        Compute at most ``Ch_{max_levels}``.  The result's
        ``levels_completed`` reports how far the run got; ``terminated`` is
        True when a fixpoint was reached earlier.
    max_atoms:
        Abort (or raise, with ``strict=True``) when the instance outgrows
        this budget mid-level.
    strict:
        When True, exceeding a budget raises :class:`ChaseBudgetExceeded`
        instead of returning the partial result.
    engine:
        A registered engine name (``"delta"``, ``"naive"``,
        ``"parallel"``, ``"persistent"``) or an
        :class:`~repro.engine.config.EngineConfig`.
    trace:
        An optional :class:`~repro.obs.trace.RunTrace` that receives one
        structured record per level (phase timers, counts, byte deltas);
        see the Observability section of ``src/repro/engine/README.md``.

    Returns the :class:`ChaseResult` with full timestamps and provenance.
    """
    runner = ChaseRunner(
        ObliviousPolicy(),
        engine,
        max_steps=max_levels,
        max_atoms=max_atoms,
        strict=strict,
        supply=supply,
        trace=trace,
    )
    return runner.run(instance, rules)


def chase(
    instance: Instance,
    rules: RuleSet,
    max_levels: int = DEFAULT_MAX_LEVELS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    strict: bool = False,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> ChaseResult:
    """Alias for :func:`oblivious_chase` — the library's default chase."""
    return oblivious_chase(
        instance, rules, max_levels=max_levels, max_atoms=max_atoms,
        strict=strict, engine=engine, trace=trace,
    )


def chase_from_top(
    rules: RuleSet,
    max_levels: int = DEFAULT_MAX_LEVELS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    strict: bool = False,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> ChaseResult:
    """``Ch(R)``: the chase of ``{⊤}`` under ``rules`` (Section 2.2)."""
    return oblivious_chase(
        Instance(), rules, max_levels=max_levels, max_atoms=max_atoms,
        strict=strict, engine=engine, trace=trace,
    )


def chase_step(instance: Instance, rules: RuleSet) -> Instance:
    """Return ``Ch_1(I, R)`` as a bare instance (one synchronous level).

    Convenience used by the quickness checker (Definition 26) and the
    streamlining correctness experiments.
    """
    result = oblivious_chase(instance, rules, max_levels=1)
    return result.instance
