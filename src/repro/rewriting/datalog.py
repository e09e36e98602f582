"""Semi-naive Datalog evaluation on the shared saturation runner.

The generic oblivious chase re-enumerates all triggers at every level; for
the Datalog saturations that Section 5 performs on top of ``Ch(R_∃)``
(Lemma 33) a semi-naive evaluator is substantially faster: each round only
considers rule-body matches that use at least one atom derived in the
previous round.

The evaluator is a *derivation-mode policy* over
:class:`repro.engine.runner.ChaseRunner` — the same loop the chase
variants run on, minus trigger identity and provenance (a saturation
only needs the atom set) — and selects how rounds execute through the
engine registry:

* ``"delta"`` (the default): each round collects the heads whose body
  uses a delta atom as id rows on the delta core's join kernel, drops
  those the instance already holds, and builds one atom per distinct
  new head (:func:`repro.engine.core.derive_delta_rows`), with no
  trigger identity or canonical ordering.  ``"parallel"`` at one worker
  runs the same rounds.
* ``"persistent"`` (or ``"parallel"`` with ``workers > 1``): the same
  derivation sharded across persistent delta-fed process workers —
  replicas seeded once, each round ships only the new atoms, and each
  worker replies with the new heads it found as id rows (for closures
  whose per-round matching is heavy enough to beat the IPC on
  multicore machines).
* ``"naive"``: classic naive Datalog evaluation on the object matcher —
  every round re-derives from the whole instance.  The reference the
  others are checked and benchmarked against
  (``benchmarks/bench_exp13_parallel.py``).

All engines produce the identical closure (a saturation is a set
fixpoint); used by the analysis module and available as a public API for
downstream users who only need Datalog.
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.engine.runner import ChaseRunner, VariantPolicy
from repro.obs.trace import RunTrace
from repro.errors import NotARuleClassError
from repro.logic.instances import Instance
from repro.rules.ruleset import RuleSet


class ClosurePolicy(VariantPolicy):
    """Derivation-mode saturation: atom sets, no triggers, no provenance.

    Runs through :meth:`ChaseRunner.saturate`: each round derives the head
    atoms whose body uses at least one delta atom and folds the new ones
    in; the fixpoint is a round that derives nothing new, and budget
    violations always raise (Datalog closures are finite, so the round
    budget only guards against pathological inputs).
    """

    variant = "Datalog closure"
    step_noun = "rounds"

    def atom_budget_message(self, max_atoms, step):
        return f"Datalog closure exceeded {max_atoms} atoms"

    def step_budget_message(self, max_steps):
        return f"Datalog closure did not converge in {max_steps} rounds"


def semi_naive_closure(
    instance: Instance,
    rules: RuleSet,
    max_rounds: int = 100,
    max_atoms: int = 500_000,
    engine: str | EngineConfig = "delta",
    trace: RunTrace | None = None,
) -> Instance:
    """Compute the Datalog closure of ``instance`` under ``rules``.

    Raises :class:`NotARuleClassError` when a rule has existential
    variables and :class:`ChaseBudgetExceeded` when budgets are exceeded
    (Datalog closures are finite, so the round budget only guards against
    pathological inputs).  ``trace`` optionally receives one
    ``plan="derive"`` record per round (see :mod:`repro.obs`), whose
    ``triggers`` counts the distinct heads the round derived: on every
    engine but ``naive`` only heads absent at round start, so it equals
    ``applied`` and ``new_atoms`` (see :meth:`ChaseRunner.saturate
    <repro.engine.runner.ChaseRunner.saturate>`).
    """
    non_datalog = [r for r in rules if not r.is_datalog]
    if non_datalog:
        raise NotARuleClassError(
            f"semi-naive evaluation requires Datalog rules; offending: "
            f"{non_datalog[0]}"
        )
    runner = ChaseRunner(
        ClosurePolicy(),
        engine,
        max_steps=max_rounds,
        max_atoms=max_atoms,
        trace=trace,
    )
    return runner.saturate(instance, rules)
