"""Semi-naive Datalog evaluation on the shared saturation runner.

The generic oblivious chase re-enumerates all triggers at every level; for
the Datalog saturations that Section 5 performs on top of ``Ch(R_∃)``
(Lemma 33) a semi-naive evaluator is substantially faster: each round only
considers rule-body matches that use at least one atom derived in the
previous round.

The evaluator used to carry its own copy of the saturation loop (and,
before that, of the pivot decomposition); it is now a *derivation-mode
policy* over :class:`repro.engine.runner.ChaseRunner` — the same loop the
chase variants run on, minus trigger identity and provenance (a
saturation only needs the atom set) — and selects how rounds execute
through the engine registry:

* ``"parallel"`` (the default runs it inline at one worker, see
  :data:`DEFAULT_CLOSURE_ENGINE`): the sharded round scheduler's batched
  *derivation mode* — heads of a whole round are collected as id rows
  by the delta core's join kernel, one atom per distinct head, with no trigger
  identity or canonical ordering.
* ``"delta"``: the sequential trigger-mode inner loop shared with the
  chase — canonical per-rule trigger streams, one head instantiation per
  trigger.  The reference the parallel engine is benchmarked against
  (``benchmarks/bench_exp13_parallel.py``).
* ``"naive"``: classic naive Datalog evaluation — every round re-derives
  from the whole instance.
* ``"persistent"``: the parallel derivation mode on persistent delta-fed
  process workers — replicas seeded once, each round ships only the new
  atoms (for closures whose per-round matching is heavy enough to beat
  the IPC on multicore builds).

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


#: The closure's default: the parallel engine's batched derivation mode
#: run inline (no pool).  The measured win over ``"delta"`` comes from
#: batching, not thread fan-out (see benchmarks/results/exp13_parallel.txt:
#: workers=1 is the fastest configuration on a single-core GIL build), so
#: the default skips pool spin-up; pass ``engine="parallel"`` or an
#: explicit :class:`EngineConfig` to fan out on multicore builds.
DEFAULT_CLOSURE_ENGINE = EngineConfig("parallel", workers=1)


class ClosurePolicy(VariantPolicy):
    """Derivation-mode saturation: atom sets, no triggers, no provenance.

    Runs through :meth:`ChaseRunner.saturate`: each round derives the head
    atoms whose body uses at least one delta atom and folds the new ones
    in; the fixpoint is a round that derives nothing new, and budget
    violations always raise (Datalog closures are finite, so the round
    budget only guards against pathological inputs).
    """

    variant = "Datalog closure"
    derivation = True
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
    engine: str | EngineConfig = DEFAULT_CLOSURE_ENGINE,
    trace: RunTrace | None = None,
) -> Instance:
    """Compute the Datalog closure of ``instance`` under ``rules``.

    Raises :class:`NotARuleClassError` when a rule has existential
    variables and :class:`ChaseBudgetExceeded` when budgets are exceeded
    (Datalog closures are finite, so the round budget only guards against
    pathological inputs).  ``trace`` optionally receives one
    ``plan="derive"`` record per round (see :mod:`repro.obs`).
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
