"""The chase: triggers, oblivious/restricted engines, results with
timestamps (Def 34) and provenance.

:func:`new_triggers_of` is the public lazy enumerator of the triggers new
against a delta; the engines build every round's triggers through
:func:`repro.chase.trigger.round_triggers`."""

from repro.chase.bounds import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_LEVELS,
    DEFAULT_MAX_ROUNDS,
    GrowthPoint,
    growth_curve,
    suggested_level_budget,
)
from repro.chase.oblivious import (
    chase,
    chase_from_top,
    chase_step,
    oblivious_chase,
)
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.chase.result import ChaseResult, CreationRecord
from repro.chase.trigger import (
    Trigger,
    naive_new_triggers_of,
    new_triggers_of,
    triggers_of,
)

__all__ = [
    "ChaseResult",
    "CreationRecord",
    "DEFAULT_MAX_ATOMS",
    "DEFAULT_MAX_LEVELS",
    "DEFAULT_MAX_ROUNDS",
    "GrowthPoint",
    "Trigger",
    "chase",
    "chase_from_top",
    "chase_step",
    "growth_curve",
    "naive_new_triggers_of",
    "new_triggers_of",
    "oblivious_chase",
    "restricted_chase",
    "semi_oblivious_chase",
    "suggested_level_budget",
    "triggers_of",
]
