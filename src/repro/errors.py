"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without also catching programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the library."""


class ArityError(ReproError):
    """An atom was built with the wrong number of arguments."""


class ParseError(ReproError):
    """A rule, instance or query string could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class SignatureError(ReproError):
    """An operation received atoms or rules over an unexpected signature."""


class ChaseError(ReproError):
    """A chase engine was misconfigured or could not run.

    Raised by the engine registry (:mod:`repro.engine.config`) for unknown
    engine names or invalid :class:`~repro.engine.config.EngineConfig`
    parameters; the budget overrun below specializes it.
    """


class ChaseBudgetExceeded(ChaseError):
    """The chase exceeded its step or atom budget before terminating."""

    def __init__(self, message: str, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class RewritingBudgetExceeded(ReproError):
    """The UCQ-rewriting engine exceeded its depth or size budget.

    ``partial_rewriting`` is the sound UCQ accumulated so far.  ``depth``
    is the breadth level the budget was exceeded in, which a non-strict
    run does not always report: on transitivity's ``E(x,y)``,
    ``max_cq_size=3`` raises with depth 3, the level whose candidate had
    four atoms, where the non-strict run drops that level's candidates
    and reports depth 2 (the deepest level that added a disjunct).  A
    ``max_disjuncts`` error reports the level it cut short (3 with
    ``max_disjuncts=3``, as the non-strict result does) and a missed
    fixpoint ``max_depth``; -1 when not given.
    """

    def __init__(self, message: str, partial_rewriting=None, depth: int = -1):
        super().__init__(message)
        self.partial_rewriting = partial_rewriting
        self.depth = depth


class NotBinarySignatureError(SignatureError):
    """An operation requiring a binary signature received a wider one."""


class NotARuleClassError(ReproError):
    """A rule set does not belong to the rule class required by an operation."""


class ProvenanceError(ReproError):
    """Chase provenance was requested for a term the chase did not create."""
