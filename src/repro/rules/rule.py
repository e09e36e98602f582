"""Existential rules: ``∀x̄,ȳ B(x̄,ȳ) → ∃z̄ H(ȳ,z̄)`` (Section 2.1).

A :class:`Rule` stores its body and head as atom frozensets and derives the
frontier (variables shared between body and head) and the existential
variables (head variables outside the frontier).  Rules are immutable and
hashable so rule sets can be plain sets.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.atoms import Atom
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Null, Term, Variable


class InstantiationStats:
    """Counter of head instantiations: this process's, plus those its
    pool workers report.

    Module-global (like ``MATCHER_STATS`` in the homomorphism matcher),
    registered as the ``instantiation`` group of
    :func:`repro.obs.default_registry`.
    :meth:`Rule.instantiate_head` bumps it, so the engine tests can assert
    that a claim gate which already instantiated a trigger's head (parking
    it on ``Trigger._ground_output``) is not paying for a second
    instantiation on the firing path.  A delta round builds each distinct
    ground head of an existential-free rule once and shares it among the
    triggers that ground it
    (:func:`~repro.chase.trigger.round_triggers`); a shared head counts
    once per trigger, when :meth:`~repro.chase.trigger.Trigger.output`
    hands it out, so firing still counts one instantiation per trigger
    fired.  The restricted chase's pruned rounds count one per image the
    kernel kept, and the kernel one per match it grounds
    (:func:`~repro.engine.core.rule_unsatisfied_images`).  The oblivious
    chase's pruned images count one each as the round counts them as
    applications (:meth:`~repro.chase.result.ChaseResult.record_round`),
    and the kernel that pruned them counts none.  A worker
    process counts in its own copy and sends what each command added
    back in the reply envelope, which the parent adds here; on the pool
    two workers may each keep an image for one head, so a pooled
    restricted chase can count more than an inline one.
    """

    __slots__ = ("heads",)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.heads = 0

    def snapshot(self) -> dict[str, int]:
        return {"heads": self.heads}


#: Global head-instantiation counter; reset before a measured run.
INSTANTIATION_STATS = InstantiationStats()


class Rule:
    """An existential rule with non-empty body and head.

    The head is over variables and constants (Section 2.1): a head that
    mentions a labelled null raises :class:`ValueError` — an existential
    variable is the way to name a fresh term.  Body nulls are allowed
    and match like variables (the serving layer's goals are rules
    ``body → ⊤`` over query bodies).

    The engine's join kernel keeps the body plans it compiles on the
    rule (:meth:`join_plans`), as a CQ keeps its join plans: a private
    cache that takes no part in equality or hashing and never reaches a
    pickle (:meth:`__reduce__` rebuilds the rule, so a restored rule
    starts without plans).
    """

    __slots__ = (
        "body",
        "head",
        "label",
        "_hash",
        "_body_vars",
        "_body_var_order",
        "_frontier_order",
        "_existential_order",
        "_sorted_body",
        "_plans",
    )

    def __init__(
        self,
        body: Iterable[Atom],
        head: Iterable[Atom],
        label: str = "",
    ):
        body_atoms = frozenset(body)
        head_atoms = frozenset(head)
        if not body_atoms:
            raise ValueError("a rule must have a non-empty body")
        if not head_atoms:
            raise ValueError("a rule must have a non-empty head")
        for atom in head_atoms:
            for term in atom.args:
                if isinstance(term, Null):
                    raise ValueError(
                        f"a rule head may not mention the labelled null "
                        f"{term} (use an existential variable)"
                    )
        self.body = body_atoms
        self.head = head_atoms
        self.label = label
        self._hash = hash((body_atoms, head_atoms))
        # Lazily-computed caches; rules are immutable so these never
        # invalidate.  The chase asks for them once per *trigger*, which
        # makes recomputation the dominant cost on trigger-heavy levels.
        self._body_vars: frozenset[Variable] | None = None
        self._body_var_order: tuple[Variable, ...] | None = None
        self._frontier_order: tuple[Variable, ...] | None = None
        self._existential_order: tuple[Variable, ...] | None = None
        self._sorted_body: tuple[Atom, ...] | None = None
        self._plans: dict | None = None

    # ------------------------------------------------------------------
    # Value semantics (label is presentation-only)
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self.body == other.body
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash (derived from the
        # atoms' seed-salted hashes) is recomputed with the unpickling
        # interpreter's seed (see Term.__reduce__).
        return (Rule, (self.body, self.head, self.label))

    def __lt__(self, other: "Rule") -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (
            tuple(sorted(a.sort_key() for a in self.body)),
            tuple(sorted(a.sort_key() for a in self.head)),
        )

    def __repr__(self) -> str:
        return f"Rule({self!s})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in sorted(self.body))
        head = ", ".join(str(a) for a in sorted(self.head))
        existential = sorted(self.existential_variables(), key=lambda v: v.name)
        if existential:
            names = ", ".join(v.name for v in existential)
            return f"{body} -> exists {names}. {head}"
        return f"{body} -> {head}"

    # ------------------------------------------------------------------
    # Derived variable sets
    # ------------------------------------------------------------------

    def body_variables(self) -> frozenset[Variable]:
        """All variables of the body (``x̄ ∪ ȳ``), cached."""
        cached = self._body_vars
        if cached is None:
            cached = frozenset(
                v for atom in self.body for v in atom.variables()
            )
            self._body_vars = cached
        return cached

    def body_variable_order(self) -> tuple[Variable, ...]:
        """The body variables in the rule's canonical (sorted) order.

        Triggers derive their identity key from this tuple, so the sort
        happens once per rule instead of once per trigger.
        """
        cached = self._body_var_order
        if cached is None:
            cached = tuple(sorted(self.body_variables()))
            self._body_var_order = cached
        return cached

    def frontier_order(self) -> tuple[Variable, ...]:
        """The frontier variables in canonical (sorted) order, cached."""
        cached = self._frontier_order
        if cached is None:
            cached = tuple(sorted(self.frontier()))
            self._frontier_order = cached
        return cached

    def existential_order(self) -> tuple[Variable, ...]:
        """The existential variables in canonical (sorted) order, cached."""
        cached = self._existential_order
        if cached is None:
            cached = tuple(sorted(self.existential_variables()))
            self._existential_order = cached
        return cached

    def sorted_body(self) -> tuple[Atom, ...]:
        """The body atoms in deterministic order, cached.

        Delta-driven trigger enumeration iterates this as its pivot
        sequence.
        """
        cached = self._sorted_body
        if cached is None:
            cached = tuple(sorted(self.body))
            self._sorted_body = cached
        return cached

    def join_plans(self) -> dict:
        """The join kernel's compiled body plans, made empty on first use.

        Keyed by ``(seeded variables, pivot, rank pattern)``: what a
        plan's atom order depends on
        (:meth:`repro.engine.core._RuleJoin._plan`).
        """
        plans = self._plans
        if plans is None:
            plans = self._plans = {}
        return plans

    def head_variables(self) -> set[Variable]:
        """All variables of the head (``ȳ ∪ z̄``)."""
        return {v for atom in self.head for v in atom.variables()}

    def frontier(self) -> set[Variable]:
        """The frontier ``ȳ``: variables shared between body and head."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> set[Variable]:
        """The existential variables ``z̄``: head-only variables."""
        return self.head_variables() - self.body_variables()

    def variables(self) -> set[Variable]:
        return self.body_variables() | self.head_variables()

    def terms(self) -> set[Term]:
        return {
            t for atom in (self.body | self.head) for t in atom.args
        }

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------

    @property
    def is_datalog(self) -> bool:
        """True when the rule has no existential variables (§2.1)."""
        return not self.existential_variables()

    def predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.body | self.head}

    def body_predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.body}

    def head_predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.head}

    # ------------------------------------------------------------------
    # Head instantiation
    # ------------------------------------------------------------------

    def instantiate_head(
        self,
        mapping: Substitution,
        existential_map: "dict | None" = None,
    ) -> set[Atom]:
        """The head atoms under ``mapping`` + an existential assignment.

        The single definition of what firing a trigger produces:
        :meth:`~repro.chase.trigger.Trigger.output` (every engine fires
        through it, in the parent) and the restricted chase's ground-head
        parking call this, so the two cannot drift apart.  For Datalog rules
        (``existential_map`` empty) the body homomorphism already grounds
        the head — no merged substitution is built.
        """
        INSTANTIATION_STATS.heads += 1
        if not existential_map:
            return mapping.apply_atoms(self.head)
        extended = Substitution._from_clean(
            {**mapping.as_dict(), **existential_map}
        )
        return extended.apply_atoms(self.head)

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------

    def rename_fresh(self, supply: FreshSupply) -> tuple["Rule", Substitution]:
        """Return a variant with all variables renamed fresh.

        Also returns the renaming used, so callers (e.g. piece-unifiers)
        can translate back.
        """
        renaming = {
            v: supply.variable() for v in sorted(self.variables())
        }
        sigma = Substitution(renaming)
        renamed = Rule(
            sigma.apply_atoms(self.body),
            sigma.apply_atoms(self.head),
            label=self.label,
        )
        return renamed, sigma

    def apply(self, substitution: Substitution) -> "Rule":
        """Return the rule with the substitution applied to body and head."""
        return Rule(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
            label=self.label,
        )


def rule(body: Iterable[Atom], head: Iterable[Atom], label: str = "") -> Rule:
    """Convenience constructor mirroring :class:`Rule`."""
    return Rule(body, head, label=label)
