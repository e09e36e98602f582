"""Instances: finite sets of atoms with indexing and the operations of §2.1.

An :class:`Instance` wraps a set of atoms and maintains two indexes the
homomorphism searcher and the chase rely on:

* a per-predicate index (all atoms over ``P``),
* a *positional* index ``(predicate, position, term) -> atoms`` so that a
  matcher with one bound argument can seed its candidates from the most
  selective position instead of scanning every atom over the predicate;
  its keys also give the active domain.

Instances only grow: the chase extends them (``Ch_{n+1}`` contains
``Ch_n``, §2.2) and nothing removes an atom, yet they expose value
semantics for equality.  Every new atom is appended to an add log, so
the *revision* — the log's length, which is always ``len(instance)`` —
marks a prefix of the instance, and :meth:`Instance.delta_since` returns
the atoms added after it: what the semi-naive chase engines use to
enumerate only the triggers that became possible at the latest level.

Following the paper, every instance is assumed to contain the nullary fact
``⊤``; the constructor adds it unless ``add_top=False``.

The engine's join kernel (:mod:`repro.engine.core`) matches an instance
through an *id view* it attaches to the ``_id_view`` slot and brings up
to date from :meth:`Instance.delta_since`.  The view belongs to the
engine and to this process: it is never pickled (an instance pickles to
exactly the bytes it would without it) and ``add`` never touches it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView

from repro.logic.atoms import TOP_ATOM, Atom
from repro.logic.predicates import Predicate
from repro.logic.terms import FreshSupply, Term
from repro.logic.substitutions import Substitution

_EMPTY: frozenset[Atom] = frozenset()


class Instance:
    """A set of atoms with predicate and positional indexes.

    Parameters
    ----------
    atoms:
        Initial atoms.
    add_top:
        When True (the default), the nullary fact ``⊤`` is added, matching
        the paper's convention that all instances contain it.
    """

    __slots__ = (
        "_atoms",
        "_by_predicate",
        "_by_position",
        "_log_atoms",
        "_frozen_predicate",
        "_sorted_predicate",
        "_sorted_position",
        "_id_view",
    )

    #: The slots that pickle: everything but the engine's id view.
    _PICKLED = __slots__[:-1]

    def __init__(self, atoms: Iterable[Atom] = (), add_top: bool = True):
        self._atoms: set[Atom] = set()
        self._by_predicate: dict[Predicate, set[Atom]] = {}
        # (predicate, position, term) -> atoms with `term` at `position`.
        self._by_position: dict[tuple[Predicate, int, Term], set[Atom]] = {}
        # The add log: every atom once, in insertion order.  Its length
        # is the revision, and delta_since() is a slice of it.
        self._log_atoms: list[Atom] = []
        # Lazily-built caches, invalidated per key on mutation.
        self._frozen_predicate: dict[Predicate, frozenset[Atom]] = {}
        self._sorted_predicate: dict[Predicate, tuple[Atom, ...]] = {}
        self._sorted_position: dict[
            tuple[Predicate, int, Term], tuple[Atom, ...]
        ] = {}
        # (id view, revision it is synced to), owned by repro.engine.core.
        self._id_view: tuple | None = None
        for a in atoms:
            self.add(a)
        if add_top:
            self.add(TOP_ATOM)

    def __getstate__(self):
        # The default slot state minus the id view, so an instance's
        # pickle is the same bytes whether or not the kernel ran on it.
        return None, {name: getattr(self, name) for name in self._PICKLED}

    def __setstate__(self, state) -> None:
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._id_view = None

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(frozenset(self._atoms))

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in sorted(self._atoms))
        return f"Instance({{{inner}}})"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    # checks: hot
    def add(self, atom: Atom) -> bool:
        """Add ``atom``; return True when it was not already present."""
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        predicate = atom.predicate
        # Buckets are created only on a miss: setdefault(key, set()) would
        # allocate a throwaway set per index entry on every add.
        bucket = self._by_predicate.get(predicate)
        if bucket is None:
            self._by_predicate[predicate] = {atom}
        else:
            bucket.add(atom)
        self._frozen_predicate.pop(predicate, None)
        self._sorted_predicate.pop(predicate, None)
        by_position = self._by_position
        sorted_position = self._sorted_position
        for position, term in enumerate(atom.args):
            key = (predicate, position, term)
            bucket = by_position.get(key)
            if bucket is None:
                by_position[key] = {atom}
            else:
                bucket.add(atom)
            sorted_position.pop(key, None)
        self._log_atoms.append(atom)
        return True

    def update(self, atoms: Iterable[Atom]) -> int:
        """Add several atoms; return how many were new."""
        return sum(1 for a in atoms if self.add(a))

    # ------------------------------------------------------------------
    # Revisions and deltas (semi-naive evaluation support)
    # ------------------------------------------------------------------

    @property
    def revision(self) -> int:
        """The number of atoms added so far: always ``len(instance)``."""
        return len(self._log_atoms)

    # checks: hot
    def delta_since(self, revision: int) -> list[Atom]:
        """The atoms added after the first ``revision``, in insertion order.

        The semi-naive chase engines snapshot ``instance.revision``
        before firing a level and feed the resulting delta to
        ``new_triggers_of`` at the next level.  The add log holds every
        atom once, so the delta is a plain slice of it.
        """
        return self._log_atoms[revision:]

    # ------------------------------------------------------------------
    # Queries on the structure
    # ------------------------------------------------------------------

    def atoms(self) -> frozenset[Atom]:
        """Return the atoms as a frozen set."""
        return frozenset(self._atoms)

    def sorted_atoms(self) -> list[Atom]:
        """Return the atoms in the library's deterministic order."""
        return sorted(self._atoms)

    def with_predicate(self, predicate: Predicate) -> frozenset[Atom]:
        """Return the atoms over ``predicate`` (cached immutable view)."""
        cached = self._frozen_predicate.get(predicate)
        if cached is None:
            bucket = self._by_predicate.get(predicate)
            cached = frozenset(bucket) if bucket else _EMPTY
            self._frozen_predicate[predicate] = cached
        return cached

    def sorted_with_predicate(self, predicate: Predicate) -> tuple[Atom, ...]:
        """The atoms over ``predicate`` in deterministic order, cached.

        The homomorphism matcher draws unconstrained candidates from here;
        caching hoists the per-search-node ``sorted(...)`` to one sort per
        predicate per mutation epoch.
        """
        cached = self._sorted_predicate.get(predicate)
        if cached is None:
            bucket = self._by_predicate.get(predicate)
            cached = tuple(sorted(bucket)) if bucket else ()
            self._sorted_predicate[predicate] = cached
        return cached

    def matching_position(
        self, predicate: Predicate, position: int, term: Term
    ) -> tuple[Atom, ...]:
        """Atoms over ``predicate`` with ``term`` at ``position``, sorted.

        The positional index lookup behind most-selective candidate
        seeding; an empty tuple when no atom matches.
        """
        key = (predicate, position, term)
        cached = self._sorted_position.get(key)
        if cached is None:
            bucket = self._by_position.get(key)
            if bucket is None:
                return ()
            cached = tuple(sorted(bucket))
            self._sorted_position[key] = cached
        return cached

    def position_count(
        self, predicate: Predicate, position: int, term: Term
    ) -> int:
        """Number of atoms over ``predicate`` with ``term`` at ``position``."""
        bucket = self._by_position.get((predicate, position, term))
        return len(bucket) if bucket else 0

    def signature(self) -> KeysView[Predicate]:
        """The predicates occurring in the instance (allocation-free view)."""
        return self._by_predicate.keys()

    def active_domain(self) -> set[Term]:
        """Return ``adom``: all terms occurring in some atom.

        Read off the positional index's keys.
        """
        return {term for _, _, term in self._by_position}

    def count(self, predicate: Predicate) -> int:
        """Return the number of atoms over ``predicate``."""
        bucket = self._by_predicate.get(predicate)
        return len(bucket) if bucket else 0

    # ------------------------------------------------------------------
    # Paper operations
    # ------------------------------------------------------------------

    def restrict_to(self, signature: Iterable[Predicate]) -> "Instance":
        """Return ``I|_S``: the atoms over predicates in ``signature``.

        Used by Lemma 24 to compare chases of streamlined rule sets on the
        original signature.  ``⊤`` is kept exactly when the instance has
        it.
        """
        allowed = set(signature)
        kept = (
            a for a in self._atoms if a.predicate in allowed or a == TOP_ATOM
        )
        return Instance(kept, add_top=False)

    def disjoint_union(
        self, other: "Instance", supply: FreshSupply | None = None
    ) -> "Instance":
        """Return ``self ⊎ other`` with ``other``'s non-constants renamed fresh.

        Section 2.1: the disjoint union renames the variables of the second
        operand so that the two active domains do not overlap (constants are
        shared, as usual for databases).  ``⊤`` is in the result exactly
        when an operand has it.
        """
        supply = supply or FreshSupply(prefix="_u")
        renaming: dict[Term, Term] = {}
        for term in sorted(other.active_domain()):
            if not term.is_constant:
                renaming[term] = supply.variable()
        sigma = Substitution(renaming)
        result = Instance(self._atoms, add_top=False)
        result.update(sigma.apply_atoms(other._atoms))
        return result

    def apply(self, substitution: Substitution) -> "Instance":
        """Return the image of the instance under ``substitution``."""
        return Instance(
            substitution.apply_atoms(self._atoms), add_top=False
        )

    def copy(self) -> "Instance":
        """Return a shallow copy (atoms are immutable so this is safe).

        The copy holds the same atoms, so it starts at the same revision.
        """
        return Instance(self._atoms, add_top=False)

    def is_binary(self) -> bool:
        """True when every predicate has arity at most 2."""
        return all(p.arity <= 2 for p in self._by_predicate)


def instance_of(*atoms: Atom, add_top: bool = True) -> Instance:
    """Convenience constructor: ``instance_of(edge('a','b'), ...)``."""
    return Instance(atoms, add_top=add_top)


def constants_to_nulls(
    instance: Instance, supply: FreshSupply | None = None
) -> Instance:
    """Replace every constant by a fresh null (one per constant).

    The paper's instances have variable-only active domains (§2.1); this
    helper moves a constant-carrying instance into that regime so that
    homomorphic-equivalence comparisons (e.g. Corollary 15's) treat former
    constants as anonymous elements.
    """
    supply = supply or FreshSupply(prefix="_c")
    renaming: dict[Term, Term] = {
        term: supply.null()
        for term in sorted(instance.active_domain())
        if term.is_constant
    }
    return Instance(
        (atom.apply(renaming) for atom in instance), add_top=False
    )
