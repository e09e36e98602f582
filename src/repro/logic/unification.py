"""Undoable term partitions.

Piece-unifiers (the heart of the UCQ-rewriting engine, see
:mod:`repro.rewriting.piece_unifier`) are built on *term partitions*:
equivalence classes over the terms of a query and a rule head such that
unified positions fall in the same class.  The piece-unifier enumeration
walks a tree of unification choices, so :class:`TermPartition` is built to
be taken back: it links class roots without path compression, and
:meth:`TermPartition.undo` pops the links made since a
:meth:`TermPartition.mark`.
"""

from __future__ import annotations

from repro.logic.atoms import Atom
from repro.logic.terms import Term


class TermPartition:
    """A partition of terms induced by unification constraints, undoable.

    Only linked terms are stored: ``_parent`` maps each term that is not
    the root of its class to its parent, so a term absent from it is a
    root (a singleton class when nothing links to it).  A union writes at
    most one link and path compression never rewrites one, so undoing a
    union deletes exactly the link it made.
    """

    __slots__ = ("_parent", "_links")

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        # The linked terms, in link order: the undo stack.
        self._links: list[Term] = []

    def find(self, term: Term) -> Term:
        """The root of ``term``'s class."""
        parent = self._parent
        while term in parent:
            term = parent[term]
        return term

    def union(self, left: Term, right: Term) -> None:
        left, right = self.find(left), self.find(right)
        if left != right:
            self._parent[right] = left
            self._links.append(right)

    def unify_atoms(self, left: Atom, right: Atom) -> None:
        """Equate two atoms of one predicate positionwise."""
        for l_term, r_term in zip(left.args, right.args):
            self.union(l_term, r_term)

    def mark(self) -> int:
        """A point to :meth:`undo` back to."""
        return len(self._links)

    def undo(self, mark: int) -> None:
        """Take back every union made since ``mark`` was taken."""
        links = self._links
        parent = self._parent
        while len(links) > mark:
            del parent[links.pop()]

    def classes(self) -> list[list[Term]]:
        """The classes of two or more terms, each listing its root first.

        Singleton classes are left out: they constrain nothing.  The order
        follows the link history, so it is deterministic.
        """
        groups: dict[Term, list[Term]] = {}
        for term in self._parent:
            root = self.find(term)
            group = groups.get(root)
            if group is None:
                groups[root] = [root, term]
            else:
                group.append(term)
        return list(groups.values())
