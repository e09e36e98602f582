"""Conjunctive queries (Section 2.1).

A CQ ``q(x̄)`` pairs a non-empty conjunction of atoms with a tuple of
*answer variables* (free variables).  Boolean CQs have no answer
variables.  CQs are immutable and hashable, and expose the graph view used
by the valley-query machinery (binary atoms as directed edges between
variables).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx

from repro.datastructures.orders import ReachabilityOrder
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import IdRows, JoinPlans
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Term, Variable


class ConjunctiveQuery:
    """A conjunctive query ``∃z̄ B(x̄, z̄)`` with answer tuple ``x̄``.

    A CQ compiles its body at most once per role of
    :func:`~repro.queries.minimization.subsumes`, on first use: as the
    specific side into id rows (:class:`~repro.logic.homomorphisms.IdRows`,
    :meth:`_as_specific`), as the general side into join plans
    (:class:`~repro.logic.homomorphisms.JoinPlans`, :meth:`_as_general`).
    The compiled forms are private caches: they take no part in equality
    or hashing, and never reach a pickle (:meth:`__reduce__` rebuilds the
    CQ through ``__init__``, so a restored CQ starts without them).
    """

    __slots__ = ("atoms", "answers", "_hash", "_rows", "_plans")

    def __init__(
        self, atoms: Iterable[Atom], answers: Sequence[Variable] = ()
    ):
        atom_set = frozenset(atoms)
        if not atom_set:
            raise ValueError("a CQ must have a non-empty body")
        answer_tuple = tuple(answers)
        query_vars = {v for a in atom_set for v in a.variables()}
        for v in answer_tuple:
            if v not in query_vars:
                raise ValueError(
                    f"answer variable {v} does not occur in the query body"
                )
        self.atoms = atom_set
        self.answers = answer_tuple
        self._hash = hash((atom_set, answer_tuple))
        self._rows: IdRows | None = None
        self._plans: JoinPlans | None = None

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.atoms == other.atoms
            and self.answers == other.answers
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed with
        # the unpickling interpreter's seed (see Term.__reduce__), and the
        # compiled forms stay out of the pickle.
        return (type(self), (self.atoms, self.answers))

    def _as_specific(self) -> IdRows:
        """The body as id rows anchored at the answers, built once."""
        rows = self._rows
        if rows is None:
            rows = self._rows = IdRows(self.atoms, self.answers)
        return rows

    def _as_general(self) -> JoinPlans:
        """The body as join plans pinned at the answers, built once."""
        plans = self._plans
        if plans is None:
            plans = self._plans = JoinPlans(self.atoms, self.answers)
        return plans

    def __lt__(self, other: "ConjunctiveQuery") -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (
            tuple(sorted(a.sort_key() for a in self.atoms)),
            tuple(v.name for v in self.answers),
        )

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in sorted(self.atoms))
        if self.answers:
            heads = ", ".join(v.name for v in self.answers)
            return f"?({heads}) :- {body}"
        return f"? :- {body}"

    def __len__(self) -> int:
        return len(self.atoms)

    # ------------------------------------------------------------------
    # Variable views
    # ------------------------------------------------------------------

    @property
    def is_boolean(self) -> bool:
        return not self.answers

    def variables(self) -> set[Variable]:
        return {v for a in self.atoms for v in a.variables()}

    def existential_variables(self) -> set[Variable]:
        """Variables that are not answer variables (``∃vars(q)``)."""
        return self.variables() - set(self.answers)

    def terms(self) -> set[Term]:
        return {t for a in self.atoms for t in a.args}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def apply(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to body and answers simultaneously.

        An answer variable mapped to a non-variable term is dropped from
        the answer tuple position-wise only if it leaves the body —
        standard quotienting keeps substituted answer tuples compatible, so
        we require images of answer variables to be variables.
        """
        new_answers = []
        for v in self.answers:
            image = substitution.apply_term(v)
            if not isinstance(image, Variable):
                raise ValueError(
                    f"substitution maps answer variable {v} to non-variable {image}"
                )
            new_answers.append(image)
        return ConjunctiveQuery(
            substitution.apply_atoms(self.atoms), tuple(new_answers)
        )

    def rename_fresh(
        self, supply: FreshSupply
    ) -> tuple["ConjunctiveQuery", Substitution]:
        """Rename every variable fresh; return the renamed CQ and renaming."""
        renaming = Substitution(
            {v: supply.variable() for v in sorted(self.variables())}
        )
        return self.apply(renaming), renaming

    def with_answers(self, answers: Sequence[Variable]) -> "ConjunctiveQuery":
        return ConjunctiveQuery(self.atoms, answers)

    def boolean(self) -> "ConjunctiveQuery":
        """Drop the answer tuple."""
        return ConjunctiveQuery(self.atoms, ())

    # ------------------------------------------------------------------
    # Graph views (binary signature; Definitions 38/39)
    # ------------------------------------------------------------------

    def digraph(self) -> nx.DiGraph:
        """The directed graph over the query's terms: binary atoms as edges."""
        graph = nx.DiGraph()
        for atom in self.atoms:
            for term in atom.args:
                graph.add_node(term)
            if atom.predicate.arity == 2:
                graph.add_edge(atom.args[0], atom.args[1])
        return graph

    def is_dag(self) -> bool:
        """True when the query's binary-atom graph is acyclic."""
        return nx.is_directed_acyclic_graph(self.digraph())

    def reachability_order(self) -> ReachabilityOrder:
        """The strict order ``<_q`` of Definition 38 (requires a DAG)."""
        return ReachabilityOrder.from_binary_atoms(self.atoms)

    def is_connected(self) -> bool:
        """True when the underlying undirected term graph is connected.

        Terms sharing any atom (of any arity) are adjacent.
        """
        graph = nx.Graph()
        for atom in self.atoms:
            terms = list(atom.args)
            for term in terms:
                graph.add_node(term)
            for i in range(len(terms)):
                for j in range(i + 1, len(terms)):
                    graph.add_edge(terms[i], terms[j])
        if graph.number_of_nodes() <= 1:
            return True
        return nx.is_connected(graph)


def cq(atoms: Iterable[Atom], answers: Sequence[Variable] = ()) -> ConjunctiveQuery:
    """Convenience constructor."""
    return ConjunctiveQuery(atoms, answers)
