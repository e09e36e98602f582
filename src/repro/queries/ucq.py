"""Unions of conjunctive queries (Section 2.1).

A UCQ ``Q(x̄)`` is a finite set of CQs; following the paper, each disjunct's
answer tuple must be a *specialization* of the UCQ's answer tuple (the
disjuncts may identify answer variables).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.logic.substitutions import is_specialization
from repro.logic.terms import Variable
from repro.queries.cq import ConjunctiveQuery


class UnionOfConjunctiveQueries:
    """An immutable set of CQ disjuncts with a shared answer tuple."""

    __slots__ = ("disjuncts", "answers", "_hash")

    def __init__(
        self,
        disjuncts: Iterable[ConjunctiveQuery],
        answers: Sequence[Variable] | None = None,
    ):
        unique: list[ConjunctiveQuery] = []
        seen: set[ConjunctiveQuery] = set()
        for disjunct in disjuncts:
            if disjunct not in seen:
                seen.add(disjunct)
                unique.append(disjunct)
        if answers is None:
            if not unique:
                raise ValueError(
                    "an empty UCQ needs an explicit answer tuple"
                )
            answers = unique[0].answers
        answer_tuple = tuple(answers)
        for disjunct in unique:
            if len(disjunct.answers) != len(answer_tuple):
                raise ValueError(
                    f"disjunct {disjunct} has {len(disjunct.answers)} answer "
                    f"variables, expected {len(answer_tuple)}"
                )
            if not is_specialization(answer_tuple, disjunct.answers):
                raise ValueError(
                    f"answer tuple of {disjunct} is not a specialization of "
                    f"{tuple(v.name for v in answer_tuple)}"
                )
        self.disjuncts = tuple(sorted(unique))
        self.answers = answer_tuple
        self._hash = hash((frozenset(unique), answer_tuple))

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __contains__(self, disjunct: ConjunctiveQuery) -> bool:
        return disjunct in set(self.disjuncts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnionOfConjunctiveQueries)
            and set(self.disjuncts) == set(other.disjuncts)
            and self.answers == other.answers
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed with
        # the unpickling interpreter's seed (see Term.__reduce__).
        return (type(self), (self.disjuncts, self.answers))

    def __repr__(self) -> str:
        return f"UCQ({len(self.disjuncts)} disjuncts, answers={[v.name for v in self.answers]})"

    def __str__(self) -> str:
        return "\n".join(str(q) for q in self.disjuncts)

    @property
    def is_boolean(self) -> bool:
        return not self.answers

    def union(
        self, other: "UnionOfConjunctiveQueries"
    ) -> "UnionOfConjunctiveQueries":
        if len(self.answers) != len(other.answers):
            raise ValueError("cannot union UCQs with different answer arity")
        return UnionOfConjunctiveQueries(
            list(self.disjuncts) + list(other.disjuncts), self.answers
        )

    def max_disjunct_size(self) -> int:
        """``max{|q'| : q' ∈ Q}`` — the size bound of Lemma 40's measure."""
        return max((len(q) for q in self.disjuncts), default=0)


#: Short alias used throughout the library.
UCQ = UnionOfConjunctiveQueries


def ucq(*disjuncts: ConjunctiveQuery) -> UCQ:
    """Convenience constructor."""
    return UCQ(disjuncts)
