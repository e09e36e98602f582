"""Terms of first-order logic: constants, variables and labelled nulls.

The paper (Section 2.1) works with instances whose active domain consists of
variables only.  For engineering purposes we distinguish three kinds of
terms:

* :class:`Constant` — a rigid database value; homomorphisms map it to itself.
* :class:`Variable` — a query/rule variable; homomorphisms map it freely.
* :class:`Null` — a labelled null invented by the chase; like a variable it
  is mapped freely by homomorphisms, but carries a globally unique identity
  so that distinct chase steps never collide.

All terms are immutable, hashable and totally ordered (constants < variables
< nulls, then by name), which keeps every iteration in the library
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union


class Term:
    """Abstract base class of all terms."""

    __slots__ = ("name", "_hash")

    # Order rank used for the deterministic total order across term kinds.
    _rank = 0

    def __init__(self, name: str):
        self.name = name
        # Terms are hashed constantly (every index lookup, every binding
        # probe); caching saves a tuple build per call.
        self._hash = hash((type(self).__name__, name))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed with
        # the unpickling interpreter's seed: a verbatim-copied _hash from
        # another process (spawned workers, different PYTHONHASHSEED)
        # would silently break equality and set membership.
        return (type(self), (self.name,))

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return (self._rank, self.name) < (other._rank, other.name)

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return (self._rank, self.name) <= (other._rank, other.name)

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)


class Constant(Term):
    """A rigid database constant.  Homomorphisms fix constants pointwise."""

    __slots__ = ()
    _rank = 0


class Variable(Term):
    """A rule or query variable.  Mapped freely by substitutions."""

    __slots__ = ()
    _rank = 1


class Null(Term):
    """A labelled null created by the chase.

    Nulls behave like variables for homomorphism purposes but their names
    come from a :class:`FreshSupply` so each chase run produces globally
    distinct terms.
    """

    __slots__ = ()
    _rank = 2


#: Term kinds indexed by their ``_rank`` — the wire spec of a term is
#: ``(rank, name)``, so :func:`term_from_wire` is the inverse of
#: ``(type(t)._rank, t.name)``.  Used by the engine's interned-term
#: transport (:mod:`repro.engine.wire`).
TERM_KINDS: tuple[type, ...] = (Constant, Variable, Null)


def term_from_wire(rank: int, name: str) -> Term:
    """Rebuild a term from its wire spec ``(rank, name)``.

    The interned-term transport ships each distinct term **once** as this
    spec; rebuilding through the class constructor recomputes the cached
    hash under the receiving interpreter's own ``PYTHONHASHSEED`` — the
    same guarantee :meth:`Term.__reduce__` gives pickled terms.
    """
    return TERM_KINDS[rank](name)


class FreshSupply:
    """Deterministic supply of fresh variables and nulls.

    A supply hands out names ``prefix0, prefix1, ...``; two supplies with
    different prefixes never collide.  Supplies are cheap; create one per
    chase run or per rewriting run for reproducible names.

    The supply exposes its :attr:`position` (how many names were handed
    out).  Names are drawn lazily, one trigger at a time, so on a
    mid-round budget stop every engine leaves the supply at the same
    position.
    """

    def __init__(self, prefix: str = "_n"):
        self._prefix = prefix
        self._counter = 0

    @property
    def position(self) -> int:
        """How many names this supply has handed out so far."""
        return self._counter

    def null(self) -> Null:
        """Return a fresh labelled null."""
        count = self._counter
        self._counter = count + 1
        return Null(f"{self._prefix}{count}")

    def variable(self) -> Variable:
        """Return a fresh variable."""
        count = self._counter
        self._counter = count + 1
        return Variable(f"{self._prefix}{count}")

    def nulls(self, count: int) -> list[Null]:
        """Return ``count`` fresh nulls."""
        return [self.null() for _ in range(count)]

    def variables(self, count: int) -> list[Variable]:
        """Return ``count`` fresh variables."""
        return [self.variable() for _ in range(count)]


TermLike = Union[Term, str]


def as_term(value: TermLike) -> Term:
    """Coerce ``value`` into a :class:`Term`.

    Strings follow the DSL convention: names starting with an uppercase
    letter or a digit, or quoted with single quotes, become constants; all
    other names become variables.
    """
    if isinstance(value, Term):
        return value
    if not isinstance(value, str) or not value:
        raise TypeError(f"cannot interpret {value!r} as a term")
    if value.startswith("'") and value.endswith("'") and len(value) >= 3:
        return Constant(value[1:-1])
    first = value[0]
    if first.isupper() or first.isdigit():
        return Constant(value)
    return Variable(value)


def variables_of(terms: Iterable[Term]) -> Iterator[Variable]:
    """Yield the variables among ``terms`` in order of appearance."""
    for term in terms:
        if isinstance(term, Variable):
            yield term


def fresh_renaming(terms: Iterable[Term], supply: FreshSupply) -> dict[Term, Term]:
    """Return a renaming of all non-constant ``terms`` to fresh variables.

    The same input term is always mapped to the same fresh variable, so the
    renaming is injective on its domain.
    """
    renaming: dict[Term, Term] = {}
    for term in terms:
        if term.is_constant or term in renaming:
            continue
        renaming[term] = supply.variable()
    return renaming
