"""Interned-term columnar wire codec for the persistent worker protocol.

The persistent pool used to pickle ``Atom`` lists on every round: each
sync and pivot payload re-shipped full predicate and term objects (their
class names, their string names) for every occurrence.  This module
replaces those payloads with an *interned* encoding:

Symbol tables
    A :class:`WireEncoder` (parent-owned, one per pool) holds an
    append-only :class:`TermTable` and :class:`PredicateTable` mapping
    every distinct term/predicate the pool has ever shipped to a dense
    integer id.  Each message carries a *table segment* — only the
    entries appended since that worker's last message — so a symbol
    crosses a pipe **once** per worker, ever.  Worker-side, a
    :class:`~repro.engine.columnar.Vocabulary` replays the segments
    (:meth:`~repro.engine.columnar.Vocabulary.apply_segment`) into
    id-indexed lists plus the reverse maps the reply encoders look ids
    up in.  Table entries are rebuilt through the term/predicate
    constructors (:func:`repro.logic.terms.term_from_wire`,
    :class:`~repro.logic.predicates.Predicate`), so cached hashes are
    recomputed under the receiving interpreter's own ``PYTHONHASHSEED``
    — the same property ``Term.__reduce__`` gave the pickled protocol.

Flat buffers
    Every payload is one flat id stream, packed as LEB128 varints
    (:func:`pack_ids`/:func:`unpack_ids` — table ids are dense and
    small, so most ids cost one byte instead of a fixed four): atoms are
    ``(pred_id, term_ids...)`` streams (self-delimiting — the
    predicate's arity says how many term ids follow).  Workers fold them
    straight into id rows; the parent's decoded reply atoms rebuild
    through the cached-hash fast path :func:`repro.logic.atoms.build_atom`.

Replies
    Workers answer with one packed buffer per message (one reply per
    worker slice): derived atoms in the same ``(pred_id, term_ids...)``
    layout, or per-rule match images as term ids.  Every symbol a reply
    mentions is already in the shared table — :meth:`WireEncoder.intern_rules`
    pre-interns every head symbol at seed, and body images come from the
    replica — so replies carry table ids only; a symbol missing from the
    worker's table raises :class:`~repro.errors.ChaseError`, and so does
    a malformed reply on the parent's side (a truncated atom stream, a
    missing image count, a short image or leftover ids).

Reply envelope
    Every worker reply is ``(status, value, timings)`` built by
    :func:`pack_reply` and read by :func:`unpack_reply`: ``timings`` is
    the worker's ``(decode_s, execute_s, encode_s)`` wall-clock triple
    packed as one fixed-size 24-byte struct (:data:`REPLY_TIMINGS`), or
    ``None`` on error replies.  Fixed-size means the reply byte counters
    stay deterministic — a float's value never changes the envelope
    length.  The parent aggregates the triples per command into
    ``TRANSPORT_STATS.worker_seconds``, which is what finally separates
    parent-blocked-on-pipe time from worker compute.

What still pickles: the message envelope itself (a small tuple of
command name, segment, and buffer bytes), the round's ``Rule`` objects
(a few hundred bytes, shipped only on seed), and error tracebacks.  See
``engine/README.md`` for the protocol walk-through.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ChaseError
from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term
from repro.rules.rule import Rule

if TYPE_CHECKING:  # annotation-only: columnar imports this module
    from repro.engine.columnar import Vocabulary


#: The reply envelope's fixed-size worker-timing triple:
#: ``(decode_s, execute_s, encode_s)`` as three little-endian doubles.
REPLY_TIMINGS = struct.Struct("<ddd")


def pack_reply(
    status: str, value, timings: tuple[float, float, float] | None = None
) -> tuple:
    """Build one worker reply envelope ``(status, value, timings)``.

    ``timings`` is the worker-side ``(decode_s, execute_s, encode_s)``
    wall-clock split, packed into :data:`REPLY_TIMINGS`'s 24 fixed bytes
    so the envelope's pickled size never depends on the float values —
    byte counters stay deterministic.  Error replies ship ``None``.
    """
    packed = REPLY_TIMINGS.pack(*timings) if timings is not None else None
    return (status, value, packed)


def unpack_reply(message: tuple) -> tuple[str, object, tuple | None]:
    """Open a reply envelope; returns ``(status, value, timings)``."""
    status, value, packed = message
    timings = REPLY_TIMINGS.unpack(packed) if packed else None
    return status, value, timings


# checks: hot
def pack_ids(ids: Iterable[int]) -> bytes:
    """Pack non-negative ids as an LEB128 varint stream.

    Seven id bits per byte, high bit = continuation.  Table ids are
    dense (interning order) and reply counts are small, so the common
    id costs one byte — the packed stream undercuts both a fixed-width
    array and a pickled object graph by a wide margin.
    """
    out = bytearray()
    append = out.append
    for value in ids:
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


# checks: hot
def unpack_ids(data: bytes) -> list[int]:
    """Inverse of :func:`pack_ids`."""
    ids: list[int] = []
    append = ids.append
    current = 0
    shift = 0
    for byte in data:
        if byte & 0x80:
            current |= (byte & 0x7F) << shift
            shift += 7
        else:
            append(current | (byte << shift))
            current = 0
            shift = 0
    if shift:
        raise ChaseError("truncated varint id stream")
    return ids


def atom_weight(atom: Atom) -> int:
    """Wire-transport cost of one atom, in ids.

    Exactly what the atom occupies in a packed sync/pivot buffer: one
    predicate id plus one term id per argument.  Each id costs 1–5
    varint bytes on the wire (1 for the dense common case), so a
    worker's weight is proportional, up to varint width and the
    one-time symbol-table entries, to the bytes its atoms cost to ship.
    Round traces report it per worker (``shard_weights``).
    """
    return 1 + len(atom.args)


class TermTable:
    """Append-only ``Term ↔ id`` table (parent side).

    ``specs[i]`` is the wire spec ``(rank, name)`` of ``objects[i]`` —
    the rank indexes :data:`repro.logic.terms.TERM_KINDS`, so a worker
    rebuilds the term through its class constructor.
    """

    __slots__ = ("ids", "objects", "specs")

    def __init__(self):
        self.ids: dict[Term, int] = {}
        self.objects: list[Term] = []
        self.specs: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.objects)

    def intern(self, term: Term) -> int:
        index = self.ids.get(term)
        if index is None:
            index = len(self.objects)
            self.ids[term] = index
            self.objects.append(term)
            self.specs.append((type(term)._rank, term.name))
        return index


class PredicateTable:
    """Append-only ``Predicate ↔ id`` table (parent side).

    ``specs[i]`` is the wire spec ``(name, arity)`` of ``objects[i]``.
    """

    __slots__ = ("ids", "objects", "specs")

    def __init__(self):
        self.ids: dict[Predicate, int] = {}
        self.objects: list[Predicate] = []
        self.specs: list[tuple[str, int]] = []

    def __len__(self) -> int:
        return len(self.objects)

    def intern(self, predicate: Predicate) -> int:
        index = self.ids.get(predicate)
        if index is None:
            index = len(self.objects)
            self.ids[predicate] = index
            self.objects.append(predicate)
            self.specs.append((predicate.name, predicate.arity))
        return index


class WireEncoder:
    """Parent-side codec: interns symbols, packs payloads, reads replies.

    One encoder per :class:`~repro.engine.workers.WorkerPool`; its tables
    are the pool's shared vocabulary.  The pool tracks a per-worker
    high-water mark into the tables and ships each worker only the
    :meth:`segment` it has not seen — taken *after* every payload of a
    broadcast has been encoded, so a segment always covers everything
    the message references.
    """

    __slots__ = ("terms", "predicates")

    def __init__(self):
        self.terms = TermTable()
        self.predicates = PredicateTable()

    def marks(self) -> tuple[int, int]:
        """The current table high-water marks ``(terms, predicates)``."""
        return (len(self.terms), len(self.predicates))

    def segment(self, term_mark: int, pred_mark: int):
        """The table entries appended since ``(term_mark, pred_mark)``.

        Returns ``None`` when the worker is already current — the
        pickled envelope then carries a single byte for the slot.
        """
        term_specs = self.terms.specs
        pred_specs = self.predicates.specs
        if term_mark == len(term_specs) and pred_mark == len(pred_specs):
            return None
        return (
            term_mark,
            tuple(term_specs[term_mark:]),
            pred_mark,
            tuple(pred_specs[pred_mark:]),
        )

    def intern_rules(self, rules: Iterable[Rule]) -> None:
        """Pre-intern every non-variable head symbol of ``rules``.

        A worker reply over these rules (derived atoms, fire outputs)
        mentions head predicates, body-image terms (which
        task/sync encoding interns) and head constants — after this, all
        of them resolve as table refs and replies need no literals.
        """
        intern_pred = self.predicates.intern
        intern_term = self.terms.intern
        for rule in rules:
            for atom in rule.head:
                intern_pred(atom.predicate)
                for term in atom.args:
                    if not term.is_variable:
                        intern_term(term)

    def encode_atoms(self, atoms: Iterable[Atom]) -> bytes:
        """Pack atoms as one flat ``(pred_id, term_ids...)`` stream."""
        intern_pred = self.predicates.intern
        intern_term = self.terms.intern
        ids: list[int] = []
        append = ids.append
        for atom in atoms:
            append(intern_pred(atom.predicate))
            for term in atom.args:
                append(intern_term(term))
        return pack_ids(ids)


# ----------------------------------------------------------------------
# Reply payloads, one packed buffer per worker message
# ----------------------------------------------------------------------


def _missing_symbol(error: KeyError) -> ChaseError:
    return ChaseError(
        f"worker reply mentions {error.args[0]!r}, which is not in the "
        f"wire table"
    )


def encode_derive_reply(
    vocabulary: "Vocabulary", atoms: Iterable[Atom]
) -> bytes:
    """Pack derived atoms in :meth:`WireEncoder.encode_atoms`' layout.

    Ids come from the worker's table replica; a symbol it does not hold
    raises :class:`~repro.errors.ChaseError`.
    """
    predicate_ids = vocabulary.predicate_ids
    term_ids = vocabulary.term_ids
    ids: list[int] = []
    append = ids.append
    try:
        for atom in atoms:
            append(predicate_ids[atom.predicate])
            for term in atom.args:
                append(term_ids[term])
    except KeyError as error:
        raise _missing_symbol(error) from None
    return pack_ids(ids)


def decode_derive_reply(encoder: WireEncoder, reply: bytes) -> set[Atom]:
    ids = unpack_ids(reply)
    terms = encoder.terms.objects
    predicates = encoder.predicates.objects
    derived: set[Atom] = set()
    position, end = 0, len(ids)
    while position < end:
        predicate = predicates[ids[position]]
        stop = position + 1 + predicate.arity
        if stop > end:
            raise ChaseError("truncated packed atom stream")
        args = tuple([terms[i] for i in ids[position + 1:stop]])
        derived.add(build_atom(predicate, args))
        position = stop
    return derived


def encode_enumerate_reply(
    vocabulary: "Vocabulary", per_rule: Sequence[dict]
) -> bytes:
    """Pack per-rule image dicts: per rule a count, then flat images.

    Only the images cross the wire — a trigger's homomorphism is exactly
    reconstructible from its image along the rule's canonical
    body-variable order (``Trigger`` restricts its mapping to the body
    variables and ``Substitution`` drops identity pairs), so the parent
    rebuilds the ``{image: hom}`` dicts without shipping
    ``Substitution`` graphs.  A term missing from the worker's table
    replica raises :class:`~repro.errors.ChaseError`.
    """
    term_ids = vocabulary.term_ids
    ids: list[int] = []
    append = ids.append
    try:
        for found in per_rule:
            append(len(found))
            for image in found:
                for term in image:
                    append(term_ids[term])
    except KeyError as error:
        raise _missing_symbol(error) from None
    return pack_ids(ids)


def decode_enumerate_reply(
    encoder: WireEncoder, rules: Sequence[Rule], reply: bytes
) -> list[dict]:
    """Rebuild the per-rule ``{image: hom}`` dicts of one reply.

    A reply must hold exactly one count per rule and ``count`` images of
    the rule's width after it; a missing count, a short image or
    leftover ids raise :class:`~repro.errors.ChaseError`.
    """
    ids = unpack_ids(reply)
    terms = encoder.terms.objects
    results: list[dict] = []
    position, end = 0, len(ids)
    for rule in rules:
        if position == end:
            raise ChaseError("enumerate reply is missing an image count")
        order = rule.body_variable_order()
        width = len(order)
        count = ids[position]
        position += 1
        if position + count * width > end:
            raise ChaseError("truncated enumerate reply: short image")
        found: dict = {}
        for _ in range(count):
            image = tuple([terms[i] for i in ids[position:position + width]])
            position += width
            mapping = {
                variable: term
                for variable, term in zip(order, image)
                if variable != term
            }
            found[image] = Substitution._from_clean(mapping)
        results.append(found)
    if position != end:
        raise ChaseError(
            f"enumerate reply has {end - position} leftover ids"
        )
    return results
