"""Interned-term columnar wire codec for the persistent worker protocol.

The persistent pool used to pickle ``Atom`` lists on every round: each
sync, pivot and fire payload re-shipped full predicate and term
objects (their class names, their string names) for every occurrence.
This module replaces those payloads with an *interned* encoding:

Symbol tables
    A :class:`WireEncoder` (parent-owned, one per pool) holds an
    append-only :class:`TermTable` and :class:`PredicateTable` mapping
    every distinct term/predicate the pool has ever shipped to a dense
    integer id.  Each message carries a *table segment* — only the
    entries appended since that worker's last message — so a symbol
    crosses a pipe **once** per worker, ever.  Worker-side, a
    :class:`WireDecoder` replays the segments into id-indexed lists plus
    the reverse maps it needs to encode replies.  Table entries are
    rebuilt through the term/predicate constructors
    (:func:`repro.logic.terms.term_from_wire`,
    :class:`~repro.logic.predicates.Predicate`), so cached hashes are
    recomputed under the receiving interpreter's own ``PYTHONHASHSEED``
    — the same property ``Term.__reduce__`` gave the pickled protocol.

Flat buffers
    Every payload is one flat id stream, packed as LEB128 varints
    (:func:`pack_ids`/:func:`unpack_ids` — table ids are dense and
    small, so most ids cost one byte instead of a fixed four): atoms are
    ``(pred_id, term_ids...)`` streams (self-delimiting — the
    predicate's arity says how many term ids follow); fire tasks
    pack a trigger as its *body-variable image* along the rule's
    canonical :meth:`~repro.rules.rule.Rule.body_variable_order` plus
    drawn null ids along :meth:`~repro.rules.rule.Rule.existential_order`,
    exploiting that a trigger's mapping is exactly
    reconstructible from its image: ``Trigger.__init__`` restricts the
    mapping to the body variables and ``Substitution`` drops identity
    pairs.  Decoded atoms rebuild through the cached-hash fast path
    :func:`repro.logic.atoms.build_atom`.

Replies
    Workers answer with one packed buffer per message (one reply per
    worker slice, not per trigger).  A reply references symbols as
    ``2 * table_id`` when the shared table holds them, or as
    ``2 * literal_index + 1`` for message-local literals shipped
    alongside the buffer — the escape hatch for symbols the parent never
    shipped (in practice :meth:`WireEncoder.intern_rules` pre-interns
    every head symbol a reply can mention, so the literal lists stay
    empty).

Reply envelope
    Every worker reply is ``(status, value, timings)`` built by
    :func:`pack_reply` and read by :func:`unpack_reply`: ``timings`` is
    the worker's ``(decode_s, execute_s, encode_s)`` wall-clock triple
    packed as one fixed-size 24-byte struct (:data:`REPLY_TIMINGS`), or
    ``None`` on error replies.  Fixed-size means the reply byte counters
    stay deterministic — a float's value never changes the envelope
    length.  ``unpack_reply`` tolerates the legacy 2-tuple shape
    (timings ``None``), so mixed-version pipes degrade instead of
    desyncing.  The parent aggregates the triples per command into
    ``TRANSPORT_STATS.worker_seconds``, which is what finally separates
    parent-blocked-on-pipe time from worker compute.

What still pickles: the message envelope itself (a small tuple of
command name, segment, and buffer bytes), the round's ``Rule`` objects
(a few hundred bytes, shipped only on seed/fire), and error
tracebacks.  See ``engine/README.md`` for the protocol walk-through.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.errors import ChaseError
from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term, term_from_wire
from repro.rules.rule import Rule


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
    """Open a reply envelope; returns ``(status, value, timings)``.

    Tolerates the legacy 2-tuple ``(status, value)`` shape (no timings)
    so a mixed-version pipe degrades to untimed replies instead of
    desyncing.
    """
    if len(message) == 2:
        status, value = message
        return status, value, None
    status, value, packed = message
    timings = REPLY_TIMINGS.unpack(packed) if packed else None
    return status, value, timings


# checks: hot
def pack_ids(ids: Iterable[int]) -> bytes:
    """Pack non-negative ids as an LEB128 varint stream.

    Seven id bits per byte, high bit = continuation.  Table ids are
    dense (interning order) and task indexes are small, so the common
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

    def encode_fire_tasks(
        self, rules: Sequence[Rule], tasks: Iterable[tuple]
    ) -> bytes:
        """Pack firing tasks ``(index, rule_index, mapping, nulls)``.

        Layout per task: ``index, rule_index``, the mapping's image along
        the rule's canonical body-variable order, then the parent-drawn
        null ids along the existential order.
        """
        self.intern_rules(rules)
        intern = self.terms.intern
        ids: list[int] = []
        append = ids.append
        for index, rule_index, mapping, existential_map in tasks:
            rule = rules[rule_index]
            append(index)
            append(rule_index)
            apply_term = mapping.apply_term
            for variable in rule.body_variable_order():
                append(intern(apply_term(variable)))
            for variable in rule.existential_order():
                append(intern(existential_map[variable]))
        return pack_ids(ids)


class WireDecoder:
    """Worker-side replica of the parent's symbol tables.

    Grown strictly by :meth:`apply_segment` in message order; holds the
    reverse maps so :class:`ReplyWriter` can emit table refs.
    """

    __slots__ = ("terms", "term_ids", "predicates", "predicate_ids")

    def __init__(self):
        self.terms: list[Term] = []
        self.term_ids: dict[Term, int] = {}
        self.predicates: list[Predicate] = []
        self.predicate_ids: dict[Predicate, int] = {}

    def apply_segment(self, segment) -> None:
        if segment is None:
            return
        term_start, term_specs, pred_start, pred_specs = segment
        if term_start != len(self.terms) or pred_start != len(self.predicates):
            raise ChaseError(
                "wire table segment out of sequence: worker at "
                f"({len(self.terms)}, {len(self.predicates)}), segment "
                f"starts at ({term_start}, {pred_start})"
            )
        for rank, name in term_specs:
            term = term_from_wire(rank, name)
            self.term_ids[term] = len(self.terms)
            self.terms.append(term)
        for name, arity in pred_specs:
            predicate = Predicate(name, arity)
            self.predicate_ids[predicate] = len(self.predicates)
            self.predicates.append(predicate)

    def decode_atoms(self, data: bytes) -> list[Atom]:
        buf = unpack_ids(data)
        terms = self.terms
        predicates = self.predicates
        atoms: list[Atom] = []
        position, end = 0, len(buf)
        while position < end:
            predicate = predicates[buf[position]]
            position += 1
            stop = position + predicate.arity
            args = tuple(terms[i] for i in buf[position:stop])
            position = stop
            atoms.append(build_atom(predicate, args))
        return atoms

    def decode_fire_tasks(
        self, data: bytes, rules: Sequence[Rule]
    ) -> list[tuple]:
        """Unpack fire tasks back to ``(index, rule_index, mapping, nulls)``."""
        buf = unpack_ids(data)
        terms = self.terms
        tasks: list[tuple] = []
        position, end = 0, len(buf)
        while position < end:
            index = buf[position]
            rule_index = buf[position + 1]
            position += 2
            rule = rules[rule_index]
            mapping: dict = {}
            for variable in rule.body_variable_order():
                term = terms[buf[position]]
                position += 1
                if term != variable:
                    mapping[variable] = term
            existential_map: dict = {}
            for variable in rule.existential_order():
                existential_map[variable] = terms[buf[position]]
                position += 1
            tasks.append(
                (
                    index,
                    rule_index,
                    Substitution._from_clean(mapping),
                    existential_map,
                )
            )
        return tasks


class ReplyWriter:
    """Worker-side encoder of one packed reply buffer.

    Symbol refs are ``2 * table_id`` for symbols the shared table holds,
    ``2 * literal_index + 1`` for message-local literals shipped beside
    the buffer — the escape hatch for symbols the parent never interned
    (kept for robustness; ``intern_rules`` makes it a cold path).
    """

    __slots__ = (
        "_decoder",
        "_ids",
        "_literal_terms",
        "_literal_term_ids",
        "_literal_predicates",
        "_literal_predicate_ids",
    )

    def __init__(self, decoder: WireDecoder):
        self._decoder = decoder
        self._ids: list[int] = []
        self._literal_terms: list[tuple[int, str]] = []
        self._literal_term_ids: dict[Term, int] = {}
        self._literal_predicates: list[tuple[str, int]] = []
        self._literal_predicate_ids: dict[Predicate, int] = {}

    def write_int(self, value: int) -> None:
        self._ids.append(value)

    def write_term(self, term: Term) -> None:
        index = self._decoder.term_ids.get(term)
        if index is not None:
            self._ids.append(index << 1)
            return
        literal = self._literal_term_ids.get(term)
        if literal is None:
            literal = len(self._literal_terms)
            self._literal_term_ids[term] = literal
            self._literal_terms.append((type(term)._rank, term.name))
        self._ids.append((literal << 1) | 1)

    def write_predicate(self, predicate: Predicate) -> None:
        index = self._decoder.predicate_ids.get(predicate)
        if index is not None:
            self._ids.append(index << 1)
            return
        literal = self._literal_predicate_ids.get(predicate)
        if literal is None:
            literal = len(self._literal_predicates)
            self._literal_predicate_ids[predicate] = literal
            self._literal_predicates.append((predicate.name, predicate.arity))
        self._ids.append((literal << 1) | 1)

    def write_atom(self, atom: Atom) -> None:
        self.write_predicate(atom.predicate)
        for term in atom.args:
            self.write_term(term)

    def finish(self) -> tuple:
        """The reply payload: ``(literal_terms, literal_preds, buffer)``."""
        return (
            tuple(self._literal_terms),
            tuple(self._literal_predicates),
            pack_ids(self._ids),
        )


class ReplyReader:
    """Parent-side decoder of one packed worker reply."""

    __slots__ = ("_terms", "_predicates", "_literal_terms",
                 "_literal_predicates", "_buf", "_position")

    def __init__(self, encoder: WireEncoder, reply: tuple):
        literal_terms, literal_predicates, payload = reply
        self._terms = encoder.terms.objects
        self._predicates = encoder.predicates.objects
        self._literal_terms = [
            term_from_wire(rank, name) for rank, name in literal_terms
        ]
        self._literal_predicates = [
            Predicate(name, arity) for name, arity in literal_predicates
        ]
        self._buf = unpack_ids(payload)
        self._position = 0

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._buf)

    def read_int(self) -> int:
        value = self._buf[self._position]
        self._position += 1
        return value

    def read_term(self) -> Term:
        ref = self.read_int()
        if ref & 1:
            return self._literal_terms[ref >> 1]
        return self._terms[ref >> 1]

    def read_predicate(self) -> Predicate:
        ref = self.read_int()
        if ref & 1:
            return self._literal_predicates[ref >> 1]
        return self._predicates[ref >> 1]

    def read_atom(self) -> Atom:
        predicate = self.read_predicate()
        args = tuple(self.read_term() for _ in range(predicate.arity))
        return build_atom(predicate, args)


# ----------------------------------------------------------------------
# Reply payloads, one packed buffer per worker message
# ----------------------------------------------------------------------


def encode_derive_reply(decoder: WireDecoder, atoms: Iterable[Atom]) -> tuple:
    """Pack a derived atom set: atoms until end of buffer."""
    writer = ReplyWriter(decoder)
    for atom in atoms:
        writer.write_atom(atom)
    return writer.finish()


def decode_derive_reply(encoder: WireEncoder, reply: tuple) -> set[Atom]:
    reader = ReplyReader(encoder, reply)
    derived: set[Atom] = set()
    while not reader.exhausted:
        derived.add(reader.read_atom())
    return derived


def encode_enumerate_reply(
    decoder: WireDecoder, rules: Sequence[Rule], per_rule: Sequence[dict]
) -> tuple:
    """Pack per-rule image dicts: per rule a count, then flat images.

    Only the images cross the wire — a trigger's homomorphism is exactly
    reconstructible from its image along the rule's canonical
    body-variable order (see module docstring), so the parent rebuilds
    the ``{image: hom}`` dicts without shipping ``Substitution`` graphs.
    """
    writer = ReplyWriter(decoder)
    for found in per_rule:
        writer.write_int(len(found))
        for image in found:
            for term in image:
                writer.write_term(term)
    return writer.finish()


def decode_enumerate_reply(
    encoder: WireEncoder, rules: Sequence[Rule], reply: tuple
) -> list[dict]:
    reader = ReplyReader(encoder, reply)
    results: list[dict] = []
    for rule in rules:
        order = rule.body_variable_order()
        found: dict = {}
        for _ in range(reader.read_int()):
            image = tuple(reader.read_term() for _ in order)
            mapping = {
                variable: term
                for variable, term in zip(order, image)
                if variable != term
            }
            found[image] = Substitution._from_clean(mapping)
        results.append(found)
    return results


def encode_fire_reply(decoder: WireDecoder, pairs: Iterable[tuple]) -> tuple:
    """Pack fire outputs: per trigger ``index, |atoms|, atoms``."""
    writer = ReplyWriter(decoder)
    for index, atoms in pairs:
        writer.write_int(index)
        writer.write_int(len(atoms))
        for atom in atoms:
            writer.write_atom(atom)
    return writer.finish()


def decode_fire_reply(
    encoder: WireEncoder, reply: tuple
) -> list[tuple[int, set[Atom]]]:
    reader = ReplyReader(encoder, reply)
    pairs: list[tuple[int, set[Atom]]] = []
    while not reader.exhausted:
        index = reader.read_int()
        count = reader.read_int()
        pairs.append((index, {reader.read_atom() for _ in range(count)}))
    return pairs
