"""Interned-term columnar wire codec for the persistent worker protocol.

The pool's payloads are not pickled ``Atom`` lists — which would
re-ship full predicate and term objects (their class names, their
string names) for every occurrence — but an *interned* encoding:

Symbol tables
    The pool owns one :class:`~repro.engine.columnar.Vocabulary`, the
    append-only table set that also backs worker replicas and the join
    kernel's id views, mapping every distinct term/predicate the pool
    has ever shipped to a dense integer id.  :func:`encode_atoms` and
    :func:`intern_rules` grow it.  Each message carries a *table
    segment* (:meth:`~repro.engine.columnar.Vocabulary.segment`) — only
    the entries appended since that worker's last message — so a symbol
    crosses a pipe **once** per worker, ever.  Worker-side, a second
    ``Vocabulary`` replays the segments
    (:meth:`~repro.engine.columnar.Vocabulary.apply_segment`) into
    id-indexed lists plus the reverse maps the reply encoders look ids
    up in.  Table entries are rebuilt through the term/predicate
    constructors (:func:`repro.logic.terms.term_from_wire`,
    :class:`~repro.logic.predicates.Predicate`), so cached hashes are
    recomputed under the receiving interpreter's own ``PYTHONHASHSEED``
    — the same property ``Term.__reduce__`` gives pickles.

Flat buffers
    Every payload is one flat id stream, packed as LEB128 varints
    (:func:`pack_ids`/:func:`unpack_ids` — table ids are dense and
    small, so most ids cost one byte instead of a fixed four).  Atoms
    travel as id rows ``(pred_id, term_ids)`` (what
    :meth:`~repro.engine.columnar.Vocabulary.intern_atom` returns),
    packed back to back by :func:`pack_rows` (self-delimiting: the
    predicate's arity says how many term ids follow).  Workers fold them
    straight into their replicas' rows.

Replies
    Workers answer with one packed buffer per message (one reply per
    worker slice): a ``derive`` reply is the heads the replica lacks, as
    id rows straight from the join kernel (the parent reads them back as
    rows, :func:`decode_derive_reply`), an enumeration reply per-rule
    match images as term ids (an ``enumerate_counted`` reply holds two
    image lists per rule, its survivors and its pruned images, and the
    parent decodes it against each rule twice).  Every symbol a reply
    mentions is already in the shared table — :func:`intern_rules`
    pre-interns every head symbol at seed, and body images come from the
    replica — so replies carry table ids only; a symbol missing from the
    worker's table raises :class:`~repro.errors.ChaseError`, and so does
    a malformed reply on the parent's side (a truncated atom stream, a
    missing image count, a short image, leftover ids or an id past the
    end of a table).

Reply envelope
    Every worker reply is ``(status, value, telemetry)`` built by
    :func:`pack_reply` and read by :func:`unpack_reply`: ``telemetry``
    is the worker's ``(decode_s, execute_s, encode_s)`` wall-clock
    triple and the ``(searches, candidates, heads)`` its command added
    to ``MATCHER_STATS`` and ``INSTANTIATION_STATS``, packed as one
    fixed-size 48-byte struct (:data:`REPLY_TELEMETRY`), or ``None`` on
    error replies.  Fixed-size means the reply byte counters stay
    deterministic.  The parent aggregates the timings per command into
    ``TRANSPORT_STATS.worker_seconds``, which separates
    parent-blocked-on-pipe time from worker compute, and adds the counts
    to its own counters.

What still pickles: the message envelope itself (a small tuple of
command name, segment, and buffer bytes), the round's ``Rule`` objects
(a few hundred bytes, shipped only on seed), and error tracebacks.  See
``engine/README.md`` for the protocol walk-through.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.rules.rule import Rule

if TYPE_CHECKING:  # annotation-only: columnar imports this module
    from repro.engine.columnar import Vocabulary
    from repro.logic.predicates import Predicate


#: The reply envelope's fixed-size worker telemetry: the wall-clock triple
#: ``(decode_s, execute_s, encode_s)`` as three little-endian doubles,
#: then the counter deltas ``(searches, candidates, heads)`` as three
#: unsigned 64-bit integers.
REPLY_TELEMETRY = struct.Struct("<dddQQQ")


def pack_reply(status: str, value, telemetry: tuple | None = None) -> tuple:
    """Build one worker reply envelope ``(status, value, telemetry)``.

    ``telemetry`` is the worker-side ``(decode_s, execute_s, encode_s)``
    wall-clock split followed by the command's matcher searches, matcher
    candidates and head instantiations, packed into
    :data:`REPLY_TELEMETRY`'s 48 fixed bytes so the envelope's pickled
    size never depends on the values — byte counters stay
    deterministic.  Error replies ship ``None``.
    """
    packed = REPLY_TELEMETRY.pack(*telemetry) if telemetry else None
    return (status, value, packed)


def unpack_reply(
    message: tuple,
) -> tuple[str, object, tuple | None, tuple | None]:
    """Open a reply envelope; returns ``(status, value, timings, counts)``
    (the last two ``None`` on an error reply)."""
    status, value, packed = message
    if not packed:
        return status, value, None, None
    telemetry = REPLY_TELEMETRY.unpack(packed)
    return status, value, telemetry[:3], telemetry[3:]


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


def intern_rules(vocabulary: "Vocabulary", rules: Iterable[Rule]) -> None:
    """Pre-intern every non-variable head symbol of ``rules``.

    A worker reply over these rules (derived heads, match images)
    mentions head predicates, body-image terms (which seed, sync and
    pivot encoding interns) and head constants — after this, all of
    them resolve as table ids and replies need no literals.
    """
    intern_predicate = vocabulary.intern_predicate
    intern_term = vocabulary.intern_term
    for rule in rules:
        for atom in rule.head:
            intern_predicate(atom.predicate)
            for term in atom.args:
                if not term.is_variable:
                    intern_term(term)


def require_rule_symbols(vocabulary: "Vocabulary", rules: Iterable[Rule]):
    """Check that :func:`intern_rules` ran: every non-variable head
    symbol of ``rules`` is in ``vocabulary``, a worker's table replica
    (which grows only by segments).  One that is not raises
    :class:`~repro.errors.ChaseError`."""
    for rule in rules:
        for atom in rule.head:
            if atom.predicate not in vocabulary.predicate_ids:
                raise _missing_symbol(atom.predicate)
            for term in atom.args:
                if not term.is_variable and term not in vocabulary.term_ids:
                    raise _missing_symbol(term)


# checks: hot
def pack_rows(rows: Iterable[tuple[int, tuple[int, ...]]]) -> bytes:
    """Pack id rows ``(pred_id, term_ids)`` as one flat
    ``(pred_id, term_ids...)`` stream."""
    ids: list[int] = []
    append = ids.append
    extend = ids.extend
    for pred_id, term_ids in rows:
        append(pred_id)
        extend(term_ids)
    return pack_ids(ids)


def encode_atoms(vocabulary: "Vocabulary", atoms: Iterable[Atom]) -> bytes:
    """Pack atoms as one flat ``(pred_id, term_ids...)`` stream,
    interning new symbols into the pool's ``vocabulary``."""
    return pack_rows(map(vocabulary.intern_atom, atoms))


# ----------------------------------------------------------------------
# Reply payloads, one packed buffer per worker message
# ----------------------------------------------------------------------


def _missing_symbol(symbol) -> ChaseError:
    return ChaseError(
        f"worker reply mentions {symbol!r}, which is not in the wire table"
    )


def _unknown_id() -> ChaseError:
    return ChaseError("packed ids mention an id past the wire table")


# checks: hot
def unpack_rows(
    data: bytes, predicates: Sequence["Predicate"]
) -> dict[int, list[tuple[int, ...]]]:
    """The id rows of one :func:`pack_rows` stream, ``pred_id ->
    term-id tuples`` in stream order (the join kernel's delta form),
    delimited by the arities of the wire table ``predicates``.

    The one parser of packed rows: replica ingest, worker pivots, derive
    replies.  A truncated stream, or a predicate id past the table,
    raises :class:`~repro.errors.ChaseError`.
    """
    ids = tuple(unpack_ids(data))
    grouped: dict[int, list[tuple[int, ...]]] = {}
    position, end = 0, len(ids)
    try:
        while position < end:
            pred_id = ids[position]
            stop = position + 1 + predicates[pred_id].arity
            if stop > end:
                raise ChaseError("truncated packed atom stream")
            rows = grouped.get(pred_id)
            if rows is None:
                grouped[pred_id] = [ids[position + 1:stop]]
            else:
                rows.append(ids[position + 1:stop])
            position = stop
    except IndexError:
        raise _unknown_id() from None
    return grouped


def decode_derive_reply(
    vocabulary: "Vocabulary", reply: bytes
) -> set[tuple[int, tuple[int, ...]]]:
    """The id rows ``(pred_id, term_ids)`` of one derive reply (a
    :func:`pack_rows` stream), checked against the pool's tables.

    No ``Atom`` is built: the parent merges the workers' rows first.  A
    truncated atom stream, or an id past the end of the predicate or
    term table, raises :class:`~repro.errors.ChaseError`.
    """
    grouped = unpack_rows(reply, vocabulary.predicates)
    rows = {(pred, ids) for pred, found in grouped.items() for ids in found}
    if any(ids and max(ids) >= len(vocabulary.terms) for _, ids in rows):
        raise _unknown_id()
    return rows


def encode_enumerate_reply(
    vocabulary: "Vocabulary", per_rule: Sequence[Iterable[tuple]]
) -> bytes:
    """Pack per-rule image lists: per rule a count, then flat images.

    Only the images cross the wire — a trigger is its rule plus its
    image along the rule's canonical body-variable order, and derives
    its mapping from the image.  A term missing from the worker's table
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
        raise _missing_symbol(error.args[0]) from None
    return pack_ids(ids)


def decode_enumerate_reply(
    vocabulary: "Vocabulary", rules: Sequence[Rule], reply: bytes
) -> list[list[tuple]]:
    """Rebuild the per-rule image lists of one reply, in reply order.

    Each image is a ``Term`` tuple along the rule's body-variable order,
    the same result type an inline :func:`repro.engine.core.round_matches`
    returns; no homomorphism is rebuilt (a trigger derives its mapping
    from its image).  A reply must hold exactly one count per rule and
    ``count`` images of the rule's width after it, over ids in the term
    table; a missing count, a short image, leftover ids or an id past
    the table raise :class:`~repro.errors.ChaseError`.
    """
    ids = unpack_ids(reply)
    term = vocabulary.terms.__getitem__
    results: list[list[tuple]] = []
    position, end = 0, len(ids)
    try:
        for rule in rules:
            if position == end:
                raise ChaseError("enumerate reply is missing an image count")
            width = len(rule.body_variable_order())
            count = ids[position]
            position += 1
            if position + count * width > end:
                raise ChaseError("truncated enumerate reply: short image")
            found: list[tuple] = []
            for _ in range(count):
                found.append(tuple(map(term, ids[position:position + width])))
                position += width
            results.append(found)
    except IndexError:
        raise _unknown_id() from None
    if position != end:
        raise ChaseError(
            f"enumerate reply has {end - position} leftover ids"
        )
    return results
