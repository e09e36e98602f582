"""The interned-term wire codec and per-command transport accounting.

Two halves:

* codec round-trip tests — packed atom and reply buffers rebuild the
  exact objects (nulls, constants, repeated terms, empty deltas),
  symbols intern once, segments replay strictly in order into a
  worker's :class:`~repro.engine.columnar.Vocabulary`, and a reply
  symbol missing from the worker's table, or a malformed reply, is an
  error;
* :data:`TRANSPORT_STATS` accounting — exact per-command byte/atom/
  message counters for seed, sync, enumerate, derive and stop on a
  small workload at ``workers=1``, monotonicity at ``workers=3``.
"""

from __future__ import annotations

import random

import pytest

from repro.chase.trigger import Trigger
from repro.engine import wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.wire import atom_weight
from repro.engine.workers import TRANSPORT_STATS, WorkerPool
from repro.errors import ChaseError
from repro.logic.atoms import Atom, atom, build_atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import (
    TERM_KINDS,
    Constant,
    Null,
    Variable,
    term_from_wire,
)
from repro.rules.parser import parse_rules


def _synced_vocabulary(tables: Vocabulary) -> Vocabulary:
    """A worker-side vocabulary caught up to the parent's current tables."""
    vocabulary = Vocabulary()
    vocabulary.apply_segment(tables.segment(0, 0))
    return vocabulary


def _ingest(vocabulary: Vocabulary, buf: bytes) -> list[Atom]:
    """Fold a packed atom buffer into a fresh replica, as a worker does;
    returns its rows, read as atoms through the vocabulary, in the
    library's sorted order."""
    replica = ColumnarInstance(vocabulary)
    replica.ingest_packed(buf)
    terms = vocabulary.terms
    return sorted(
        build_atom(predicate, tuple([terms[i] for i in row]))
        for pred_id, predicate in enumerate(vocabulary.predicates)
        for row in replica.rows(pred_id)
    )


# ----------------------------------------------------------------------
# Intern hooks
# ----------------------------------------------------------------------


class TestInternHooks:
    def test_term_from_wire_inverts_rank_and_name(self):
        for term in (Constant("a"), Variable("x"), Null("_n0")):
            rebuilt = term_from_wire(type(term)._rank, term.name)
            assert rebuilt == term
            assert type(rebuilt) is type(term)
            assert hash(rebuilt) == hash(term)

    def test_term_kinds_indexed_by_rank(self):
        for rank, kind in enumerate(TERM_KINDS):
            assert kind._rank == rank

    def test_build_atom_matches_checked_constructor(self):
        predicate = Predicate("R", 2)
        args = (Constant("a"), Null("_n1"))
        fast = build_atom(predicate, args)
        checked = Atom(predicate, args)
        assert fast == checked
        assert hash(fast) == hash(checked)


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------


class TestAtomCodec:
    def test_round_trip_with_nulls_constants_and_repeats(self):
        atoms = [
            atom("E", "A", "B"),
            Atom(Predicate("F", 2), (Constant("A"), Null("_n0"))),
            Atom(Predicate("F", 2), (Null("_n0"), Null("_n0"))),
            atom("unary", "A"),
            Atom(Predicate("top", 0), ()),
        ]
        tables = Vocabulary()
        buf = wire.encode_atoms(tables, atoms)
        decoded = _ingest(_synced_vocabulary(tables), buf)
        assert decoded == sorted(atoms)
        assert [hash(a) for a in decoded] == [hash(a) for a in sorted(atoms)]
        # Repeated symbols interned once: A, B, _n0 and the variable-free
        # predicate set E/2, F/2, unary/1, top/0.
        assert len(tables.terms) == 3
        assert len(tables.predicates) == 4

    def test_empty_delta_is_empty_buffer(self):
        tables = Vocabulary()
        assert wire.encode_atoms(tables, []) == b""
        assert _ingest(_synced_vocabulary(tables), b"") == []

    def test_buffer_bytes_equal_atom_weights(self):
        # The traced routing weights *are* the wire encoding: an
        # already-interned atom costs atom_weight ids to ship — one
        # varint byte each while the tables stay below 128 entries, as
        # here, so the byte length matches the weight exactly.
        atoms = [atom("E", "A", "B"), atom("wide", "A", "B", "C", "D")]
        tables = Vocabulary()
        wire.encode_atoms(tables, atoms)  # intern the symbols once
        for a in atoms:
            assert len(wire.encode_atoms(tables, [a])) == atom_weight(a)

    def test_varint_packing_round_trips(self):
        # The id stream is LEB128: dense table ids cost one byte, and
        # multi-byte boundaries (128, 16384) round-trip exactly.
        values = [0, 1, 127, 128, 129, 255, 16383, 16384, 2**31, 2**40]
        packed = wire.pack_ids(values)
        assert wire.unpack_ids(packed) == values
        assert wire.pack_ids([]) == b""
        assert len(wire.pack_ids([127])) == 1
        assert len(wire.pack_ids([128])) == 2
        with pytest.raises(ChaseError, match="truncated varint"):
            wire.unpack_ids(b"\x80")  # dangling continuation byte

    def test_symbols_cross_the_wire_once(self):
        tables = Vocabulary()
        vocabulary = Vocabulary()
        first = [atom("E", "A", "B")]
        buf1 = wire.encode_atoms(tables, first)
        vocabulary.apply_segment(tables.segment(0, 0))
        marks = tables.marks()
        # Same symbols again: nothing new to ship.
        buf2 = wire.encode_atoms(tables, [atom("E", "B", "A")])
        assert tables.segment(*marks) is None
        # New symbol: the next segment carries only the new entries.
        buf3 = wire.encode_atoms(tables, [atom("E", "A", "C")])
        segment = tables.segment(*marks)
        term_start, term_specs, pred_start, pred_specs = segment
        assert term_specs == ((Constant._rank, "C"),)
        assert pred_specs == ()
        vocabulary.apply_segment(segment)
        assert _ingest(vocabulary, buf1) == first
        assert _ingest(vocabulary, buf2) == [atom("E", "B", "A")]
        assert _ingest(vocabulary, buf3) == [atom("E", "A", "C")]

    def test_out_of_sequence_segment_rejected(self):
        tables = Vocabulary()
        wire.encode_atoms(tables, [atom("E", "A", "B")])
        marks = tables.marks()
        wire.encode_atoms(tables, [atom("E", "A", "C")])
        late = tables.segment(*marks)
        vocabulary = Vocabulary()  # never saw the first segment
        with pytest.raises(ChaseError, match="out of sequence"):
            vocabulary.apply_segment(late)

    def test_property_random_atom_streams_round_trip(self):
        rng = random.Random(20260808)
        kinds = (
            lambda name: Constant(name.upper()),
            lambda name: Variable(name),
            lambda name: Null(f"_n{name}"),
        )
        tables = Vocabulary()
        vocabulary = Vocabulary()
        for _ in range(50):
            atoms = []
            for _ in range(rng.randrange(0, 8)):
                arity = rng.randrange(0, 4)
                predicate = Predicate(f"p{rng.randrange(5)}", arity)
                args = tuple(
                    rng.choice(kinds)(f"t{rng.randrange(6)}")
                    for _ in range(arity)
                )
                atoms.append(Atom(predicate, args))
            marks = tables.marks()
            buf = wire.encode_atoms(tables, atoms)
            vocabulary.apply_segment(tables.segment(*marks))
            assert _ingest(vocabulary, buf) == sorted(set(atoms))


class TestReplyCodec:
    def test_derive_reply_round_trip(self):
        tables = Vocabulary()
        atoms = {atom("F", "A", "B"), atom("F", "B", "C")}
        wire.encode_atoms(tables, sorted(atoms))
        vocabulary = _synced_vocabulary(tables)
        reply = wire.encode_derive_reply(vocabulary, atoms)
        assert wire.decode_derive_reply(tables, reply) == atoms

    def test_derive_reply_is_the_atom_layout(self):
        # A derive reply is a plain table-id stream: byte for byte what
        # the parent's encode_atoms packs for the same atoms.
        tables = Vocabulary()
        atoms = [atom("F", "A", "B"), atom("G", "B")]
        buf = wire.encode_atoms(tables, atoms)
        vocabulary = _synced_vocabulary(tables)
        assert wire.encode_derive_reply(vocabulary, atoms) == buf
        with pytest.raises(ChaseError, match="truncated"):
            wire.decode_derive_reply(tables, buf[:-1])

    def test_enumerate_reply_rebuilds_homs_from_images(self):
        # The reply carries the images only; the decoded lists hold the
        # same images, each once, in reply order, and the triggers built
        # from them derive the object matcher's homomorphisms.
        from repro.engine.core import delta_homomorphisms, rule_delta_images

        rules = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        instance = Instance(
            [atom("E", "A", "B"), atom("E", "B", "C"), atom("E", "C", "A")]
        )
        per_rule = [rule_delta_images(rules[0], instance, instance)]
        assert per_rule[0]  # non-trivial
        tables = Vocabulary()
        wire.encode_atoms(tables, instance.sorted_atoms())
        vocabulary = _synced_vocabulary(tables)
        reply = wire.encode_enumerate_reply(vocabulary, per_rule)
        decoded = wire.decode_enumerate_reply(tables, rules, reply)
        assert decoded == per_rule
        (images,) = decoded
        assert len(set(images)) == len(images)
        reference = {
            Trigger(rules[0], hom)
            for hom in delta_homomorphisms(rules[0], instance, instance)
        }
        rebuilt = {Trigger.from_image(rules[0], image) for image in images}
        assert rebuilt == reference
        assert {t.mapping for t in rebuilt} == {t.mapping for t in reference}

    def test_identity_images_rebuild_absent_bindings(self):
        # An image that sends a body variable to itself packs as the
        # variable's own id and rebuilds to an *absent* binding — exactly
        # how Substitution normalizes identity pairs.
        rules = tuple(parse_rules("E(x,y) -> F(x,y)"))
        x, y = rules[0].body_variable_order()
        mapping = Substitution({x: x, y: Constant("B")})
        per_rule = [[(x, Constant("B"))]]
        tables = Vocabulary()
        wire.encode_atoms(tables, [Atom(Predicate("E", 2), (x, Constant("B")))])
        vocabulary = _synced_vocabulary(tables)
        reply = wire.encode_enumerate_reply(vocabulary, per_rule)
        decoded = wire.decode_enumerate_reply(tables, rules, reply)
        assert decoded == per_rule
        ((image,),) = decoded
        hom = Trigger.from_image(rules[0], image).mapping
        assert hom == mapping
        assert x not in hom

    @pytest.mark.parametrize(
        "ids,message",
        [
            ([], "missing an image count"),
            ([1, 0, 1], "short image"),
            ([1, 0, 1, 2, 7], "1 leftover ids"),
        ],
        ids=["missing_count", "short_image", "leftover_ids"],
    )
    def test_malformed_enumerate_reply_raises(self, ids, message):
        # Transitivity's images have width 3 (x, y, z): a reply must hold
        # one count and then count * 3 ids, and nothing after them.
        rules = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        tables = Vocabulary()
        wire.encode_atoms(tables, [atom("E", "A", "B"), atom("E", "B", "C")])
        decoded = wire.decode_enumerate_reply(
            tables, rules, wire.pack_ids([1, 0, 1, 2])
        )
        assert decoded == [[(Constant("A"), Constant("B"), Constant("C"))]]
        assert Trigger.from_image(rules[0], decoded[0][0]).mapping == (
            Substitution({
                Variable("x"): Constant("A"),
                Variable("y"): Constant("B"),
                Variable("z"): Constant("C"),
            })
        )
        with pytest.raises(ChaseError, match=message):
            wire.decode_enumerate_reply(tables, rules, wire.pack_ids(ids))

    @pytest.mark.parametrize(
        "kind,ids",
        [
            ("derive", [7, 0, 1]),
            ("derive", [0, 0, 9]),
            ("enumerate", [1, 0, 9]),
        ],
        ids=["derive_predicate_id", "derive_term_id", "enumerate_term_id"],
    )
    def test_out_of_range_id_raises(self, kind, ids):
        # A table of one predicate (E/2) and two terms (A, B): an id past
        # either table is a malformed reply, not a bare IndexError.
        tables = Vocabulary()
        wire.encode_atoms(tables, [atom("E", "A", "B")])
        assert tables.marks() == (2, 1)
        rules = tuple(parse_rules("E(x,y) -> F(x)"))
        with pytest.raises(ChaseError, match="past the wire table"):
            if kind == "derive":
                wire.decode_derive_reply(tables, wire.pack_ids(ids))
            else:
                wire.decode_enumerate_reply(tables, rules, wire.pack_ids(ids))

    @pytest.mark.parametrize("reply_kind", ["derive", "enumerate"])
    def test_unknown_symbol_raises_chase_error(self, reply_kind):
        # Every symbol a reply mentions must already be in the worker's
        # table replica; one the parent never shipped is an error, not a
        # message-local literal.
        tables = Vocabulary()
        wire.encode_atoms(tables, [atom("F", "A", "B")])
        vocabulary = _synced_vocabulary(tables)
        stranger = Atom(Predicate("F", 2), (Constant("A"), Null("_n9")))
        with pytest.raises(ChaseError, match="not in the wire table"):
            if reply_kind == "derive":
                wire.encode_derive_reply(vocabulary, [stranger])
            else:
                wire.encode_enumerate_reply(vocabulary, [{stranger.args: None}])


# ----------------------------------------------------------------------
# Per-command transport accounting
# ----------------------------------------------------------------------


RULES = tuple(parse_rules("E(x,y) -> F(x,y)"))


def _run_sequence(workers: int) -> dict:
    """One seed + two enumerate rounds + one derive round + stop; all
    pivots go to worker 0, so extra workers only add sync/seed traffic.
    Returns the TRANSPORT_STATS snapshot."""
    facts = [atom("E", "A", "B")]
    instance = Instance(facts)
    TRANSPORT_STATS.reset()
    with WorkerPool(workers) as pool:
        pool.run_round("enumerate", RULES, instance, [facts])
        instance.add(atom("E", "B", "C"))
        instance.add(atom("E", "C", "D"))
        pool.run_round(
            "enumerate", RULES, instance, [instance.delta_since(0)[-2:]]
        )
        pool.run_round("derive", RULES, instance, [facts])
    return TRANSPORT_STATS.snapshot()


class TestTransportAccounting:
    def test_exact_counts_single_worker(self):
        snap = _run_sequence(1)
        commands = snap["commands"]
        seeded_atoms = 2  # E(A,B) + the top atom
        assert snap["seeds"] == 1
        assert commands["seed"]["messages"] == 1
        assert commands["seed"]["atoms_sent"] == seeded_atoms
        # Both enumerate rounds carried pivots; the second also carried
        # the 2-atom sync delta (counted under "sync" even though no
        # standalone sync message was sent at workers=1).
        assert commands["enumerate"]["messages"] == 2
        assert commands["enumerate"]["atoms_sent"] == 1 + 2
        assert commands["sync"]["atoms_sent"] == 2
        assert commands["sync"]["messages"] == 0
        assert commands["derive"]["messages"] == 1
        assert commands["derive"]["atoms_received"] == 1  # F(A,B)
        assert commands["stop"]["messages"] == 1
        assert commands["stop"]["bytes_received"] > 0
        # Per-command counters tile the totals exactly.
        assert snap["bytes_sent"] == sum(
            c["bytes_sent"] for c in commands.values()
        )
        assert snap["bytes_received"] == sum(
            c["bytes_received"] for c in commands.values()
        )
        assert snap["messages"] == sum(
            c["messages"] for c in commands.values()
        )
        for entry in commands.values():
            if entry["messages"]:
                assert entry["bytes_sent"] > 0

    def test_monotonic_counts_three_workers(self):
        base = _run_sequence(1)
        snap = _run_sequence(3)
        commands = snap["commands"]
        # Pivotless workers 1..2 received standalone sync messages on the
        # second enumerate round only, so exactly one sync round × 2
        # workers.
        assert commands["sync"]["messages"] == 2
        assert commands["seed"]["messages"] == 3
        assert commands["seed"]["atoms_sent"] == 3 * 2
        assert commands["stop"]["messages"] == 3
        # Every counter grows (or stays equal) with the worker count.
        for name, entry in base["commands"].items():
            for key, value in entry.items():
                assert commands[name][key] >= value, (name, key)
        for total in ("bytes_sent", "bytes_received", "messages"):
            assert snap[total] >= base[total]

    def test_snapshot_is_json_serializable(self):
        import json

        snap = _run_sequence(1)
        json.dumps(snap)
