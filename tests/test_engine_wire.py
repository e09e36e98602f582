"""The interned-term wire codec and per-command transport accounting.

Two halves:

* codec round-trip tests — packed atom/task/reply buffers rebuild the
  exact objects (nulls, constants, repeated terms, empty deltas, literal
  escapes), symbols intern once, and segments replay strictly in order;
* :data:`TRANSPORT_STATS` accounting — exact per-command byte/atom/
  message counters for seed, sync, enumerate, fire and stop on a
  small workload at ``workers=1``, monotonicity at ``workers=3``.
"""

from __future__ import annotations

import random

import pytest

from repro.chase.trigger import triggers_of
from repro.engine import wire
from repro.engine.shards import atom_weight
from repro.engine.wire import WireDecoder, WireEncoder
from repro.engine.workers import TRANSPORT_STATS, WorkerPool
from repro.errors import ChaseError
from repro.logic.atoms import Atom, atom, build_atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import (
    TERM_KINDS,
    Constant,
    Null,
    Variable,
    term_from_wire,
)
from repro.rules.parser import parse_rules


def _synced_decoder(encoder: WireEncoder) -> WireDecoder:
    """A worker-side decoder caught up to the encoder's current tables."""
    decoder = WireDecoder()
    decoder.apply_segment(encoder.segment(0, 0))
    return decoder


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
        encoder = WireEncoder()
        buf = encoder.encode_atoms(atoms)
        decoder = _synced_decoder(encoder)
        decoded = decoder.decode_atoms(buf)
        assert decoded == atoms
        assert [hash(a) for a in decoded] == [hash(a) for a in atoms]
        # Repeated symbols interned once: A, B, _n0 and the variable-free
        # predicate set E/2, F/2, unary/1, top/0.
        assert len(encoder.terms) == 3
        assert len(encoder.predicates) == 4

    def test_empty_delta_is_empty_buffer(self):
        encoder = WireEncoder()
        assert encoder.encode_atoms([]) == b""
        assert _synced_decoder(encoder).decode_atoms(b"") == []

    def test_buffer_bytes_equal_atom_weights(self):
        # The traced shard weights *are* the wire encoding: an
        # already-interned atom costs atom_weight ids to ship — one
        # varint byte each while the tables stay below 128 entries, as
        # here, so the byte length matches the weight exactly.
        atoms = [atom("E", "A", "B"), atom("wide", "A", "B", "C", "D")]
        encoder = WireEncoder()
        encoder.encode_atoms(atoms)  # intern the symbols once
        for a in atoms:
            assert len(encoder.encode_atoms([a])) == atom_weight(a)

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
        encoder = WireEncoder()
        decoder = WireDecoder()
        first = [atom("E", "A", "B")]
        buf1 = encoder.encode_atoms(first)
        decoder.apply_segment(encoder.segment(0, 0))
        marks = encoder.marks()
        # Same symbols again: nothing new to ship.
        buf2 = encoder.encode_atoms([atom("E", "B", "A")])
        assert encoder.segment(*marks) is None
        # New symbol: the next segment carries only the new entries.
        buf3 = encoder.encode_atoms([atom("E", "A", "C")])
        segment = encoder.segment(*marks)
        term_start, term_specs, pred_start, pred_specs = segment
        assert term_specs == ((Constant._rank, "C"),)
        assert pred_specs == ()
        decoder.apply_segment(segment)
        assert decoder.decode_atoms(buf1) == first
        assert decoder.decode_atoms(buf2) == [atom("E", "B", "A")]
        assert decoder.decode_atoms(buf3) == [atom("E", "A", "C")]

    def test_out_of_sequence_segment_rejected(self):
        encoder = WireEncoder()
        encoder.encode_atoms([atom("E", "A", "B")])
        marks = encoder.marks()
        encoder.encode_atoms([atom("E", "A", "C")])
        late = encoder.segment(*marks)
        decoder = WireDecoder()  # never saw the first segment
        with pytest.raises(ChaseError, match="out of sequence"):
            decoder.apply_segment(late)

    def test_property_random_atom_streams_round_trip(self):
        rng = random.Random(20260808)
        kinds = (
            lambda name: Constant(name.upper()),
            lambda name: Variable(name),
            lambda name: Null(f"_n{name}"),
        )
        encoder = WireEncoder()
        decoder = WireDecoder()
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
            marks = encoder.marks()
            buf = encoder.encode_atoms(atoms)
            decoder.apply_segment(encoder.segment(*marks))
            assert decoder.decode_atoms(buf) == atoms


class TestTaskCodec:
    def _trigger(self, rule_text, facts):
        rules = tuple(parse_rules(rule_text))
        instance = Instance(facts)
        (trigger,) = list(triggers_of(instance, list(rules)))
        return rules, trigger

    def test_fire_tasks_round_trip_mapping_and_nulls(self):
        rules, trigger = self._trigger(
            "E(x,y) -> exists z. F(y,z)", [atom("E", "A", "B")]
        )
        existential_map = {
            v: Null(f"_n{i}")
            for i, v in enumerate(rules[0].existential_order())
        }
        tasks = [(0, 0, trigger.mapping, existential_map)]
        encoder = WireEncoder()
        buf = encoder.encode_fire_tasks(rules, tasks)
        decoded = _synced_decoder(encoder).decode_fire_tasks(buf, rules)
        assert decoded == tasks

    def test_identity_mappings_survive(self):
        # A mapping sending a body variable to itself packs as the
        # variable's own id and reconstructs to an *absent* binding —
        # exactly how Substitution normalizes identity pairs.
        rules = tuple(parse_rules("E(x,y) -> F(x,y)"))
        from repro.logic.substitutions import Substitution

        x, y = rules[0].body_variable_order()
        mapping = Substitution({x: x, y: Constant("B")})
        tasks = [(0, 0, mapping, {})]
        encoder = WireEncoder()
        buf = encoder.encode_fire_tasks(rules, tasks)
        decoded = _synced_decoder(encoder).decode_fire_tasks(buf, rules)
        assert decoded == tasks
        assert x not in decoded[0][2]


class TestReplyCodec:
    def test_fire_reply_round_trip(self):
        encoder = WireEncoder()
        encoder.encode_atoms([atom("F", "A", "B"), atom("F", "B", "C")])
        decoder = _synced_decoder(encoder)
        pairs = [
            (0, {atom("F", "A", "B")}),
            (3, {atom("F", "B", "C"), atom("F", "A", "B")}),
            (5, set()),
        ]
        reply = wire.encode_fire_reply(decoder, pairs)
        assert wire.decode_fire_reply(encoder, reply) == pairs

    def test_derive_reply_round_trip(self):
        encoder = WireEncoder()
        atoms = {atom("F", "A", "B"), atom("F", "B", "C")}
        encoder.encode_atoms(sorted(atoms))
        decoder = _synced_decoder(encoder)
        reply = wire.encode_derive_reply(decoder, atoms)
        assert wire.decode_derive_reply(encoder, reply) == atoms

    def test_enumerate_reply_rebuilds_homs_from_images(self):
        from repro.engine.core import rule_delta_images

        rules = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        instance = Instance(
            [atom("E", "A", "B"), atom("E", "B", "C"), atom("E", "C", "A")]
        )
        per_rule = [rule_delta_images(rules[0], instance, instance)]
        assert per_rule[0]  # non-trivial
        encoder = WireEncoder()
        encoder.encode_atoms(instance.sorted_atoms())
        decoder = _synced_decoder(encoder)
        reply = wire.encode_enumerate_reply(decoder, rules, per_rule)
        decoded = wire.decode_enumerate_reply(encoder, rules, reply)
        assert decoded == per_rule

    def test_literal_escape_for_unknown_symbols(self):
        # A reply can mention a symbol the parent never shipped: it rides
        # as a message-local literal instead of a table ref.
        encoder = WireEncoder()
        decoder = _synced_decoder(encoder)  # both tables empty
        stranger = Atom(Predicate("S", 2), (Constant("Q"), Null("_n9")))
        reply = wire.encode_fire_reply(decoder, [(0, {stranger})])
        literal_terms, literal_predicates, _ = reply
        assert literal_terms and literal_predicates
        assert wire.decode_fire_reply(encoder, reply) == [(0, {stranger})]


# ----------------------------------------------------------------------
# Per-command transport accounting
# ----------------------------------------------------------------------


RULES = tuple(parse_rules("E(x,y) -> F(x,y)"))


def _mapping(facts):
    (trigger,) = list(triggers_of(Instance(facts), list(RULES)))
    return trigger.mapping


def _run_sequence(workers: int) -> dict:
    """One seed + two enumerate rounds + fire + stop; all pivots and
    tasks go to worker 0, so extra workers only add sync/seed traffic.
    Returns the TRANSPORT_STATS snapshot."""
    facts = [atom("E", "A", "B")]
    instance = Instance(facts)
    mapping = _mapping(facts)
    TRANSPORT_STATS.reset()
    with WorkerPool(workers) as pool:
        pool.run_round("enumerate", RULES, instance, [facts])
        instance.add(atom("E", "B", "C"))
        instance.add(atom("E", "C", "D"))
        pool.run_round(
            "enumerate", RULES, instance, [instance.delta_since(0)[-2:]]
        )
        pool.fire(RULES, [[(0, 0, mapping, {})]])
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
        assert commands["fire"]["messages"] == 1
        assert commands["fire"]["atoms_received"] == 1  # F(A,B)
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
