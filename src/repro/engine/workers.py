"""Persistent delta-fed process workers.

The legacy process backend of the round scheduler re-pickles the whole
``(rules, instance)`` context every round — the instance grows, so the
payload grows with it.  A :class:`WorkerPool` inverts that: each worker
process holds a *long-lived replica* of the instance, seeded once when the
pool first runs, and every later round ships only the **per-round delta**
(the atoms added since the replicas were last synced, straight from
:meth:`~repro.logic.instances.Instance.delta_since`).  Payload size is
proportional to what changed, not to what exists.

Protocol
--------
One duplex pipe per worker.  Atom and task payloads travel in the
interned-term columnar encoding of :mod:`repro.engine.wire`: the pool
owns a :class:`~repro.engine.wire.WireEncoder` whose append-only
term/predicate tables are the shared vocabulary, each message carries
the *table segment* its worker has not seen yet (tracked by a per-worker
high-water mark, so a symbol crosses a pipe once per worker, ever), and
the payloads themselves are flat ``array('I')`` id buffers.  Only the
message envelope below, the ``Rule`` objects and error tracebacks are
pickled — that is also how the pool accounts transport in
:data:`TRANSPORT_STATS`, which keeps per-command byte/atom counters.

``("seed", segment, rules, atoms_buf)``
    Replace the worker's rule list and rebuild its replica from the
    packed atom buffer.  Sent once per (pool, rule set) — at pool start,
    or if a caller reuses the pool under different rules.
``("sync", segment, sync_buf)``
    Fold the packed per-round delta into the replica and acknowledge.
    Sent to workers that have no pivots/tasks in a round where others
    do — replicas always mirror the parent instance at round start.
``("enumerate"|"enumerate_unsatisfied"|"derive", segment, sync_buf, pivot_buf)``
    One enumeration round: fold the packed ``sync_buf`` delta into the
    replica, then run the shared delta core with the decoded
    ``pivot_buf`` atoms (this worker's hash shards of the delta) as the
    pivot source against the full replica.  Replies with one packed
    buffer: per-rule image streams (the enumeration commands — the
    parent rebuilds the ``{image: hom}`` dicts from the images alone) or
    a derived atom stream (``derive``).  ``enumerate_unsatisfied`` is the
    restricted chase's: the replica mirrors the chase instance at round
    start, so each existential-free match's ground head is checked
    against it right where the match is found, and only the images that
    can still add an atom — the smallest per distinct head — are sent
    back (:func:`~repro.engine.core.rule_unsatisfied_images`).
``("fire", segment, rules, tasks_buf)``
    Instantiate head atoms for a slice of a round's triggers.  Each
    packed task is ``(index, rule_index, image, null_ids)`` — the
    trigger's homomorphism is reconstructed from its image along the
    rule's canonical body-variable order.  The reply packs each index
    with its instantiated output atoms into one buffer.  The distinct
    rules of the round ride along (a few hundred bytes) so firing works
    even before the first enumeration seeds the worker.
``("stop",)``
    Acknowledge and exit.

Workers never talk to each other and never allocate null names — the
parent draws every null from the run's :class:`~repro.logic.terms.FreshSupply`
in canonical trigger order and ships the assignments, which is what keeps
sharded firing bit-identical to the sequential engines (see
:meth:`repro.engine.scheduler.RoundScheduler.fire_round`).  Every
batched round the :class:`~repro.engine.runner.ChaseRunner` policies
produce fires this way; the restricted chase's split rounds record
parent-side from the heads its pruned enumeration parked.

Failure handling: a failed or dead worker surfaces as
:class:`~repro.errors.ChaseError`, but only after every outstanding reply
of the round has been drained, and the pool is marked *broken* — its
replicas may have half-applied the round's sync and an undrained pipe
could hand a stale round reply to the next reader, so ``close()`` skips
the stop handshake on a broken pool and tears the processes down by
closing the pipes instead.

Decoded terms and atoms rebuild through their constructors on arrival
(:func:`repro.logic.terms.term_from_wire`,
:func:`repro.logic.atoms.build_atom` — and ``Term.__reduce__`` for the
still-pickled rules), so cached hashes are recomputed under the worker's
own ``PYTHONHASHSEED`` and replica indexes stay consistent.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from typing import Iterable, Sequence

from repro.engine import shm as shm_transport
from repro.engine import wire
from repro.obs.trace import active_round
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.wire import WireEncoder
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.rules.rule import Rule

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class TransportStats:
    """Byte/message counters for the pool's pipe traffic.

    Module-global (like ``MATCHER_STATS`` in the homomorphism matcher) so
    benchmarks can quantify the persistent mode's payload win over the
    per-round full-context pickles of the legacy process backend.
    ``context_bytes``/``context_pickles`` are fed by the scheduler's
    legacy blob cache for the same comparison.

    Beyond the totals, :attr:`commands` keys per-command counters —
    ``{"messages", "bytes_sent", "bytes_received", "shm_bytes",
    "atoms_sent", "atoms_received"}`` for each of ``seed``/``sync``/
    ``enumerate``/``enumerate_unsatisfied``/``derive``/``fire``/``stop``
    — so tests and benchmarks can pin exactly where transport goes.
    Sync deltas riding an enumeration or derive message are counted
    under ``sync`` (atoms) while the envelope bytes land on the carrying
    command.

    The byte accounting is split by *channel*: ``bytes_sent``/
    ``bytes_received`` are **pipe** bytes (the pickled envelopes — with
    shared memory on, that is refs and small payloads only), and
    ``shm_bytes`` counts the payload bytes that traveled through
    :class:`~repro.engine.shm.SegmentPool` segments instead.  A
    payload's bytes land on exactly one channel, so the two gates in
    ``tools/check_transport_budget.py`` partition the transport.  Shm
    bytes for a shared sync buffer are attributed to ``sync`` (the
    buffer leaves the carrying envelope entirely) and counted once per
    publish, not per worker — segments are read in place, fan-out is
    free.

    :attr:`worker_seconds` aggregates the worker-side
    ``(decode_s, execute_s, encode_s)`` wall-clock triples stamped into
    every reply envelope (:func:`repro.engine.wire.pack_reply`), per
    command — the only non-deterministic counters in here, kept apart
    from the byte counters the budget gate pins.  Registered as the
    ``transport`` group of :func:`repro.obs.default_registry`.
    """

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "shm_bytes",
        "shm_publishes",
        "shm_segments",
        "messages",
        "seeds",
        "context_bytes",
        "context_pickles",
        "commands",
        "worker_seconds",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.shm_bytes = 0
        self.shm_publishes = 0
        self.shm_segments = 0
        self.messages = 0
        self.seeds = 0
        self.context_bytes = 0
        self.context_pickles = 0
        self.commands: dict[str, dict[str, int]] = {}
        self.worker_seconds: dict[str, dict[str, float]] = {}

    def command(self, name: str) -> dict[str, int]:
        """The (auto-created) per-command counter dict for ``name``."""
        entry = self.commands.get(name)
        if entry is None:
            entry = self.commands[name] = {
                "messages": 0,
                "bytes_sent": 0,
                "bytes_received": 0,
                "shm_bytes": 0,
                "atoms_sent": 0,
                "atoms_received": 0,
            }
        return entry

    def record_send(self, name: str, nbytes: int) -> None:
        self.bytes_sent += nbytes
        self.messages += 1
        entry = self.command(name)
        entry["messages"] += 1
        entry["bytes_sent"] += nbytes

    def record_receive(self, name: str, nbytes: int) -> None:
        self.bytes_received += nbytes
        self.command(name)["bytes_received"] += nbytes

    def record_shm(self, name: str, nbytes: int) -> None:
        """Account one payload routed through a shared-memory segment."""
        self.shm_bytes += nbytes
        self.shm_publishes += 1
        self.command(name)["shm_bytes"] += nbytes

    def count_atoms_sent(self, name: str, count: int) -> None:
        if count:
            self.command(name)["atoms_sent"] += count

    def count_atoms_received(self, name: str, count: int) -> None:
        if count:
            self.command(name)["atoms_received"] += count

    def worker_timing(self, name: str) -> dict[str, float]:
        """The (auto-created) worker-timing aggregate for command ``name``."""
        entry = self.worker_seconds.get(name)
        if entry is None:
            entry = self.worker_seconds[name] = {
                "replies": 0,
                "decode_s": 0.0,
                "execute_s": 0.0,
                "encode_s": 0.0,
            }
        return entry

    def record_worker_timings(
        self, name: str, timings: tuple[float, float, float]
    ) -> None:
        decode_s, execute_s, encode_s = timings
        entry = self.worker_timing(name)
        entry["replies"] += 1
        entry["decode_s"] += decode_s
        entry["execute_s"] += execute_s
        entry["encode_s"] += encode_s

    def worker_totals(self) -> dict[str, float]:
        """Worker-side seconds summed across commands (for round deltas)."""
        totals = {"decode_s": 0.0, "execute_s": 0.0, "encode_s": 0.0}
        for entry in self.worker_seconds.values():
            totals["decode_s"] += entry["decode_s"]
            totals["execute_s"] += entry["execute_s"]
            totals["encode_s"] += entry["encode_s"]
        return totals

    def snapshot(self) -> dict:
        """A JSON-able copy: flat totals plus the per-command dicts."""
        snap: dict = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("commands", "worker_seconds")
        }
        snap["commands"] = {
            name: dict(entry) for name, entry in self.commands.items()
        }
        snap["worker_seconds"] = {
            name: dict(entry) for name, entry in self.worker_seconds.items()
        }
        return snap


#: Global transport counters; reset before a measured run.
TRANSPORT_STATS = TransportStats()


def fire_tasks(
    rules: Sequence[Rule], tasks: Iterable[tuple]
) -> list[tuple[int, set[Atom]]]:
    """Instantiate the head atoms of a slice of firing tasks.

    Each task is ``(index, rule_index, mapping, existential_map)``.  The
    instantiation is :meth:`Rule.instantiate_head
    <repro.rules.rule.Rule.instantiate_head>` — the same code
    :meth:`Trigger.output <repro.chase.trigger.Trigger.output>` runs, so
    a worker returns exactly the atoms the sequential engine would have
    produced.  Top-level so both process backends can ship it by
    reference.
    """
    return [
        (index, rules[rule_index].instantiate_head(mapping, existential_map))
        for index, rule_index, mapping, existential_map in tasks
    ]


def _fire_payload(payload: tuple) -> list[tuple[int, set[Atom]]]:
    """Legacy process-pool entry point for one firing slice."""
    rules, tasks = payload
    return fire_tasks(rules, tasks)


def _worker_main(conn, columnar: bool = False) -> None:
    """The long-lived worker loop: one replica, one rule list, one wire
    table; per-round packed deltas in, one packed reply per round out.

    With ``columnar=True`` the replica is an id-native
    :class:`~repro.engine.columnar.ColumnarInstance` over the decoder's
    table replica: packed seed/sync buffers fold straight into id rows
    (``decode_atoms`` leaves the per-round hot path), and the delta
    core's join kernel runs existential-free rules on those rows
    directly; atoms materialize only for the object matcher
    (existential rules).  Payload fields may arrive as
    :class:`~repro.engine.shm.SegmentRef`\\ s instead of bytes; they are
    resolved against a per-worker :class:`~repro.engine.shm.SegmentReader`
    (attach once per segment, memcpy per read) before decoding.

    Every reply envelope carries the worker's
    ``(decode_s, execute_s, encode_s)`` wall-clock split
    (:func:`repro.engine.wire.pack_reply`): *decode* covers unpickling
    the envelope, resolving shm refs, replaying the table segment and
    unpacking the id buffers; *execute* the replica update and the
    actual shard work; *encode* packing the reply buffer.  The blocking
    ``recv`` (waiting for the parent) and the envelope's own final
    pickle are excluded — the triple measures worker compute, not pipe
    idleness.
    """
    # Imported here (not at module top) to keep the spawn path lean: the
    # scheduler module pulls in the whole engine package.
    from repro.engine.scheduler import _run_shard

    perf = time.perf_counter
    rules: tuple[Rule, ...] = ()
    decoder = wire.WireDecoder()
    replica = (
        ColumnarInstance(Vocabulary.of_decoder(decoder))
        if columnar
        else Instance(add_top=False)
    )
    reader = shm_transport.SegmentReader()
    resolve = shm_transport.resolve
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        decode_start = perf()
        message = pickle.loads(blob)
        command = message[0]
        if command == "stop":
            decoded = perf()
            conn.send_bytes(
                pickle.dumps(
                    wire.pack_reply(
                        "ok", None, (decoded - decode_start, 0.0, 0.0)
                    ),
                    _PROTOCOL,
                )
            )
            break
        try:
            if command == "seed":
                _, segment, rules, atoms_buf = message
                decoder.apply_segment(segment)
                atoms_buf = resolve(reader, atoms_buf)
                if columnar:
                    decoded = perf()
                    replica = ColumnarInstance(Vocabulary.of_decoder(decoder))
                    replica.ingest_packed(atoms_buf)
                else:
                    atoms = decoder.decode_atoms(atoms_buf)
                    decoded = perf()
                    replica = Instance(atoms, add_top=False)
                value = len(replica)
                executed = perf()
            elif command == "sync":
                _, segment, sync_buf = message
                decoder.apply_segment(segment)
                sync_buf = resolve(reader, sync_buf)
                if columnar:
                    decoded = perf()
                    value = replica.ingest_packed(sync_buf)
                else:
                    sync_atoms = decoder.decode_atoms(sync_buf)
                    decoded = perf()
                    replica.update(sync_atoms)
                    value = len(sync_atoms)
                executed = perf()
            elif command in ("enumerate", "enumerate_unsatisfied", "derive"):
                _, segment, sync_buf, pivot_buf = message
                decoder.apply_segment(segment)
                sync_buf = resolve(reader, sync_buf)
                pivot_buf = resolve(reader, pivot_buf)
                if columnar:
                    decoded = perf()
                    replica.ingest_packed(sync_buf)
                    view = ColumnarInstance(replica.vocabulary)
                    view.ingest_packed(pivot_buf)
                else:
                    sync_atoms = decoder.decode_atoms(sync_buf)
                    pivot_atoms = decoder.decode_atoms(pivot_buf)
                    decoded = perf()
                    replica.update(sync_atoms)
                    view = Instance(pivot_atoms, add_top=False)
                result = _run_shard(command, rules, replica, view)
                executed = perf()
                if command == "derive":
                    value = wire.encode_derive_reply(decoder, result)
                else:
                    value = wire.encode_enumerate_reply(
                        decoder, rules, result
                    )
            elif command == "fire":
                _, segment, fire_rules, tasks_buf = message
                decoder.apply_segment(segment)
                tasks_buf = resolve(reader, tasks_buf)
                tasks = decoder.decode_fire_tasks(tasks_buf, fire_rules)
                decoded = perf()
                pairs = fire_tasks(fire_rules, tasks)
                executed = perf()
                value = wire.encode_fire_reply(decoder, pairs)
            else:
                raise ChaseError(f"unknown worker command {command!r}")
            reply = wire.pack_reply(
                "ok",
                value,
                (
                    decoded - decode_start,
                    executed - decoded,
                    perf() - executed,
                ),
            )
        except Exception:
            reply = wire.pack_reply("error", traceback.format_exc())
        conn.send_bytes(pickle.dumps(reply, _PROTOCOL))
    reader.close()
    conn.close()


class WorkerPool:
    """A fixed-size pool of persistent, delta-fed worker processes.

    Lifecycle: the pool spawns lazily on first use, is owned by one
    :class:`~repro.engine.scheduler.RoundScheduler` (and therefore one
    chase/closure run), and is torn down by the scheduler's ``close()`` —
    the same ``EngineConfig``-driven lifecycle as the legacy executors.

    Replica consistency: the pool tracks the revision its replicas are
    synced to and computes each round's sync payload with
    ``instance.delta_since`` — so rounds the scheduler chose to run inline
    (single non-empty shard) are transparently caught up on the next
    fanned-out round.

    Wire tables: the pool owns the run's :class:`WireEncoder` and a
    per-worker ``(term, predicate)`` high-water mark into its tables.
    Segments are cut per worker **after** all of a broadcast's payloads
    are encoded, so each worker's segment covers every symbol its
    message references — including workers that skip a round (their mark
    simply stays behind until their next message catches them up).
    """

    def __init__(
        self,
        size: int,
        *,
        columnar: bool = False,
        shared_memory: bool = False,
        shm_threshold: int = shm_transport.DEFAULT_THRESHOLD,
    ):
        if size < 1:
            raise ChaseError(
                f"a worker pool needs at least 1 worker, got {size}"
            )
        if shared_memory and not shm_transport.shm_available():
            raise ChaseError(
                "shared_memory requested but multiprocessing.shared_memory "
                "is unavailable on this platform"
            )
        self.size = size
        self.columnar = columnar
        self.shared_memory = shared_memory
        self.shm_threshold = shm_threshold
        self._connections: list = []
        self._processes: list = []
        self._started = False
        self._broken = False
        self._rules: tuple[Rule, ...] | None = None
        self._replica_revision = 0
        self._encoder = WireEncoder()
        self._marks: list[tuple[int, int]] = [(0, 0)] * size
        self._segment_pool: shm_transport.SegmentPool | None = None

    @property
    def broken(self) -> bool:
        """True once a round failed and the pipes can no longer be trusted."""
        return self._broken

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._broken:
            raise ChaseError(
                "this worker pool is broken after a failed round; "
                "close it and create a new pool"
            )
        if self._started:
            return
        if self.shared_memory and self._segment_pool is None:
            self._segment_pool = shm_transport.SegmentPool(self.shm_threshold)
        self._spawn(self.size)
        self._started = True

    def _spawn(self, count: int) -> None:
        """Start ``count`` fresh worker processes (appended in order)."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        for _ in range(count):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, self.columnar),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)

    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent).

        On a healthy pool this is the stop handshake: every pipe is in
        lockstep (each sent message has had its reply read), so a ``stop``
        is acknowledged and the workers exit.  A *broken* pool never
        reuses its desynced pipes — a stale round reply could be misread
        as the stop ack — so the handshake is skipped and the processes
        are terminated outright (their replicas are scratch state; under
        the fork start method siblings hold inherited copies of each
        other's pipe ends, so closing the parent ends alone would not
        even unblock them).
        """
        if not self._started:
            if self._segment_pool is not None:  # pragma: no cover - defensive
                self._segment_pool.close()
                self._segment_pool = None
            return
        if self._broken:
            for conn in self._connections:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            for process in self._processes:
                process.terminate()
                process.join(timeout=5.0)
        else:
            stop_blob = pickle.dumps(("stop",), _PROTOCOL)
            for conn in self._connections:
                try:
                    conn.send_bytes(stop_blob)
                except (BrokenPipeError, OSError):
                    continue
                TRANSPORT_STATS.record_send("stop", len(stop_blob))
            for conn in self._connections:
                try:
                    if conn.poll(1.0):
                        ack = conn.recv_bytes()
                        TRANSPORT_STATS.record_receive("stop", len(ack))
                        _, _, timings = wire.unpack_reply(pickle.loads(ack))
                        if timings is not None:
                            TRANSPORT_STATS.record_worker_timings(
                                "stop", timings
                            )
                except (EOFError, OSError):
                    pass
            for conn in self._connections:
                conn.close()
            for process in self._processes:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=1.0)
        self._connections = []
        self._processes = []
        self._started = False
        self._rules = None
        self._replica_revision = 0
        # The workers' table replicas died with them: start a fresh
        # vocabulary so a reused pool re-ships symbols from scratch.
        self._encoder = WireEncoder()
        self._marks = [(0, 0)] * self.size
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None

    def resize(self, size: int) -> None:
        """Change the pool size mid-run, keeping symbol tables warm.

        The run's :class:`WireEncoder` and every *surviving* worker's
        table high-water mark are preserved — only the rows need
        re-shipping, not the vocabulary.  The next round therefore
        reseeds all workers (``_rules`` is cleared to force it): new
        workers get a segment covering the whole table, survivors get an
        empty-or-tiny segment plus the same shared row buffer, from
        which every worker rebuilds its replica.

        Shrinking stops the excess workers with the normal handshake —
        the pool is in lockstep between rounds, so their pipes are
        clean.  Raises on a broken pool (its pipes can't be trusted for
        the stop handshake; close it instead).
        """
        if size < 1:
            raise ChaseError(
                f"a worker pool needs at least 1 worker, got {size}"
            )
        if self._broken:
            raise ChaseError(
                "cannot resize a broken worker pool; close it and "
                "create a new one"
            )
        if not self._started:
            self.size = size
            self._marks = [(0, 0)] * size
            return
        if size < self.size:
            stop_blob = pickle.dumps(("stop",), _PROTOCOL)
            for worker in range(size, self.size):
                conn = self._connections[worker]
                try:
                    conn.send_bytes(stop_blob)
                    TRANSPORT_STATS.record_send("stop", len(stop_blob))
                    if conn.poll(1.0):
                        ack = conn.recv_bytes()
                        TRANSPORT_STATS.record_receive("stop", len(ack))
                except (BrokenPipeError, EOFError, OSError):
                    pass
                conn.close()
            for process in self._processes[size:]:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=1.0)
            self._connections = self._connections[:size]
            self._processes = self._processes[:size]
            self._marks = self._marks[:size]
        elif size > self.size:
            self._spawn(size - self.size)
            self._marks = self._marks + [(0, 0)] * (size - self.size)
        self.size = size
        # Force a rows-only reseed on the next round: replicas must be
        # rebuilt on every worker (new ones are empty; survivors redo a
        # cheap idempotent fold), but the preserved marks mean the seed
        # segment for survivors carries no symbol they already hold.
        self._rules = None
        self._replica_revision = 0

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _segment(self, worker: int):
        """Cut ``worker``'s table segment and advance its high-water mark."""
        term_mark, pred_mark = self._marks[worker]
        segment = self._encoder.segment(term_mark, pred_mark)
        self._marks[worker] = self._encoder.marks()
        return segment

    def _ship(self, command: str, buf: bytes):
        """Route one payload: an shm ref above the threshold, raw bytes
        below (or always, with shared memory off).

        Published payloads are accounted under ``command``'s
        ``shm_bytes``; whatever rides the pickle envelope lands in the
        pipe counters at send time as before.  The returned object is
        safe to share across every worker's message — segments are read
        in place, so fan-out costs nothing.
        """
        pool = self._segment_pool
        if pool is None or len(buf) < pool.threshold:
            return buf
        ref = pool.publish(buf)
        TRANSPORT_STATS.record_shm(command, len(buf))
        TRANSPORT_STATS.shm_segments = max(
            TRANSPORT_STATS.shm_segments, pool.segments_created
        )
        return ref

    def _collect_segments(self) -> None:
        """Recycle the broadcast's segments (every reply is gathered, so
        no live worker can still hold a ref into them)."""
        if self._segment_pool is not None:
            self._segment_pool.collect()

    def _shared_messages(self, build) -> list[tuple]:
        """One message per worker, shared by equal table marks.

        ``build(segment)`` constructs the message; workers whose marks
        coincide receive the *same object*, which the broadcast pickles
        once.  Every worker's mark is advanced to current.
        """
        cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple] = []
        for worker in range(self.size):
            key = self._marks[worker]
            message = cache.get(key)
            if message is None:
                message = build(self._segment(worker))
                cache[key] = message
            else:
                self._marks[worker] = self._encoder.marks()
            messages.append(message)
        return messages

    def _send_bytes(self, worker: int, blob: bytes, command: str) -> None:
        TRANSPORT_STATS.record_send(command, len(blob))
        self._connections[worker].send_bytes(blob)

    def _send(self, worker: int, message: tuple) -> None:
        # checks: allow[T202] -- envelope choke point: every message reaching
        # here is a command tuple built by the round methods below.
        self._send_bytes(worker, pickle.dumps(message, _PROTOCOL), message[0])

    def _receive(self, worker: int, command: str = "reply"):
        try:
            blob = self._connections[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise ChaseError(
                f"persistent worker {worker} died mid-round: {exc!r}"
            ) from exc
        TRANSPORT_STATS.record_receive(command, len(blob))
        status, value, timings = wire.unpack_reply(pickle.loads(blob))
        if timings is not None:
            TRANSPORT_STATS.record_worker_timings(command, timings)
        if status != "ok":
            raise ChaseError(
                f"persistent worker {worker} failed:\n{value}"
            )
        return value

    def _broadcast_and_gather(
        self, messages: Sequence[tuple | None]
    ) -> list[tuple[int, object]]:
        """Send one message per worker (None skips), gather the replies.

        Returns ``(worker, reply)`` pairs in worker order.  Repeated
        message *objects* (the seed broadcast, sync-only rounds) are
        pickled once and the same bytes written to every pipe — the
        protocol's largest payloads serialize O(1) times, not O(workers).

        A failed reply (worker error or death) does not abort the gather:
        every remaining sent worker is still drained first, so no pipe is
        left holding a stale round reply that a later reader (the stop
        handshake, a retried round) would misread as its own.  Only then
        is the first failure raised — and the pool marked broken, because
        the failed worker's replica state is unknown.
        """
        blobs: dict[int, bytes] = {}
        sent = []
        failure: ChaseError | None = None
        for worker, message in enumerate(messages):
            if message is None:
                continue
            blob = blobs.get(id(message))
            if blob is None:
                # checks: allow[T202] -- envelope choke point: broadcast
                # messages are command tuples built by the round methods.
                blob = pickle.dumps(message, _PROTOCOL)
                blobs[id(message)] = blob
            try:
                self._send_bytes(worker, blob, message[0])
            except (BrokenPipeError, OSError) as exc:
                # A dead worker at send time: stop broadcasting (the
                # round is lost either way) but still drain the workers
                # already sent to, below.
                failure = ChaseError(
                    f"persistent worker {worker} died mid-round: {exc!r}"
                )
                break
            sent.append(worker)
        replies: list[tuple[int, object]] = []
        for worker in sent:
            try:
                replies.append(
                    (worker, self._receive(worker, messages[worker][0]))
                )
            except ChaseError as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            self._broken = True
            raise failure
        return replies

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _slice(self, per_worker: Sequence[list], worker: int) -> list:
        return per_worker[worker] if worker < len(per_worker) else []

    def _seed(self, rules: tuple[Rule, ...], instance: Instance) -> None:
        TRANSPORT_STATS.seeds += 1
        encoder = self._encoder
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        encoder.intern_rules(rules)
        atoms = instance.sorted_atoms()
        atoms_buf = encoder.encode_atoms(atoms)
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        atoms_payload = self._ship("seed", atoms_buf)
        messages = self._shared_messages(
            lambda segment: ("seed", segment, rules, atoms_payload)
        )
        TRANSPORT_STATS.count_atoms_sent("seed", len(atoms) * self.size)
        try:
            self._broadcast_and_gather(messages)
        finally:
            self._collect_segments()
        self._rules = rules
        self._replica_revision = instance.revision

    def run_round(
        self,
        mode: str,
        rules: Sequence[Rule],
        instance: Instance,
        pivots_per_worker: Sequence[list[Atom]],
    ) -> list:
        """Run one enumeration (or derivation) round across the pool.

        ``pivots_per_worker`` assigns each worker its slice of the round's
        delta as pivot source (the scheduler's hash-shard routing); the
        sync payload — everything the replicas have not seen yet — is
        computed here and shipped to *every* worker, so replicas always
        mirror the parent instance at round start.  Returns the non-empty
        workers' results in worker order (per-rule image dicts for the
        enumeration modes, derived atom sets for ``derive``).
        """
        self._start()
        rules = tuple(rules)
        if self._rules is None or rules != self._rules:
            self._seed(rules, instance)
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        sync_atoms = instance.delta_since(self._replica_revision)
        self._replica_revision = instance.revision
        encoder = self._encoder
        sync_buf = encoder.encode_atoms(sync_atoms) if sync_atoms else b""
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        pivot_lists = [
            self._slice(pivots_per_worker, worker)
            for worker in range(self.size)
        ]
        # Encode every payload of the broadcast *before* cutting any
        # worker's segment — a pivot atom for worker N may intern a
        # symbol that worker 0's segment must already carry.
        pivot_bufs = [
            encoder.encode_atoms(pivots) if pivots else b""
            for pivots in pivot_lists
        ]
        # Route the bulk payloads: the sync delta is published once and
        # the same ref rides every worker's envelope.
        sync_payload = self._ship("sync", sync_buf) if sync_buf else b""
        pivot_payloads = [
            self._ship(mode, buf) if buf else b"" for buf in pivot_bufs
        ]
        # One shared sync-only message per table mark for pivotless
        # workers: the broadcast pickles each distinct object once.
        sync_cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple | None] = []
        gathered_workers: list[int] = []
        for worker in range(self.size):
            if pivot_lists[worker]:
                messages.append(
                    (
                        mode,
                        self._segment(worker),
                        sync_payload,
                        pivot_payloads[worker],
                    )
                )
                gathered_workers.append(worker)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
                TRANSPORT_STATS.count_atoms_sent(
                    mode, len(pivot_lists[worker])
                )
            elif sync_atoms:
                key = self._marks[worker]
                message = sync_cache.get(key)
                if message is None:
                    message = ("sync", self._segment(worker), sync_payload)
                    sync_cache[key] = message
                else:
                    self._marks[worker] = encoder.marks()
                messages.append(message)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
            else:
                messages.append(None)
        try:
            replies = dict(self._broadcast_and_gather(messages))
        finally:
            self._collect_segments()
        # Sync-only workers just acknowledge; keep the shape (non-empty
        # pivot slices only) the scheduler's merge expects.
        results = []
        for worker in gathered_workers:
            if mode == "derive":
                derived = wire.decode_derive_reply(encoder, replies[worker])
                TRANSPORT_STATS.count_atoms_received("derive", len(derived))
                results.append(derived)
            else:
                results.append(
                    wire.decode_enumerate_reply(
                        encoder, rules, replies[worker]
                    )
                )
        return results

    def fire(
        self,
        rules: Sequence[Rule],
        tasks_per_worker: Sequence[list[tuple]],
    ) -> list[tuple[int, set[Atom]]]:
        """Fan one round's firing tasks across the pool.

        Tasks are packed into one flat buffer per worker and each worker
        answers its whole slice in one packed reply.  Returns the
        concatenated ``(index, output_atoms)`` pairs; the caller
        re-orders by index, so reply order is irrelevant.
        """
        self._start()
        rules = tuple(rules)
        encoder = self._encoder
        task_lists = [
            self._slice(tasks_per_worker, worker)
            for worker in range(self.size)
        ]
        task_bufs = [
            encoder.encode_fire_tasks(rules, tasks) if tasks else None
            for tasks in task_lists
        ]
        task_payloads = [
            self._ship("fire", buf) if buf is not None else None
            for buf in task_bufs
        ]
        messages: list[tuple | None] = [
            ("fire", self._segment(worker), rules, task_payloads[worker])
            if task_payloads[worker] is not None
            else None
            for worker in range(self.size)
        ]
        try:
            replies = self._broadcast_and_gather(messages)
        finally:
            self._collect_segments()
        results: list[tuple[int, set[Atom]]] = []
        for _, reply in replies:
            decoded = wire.decode_fire_reply(encoder, reply)
            TRANSPORT_STATS.count_atoms_received(
                "fire", sum(len(atoms) for _, atoms in decoded)
            )
            results.extend(decoded)
        return results

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
