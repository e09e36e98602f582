"""Persistent delta-fed process workers.

The parallel engine's only fan-out backend.  Each worker process of a
:class:`WorkerPool` holds a *long-lived replica* of the instance — an
id-native :class:`~repro.engine.columnar.ColumnarInstance` — seeded once
when the pool first runs; every later round ships only the **per-round
delta** (the atoms added since the replicas were last synced, straight
from :meth:`~repro.logic.instances.Instance.delta_since`).  Payload size
is proportional to what changed, not to what exists.

Rounds
------
:meth:`WorkerPool.round_matches` is the pool's whole round: it routes
the delta by ``hash(atom) % size``, one slice per worker in delta
order, runs :func:`repro.engine.core.round_matches` on every worker's
slice against its replica, and merges the replies into what one inline
call on the whole delta returns — per rule, the set union of the
workers' image lists (a body touching delta atoms routed to two workers
is found by both and merges to one image; an ``enumerate_counted``
round merges its survivor lists and its pruned lists apart), or, for
``derive``, the union of the workers' new-head id rows, then one
``Atom`` per distinct row.  A round whose delta lands on a single
worker runs inline against the parent's instance instead, with no
message sent; the replicas catch up through the next pooled round's
sync.

A round stays on ids from routing to reply: the parent interns each
delta atom once, the workers join on rows, and no worker builds an
``Atom`` — only the parent does, once per new atom.

Protocol
--------
One duplex pipe per worker.  Atom payloads travel in the
interned-term columnar encoding of :mod:`repro.engine.wire`: the pool
owns a :class:`~repro.engine.columnar.Vocabulary` whose append-only
term/predicate tables are the shared symbol table, each message carries
the *table segment* its worker has not seen yet (tracked by a per-worker
high-water mark, so a symbol crosses a pipe once per worker, ever), and
the payloads themselves are flat varint id buffers.  Only the
message envelope below, the ``Rule`` objects and error tracebacks are
pickled — that is also how the pool accounts transport in
:data:`TRANSPORT_STATS`, which keeps per-command byte/atom counters.

``("seed", segment, rules, atoms_buf)``
    Replace the worker's rule list and rebuild its replica from the
    packed atom buffer.  Sent at pool start, and again whenever the
    replicas cannot be synced by a delta: the rules changed or the round
    runs on another instance.
``("sync", segment, sync_buf)``
    Fold the packed per-round delta into the replica and acknowledge.
    Sent to workers that have no pivots in a round where others do —
    replicas always mirror the parent instance at round start.
``(command, segment, sync_buf, pivot_buf)``
    ``command`` is ``"enumerate"``, ``"enumerate_counted"``,
    ``"enumerate_unsatisfied"`` or ``"derive"``, the
    :func:`~repro.engine.core.round_matches` mode.
    One round: fold the packed ``sync_buf`` delta into the replica,
    then run :func:`~repro.engine.core.round_matches` with the
    ``pivot_buf`` rows (this worker's slice of the delta) as the pivot
    source against the full replica.  Replies with one packed buffer:
    per-rule image streams (the enumeration commands — the parent
    decodes them into the image lists an inline round returns) or the
    new heads as packed id rows (``derive``: the replica mirrors the
    instance at round start, so a head it holds is dropped in the join
    kernel and never sent).  ``enumerate_unsatisfied`` is the
    restricted chase's: the replica mirrors the chase instance at round
    start, so each existential-free match's ground head is checked
    against it right where the match is found, and only the images that
    can still add an atom — the smallest per distinct head — are sent
    back (:func:`~repro.engine.core.rule_unsatisfied_images`).
    ``enumerate_counted`` is the oblivious chase's: it prunes the same
    images, but the oblivious chase applies every trigger, so the reply
    carries two image lists per rule, the worker's survivors and its
    pruned images (:func:`~repro.engine.core.rule_counted_images`).  The
    parent takes the union of both;
    :func:`~repro.chase.trigger.round_triggers` keeps the smallest
    survivor per head across all workers and counts every other distinct
    image of that union as an application that adds nothing.
``("stop",)``
    Acknowledge and exit.

Workers match; they never fire.  Workers never talk to each other and
never allocate null names: every round the
:class:`~repro.engine.runner.ChaseRunner` enumerates on the pool fires
in the parent, through the runner's lazy claim/output stream, which
draws every null from the run's :class:`~repro.logic.terms.FreshSupply`
in canonical trigger order.

Failure handling: a failed or dead worker surfaces as
:class:`~repro.errors.ChaseError`, but only after every outstanding reply
of the round has been drained, and the pool is marked *broken* — its
replicas may have half-applied the round's sync and an undrained pipe
could hand a stale round reply to the next reader, so ``close()`` skips
the stop handshake on a broken pool and tears the processes down by
closing the pipes instead.  A worker that fails to spawn surfaces as
:class:`~repro.errors.ChaseError` too, after the workers already spawned
are stopped.

Decoded terms rebuild through their constructors on arrival
(:func:`repro.logic.terms.term_from_wire`, and ``Term.__reduce__`` for
the still-pickled rules), so cached hashes are recomputed under the
worker's own ``PYTHONHASHSEED``.

Counters: each reply envelope carries what its command added to the
worker's ``MATCHER_STATS`` and ``INSTANTIATION_STATS``
(:func:`repro.engine.wire.pack_reply`), and the parent adds it to its
own, so a pooled run counts the candidates an inline run counts (and
one search per pivot per busy worker slice).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from itertools import chain
from typing import Sequence

from repro.engine import core, wire
from repro.obs.trace import active_round
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import MATCHER_STATS
from repro.logic.instances import Instance
from repro.rules.rule import INSTANTIATION_STATS, Rule

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class TransportStats:
    """Byte/message counters for the pool's pipe traffic.

    Module-global (like ``MATCHER_STATS`` in the homomorphism matcher) so
    benchmarks and the transport budgets can pin what the pool ships.

    ``bytes_sent``/``bytes_received`` count the pickled envelopes each
    way — every payload byte rides the pipe.  Beyond the totals,
    :attr:`commands` keys per-command counters — ``{"messages",
    "bytes_sent", "bytes_received", "atoms_sent", "atoms_received"}``
    for each of ``seed``/``sync``/``enumerate``/``enumerate_counted``/
    ``enumerate_unsatisfied``/``derive``/``stop`` — so tests and
    benchmarks can pin exactly where transport goes.  Sync deltas riding
    an enumeration or derive message are counted under ``sync`` (atoms)
    while the envelope bytes land on the carrying command.

    :attr:`worker_seconds` aggregates the worker-side
    ``(decode_s, execute_s, encode_s)`` wall-clock triples stamped into
    every reply envelope (:func:`repro.engine.wire.pack_reply`), per
    command — the only non-deterministic counters in here, kept apart
    from the byte counters the budget gates pin.  Registered as the
    ``transport`` group of :func:`repro.obs.default_registry`.
    """

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "messages",
        "seeds",
        "commands",
        "worker_seconds",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages = 0
        self.seeds = 0
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


def _counts() -> tuple[int, int, int]:
    """This process's ``(searches, candidates, heads)`` counters."""
    return (
        MATCHER_STATS.searches,
        MATCHER_STATS.candidates,
        INSTANTIATION_STATS.heads,
    )


def _worker_main(conn) -> None:
    """The long-lived worker loop: one replica, one rule list, one wire
    table; per-round packed deltas in, one packed reply per round out.

    The wire table is a fresh :class:`~repro.engine.columnar.Vocabulary`
    that grows only through the table segments the parent ships; the
    replica is an id-native
    :class:`~repro.engine.columnar.ColumnarInstance` over it.  Packed
    seed/sync buffers fold straight into id rows, the delta core's join
    kernel runs every rule on those rows, and the reply encoders look
    ids up in the same vocabulary.  No row ever becomes an ``Atom``: a
    ``derive`` reply packs the kernel's new-head rows as they are.

    Every reply envelope carries the worker's
    ``(decode_s, execute_s, encode_s)`` wall-clock split and the
    command's matcher and instantiation counts
    (:func:`repro.engine.wire.pack_reply`): *decode* covers unpickling
    the envelope, replaying the table segment and unpacking the id
    buffers; *execute* the replica update and the actual enumeration
    work; *encode* packing the reply buffer.  The blocking ``recv``
    (waiting for the parent) and the envelope's own final pickle are
    excluded — the triple measures worker compute, not pipe idleness.
    """
    perf = time.perf_counter
    rules: tuple[Rule, ...] = ()
    vocabulary = Vocabulary()
    replica = ColumnarInstance(vocabulary)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        decode_start = perf()
        before = _counts()
        message = pickle.loads(blob)
        command = message[0]
        if command == "stop":
            decoded = perf()
            conn.send_bytes(
                pickle.dumps(
                    wire.pack_reply(
                        "ok", None, (decoded - decode_start, 0.0, 0.0, 0, 0, 0)
                    ),
                    _PROTOCOL,
                )
            )
            break
        try:
            if command == "seed":
                _, segment, rules, atoms_buf = message
                vocabulary.apply_segment(segment)
                decoded = perf()
                replica = ColumnarInstance(vocabulary)
                replica.ingest_packed(atoms_buf)
                value = len(replica)
                executed = perf()
            elif command == "sync":
                _, segment, sync_buf = message
                vocabulary.apply_segment(segment)
                decoded = perf()
                value = replica.ingest_packed(sync_buf)
                executed = perf()
            elif command == "derive" or command in core.ENUMERATE_MODES:
                _, segment, sync_buf, pivot_buf = message
                vocabulary.apply_segment(segment)
                decoded = perf()
                replica.ingest_packed(sync_buf)
                view = ColumnarInstance(vocabulary)
                view.ingest_packed(pivot_buf)
                result = core.round_matches(command, rules, replica, view)
                executed = perf()
                if command == "derive":
                    value = wire.pack_rows(result)
                else:
                    if command == "enumerate_counted":
                        result = list(chain.from_iterable(result))
                    value = wire.encode_enumerate_reply(vocabulary, result)
            else:
                raise ChaseError(f"unknown worker command {command!r}")
            reply = wire.pack_reply(
                "ok",
                value,
                (
                    decoded - decode_start,
                    executed - decoded,
                    perf() - executed,
                    *(now - then for now, then in zip(_counts(), before)),
                ),
            )
        except Exception:
            reply = wire.pack_reply("error", traceback.format_exc())
        conn.send_bytes(pickle.dumps(reply, _PROTOCOL))
    conn.close()


def _union(lists) -> list:
    """The distinct items of ``lists``, each once, in first-seen order."""
    return list(dict.fromkeys(chain.from_iterable(lists)))


class WorkerPool:
    """A fixed-size pool of persistent, delta-fed worker processes.

    Lifecycle: the pool spawns lazily, on the first round that fans
    out; one :class:`~repro.engine.runner.ChaseRunner` (and therefore
    one chase/closure run) owns it and tears it down in its ``close()``.

    Replica consistency: the pool tracks the instance and revision its
    replicas are synced to and computes each round's sync payload with
    ``instance.delta_since`` — so rounds :meth:`round_matches` ran
    inline are transparently caught up on the next pooled round.  A
    round under other rules, or on another instance, reseeds the
    replicas instead.

    Wire tables: the pool owns a :class:`Vocabulary` and a per-worker
    ``(term, predicate)`` high-water mark into it.  Segments are cut per
    worker **after** all of a broadcast's payloads are encoded, so each
    worker's segment covers every symbol its message references —
    including workers that skip a round (their mark simply stays behind
    until their next message catches them up).
    """

    def __init__(self, size: int):
        if size < 1:
            raise ChaseError(
                f"a worker pool needs at least 1 worker, got {size}"
            )
        self.size = size
        self._connections: list = []
        self._processes: list = []
        self._started = False
        self._broken = False
        self._rules: tuple[Rule, ...] | None = None
        self._instance: Instance | None = None
        self._replica_revision = 0
        self._vocabulary = Vocabulary()
        self._marks: list[tuple[int, int]] = [(0, 0)] * size

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
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        try:
            for _ in range(self.size):
                parent_conn, child_conn = context.Pipe(duplex=True)
                self._connections.append(parent_conn)
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child_conn.close()
                self._processes.append(process)
        except OSError as exc:
            spawned = len(self._processes)
            self.close()
            raise ChaseError(
                f"could not spawn persistent worker {spawned} of "
                f"{self.size}: {exc!r}"
            ) from exc
        self._started = True

    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent).

        On a healthy pool — a partly spawned one included — this is the
        stop handshake: every pipe is in lockstep (each sent message has
        had its reply read), so a ``stop`` is acknowledged and the
        workers exit; a pipe whose worker never started reports EOF at
        once.  A *broken* pool never reuses its desynced pipes — a stale
        round reply could be misread as the stop ack — so the handshake
        is skipped and the processes are terminated outright (their
        replicas are scratch state; under the fork start method siblings
        hold inherited copies of each other's pipe ends, so closing the
        parent ends alone would not even unblock them).
        """
        if not self._connections:
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
                        _, _, timings, _ = wire.unpack_reply(
                            pickle.loads(ack)
                        )
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
        self._instance = None
        self._replica_revision = 0
        # The workers' table replicas died with them: start a fresh
        # vocabulary so a reused pool re-ships symbols from scratch.
        self._vocabulary = Vocabulary()
        self._marks = [(0, 0)] * self.size

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _segment(self, worker: int):
        """Cut ``worker``'s table segment and advance its high-water mark."""
        segment = self._vocabulary.segment(*self._marks[worker])
        self._marks[worker] = self._vocabulary.marks()
        return segment

    def _shared_messages(self, build, workers) -> list[tuple | None]:
        """One message per worker of ``workers`` (``None`` for the rest),
        shared by equal table marks.

        ``build(segment)`` constructs the message; workers whose marks
        coincide receive the *same object*, which the broadcast pickles
        once.  Their marks are advanced to current.
        """
        cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple | None] = [None] * self.size
        for worker in workers:
            key = self._marks[worker]
            if key not in cache:
                cache[key] = build(self._segment(worker))
            else:
                self._marks[worker] = self._vocabulary.marks()
            messages[worker] = cache[key]
        return messages

    def _send_bytes(self, worker: int, blob: bytes, command: str) -> None:
        TRANSPORT_STATS.record_send(command, len(blob))
        self._connections[worker].send_bytes(blob)

    def _receive(self, worker: int, command: str):
        try:
            blob = self._connections[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise ChaseError(
                f"persistent worker {worker} died mid-round: {exc!r}"
            ) from exc
        TRANSPORT_STATS.record_receive(command, len(blob))
        status, value, timings, counts = wire.unpack_reply(pickle.loads(blob))
        if timings is not None:
            TRANSPORT_STATS.record_worker_timings(command, timings)
            searches, candidates, heads = counts
            MATCHER_STATS.searches += searches
            MATCHER_STATS.candidates += candidates
            INSTANTIATION_STATS.heads += heads
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
        the failed worker's replica state is unknown.  Any other exception
        once a send began (an interrupt between the sends and the last
        receive) also marks the pool broken: replies may still sit on the
        pipes, so ``close()`` must not run the stop handshake over them.
        """
        blobs: dict[int, bytes] = {}
        sent = []
        failure: ChaseError | None = None
        sending = False
        try:
            for worker, message in enumerate(messages):
                if message is None:
                    continue
                blob = blobs.get(id(message))
                if blob is None:
                    # checks: allow[T202] -- envelope choke point: broadcast
                    # messages are command tuples built by the round methods.
                    blob = pickle.dumps(message, _PROTOCOL)
                    blobs[id(message)] = blob
                sending = True
                try:
                    self._send_bytes(worker, blob, message[0])
                except (BrokenPipeError, OSError) as exc:
                    # A dead worker at send time: stop broadcasting (the
                    # round is lost either way) but still drain the
                    # workers already sent to, below.
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
                raise failure
        except BaseException:
            if sending:
                self._broken = True
            raise
        return replies

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _seed(self, rules: tuple[Rule, ...], instance: Instance) -> None:
        TRANSPORT_STATS.seeds += 1
        vocabulary = self._vocabulary
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        wire.intern_rules(vocabulary, rules)
        atoms = instance.sorted_atoms()
        atoms_buf = wire.encode_atoms(vocabulary, atoms)
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        messages = self._shared_messages(
            lambda segment: ("seed", segment, rules, atoms_buf),
            range(self.size),
        )
        TRANSPORT_STATS.count_atoms_sent("seed", len(atoms) * self.size)
        self._broadcast_and_gather(messages)
        self._rules = rules
        self._instance = instance
        self._replica_revision = instance.revision

    def round_matches(
        self,
        mode: str,
        rules: Sequence[Rule],
        instance: Instance,
        delta: Sequence[Atom],
    ):
        """:func:`repro.engine.core.round_matches` of the whole ``delta``,
        computed across the pool: hash routing, the inline fallback for
        a single busy slice, and the merge of the replies (see the
        module docstring).  Per rule, the merged image list is the set
        union of the workers' lists, each image once, in no particular
        order; :func:`~repro.chase.trigger.round_triggers` sorts it.  An
        ``enumerate_counted`` round merges each rule's survivors and its
        pruned images apart, into one ``(survivors, pruned)`` pair.  A
        ``derive`` round returns its new heads, one ``Atom`` per
        distinct id row the workers sent.
        """
        rules = tuple(rules)
        size = self.size
        routed: list[list[Atom]] = [[] for _ in range(size)]
        for atom in delta:
            # checks: allow[D102] -- routing only decides *which worker*
            # computes; the merge is a keyed union that callers sort by
            # canonical image, so results are bit-identical across
            # routings (pinned by the equivalence matrix).
            routed[hash(atom) % size].append(atom)
        recorder = active_round()
        if recorder is not None:
            # Per-worker routing weights: the packed-encoding ids each
            # worker's slice costs to ship this round.
            recorder.shard_weights = tuple(
                sum(wire.atom_weight(atom) for atom in atoms)
                for atoms in routed
            )
        busy = [atoms for atoms in routed if atoms]
        if len(busy) < 2:
            slice_inst = core.as_delta_instance(busy[0] if busy else ())
            return core.round_matches(mode, rules, instance, slice_inst)
        results = self.run_round(mode, rules, instance, routed)
        if mode == "derive":
            return self._vocabulary.atoms(set().union(*results))
        if mode == "enumerate_counted":
            return [
                (_union(s for s, _ in pairs), _union(p for _, p in pairs))
                for pairs in zip(*results)
            ]
        return [_union(per_rule) for per_rule in zip(*results)]

    def run_round(
        self,
        mode: str,
        rules: Sequence[Rule],
        instance: Instance,
        pivots_per_worker: Sequence[list[Atom]],
    ) -> list:
        """Run one enumeration (or derivation) round across the pool.

        ``pivots_per_worker`` assigns each worker its slice of the round's
        delta as pivot source (:meth:`round_matches` routes it by hash);
        the sync payload — everything the replicas have not seen yet — is
        computed here and shipped to *every* worker, so replicas always
        mirror the parent instance at round start; it and the pivot
        buffers are packed from one id row per atom.  Returns the
        workers' results in worker order,
        for the workers with pivots only (per-rule image lists for the
        enumeration modes, ``(survivors, pruned)`` pairs of them for
        ``enumerate_counted``; for ``derive``, the id rows ``(pred_id,
        term_ids)`` of the heads the replica lacked, over the pool's
        wire tables).
        """
        self._start()
        rules = tuple(rules)
        if rules != self._rules or instance is not self._instance:
            self._seed(rules, instance)
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        sync_atoms = instance.delta_since(self._replica_revision)
        self._replica_revision = instance.revision
        vocabulary = self._vocabulary
        intern = vocabulary.intern_atom
        rows = {atom: intern(atom) for atom in sync_atoms}
        sync_buf = wire.pack_rows(rows.values())
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        pivot_lists = list(pivots_per_worker)
        pivot_lists += [[]] * (self.size - len(pivot_lists))
        # Encode every payload of the broadcast *before* cutting any
        # worker's segment — a pivot atom for worker N may intern a
        # symbol that worker 0's segment must already carry.  A round's
        # pivots are sync atoms, except right after a reseed (the seed
        # carried them) or when a caller pivots on atoms already synced.
        pivot_bufs = [
            wire.pack_rows([rows.get(atom) or intern(atom) for atom in pivots])
            for pivots in pivot_lists
        ]
        # Workers with pivots get their own message; the others get a
        # sync-only one when there is a delta, shared per table mark.
        busy = [w for w in range(self.size) if pivot_lists[w]]
        idle = [w for w in range(self.size) if sync_atoms and w not in busy]
        messages = self._shared_messages(
            lambda segment: ("sync", segment, sync_buf), idle
        )
        TRANSPORT_STATS.count_atoms_sent(
            "sync", len(sync_atoms) * (len(busy) + len(idle))
        )
        for worker in busy:
            messages[worker] = (
                mode, self._segment(worker), sync_buf, pivot_bufs[worker]
            )
            TRANSPORT_STATS.count_atoms_sent(mode, len(pivot_lists[worker]))
        replies = dict(self._broadcast_and_gather(messages))
        # Sync-only workers just acknowledge.  A counted reply holds two
        # image lists per rule.
        counted = mode == "enumerate_counted"
        listed = tuple(chain(*zip(rules, rules))) if counted else rules
        results = []
        for worker in busy:
            if mode == "derive":
                heads = wire.decode_derive_reply(vocabulary, replies[worker])
                TRANSPORT_STATS.count_atoms_received("derive", len(heads))
                results.append(heads)
            else:
                found = wire.decode_enumerate_reply(
                    vocabulary, listed, replies[worker]
                )
                results.append(
                    list(zip(found[::2], found[1::2])) if counted else found
                )
        return results

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
