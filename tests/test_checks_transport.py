"""Fixture tests for the transport-boundary pass (T201-T204).

The pass is scoped to ``src/repro/engine/``: pickling belongs to the
envelope module (workers.py, both ends of every pipe), domain objects go
through the wire codec, pipes carry explicit byte payloads, and replies
come from pack_reply.
"""

import textwrap

from repro.checks.base import SourceModule
from repro.checks.transport import TransportPass

PASS = TransportPass()


def run(source, rel):
    module = SourceModule.from_source(textwrap.dedent(source), rel)
    live, allowed = [], []
    for finding in PASS.run(module):
        (allowed if module.allowed(finding) else live).append(finding)
    return live, allowed


def rules(findings):
    return sorted(f.rule for f in findings)


def test_pickle_outside_envelope_modules_is_flagged():
    live, _ = run(
        """
        import pickle

        def snapshot(table):
            return pickle.dumps(table.rows)
        """,
        rel="src/repro/engine/columnar.py",
    )
    assert rules(live) == ["T201"]


def test_raw_pickle_of_domain_object_in_envelope_module_is_flagged():
    live, _ = run(
        """
        import pickle

        def ship(instance):
            return pickle.dumps(instance)
        """,
        rel="src/repro/engine/workers.py",
    )
    assert rules(live) == ["T202"]
    assert "domain" in live[0].message


def test_untyped_pipe_send_and_recv_are_flagged():
    live, _ = run(
        """
        def push(conn, payload):
            conn.send(payload)
            return conn.recv()
        """,
        rel="src/repro/engine/workers.py",
    )
    assert rules(live) == ["T203", "T203"]


def test_hand_built_reply_tuple_is_flagged():
    live, _ = run(
        """
        def reply(value):
            return ("ok", value)
        """,
        rel="src/repro/engine/workers.py",
    )
    assert rules(live) == ["T204"]


def test_command_tuple_and_pack_reply_envelopes_are_clean():
    live, _ = run(
        """
        import pickle

        from repro.engine.wire import pack_reply

        def send_fire(round_id, payload):
            blob = pickle.dumps(("fire", round_id, payload))
            return blob

        def send_reply(status, worker_seconds):
            return pickle.dumps(pack_reply(status, worker_seconds))
        """,
        rel="src/repro/engine/workers.py",
    )
    assert live == []


def test_allow_marker_suppresses_justified_broadcast_pickle():
    live, allowed = run(
        """
        import pickle

        def broadcast(message):
            # checks: allow[T202] -- broadcast messages are command tuples
            # built by the round methods; this is the envelope choke point.
            return pickle.dumps(message)
        """,
        rel="src/repro/engine/workers.py",
    )
    assert live == []
    assert rules(allowed) == ["T202"]


def test_pass_is_scoped_to_the_engine_package():
    module = SourceModule.from_source(
        "import pickle\nblob = pickle.dumps(object())\n",
        "src/repro/logic/instances.py",
    )
    assert not PASS.wants(module)
