"""``tools/check_transport_budget.py``: the checked-in gates against
synthetic ``BENCH_*.json`` artifacts."""

from __future__ import annotations

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "check_transport_budget", REPO / "tools" / "check_transport_budget.py"
)
check_transport_budget = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_transport_budget)


def _gate(channel: str) -> dict:
    budget = json.loads(check_transport_budget.BUDGET_PATH.read_text())
    (gate,) = [g for g in budget["gates"] if g["channel"] == channel]
    return gate


def _verdict(gate: dict, measured: int) -> str | None:
    artifact = {"engines": {gate["engine"]: {gate["channel"]: measured}}}
    return check_transport_budget.check_gate(gate, {gate["artifact"]: artifact})


def test_reply_gate_holds_new_head_replies_and_rejects_full_ones():
    # EXP-14's persistent closure: 11 364-11 457 B of replies over
    # PYTHONHASHSEED 0-4 when a derive reply holds only the heads the
    # replica lacks, 19 317-19 425 B when it holds every derived head.
    gate = _gate("reply_bytes")
    assert gate["experiment"] == "EXP-14"
    assert _verdict(gate, 11_457) is None
    problem = _verdict(gate, 19_317)
    assert problem is not None and "reply_bytes" in problem


def test_payload_gate_holds_the_measured_payload():
    gate = _gate("payload_bytes")
    assert _verdict(gate, 18_809) is None
    assert _verdict(gate, gate["max_bytes"] + 1) is not None


def test_missing_channel_is_reported():
    gate = _gate("reply_bytes")
    artifact = {"engines": {gate["engine"]: {"payload_bytes": 18_809}}}
    problem = check_transport_budget.check_gate(
        gate, {gate["artifact"]: artifact}
    )
    assert problem == (
        f"{gate['artifact']}: no reply_bytes for engine {gate['engine']!r}"
    )
