"""Unit tests for the unified telemetry: registry, traces, wire timings."""

from __future__ import annotations

import json
import time

import pytest

from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.corpus.generators import path_instance, tournament_instance
from repro.engine.config import EngineConfig
from repro.engine.wire import REPLY_TIMINGS, pack_reply, unpack_reply
from repro.engine.workers import TRANSPORT_STATS
from repro.errors import ChaseBudgetExceeded, RewritingBudgetExceeded
from repro.logic.homomorphisms import MATCHER_STATS
from repro.logic.terms import FreshSupply
from repro.obs import (
    PHASES,
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    RoundRecorder,
    RunTrace,
    default_registry,
    diff_snapshots,
    reset_all,
)
from repro.obs.trace import timed
from repro.rewriting.datalog import semi_naive_closure
from repro.queries.ucq import UCQ
from repro.rewriting.rewriter import rewrite, rewrite_ucq
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.rules.rule import INSTANTIATION_STATS


class FakeStats:
    def __init__(self):
        self.value = 0

    def snapshot(self):
        return {"value": self.value}

    def reset(self):
        self.value = 0


MIXED_RULES = """
E(x,y) -> exists z. E(y,z)
E(x,y) -> Q(x)
Q(x) -> R(x)
"""


def run_traced(engine, **kwargs):
    rules = parse_rules(MIXED_RULES)
    instance = parse_instance("E(a,b), E(b,c)")
    trace = RunTrace()
    result = oblivious_chase(
        instance, rules, max_levels=4, engine=engine, trace=trace, **kwargs
    )
    return result, trace


def run_pooled(workers: int = 2):
    """The mixed rules over a 24-edge path on the worker pool.

    A round whose delta routes to a single worker runs inline; the first
    round's 25-atom delta reaches every worker, so the pool always runs.
    """
    trace = RunTrace()
    result = oblivious_chase(
        path_instance(24),
        parse_rules(MIXED_RULES),
        max_levels=3,
        engine=EngineConfig("persistent", workers=workers),
        trace=trace,
    )
    return result, trace


class TestRegistry:
    def test_default_registry_names_the_stats_globals(self):
        from repro.serving.stats import SERVING_STATS

        registry = default_registry()
        assert registry.names() == (
            "matcher",
            "instantiation",
            "transport",
            "serving",
        )
        assert registry.group("matcher") is MATCHER_STATS
        assert registry.group("instantiation") is INSTANTIATION_STATS
        assert registry.group("transport") is TRANSPORT_STATS
        assert registry.group("serving") is SERVING_STATS

    def test_snapshot_covers_every_group(self):
        snapshot = default_registry().snapshot()
        assert set(snapshot) == {
            "matcher",
            "instantiation",
            "transport",
            "serving",
        }
        assert snapshot["instantiation"] == {"heads": INSTANTIATION_STATS.heads}

    def test_reset_all_zeroes_groups(self):
        MATCHER_STATS.searches += 7
        INSTANTIATION_STATS.heads += 3
        reset_all()
        assert MATCHER_STATS.searches == 0
        assert INSTANTIATION_STATS.heads == 0
        assert TRANSPORT_STATS.bytes_sent == 0

    def test_register_validates_the_protocol(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.register("bad", object())

    def test_register_same_object_is_idempotent(self):
        registry = MetricsRegistry()
        group = FakeStats()
        registry.register("g", group)
        registry.register("g", group)
        assert registry.group("g") is group

    def test_register_conflicting_object_raises(self):
        registry = MetricsRegistry()
        registry.register("g", FakeStats())
        with pytest.raises(ValueError):
            registry.register("g", FakeStats())

    def test_unknown_group_raises_with_names(self):
        with pytest.raises(KeyError, match="matcher"):
            MetricsRegistry().group("matcher")

    def test_diff_snapshots_semantics(self):
        before = {"a": 1, "nested": {"x": 2}, "tag": "t"}
        after = {"a": 4, "nested": {"x": 5, "y": 1}, "tag": "t2", "new": 2}
        delta = diff_snapshots(before, after)
        assert delta == {
            "a": 3,
            "nested": {"x": 3, "y": 1},
            "tag": "t2",
            "new": 2,
        }

    def test_collect_scope_isolates_a_run(self):
        registry = MetricsRegistry()
        group = FakeStats()
        registry.register("g", group)
        group.value = 10
        with registry.collect() as scope:
            group.value += 5
        assert scope.delta == {"g": {"value": 5}}
        assert group.value == 15  # never reset by the scope

    def test_collect_scopes_nest(self):
        registry = MetricsRegistry()
        group = registry.register("g", FakeStats())
        with registry.collect() as outer:
            group.value += 1
            with registry.collect() as inner:
                group.value += 2
            group.value += 4
        assert inner.delta == {"g": {"value": 2}}
        assert outer.delta == {"g": {"value": 7}}

    def test_collect_isolates_sequential_chase_runs(self):
        rules = parse_rules(MIXED_RULES)
        instance = parse_instance("E(a,b)")
        first = oblivious_chase(instance, rules, max_levels=2)
        second = oblivious_chase(instance, rules, max_levels=2)
        # Same work -> same scoped delta, even though the underlying
        # globals accumulated across both runs.
        assert first.telemetry == second.telemetry


class TestRoundRecorder:
    def test_phases_start_at_zero_in_order(self):
        recorder = RoundRecorder(1)
        assert tuple(recorder.phases) == PHASES
        assert all(v == 0.0 for v in recorder.phases.values())

    def test_negative_additions_clamp(self):
        recorder = RoundRecorder(1)
        recorder.add_phase("gate", -1.0)
        assert recorder.phases["gate"] == 0.0

    def test_outer_phase_excludes_inner_time(self):
        recorder = RoundRecorder(1)
        with recorder.outer_phase("fire"):
            recorder.add_phase("record", 100.0)  # dwarfs the real elapsed
        assert recorder.phases["record"] == 100.0
        assert recorder.phases["fire"] == 0.0  # clamped: elapsed << inner

    def test_timed_without_a_recorder_is_one_shared_noop(self):
        assert timed(None, "fire") is timed(None, "probe")
        with timed(None, "fire"):
            pass

    def test_timed_with_a_recorder_lands_on_its_phase(self):
        recorder = RoundRecorder(1)
        with timed(recorder, "probe"):
            time.sleep(0.001)
        assert recorder.phases["probe"] > 0.0
        assert sum(recorder.phases.values()) == recorder.phases["probe"]


ENGINE_MATRIX = [
    pytest.param("delta", id="delta"),
    pytest.param("naive", id="naive"),
    pytest.param(EngineConfig("parallel", workers=2), id="parallel-w2"),
    pytest.param(EngineConfig("persistent", workers=3), id="persistent-w3"),
]


class TestRunTrace:
    def test_round_records_have_the_schema_fields(self):
        result, trace = run_traced("delta")
        assert trace.schema_version == TRACE_SCHEMA_VERSION
        assert trace.meta["engine"] == "delta"
        assert trace.meta["variant"] == "chase"
        assert len(trace.rounds) == result.levels_completed
        for record in trace.rounds:
            assert record["type"] == "round"
            assert tuple(record["phases"]) == PHASES
            for value in record["phases"].values():
                assert value >= 0.0
            assert record["plan"] == "batched"
            assert record["triggers"] >= record["applied"] >= 0
            assert set(record["transport"]) == {
                "bytes_sent",
                "bytes_received",
            }
            assert set(record["worker"]) == {
                "decode_s",
                "execute_s",
                "encode_s",
            }
        assert trace.summary["terminated"] is False
        assert trace.summary["levels"] == result.levels_completed

    @pytest.mark.parametrize("engine", ENGINE_MATRIX)
    def test_deterministic_fields_match_the_delta_reference(self, engine):
        reference, ref_trace = run_traced("delta")
        result, trace = run_traced(engine)
        assert result.instance == reference.instance
        deterministic = [
            {
                key: record[key]
                for key in ("round", "plan", "triggers", "applied", "new_atoms")
            }
            for record in trace.rounds
        ]
        expected = [
            {
                key: record[key]
                for key in ("round", "plan", "triggers", "applied", "new_atoms")
            }
            for record in ref_trace.rounds
        ]
        assert deterministic == expected

    def test_delta_atoms_tracks_the_enumeration_delta(self):
        _, trace = run_traced("delta")
        # The seed delta: the two E atoms plus the implicit top atom.
        assert trace.rounds[0]["delta_atoms"] == 3
        assert all(r["delta_atoms"] is not None for r in trace.rounds)
        _, naive_trace = run_traced("naive")
        assert all(r["delta_atoms"] is None for r in naive_trace.rounds)

    def test_persistent_rounds_carry_transport_and_routing(self):
        _, trace = run_pooled(workers=2)
        assert trace.meta["workers"] == 2
        assert "shards" not in trace.meta
        for record in trace.rounds:
            weights = record["shard_weights"]
            assert len(weights) == 2
            # Only a round whose delta reaches both workers crosses the
            # wire: the pool enumerates, and every round fires in the
            # parent.
            fanned_out = sum(1 for weight in weights if weight) > 1
            assert (record["transport"]["bytes_sent"] > 0) == fanned_out
            for value in record["worker"].values():
                assert value >= 0.0
        assert trace.rounds[0]["transport"]["bytes_sent"] > 0
        # Worker execute time was actually measured somewhere in the run.
        assert sum(r["worker"]["execute_s"] for r in trace.rounds) > 0.0

    def test_in_process_engines_have_no_transport(self):
        _, trace = run_traced("delta")
        for record in trace.rounds:
            assert record["transport"] == {
                "bytes_sent": 0,
                "bytes_received": 0,
            }
            assert record["shard_weights"] is None

    def test_jsonl_round_trips(self, tmp_path):
        _, trace = run_traced("delta")
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "run"
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        back = RunTrace.from_jsonl(path)
        assert back.meta == trace.meta
        assert back.rounds == trace.rounds
        assert back.summary == trace.summary

    def test_summary_table_renders_each_round(self):
        _, trace = run_traced("delta")
        table = trace.summary_table()
        assert "enumerate ms" in table
        assert "total" in table
        assert table.count("batched") == len(trace.rounds)

    def test_untraced_runs_stay_untraced(self):
        rules = parse_rules(MIXED_RULES)
        instance = parse_instance("E(a,b), E(b,c)")
        result = oblivious_chase(instance, rules, max_levels=4)
        traced, trace = run_traced("delta")
        assert result.instance == traced.instance
        assert len(trace.rounds) == 4


class TestResultTelemetry:
    def test_chase_result_carries_registry_deltas(self):
        result, _ = run_traced("delta")
        telemetry = result.telemetry
        assert telemetry["schema_version"] == TRACE_SCHEMA_VERSION
        registry = telemetry["registry"]
        assert set(registry) == {
            "matcher",
            "instantiation",
            "transport",
            "serving",
        }
        assert registry["matcher"]["searches"] > 0
        assert registry["instantiation"]["heads"] > 0

    def test_telemetry_attaches_without_a_trace(self):
        rules = parse_rules(MIXED_RULES)
        result = oblivious_chase(
            parse_instance("E(a,b)"), rules, max_levels=2
        )
        assert result.telemetry["schema_version"] == TRACE_SCHEMA_VERSION

    def test_persistent_telemetry_includes_worker_seconds(self):
        result, _ = run_pooled(workers=2)
        transport = result.telemetry["registry"]["transport"]
        assert transport["bytes_sent"] > 0
        worker_seconds = transport["worker_seconds"]
        assert "seed" in worker_seconds
        assert "fire" not in transport["commands"]
        for timing in worker_seconds.values():
            assert timing["replies"] > 0
            assert timing["decode_s"] >= 0.0


class TestVariantPlans:
    def test_restricted_rounds_use_the_batched_plan(self):
        rules = parse_rules(MIXED_RULES)
        instance = parse_instance("E(a,b), E(b,c)")
        traces = {}
        for engine in ("delta", "naive"):
            traces[engine] = RunTrace()
            restricted_chase(
                instance, rules, max_rounds=4, engine=engine,
                trace=traces[engine],
            )
            assert {r["plan"] for r in traces[engine].rounds} == {"batched"}
        # The pruned and unpruned engines agree on what each round fired.
        pick = lambda t: [
            (r["round"], r["applied"], r["new_atoms"]) for r in t.rounds
        ]
        assert pick(traces["delta"]) == pick(traces["naive"])

    def test_restricted_gate_time_lands_on_gate(self):
        rules = parse_rules(MIXED_RULES)
        trace = RunTrace()
        restricted_chase(
            parse_instance("E(a,b), E(b,c)"), rules, max_rounds=4, trace=trace
        )
        assert sum(r["phases"]["gate"] for r in trace.rounds) > 0.0

    def test_closure_rounds_use_the_derive_plan(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        instance = parse_instance("E(a,b), E(b,c), E(c,d), E(d,e)")
        trace = RunTrace()
        closed = semi_naive_closure(instance, rules, trace=trace)
        assert len(closed) > len(instance)
        assert {r["plan"] for r in trace.rounds} == {"derive"}
        assert trace.meta["mode"] == "derivation"
        assert trace.summary["terminated"] is True
        last = trace.rounds[-1]
        assert last["new_atoms"] == 0  # the fixpoint round


class TestTracedRunsMatchUntraced:
    """A trace only times the loops it runs through: each variant's
    traced run stops on a mid-round atom budget exactly where the
    untraced one does."""

    CASES = [
        (
            "batched",
            lambda i, r, **kw: oblivious_chase(i, r, max_levels=5, **kw),
            lambda: tournament_instance(6, seed=0),
            "E(x,y) -> exists z. E(y,z)",
        ),
        (
            "claim_gated",
            lambda i, r, **kw: semi_oblivious_chase(i, r, max_levels=5, **kw),
            lambda: tournament_instance(6, seed=0),
            "E(x,y) -> exists z. E(y,z), F(x,z)",
        ),
        (
            "restricted",
            lambda i, r, **kw: restricted_chase(i, r, max_rounds=8, **kw),
            lambda: path_instance(8),
            "E(x,y), E(y,z) -> E(x,z)\nE(x,y) -> exists z. F(y,z)",
        ),
    ]

    @pytest.mark.parametrize(
        "name,chase,make,rules", CASES, ids=[case[0] for case in CASES]
    )
    def test_budget_stop_matches_untraced(self, name, chase, make, rules):
        runs = []
        for trace in (None, RunTrace()):
            supply = FreshSupply()
            result = chase(
                make(), parse_rules(rules), max_atoms=40, supply=supply,
                trace=trace,
            )
            runs.append((result, supply.position, trace))
        (plain, plain_position, _), (traced, position, trace) = runs
        assert not plain.terminated
        assert len(plain.instance) > 40
        assert traced.records() == plain.records()
        assert traced.levels_completed == plain.levels_completed
        for at in plain.instance:
            assert traced.atom_level(at) == plain.atom_level(at)
        assert position == plain_position > 0
        assert {r["plan"] for r in trace.rounds} == {"batched"}
        assert sum(r["phases"]["record"] for r in trace.rounds) > 0.0


def _budgeted(chase, make, rules):
    return lambda trace: chase(
        make(), parse_rules(rules), max_atoms=40, trace=trace
    )


class TestUntracedRunsReadNoClock:
    """Only a traced round reads the clock, on every loop the runner
    drives — the firing stream with and without a claim, the closure,
    the rewriter's breadth loop and the pool's sync — so tracing off
    costs what it did before the loops were merged."""

    RUNS = [
        (name, _budgeted(chase, make, rules))
        for name, chase, make, rules in TestTracedRunsMatchUntraced.CASES
    ] + [
        (
            "derive",
            lambda trace: semi_naive_closure(
                path_instance(12),
                parse_rules("E(x,y), E(y,z) -> E(x,z)"),
                trace=trace,
            ),
        ),
        (
            "expand",
            lambda trace: rewrite(
                parse_query("E(u,v)", answers=("u", "v")),
                parse_rules("E(x,y), E(y,z) -> E(x,z)"),
                max_depth=3,
                trace=trace,
            ),
        ),
        (
            "pool",
            lambda trace: oblivious_chase(
                path_instance(24),
                parse_rules(MIXED_RULES),
                max_levels=3,
                engine=EngineConfig("persistent", workers=2),
                trace=trace,
            ),
        ),
    ]

    @pytest.mark.parametrize(
        "run", [r[1] for r in RUNS], ids=[r[0] for r in RUNS]
    )
    def test_only_traced_rounds_read_the_clock(self, monkeypatch, run):
        calls = []
        clock = time.perf_counter

        def counted():
            calls.append(None)
            return clock()

        monkeypatch.setattr(time, "perf_counter", counted)
        run(None)
        assert calls == []
        run(RunTrace())
        assert calls  # the patched clock is the one the loops read


class TestRoundTransportDeltas:
    """The per-round transport deltas account for every pipe byte of a
    pooled run except the stop handshake, which runs after the last
    round closes."""

    @staticmethod
    def _wire():
        stop = TRANSPORT_STATS.command("stop")
        return (
            TRANSPORT_STATS.bytes_sent - stop["bytes_sent"],
            TRANSPORT_STATS.bytes_received - stop["bytes_received"],
            TRANSPORT_STATS.worker_totals()["execute_s"]
            - TRANSPORT_STATS.worker_timing("stop")["execute_s"],
        )

    def _assert_rounds_cover(self, trace, before, after):
        sent, received, execute = (b - a for a, b in zip(before, after))
        rounds = trace.rounds
        assert sent > 0 and received > 0
        assert sum(r["transport"]["bytes_sent"] for r in rounds) == sent
        assert (
            sum(r["transport"]["bytes_received"] for r in rounds) == received
        )
        assert sum(r["worker"]["execute_s"] for r in rounds) == (
            pytest.approx(execute)
        )

    def test_chase_rounds(self):
        before = self._wire()
        _, trace = run_pooled(workers=2)
        self._assert_rounds_cover(trace, before, self._wire())

    def test_closure_rounds(self):
        trace = RunTrace()
        before = self._wire()
        semi_naive_closure(
            path_instance(24),
            parse_rules("E(x,y), E(y,z) -> E(x,z)"),
            engine=EngineConfig("persistent", workers=2),
            trace=trace,
        )
        self._assert_rounds_cover(trace, before, self._wire())
        assert trace.summary["terminated"] is True


class TestTraceSummaries:
    """Every stop path writes a summary with the rounds that ran."""

    TC = "E(x,y), E(y,z) -> E(x,z)"

    def test_closure_step_budget(self):
        trace = RunTrace()
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            semi_naive_closure(
                path_instance(20), parse_rules(self.TC), max_rounds=2,
                trace=trace,
            )
        assert len(trace.rounds) == 2
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "atoms": len(excinfo.value.partial_result),
            "rounds": 2,
        }

    def test_closure_atom_budget(self):
        trace = RunTrace()
        with pytest.raises(ChaseBudgetExceeded):
            semi_naive_closure(
                path_instance(20), parse_rules(self.TC), max_atoms=40,
                trace=trace,
            )
        # 21 atoms + 19 in round 1 sits at the budget; round 2 crosses it.
        assert len(trace.rounds) == 2
        assert trace.summary["terminated"] is False
        assert trace.summary["rounds"] == 2

    def test_rewrite_raising_mid_expansion(self):
        trace = RunTrace()
        with pytest.raises(RewritingBudgetExceeded):
            rewrite(
                parse_query("E(u,v)", answers=("u", "v")),
                parse_rules(self.TC),
                max_depth=50,
                max_disjuncts=3,
                strict=True,
                trace=trace,
            )
        assert len(trace.rounds) == 3
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "rounds": 3,
        }

    def test_rewrite_depth_stop(self):
        trace = RunTrace()
        result = rewrite(
            parse_query("E(u,v)", answers=("u", "v")),
            parse_rules(self.TC),
            max_depth=2,
            trace=trace,
        )
        assert not result.complete
        assert len(trace.rounds) == 2
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "rounds": 2,
        }

    def test_rewrite_size_drop_is_not_terminated(self):
        # Level 3's 4-atom candidates are dropped, so the empty level 3
        # is no fixpoint: the summary says what the result says.
        trace = RunTrace()
        result = rewrite(
            parse_query("E(x,y)", answers=("x", "y")),
            parse_rules(self.TC),
            max_cq_size=3,
            trace=trace,
        )
        assert (result.complete, result.depth) == (False, 2)
        assert len(trace.rounds) == 3
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "rounds": 2,
        }

    def test_rewrite_ucq_summarizes_the_merged_result(self):
        # E(u,u) is complete at once; E(u,v) stops at depth 3.  The two
        # runs append their rounds, and the summary is the merge's.
        trace = RunTrace()
        result = rewrite_ucq(
            UCQ([parse_query("E(u,v)"), parse_query("E(u,u)")], ()),
            parse_rules(self.TC),
            max_depth=3,
            trace=trace,
        )
        assert (result.complete, result.depth) == (False, 3)
        assert [r["round"] for r in trace.rounds] == [1, 2, 3, 1]
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "rounds": 3,
        }

    def test_answer_traces_only_the_main_rewriting(self):
        # Enumeration mode also rewrites the Boolean reading; its run
        # must not append rounds or overwrite the main run's summary.
        from repro.serving import answer

        trace = RunTrace()
        result = answer(
            parse_instance("E(a,b), E(b,c)"),
            parse_rules(self.TC),
            parse_query("E(x,y)", answers=("x", "y")),
            strategy="rewrite",
            max_rewrite_depth=3,
            trace=trace,
        )
        assert result.evidence["depth"] == 3
        assert [r["round"] for r in trace.rounds] == [1, 2, 3]
        assert trace.summary == {
            "type": "summary",
            "terminated": False,
            "rounds": 3,
        }


class TestWireReplyEnvelope:
    def test_timings_pack_to_a_fixed_size(self):
        status, value, timings = unpack_reply(
            pack_reply("ok", [1, 2], (0.25, 0.5, 0.125))
        )
        assert (status, value) == ("ok", [1, 2])
        assert timings == (0.25, 0.5, 0.125)
        assert len(pack_reply("ok", None, (0.0, 0.0, 0.0))[2]) == (
            REPLY_TIMINGS.size
        )

    def test_untimed_replies_tolerated(self):
        assert unpack_reply(pack_reply("error", "boom")) == (
            "error",
            "boom",
            None,
        )

    def test_worker_timings_aggregate_per_command(self):
        TRANSPORT_STATS.reset()
        TRANSPORT_STATS.record_worker_timings("derive", (0.1, 0.2, 0.3))
        TRANSPORT_STATS.record_worker_timings("derive", (0.1, 0.2, 0.3))
        timing = TRANSPORT_STATS.worker_timing("derive")
        assert timing["replies"] == 2
        assert timing["decode_s"] == pytest.approx(0.2)
        totals = TRANSPORT_STATS.worker_totals()
        assert totals["execute_s"] == pytest.approx(0.4)
        assert TRANSPORT_STATS.snapshot()["worker_seconds"]["derive"][
            "encode_s"
        ] == pytest.approx(0.6)


class TestCli:
    def test_chase_trace_and_stats_flags(self, tmp_path, capsys):
        from repro.cli import main

        rules_path = tmp_path / "rules.dlg"
        rules_path.write_text("E(x,y) -> exists z. E(y,z)\n")
        trace_path = tmp_path / "run.jsonl"
        status = main(
            [
                "chase",
                str(rules_path),
                "--instance",
                "E(a,b)",
                "--levels",
                "3",
                "--trace",
                str(trace_path),
                "--stats",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "trace: 3 round records" in out
        assert "telemetry (run deltas)" in out
        back = RunTrace.from_jsonl(trace_path)
        assert len(back.rounds) == 3

    def test_list_engines_documents_transport_telemetry(self, capsys):
        from repro.cli import main

        assert main(["chase", "--list-engines"]) == 0
        out = capsys.readouterr().out
        assert "telemetry=transport" in out

    def test_analyze_json_embeds_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        rules_path = tmp_path / "rules.dlg"
        rules_path.write_text("E(x,y) -> E(y,x)\n")
        assert main(["analyze", str(rules_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["telemetry"]["schema_version"] == TRACE_SCHEMA_VERSION
        assert "matcher" in report["telemetry"]["registry"]
