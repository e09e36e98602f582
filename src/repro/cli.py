"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``chase``      run the oblivious chase on a rule file + instance string
``answer``     serve a certain-answer request (goal-directed; JSON out)
``rewrite``    UCQ-rewrite a query against a rule file
``classify``   print rule-class membership and termination certificates
``property-p`` run the Theorem 1 verifier
``analyze``    the full analysis battery (one table row per rule set)

Rule files use the DSL of :mod:`repro.rules.parser`, one rule per line.

Observability
-------------
``repro chase`` can emit the unified telemetry of :mod:`repro.obs`::

    repro chase rules.dlg --instance 'E(a,b)' --engine persistent \
        --trace /tmp/run.jsonl --stats

``--trace PATH`` writes one JSON line per round (disjoint phase timers,
trigger/atom counts, round plan, worker routing weights, transport byte
and worker decode/execute/encode deltas) plus a run header and summary;
render it later with ``python tools/trace_summary.py PATH``.  ``--stats``
prints the per-round phase table and the run's registry counter deltas
(matcher / instantiation / transport groups) to stdout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from contextlib import contextmanager

from repro.analysis.report import analyze
from repro.chase.oblivious import oblivious_chase
from repro.engine.config import (
    EngineConfig,
    available_engines,
    registered_engines,
    resolve_engine,
)
from repro.core.theorem import check_property_p
from repro.errors import ReproError
from repro.io.text import format_instance, format_table
from repro.logic.instances import Instance
from repro.logic.terms import Constant
from repro.obs import TRACE_SCHEMA_VERSION, RunTrace, default_registry
from repro.rewriting.rewriter import rewrite
from repro.rules.acyclicity import chase_terminates_certificate
from repro.rules.classes import classify
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.serving import STRATEGIES, answer


def _load_rules(path: str):
    text = pathlib.Path(path).read_text()
    return parse_rules(text, name=pathlib.Path(path).stem)


def _load_instance(text: str) -> Instance:
    return parse_instance(text) if text else Instance()


@contextmanager
def _input_errors(args):
    """Exit with ``repro <command>: <message>`` on input the command cannot
    read or parse; errors of the run itself pass through."""
    try:
        yield
    except (OSError, ReproError) as exc:
        sys.exit(f"repro {args.command}: {exc}")


def _engine(args) -> EngineConfig:
    """The ``--engine`` preset with ``--workers`` applied."""
    engine = resolve_engine(args.engine)
    return engine if args.workers is None else engine.with_workers(args.workers)


def _format_engine_listing() -> str:
    """One line per registered engine, generated from the registry."""
    lines = []
    for config in registered_engines():
        knobs = f"mode={config.mode}"
        if config.is_parallel:
            knobs += f", workers={config.workers}"
        if config.uses_pool:
            knobs += ", telemetry=transport"
        lines.append(f"  {config.name:<12} [{knobs}] {config.description}")
    lines.append(
        "  (telemetry=transport: rounds cross the worker-pool wire, so "
        "--trace/--stats\n   additionally report per-command byte counters "
        "and worker decode/execute/\n   encode timings; the other engines "
        "run in-process and emit only the\n   matcher/instantiation groups "
        "and phase timers)"
    )
    return "\n".join(lines)


def _flatten_counters(snapshot: dict, prefix: str = "") -> list[tuple]:
    """Nested counter snapshot -> sorted ``(dotted.name, value)`` rows."""
    rows: list[tuple] = []
    for key in sorted(snapshot):
        value = snapshot[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_counters(value, prefix=name + "."))
        else:
            if isinstance(value, float):
                value = f"{value:.6f}"
            rows.append((name, value))
    return rows


def cmd_chase(args) -> int:
    if args.list_engines:
        print("registered chase engines:")
        print(_format_engine_listing())
        return 0
    if args.rules is None:
        sys.exit("repro chase: a rule file is required (or --list-engines)")
    with _input_errors(args):
        rules = _load_rules(args.rules)
        instance = _load_instance(args.instance)
        engine = _engine(args)
    trace = RunTrace() if (args.trace or args.stats) else None
    result = oblivious_chase(
        instance, rules, max_levels=args.levels, max_atoms=args.max_atoms,
        engine=engine, trace=trace,
    )
    stats = result.statistics()
    print(
        f"levels={result.levels_completed} terminated={result.terminated} "
        f"atoms={stats['atoms']} terms={stats['terms']}"
    )
    if args.show:
        print(format_instance(result.instance, limit=args.show))
    if args.trace:
        path = trace.to_jsonl(args.trace)
        print(f"trace: {len(trace.rounds)} round records -> {path}")
    if args.stats:
        print(trace.summary_table())
        rows = [
            (name, value)
            for name, value in _flatten_counters(
                result.telemetry["registry"]
            )
            if value not in (0, "0.000000")
        ]
        print(
            format_table(
                ["counter", "delta"], rows, title="telemetry (run deltas)"
            )
        )
    return 0


def cmd_answer(args) -> int:
    answers = tuple(args.answers.split(",")) if args.answers else ()
    bindings = (
        tuple(Constant(name) for name in args.bindings.split(","))
        if args.bindings
        else ()
    )
    with _input_errors(args):
        rules = _load_rules(args.rules)
        instance = _load_instance(args.instance)
        query = parse_query(args.query, answers=answers)
        engine = _engine(args)
    trace = RunTrace() if args.trace else None
    result = answer(
        instance,
        rules,
        query,
        bindings,
        strategy=args.strategy,
        engine=engine,
        max_levels=args.levels,
        max_atoms=args.max_atoms,
        trace=trace,
    )
    payload = {
        "entailed": result.entailed,
        "verdict": result.verdict,
        "evidence": result.evidence,
        "strategy": result.strategy,
        "provenance": result.provenance,
        "telemetry": result.telemetry,
    }
    if result.tuples is not None:
        payload["tuples"] = sorted(
            [str(t) for t in tup] for tup in result.tuples
        )
    print(json.dumps(payload, default=str, indent=2))
    if args.trace:
        path = trace.to_jsonl(args.trace)
        print(
            f"trace: {len(trace.rounds)} round records -> {path}",
            file=sys.stderr,
        )
    if args.stats:
        rows = [
            (name, value)
            for name, value in _flatten_counters(
                result.telemetry["registry"]
            )
            if value not in (0, "0.000000")
        ]
        print(
            format_table(
                ["counter", "delta"], rows, title="telemetry (request deltas)"
            ),
            file=sys.stderr,
        )
    return 0 if result.entailed else 1


def cmd_rewrite(args) -> int:
    answers = tuple(args.answers.split(",")) if args.answers else ()
    with _input_errors(args):
        rules = _load_rules(args.rules)
        query = parse_query(args.query, answers=answers)
    result = rewrite(query, rules, max_depth=args.depth)
    if args.json:
        payload = {
            "complete": result.complete,
            "depth": result.depth,
            "generated": result.generated,
            "disjuncts": [str(d) for d in result.ucq],
            "telemetry": result.telemetry,
        }
        print(json.dumps(payload, default=str, indent=2))
        return 0 if result.complete else 1
    print(
        f"complete={result.complete} depth={result.depth} "
        f"disjuncts={len(result.ucq)}"
    )
    for disjunct in result.ucq:
        print(f"  {disjunct}")
    return 0 if result.complete else 1


def cmd_classify(args) -> int:
    with _input_errors(args):
        rules = _load_rules(args.rules)
    report = classify(rules)
    report["termination_certificate"] = chase_terminates_certificate(rules)
    rows = sorted(report.items())
    print(format_table(["property", "value"], rows, title=rules.name))
    return 0


def cmd_property_p(args) -> int:
    with _input_errors(args):
        rules = _load_rules(args.rules)
        instance = _load_instance(args.instance)
    report = check_property_p(
        rules, instance, max_levels=args.levels, max_atoms=args.max_atoms
    )
    print(f"tournament sizes : {report.tournament_sizes}")
    print(f"loop level       : {report.loop_level}")
    print(f"terminated       : {report.terminated}")
    print(f"consistent with (p): {report.consistent_with_property_p}")
    return 0 if report.consistent_with_property_p else 1


def cmd_analyze(args) -> int:
    with _input_errors(args):
        rules = _load_rules(args.rules)
        instance = _load_instance(args.instance)
    if args.json:
        # Scope the registry around the battery so the JSON report also
        # carries the matcher/instantiation (and, on persistent engines,
        # transport) work the analysis cost.
        with default_registry().collect() as scope:
            report = analyze(rules, instance, max_levels=args.levels)
        report["telemetry"] = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "registry": scope.delta,
        }
        print(json.dumps(report, default=str, indent=2))
    else:
        report = analyze(rules, instance, max_levels=args.levels)
        rows = sorted(report.items())
        print(format_table(["metric", "value"], rows, title=rules.name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chase_cmd = sub.add_parser(
        "chase", help="run the oblivious chase",
        description="Run the oblivious chase.\n\nengines (from the "
                    "registry in repro.engine.config):\n"
                    + _format_engine_listing(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    chase_cmd.add_argument("rules", nargs="?", default=None,
                           help="path to a rule file")
    chase_cmd.add_argument("--instance", default="", help="e.g. 'E(a,b)'")
    chase_cmd.add_argument("--levels", type=int, default=4)
    chase_cmd.add_argument("--max-atoms", type=int, default=100_000)
    chase_cmd.add_argument("--show", type=int, default=0,
                           help="print up to N atoms of the result")
    chase_cmd.add_argument("--engine", default="delta",
                           choices=available_engines(),
                           help="chase execution engine (default: "
                                "%(default)s; see --list-engines)")
    chase_cmd.add_argument("--workers", type=int, default=None,
                           help="worker-pool size for --engine "
                                "parallel/persistent (default: the "
                                "engine's preset)")
    chase_cmd.add_argument("--trace", default=None, metavar="PATH",
                           help="write a per-round telemetry trace as JSON "
                                "Lines to PATH (one record per round: phase "
                                "timers, counts, byte deltas; e.g. --trace "
                                "/tmp/run.jsonl, then render it with "
                                "tools/trace_summary.py)")
    chase_cmd.add_argument("--stats", action="store_true",
                           help="print the per-round phase table and the "
                                "run's telemetry counter deltas")
    chase_cmd.add_argument("--list-engines", action="store_true",
                           help="list the registered engines (name, mode, "
                                "default workers, transport-telemetry "
                                "support, description) and exit")
    chase_cmd.set_defaults(handler=cmd_chase)

    answer_cmd = sub.add_parser(
        "answer",
        help="serve a certain-answer request (JSON output)",
        description="Serve `<R, I> |= Q(t)` through the goal-directed "
                    "query-serving front door (repro.serving.answer). "
                    "Prints a JSON report: entailed, verdict "
                    "(exact/sound), evidence, strategy provenance and "
                    "telemetry; exit status 0 when entailed, 1 "
                    "otherwise.",
    )
    answer_cmd.add_argument("rules", help="path to a rule file")
    answer_cmd.add_argument("query", help="e.g. 'E(x,x)'")
    answer_cmd.add_argument("--instance", default="", help="e.g. 'E(a,b)'")
    answer_cmd.add_argument("--answers", default="",
                            help="comma-separated answer variables")
    answer_cmd.add_argument("--bindings", default="",
                            help="comma-separated constants grounding the "
                                 "answer variables (decision mode); empty "
                                 "with --answers enumerates the certain "
                                 "answer tuples")
    answer_cmd.add_argument("--strategy", default="auto",
                            choices=STRATEGIES,
                            help="serving strategy (default: %(default)s)")
    answer_cmd.add_argument("--engine", default="delta",
                            choices=available_engines(),
                            help="chase execution engine (default: "
                                 "%(default)s)")
    answer_cmd.add_argument("--workers", type=int, default=None,
                            help="worker-pool size for --engine "
                                 "parallel/persistent")
    answer_cmd.add_argument("--levels", type=int, default=6,
                            help="chase level budget (default: %(default)s)")
    answer_cmd.add_argument("--max-atoms", type=int, default=100_000)
    answer_cmd.add_argument("--trace", default=None, metavar="PATH",
                            help="write the strategy's per-round telemetry "
                                 "trace as JSON Lines to PATH")
    answer_cmd.add_argument("--stats", action="store_true",
                            help="print the request's telemetry counter "
                                 "deltas to stderr")
    answer_cmd.set_defaults(handler=cmd_answer)

    rewrite_cmd = sub.add_parser("rewrite", help="UCQ-rewrite a query")
    rewrite_cmd.add_argument("rules")
    rewrite_cmd.add_argument("query", help="e.g. 'E(x,x)'")
    rewrite_cmd.add_argument("--answers", default="",
                             help="comma-separated answer variables")
    rewrite_cmd.add_argument("--depth", type=int, default=10)
    rewrite_cmd.add_argument("--json", action="store_true",
                             help="emit a machine-readable JSON report "
                                  "(complete/depth/generated/disjuncts/"
                                  "telemetry) like `repro analyze --json`")
    rewrite_cmd.set_defaults(handler=cmd_rewrite)

    classify_cmd = sub.add_parser("classify", help="rule-class membership")
    classify_cmd.add_argument("rules")
    classify_cmd.set_defaults(handler=cmd_classify)

    property_cmd = sub.add_parser(
        "property-p", help="run the Theorem 1 verifier"
    )
    property_cmd.add_argument("rules")
    property_cmd.add_argument("--instance", default="")
    property_cmd.add_argument("--levels", type=int, default=4)
    property_cmd.add_argument("--max-atoms", type=int, default=30_000)
    property_cmd.set_defaults(handler=cmd_property_p)

    analyze_cmd = sub.add_parser("analyze", help="full analysis battery")
    analyze_cmd.add_argument("rules")
    analyze_cmd.add_argument("--instance", default="")
    analyze_cmd.add_argument("--levels", type=int, default=4)
    analyze_cmd.add_argument("--json", action="store_true")
    analyze_cmd.set_defaults(handler=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
