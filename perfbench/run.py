"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload restricted_tc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced passes and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, plus ``obs.trace_overhead`` (traced over untraced
``run_s``, minus one).  The workloads are in ``workloads.py``; the metric
catalogue is in ``README.md``.

Output: a table of every metric with its unit, a ``provenance`` JSON line
(host, interpreter, seed, engine configuration, commit, host-speed
probes, sample counts, first errors), and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

#: End-to-end metrics and their units, reported by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "atoms_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "exact_share": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Passes of each kind a run makes even when ``--seconds`` is already spent.
MIN_PASSES = 2
#: The host-speed probe: a fixed pure-Python integer loop, timed
#: ``PROBE_REPEATS`` times before a timed operation whenever the last
#: probe is ``PROBE_INTERVAL_S`` old.  Every operation's time is rescaled
#: by ``REFERENCE_PROBE_S`` over the mean of the probes just before and
#: just after it, i.e. to a host on which the loop takes 8 ms, so that the
#: speed of a shared host, which can swing several-fold within minutes,
#: does not read as a regression.
PROBE_LOOPS = 200_000
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.25
REFERENCE_PROBE_S = 0.008

perf = time.perf_counter


def probe() -> float:
    """The median of ``PROBE_REPEATS`` timings of the host-speed loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        started = perf()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        times.append(perf() - started)
    return statistics.median(times)


class HostClock:
    """Host-speed probes taken between timed operations."""

    def __init__(self):
        self.ended: list[float] = []  # when each probe finished
        self.probe_s: list[float] = []

    def mark(self) -> None:
        """Probe, unless the last probe is younger than ``PROBE_INTERVAL_S``."""
        if not self.ended or perf() - self.ended[-1] >= PROBE_INTERVAL_S:
            self.probe_s.append(probe())
            self.ended.append(perf())

    def scale(self, started: float, elapsed: float) -> float:
        """The reference-speed factor of an operation timed from ``started``."""
        before = bisect.bisect_right(self.ended, started) - 1
        after = bisect.bisect_left(self.ended, started + elapsed)
        near = [self.probe_s[k] for k in (before, after) if 0 <= k < len(self.ended)]
        return REFERENCE_PROBE_S / statistics.fmean(near)

    def rescale(self, passes, units) -> None:
        """Bring every operation's time, and the per-layer seconds, to
        reference speed (in place)."""
        for one_pass in passes:
            unscaled = one_pass.wall_s
            for op in one_pass.ops:
                op.latency_s *= self.scale(op.started, op.latency_s)
            if one_pass.layers and unscaled:
                factor = one_pass.wall_s / unscaled
                for name, unit in units.items():
                    if unit == "s":
                        one_pass.layers[name] *= factor


def measure(workload, seed: int, seconds: float, traced: bool, clock: HostClock):
    """Set up ``SETUP_REPEATS`` times, warm up, then run passes for ``seconds``.

    One untimed warm-up pass lets lazy imports and allocator growth finish
    before timing; its operations are still checked.  In a traced run
    untraced and traced passes alternate, so both see the same machine
    state.  Returns (set-up times at reference speed, warm-up pass,
    untraced passes, traced passes); the passes' times are still raw.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock.mark()
        started = perf()
        inputs = workload.setup(seed)
        setups.append((started, perf() - started))
    warmup = workload.run(inputs, False)
    plain, with_trace = [], []
    deadline = perf() + seconds
    while True:
        use_trace = traced and len(with_trace) < len(plain)
        gc.collect()
        one_pass = workload.run(inputs, use_trace, clock.mark)
        (with_trace if use_trace else plain).append(one_pass)
        enough = len(plain) >= MIN_PASSES and (
            not traced or len(with_trace) >= MIN_PASSES
        )
        if enough and perf() >= deadline:
            clock.mark()
            setup_times = [
                elapsed * clock.scale(started, elapsed) for started, elapsed in setups
            ]
            return setup_times, warmup, plain, with_trace


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def end_to_end(setup_times, passes) -> dict[str, float]:
    """The end-to-end metrics of the untraced passes.

    ``run_s`` and the rates are medians over passes; p50 is the median over
    every operation of the successful passes.  p90 is taken over every
    operation when at least ten lie beyond it (100 operations); with fewer,
    it is the median over passes of each pass's p90, which for the
    one-call passes is the median call.
    """
    good = [p for p in passes if p.ok]
    ok_ops = [op for p in passes for op in p.ops if op.ok]
    latencies = [op.latency_s for p in good for op in p.ops]
    attempted = sum(len(p.ops) for p in passes)
    return {
        "setup_s": median(setup_times),
        "run_s": median([p.wall_s for p in good]),
        "atoms_per_s": median([p.atoms / p.wall_s for p in good]),
        "requests_per_s": median([len(p.ops) / p.wall_s for p in good]),
        "request_p50_ms": 1e3 * median(latencies),
        "request_p90_ms": 1e3 * (
            p90(latencies)
            if len(latencies) >= 100
            else median([p90([op.latency_s for op in p.ops]) for p in good])
        ),
        "exact_share": sum(op.exact for op in ok_ops) / len(ok_ops) if ok_ops else 0.0,
        "success_rate": len(ok_ops) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(plain, with_trace, names) -> dict[str, float]:
    """Medians over the traced passes, plus the tracing overhead."""
    good = [p for p in with_trace if p.ok]
    metrics = {
        name: median([p.layers[name] for p in good])
        for name in names
        if name != "obs.trace_overhead"
    }
    untraced = median([p.wall_s for p in plain if p.ok])
    traced = median([p.wall_s for p in good])
    metrics["obs.trace_overhead"] = traced / untraced - 1.0 if untraced else 0.0
    return metrics


def git_commit(root: pathlib.Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root, workload, seed, seconds, traced, setup_times, clock, passes):
    gil = getattr(sys, "_is_gil_enabled", None)
    errors = [op.error for p in passes for op in p.ops if not op.ok]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "python": {
            "version": platform.python_version(),
            "implementation": platform.python_implementation(),
            "build": list(platform.python_build()),
            "compiler": platform.python_compiler(),
            "gil_enabled": gil() if gil is not None else "not reported",
        },
        "engine": dataclasses.asdict(workload.engine),
        "commit": git_commit(root),
        "host_speed": {
            "reference_probe_s": REFERENCE_PROBE_S,
            "probes": len(clock.probe_s),
            "probe_median_s": median(clock.probe_s),
            "probe_min_s": min(clock.probe_s),
            "probe_max_s": max(clock.probe_s),
        },
        "samples": {
            "setups": len(setup_times),
            "warmup_passes": 1,
            "timed_passes": len(passes) - 1,
            "operations": sum(len(p.ops) for p in passes),
        },
        "errors": errors[:5],
    }


def reap_children() -> int:
    """Stop any child process still alive; returns how many there were."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(10)
    return len(children)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library source at {src / 'repro'}; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    from workloads import LAYER_METRICS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    traced = bool(args.trace)
    clock = HostClock()
    setup_times, warmup, plain, with_trace = measure(
        workload, args.seed, args.seconds, traced, clock
    )
    leaked = reap_children()

    passes = [warmup] + plain + with_trace
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if not op.ok) + leaked
    unscaled_run_s = median([p.wall_s for p in plain if p.ok])
    clock.rescale(plain + with_trace, LAYER_METRICS)
    if traced:
        units = LAYER_METRICS
        values = per_layer(plain, with_trace, units)
    else:
        units = END_TO_END
        values = end_to_end(setup_times, plain)

    for name, value in values.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    info = provenance(root, workload, args.seed, args.seconds, traced,
                      setup_times, clock, passes)
    info["host_speed"]["unscaled_run_s"] = unscaled_run_s
    if leaked:
        info["errors"].append(f"{leaked} child processes left at exit")
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
