# Convenience entry points; all targets assume the repo root as cwd.
# CI (.github/workflows/ci.yml) runs exactly these targets, so a green
# `make lint test examples perf-smoke paper-claims` locally is a green
# pipeline.

PY ?= python

.PHONY: test lint checks examples perf-smoke paper-claims bench

# Tier-1 verification: the full unit/integration suite.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Static checks: ruff when installed (the CI path, via
# requirements-dev.txt), a stdlib AST fallback (syntax + unused imports)
# in hermetic environments without it — then the project-native
# repro.checks passes (determinism, transport-boundary, lifecycle,
# hot-path, stats-registry), all from the one lint.py entry point.
lint:
	$(PY) tools/lint.py src tests benchmarks tools examples

# Run every script under examples/ end to end (about 6 s in all); the
# first one that exits non-zero fails the target.  Their output is not
# checked, only that they run.
examples:
	@set -e; for script in examples/*.py; do \
	    echo "$$script"; \
	    PYTHONPATH=src $(PY) $$script > /dev/null; \
	done

# The repro.checks driver alone (what the dedicated CI step runs, with
# a JSON report artifact).
checks:
	PYTHONPATH=src $(PY) -m repro.checks

# Reproducible engine-performance smoke: EXP-8 (chase/homomorphism/rewriting
# throughput), EXP-12 (incremental vs naive trigger enumeration), EXP-13
# (semi-naive vs naive Datalog closure, inline and on the worker pool),
# EXP-14 (persistent delta-fed workers: wall-clock and pipe payload),
# EXP-15 (the restricted chase's pruned enumeration, inline and on the
# worker pool, checked against the path's transitive closure), EXP-16
# (the same for mixed restricted rounds) and EXP-17 (goal-directed answer()
# serving vs full saturation), with GC disabled during timing so numbers
# are comparable across runs.  Tables land in benchmarks/results/.  The
# budget check then gates the freshly written BENCH_exp14.json pipe
# bytes against benchmarks/transport_budget.json — transport bytes are
# deterministic, so exceeding a budget is a real protocol regression.
# The telemetry check then asserts every BENCH_*.json embeds a
# schema-versioned metrics-registry snapshot (benchmarks/conftest.emit_json
# stamps it) and that the perf-smoke artifact set is complete.
perf-smoke:
	PYTHONPATH=src $(PY) -m pytest \
	    benchmarks/bench_exp8_performance.py \
	    benchmarks/bench_exp12_incremental.py \
	    benchmarks/bench_exp13_parallel.py \
	    benchmarks/bench_exp14_persistent.py \
	    benchmarks/bench_exp15_restricted.py \
	    benchmarks/bench_exp16_mixed.py \
	    benchmarks/bench_exp17_serving.py \
	    -q --benchmark-disable-gc
	$(PY) tools/check_transport_budget.py
	$(PY) tools/check_bench_telemetry.py

# The paper-claim experiments: EXP-1..7 (Example 1, property (p) of
# Theorem 1, preservation by the surgeries, regality, valleys, Ramsey,
# extensions) and EXP-9..11 (design ablations, rule-set families,
# treewidth).  Each check asserts its claim; tables land in
# benchmarks/results/.
paper-claims:
	PYTHONPATH=src $(PY) -m pytest \
	    benchmarks/bench_exp1_example1.py \
	    benchmarks/bench_exp2_property_p.py \
	    benchmarks/bench_exp3_surgeries.py \
	    benchmarks/bench_exp4_regality.py \
	    benchmarks/bench_exp5_valley.py \
	    benchmarks/bench_exp6_ramsey.py \
	    benchmarks/bench_exp7_extensions.py \
	    benchmarks/bench_exp9_ablations.py \
	    benchmarks/bench_exp10_families.py \
	    benchmarks/bench_exp11_treewidth.py \
	    -q --benchmark-disable-gc

# The full experiment battery (slow).
bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks -q --benchmark-disable-gc
