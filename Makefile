# Convenience targets for the PAE reproduction.

.PHONY: install test chaos chaos-env dirty serve-chaos bench-digest bench bench-fast bench-runner bench-pipeline bench-serve bench-scale verify examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Fault-injection suite: kill-and-resume, deadlines, chaos recovery.
# PYTHONPATH makes the target work from a bare checkout too.
chaos:
	PYTHONPATH=src pytest tests/test_chaos.py tests/test_runtime_checkpoint.py -q

# Dirty-input suite: ingest-gate fuzzing plus the seeded 20%-dirt
# end-to-end bootstrap runs (same files `make test` already includes).
dirty:
	PYTHONPATH=src pytest tests/test_ingest_fuzz.py tests/test_dirt_chaos.py \
		tests/test_ingest_gate.py tests/test_corpus_dirt.py -q

# Serving chaos acceptance: a seeded fault plan (worker death, corrupt
# payloads, slow models, dirty HTML) against a live daemon — every
# request must get a structured response and the breaker must walk the
# degradation ladder down and back up.
serve-chaos:
	PYTHONPATH=src pytest tests/test_serve_chaos.py -q

# Environment-fault acceptance: SIGKILLed shard workers (detected,
# respawned, requeued — output bit-identical), poisoned-shard
# quarantine, ENOSPC during prep-cache/checkpoint writes (counted
# degradation, never a crash), dueling runs on one cache directory,
# and memory-pressure throttling. Seeded and sized for a 1-CPU box.
chaos-env:
	PYTHONPATH=src pytest tests/test_chaos_env.py tests/test_runtime_pool.py \
		tests/test_runtime_storage.py -q

# Full-size digest gate: the paper loop (paper_warm, 5 iterations at
# 300 pages) must reproduce the triples digest pinned in
# bench/reference.json. `bench run` exits non-zero on a mismatch; this
# also fails when the digest was not checked against the pin.
bench-digest:
	@out=$$(python3 -m bench run --workload paper_warm --seconds 1) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep "triples digest"; \
	echo "$$out" | grep -q "^paper_warm triples digest [0-9a-f]* (checked)$$" \
		&& ! echo "$$out" | grep -q "(not checked)"

bench:
	pytest benchmarks/ --benchmark-only

# Quick shape check at reduced scale (~3-4 min).
bench-fast:
	REPRO_BENCH_PRODUCTS=120 pytest benchmarks/ --benchmark-only

# Serial vs parallel sweep wall-clock -> BENCH_runner.json.
bench-runner:
	python benchmarks/bench_runner.py

# Per-stage uncached-vs-optimized pipeline timings -> BENCH_pipeline.json.
# The committed baseline was measured at this exact config on the commit
# before the bucketed trainer landed; vs_previous tracks the true
# before/after (per-stage speedups included).
bench-pipeline:
	PYTHONPATH=src python -m repro.perf.bench --out BENCH_pipeline.json \
		--compare benchmarks/baselines/pre_trainer_pipeline.json

# Serve-path bench over real HTTP: p50/p99 latency + throughput at 8
# concurrent clients, plus shed/quarantine/breaker counters under an
# overload burst and a seeded chaos phase -> BENCH_serve.json.
bench-serve:
	PYTHONPATH=src python -m repro.perf.bench_serve --out BENCH_serve.json

# Streamed-bootstrap scale bench: cold vs prep-cache-warm pages/sec,
# peak RSS, shard counts and per-stage shares at 1k/10k/100k pages ->
# BENCH_scale.json (each scale in a fresh child process so VmHWM is
# per-scale). Add --profile to fold cProfile tops into the record.
bench-scale:
	PYTHONPATH=src python -m repro.perf.bench_scale --out BENCH_scale.json

# Tier-1 suite plus the serve chaos acceptance, the environment-fault
# acceptance, a one-pass small-corpus bench smoke, the shard-layout
# bit-identity gate (multi-shard runs with the prep cache cold, warm
# and disabled against the one-shard `run`), the benchmark's smoke
# tests and the full-size paper_warm digest: the quick pre-merge gate.
verify:
	PYTHONPATH=src pytest tests/ -x -q
	$(MAKE) serve-chaos
	$(MAKE) chaos-env
	PYTHONPATH=src python -m repro.perf.bench --out /tmp/BENCH_smoke.json \
		--products 40 --iterations 2 --repeats 1
	PYTHONPATH=src python -m repro.perf.bench_scale --smoke
	PYTHONPATH=src python -m pytest bench/tests -q
	$(MAKE) bench-digest

examples:
	python examples/quickstart.py
	python examples/multilingual_catalog.py
	python examples/specialized_models.py
	python examples/ablation_study.py
	python examples/error_analysis.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
