# Convenience targets for the PAE reproduction.

.PHONY: install test chaos chaos-env dirty serve-chaos bench-digest bench bench-fast no-legacy-bench one-fanout no-private-scipy one-prep-path one-estep one-batch-path verify examples clean

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

# The four retired bench harnesses, their artifacts and Make targets
# must not come back: `python3 -m bench` is the one benchmark. Checks
# every tracked file except the top-level Markdown logs and plans, which
# keep the history, then README.md and EXPERIMENTS.md. Passes only when
# `git grep` finds nothing (exit 1); a match or a git error fails.
LEGACY_BENCH_RE = repro\.perf\.bench|BENCH_(pipeline|runner|scale|serve)|bench-(pipeline|runner|scale|serve)
no-legacy-bench:
	@git grep -nE "$(LEGACY_BENCH_RE)" -- . ':(exclude,top,glob)*.md'; test $$? -eq 1
	@git grep -nE "$(LEGACY_BENCH_RE)" -- README.md EXPERIMENTS.md; test $$? -eq 1

# ShardWorkerPool is the one process fan-out: no module under src other
# than runtime/pool.py may import concurrent.futures or multiprocessing.
# Passes only when `git grep` finds nothing (exit 1); a match or a git
# error fails.
FANOUT_RE = ^\s*(from|import) (concurrent\.futures|multiprocessing)
one-fanout:
	@git grep -nE "$(FANOUT_RE)" -- src ':(exclude)src/repro/runtime/pool.py'; test $$? -eq 1

# scipy's public API is the only one src may use: no import of a
# private (underscore) scipy module or name. Passes only when `git grep`
# finds nothing (exit 1); a match or a git error fails.
PRIVATE_SCIPY_RE = (from|import) scipy[a-z_.]*\._|from scipy[a-z_.]* import _
no-private-scipy:
	@git grep -nE "$(PRIVATE_SCIPY_RE)" -- src; test $$? -eq 1

# Shard prep has one path: the ingest gate always runs, prep artifacts
# live only in the on-disk prep cache, and the deleted gate bypass,
# memory tier, breaker switch and stage-retry option stay deleted.
# Passes only when `git grep` finds nothing (exit 1); a match or a git
# error fails.
ONE_PREP_PATH_RE = MemoryPrepCache|memory_prep_cache|ingest\.enabled|enable_circuit_breaker|stage_retries
one-prep-path:
	@git grep -nE "$(ONE_PREP_PATH_RE)" -- src; test $$? -eq 1

# The CRF has one forward–backward: the trainer's PackedEstep also
# scores span confidences, and the deleted padded log-space E-step
# family stays deleted, as do the dead SeedEntry type and the
# never-pulled MemoryGovernor.throttle_batch lever. Passes only when
# `git grep` finds nothing (exit 1); a match or a git error fails.
ONE_ESTEP_RE = def forward_backward|ForwardBackward|pairwise_expected_counts|_logsumexp|SeedEntry|throttle_batch
one-estep:
	@git grep -nE "$(ONE_ESTEP_RE)" -- src; test $$? -eq 1

# The serve batcher has one batching path: a batch is whatever
# same-bundle jobs are queued when the worker becomes free. The deleted
# batch linger (a timed wait for batch-mates) stays deleted. Passes only
# when `git grep` finds nothing (exit 1); a match or a git error fails.
ONE_BATCH_PATH_RE = max_wait_seconds|linger
one-batch-path:
	@git grep -nE "$(ONE_BATCH_PATH_RE)" -- src/repro/serve; test $$? -eq 1

# Tier-1 suite (which holds the shard-layout bit-identity matrix and
# the published-numbers drift check) plus the serve chaos acceptance,
# the environment-fault acceptance, the benchmark's smoke tests, the
# full-size paper_warm digest, the retired-harness guard, the
# one-fan-out guard, the private-scipy guard, the one-prep-path guard,
# the one-E-step guard and the one-batch-path guard: the quick
# pre-merge gate.
verify:
	PYTHONPATH=src pytest tests/ -x -q
	$(MAKE) serve-chaos
	$(MAKE) chaos-env
	PYTHONPATH=src python -m pytest bench/tests -q
	$(MAKE) bench-digest
	$(MAKE) no-legacy-bench
	$(MAKE) one-fanout
	$(MAKE) no-private-scipy
	$(MAKE) one-prep-path
	$(MAKE) one-estep
	$(MAKE) one-batch-path

examples:
	python examples/quickstart.py
	python examples/multilingual_catalog.py
	python examples/specialized_models.py
	python examples/ablation_study.py
	python examples/error_analysis.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
