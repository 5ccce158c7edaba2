"""The four workloads: inputs from a seed, set-up, measurement, metrics.

Batch workloads drive ``PAEPipeline.run_streamed`` over a JSONL dump,
one fresh child process per run (:mod:`bench.child`), repeating runs
until the measuring window is spent. Serve workloads drive a real
``start_server(ExtractionService(...))`` daemon in its own child
process over HTTP with an open-loop rate ladder (:mod:`bench.load`).

Set-up — input generation, prep-cache seeding, bundle training, the
reference answers and server start-up — is repeated (at least
:data:`SETUP_REPEATS` times and :data:`SETUP_MIN_S` seconds) and
reported as the median, so work moved into set-up shows in
``setup_s``.
"""

from __future__ import annotations

import json
import os
import pathlib
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

from .load import backlog_grows, nearest_rank, open_loop, tail_quantile
from .spec import REPO_ROOT, child_env
from .trace import by_process, load_spans, summarize

MIB = 1024 * 1024

#: Set-up runs at least this many times per invocation, and until it
#: has taken SETUP_MIN_S in all, so a cheap set-up still yields a
#: steady median; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

#: Runs (batch) a measuring window always contains, however short:
#: three, so the reported median shrugs off one run slowed by the box.
MIN_RUNS = 3

#: Serve latency limit on the tail percentile at each ladder rate.
LATENCY_LIMIT_S = 0.025

#: Seconds a child process may take before it is killed.
CHILD_TIMEOUT_S = 120

#: Page damage every dirty workload injects. ``megapage`` is left out:
#: 1.5 MB pages would dominate the dump and the request bodies without
#: exercising a layer the other kinds do not.
DAMAGE_KINDS = ("truncate", "unclosed_tags", "entity_garbage", "mojibake")

WORKLOADS: dict[str, dict] = {
    "paper_warm": {
        "kind": "batch",
        "category": "vacuum_cleaner",
        "pages": 300,
        "shard_size": 50,
        "dirt": 0.0,
        "config": {"iterations": 5},
        "warm": True,
    },
    "scale_cold": {
        "kind": "batch",
        "category": "vacuum_cleaner",
        "pages": 2000,
        "shard_size": 250,
        "dirt": 0.10,
        # Duplicate ids exercise the gate's cross-shard dedup replay.
        "dirt_kinds": DAMAGE_KINDS + ("duplicate_id",),
        "config": {
            "iterations": 2,
            "enable_semantic_cleaning": False,
            "max_labeled_sentences": 2000,
        },
        "warm": False,
    },
    "serve_text": {
        "kind": "serve",
        "category": "vacuum_cleaner",
        "bundle_products": 120,
        "requests": 200,
        "rates": [20, 40, 80, 160],
        "connections": 2,
        "html": False,
        "dirt": 0.0,
    },
    "serve_html": {
        "kind": "serve",
        "category": "vacuum_cleaner",
        "bundle_products": 120,
        "requests": 200,
        "rates": [20, 40, 80, 160],
        "connections": 2,
        "html": True,
        "dirt": 0.10,
        # Each request is gated alone, so a duplicate id is no damage.
        "dirt_kinds": DAMAGE_KINDS,
    },
}


def resolve(name: str, scale: float = 1.0) -> dict:
    """A workload's parameters with sizes multiplied by ``scale``.

    ``scale`` exists for the smoke test, which runs every workload
    through the same code at a few dozen pages.
    """
    params = dict(WORKLOADS[name], name=name, scale=scale)
    if params["kind"] == "batch":
        params["pages"] = max(60, round(params["pages"] * scale))
        params["shard_size"] = max(20, round(params["shard_size"] * scale))
    else:
        params["requests"] = max(20, round(params["requests"] * scale))
    return params


# -- child processes -----------------------------------------------------


def _kill_group(process: subprocess.Popen) -> None:
    """SIGKILL a child's whole process group (its shard workers too)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _run_child(mode: str, args: dict, directory: pathlib.Path) -> tuple[dict | None, str]:
    """Run one ``bench.child`` to completion; ``(record, error)``."""
    args_path = directory / f"{mode}-args.json"
    args_path.write_text(json.dumps(args))
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.child", mode, str(args_path)],
        cwd=REPO_ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(process)
        return None, f"child timed out after {CHILD_TIMEOUT_S}s"
    if process.returncode != 0:
        return None, stderr.strip()[-2000:] or f"exit code {process.returncode}"
    return json.loads(pathlib.Path(args["record"]).read_text()), ""


class ServerChild:
    """The serve daemon in its own process, stopped by a line on stdin."""

    def __init__(self, args: dict, directory: pathlib.Path):
        self.args = args
        stamp = time.time_ns()
        args_path = directory / f"serve-args-{stamp}.json"
        args_path.write_text(json.dumps(args))
        with open(directory / f"serve-stderr-{stamp}.txt", "w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "bench.child", "serve", str(args_path)],
                cwd=REPO_ROOT,
                env=child_env(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=CHILD_TIMEOUT_S):
                _kill_group(self.process)
                raise RuntimeError("serve child never became ready")
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            _kill_group(self.process)
            raise RuntimeError(f"serve child failed to start: {line!r}")
        return int(line.split()[1])

    def stop(self) -> dict:
        """Stop the daemon, wait for it, and return its record."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            _kill_group(self.process)
            raise RuntimeError("serve child did not stop cleanly") from None
        finally:
            self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"serve child exited {self.process.returncode}")
        return json.loads(pathlib.Path(self.args["record"]).read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            _kill_group(self.process)


# -- set-up ----------------------------------------------------------------


def _truth(dataset):
    from repro.evaluation import build_truth_sample

    return build_truth_sample(dataset)


def _dirty(pages, params: dict, seed: int):
    if not params["dirt"]:
        return list(pages)
    from repro.corpus import dirty_pages

    dirty, _ = dirty_pages(pages, params["dirt"], seed=seed, kinds=params["dirt_kinds"])
    return dirty


def setup_batch(params: dict, seed: int, directory: pathlib.Path) -> dict:
    """Write the workload's JSONL dump; for a warm workload, seed the
    prep cache under ``<checkpoint>/prep_cache`` with a 1-iteration run."""
    from repro.corpus import Marketplace

    directory.mkdir(parents=True)
    dataset = Marketplace(seed=seed).generate(params["category"], params["pages"])
    pages = _dirty(dataset.product_pages, params, seed)
    with open(directory / "pages.jsonl", "w", encoding="utf-8") as out:
        for page in pages:
            out.write(
                json.dumps(
                    {
                        "product_id": page.product_id,
                        "category": page.category,
                        "locale": page.locale,
                        "html": page.html,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    (directory / "querylog.json").write_text(
        json.dumps(dict(dataset.query_log.counts), ensure_ascii=False)
    )
    state = {"dir": directory, "truth": _truth(dataset), "checkpoint": None}
    if params["warm"]:
        from repro import PAEPipeline, PipelineConfig

        source = _source(params, directory)
        config = PipelineConfig(**dict(params["config"], seed=seed, iterations=1))
        checkpoint = directory / "checkpoint"
        PAEPipeline(config).run_streamed(
            source, source.query_log(), checkpoint_dir=str(checkpoint), resume=False
        )
        state["checkpoint"] = checkpoint
    return state


def _source(params: dict, directory: pathlib.Path):
    from repro.corpus.stream import JsonlPageSource

    return JsonlPageSource(
        directory / "pages.jsonl",
        shard_size=params["shard_size"],
        policy="repair",
        category=params["category"],
    )


def _request_body(page, product_id: str, html: bool) -> bytes:
    if html:
        payload = {"product_id": product_id, "html": page.html}
    else:
        from repro.html import extract_text_blocks, parse_html

        blocks = extract_text_blocks(parse_html(page.html), skip_tables=True)
        payload = {"product_id": product_id, "text": "\n".join(blocks)}
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def _answer(status: int, payload: dict) -> list:
    """What a response must reproduce: its status and triple list."""
    return [status, payload.get("triples")]


def setup_serve(params: dict, seed: int, directory: pathlib.Path) -> dict:
    """Train and publish a bundle, build held-out request bodies and
    their in-process reference answers, and start the daemon child."""
    from repro.config import ServeConfig
    from repro.corpus import Marketplace
    from repro.serve import ExtractionService, ModelRegistry, train_and_publish

    directory.mkdir(parents=True)
    registry_dir = directory / "registry"
    # The deployed model is the same on every seed (the default
    # bootstrap bundle); the seed picks the traffic, from a generator
    # stream that never reproduces the bundle's training pages.
    train_and_publish(registry_dir, params["category"], params["bundle_products"])
    rates = params["rates"]
    held_out = Marketplace(seed=("traffic", seed)).generate(
        params["category"], params["requests"] * len(rates)
    )
    pages = _dirty(held_out.product_pages, params, seed)
    registry = ModelRegistry(registry_dir)
    registry.activate_latest()
    # No batch linger for the sequential reference: batching never
    # changes an answer, only when it is computed.
    service = ExtractionService(registry, ServeConfig(port=0, batch_max_wait_seconds=0))
    traffic = {}
    try:
        for step, rate in enumerate(rates):
            step_pages = pages[step * params["requests"] : (step + 1) * params["requests"]]
            bodies = [
                _request_body(page, f"{page.product_id}~{rate}", params["html"])
                for page in step_pages
            ]
            reference = []
            for body in bodies:
                status, payload, _ = service.handle_extract(body)
                reference.append(_answer(status, payload))
            traffic[rate] = {
                "page_ids": [page.product_id for page in step_pages],
                "bodies": bodies,
                "reference": reference,
            }
    finally:
        service.close()
    state = {"dir": directory, "truth": _truth(held_out), "traffic": traffic}
    state["server"] = start_server_child(params, directory)
    return state


def start_server_child(params: dict, directory: pathlib.Path, trace_dir=None) -> ServerChild:
    args = {
        "registry": str(directory / "registry"),
        "record": str(directory / f"server-{time.time_ns()}.json"),
        "quarantine_path": (
            str(directory / "quarantine.jsonl") if params["html"] else None
        ),
    }
    if trace_dir is not None:
        args.update(trace_dir=str(trace_dir), run_id=f"serve-{time.time_ns()}")
    return ServerChild(args, directory)


def teardown(state: dict | None) -> None:
    if not state:
        return
    server = state.get("server")
    if server is not None:
        server.kill()
    shutil.rmtree(state["dir"], ignore_errors=True)


# -- measurement ---------------------------------------------------------


def measure_batch(
    params: dict, seed: int, state: dict, seconds: float, traced: bool
) -> list[dict]:
    """Fresh-child runs until the window is spent (at least MIN_RUNS).

    With ``traced`` the runs alternate untraced and traced, so one
    invocation yields both the layer spans and the tracing overhead.
    """
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(runs)
        run_traced = traced and index % 2 == 1
        run_dir = state["dir"] / f"run-{index}"
        run_dir.mkdir()
        args = {
            "record": str(run_dir / "record.json"),
            "pages": str(state["dir"] / "pages.jsonl"),
            "shard_size": params["shard_size"],
            "policy": "repair",
            "category": params["category"],
            "config": dict(params["config"], seed=seed),
        }
        if params["warm"]:
            args["checkpoint_dir"] = str(state["checkpoint"])
        else:
            args["cache_dir"] = str(run_dir / "prep-cache")
        if run_traced:
            args.update(trace_dir=str(run_dir / "spans"), run_id=f"run-{index}")
        child_started = time.perf_counter()
        record, error = _run_child("batch", args, run_dir)
        run = {
            "traced": run_traced,
            "elapsed_s": time.perf_counter() - child_started,
            "record": record,
            "error": error,
        }
        if record is not None and run_traced:
            run["spans"] = load_spans(run_dir / "spans")
            run["by_process"] = by_process(run["spans"])
        if record is not None and not params["warm"]:
            shutil.rmtree(run_dir / "prep-cache", ignore_errors=True)
        runs.append(run)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["elapsed_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
            return runs


def _check_answers(samples, reference: list) -> tuple[list, int]:
    """Decoded payloads of one step and the count of wrong answers."""
    payloads = []
    wrong = 0
    for sample in samples:
        payload = None
        if sample.error is None:
            try:
                payload = json.loads(sample.body)
            except ValueError:
                payload = None
        if payload is None or _answer(sample.status, payload) != reference[sample.index]:
            wrong += 1
        payloads.append(payload)
    return payloads, wrong


def run_ladder(params: dict, state: dict, server: ServerChild, rates=None) -> list[dict]:
    """One open-loop step per rate; every step sends all its requests."""
    steps = []
    for rate in rates or params["rates"]:
        traffic = state["traffic"][rate]
        samples = open_loop(
            "127.0.0.1", server.port, traffic["bodies"], rate, params["connections"]
        )
        payloads, wrong = _check_answers(samples, traffic["reference"])
        latencies = [sample.latency for sample in samples]
        quantile = tail_quantile(len(samples)) or 1.0
        tail = nearest_rank(latencies, quantile)
        step = {
            "rate": rate,
            "requests": len(traffic["bodies"]),
            "failed": wrong + (len(traffic["bodies"]) - len(samples)),
            "p50_s": statistics.median(latencies),
            "tail_quantile": quantile,
            "tail_s": tail,
            "late_p95_s": nearest_rank([s.late for s in samples], 0.95),
            "throughput_rps": len(samples)
            / (max(s.done for s in samples) - min(s.due for s in samples)),
            "backlog_grows": backlog_grows(latencies),
            "samples": samples,
            "payloads": payloads,
            "page_ids": traffic["page_ids"],
        }
        step["meets_limit"] = (
            step["tail_s"] <= LATENCY_LIMIT_S
            and step["failed"] == 0
            and not step["backlog_grows"]
        )
        steps.append(step)
    return steps


# -- metrics -----------------------------------------------------------------


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _precision(rows, truth) -> float:
    from repro.evaluation import precision
    from repro.types import Triple

    return precision((Triple(*row) for row in rows), truth).precision


def batch_metrics(runs: list[dict], state: dict) -> dict:
    plain = [
        run["record"] for run in runs if run["record"] is not None and not run["traced"]
    ]
    if not plain:
        return {}
    walls = [record["wall_s"] for record in plain]
    return {
        "pages_per_s": _median(record["pages"] / record["wall_s"] for record in plain),
        "lat_p50_ms": 1000 * _median(walls),
        "lat_p95_ms": 1000 * max(walls),
        "peak_rss_mb": _median(record["peak_rss_bytes"] for record in plain) / MIB,
        "precision": _precision(plain[0]["triples"], state["truth"]),
        "coverage": plain[0]["coverage"],
    }


def serve_metrics(steps: list[dict], server_record: dict, state: dict) -> dict:
    first = steps[0]
    served = []
    covered = answered = 0
    for step in steps:
        for page_id, payload in zip(step["page_ids"], step["payloads"]):
            triples = (payload or {}).get("triples") or []
            answered += 1
            covered += bool(triples)
            served.extend([page_id, t["attribute"], t["value"]] for t in triples)
    return {
        # Answers per second at the top rate, which saturates the
        # daemon: a continuous capacity figure. The highest rate that
        # met the latency limit moves in whole ladder steps, so it is
        # recorded (``max_rate_rps``) but not compared.
        "pages_per_s": steps[-1]["throughput_rps"],
        "lat_p50_ms": 1000 * first["p50_s"],
        "lat_p95_ms": 1000 * first["tail_s"],
        "peak_rss_mb": server_record["peak_rss_bytes"] / MIB,
        "precision": _precision(served, state["truth"]),
        "coverage": covered / answered,
    }


def _layer(layers: dict, name: str) -> dict:
    return layers.get(
        name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}}
    )


def _p50_ms(layers: dict, name: str) -> float:
    return 1000 * _median(_layer(layers, name)["durations"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_layer_metrics(layers: dict) -> dict:
    """Per-layer numbers every workload reports (zero where unused)."""
    gate = _layer(layers, "ingest.gate")
    load = _layer(layers, "perf.prep_cache.load")
    hits = load["attrs"].get("hit", 0)
    train = _layer(layers, "ml.crf.train")
    tag = _layer(layers, "ml.crf.tag")
    semantic = _layer(layers, "cleaning.semantic")
    pool_run = _layer(layers, "runtime.pool.run")
    busy = _layer(layers, "runtime.pool.task")["total_s"]
    checkpoint = _layer(layers, "runtime.checkpoint.write")
    return {
        "corpus.read.self_s": _layer(layers, "corpus.read")["self_s"],
        "ingest.gate.calls": gate["calls"],
        "ingest.gate.self_s": gate["self_s"],
        "ingest.gate.quarantined": gate["attrs"].get("quarantined", 0),
        "ingest.gate.repaired": gate["attrs"].get("repaired", 0),
        "ingest.gate.p50_ms": _p50_ms(layers, "ingest.gate"),
        "html.parse.self_s": _layer(layers, "html.parse")["self_s"],
        "nlp.tokenize.self_s": _layer(layers, "nlp.tokenize")["self_s"],
        "nlp.tokenize.p50_ms": _p50_ms(layers, "nlp.tokenize"),
        "preprocess.candidates.self_s": _layer(layers, "preprocess.candidates")["self_s"],
        "preprocess.seed.self_s": _layer(layers, "preprocess.seed")["self_s"],
        "preprocess.material.self_s": _layer(layers, "preprocess.material")["self_s"],
        "perf.prep_cache.hits": hits,
        "perf.prep_cache.misses": load["calls"] - hits,
        "perf.prep_cache.hit_ratio": _ratio(hits, load["calls"]),
        "perf.prep_cache.load_s": load["total_s"],
        "perf.prep_cache.store_s": _layer(layers, "perf.prep_cache.store")["total_s"],
        "ml.crf.train.self_s": train["self_s"],
        "ml.crf.train.sentences": train["attrs"].get("sentences", 0),
        "ml.crf.tag.self_s": tag["self_s"],
        "ml.crf.tag.sentences": tag["attrs"].get("sentences", 0),
        "ml.crf.tag.p50_ms": _p50_ms(layers, "ml.crf.tag"),
        "embeddings.word2vec.self_s": _layer(layers, "embeddings.word2vec")["self_s"],
        "cleaning.semantic.self_s": semantic["self_s"],
        "cleaning.semantic.scored": semantic["attrs"].get("scored", 0),
        "cleaning.semantic.reject_ratio": _ratio(
            semantic["attrs"].get("removed", 0), semantic["attrs"].get("scored", 0)
        ),
        "cleaning.veto.self_s": _layer(layers, "cleaning.veto")["self_s"],
        "runtime.pool.wait_s": pool_run["self_s"],
        "runtime.pool.busy_s": busy,
        "runtime.pool.efficiency": _ratio(busy, pool_run["attrs"].get("slot_s", 0.0)),
        "runtime.pool.retries": pool_run["attrs"].get("requeues", 0),
        "runtime.checkpoint.writes": checkpoint["calls"],
        "runtime.checkpoint.write_s": checkpoint["total_s"],
        "core.sharded.self_s": _layer(layers, "core.sharded")["self_s"],
        "serve.service.p50_ms": _p50_ms(layers, "serve.service"),
        "serve.batcher.job_p50_ms": _p50_ms(layers, "serve.batcher.job"),
        "serve.quarantine.write_p50_ms": _p50_ms(layers, "serve.quarantine.write"),
    }


def batch_layer_metrics(runs: list[dict]) -> dict:
    """Per-layer metrics of the traced runs (median over them)."""
    traced = [run for run in runs if run["traced"] and run["record"] is not None]
    plain = [run for run in runs if not run["traced"] and run["record"] is not None]
    per_run = []
    for run in traced:
        layers = summarize(run["spans"])
        values = common_layer_metrics(layers)
        cache = run["record"]["feature_cache"]
        top = _layer(layers, "core.sharded")
        values.update(
            {
                "perf.feature_cache.hit_ratio": _ratio(
                    cache["hits"], cache["hits"] + cache["misses"]
                ),
                "runtime.pool.worker_peak_rss_mb": run["record"]["worker_peak_rss_bytes"] / MIB,
                "trace.coverage": 1 - _ratio(top["self_s"], top["total_s"]),
            }
        )
        per_run.append(values)
    metrics = {name: _median(v[name] for v in per_run) for name in per_run[0]} if per_run else {}
    if traced and plain:
        metrics["trace.overhead"] = (
            _median(run["record"]["wall_s"] for run in traced)
            / _median(run["record"]["wall_s"] for run in plain)
            - 1
        )
    return metrics


def serve_layer_metrics(
    steps: list[dict], spans: list[dict], server_record: dict, untraced_p50_s: float
) -> dict:
    """Per-layer metrics of a traced ladder run."""
    layers = summarize(spans)
    metrics = common_layer_metrics(layers)
    service = _layer(layers, "serve.service")
    service_s = {
        span["attrs"]["key"]: span["end"] - span["start"]
        for span in spans
        if span["name"] == "serve.service" and span.get("attrs", {}).get("key")
    }
    # Client-observed send-to-answer time minus the service's own time:
    # what HTTP parsing, socket writes and the kernel add per request.
    # Taken at the top rate, where every request follows the previous
    # answer on its connection back to back.
    top = steps[-1]
    outside = [
        sample.wire - service_s[key]
        for sample in top["samples"]
        if (key := f"{top['page_ids'][sample.index]}~{top['rate']}") in service_s
    ]
    samples = [sample for step in steps for sample in step["samples"]]
    batcher = server_record["batcher"]
    metrics.update(
        {
            "serve.service.p95_ms": 1000 * nearest_rank(service["durations"], 0.95)
            if service["durations"]
            else 0.0,
            "serve.http.p50_ms": 1000 * _median(outside),
            "serve.batcher.mean_batch": _ratio(batcher["batched_jobs"], batcher["batches"]),
            "serve.admission.shed": server_record["admission"]["shed"],
            "gen.late_p95_ms": 1000 * nearest_rank([s.late for s in samples], 0.95),
            "trace.coverage": 1 - _ratio(service["self_s"], service["total_s"]),
            "trace.overhead": steps[0]["p50_s"] / untraced_p50_s - 1,
        }
    )
    return metrics


# -- one invocation ------------------------------------------------------

#: Floors below which a run's output is wrong, not merely worse.
MIN_PRECISION = 0.5
MIN_COVERAGE = 0.5


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    work_dir: pathlib.Path,
    scale: float = 1.0,
    expected_digest: str | None = None,
) -> dict:
    """Set up, measure and check one workload; return its record.

    The record carries end-to-end metrics (untraced) or per-layer
    metrics (traced), the attempted/failed operation counts, the
    correctness verdict and the diagnostics behind them.
    """
    params = resolve(name, scale)
    setup = setup_batch if params["kind"] == "batch" else setup_serve
    setup_s: list[float] = []
    state = None
    record: dict = {"workload": name, "params": params, "seed": seed, "traced": traced}
    try:
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
            if state is not None:
                teardown(state)
            started = time.perf_counter()
            state = setup(params, seed, work_dir / f"setup-{len(setup_s)}")
            setup_s.append(time.perf_counter() - started)
        record["setup_s"] = setup_s
        if params["kind"] == "batch":
            _measure_batch(record, params, seed, state, seconds, traced, expected_digest)
        else:
            _measure_serve(record, params, state, traced)
    finally:
        teardown(state)
    if not traced:
        record["metrics"]["setup_s"] = statistics.median(setup_s)
    metrics = record["metrics"]
    checks = record.setdefault("checks", {})
    if not traced:
        checks["precision_floor"] = metrics.get("precision", 0) >= MIN_PRECISION
        checks["coverage_floor"] = metrics.get("coverage", 0) >= MIN_COVERAGE
    record["correct"] = record["failed"] == 0 and all(checks.values())
    return record


def _measure_batch(record, params, seed, state, seconds, traced, expected_digest) -> None:
    runs = measure_batch(params, seed, state, seconds, traced)
    digests = [run["record"]["digest"] for run in runs if run["record"] is not None]
    reference = expected_digest or (digests[0] if digests else None)
    failed = sum(
        1
        for run in runs
        if run["record"] is None or run["record"]["digest"] != reference
    )
    record.update(
        attempted=len(runs),
        failed=failed,
        digest=digests[0] if digests else None,
        digest_checked=expected_digest is not None,
        errors=[run["error"] for run in runs if run["error"]],
        runs=[
            {
                "traced": run["traced"],
                "elapsed_s": run["elapsed_s"],
                **{
                    key: value
                    for key, value in (run["record"] or {}).items()
                    if key != "triples"
                },
                "by_process": run.get("by_process"),
            }
            for run in runs
        ],
    )
    record["metrics"] = (
        batch_layer_metrics(runs) if traced else batch_metrics(runs, state)
    )


def _strip_step(step: dict) -> dict:
    return {
        key: value
        for key, value in step.items()
        if key not in ("samples", "payloads", "page_ids")
    }


def _measure_serve(record, params, state, traced) -> None:
    server = state.pop("server")
    untraced_p50 = None
    try:
        if traced:
            # Untraced reference at the first rate, then the whole
            # ladder against a traced daemon for the layer spans.
            plain = run_ladder(params, state, server, rates=params["rates"][:1])
            server.stop()
            untraced_p50 = plain[0]["p50_s"]
            trace_dir = state["dir"] / "spans"
            server = start_server_child(params, state["dir"], trace_dir=trace_dir)
        steps = run_ladder(params, state, server)
        server_record = server.stop()
    finally:
        server.kill()
    attempted = sum(step["requests"] for step in steps)
    failed = sum(step["failed"] for step in steps)
    if traced:
        spans = load_spans(trace_dir)
        attempted += plain[0]["requests"]
        failed += plain[0]["failed"]
        record["metrics"] = serve_layer_metrics(
            steps, spans, server_record, untraced_p50
        )
        record["by_process"] = by_process(spans)
    else:
        record["metrics"] = serve_metrics(steps, server_record, state)
    record["max_rate_rps"] = max(
        (step["rate"] for step in steps if step["meets_limit"]), default=0
    )
    record.update(
        attempted=attempted,
        failed=failed,
        steps=[_strip_step(step) for step in steps],
        server=server_record,
    )
