"""The workloads: ``adhoc`` and ``replay``.

Every workload builds its inputs from the run's seed before any clock
starts, sets the program up through its public API, runs
``gc.collect()`` before each timed phase, and hands every answer to
:mod:`checks` after the timed phases.

``adhoc`` serves from the shipped single-process
``AllocationServer`` (``build_server(procs=1)``, two workers, batches
of up to 16, shipped breaker settings, historical-median fallback as
the CLI builds it) with a model trained on a fixed history: the
deployed model is a constant of the benchmark, so a spread between
seeds measures the program on different traffic, not which model a
seed happened to train. ``replay`` runs the ``ReplayEngine`` end to
end; its bootstrap trains a model from the seed, and is part of what
the workload measures.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import driver
import layers
from checks import check_answers
from repro.exceptions import ReproError
from repro.models import build_dataset
from repro.models.xgboost_models import XGBoostPL
from repro.obs.metrics import MetricsRegistry, state_delta
from repro.pcc.optimal import optimal_tokens
from repro.replay import ReplayConfig, ReplayEngine
from repro.replay.arrivals import ArrivalSpec
from repro.replay.tenants import default_tenants
from repro.scope.generator import WorkloadConfig, WorkloadGenerator
from repro.scope.repository import run_workload
from repro.serving import AllocationServer, ServerConfig, build_server
from repro.tasq import ScoringPipeline
from repro.tasq.pipeline import featurize
from spans import Tracer

#: History the deployed model is trained on (fixed, see module doc).
HISTORY_JOBS = 200
HISTORY_SEED = 0
#: Plans sent once after start-up so lazy kernel compilation is done
#: before anything is timed; fixed like the history.
WARM_PLANS = 8
SERVER_CONFIG = ServerConfig(workers=2, max_batch_size=16)

#: Closed-loop clients: requests wait on the server's workers, and two
#: clients let its batches form.
CLIENTS = 2
CLOSED_SLICES = 8

#: Open loop: requests sent at ADHOC_RATE per second. At 200/s the p95
#: sat where a few more delayed wake-ups of the driver's threads tripled
#: it (4.7 ms on most runs, 14 ms on a slower spell of the machine); at
#: 100/s the workers are idle more often and the tail stays near the
#: service time. Latency percentiles are the median over slices of
#: LATENCY_SLICE requests, each with ten samples beyond its p95.
ADHOC_RATE = 100.0
OPEN_LOOP_REQUESTS = 1000
LATENCY_SLICE = 200
#: The fixed rate ladder (requests/s) of both workloads.
LADDER = driver.ladder_rates(100.0, 1.05, 80)
#: Most rungs bisecting an 80-rung ladder can run (7, each retried once).
LADDER_TRIALS = 14
#: An adhoc rung lasts RUNG_SECONDS, with at least RUNG_REQUESTS and at
#: most LADDER_POOL requests: the distinct plans its ladder cycles
#: through (each rung gets a fresh server, so no rung sees a plan twice).
RUNG_REQUESTS = 200
RUNG_SECONDS = 0.5
LADDER_POOL = 1500

#: Replay: three tenants (tpch, streaming, ml_training), Poisson
#: arrivals 5 s apart per tenant, a 1500-token pool that binds, and
#: this many virtual seconds of arrivals per second of --seconds.
REPLAY_TENANTS = 3
REPLAY_GAP_S = 5.0
REPLAY_CAPACITY = 1500
REPLAY_VIRTUAL_PER_S = 100.0
#: Replays per run, each on its own engine seed: one replay's loop
#: speed depends on its seed's model and job mix (1.6 to 2.6 s per
#: thousand arrivals on two CPUs), so a run pools many. The
#: first seed is then replayed once more to check that it repeats.
REPLAY_SEEDS = 14

SPANS_DIR = Path(__file__).resolve().parent / "out"

#: Every end-to-end metric and its unit (all workloads print all).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "cpu_ms_per_req": "ms",
}

#: Every per-layer metric and its unit. A layer a workload does not
#: exercise reads 0 there.
PER_LAYER = {
    **{f"{row}.share": "ratio" for row in layers.ACCOUNT_ROWS},
    "unexplained_share": "ratio",
    "trace.e2e_ms_per_req": "ms",
    "trace.overhead_share": "ratio",
    "scope.plan_signature_us": "us",
    "tasq.featurize_us": "us",
    "tasq.score_b1_us": "us",
    "tasq.score_b16_us": "us",
    "tasq.score_error_share": "ratio",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "max_rate_within_slo_rps": "1/s",
    "models.predict_pccs_us": "us",
    "models.fit_s": "s",
    "ml.gbm.bin_transform_us": "us",
    "ml.compiled.forest_walk_us": "us",
    "pcc.fit_power_law_us": "us",
    "pcc.optimal_tokens_us": "us",
    "scope.history_s": "s",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p95": "ms",
    "serving.batch_size_mean": "count",
    "serving.scoring_ms_p50": "ms",
    "serving.latency_p99_ms": "ms",
    "serving.rec_cache_hit_share": "ratio",
    "serving.feature_cache_hit_share": "ratio",
    "serving.breaker_trips": "count",
    "serving.model_errors": "count",
    "driver.max_send_lag_ms": "ms",
    "replay.request_us": "us",
    "replay.record_completion_us": "us",
    "scope.execute_ms": "ms",
    "scope.generate_us": "us",
    "fleet.stream_us": "us",
    "fleet.allocate_us": "us",
    "fleet.reallocations": "count",
    "fleet.backfills": "count",
    "fallback_share": "ratio",
    "error_share": "ratio",
    "job_slo_attainment": "ratio",
    "wait_p95_s": "s",
    "token_seconds_per_job": "token-s",
}


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = (float(value), unit)

    def add_checks(self, records, pipeline) -> None:
        report = check_answers(pipeline, records)
        self.attempted += report.attempted
        self.failed += report.failed
        self.problems += report.problems
        self.notes.append(
            f"answers {report.by_status}, fallback reasons {report.by_reason}"
        )


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _records(phase: driver.PhaseResult) -> list:
    """Check records of a phase. Every request counts as attempted, and
    an error or a timeout always counts as failed; a rejection is left
    uncounted only on ladder rungs above the highest rate that held,
    where shedding is the designed answer to overload."""
    return [
        (
            s.plan, s.tokens, s.response, s.error,
            not (
                phase.above_capacity and s.response is not None
                and s.response.status.value == "rejected"
            ),
        )
        for s in phase.sent
    ]


def _histograms(server, before: dict) -> dict[str, dict]:
    """Server histograms recorded since ``before`` (a ``dump_state``)."""
    registry = MetricsRegistry()
    registry.merge_state(state_delta(server.metrics.dump_state(), before))
    return registry.snapshot()["histograms"]


def _hist(histograms, name: str, stat: str, scale: float = 1.0) -> float:
    value = histograms.get(name, {}).get(stat)
    return 0.0 if value is None else value * scale


def _share(records, status: str) -> float:
    if not records:
        return 0.0
    return sum(
        r[2] is not None and r[2].status.value == status for r in records
    ) / len(records)


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def _layer_metrics(result: RunResult, costs, account) -> None:
    """Unit costs from span durations, and the per-request account."""

    def cost(name, per="call"):
        total, calls, size = costs.get(name, (0.0, 0, 0))
        return total, (calls if per == "call" else size)

    for metric, span, per, scale in (
        ("scope.plan_signature_us", "scope.plan_signature", "call", 1e6),
        ("tasq.featurize_us", "tasq.featurize", "call", 1e6),
        ("models.predict_pccs_us", "models.predict_pccs", "job", 1e6),
        ("ml.gbm.bin_transform_us", "ml.gbm.bin_transform", "call", 1e6),
        ("ml.compiled.forest_walk_us", "ml.compiled.forest_walk", "call", 1e6),
        ("pcc.fit_power_law_us", "pcc.fit_power_law", "call", 1e6),
        ("replay.request_us", "replay.request", "call", 1e6),
        ("replay.record_completion_us", "replay.record_completion", "call", 1e6),
        ("scope.execute_ms", "scope.execute", "call", 1e3),
        ("fleet.stream_us", "fleet.stream", "call", 1e6),
        ("fleet.allocate_us", "fleet.allocate", "call", 1e6),
    ):
        total, count = cost(span, per)
        result.put(metric, _per(total, count, scale))
    e2e = account["e2e"]
    for row in layers.ACCOUNT_ROWS:
        result.put(f"{row}.share", account[row] / e2e)
    result.put("unexplained_share", account["unexplained"] / e2e)
    result.put("trace.e2e_ms_per_req", e2e * 1e3)


def _server_histograms(result: RunResult, load_hist, open_hist) -> None:
    for q in ("p50", "p95"):
        result.put(
            f"serving.queue_wait_ms_{q}", _hist(load_hist, "queue_wait_s", q, 1e3)
        )
    result.put("serving.batch_size_mean", _hist(load_hist, "batch_size", "mean"))
    result.put("serving.scoring_ms_p50", _hist(load_hist, "scoring_s", "p50", 1e3))
    result.put("serving.latency_p99_ms", _hist(open_hist, "latency_s", "p99", 1e3))


def _scoring_microbench(result: RunResult, pipeline, records) -> None:
    """``score_features`` at batch 1 and 16, and ``optimal_tokens``.

    Runs on up to 256 distinct requests of the run, outside any timed
    phase and with tracing off.
    """
    distinct = {}
    for plan, tokens, *_ in records:
        distinct.setdefault((plan.job_id, int(tokens)), (plan, int(tokens)))
        if len(distinct) == 256:
            break
    items = list(distinct.values())
    features = [featurize(plan) for plan, _ in items]
    healthy, pccs, elapsed = [], [], 0.0
    gc.collect()
    for (plan, tokens), feats in zip(items, features):
        started = time.perf_counter()
        try:
            answer = pipeline.score_features([plan.job_id], [tokens], [feats])[0]
        except ReproError:
            answer = None
        elapsed += time.perf_counter() - started
        if answer is not None:
            healthy.append((plan, tokens, feats))
            pccs.append(answer.pcc)
    result.put("tasq.score_b1_us", _per(elapsed, len(items), 1e6))
    result.put("tasq.score_error_share", 1.0 - len(healthy) / max(1, len(items)))
    elapsed, jobs = 0.0, 0
    for start in range(0, len(healthy) - 15, 16):
        chunk = healthy[start:start + 16]
        started = time.perf_counter()
        pipeline.score_features(
            [p.job_id for p, _, _ in chunk], [t for _, t, _ in chunk],
            [f for _, _, f in chunk],
        )
        elapsed += time.perf_counter() - started
        jobs += len(chunk)
    result.put("tasq.score_b16_us", _per(elapsed, jobs, 1e6))
    started = time.perf_counter()
    for _ in range(10):
        for pcc in pccs:
            optimal_tokens(pcc, pipeline.improvement_threshold)
    result.put(
        "pcc.optimal_tokens_us",
        _per(time.perf_counter() - started, 10 * len(pccs), 1e6),
    )


def _put_latency(
    result: RunResult, name: str, latencies: list[float], q: float
) -> None:
    result.put(name, driver.sliced_percentile(latencies, q, LATENCY_SLICE) * 1e3)


def _note_missing(result: RunResult, tracer: Tracer) -> None:
    """Flag boundaries the program no longer has: their rows read 0."""
    for boundary in tracer.missing:
        result.notes.append(
            f"MISSING BOUNDARY {boundary}: not timed, its rows read 0"
        )


def _note_ladder(result: RunResult, rungs: list[dict]) -> None:
    result.notes.append(
        "ladder: " + ", ".join(
            f"{r['rate']:.0f}/s p95 {r['p95_ms']:.1f} ms"
            + (f" ({r['fails']})" if r["fails"] else "") for r in rungs
        )
    )


def _fill_missing(result: RunResult) -> None:
    """Layers the workload does not exercise read 0."""
    for name in PER_LAYER:
        if name not in result.metrics:
            result.put(name, 0.0)


def spans_path(workload: str, seed: int) -> Path:
    return SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"


# ----------------------------------------------------------------------
# adhoc
# ----------------------------------------------------------------------
@dataclass
class Endpoint:
    server: AllocationServer
    pipeline: ScoringPipeline
    history: object
    setup_s: float
    history_s: float
    fit_s: float
    warm_records: list

    def fresh_server(self) -> AllocationServer:
        """Another server over the same (already compiled) model."""
        return build_server(
            self.pipeline, SERVER_CONFIG, procs=1, repository=self.history
        ).start()


def build_endpoint() -> Endpoint:
    """History -> dataset -> XGBoostPL -> started server, kernels warm."""
    history_jobs = WorkloadGenerator(seed=HISTORY_SEED).generate(HISTORY_JOBS)
    warm_jobs = WorkloadGenerator(
        WorkloadConfig(recurring_fraction=0.0), seed=HISTORY_SEED + 1
    ).generate(WARM_PLANS)
    gc.collect()
    started = time.perf_counter()
    history = run_workload(history_jobs, seed=HISTORY_SEED + 2)
    history_done = time.perf_counter()
    dataset = build_dataset(history)
    fit_started = time.perf_counter()
    model = XGBoostPL(seed=0).fit(dataset)
    fit_done = time.perf_counter()
    pipeline = ScoringPipeline(model)
    server = build_server(
        pipeline, SERVER_CONFIG, procs=1, repository=history
    ).start()
    warm = []
    for job in warm_jobs:
        response = server.request(job.plan, job.requested_tokens, timeout=60.0)
        warm.append((job.plan, job.requested_tokens, response, None, True))
    setup_s = time.perf_counter() - started
    return Endpoint(
        server, pipeline, history, setup_s, history_done - started,
        fit_done - fit_started, warm,
    )


def adhoc_requests(seed: int, count: int) -> list[tuple[object, int]]:
    """``count`` never-seen plans (ad-hoc only); each is sent once."""
    generator = WorkloadGenerator(
        WorkloadConfig(recurring_fraction=0.0), seed=10_000 + seed
    )
    return [(j.plan, j.requested_tokens) for j in generator.generate(count)]


def run_adhoc(seed: int, seconds: float, trace: bool, extra_setups) -> RunResult:
    result = RunResult()
    closed_s = seconds
    endpoint = build_endpoint()
    records = list(endpoint.warm_records)
    tracer = Tracer()
    if trace:
        layers.install(tracer, layers.SERVING_SPANS)
        _note_missing(result, tracer)

    # Inputs, generated before any clock starts; one feed per phase so
    # a fast phase cannot starve the next one. The closed-loop size is
    # far above today's rate, so only a much faster program would run
    # out early. The traced pass adds a traced closed loop, the open
    # loop and the rate ladder's pool of plans.
    closed_count = int(700 * closed_s)
    counts = [closed_count]
    if trace:
        counts += [closed_count, OPEN_LOOP_REQUESTS, LADDER_POOL]
    requests = adhoc_requests(seed, sum(counts))
    cuts = np.cumsum([0, *counts]).tolist()
    parts = [requests[a:b] for a, b in zip(cuts, cuts[1:])]
    closed_feed = driver.RequestFeed(parts[0])
    if trace:
        traced_feed, open_feed = (driver.RequestFeed(part) for part in parts[1:3])
        # Enough of the ladder's pool, repeated, for every rung.
        ladder_feed = driver.RequestFeed(parts[3] * LADDER_TRIALS)

    # Every phase, and every rung of the ladder, gets a fresh server over
    # the same model, so the breaker a run of degenerate plans trips in
    # one phase (the defect) cannot spill into the next and the caches
    # stay cold.
    servers = [endpoint.server]

    def phase_server() -> AllocationServer:
        servers[-1].stop()
        servers.append(endpoint.fresh_server())
        return servers[-1]

    try:
        server = servers[0]
        gc.collect()
        before = server.metrics.dump_state()
        closed = driver.closed_slices(
            server, closed_feed, closed_s, CLOSED_SLICES, CLIENTS
        )
        load_hist = _histograms(server, before)
        for phase in closed:
            records += _records(phase)

        if trace:
            open_server = phase_server()
            gc.collect()
            before = open_server.metrics.dump_state()
            reference = driver.open_loop(
                open_server, open_feed, ADHOC_RATE, OPEN_LOOP_REQUESTS
            )
            open_hist = _histograms(open_server, before)
            records += _records(reference)

            def rung(rate: float) -> driver.PhaseResult:
                count = min(
                    LADDER_POOL, max(RUNG_REQUESTS, int(rate * RUNG_SECONDS))
                )
                if ladder_feed.remaining < count:
                    raise RuntimeError("the rate ladder ran out of requests")
                return driver.open_loop(phase_server(), ladder_feed, rate, count)

            gc.collect()
            max_rate, rungs, ladder = driver.rate_ladder(rung, LADDER)
            for phase in ladder:
                records += _records(phase)

            # The traced phase comes last, so the spans it keeps in
            # memory do not slow the untraced phases down.
            traced_server = phase_server()
            gc.collect()
            before = traced_server.metrics.dump_state()
            tracer.enabled = True
            traced = driver.closed_slices(
                traced_server, traced_feed, closed_s, CLOSED_SLICES, CLIENTS,
                tracer=tracer,
            )
            tracer.enabled = False
            traced_hist = _histograms(traced_server, before)
            for phase in traced:
                records += _records(phase)
            measured_servers = [server, open_server, traced_server]
            snapshots = [s.metrics.snapshot() for s in measured_servers]
            feature_stats = [s.feature_cache.stats() for s in measured_servers]
    finally:
        for each in servers:
            each.stop()
        tracer.unwrap()

    result.add_checks(records, endpoint.pipeline)
    if any(phase.exhausted for phase in closed):
        result.notes.append("closed loop ran out of requests before its time")
        closed = [phase for phase in closed if phase.answered]
    rates = [phase.answered / phase.wall_s for phase in closed]
    rps = statistics.median(rates)
    result.notes.append(
        f"closed loop ({CLIENTS} clients): "
        f"{sum(p.answered for p in closed)} answered, slice rates "
        + " ".join(f"{r:.0f}" for r in rates)
    )

    if not trace:
        setups = [endpoint.setup_s, *extra_setups()]
        result.notes.append(
            "setup samples (s): " + ", ".join(f"{s:.3f}" for s in setups)
        )
        result.put("setup_s", statistics.median(setups))
        result.put("throughput_rps", rps)
        result.put(
            "cpu_ms_per_req",
            statistics.median(p.cpu_s / p.answered for p in closed) * 1e3,
        )
        return result

    spans = tracer.spans
    account = layers.account_requests(
        spans, "driver.request", _hist(traced_hist, "queue_wait_s", "sum")
    )
    _layer_metrics(result, layers.unit_costs(spans), account)
    result.put(
        "trace.overhead_share",
        1.0 - statistics.median(p.answered / p.wall_s for p in traced) / rps,
    )
    result.put("models.fit_s", endpoint.fit_s)
    result.put("scope.history_s", endpoint.history_s)
    _server_histograms(result, load_hist, open_hist)
    measured = [
        r for phase in [*closed, *traced, reference] for r in _records(phase)
    ]
    result.put("serving.rec_cache_hit_share", _share(measured, "cached"))
    hits = sum(stats["hits"] for stats in feature_stats)
    lookups = hits + sum(stats["misses"] for stats in feature_stats)
    result.put(
        "serving.feature_cache_hit_share", hits / lookups if lookups else 0.0
    )
    result.put(
        "serving.breaker_trips",
        sum(snap["gauges"]["breaker_trips"] for snap in snapshots),
    )
    result.put(
        "serving.model_errors",
        sum(snap["counters"].get("model_errors", 0) for snap in snapshots),
    )
    latencies = reference.latencies
    result.notes.append(
        f"open loop: {len(latencies)} samples at {ADHOC_RATE:.0f}/s, "
        f"max send lag {reference.max_send_lag_s * 1e3:.2f} ms"
    )
    result.put("driver.max_send_lag_ms", reference.max_send_lag_s * 1e3)
    _put_latency(result, "latency_p50_ms", latencies, 0.5)
    _put_latency(result, "latency_p95_ms", latencies, 0.95)
    _note_ladder(result, rungs)
    result.put("max_rate_within_slo_rps", max_rate)
    result.put("fallback_share", _share(measured, "fallback"))
    result.put("error_share", result.failed / result.attempted)
    _scoring_microbench(result, endpoint.pipeline, measured)
    _fill_missing(result)
    tracer.dump(spans_path("adhoc", seed))
    return result


def adhoc_setup_only() -> float:
    endpoint = build_endpoint()
    endpoint.server.stop()
    return endpoint.setup_s


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class _ReplayRun:
    report: object
    engine: ReplayEngine
    server: AllocationServer
    pipeline: ScoringPipeline
    records: list
    setup_s: float
    #: Wall and process CPU time from the loop's first request call to
    #: the end of the run.
    loop_s: float
    loop_cpu_s: float
    #: Wall time of each request call, in arrival order.
    latencies: list
    load_hist: dict


def _replay_engine(seed: int, seconds: float) -> ReplayEngine:
    tenants = default_tenants(
        REPLAY_TENANTS, ArrivalSpec(kind="poisson", mean_gap_s=REPLAY_GAP_S)
    )
    config = ReplayConfig(
        duration_s=REPLAY_VIRTUAL_PER_S * seconds,
        policy="water_filling",
        capacity=REPLAY_CAPACITY,
        seed=seed,
    )
    return ReplayEngine(config, tenants)


def _replay_once(seed: int, seconds: float) -> _ReplayRun:
    """One ``ReplayEngine.run``, timed and recorded through a server proxy.

    The proxy wraps ``AllocationServer.request`` (the engine's only
    scoring call) to record every answer, how long each call took and
    when the loop started, and ``build_server`` in the engine's module
    to capture the server and pipeline the engine builds. Both are
    restored afterwards.
    """
    import repro.replay.engine as engine_module

    engine = _replay_engine(seed, seconds)
    captured: dict = {}
    records: list = []
    latencies: list = []
    original_build = engine_module.build_server
    original_request = AllocationServer.__dict__["request"]

    def build(pipeline, *args, **kwargs):
        captured["pipeline"] = pipeline
        captured["server"] = original_build(pipeline, *args, **kwargs)
        return captured["server"]

    def request(self, plan, requested_tokens, timeout=30.0):
        if "first" not in captured:
            captured["before"] = self.metrics.dump_state()
            captured["first"] = (time.perf_counter(), time.process_time())
        started = time.perf_counter()
        response = original_request(self, plan, requested_tokens, timeout)
        latencies.append(time.perf_counter() - started)
        records.append((plan, requested_tokens, response, None, True))
        return response

    engine_module.build_server = build
    AllocationServer.request = request
    gc.collect()
    started = time.perf_counter()
    try:
        report = engine.run()
    finally:
        ended, ended_cpu = time.perf_counter(), time.process_time()
        engine_module.build_server = original_build
        AllocationServer.request = original_request
    server = captured["server"]
    first, first_cpu = captured["first"]
    return _ReplayRun(
        report=report,
        engine=engine,
        server=server,
        pipeline=captured["pipeline"],
        records=records,
        setup_s=first - started,
        loop_s=ended - first,
        loop_cpu_s=ended_cpu - first_cpu,
        latencies=latencies,
        load_hist=_histograms(server, captured["before"]),
    )


def _check_replay(result: RunResult, run: _ReplayRun, signature=None):
    """Jobs conserved per tenant, every answer checks, and (given the
    ``signature`` of an earlier replay of the same seed) it repeats."""
    for tenant in run.report.tenants:
        if tenant.arrived != tenant.completed + tenant.rejected:
            result.problems.append(
                f"{tenant.tenant}: arrived {tenant.arrived} != completed "
                f"{tenant.completed} + rejected {tenant.rejected}"
            )
    result.add_checks(run.records, run.pipeline)
    if signature is not None and run.report.signature() != signature:
        result.problems.append(
            f"replay signature differs between two runs of seed "
            f"{run.report.seed}"
        )


def _replay_quality(result: RunResult, run: _ReplayRun) -> None:
    report = run.report
    slo = {t.name: t.slo_slowdown for t in run.engine.tenants}
    outcomes = [
        (name, o) for name, outs in run.engine.outcomes_by_tenant_.items()
        for o in outs
    ]
    result.put(
        "job_slo_attainment",
        sum(o.slowdown <= slo[name] for name, o in outcomes) / report.arrived,
    )
    result.put("wait_p95_s", report.p95_wait)
    result.put(
        "token_seconds_per_job",
        statistics.fmean(o.token_seconds for _, o in outcomes),
    )
    result.put("fallback_share", _share(run.records, "fallback"))
    result.put("fleet.reallocations", report.reallocations)
    result.put("fleet.backfills", report.backfills)


def _scored_latencies(run: _ReplayRun) -> list[float]:
    """Wall times of the request calls the server had to score (not
    answered from the cache), in arrival order."""
    return [
        latency for latency, record in zip(run.latencies, run.records)
        if record[2].status.value != "cached"
    ]


def _replay_seeds(seed: int) -> list[int]:
    """Engine seeds of one run: disjoint between runs' seeds."""
    return [seed * REPLAY_SEEDS + i for i in range(REPLAY_SEEDS)]


def run_replay(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    if trace:
        return _traced_replay(result, seed, seconds)
    seeds = _replay_seeds(seed)
    loops: list[tuple[int, float, float]] = []
    setups: list[float] = []
    for index, engine_seed in enumerate([*seeds, seeds[0]]):
        run = _replay_once(engine_seed, seconds)
        if index == 0:
            first_signature = run.report.signature()
        # The last replay repeats the first seed, and must repeat it.
        _check_replay(
            result, run, first_signature if index == len(seeds) else None
        )
        loops.append((run.report.arrived, run.loop_s, run.loop_cpu_s))
        setups.append(run.setup_s)
    arrivals = sum(count for count, _, _ in loops)
    result.notes.append(
        f"replay: engine seeds {seeds} and {seeds[0]} again; arrivals "
        + " ".join(str(count) for count, _, _ in loops)
        + "; loops (s) " + " ".join(f"{wall:.2f}" for _, wall, _ in loops)
    )
    result.notes.append(
        "setup samples (s): " + ", ".join(f"{s:.3f}" for s in setups)
    )
    result.put("setup_s", statistics.median(setups))
    result.put("throughput_rps", arrivals / sum(wall for _, wall, _ in loops))
    result.put(
        "cpu_ms_per_req", sum(cpu for _, _, cpu in loops) / arrivals * 1e3
    )
    return result


def _replay_ladder(result: RunResult, run: _ReplayRun) -> float:
    """The rate ladder on a replay's own server (one worker, batch 1) and
    its recorded request stream: each rung empties the caches and sends
    the whole stream in arrival order, so it meets the hits and misses
    the replay met, only faster."""
    server = run.server
    stream = [(plan, tokens) for plan, tokens, *_ in run.records]

    def rung(rate: float) -> driver.PhaseResult:
        server.recommendation_cache.clear()
        server.feature_cache.clear()
        return driver.open_loop(
            server, driver.RequestFeed(stream), rate, len(stream)
        )

    server.start()
    try:
        gc.collect()
        max_rate, rungs, ladder = driver.rate_ladder(rung, LADDER)
    finally:
        server.stop()
    result.add_checks(
        [r for phase in ladder for r in _records(phase)], run.pipeline
    )
    _note_ladder(result, rungs)
    return max_rate


def _traced_replay(result: RunResult, seed: int, seconds: float) -> RunResult:
    """Per-layer table: the run's first replay, the rate ladder on its
    server, then a traced repeat (last, so the spans it keeps in memory
    do not slow the untraced phases down)."""
    tracer = Tracer()
    engine_seed = _replay_seeds(seed)[0]
    first = _replay_once(engine_seed, seconds)
    result.put("max_rate_within_slo_rps", _replay_ladder(result, first))
    layers.install(tracer)
    _note_missing(result, tracer)
    tracer.enabled = True
    try:
        second = _replay_once(engine_seed, seconds)
    finally:
        tracer.enabled = False
        tracer.unwrap()
    _check_replay(result, first)
    _check_replay(result, second, first.report.signature())
    arrivals = first.report.arrived
    result.notes.append(
        f"replay: {arrivals} arrivals, loops {first.loop_s:.2f} s untraced "
        f"and {second.loop_s:.2f} s traced"
    )
    loop_start = min(s.start for s in tracer.spans if s.name == "replay.request")
    loop_spans = [s for s in tracer.spans if s.start >= loop_start]
    account = layers.account_loop(
        loop_spans, second.loop_s, arrivals,
        _hist(second.load_hist, "queue_wait_s", "sum"),
    )
    costs = layers.unit_costs(tracer.spans)
    _layer_metrics(result, layers.unit_costs(loop_spans), account)
    total, _, jobs = costs.get("scope.generate", (0.0, 0, 0))
    result.put("scope.generate_us", _per(total, jobs, 1e6))
    result.put("models.fit_s", costs.get("models.fit", (0.0,))[0])
    result.put("scope.history_s", costs.get("scope.history", (0.0,))[0])
    result.put("trace.overhead_share", 1.0 - first.loop_s / second.loop_s)
    for name, q in (("latency_p50_ms", 0.5), ("latency_p95_ms", 0.95)):
        _put_latency(result, name, _scored_latencies(first), q)
    _server_histograms(result, second.load_hist, second.load_hist)
    result.put("serving.rec_cache_hit_share", _share(second.records, "cached"))
    stats = second.server.feature_cache.stats()
    lookups = stats["hits"] + stats["misses"]
    result.put(
        "serving.feature_cache_hit_share",
        stats["hits"] / lookups if lookups else 0.0,
    )
    snapshot = second.server.metrics.snapshot()
    result.put("serving.breaker_trips", snapshot["gauges"]["breaker_trips"])
    result.put("serving.model_errors", snapshot["counters"].get("model_errors", 0))
    result.put("error_share", result.failed / result.attempted)
    _replay_quality(result, first)
    _scoring_microbench(result, second.pipeline, second.records)
    _fill_missing(result)
    tracer.dump(spans_path("replay", seed))
    return result
