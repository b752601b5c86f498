"""Shared-nothing multi-process serving front end.

`repro.serving.server` is one process: its micro-batched scoring runs
behind a single GIL, so the compiled inference kernels (PR 7) saturate
one core no matter how many worker *threads* the config asks for. This
module scales the same endpoint horizontally on one machine:

.. code-block:: text

                 ShardedAllocationServer (parent process)
    client ──► submit(plan)
                 │  plan_signature ──► consistent-hash ring ──► shard i
                 │  featurize (FeatureVectorCache)
                 ▼
               pending[i] ──flush──► shm slot (float64 rows) ─┐
                                     pipe: (id, sig, tokens) ─┤ zero-copy
                                                              ▼
               shard process i: AllocationServer.submit_prepared(...)
                 private recommendation cache · breaker · fallback
                                                              │
               reader thread ◄── pipe: responses + metric deltas

* **Routing** — a :class:`~repro.serving.ring.ConsistentHashRing` over
  the plan's structural signature (`plan_signature`, the same key the
  recommendation cache uses — routing by the content signature would
  scatter recurring instances of one template across shards and destroy
  their cache hits). Every recurrence of a signature lands on the same
  shard, so each shard's private LRU stays hot, and resharding moves
  only ~1/N of the keyspace.
* **Zero-copy feature transport** — the parent featurizes once (cached
  per instance), writes the float64 job vectors into a per-shard
  ``multiprocessing.shared_memory`` slot, and ships only identifiers
  over the pipe. The worker wraps the slot in an ``ndarray`` view and
  feeds row views straight into
  :meth:`~repro.tasq.pipeline.ScoringPipeline.score_features` — no
  per-request pickling on the hot path. A slot is reused only after the
  worker has answered its whole batch, so views never alias live data.
* **Stall-free hot swap** — :meth:`ShardedAllocationServer.swap_model`
  broadcasts the staged model; each worker registers it into its local
  :class:`~repro.tasq.model_store.ModelStore` and swaps at its next
  message boundary. In-flight batches complete on the old replica and
  traffic keeps flowing throughout (no global pause).
* **Fleet metrics** — workers piggyback counter/histogram *deltas* on
  their responses (cadence ``metrics_interval_s``); the parent relabels
  them ``{shard=i}`` and merges, so one snapshot covers the fleet.

GNN models read per-plan graphs, which do not fit the flat shared-memory
layout — :class:`ShardedAllocationServer` refuses them up front. Use
:func:`build_server` to construct either flavor from one call site
(``procs=1`` returns today's single-process server, bit-identical).
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.exceptions import ServingError
from repro.obs.metrics import MetricsRegistry, relabel_state, state_delta
from repro.parallel import START_METHOD
from repro.scope.plan import QueryPlan
from repro.scope.repository import JobRepository
from repro.scope.signatures import plan_signature
from repro.serving.cache import FeatureVectorCache
from repro.serving.ring import ConsistentHashRing
from repro.serving.server import (
    AllocationServer,
    ResponseStatus,
    ServeFuture,
    ServeResponse,
    ServerConfig,
)
from repro.tasq.model_store import ModelStore
from repro.tasq.pipeline import PlanFeatures, ScoringPipeline

__all__ = ["ShardConfig", "ShardedAllocationServer", "build_server"]

#: Name every shard registers its pipeline model under in its local store.
_MODEL_NAME = "shard-model"


@dataclass(frozen=True)
class ShardConfig:
    """Operating envelope of a :class:`ShardedAllocationServer`."""

    #: Worker processes (each runs a full :class:`AllocationServer`).
    procs: int = 2
    #: Rows per shared-memory slot = largest parent->shard flush batch.
    flush_batch_size: int = 32
    #: Cadence of the background flusher draining partial batches.
    flush_interval_s: float = 0.002
    #: Shared-memory slots per shard; bounds batches in flight per shard
    #: (backpressure: flushes wait for a free slot).
    shm_slots: int = 8
    #: Parent-side featurization cache entries (job id + signature).
    prep_cache_size: int = 8192
    #: Virtual nodes per shard on the consistent-hash ring.
    ring_replicas: int = 128
    #: How often workers piggyback metric deltas on responses.
    metrics_interval_s: float = 0.25
    #: Worker-side wait for one request's inner future (safety net; the
    #: inner server answers far sooner or falls back).
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.procs < 1:
            raise ServingError("need at least one shard process")
        if self.flush_batch_size < 1:
            raise ServingError("flush batch size must be at least 1")
        if self.flush_interval_s < 0:
            raise ServingError("flush interval must be non-negative")
        if self.shm_slots < 1:
            raise ServingError("need at least one shared-memory slot")
        if self.ring_replicas < 1:
            raise ServingError("ring needs at least one replica per node")
        if self.metrics_interval_s < 0:
            raise ServingError("metrics interval must be non-negative")
        if self.request_timeout_s <= 0:
            raise ServingError("request timeout must be positive")


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without tracker double-counting.

    Python 3.11 has no ``track=False``: attaching registers the segment
    with the resource tracker a second time, which triggers spurious
    leak warnings / double unlinks at exit. The parent owns the segment
    lifecycle (create + unlink), so the worker's registration is
    explicitly undone.
    """
    segment = shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - tracker internals vary across platforms
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    return segment


def _shard_worker_main(
    conn,
    index: int,
    pipeline_blob: bytes,
    server_config: ServerConfig,
    repository_blob: bytes | None,
    metrics_interval_s: float,
    request_timeout_s: float,
) -> None:
    """One shard: a full single-process server driven over a pipe.

    Messages are handled strictly in order, which is what makes the hot
    swap stall-free *and* safe: a ``("model", ...)`` message can only be
    seen between batches, so every in-flight batch completes on the
    replica it started with, while the parent keeps streaming new
    batches behind the swap message.
    """
    pipeline: ScoringPipeline = pickle.loads(pipeline_blob)
    repository: JobRepository | None = (
        pickle.loads(repository_blob) if repository_blob is not None else None
    )
    store = ModelStore()
    store.register(_MODEL_NAME, pipeline.model, metadata={"shard": index})
    server = AllocationServer(
        pipeline,
        server_config,
        store=store,
        model_name=_MODEL_NAME,
        repository=repository,
    )
    segments: dict[str, shared_memory.SharedMemory] = {}
    last_state: dict = {"counters": {}, "histograms": {}}
    last_ship = time.monotonic()

    def metrics_payload(force: bool = False) -> dict | None:
        nonlocal last_state, last_ship
        now = time.monotonic()
        if not force and now - last_ship < metrics_interval_s:
            return None
        current = server.metrics.dump_state()
        delta = state_delta(current, last_state)
        last_state = current
        last_ship = now
        if not delta["counters"] and not delta["histograms"]:
            return None
        return delta

    try:
        with server:
            while True:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                kind = message[0]
                if kind == "batch":
                    _, slot, shm_name, offset, width, entries = message
                    segment = segments.get(shm_name)
                    if segment is None:
                        segment = _attach_segment(shm_name)
                        segments[shm_name] = segment
                    rows = np.ndarray(
                        (len(entries), width),
                        dtype=np.float64,
                        buffer=segment.buf,
                        offset=offset,
                    )
                    futures = [
                        server.submit_prepared(
                            job_id,
                            signature,
                            tokens,
                            features=PlanFeatures(
                                job_vector=rows[i], graph=None
                            ),
                        )
                        for i, (_, job_id, signature, tokens) in enumerate(
                            entries
                        )
                    ]
                    payload = []
                    for (request_id, job_id, _, _), future in zip(
                        entries, futures
                    ):
                        try:
                            response = future.result(
                                timeout=request_timeout_s
                            )
                        except ServingError:
                            payload.append(
                                (
                                    request_id,
                                    job_id,
                                    ResponseStatus.REJECTED.value,
                                    None,
                                    "shard_timeout",
                                    0.0,
                                )
                            )
                        else:
                            payload.append(
                                (
                                    request_id,
                                    job_id,
                                    response.status.value,
                                    response.recommendation,
                                    response.reason,
                                    response.latency_s,
                                )
                            )
                    # Sending the responses is also the slot release: the
                    # parent only reuses the slot after this message.
                    conn.send(("responses", slot, payload, metrics_payload()))
                elif kind == "model":
                    _, generation, model_blob = message
                    store.register(
                        _MODEL_NAME,
                        pickle.loads(model_blob),
                        metadata={"generation": generation},
                    )
                    version = server.refresh_model()
                    conn.send(("swapped", generation, version))
                elif kind == "completion":
                    _, status_value, recommendation, actual_runtime = message
                    server.record_completion(
                        ServeResponse(
                            job_id=recommendation.job_id,
                            status=ResponseStatus(status_value),
                            recommendation=recommendation,
                            reason=None,
                            latency_s=0.0,
                            shard=index,
                        ),
                        actual_runtime,
                    )
                elif kind == "stats":
                    conn.send(
                        (
                            "stats",
                            {
                                "recommendation_cache": (
                                    server.recommendation_cache.stats()
                                ),
                                "model_version": server.model_version,
                                "monitor_observations": (
                                    server.monitor.snapshot().observations
                                ),
                            },
                        )
                    )
                elif kind == "sync":
                    conn.send(("metrics", metrics_payload(force=True)))
                elif kind == "stop":
                    conn.send(("stopped", metrics_payload(force=True)))
                    break
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass


# ----------------------------------------------------------------------
# parent process
# ----------------------------------------------------------------------
@dataclass
class _PreparedRequest:
    """One admitted request waiting to be flushed to its shard."""

    request_id: int
    job_id: str
    signature: str
    requested_tokens: int
    vector: np.ndarray
    future: ServeFuture
    submitted_at: float


class _Shard:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.process = None
        self.conn = None
        self.reader: threading.Thread | None = None
        self.lock = threading.Lock()  # guards pending + inflight
        self.flush_lock = threading.Lock()  # serializes flushes
        self.send_lock = threading.Lock()  # serializes conn.send
        self.rpc_lock = threading.Lock()  # serializes request/reply pairs
        self.pending: list[_PreparedRequest] = []
        self.inflight: dict[int, _PreparedRequest] = {}
        self.free_slots: queue_module.Queue[int] = queue_module.Queue()
        self.replies: queue_module.Queue = queue_module.Queue()
        self.segment: shared_memory.SharedMemory | None = None
        self.width: int | None = None
        self.alive = False


class ShardedAllocationServer:
    """N private :class:`AllocationServer` processes behind one front door.

    The client API mirrors the single-process server — ``submit`` /
    ``request`` / ``record_completion`` / context manager — so callers
    (the CLI, the load generator) swap between the two via
    :func:`build_server` without code changes. Responses carry the
    answering ``shard`` index; completion feedback routes back to the
    shard that served, keeping each shard's drift monitor consistent
    with its own traffic.

    Parameters
    ----------
    pipeline:
        A picklable :class:`~repro.tasq.pipeline.ScoringPipeline` whose
        model scores from job vectors (GNNs are rejected: per-plan
        graphs cannot ride the flat shared-memory layout).
    config:
        :class:`ShardConfig` — process count and transport tuning.
    server_config:
        The :class:`ServerConfig` each shard's inner server runs with
        (queue bound, micro-batching, breaker, caches, deadlines).
    repository:
        Optional job history, pickled once to every shard so each runs
        the same historical-median fallback as a single-process server.
    metrics, clock:
        Parent-side registry (fleet view) and injectable clock.
    """

    def __init__(
        self,
        pipeline: ScoringPipeline,
        config: ShardConfig | None = None,
        *,
        server_config: ServerConfig | None = None,
        repository: JobRepository | None = None,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ShardConfig()
        if not hasattr(pipeline, "score_features"):
            raise ServingError(
                "sharded serving needs a pipeline exposing score_features"
            )
        if getattr(getattr(pipeline, "model", None), "uses_graph_features", False):
            raise ServingError(
                "sharded serving ships flat job vectors through shared "
                "memory; graph-input (GNN) models cannot be sharded — "
                "serve them single-process"
            )
        self._pipeline = pipeline
        self.server_config = server_config or ServerConfig()
        self._repository = repository
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock
        self._prep_cache = FeatureVectorCache(self.config.prep_cache_size)
        names = [f"shard-{i}" for i in range(self.config.procs)]
        self.ring = ConsistentHashRing(
            names, replicas=self.config.ring_replicas
        )
        self._shard_by_name = {name: i for i, name in enumerate(names)}
        self._shards = [_Shard(i, name) for i, name in enumerate(names)]
        self._request_ids = itertools.count()
        self._id_lock = threading.Lock()
        self._running = False
        self._stop = threading.Event()
        self._flusher: threading.Thread | None = None
        self._swap_condition = threading.Condition()
        self._swap_generation = 0
        self._swap_acks: dict[int, dict[int, int | None]] = {}
        self._register_gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedAllocationServer":
        if self._running:
            raise ServingError("server is already running")
        self._stop.clear()
        context = multiprocessing.get_context(START_METHOD)
        pipeline_blob = pickle.dumps(self._pipeline)
        repository_blob = (
            pickle.dumps(self._repository)
            if self._repository is not None
            else None
        )
        try:
            for shard in self._shards:
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_shard_worker_main,
                    args=(
                        child_conn,
                        shard.index,
                        pipeline_blob,
                        self.server_config,
                        repository_blob,
                        self.config.metrics_interval_s,
                        self.config.request_timeout_s,
                    ),
                    name=f"alloc-{shard.name}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                shard.process = process
                shard.conn = parent_conn
                shard.alive = True
                for slot in range(self.config.shm_slots):
                    shard.free_slots.put(slot)
        except (OSError, PermissionError) as error:
            self._teardown_processes()
            raise ServingError(
                f"could not start shard processes ({error}); sandboxed "
                "environments may forbid subprocesses — serve with "
                "procs=1 instead"
            ) from error
        for shard in self._shards:
            shard.reader = threading.Thread(
                target=self._reader_loop,
                args=(shard,),
                name=f"alloc-{shard.name}-reader",
                daemon=True,
            )
            shard.reader.start()
        self._flusher = threading.Thread(
            target=self._flusher_loop, name="alloc-shard-flusher", daemon=True
        )
        self._flusher.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
            self._flusher = None
        for shard in self._shards:
            with shard.lock:
                leftovers = list(shard.pending)
                shard.pending.clear()
            for request in leftovers:
                self._resolve(
                    request, shard, ResponseStatus.REJECTED, None,
                    "shutdown", None,
                )
            if shard.alive:
                try:
                    with shard.send_lock:
                        shard.conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for shard in self._shards:
            if shard.reader is not None:
                shard.reader.join(timeout=10.0)
                shard.reader = None
        self._teardown_processes()

    def _teardown_processes(self) -> None:
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join(timeout=5.0)
                if shard.process.is_alive():  # pragma: no cover - hang path
                    shard.process.terminate()
                    shard.process.join(timeout=5.0)
                shard.process = None
            shard.alive = False
            # Anything the worker never answered gets an explicit answer.
            with shard.lock:
                orphans = list(shard.inflight.values())
                shard.inflight.clear()
            for request in orphans:
                self._resolve(
                    request, shard, ResponseStatus.REJECTED, None,
                    "shutdown", None,
                )
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
                shard.conn = None
            if shard.segment is not None:
                try:
                    shard.segment.close()
                    shard.segment.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
                shard.segment = None

    def __enter__(self) -> "ShardedAllocationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    @property
    def num_shards(self) -> int:
        return self.config.procs

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, plan: QueryPlan, requested_tokens: int) -> ServeFuture:
        """Route, featurize (cached), and enqueue one request."""
        if not self._running:
            raise ServingError("server is not running")
        if requested_tokens < 1:
            raise ServingError("requested tokens must be positive")
        self.metrics.counter("requests_total").increment()
        signature = plan_signature(plan)
        vector = self._prep_cache.vector_for(plan, signature)
        shard = self._shards[self._shard_by_name[self.ring.route(signature)]]
        with self._id_lock:
            request_id = next(self._request_ids)
        request = _PreparedRequest(
            request_id=request_id,
            job_id=plan.job_id,
            signature=signature,
            requested_tokens=int(requested_tokens),
            vector=vector,
            future=ServeFuture(),
            submitted_at=self._clock(),
        )
        dead = must_flush = False
        with shard.lock:
            if not shard.alive:
                dead = True
            else:
                shard.pending.append(request)
                must_flush = (
                    len(shard.pending) >= self.config.flush_batch_size
                )
        if dead:
            self.metrics.counter("rejected_shard_down").increment()
            self._resolve(
                request, shard, ResponseStatus.REJECTED, None,
                "shard_down", None,
            )
        elif must_flush:
            self._flush(shard)
        return request.future

    def request(
        self,
        plan: QueryPlan,
        requested_tokens: int,
        timeout: float | None = 30.0,
    ) -> ServeResponse:
        """Submit and block for the answer (the simple client call)."""
        return self.submit(plan, requested_tokens).result(timeout)

    def record_completion(
        self, response: ServeResponse, actual_runtime: float
    ) -> None:
        """Feed one completed job's run time back to the shard that served.

        Each shard's drift monitor only ever sees outcomes of its own
        predictions, mirroring the single-process feedback loop.
        """
        self.metrics.counter("completions").increment()
        if (
            response.shard is None
            or response.recommendation is None
            or response.status
            not in (ResponseStatus.OK, ResponseStatus.CACHED)
        ):
            return
        shard = self._shards[response.shard]
        if not shard.alive:
            return
        try:
            with shard.send_lock:
                shard.conn.send(
                    (
                        "completion",
                        response.status.value,
                        response.recommendation,
                        float(actual_runtime),
                    )
                )
        except (OSError, ValueError, BrokenPipeError):
            self._mark_dead(shard)

    # ------------------------------------------------------------------
    # model hot swap
    # ------------------------------------------------------------------
    def swap_model(
        self, model, wait: bool = True, timeout: float = 30.0
    ) -> dict[int, int | None]:
        """Stage ``model`` on every shard; swaps land at batch boundaries.

        Traffic is never paused: the broadcast rides the same pipes as
        request batches, each worker adopts the new generation between
        two batches, and batches already dispatched complete on the old
        replica. With ``wait`` (default) the call blocks until every
        live shard acknowledges, returning ``{shard: model_version}``;
        ``wait=False`` returns immediately with an empty dict.
        """
        if not self._running:
            raise ServingError("server is not running")
        if getattr(model, "uses_graph_features", False):
            raise ServingError(
                "cannot hot-swap a graph-input model into sharded serving"
            )
        blob = pickle.dumps(model)
        with self._swap_condition:
            self._swap_generation += 1
            generation = self._swap_generation
            self._swap_acks[generation] = {}
        recipients = []
        for shard in self._shards:
            if not shard.alive:
                continue
            try:
                with shard.send_lock:
                    shard.conn.send(("model", generation, blob))
                recipients.append(shard.index)
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead(shard)
        self.metrics.counter("model_swaps_staged").increment()
        if not wait:
            return {}
        deadline = time.monotonic() + timeout
        with self._swap_condition:
            while len(self._swap_acks[generation]) < len(
                [i for i in recipients if self._shards[i].alive]
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServingError(
                        "timed out waiting for shards to swap models"
                    )
                self._swap_condition.wait(remaining)
            return dict(self._swap_acks.pop(generation))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self, timeout: float = 5.0) -> dict:
        """Fleet-wide view: ring, parent prep cache, per-shard caches."""
        shards = []
        for shard in self._shards:
            if not shard.alive:
                shards.append({"shard": shard.index, "alive": False})
                continue
            reply = self._rpc(shard, ("stats",), timeout=timeout)
            entry = {"shard": shard.index, "alive": True}
            if reply is not None:
                entry.update(reply)
            shards.append(entry)
        return {
            "procs": self.config.procs,
            "ring_nodes": self.ring.nodes,
            "prep_cache": self._prep_cache.stats(),
            "shards": shards,
        }

    def sync_metrics(self, timeout: float = 5.0) -> None:
        """Pull every shard's outstanding metric delta into the parent."""
        for shard in self._shards:
            if shard.alive:
                self._rpc(shard, ("sync",), timeout=timeout)

    def metrics_snapshot(self, timeout: float = 5.0) -> dict:
        """A fleet-consistent snapshot (sync deltas first, then read)."""
        self.sync_metrics(timeout=timeout)
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rpc(self, shard: _Shard, message: tuple, timeout: float):
        """One request/reply exchange with a shard (serialized per shard)."""
        with shard.rpc_lock:
            try:
                with shard.send_lock:
                    shard.conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead(shard)
                return None
            try:
                return shard.replies.get(timeout=timeout)
            except queue_module.Empty:
                raise ServingError(
                    f"shard {shard.index} did not reply to {message[0]!r}"
                ) from None

    def _flusher_loop(self) -> None:
        interval = max(self.config.flush_interval_s, 1e-4)
        while not self._stop.wait(interval):
            for shard in self._shards:
                if shard.alive and shard.pending:
                    self._flush(shard)

    def _flush(self, shard: _Shard) -> None:
        with shard.flush_lock:
            while True:
                with shard.lock:
                    batch = shard.pending[: self.config.flush_batch_size]
                    del shard.pending[: len(batch)]
                if not batch:
                    return
                self._send_batch(shard, batch)

    def _send_batch(
        self, shard: _Shard, batch: list[_PreparedRequest]
    ) -> None:
        width = int(batch[0].vector.size)
        mismatched = [r for r in batch if int(r.vector.size) != width]
        if mismatched:  # pragma: no cover - schema drift guard
            batch = [r for r in batch if int(r.vector.size) == width]
            for request in mismatched:
                self._resolve(
                    request, shard, ResponseStatus.REJECTED, None,
                    "feature_width_mismatch", None,
                )
            if not batch:
                return
        segment = self._ensure_segment(shard, width)
        slot = self._acquire_slot(shard)
        if slot is None:
            reason = "shard_down" if not shard.alive else "shutdown"
            for request in batch:
                self._resolve(
                    request, shard, ResponseStatus.REJECTED, None,
                    reason, None,
                )
            return
        offset = slot * self.config.flush_batch_size * width * 8
        rows = np.ndarray(
            (len(batch), width),
            dtype=np.float64,
            buffer=segment.buf,
            offset=offset,
        )
        entries = []
        with shard.lock:
            for i, request in enumerate(batch):
                rows[i] = request.vector  # the one copy on the hot path
                shard.inflight[request.request_id] = request
                entries.append(
                    (
                        request.request_id,
                        request.job_id,
                        request.signature,
                        request.requested_tokens,
                    )
                )
        try:
            with shard.send_lock:
                shard.conn.send(
                    ("batch", slot, segment.name, offset, width, entries)
                )
        except (OSError, ValueError, BrokenPipeError):
            self._mark_dead(shard)
            with shard.lock:
                for request in batch:
                    shard.inflight.pop(request.request_id, None)
            for request in batch:
                self._resolve(
                    request, shard, ResponseStatus.REJECTED, None,
                    "shard_down", None,
                )
            return
        self.metrics.counter("shard_batches", shard=shard.index).increment()
        self.metrics.histogram(
            "shard_batch_rows",
            bounds=range(1, self.config.flush_batch_size + 1),
        ).record(len(batch))

    def _ensure_segment(
        self, shard: _Shard, width: int
    ) -> shared_memory.SharedMemory:
        if shard.segment is None:
            size = self.config.shm_slots * self.config.flush_batch_size
            shard.segment = shared_memory.SharedMemory(
                create=True, size=max(1, size * width * 8)
            )
            shard.width = width
        elif shard.width != width:  # pragma: no cover - schema drift guard
            raise ServingError(
                "feature vector width changed mid-run; restart the server"
            )
        return shard.segment

    def _acquire_slot(self, shard: _Shard) -> int | None:
        """Block until a slot frees up (the backpressure point)."""
        while shard.alive:
            try:
                return shard.free_slots.get(timeout=0.05)
            except queue_module.Empty:
                if self._stop.is_set():
                    # Draining at shutdown: slots still come back from the
                    # reader until the worker stops; give it a beat.
                    try:
                        return shard.free_slots.get(timeout=1.0)
                    except queue_module.Empty:
                        return None
        return None

    def _reader_loop(self, shard: _Shard) -> None:
        while True:
            try:
                message = shard.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "responses":
                _, slot, payload, metrics_state = message
                for (
                    request_id,
                    job_id,
                    status_value,
                    recommendation,
                    reason,
                    worker_latency,
                ) in payload:
                    with shard.lock:
                        request = shard.inflight.pop(request_id, None)
                    if request is None:  # pragma: no cover - defensive
                        continue
                    self._resolve(
                        request,
                        shard,
                        ResponseStatus(status_value),
                        recommendation,
                        reason,
                        worker_latency,
                    )
                shard.free_slots.put(slot)
                if metrics_state:
                    self._merge_worker_metrics(shard, metrics_state)
            elif kind == "swapped":
                _, generation, version = message
                with self._swap_condition:
                    self._swap_acks.setdefault(generation, {})[
                        shard.index
                    ] = version
                    self._swap_condition.notify_all()
            elif kind == "stats":
                shard.replies.put(message[1])
            elif kind == "metrics":
                if message[1]:
                    self._merge_worker_metrics(shard, message[1])
                shard.replies.put(None)
            elif kind == "stopped":
                if message[1]:
                    self._merge_worker_metrics(shard, message[1])
                break
        self._mark_dead(shard)

    def _mark_dead(self, shard: _Shard) -> None:
        with shard.lock:
            was_alive = shard.alive
            shard.alive = False
            orphans = list(shard.inflight.values())
            shard.inflight.clear()
            leftovers = list(shard.pending)
            shard.pending.clear()
        if was_alive and self._running:
            self.metrics.counter("shard_deaths").increment()
        for request in orphans + leftovers:
            reason = "shard_down" if self._running else "shutdown"
            self._resolve(
                request, shard, ResponseStatus.REJECTED, None, reason, None
            )
        with self._swap_condition:
            self._swap_condition.notify_all()

    def _resolve(
        self,
        request: _PreparedRequest,
        shard: _Shard,
        status: ResponseStatus,
        recommendation,
        reason: str | None,
        worker_latency: float | None,
    ) -> None:
        if request.future.done():  # pragma: no cover - double-answer guard
            return
        latency = max(0.0, self._clock() - request.submitted_at)
        self.metrics.counter(f"responses_{status.value}").increment()
        self.metrics.histogram("latency_s").record(latency)
        if worker_latency is not None:
            # End-to-end minus the worker's own submit->answer time =
            # routing + featurization + queueing + IPC overhead.
            self.metrics.histogram("shard_overhead_s").record(
                max(0.0, latency - worker_latency)
            )
        request.future._resolve(
            ServeResponse(
                job_id=request.job_id,
                status=status,
                recommendation=recommendation,
                reason=reason,
                latency_s=latency,
                shard=shard.index,
            )
        )

    def _merge_worker_metrics(self, shard: _Shard, state: dict) -> None:
        self.metrics.merge_state(relabel_state(state, shard=shard.index))

    def _register_gauges(self) -> None:
        self.metrics.register_gauge("shards", lambda: self.config.procs)
        self.metrics.register_gauge(
            "shards_alive",
            lambda: sum(1 for shard in self._shards if shard.alive),
        )
        self.metrics.register_gauge(
            "prep_cache_hit_rate", lambda: self._prep_cache.hit_rate
        )
        self.metrics.register_gauge(
            "inflight",
            lambda: sum(len(shard.inflight) for shard in self._shards),
        )
        self.metrics.register_gauge(
            "pending_flush",
            lambda: sum(len(shard.pending) for shard in self._shards),
        )


# ----------------------------------------------------------------------
def build_server(
    pipeline,
    config: ServerConfig | None = None,
    *,
    procs: int = 1,
    store: ModelStore | None = None,
    model_name: str | None = None,
    repository: JobRepository | None = None,
    fallback=None,
    monitor=None,
    metrics: MetricsRegistry | None = None,
    allocator=None,
    clock=time.monotonic,
    shard_config: ShardConfig | None = None,
):
    """One construction point for both serving flavors.

    ``procs=1`` returns today's :class:`AllocationServer` — the exact
    construction the replay engine and every existing caller already
    use, bit-identical. ``procs>1`` returns a
    :class:`ShardedAllocationServer`; per-shard concerns (model store,
    monitor, fallback, allocator) live inside each worker there, so
    passing them raises instead of silently dropping them — hot swaps go
    through :meth:`ShardedAllocationServer.swap_model`.
    """
    if procs < 1:
        raise ServingError("procs must be at least 1")
    if procs == 1:
        return AllocationServer(
            pipeline,
            config,
            store=store,
            model_name=model_name,
            repository=repository,
            fallback=fallback,
            monitor=monitor,
            metrics=metrics,
            allocator=allocator,
            clock=clock,
        )
    unsupported = {
        "store": store,
        "model_name": model_name,
        "fallback": fallback,
        "monitor": monitor,
        "allocator": allocator,
    }
    passed = sorted(k for k, v in unsupported.items() if v is not None)
    if passed:
        raise ServingError(
            f"sharded serving owns {', '.join(passed)} per shard; use "
            "swap_model for hot swaps and per-shard stats for monitors"
        )
    if shard_config is None:
        shard_config = ShardConfig(procs=procs)
    elif shard_config.procs != procs:
        shard_config = dataclasses.replace(shard_config, procs=procs)
    return ShardedAllocationServer(
        pipeline,
        shard_config,
        server_config=config,
        repository=repository,
        metrics=metrics,
        clock=clock,
    )
