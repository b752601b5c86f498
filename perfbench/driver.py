"""The benchmark's own load driver.

Deliberately independent of ``repro.serving.loadgen``: a change to the
program's load generator must not move the ruler that measures it. The
driver only needs a server exposing ``submit(plan, tokens)`` (returning
a future with ``result(timeout)``) and ``request(plan, tokens, timeout)``.

Three ways to drive a server, all from one process and at most two
driver threads (on a two-CPU machine the server needs the rest):

* :func:`closed_loop` -- ``clients`` threads, each sending its next
  request when the previous one is answered, for a fixed wall time.
* :func:`open_loop` -- one sender thread submits on a fixed-rate
  schedule and one collector thread waits for the answers in send
  order (an answer given inside ``submit`` is timed by the sender).
  Latency is timed from each request's *intended* send time, so a stall
  charges its delay to every request it held back (coordinated-omission
  correction). The worst send lag is reported.
* :func:`rate_ladder` -- open-loop rungs on a fixed geometric ladder;
  the answer is the highest rung that holds the latency limit with no
  failed request and no growing backlog.

Requests are ``(plan, tokens)`` pairs taken from a list in order; a
phase never reuses an entry, so a workload drawn without replacement
stays without replacement.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

#: Latency limit of the rate ladder (on the p95), in seconds.
SLO_P95_S = 0.025


@dataclass
class Sent:
    """One request as the driver saw it."""

    index: int
    plan: object
    tokens: int
    response: object = None
    #: CO-corrected latency (open loop) or call latency (closed loop).
    latency_s: float = 0.0
    error: str | None = None


@dataclass
class PhaseResult:
    sent: list[Sent]
    wall_s: float
    cpu_s: float
    max_send_lag_s: float = 0.0
    #: True when the phase stopped because its request list ran out.
    exhausted: bool = False
    #: Open loop: the send rate actually achieved.
    achieved_rate: float = 0.0
    #: Ladder rung: True when its rate is above the highest rate that
    #: held, so rejections there are the designed answer to overload.
    above_capacity: bool = False

    @property
    def answered(self) -> int:
        return sum(1 for s in self.sent if s.response is not None)

    @property
    def latencies(self) -> list[float]:
        return [s.latency_s for s in self.sent if s.response is not None]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ranked = sorted(values)
    rank = min(len(ranked) - 1, max(0, int(round(q * (len(ranked) - 1)))))
    return ranked[rank]


def sliced_percentile(values: list[float], q: float, size: int) -> float:
    """Median over consecutive slices of ``size`` values of their ``q``
    percentile (one slice when there are fewer than two slices' worth),
    so one stall of the machine moves one slice, not the figure."""
    slices = [values[i:i + size] for i in range(0, len(values), size)]
    if len(slices) > 1 and len(slices[-1]) < size:
        slices[-2:] = [slices[-2] + slices[-1]]
    return statistics.median(percentile(part, q) for part in slices)


class RequestFeed:
    """Hands out the entries of a request list once each, thread-safely."""

    def __init__(self, requests: list[tuple[object, int]]) -> None:
        self._requests = requests
        self._next = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        return len(self._requests) - self._next

    def take(self) -> tuple[int, object, int] | None:
        with self._lock:
            if self._next >= len(self._requests):
                return None
            index = self._next
            self._next += 1
        plan, tokens = self._requests[index]
        return index, plan, tokens


def closed_loop(
    server, feed: RequestFeed, seconds: float, clients: int = 2, tracer=None
) -> PhaseResult:
    """Closed loop for ``seconds`` of wall time (or until the feed ends).

    With a ``tracer``, each request is recorded as a ``driver.request``
    span keyed by its job id: the anchor of the per-request account.
    """
    sent: list[Sent] = []
    sent_lock = threading.Lock()
    errors: list[BaseException] = []
    deadline = time.monotonic() + seconds
    exhausted = threading.Event()

    def client() -> None:
        try:
            while time.monotonic() < deadline:
                item = feed.take()
                if item is None:
                    exhausted.set()
                    return
                index, plan, tokens = item
                record = Sent(index, plan, tokens)
                started = time.monotonic()
                try:
                    if tracer is None:
                        record.response = server.request(
                            plan, tokens, timeout=60.0
                        )
                    else:
                        with tracer.span("driver.request", (plan.job_id,)):
                            record.response = server.request(
                                plan, tokens, timeout=60.0
                            )
                except Exception as error:  # counted as a failed request
                    record.error = f"{type(error).__name__}: {error}"
                record.latency_s = time.monotonic() - started
                with sent_lock:
                    sent.append(record)
        except BaseException as error:  # surfaced after join
            errors.append(error)
            raise

    threads = [
        threading.Thread(target=client, name=f"bench-client-{i}")
        for i in range(clients)
    ]
    cpu0, wall0 = time.process_time(), time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall, cpu = time.monotonic() - wall0, time.process_time() - cpu0
    if errors:
        raise errors[0]
    sent.sort(key=lambda s: s.index)
    return PhaseResult(sent, wall, cpu, exhausted=exhausted.is_set())


def closed_slices(
    server, feed: RequestFeed, seconds: float, slices: int, clients: int,
    tracer=None,
) -> list[PhaseResult]:
    """A closed loop cut into ``slices`` back-to-back slices.

    A workload reports the median slice, so a stall of the machine in
    one slice does not move the figure.
    """
    return [
        closed_loop(server, feed, seconds / slices, clients, tracer)
        for _ in range(slices)
    ]


def open_loop(
    server, feed: RequestFeed, rate: float, count: int
) -> PhaseResult:
    """Send ``count`` requests at ``rate`` per second, CO-corrected."""
    interval = 1.0 / rate
    records: list[Sent] = []
    intended: list[float] = []
    futures: list[object] = []
    ready = threading.Condition()
    lags: list[float] = []
    sent_at: list[float] = []
    done_sending = threading.Event()
    errors: list[BaseException] = []

    def collect() -> None:
        try:
            position = 0
            while True:
                with ready:
                    while position >= len(futures) and not done_sending.is_set():
                        ready.wait()
                    if position >= len(futures):
                        return
                    future = futures[position]
                record = records[position]
                position += 1
                if future is None:  # answered inside submit, or it raised
                    if record.response is None:
                        record.latency_s = time.monotonic() - intended[position - 1]
                    continue
                try:
                    record.response = future.result(timeout=60.0)
                except Exception as error:
                    record.error = f"{type(error).__name__}: {error}"
                record.latency_s = time.monotonic() - intended[position - 1]
        except BaseException as error:
            errors.append(error)
            raise

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    cpu0 = time.process_time()
    start = time.monotonic() + 0.002
    exhausted = False
    try:
        for i in range(count):
            item = feed.take()
            if item is None:
                exhausted = True
                break
            index, plan, tokens = item
            due = start + i * interval
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            now = time.monotonic()
            lags.append(max(0.0, now - due))
            sent_at.append(now)
            record = Sent(index, plan, tokens)
            try:
                future = server.submit(plan, tokens)
            except Exception as error:
                record.error = f"{type(error).__name__}: {error}"
                future = None
            if future is not None and future.done():
                # Answered inside submit (a cache hit or a fallback): the
                # sender saw it complete, no need to wait for the collector.
                record.response = future.result(timeout=0)
                record.latency_s = time.monotonic() - due
                future = None
            with ready:
                records.append(record)
                intended.append(due)
                futures.append(future)
                ready.notify()
    finally:
        with ready:
            done_sending.set()
            ready.notify()
        collector.join()
    wall = time.monotonic() - start
    cpu = time.process_time() - cpu0
    if errors:
        raise errors[0]
    span = sent_at[-1] - sent_at[0] if len(sent_at) > 1 else 0.0
    return PhaseResult(
        records, wall, cpu,
        max_send_lag_s=max(lags, default=0.0),
        exhausted=exhausted,
        achieved_rate=(len(sent_at) - 1) / span if span > 0 else 0.0,
    )


def ladder_rates(low: float, ratio: float, rungs: int) -> list[float]:
    """The fixed geometric ladder ``low * ratio**k`` for k < rungs."""
    return [low * ratio**k for k in range(rungs)]


def rung_verdict(result: PhaseResult) -> str | None:
    """Why a rung fails (None when it holds).

    A rung holds when nothing failed, the p95 is within the limit, and
    the backlog did not grow: a growing backlog shows as a last third
    whose p95 breaks the limit even when the whole rung's does not.
    """
    if any(s.response is None for s in result.sent):
        return "request errors"
    rejected = sum(s.response.status.value == "rejected" for s in result.sent)
    if rejected:
        return f"{rejected} rejected"
    latencies = result.latencies
    if percentile(latencies, 0.95) > SLO_P95_S:
        return "p95 over the limit"
    tail = latencies[-max(1, len(latencies) // 3):]
    if percentile(tail, 0.95) > SLO_P95_S:
        return "backlog grows"
    return None


def rate_ladder(
    run_rung, rates: list[float]
) -> tuple[float, list[dict], list[PhaseResult]]:
    """The highest rung of ``rates`` that holds, found by bisection.

    ``run_rung(rate)`` runs one rung, an open-loop phase at ``rate``
    requests per second, and returns its result.

    Holding is taken to be monotone in the rate, so the fixed ladder is
    bisected rather than climbed: a fine ladder costs only a handful of
    rungs. A rung that fails on latency alone (nothing rejected or
    failed) is run once more and fails only if that fails too, so one
    slow spell of the machine cannot cut the search short. The value
    is the rate the sender actually achieved on that rung (close to its
    nominal rate), or 0 when even the lowest rung fails. Returns the
    value, a row per rung run, and the result of every rung run; those
    above the highest rate that held are marked ``above_capacity``.
    """
    held, failed = -1, len(rates)
    best = 0.0
    rows: list[dict] = []
    runs: list[tuple[float, PhaseResult]] = []
    while failed - held > 1:
        rung = (held + failed) // 2
        rate = rates[rung]
        for _attempt in range(2):
            result = run_rung(rate)
            runs.append((rate, result))
            verdict = rung_verdict(result)
            latencies = result.latencies
            p95 = percentile(latencies, 0.95) if latencies else float("inf")
            rows.append(
                {
                    "rate": rate,
                    "achieved": result.achieved_rate,
                    "p95_ms": p95 * 1e3,
                    "fails": verdict,
                }
            )
            if verdict not in ("p95 over the limit", "backlog grows"):
                break
        if verdict is None:
            held, best = rung, result.achieved_rate
        else:
            failed = rung
    held_rate = rates[held] if held >= 0 else 0.0
    for rate, result in runs:
        result.above_capacity = rate > held_rate
    return best, rows, [result for _, result in runs]
