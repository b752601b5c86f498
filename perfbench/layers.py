"""Layer boundaries of the traced pass, and the per-request account.

Each entry of :data:`BOUNDARIES` names one public function the traced
pass times: ``(module, owner, attribute, span name, keys, size)``.
``owner`` is a class name inside the module, or None for a module-level
function looked up by its caller's module (``plan_signature`` is timed
where the server, the caches and the fallback call it). ``keys`` pulls
the job ids a call serves out of its arguments; ``size`` counts the
jobs or rows it handles, for per-job and per-row unit costs.

The account: every span's self time (duration minus the spans it
caused) is charged to the requests it served. Work a worker thread does
for a request has no parent on that thread, so it is charged by job id
to the client-side span that was waiting for it. A batch call is
charged in full to every request in the batch, since each of them
waited for all of it. What the rows do not cover is ``unexplained``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from spans import Span, Tracer, attach_by_key, ids_arg, plan_arg, self_times


def _rows(args, kwargs, position=1):
    return int(getattr(args[position], "shape", (len(args[position]),))[0])


BOUNDARIES = [
    ("repro.serving.server", None, "plan_signature", "scope.plan_signature",
     plan_arg(0), None),
    ("repro.serving.cache", None, "plan_signature", "scope.plan_signature",
     plan_arg(0), None),
    ("repro.serving.fallback", None, "plan_signature", "scope.plan_signature",
     plan_arg(0), None),
    ("repro.serving.server", "AllocationServer", "submit", "serving.submit",
     plan_arg(1), None),
    ("repro.serving.cache", "RecommendationCache", "get", "serving.cache",
     None, None),
    ("repro.serving.cache", "RecommendationCache", "put", "serving.cache",
     lambda a, k: (a[3].job_id,), None),
    ("repro.serving.cache", "FeatureCache", "features_for", "serving.cache",
     plan_arg(1), None),
    ("repro.serving.fallback", "HistoricalMedianFallback", "recommend",
     "serving.fallback", plan_arg(1), None),
    ("repro.serving.cache", None, "featurize", "tasq.featurize",
     plan_arg(0), None),
    ("repro.tasq.pipeline", "ScoringPipeline", "score_features",
     "tasq.score", ids_arg(1), lambda a, k: len(a[1])),
    ("repro.models.base", "PCCPredictor", "predict_pccs",
     "models.predict_pccs", None, lambda a, k: len(a[1].examples)),
    ("repro.ml.gbm.tree", "BinMapper", "transform", "ml.gbm.bin_transform",
     None, _rows),
    ("repro.ml.compiled", "FlattenedForest", "predict_raw",
     "ml.compiled.forest_walk", None, _rows),
    ("repro.models.xgboost_models", None, "fit_power_law",
     "pcc.fit_power_law", None, None),
    # set-up
    ("repro.models.xgboost_models", "XGBoostRuntimeModel", "fit",
     "models.fit", None, None),
    ("repro.replay.engine", None, "run_workload", "scope.history",
     None, None),
    ("repro.replay.engine", None, "build_dataset", "models.dataset",
     None, None),
    # the replay loop
    ("repro.serving.server", "AllocationServer", "request", "replay.request",
     plan_arg(1), None),
    ("repro.serving.server", "AllocationServer", "record_completion",
     "replay.record_completion", None, None),
    ("repro.scope.execution", "ClusterExecutor", "execute", "scope.execute",
     None, None),
    ("repro.scope.generator", "WorkloadGenerator", "generate",
     "scope.generate", None, lambda a, k: int(a[1])),
    ("repro.fleet.scheduler", "FleetStream", "submit", "fleet.stream",
     None, None),
    ("repro.fleet.scheduler", "FleetStream", "advance", "fleet.stream",
     None, None),
    ("repro.fleet.scheduler", "FleetStream", "drain", "fleet.stream",
     None, None),
    ("repro.fleet.allocator", "GlobalAllocator", "allocate", "fleet.allocate",
     None, lambda a, k: len(a[1])),
]

#: Boundaries timed on the adhoc workload (the replay loop's own
#: boundaries would only add wrapper cost there).
SERVING_SPANS = {
    "scope.plan_signature", "serving.submit", "serving.cache",
    "serving.fallback", "tasq.featurize", "tasq.score",
    "models.predict_pccs", "ml.gbm.bin_transform",
    "ml.compiled.forest_walk", "pcc.fit_power_law",
}

#: Rows of the per-request account, in pipeline order. ``serving.queue_wait``
#: comes from the server's queue-wait histogram, not from spans.
ACCOUNT_ROWS = (
    "scope.plan_signature",
    "serving.submit",
    "serving.cache",
    "serving.queue_wait",
    "tasq.featurize",
    "tasq.score",
    "models.predict_pccs",
    "ml.gbm.bin_transform",
    "ml.compiled.forest_walk",
    "pcc.fit_power_law",
    "serving.fallback",
    "replay.request",
    "replay.record_completion",
    "fleet.stream",
    "fleet.allocate",
    "scope.execute",
)


def install(tracer: Tracer, names: set[str] | None = None) -> None:
    """Wrap every boundary (or those whose span name is in ``names``)."""
    for module, owner, attr, name, keys, size in BOUNDARIES:
        if names is not None and name not in names:
            continue
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        tracer.wrap(target, attr, name, keys, size)


def unit_costs(spans: list[Span]) -> dict[str, tuple[float, int, int]]:
    """``name -> (total seconds, calls, jobs or rows)`` over ``spans``."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += span.duration
        entry[1] += 1
        entry[2] += span.size
    return {name: tuple(v) for name, v in totals.items()}


def _account(charged, count: int, e2e: float, queue_wait_total_s: float):
    rows = {name: charged.get(name, 0.0) / count for name in ACCOUNT_ROWS}
    rows["serving.queue_wait"] = queue_wait_total_s / count
    rows["unexplained"] = e2e - sum(rows.values())
    rows["e2e"] = e2e
    return rows


def account_requests(
    spans: list[Span], anchor_name: str, queue_wait_total_s: float
) -> dict[str, float]:
    """Per-request account of a serving phase.

    Anchors are the driver's request spans; the traced end-to-end time
    per request is their mean duration. Returns row -> seconds per
    request, plus ``e2e`` and ``unexplained``.
    """
    anchors = [s for s in spans if s.name == anchor_name]
    served = attach_by_key(spans, anchors)
    selfs = self_times(spans)
    charged: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == anchor_name:
            continue
        root = span
        while root.parent is not None:
            root = root.parent
        owners = 1 if root.name == anchor_name else len(served.get(id(root), ()))
        charged[span.name] += selfs[id(span)] * owners
    e2e = sum(a.duration for a in anchors) / len(anchors)
    return _account(charged, len(anchors), e2e, queue_wait_total_s)


def account_loop(
    spans: list[Span], loop_s: float, arrivals: int, queue_wait_total_s: float
) -> dict[str, float]:
    """Per-arrival account of the replay loop (one thread plus the server).

    The traced end-to-end time per arrival is the loop's wall time over
    its arrivals. Worker spans are children of the ``replay.request``
    span that waited for them.
    """
    anchors = [s for s in spans if s.name == "replay.request"]
    by_id = {id(s): s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for root_id, owners in attach_by_key(spans, anchors).items():
        for owner in owners:
            children[id(owner)].append(by_id[root_id])
    selfs = self_times(spans, children)
    charged: dict[str, float] = defaultdict(float)
    for span in spans:
        charged[span.name] += selfs[id(span)]
    # Queue wait happens inside replay.request; move it out of its self time.
    charged["replay.request"] = max(
        0.0, charged["replay.request"] - queue_wait_total_s
    )
    return _account(charged, arrivals, loop_s / arrivals, queue_wait_total_s)
