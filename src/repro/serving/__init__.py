"""The allocation-serving layer: concurrent, cached, admission-controlled.

Models the production deployment path of Figure 4 — the always-on
endpoint that answers every incoming job's "how many tokens?" at
compile time — as an in-process system: a bounded queue and worker
pool with micro-batching (:mod:`~repro.serving.server`), signature-keyed
recommendation/feature caches (:mod:`~repro.serving.cache`), token-bucket
rate limiting plus a circuit breaker (:mod:`~repro.serving.admission`),
degraded-mode fallbacks (:mod:`~repro.serving.fallback`), metrics
re-exported from :mod:`repro.obs.metrics`, champion-challenger shadow
scoring with a coverage-gated promotion rule
(:mod:`~repro.serving.shadow`), a seeded load generator
(:mod:`~repro.serving.loadgen`), and a shared-nothing multi-process
front end that scales the endpoint across cores
(:mod:`~repro.serving.shard`, routed by the consistent-hash ring in
:mod:`~repro.serving.ring`).
"""

from repro.obs.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.serving.admission import BreakerState, CircuitBreaker, TokenBucket
from repro.serving.cache import (
    FeatureCache,
    FeatureVectorCache,
    LRUCache,
    RecommendationCache,
)
from repro.serving.fallback import (
    FallbackPolicy,
    HistoricalMedianFallback,
    PassthroughFallback,
    degraded_recommendation,
    degraded_recommendation_for,
)
from repro.serving.loadgen import LoadGenerator, LoadgenConfig, LoadReport
from repro.serving.ring import ConsistentHashRing
from repro.serving.shadow import PromotionGate, ShadowDecision, ShadowState
from repro.serving.shard import (
    ShardConfig,
    ShardedAllocationServer,
    build_server,
)
from repro.serving.server import (
    AllocationServer,
    ResponseStatus,
    ServeFuture,
    ServeResponse,
    ServerConfig,
)

__all__ = [
    "TokenBucket",
    "BreakerState",
    "CircuitBreaker",
    "LRUCache",
    "RecommendationCache",
    "FeatureCache",
    "FeatureVectorCache",
    "FallbackPolicy",
    "PassthroughFallback",
    "HistoricalMedianFallback",
    "degraded_recommendation",
    "degraded_recommendation_for",
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "ServerConfig",
    "ResponseStatus",
    "ServeResponse",
    "ServeFuture",
    "AllocationServer",
    "PromotionGate",
    "ShadowDecision",
    "ShadowState",
    "LoadgenConfig",
    "LoadReport",
    "LoadGenerator",
    "ConsistentHashRing",
    "ShardConfig",
    "ShardedAllocationServer",
    "build_server",
]
