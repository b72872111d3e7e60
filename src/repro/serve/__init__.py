"""High-QPS partition-serving layer over the CRP overlay.

The :mod:`repro.crp` package answers one query on one overlay; this
package turns that into a *server*: a persistent
:class:`~repro.serve.engine.ServingEngine` holding customized metrics in
an LRU (:class:`~repro.serve.metric_cache.MetricLRU`), serving batched
queries one caller at a time through one reusable
:class:`~repro.serve.workspace.SearchWorkspace`, and a replay harness (:mod:`repro.serve.replay`) that measures
QPS / tail latency / hit rates on seeded synthetic workloads.  Answers
are bit-identical to the scalar single-query path by construction and by
test.
"""

from .engine import ServingConfig, ServingEngine
from .metric_cache import MetricLRU, metric_fingerprint
from .replay import QueryLog, ReplayResult, replay, synthetic_query_log
from .workspace import SearchWorkspace

__all__ = [
    "MetricLRU",
    "metric_fingerprint",
    "QueryLog",
    "ReplayResult",
    "replay",
    "synthetic_query_log",
    "SearchWorkspace",
    "ServingConfig",
    "ServingEngine",
]
