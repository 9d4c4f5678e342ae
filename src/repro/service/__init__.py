"""The livestreaming service and its tiered serving stack.

:class:`LivestreamService` (:mod:`repro.service.facade`) is the API the
paper's crawlers spoke to (§3.1): broadcast lifecycle, viewer joins with
the RTMP-to-HLS spillover, the 100-commenter cap, hearts, and the global
list of 50 random live broadcasts.  It operates on the
:mod:`repro.platform` records and delegates to a request-driven serving
stack split the way the paper's production system is described: a
storage tier (:mod:`repro.service.store` — the broadcast store with its
live list, plus the global-list page cache), a service tier
(:mod:`repro.service.services` — lifecycle/engagement policy and the
global-list API over storage, sharing one brownout fault gate that also
decides load shedding), an API
tier (:mod:`repro.service.frontend` — a deterministic event-loop frontend
with token-bucket admission control from :mod:`repro.service.admission`),
and a closed-loop benchmark driver (:mod:`repro.service.loadgen`,
surfaced as ``repro serve-bench``).

The API error types (:class:`ServiceError`, :class:`ServiceUnavailable`)
and :class:`GlobalListPage` live in :mod:`repro.service.errors`.
"""

from repro.service.admission import (
    API_CLASSES,
    AdmissionController,
    AdmissionPolicy,
    ApiClassLimit,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
)
from repro.service.errors import GlobalListPage, ServiceError, ServiceUnavailable
from repro.service.facade import LivestreamService
from repro.service.frontend import (
    ACTION_CLASSES,
    Request,
    Response,
    ServiceFrontend,
)
from repro.service.loadgen import (
    FlashCrowdConfig,
    LoadGenConfig,
    ServeBenchReport,
    run_serve_bench,
)
from repro.service.services import BroadcastService, FaultGate, ListService
from repro.service.store import BroadcastStore, ListCache, StoreError

__all__ = [
    "ACTION_CLASSES",
    "API_CLASSES",
    "AdmissionController",
    "AdmissionPolicy",
    "ApiClassLimit",
    "BroadcastService",
    "BroadcastStore",
    "FaultGate",
    "FlashCrowdConfig",
    "GlobalListPage",
    "ListService",
    "LivestreamService",
    "ListCache",
    "LoadGenConfig",
    "Request",
    "Response",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "ServeBenchReport",
    "ServiceError",
    "ServiceFrontend",
    "ServiceUnavailable",
    "StoreError",
    "run_serve_bench",
]
