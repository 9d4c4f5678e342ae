"""The API/frontend tier: a deterministic event-loop request frontend.

:class:`ServiceFrontend` turns client requests into Simulator events: a
request is admission-checked on arrival (token buckets + queue depth, see
:mod:`repro.service.admission`), then waits in a FIFO queue for one of
:data:`CONCURRENCY` logical workers, executes against the service tier
after its action's service time (:data:`SERVICE_TIMES_S`), and answers
through the caller's callback.  Every request's end-to-end latency span
(submit to response) is recorded through :mod:`repro.obs` histograms
(``service.request.latency_s`` plus a per-action breakdown), and backend
executions carry ``serve:<action>`` event labels so the engine's span
recorder aggregates per-action event counts for free.

Global-list requests try the list cache *before* the queue: a fresh
cached page is answered on the fast path after :data:`CACHE_HIT_TIME_S`
without touching the backend (and without flipping the brownout coin —
the backend was never consulted), which is what keeps list p99 flat when
a flash crowd piles on.

Everything runs on simulated time with injected randomness only (the
single rng is consumed by global-list sampling, in request-completion
order), so a seeded run produces byte-identical request histories.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.service.admission import AdmissionController
from repro.service.errors import GlobalListPage, ServiceError, ServiceUnavailable
from repro.service.services import BroadcastService, ListService
from repro.simulation.engine import Simulator

#: Frontend action -> admission API class.
ACTION_CLASSES = {
    "global_list": "list",
    "join": "join",
    "comment": "engage",
    "heart": "engage",
    "start_broadcast": "lifecycle",
    "end_broadcast": "lifecycle",
}

#: Logical workers draining the request queue.
CONCURRENCY = 4

#: Backend service time per action (simulated seconds of worker time).
SERVICE_TIMES_S = {
    "global_list": 0.030,
    "join": 0.010,
    "comment": 0.008,
    "heart": 0.005,
    "start_broadcast": 0.015,
    "end_broadcast": 0.015,
}

#: Simulated seconds to answer a global-list request from the list cache.
CACHE_HIT_TIME_S = 0.002

#: Response statuses.
OK = "ok"
SHED = "shed"  # turned away by admission control (retryable)
UNAVAILABLE = "unavailable"  # browned out backend (retryable)
ERROR = "error"  # invalid API usage (not retryable)


@dataclass(slots=True)
class Request:
    """One client request submitted to the frontend.

    A slotted record rather than a frozen dataclass: a frozen one's
    ``__init__`` pays an ``object.__setattr__`` per field, and a flash
    crowd builds one per request.  Nothing mutates or hashes it.
    """

    request_id: int
    action: str
    client_id: int
    submitted_at: float
    broadcast_id: Optional[int] = None
    viewer_id: Optional[int] = None
    broadcaster_id: Optional[int] = None

    @property
    def api_class(self) -> str:
        """The admission API class this request is billed against."""
        return ACTION_CLASSES[self.action]


@dataclass(slots=True)
class Response:
    """The frontend's answer to one request (a slotted record, as
    :class:`Request` is)."""

    request: Request
    status: str
    completed_at: float
    page: Optional[GlobalListPage] = None
    broadcast_id: Optional[int] = None
    detail: str = ""

    @property
    def latency_s(self) -> float:
        """Simulated seconds from submission to this response."""
        return self.completed_at - self.request.submitted_at

    @property
    def retryable(self) -> bool:
        """503-style statuses a :class:`RetryPolicy` should retry."""
        return self.status in (SHED, UNAVAILABLE)


#: Delivered exactly once per submitted request.
ResponseCallback = Callable[[Response], None]


class ServiceFrontend:
    """Admission-controlled, queue-fed frontend over the service tier."""

    def __init__(
        self,
        simulator: Simulator,
        broadcasts: BroadcastService,
        lists: ListService,
        rng: np.random.Generator,
        admission: Optional[AdmissionController] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.simulator = simulator
        self.broadcasts = broadcasts
        self.lists = lists
        self.rng = rng
        self.admission = admission
        self._queue: deque[tuple[Request, ResponseCallback]] = deque()
        self._busy = 0
        self._next_request_id = 1
        self._m_requests = metrics.counter(
            "service.frontend.requests", help="requests submitted to the frontend"
        )
        self._m_status = {
            status: metrics.counter(f"service.frontend.responses.{status}")
            for status in (OK, SHED, UNAVAILABLE, ERROR)
        }
        self._m_cache_served = metrics.counter(
            "service.frontend.cache_served",
            help="global-list requests answered from the list cache",
        )
        self._g_queue = metrics.gauge(
            "service.frontend.queue_depth", help="requests waiting for a worker"
        )
        self._h_latency = metrics.histogram(
            "service.request.latency_s",
            help="request latency, submit to response (backend-served only)",
        )
        self._h_by_action = {
            action: metrics.histogram(f"service.request.latency_s.{action}")
            for action in sorted(ACTION_CLASSES)
        }

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a worker (excludes the in-flight ones)."""
        return len(self._queue)

    # -- submission -------------------------------------------------------

    def submit(
        self,
        action: str,
        client_id: int,
        callback: ResponseCallback,
        broadcast_id: Optional[int] = None,
        viewer_id: Optional[int] = None,
        broadcaster_id: Optional[int] = None,
    ) -> Request:
        """Submit one request; the response arrives via ``callback``."""
        if action not in ACTION_CLASSES:
            raise ValueError(f"unknown action {action!r}; known: {sorted(ACTION_CLASSES)}")
        now = self.simulator.now
        request = Request(
            request_id=self._next_request_id,
            action=action,
            client_id=client_id,
            submitted_at=now,
            broadcast_id=broadcast_id,
            viewer_id=viewer_id,
            broadcaster_id=broadcaster_id,
        )
        self._next_request_id += 1
        self._m_requests.inc()
        if self.admission is not None:
            verdict = self.admission.admit(
                request.api_class, now, queue_depth=len(self._queue) + self._busy
            )
            if verdict is not None:
                # Shed at the door: answered in the same instant as a
                # separate event, so the caller's stack has unwound.
                self.simulator.schedule(
                    0.0,
                    lambda: self._respond(
                        callback,
                        Response(
                            request=request,
                            status=SHED,
                            completed_at=self.simulator.now,
                            detail=verdict,
                        ),
                    ),
                    label="serve-shed",
                )
                return request
        if action == "global_list":
            cached = self.lists.cache_lookup(now)
            if cached is not None:
                self._m_cache_served.inc()
                self.simulator.schedule(
                    CACHE_HIT_TIME_S,
                    lambda: self._respond(
                        callback,
                        Response(
                            request=request,
                            status=OK,
                            completed_at=self.simulator.now,
                            page=cached.restamped(self.simulator.now),
                            detail="cache",
                        ),
                        record_latency=True,
                    ),
                    label="serve-cache",
                )
                return request
        self._queue.append((request, callback))
        self._g_queue.set(float(len(self._queue)))
        self._pump()
        return request

    # -- the worker loop --------------------------------------------------

    def _pump(self) -> None:
        while self._busy < CONCURRENCY and self._queue:
            request, callback = self._queue.popleft()
            self._g_queue.set(float(len(self._queue)))
            self._busy += 1
            self.simulator.schedule(
                SERVICE_TIMES_S[request.action],
                lambda request=request, callback=callback: self._execute(
                    request, callback
                ),
                label=f"serve:{request.action}",
            )

    def _execute(self, request: Request, callback: ResponseCallback) -> None:
        """Run the backend call at the end of the request's service time."""
        now = self.simulator.now
        page: Optional[GlobalListPage] = None
        broadcast_id: Optional[int] = None
        status = OK
        detail = ""
        try:
            action = request.action
            if action == "global_list":
                page = self.lists.query(now, self.rng)
            elif action == "join":
                self.broadcasts.join(request.broadcast_id, request.viewer_id, now)
            elif action == "comment":
                if not self.broadcasts.comment(
                    request.broadcast_id, request.viewer_id, now
                ):
                    detail = "comment_cap"
            elif action == "heart":
                self.broadcasts.heart(request.broadcast_id, request.viewer_id, now)
            elif action == "start_broadcast":
                started = self.broadcasts.start_broadcast(request.broadcaster_id, now)
                broadcast_id = started.broadcast_id
            else:  # end_broadcast (submit() validated the action set)
                self.broadcasts.end_broadcast(request.broadcast_id, now)
                broadcast_id = request.broadcast_id
        except ServiceUnavailable as exc:
            status = UNAVAILABLE
            detail = str(exc)
        except ServiceError as exc:
            status = ERROR
            detail = str(exc)
        self._busy -= 1
        self._respond(
            callback,
            Response(
                request=request,
                status=status,
                completed_at=now,
                page=page,
                broadcast_id=broadcast_id,
                detail=detail,
            ),
            record_latency=True,
        )
        self._pump()

    def _respond(
        self,
        callback: ResponseCallback,
        response: Response,
        record_latency: bool = False,
    ) -> None:
        if record_latency:
            # Shed responses are excluded: their near-zero turnaround would
            # make an overloaded run look *faster* than a healthy one.
            self._h_latency.observe(response.latency_s)
            self._h_by_action[response.request.action].observe(response.latency_s)
        self._m_status[response.status].inc()
        callback(response)
