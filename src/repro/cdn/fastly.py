"""The Fastly edge POP.

Each :class:`FastlyEdge` caches per-broadcast chunklists.  The cache-fill
protocol follows Figure 10(b): when Wowza completes a chunk it notifies the
edge to *expire* its cached chunklist (⑧); the next viewer poll (⑨) after
expiry triggers an origin pull (⑩) through the gateway path; the fresh
chunk arrives (⑪) and serves that poller and everyone after (⑭).

The edge records the availability timestamp ⑪ of every chunk — the series
the paper's high-frequency crawler measured and that drives the polling
(Figures 12–13) and Wowza2Fastly (Figure 15) analyses.

Failure modes (driven by :mod:`repro.faults`): the POP itself can be taken
down (polls raise :class:`EdgeUnavailable`, the viewer's retry/failover
path) or degraded (origin-pull transfers slow down), and the *origin* can
become unavailable, in which case pulls fail and waiting pollers are
answered with the stale cached chunklist.  An optional circuit breaker
guards the origin-pull path ⑩: after repeated pull failures it opens and
the edge serves stale immediately — graceful degradation instead of
hammering a dead origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cdn.queueing import ServerQueue
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.geo.datacenters import Datacenter
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator
from repro.simulation.resilience import CircuitBreaker

#: Poll response callback: (chunklist snapshot, response time).
PollCallback = Callable[[Chunklist, float], None]

#: Called after each expiry notification (⑧) has marked the cache stale.
ExpiryWatcher = Callable[[], None]


class EdgeUnavailable(Exception):
    """Raised by :meth:`FastlyEdge.poll` while the POP is down.

    The synchronous failure channel viewers retry and fail over on (see
    :class:`repro.simulation.resilience.RetryPolicy` and
    :class:`repro.client.viewer_client.HlsViewerClient`).
    """


@dataclass
class _EdgeBroadcastState:
    origin: WowzaIngest
    local_list: Chunklist = field(default_factory=Chunklist)
    known_origin_version: int = 0  # latest version the expiry channel announced
    fetch_in_flight: bool = False
    waiting_polls: list[PollCallback] = field(default_factory=list)
    availability: dict[int, float] = field(default_factory=dict)  # chunk -> ⑪
    poll_count: int = 0
    origin_pulls: int = 0
    pull_failures: int = 0
    stale_served: int = 0
    breaker: Optional[CircuitBreaker] = None
    expiry_watchers: list[ExpiryWatcher] = field(default_factory=list)

    @property
    def is_stale(self) -> bool:
        return self.local_list.version < self.known_origin_version


class FastlyEdge:
    """One edge POP serving HLS viewers."""

    def __init__(
        self,
        datacenter: Datacenter,
        simulator: Simulator,
        transfer_model: TransferModel,
        rng: np.random.Generator,
        metrics: MetricsRegistry = NULL_REGISTRY,
        queue: Optional[ServerQueue] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
    ) -> None:
        self.datacenter = datacenter
        self.simulator = simulator
        self.transfer_model = transfer_model
        self.rng = rng
        #: Fault surface (set by repro.faults): while True, polls raise
        #: :class:`EdgeUnavailable`.
        self.fault_down: bool = False
        #: Fault surface: multiplies origin-pull transfer times while the
        #: POP is degraded (1.0 = healthy).
        self.fault_delay_factor: float = 1.0
        #: Optional front-end work queue: when present, poll responses pay
        #: the queueing + service delay (the volume→latency link).
        self.queue = queue
        self._breaker_factory = breaker_factory
        self._broadcasts: dict[int, _EdgeBroadcastState] = {}
        self._m_polls = metrics.counter("cdn.fastly.polls", help="chunklist polls served")
        self._m_hits = metrics.counter("cdn.fastly.cache_hits", help="polls answered from a fresh cache")
        self._m_misses = metrics.counter("cdn.fastly.cache_misses", help="polls that found the cache stale")
        self._m_pulls = metrics.counter("cdn.fastly.origin_pulls", help="cache fills from the origin")
        self._m_pull_delay = metrics.histogram("cdn.fastly.pull_delay_s", help="origin pull transfer time")
        self._m_poll_errors = metrics.counter("cdn.fastly.poll_errors", help="polls rejected because the POP was down")
        self._m_pull_failures = metrics.counter("cdn.fastly.pull_failures", help="origin pulls that failed (origin down)")
        self._m_stale = metrics.counter("cdn.fastly.stale_served", help="polls answered with a stale chunklist during origin trouble")

    # -- wiring ----------------------------------------------------------

    def attach_broadcast(self, broadcast_id: int, origin: WowzaIngest) -> None:
        """Start serving a broadcast from ``origin``; subscribes to expiry
        notifications (the ⑧ channel)."""
        if broadcast_id in self._broadcasts:
            raise ValueError(f"broadcast {broadcast_id} already attached")
        state = _EdgeBroadcastState(origin=origin)
        if self._breaker_factory is not None:
            state.breaker = self._breaker_factory()
        self._broadcasts[broadcast_id] = state
        origin.add_expiry_listener(broadcast_id, self._on_expiry)

    def _on_expiry(self, broadcast_id: int, origin_version: int, _time: float) -> None:
        state = self._state(broadcast_id)
        state.known_origin_version = max(state.known_origin_version, origin_version)
        for watcher in state.expiry_watchers:
            watcher()

    def watch_expiry(self, broadcast_id: int, watcher: ExpiryWatcher) -> None:
        """Call ``watcher()`` after every expiry notification (⑧) for the
        broadcast, once the cache has been marked stale.  Observes only."""
        self._state(broadcast_id).expiry_watchers.append(watcher)

    def is_stale(self, broadcast_id: int) -> bool:
        """Whether a poll now would miss: the origin has announced a version
        the cache lacks (a pull is in flight, failed, or was refused)."""
        return self._state(broadcast_id).is_stale

    # -- the poll path -----------------------------------------------------

    def poll(self, broadcast_id: int, callback: PollCallback) -> None:
        """An HLS viewer polls the chunklist (Figure 10 ⑨/⑭).

        Fresh cache: respond immediately.  Stale cache: the first poller
        triggers an origin pull; this and subsequent pollers are answered
        when the pull lands.  While the POP is down (fault injection),
        raises :class:`EdgeUnavailable` instead.
        """
        state = self._state(broadcast_id)
        if self.fault_down:
            self._m_poll_errors.inc()
            raise EdgeUnavailable(f"POP {self.datacenter.name} is down")
        state.poll_count += 1
        self._m_polls.inc()
        if not state.is_stale:
            self._m_hits.inc()
            self._respond(state, callback)
            return
        self._m_misses.inc()
        state.waiting_polls.append(callback)
        if not state.fetch_in_flight:
            self._start_origin_pull(broadcast_id, state)

    def _respond(self, state: _EdgeBroadcastState, callback: PollCallback) -> None:
        """Answer one poll with the current local chunklist.

        Without a front-end queue the response is immediate (the seed
        behaviour); with one, the callback fires when the queued poll
        request completes service.
        """
        if self.queue is None:
            callback(state.local_list.copy(), self.simulator.now)
            return
        completion = self.queue.serve_poll()
        self.simulator.schedule_at(
            completion,
            _QueuedResponse(self, state, callback),
            label=f"fastly-respond:{self.datacenter.name}",
        )

    def _serve_stale(self, state: _EdgeBroadcastState) -> None:
        """Answer all waiting polls with the stale cached chunklist."""
        waiters, state.waiting_polls = state.waiting_polls, []
        if not waiters:
            return
        state.stale_served += len(waiters)
        self._m_stale.inc(len(waiters))
        for callback in waiters:
            self._respond(state, callback)

    def _start_origin_pull(self, broadcast_id: int, state: _EdgeBroadcastState) -> None:
        breaker = state.breaker
        if breaker is not None and not breaker.allow_request(self.simulator.now):
            # Circuit open: don't hammer the dead origin — serve stale
            # immediately (Figure 10(b) path ⑩ guarded).
            self._serve_stale(state)
            return
        state.fetch_in_flight = True
        state.origin_pulls += 1
        self._m_pulls.inc()
        delay = self.transfer_model.transfer_delay_s(
            state.origin.datacenter, self.datacenter, self.rng
        )
        delay *= self.fault_delay_factor * state.origin.fault_delay_factor
        self._m_pull_delay.observe(delay)
        self.simulator.schedule(
            delay,
            lambda: self._finish_origin_pull(broadcast_id),
            label=f"fastly-pull:{self.datacenter.name}:{broadcast_id}",
        )

    def _finish_origin_pull(self, broadcast_id: int) -> None:
        state = self._state(broadcast_id)
        now = self.simulator.now
        state.fetch_in_flight = False
        if not state.origin.origin_available:
            # The pull failed: origin down.  Waiting pollers still get an
            # answer — the stale cached list — and the breaker (if any)
            # counts the failure toward opening.
            state.pull_failures += 1
            self._m_pull_failures.inc()
            if state.breaker is not None:
                state.breaker.record_failure(now)
            self._serve_stale(state)
            return
        if state.breaker is not None:
            state.breaker.record_success(now)
        fresh = state.origin.chunklist_snapshot(broadcast_id)
        previous_latest = state.local_list.latest_index
        for entry in fresh.entries_after(previous_latest):
            state.availability.setdefault(entry.chunk_index, now)
        state.local_list = fresh
        state.known_origin_version = max(state.known_origin_version, fresh.version)
        waiters, state.waiting_polls = state.waiting_polls, []
        for callback in waiters:
            self._respond(state, callback)
        # The snapshot is taken as the pull lands, so a chunk the origin
        # finished while it was in flight arrives with it: after a
        # successful pull the cache is fresh until the next expiry.

    # -- measurements -------------------------------------------------------

    def availability_times(self, broadcast_id: int) -> list[float]:
        """Chunk availability times ⑪ in chunk order."""
        availability = self._state(broadcast_id).availability
        return [availability[index] for index in sorted(availability)]

    def availability_map(self, broadcast_id: int) -> dict[int, float]:
        return dict(self._state(broadcast_id).availability)

    def poll_count(self, broadcast_id: int) -> int:
        return self._state(broadcast_id).poll_count

    def origin_pulls(self, broadcast_id: int) -> int:
        return self._state(broadcast_id).origin_pulls

    def pull_failures(self, broadcast_id: int) -> int:
        return self._state(broadcast_id).pull_failures

    def stale_served(self, broadcast_id: int) -> int:
        return self._state(broadcast_id).stale_served

    def chunk_payload(self, broadcast_id: int, index: int):
        """Fetch chunk bytes from the local cache (origin on miss)."""
        state = self._state(broadcast_id)
        if index not in state.availability:
            raise KeyError(f"chunk {index} not cached at {self.datacenter.name}")
        return state.origin.get_chunk(broadcast_id, index)

    def _state(self, broadcast_id: int) -> _EdgeBroadcastState:
        if broadcast_id not in self._broadcasts:
            raise KeyError(f"broadcast {broadcast_id} not attached to this POP")
        return self._broadcasts[broadcast_id]


class _QueuedResponse:
    """Deliver one queued poll response at service completion."""

    def __init__(
        self, edge: FastlyEdge, state: _EdgeBroadcastState, callback: PollCallback
    ) -> None:
        self._edge = edge
        self._state = state
        self._callback = callback

    def __call__(self) -> None:
        self._callback(self._state.local_list.copy(), self._edge.simulator.now)
