"""The fine-grained delay crawler (§4.3).

Two instruments, mirroring the paper's passive measurement setup:

* an RTMP crawler that joins a broadcast immediately with a zero-length
  stream buffer and keeps every frame's arrival (timestamp ②) next to
  the capture timestamp embedded in the keyframe metadata (①);
* an HLS crawler that polls a Fastly POP on a 0.1 s grid — 20× faster
  than a real viewer — so it both observes chunk availability (⑪) the
  moment it happens and *triggers* the origin pull the instant the
  chunklist expires, pinning the Wowza2Fastly measurement (⑪−⑦) tight.

The grid is kept, but a poll a fresh POP cache would answer is not issued:
it changes no availability, pull or rng draw.  After a poll that leaves the
cache fresh the crawler sleeps until the POP's next expiry notification and
resumes at the first grid time at or after it; while the cache is stale
(pull in flight, origin down, breaker open) it polls every step.
``FastlyEdge.poll_count`` therefore counts only the polls actually issued.
A poll the POP refuses while it is down counts in ``failed_polls``, and
the crawler keeps stepping the grid as it does for a stale cache.

Crawlers were deployed co-located with each datacenter (the paper used
nearby EC2 sites), so their own network delay is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.fastly import EdgeUnavailable, FastlyEdge
from repro.cdn.wowza import WowzaIngest
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator

#: The HLS crawler's poll grid step (§4.3: 0.1 s, 20× a real viewer's rate).
POLL_INTERVAL_S = 0.1


@dataclass(frozen=True)
class ChunkObservation:
    """One chunk seen by the HLS crawler."""

    chunk_index: int
    ready_time: float  # ⑦ (from the RTMP-side record)
    available_time: float  # ⑪ first availability at the POP


@dataclass
class DelayCrawler:
    """Joins one broadcast with both crawler instruments."""

    broadcast_id: int
    simulator: Simulator
    stop_after: float = float("inf")
    #: RTMP side, in sequence order: frame, capture ① and server time ②.
    frame_sequences: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    frame_captures: np.ndarray = field(default_factory=lambda: np.empty(0))
    frame_arrivals: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: HLS polls refused by a downed POP (``EdgeUnavailable``).
    failed_polls: int = field(default=0, init=False)
    _edge: FastlyEdge | None = field(default=None, init=False)
    _stopped: bool = field(default=False, init=False)
    _last_poll: float = field(default=0.0, init=False)  # latest grid time polled
    _asleep: bool = field(default=False, init=False)  # waiting for an expiry

    # -- RTMP side -------------------------------------------------------

    def attach_rtmp(self, wowza: WowzaIngest) -> None:
        """Subscribe with a zero buffer: frames recorded the moment Wowza
        pushes them (the crawler is co-located, last mile ≈ 0)."""
        wowza.subscribe_rtmp(self.broadcast_id, self)

    def push_frames(
        self,
        broadcast_id: int,
        sequences: np.ndarray,
        captures: np.ndarray,
        pushed_at: np.ndarray,
    ) -> None:
        """RtmpSubscriber protocol."""
        if broadcast_id != self.broadcast_id:
            raise ValueError("frames for wrong broadcast")
        self.frame_sequences = sequences
        self.frame_captures = captures
        self.frame_arrivals = pushed_at

    # -- HLS side ----------------------------------------------------------

    def attach_hls(self, edge: FastlyEdge) -> None:
        """Start 0.1 s polling against ``edge`` (must already be attached
        to the broadcast).  An edge with a front-end queue is refused: there
        an idle poll would cost service time, so skipping it is not free."""
        if edge.queue is not None:
            raise ValueError("the HLS crawler skips idle polls; it cannot poll a queued POP")
        self._edge = edge
        edge.watch_expiry(self.broadcast_id, self._on_expiry)
        self.simulator.schedule(0.0, self._poll, label=f"crawler-poll:{self.broadcast_id}")

    def stop(self) -> None:
        self._stopped = True

    def _poll(self) -> None:
        if self._stopped or self._edge is None or self.simulator.now > self.stop_after:
            return
        self._last_poll = self.simulator.now
        try:
            self._edge.poll(self.broadcast_id, self._on_chunklist)
        except EdgeUnavailable:
            self.failed_polls += 1
        else:
            if not self._edge.is_stale(self.broadcast_id):
                self._asleep = True
                return
        self.simulator.schedule(
            POLL_INTERVAL_S, self._poll, label=f"crawler-poll:{self.broadcast_id}"
        )

    def _on_expiry(self) -> None:
        """Wake at the first grid time at or after the expiry, stepping the
        grid as the poll chain does (each time the previous plus the
        interval, in float)."""
        if not self._asleep:
            return
        self._asleep = False
        wake = self._last_poll + POLL_INTERVAL_S
        while wake < self.simulator.now:
            wake += POLL_INTERVAL_S
        self.simulator.schedule_at(wake, self._poll, label=f"crawler-poll:{self.broadcast_id}")

    def _on_chunklist(self, chunklist: Chunklist, response_time: float) -> None:
        # Availability is recorded by the edge itself; nothing to do here.
        del chunklist, response_time

    # -- results -------------------------------------------------------------

    def frame_arrival_trace(self) -> np.ndarray:
        """Frame arrival times at the ingest server, sequence order."""
        return self.frame_arrivals

    def chunk_observations(self, wowza: WowzaIngest) -> list[ChunkObservation]:
        """Join the RTMP-side chunk-ready record with POP availability."""
        if self._edge is None:
            raise RuntimeError("HLS crawler was never attached")
        record = wowza.record_for(self.broadcast_id)
        availability = self._edge.availability_map(self.broadcast_id)
        observations = []
        # The sorted() is load-bearing: the unordered-set-iteration lint rule
        # fails the build if this intersection is ever iterated bare.
        for index in sorted(set(record.chunk_ready) & set(availability)):
            observations.append(
                ChunkObservation(
                    chunk_index=index,
                    ready_time=record.chunk_ready[index],
                    available_time=availability[index],
                )
            )
        return observations

    def chunk_availability_trace(self) -> np.ndarray:
        """Chunk availability times ⑪ at the polled POP, index order."""
        if self._edge is None:
            raise RuntimeError("HLS crawler was never attached")
        return np.array(self._edge.availability_times(self.broadcast_id))

    def wowza2fastly_delays(self, wowza: WowzaIngest) -> np.ndarray:
        """Per-chunk ⑪ − ⑦ (the Figure 15 quantity)."""
        observations = self.chunk_observations(wowza)
        return np.array([o.available_time - o.ready_time for o in observations])
