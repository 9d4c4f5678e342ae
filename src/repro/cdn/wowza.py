"""The Wowza ingest server.

One :class:`WowzaIngest` per ingest datacenter.  For each broadcast it:

* accepts the broadcaster's RTMP upload as per-frame capture and arrival
  arrays (timestamps ① / ⑤ and ② / ⑥ of Figure 10),
* hands every RTMP subscriber (the low-latency tier) the frames that
  reach the server after it subscribed, as one batch of arrays,
* assembles frames into chunks of ``frames_per_chunk`` (75 ≙ 3 s): one
  simulation event per chunk, at the arrival of its last frame, records
  the chunk-ready timestamp ⑦, appends to the broadcast's chunklist, and
  notifies the Fastly edges so they expire their cached copies (⑧).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from repro.geo.datacenters import Datacenter
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.protocols.frames import Chunk
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator


class RtmpSubscriber(Protocol):
    """Anything that can receive pushed RTMP frames."""

    def push_frames(
        self,
        broadcast_id: int,
        sequences: np.ndarray,
        captures: np.ndarray,
        pushed_at: np.ndarray,
    ) -> None:
        """Called once: frame ``sequences[i]`` (captured ``captures[i]``)
        reaches the server and is pushed at ``pushed_at[i]``."""


#: Callback signature for chunklist-expiry notifications (Figure 10 ⑧).
ExpiryListener = Callable[[int, int, float], None]  # (broadcast_id, version, time)

_NO_FRAMES = np.empty(0)


@dataclass
class IngestRecord:
    """Per-broadcast measurements collected at the ingest server.

    ``frame_arrivals`` (②/⑥) and ``frame_captures`` (①/⑤) are float64
    arrays indexed by frame sequence.
    """

    broadcast_id: int
    token: str
    frame_arrivals: np.ndarray = field(default_factory=lambda: _NO_FRAMES)
    frame_captures: np.ndarray = field(default_factory=lambda: _NO_FRAMES)
    chunk_ready: dict[int, float] = field(default_factory=dict)  # index -> ⑦
    chunks: dict[int, Chunk] = field(default_factory=dict)

    def upload_delay_s(self, sequence: int) -> float:
        """Per-frame upload delay (② − ①)."""
        return float(self.frame_arrivals[sequence] - self.frame_captures[sequence])

    def chunk_arrival_times(self) -> list[float]:
        """Chunk-ready times in index order (the RTMP-side chunk trace)."""
        return [self.chunk_ready[index] for index in sorted(self.chunk_ready)]


class _BroadcastIngest:
    """Mutable per-broadcast state inside a Wowza server."""

    def __init__(self, broadcast_id: int, token: str, frames_per_chunk: int) -> None:
        self.record = IngestRecord(broadcast_id=broadcast_id, token=token)
        self.frames_per_chunk = frames_per_chunk
        self.frame_duration_s = 0.0
        self.ingest_time: Optional[float] = None
        self.chunklist = Chunklist()
        self.next_chunk_index = 0
        self.rtmp_subscribers: list[RtmpSubscriber] = []
        self.live = True


class WowzaIngest:
    """An ingest datacenter handling many concurrent broadcasts."""

    def __init__(
        self,
        datacenter: Datacenter,
        simulator: Simulator,
        frames_per_chunk: int = 75,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        if frames_per_chunk <= 0:
            raise ValueError("frames_per_chunk must be positive")
        self.datacenter = datacenter
        self.simulator = simulator
        self.frames_per_chunk = frames_per_chunk
        #: Fault surface (set by repro.faults): while False, origin pulls
        #: against this server fail at the edge; ingest itself continues.
        self.origin_available: bool = True
        #: Fault surface: multiplies edge→origin pull transfer times while
        #: the server is degraded (overloaded Wowza, §5 delay spikes).
        self.fault_delay_factor: float = 1.0
        self._broadcasts: dict[int, _BroadcastIngest] = {}
        self._expiry_listeners: dict[int, list[ExpiryListener]] = {}
        self._m_frames = metrics.counter("cdn.wowza.frames_received", help="RTMP frames ingested")
        self._m_chunks = metrics.counter("cdn.wowza.chunks_completed", help="HLS chunks assembled")
        self._m_starts = metrics.counter("cdn.wowza.broadcasts_started")
        self._m_ends = metrics.counter("cdn.wowza.broadcasts_ended")
        self._m_live = metrics.gauge("cdn.wowza.live_broadcasts", help="broadcasts ingesting now")
        self._m_pushes = metrics.counter("cdn.wowza.rtmp_frames_pushed", help="frames fanned out to RTMP subscribers")

    # -- broadcast lifecycle -------------------------------------------

    def start_broadcast(
        self, broadcast_id: int, token: str, frames_per_chunk: Optional[int] = None
    ) -> None:
        if broadcast_id in self._broadcasts:
            raise ValueError(f"broadcast {broadcast_id} already ingesting")
        self._broadcasts[broadcast_id] = _BroadcastIngest(
            broadcast_id, token, frames_per_chunk or self.frames_per_chunk
        )
        self._m_starts.inc()
        self._m_live.inc()

    def end_broadcast(self, broadcast_id: int) -> IngestRecord:
        """Flush the trailing partial chunk and close the broadcast."""
        state = self._state(broadcast_id)
        arrivals = state.record.frame_arrivals
        if state.live and arrivals.size and arrivals[-1] > self.simulator.now:
            raise ValueError(f"broadcast {broadcast_id} ended before its last frame arrived")
        flushed = state.next_chunk_index * state.frames_per_chunk
        if flushed < arrivals.size:
            self._complete_chunk(state, arrivals.size - flushed)
        if state.live:
            self._m_ends.inc()
            self._m_live.dec()
        state.live = False
        return state.record

    def is_live(self, broadcast_id: int) -> bool:
        state = self._broadcasts.get(broadcast_id)
        return state is not None and state.live

    def record_for(self, broadcast_id: int) -> IngestRecord:
        return self._state(broadcast_id).record

    # -- ingest ----------------------------------------------------------

    def ingest(
        self,
        broadcast_id: int,
        captures: np.ndarray,
        arrivals: np.ndarray,
        frame_duration_s: float,
    ) -> None:
        """Take a broadcast's whole upload: frame ``i`` is captured at
        ``captures[i]`` and reaches this server at ``arrivals[i]`` (FIFO, so
        non-decreasing).  Each full chunk becomes one event at its last
        frame's arrival; :meth:`end_broadcast` flushes the remainder.
        """
        state = self._state(broadcast_id)
        if not state.live or state.record.frame_arrivals.size:
            raise ValueError(f"broadcast {broadcast_id} already ingested or ended")
        if captures.shape != arrivals.shape or np.any(
            np.diff(arrivals, prepend=self.simulator.now) < 0
        ):
            raise ValueError("arrivals must match captures, be ordered and not in the past")
        state.record.frame_captures = captures
        state.record.frame_arrivals = arrivals
        state.frame_duration_s = frame_duration_s
        state.ingest_time = self.simulator.now
        self._m_frames.inc(arrivals.size)
        size = state.frames_per_chunk
        for last in range(size - 1, arrivals.size, size):
            self.simulator.schedule_at(
                float(arrivals[last]),
                lambda: self._complete_chunk(state, size),
                label=f"chunk:{broadcast_id}:{last // size}",
            )
        for subscriber in state.rtmp_subscribers:
            self._push(state, subscriber)

    def _complete_chunk(self, state: _BroadcastIngest, frame_count: int) -> None:
        now = self.simulator.now
        first = state.next_chunk_index * state.frames_per_chunk
        chunk = Chunk(
            index=state.next_chunk_index,
            first_sequence=first,
            frame_count=frame_count,
            first_capture_time=float(state.record.frame_captures[first]),
            # A per-frame sum, not count * duration: the float bits differ.
            duration_s=sum([state.frame_duration_s] * frame_count),
            completed_time=now,
        )
        state.next_chunk_index += 1
        self._m_chunks.inc()
        state.record.chunk_ready[chunk.index] = now
        state.record.chunks[chunk.index] = chunk
        state.chunklist.append(chunk.index, chunk.duration_s, now)
        for listener in self._expiry_listeners.get(state.record.broadcast_id, []):
            listener(state.record.broadcast_id, state.chunklist.version, now)

    # -- RTMP fan-out ------------------------------------------------------

    def subscribe_rtmp(self, broadcast_id: int, subscriber: RtmpSubscriber) -> None:
        """Join the push tier.  A subscriber receives, in one call, every
        frame that reaches the server after it subscribes.  A frame arriving
        at the instant of subscription counts as already sent, except at the
        ingest instant: frames landing then reach every subscriber of that
        instant, as their per-frame deliveries would not have fired yet."""
        state = self._state(broadcast_id)
        state.rtmp_subscribers.append(subscriber)
        self._push(state, subscriber)

    def _push(self, state: _BroadcastIngest, subscriber: RtmpSubscriber) -> None:
        arrivals = state.record.frame_arrivals
        now = self.simulator.now
        side = "left" if now == state.ingest_time else "right"
        first = int(np.searchsorted(arrivals, now, side=side))
        if first == arrivals.size:
            return
        self._m_pushes.inc(arrivals.size - first)
        subscriber.push_frames(
            state.record.broadcast_id,
            np.arange(first, arrivals.size),
            state.record.frame_captures[first:],
            arrivals[first:],
        )

    # -- origin interface for Fastly ---------------------------------------

    def add_expiry_listener(self, broadcast_id: int, listener: ExpiryListener) -> None:
        self._expiry_listeners.setdefault(broadcast_id, []).append(listener)

    def chunklist_snapshot(self, broadcast_id: int) -> Chunklist:
        return self._state(broadcast_id).chunklist.copy()

    def get_chunk(self, broadcast_id: int, index: int) -> Chunk:
        chunks = self._state(broadcast_id).record.chunks
        if index not in chunks:
            raise KeyError(f"chunk {index} not (yet) available for {broadcast_id}")
        return chunks[index]

    def _state(self, broadcast_id: int) -> _BroadcastIngest:
        if broadcast_id not in self._broadcasts:
            raise KeyError(f"broadcast {broadcast_id} not ingesting here")
        return self._broadcasts[broadcast_id]
