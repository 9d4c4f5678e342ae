"""Viewer clients: the RTMP push tier and the HLS poll tier.

Both clients record per-unit arrival timestamps (③ for RTMP frames, ⑫/⑮
for HLS chunks); playback itself is evaluated offline by
:mod:`repro.core.playback` over these arrival traces, mirroring the
paper's trace-driven methodology (§6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cdn.fastly import EdgeUnavailable, FastlyEdge
from repro.cdn.wowza import WowzaIngest
from repro.client.network import LastMileLink
from repro.faults.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.protocols.frames import Chunk
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator


@dataclass
class RtmpViewerClient:
    """A viewer on the low-latency push tier.

    Subscribes to the broadcaster's Wowza server; every frame reaching it
    after the join is pushed immediately and crosses the viewer's last
    mile.  Frames are kept as arrays (sequence, capture ①, arrival ③).
    """

    viewer_id: int
    broadcast_id: int
    simulator: Simulator
    downlink: LastMileLink
    metrics: MetricsRegistry = field(default=NULL_REGISTRY, repr=False)
    frame_sequences: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    frame_arrivals: np.ndarray = field(default_factory=lambda: np.empty(0))
    frame_captures: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        self._m_frames = self.metrics.counter(
            "client.rtmp.frames_received", help="frames delivered to RTMP viewers"
        )

    def attach(self, wowza: WowzaIngest) -> None:
        wowza.subscribe_rtmp(self.broadcast_id, self)

    def push_frames(
        self,
        broadcast_id: int,
        sequences: np.ndarray,
        captures: np.ndarray,
        pushed_at: np.ndarray,
    ) -> None:
        """RtmpSubscriber protocol: the server pushed these frames."""
        if broadcast_id != self.broadcast_id:
            raise ValueError(f"frames for wrong broadcast {broadcast_id}")
        self.frame_sequences = sequences
        self.frame_captures = captures
        self.frame_arrivals = self.downlink.send_many(pushed_at)
        self._m_frames.inc(len(sequences))

    def arrival_trace(self) -> np.ndarray:
        """Frame arrival times in sequence order."""
        return self.frame_arrivals

    def end_to_end_delays(self) -> np.ndarray:
        """Per-frame network delay ③ − ① (buffering excluded)."""
        return self.frame_arrivals - self.frame_captures


@dataclass
class HlsViewerClient:
    """A viewer on the scalable poll tier.

    Polls its edge POP's chunklist every ``poll_interval_s`` (Periscope:
    uniform in 2–2.8 s), downloads chunks it has not seen, and records
    their arrival times.

    Resilience (both opt-in; the defaults reproduce the naive seed client):

    * ``retry_policy`` — when a poll fails with
      :class:`~repro.cdn.fastly.EdgeUnavailable` (or times out, if the
      policy sets a finite ``attempt_timeout_s``), retry with backoff
      instead of waiting a full poll interval.
    * ``failover_edges`` — once retries against the current POP are
      exhausted, re-resolve to the next candidate POP (use
      :meth:`repro.cdn.assignment.CdnAssignment.ranked_fastly_for_viewer`)
      and resume the chunklist from the last downloaded sequence.  Every
      candidate must have the broadcast attached.

    A naive client (no policy) swallows the failure and keeps its normal
    cadence against the same POP — it tolerates faults but never adapts.
    """

    viewer_id: int
    broadcast_id: int
    simulator: Simulator
    edge: FastlyEdge
    downlink: LastMileLink
    poll_interval_s: float = 2.4
    chunk_kb: float = 300.0
    stop_after: float = float("inf")
    retry_policy: Optional[RetryPolicy] = None
    failover_edges: Sequence[FastlyEdge] = ()
    metrics: MetricsRegistry = field(default=NULL_REGISTRY, repr=False)
    chunk_arrivals: dict[int, float] = field(default_factory=dict)
    chunk_captures: dict[int, float] = field(default_factory=dict)  # ⑤ per chunk
    chunk_response_times: dict[int, float] = field(default_factory=dict)  # ⑭ per chunk
    poll_times: list[float] = field(default_factory=list)
    poll_failures: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    failovers: int = field(default=0, init=False)
    _last_downloaded: Optional[int] = field(default=None, init=False)
    _stopped: bool = field(default=False, init=False)
    _loop_epoch: int = field(default=0, init=False)
    _attempt: int = field(default=0, init=False)
    _outage_started: Optional[float] = field(default=None, init=False)
    _ring_index: int = field(default=0, init=False)
    _poll_seq: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        # Failover ring: the primary POP first, then the other candidates
        # in the order given (nearest-first when built from the ranked
        # assignment).
        ring = [self.edge]
        for candidate in self.failover_edges:
            if candidate is not self.edge:
                ring.append(candidate)
        self._ring = ring
        self._outstanding: set[int] = set()
        obs = self.metrics
        self._m_polls = obs.counter("client.hls.polls", help="chunklist polls sent")
        self._m_empty = obs.counter(
            "client.hls.empty_polls", help="polls that surfaced no new chunk (stall signal)"
        )
        self._m_chunks = obs.counter("client.hls.chunks_downloaded")
        self._m_poll_failures = obs.counter(
            "client.hls.poll_failures", help="polls that failed (POP down or timed out)"
        )
        self._m_retries = obs.counter("client.hls.retries", help="backoff retries scheduled")
        self._m_failovers = obs.counter(
            "client.hls.failovers", help="re-resolutions to another POP"
        )
        self._m_timeouts = obs.counter(
            "client.hls.poll_timeouts", help="poll responses abandoned after attempt_timeout_s"
        )
        self._h_recovery = obs.histogram(
            "resilience.recovery_time_s",
            help="outage start to first successful response",
        )

    def start_polling(self, first_poll_at: float) -> None:
        self._schedule_poll_at(first_poll_at)

    def stop(self) -> None:
        self._stopped = True

    # -- the poll loop -----------------------------------------------------
    #
    # Exactly one pending tick drives the loop.  Every (re)schedule bumps
    # ``_loop_epoch``, and stale ticks return immediately, so the retry and
    # watchdog paths can reschedule aggressively without ever forking the
    # loop into two concurrent cadences.

    def _schedule_poll_at(self, time: float) -> None:
        self._loop_epoch += 1
        self.simulator.schedule_at(
            max(time, self.simulator.now),
            _PollTick(self, self._loop_epoch),
            label=f"hls-poll:{self.viewer_id}",
        )

    def _schedule_poll(self, delay: float) -> None:
        self._schedule_poll_at(self.simulator.now + delay)

    def _poll(self, epoch: int) -> None:
        if epoch != self._loop_epoch:
            return  # superseded by a retry/failover reschedule
        if self._stopped or self.simulator.now > self.stop_after:
            return
        now = self.simulator.now
        self.poll_times.append(now)
        self._m_polls.inc()
        policy = self.retry_policy
        seq: Optional[int] = None
        if policy is not None and math.isfinite(policy.attempt_timeout_s):
            self._poll_seq += 1
            seq = self._poll_seq
            self._outstanding.add(seq)
        callback = self._on_chunklist if seq is None else _TrackedResponse(self, seq)
        try:
            self.edge.poll(self.broadcast_id, callback)
        except EdgeUnavailable:
            if seq is not None:
                self._outstanding.discard(seq)
            self.poll_failures += 1
            self._m_poll_failures.inc()
            if self._outage_started is None:
                self._outage_started = now
            self._handle_poll_failure()
            return
        if seq is not None and seq in self._outstanding:
            # The response is deferred (queued or waiting on an origin
            # pull): arm a watchdog so a hung attempt cannot stall us.
            self.simulator.schedule(
                policy.attempt_timeout_s,
                _PollWatchdog(self, seq),
                label=f"hls-watchdog:{self.viewer_id}",
            )
        self._schedule_poll(self.poll_interval_s)

    def _handle_poll_failure(self) -> None:
        policy = self.retry_policy
        if policy is None:
            # Naive client: skip this cycle, keep the cadence.
            self._schedule_poll(self.poll_interval_s)
            return
        delay = policy.next_delay(
            self._attempt, elapsed_s=self.simulator.now - self._outage_started
        )
        if delay is not None:
            self._attempt += 1
            self.retries += 1
            self._m_retries.inc()
            self._schedule_poll(delay)
            return
        self._failover()

    def _failover(self) -> None:
        """Re-resolve to the next candidate POP and resume from the last
        downloaded chunk (``_last_downloaded`` carries across edges)."""
        if len(self._ring) > 1:
            self._ring_index = (self._ring_index + 1) % len(self._ring)
            self.edge = self._ring[self._ring_index]
            self.failovers += 1
            self._m_failovers.inc()
        self._attempt = 0
        # Probe the new POP after the base backoff, not a full interval.
        assert self.retry_policy is not None
        self._schedule_poll(self.retry_policy.base_delay_s)

    def _on_poll_timeout(self, seq: int) -> None:
        if seq not in self._outstanding:
            return  # the response arrived in time
        self._outstanding.discard(seq)
        self.poll_failures += 1
        self._m_poll_failures.inc()
        self._m_timeouts.inc()
        if self._outage_started is None:
            self._outage_started = self.simulator.now
        self._handle_poll_failure()

    def _on_chunklist(
        self, chunklist: Chunklist, response_time: float, seq: Optional[int] = None
    ) -> None:
        if seq is not None:
            self._outstanding.discard(seq)
        if self._stopped:
            return
        if self._outage_started is not None:
            self._h_recovery.observe(response_time - self._outage_started)
            self._outage_started = None
        self._attempt = 0
        fetched = 0
        for entry in chunklist.entries_after(self._last_downloaded):
            try:
                chunk = self.edge.chunk_payload(self.broadcast_id, entry.chunk_index)
            except KeyError:
                # A late response from a POP we already failed away from;
                # the current POP will serve these on the next poll.
                break
            self._last_downloaded = entry.chunk_index
            self.chunk_response_times[entry.chunk_index] = response_time
            arrival = self.downlink.send(response_time, size_kb=self.chunk_kb)
            self.simulator.schedule_at(
                max(arrival, self.simulator.now),
                _RecordChunk(self, chunk),
                label=f"hls-dl:{self.viewer_id}:{entry.chunk_index}",
            )
            fetched += 1
        if fetched:
            self._m_chunks.inc(fetched)
        else:
            self._m_empty.inc()

    def _record(self, chunk: Chunk, time: float) -> None:
        self.chunk_arrivals[chunk.index] = time
        self.chunk_captures[chunk.index] = chunk.first_capture_time

    def arrival_trace(self) -> np.ndarray:
        """Chunk arrival times in index order."""
        return np.array([self.chunk_arrivals[i] for i in sorted(self.chunk_arrivals)])

    def end_to_end_delays(self) -> np.ndarray:
        """Per-chunk network delay ⑮ − ⑤ (buffering excluded)."""
        indices = sorted(self.chunk_arrivals)
        return np.array([self.chunk_arrivals[i] - self.chunk_captures[i] for i in indices])


class _RecordChunk:
    def __init__(self, client: HlsViewerClient, chunk: Chunk) -> None:
        self._client = client
        self._chunk = chunk

    def __call__(self) -> None:
        self._client._record(self._chunk, self._client.simulator.now)


class _PollTick:
    """One scheduled iteration of a viewer's poll loop."""

    def __init__(self, client: HlsViewerClient, epoch: int) -> None:
        self._client = client
        self._epoch = epoch

    def __call__(self) -> None:
        self._client._poll(self._epoch)


class _TrackedResponse:
    """A poll callback that clears its watchdog on arrival."""

    def __init__(self, client: HlsViewerClient, seq: int) -> None:
        self._client = client
        self._seq = seq

    def __call__(self, chunklist: Chunklist, response_time: float) -> None:
        self._client._on_chunklist(chunklist, response_time, seq=self._seq)


class _PollWatchdog:
    """Fires if a poll response has not arrived within the attempt timeout."""

    def __init__(self, client: HlsViewerClient, seq: int) -> None:
        self._client = client
        self._seq = seq

    def __call__(self) -> None:
        self._client._on_poll_timeout(self._seq)
