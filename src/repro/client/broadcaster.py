"""The broadcaster upload client.

Captures 40 ms frames and uploads them to the assigned Wowza ingest server
over a persistent RTMP connection.  Each frame's capture timestamp is
embedded in the stream metadata (keyframes carry it in the real app; we
stamp every frame) — this is timestamp ① / ⑤ of the delay breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.wowza import WowzaIngest
from repro.client.network import LastMileLink
from repro.simulation.engine import Simulator


@dataclass
class BroadcasterClient:
    """Streams one broadcast into the CDN.

    ``start`` computes the whole upload at once: frame ``i`` is captured at
    ``start_time + i * frame_interval``, one :meth:`LastMileLink.send_many`
    gives every arrival, and both arrays go to :meth:`WowzaIngest.ingest`.
    """

    broadcast_id: int
    token: str
    simulator: Simulator
    wowza: WowzaIngest
    uplink: LastMileLink
    frame_interval_s: float = 0.040
    frames_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.frame_interval_s <= 0:
            raise ValueError("frame interval must be positive")

    def start(self, start_time: float, duration_s: float) -> int:
        """Upload the whole broadcast; returns the number of frames."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        frame_count = int(duration_s / self.frame_interval_s)
        self.wowza.start_broadcast(self.broadcast_id, self.token)
        captures = start_time + np.arange(frame_count) * self.frame_interval_s
        arrivals = np.maximum(self.uplink.send_many(captures), self.simulator.now)
        self.wowza.ingest(self.broadcast_id, captures, arrivals, self.frame_interval_s)
        end_time = start_time + frame_count * self.frame_interval_s
        # End the broadcast only after the last frame has arrived.
        last_arrival = self.uplink.send(end_time)
        self.simulator.schedule_at(
            max(last_arrival, self.simulator.now),
            lambda: self.wowza.end_broadcast(self.broadcast_id),
            label=f"end:{self.broadcast_id}",
        )
        self.frames_sent = frame_count
        return frame_count
