"""Broadcast records: lifecycle, viewers, comments and hearts.

These are the objects the paper's crawler captured for every broadcast:
broadcast ID, start/end times, broadcaster ID, every viewer's ID and join
time, and timestamped comment/heart events (metadata only — no content).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class BroadcastState(enum.Enum):
    """Lifecycle of a broadcast."""

    LIVE = "live"
    ENDED = "ended"


class DeliveryTier(enum.Enum):
    """Which distribution tier serves a viewer (§4.1)."""

    RTMP = "rtmp"  # direct push from the ingest server; low delay
    HLS = "hls"  # chunked CDN delivery; scalable, high delay
    WEB = "web"  # anonymous web viewers (HLS under the hood)


@dataclass(frozen=True)
class ViewRecord:
    """One viewer's membership in one broadcast."""

    viewer_id: int
    join_time: float
    tier: DeliveryTier
    leave_time: Optional[float] = None

    def watch_duration(self, broadcast_end: float) -> float:
        """Seconds watched, bounded by the broadcast end."""
        end = self.leave_time if self.leave_time is not None else broadcast_end
        return max(0.0, min(end, broadcast_end) - self.join_time)


@dataclass(frozen=True)
class Comment:
    """A timestamped text comment (content not stored, per IRB)."""

    viewer_id: int
    time: float


@dataclass(frozen=True)
class Heart:
    """A timestamped heart tap."""

    viewer_id: int
    time: float


@dataclass
class Broadcast:
    """A single live broadcast and everything the crawler records about it."""

    broadcast_id: int
    broadcaster_id: int
    start_time: float
    app_name: str = "Periscope"
    is_private: bool = False
    location: Optional[object] = None  # GeoPoint when the broadcaster shares GPS
    state: BroadcastState = BroadcastState.LIVE
    end_time: Optional[float] = None
    views: list[ViewRecord] = field(default_factory=list)
    comments: list[Comment] = field(default_factory=list)
    hearts: list[Heart] = field(default_factory=list)
    commenter_ids: set[int] = field(default_factory=set)
    #: RTMP views among ``views``, kept by :meth:`add_view` (a leave keeps
    #: the tier), so the spillover policy reads it without a scan.
    _rtmp_views: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def is_live(self) -> bool:
        return self.state is BroadcastState.LIVE

    @property
    def duration(self) -> float:
        """Broadcast length in seconds (only meaningful once ended)."""
        if self.end_time is None:
            raise ValueError(f"broadcast {self.broadcast_id} has not ended")
        return self.end_time - self.start_time

    @property
    def total_views(self) -> int:
        return len(self.views)

    @property
    def unique_viewer_ids(self) -> set[int]:
        return {view.viewer_id for view in self.views}

    @property
    def rtmp_view_count(self) -> int:
        return self._rtmp_views

    @property
    def hls_view_count(self) -> int:
        """HLS and web views: every view not served over RTMP."""
        return len(self.views) - self._rtmp_views

    def add_view(self, view: ViewRecord) -> None:
        """Record a join's view.  The only way ``views`` grows, so the RTMP
        count stays exact."""
        self.views.append(view)
        if view.tier is DeliveryTier.RTMP:
            self._rtmp_views += 1

    def end(self, time: float) -> None:
        if not self.is_live:
            raise ValueError(f"broadcast {self.broadcast_id} already ended")
        if time < self.start_time:
            raise ValueError("end time precedes start time")
        self.state = BroadcastState.ENDED
        self.end_time = time

    def concurrent_viewers(self, time: float) -> int:
        """Viewers watching at instant ``time``."""
        count = 0
        for view in self.views:
            left = view.leave_time if view.leave_time is not None else float("inf")
            if view.join_time <= time < left:
                count += 1
        return count

    def peak_concurrent_viewers(self) -> int:
        """Maximum simultaneous viewers over the broadcast's lifetime.

        The paper's rain-puddle anecdote: "more than 20,000 simultaneous
        viewers at its peak".  Computed by sweeping join/leave events.
        """
        events: list[tuple[float, int]] = []
        for view in self.views:
            events.append((view.join_time, 1))
            if view.leave_time is not None:
                events.append((view.leave_time, -1))
        # Leaves sort before joins at the same instant.
        events.sort(key=lambda event: (event[0], event[1]))
        peak = 0
        current = 0
        for _, delta in events:
            current += delta
            peak = max(peak, current)
        return peak
