"""Per-broadcast monitors.

When the global-list crawler discovers a broadcast, it starts a monitor
thread that joins the broadcast and records metadata until it terminates
(§3.1): broadcast ID, start/end times, broadcaster, every viewer's ID and
join time, and timestamped comments/hearts.  Identifiers are anonymized
before the record enters the dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.crawler.dataset import BroadcastDataset, BroadcastRecord
from repro.platform.broadcasts import Broadcast
from repro.service.facade import LivestreamService
from repro.social.graph import CompiledGraph


def anonymize_id(raw_id: int, salt: str = "repro") -> int:
    """Stable one-way pseudonymization of a user/broadcast identifier."""
    digest = hashlib.sha256(f"{salt}:{raw_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class BroadcastMonitor:
    """Records one broadcast from discovery until it ends."""

    broadcast_id: int
    discovered_at: float
    salt: Optional[str] = None  # set to anonymize identifiers
    finalized: bool = field(default=False, init=False)

    def finalize(
        self,
        service: LivestreamService,
        graph: Optional[CompiledGraph] = None,
    ) -> BroadcastRecord:
        """Produce the dataset record once the broadcast has ended."""
        if self.finalized:
            raise RuntimeError(f"broadcast {self.broadcast_id} already finalized")
        broadcast = service.get_broadcast(self.broadcast_id)
        if broadcast.is_live:
            raise RuntimeError(f"broadcast {self.broadcast_id} is still live")
        record = self._record_from(broadcast, graph)
        self.finalized = True
        return record

    def _record_from(
        self, broadcast: Broadcast, graph: Optional[CompiledGraph]
    ) -> BroadcastRecord:
        mobile_ids = [
            view.viewer_id for view in broadcast.views if view.tier.value != "web"
        ]
        web_views = sum(1 for view in broadcast.views if view.tier.value == "web")
        broadcaster_id = broadcast.broadcaster_id
        followers = graph.follower_count(broadcaster_id) if graph is not None else 0
        if self.salt is not None:
            mobile_ids = [anonymize_id(v, self.salt) for v in mobile_ids]
            broadcaster_id = anonymize_id(broadcaster_id, self.salt)
        return BroadcastRecord(
            broadcast_id=broadcast.broadcast_id,
            broadcaster_id=broadcaster_id,
            app_name=broadcast.app_name,
            start_time=broadcast.start_time,
            duration_s=broadcast.duration,
            viewer_ids=np.array(mobile_ids, dtype=np.int64),
            web_views=web_views,
            heart_count=len(broadcast.hearts),
            comment_count=len(broadcast.comments),
            commenter_count=len(broadcast.commenter_ids),
            is_private=broadcast.is_private,
            broadcaster_followers=followers,
        )


def monitor_all(
    service: LivestreamService,
    discoveries: dict[int, float],
    days: int,
    graph: Optional[CompiledGraph] = None,
    salt: Optional[str] = None,
) -> BroadcastDataset:
    """Finalize monitors for every discovered, ended broadcast."""
    records = []
    for broadcast_id, found_at in sorted(discoveries.items()):
        broadcast = service.get_broadcast(broadcast_id)
        if broadcast.is_live:
            continue  # still running when the crawl stopped
        monitor = BroadcastMonitor(
            broadcast_id=broadcast_id, discovered_at=found_at, salt=salt
        )
        records.append(monitor.finalize(service, graph))
    return BroadcastDataset.from_records(service.profile.name, days, records)
