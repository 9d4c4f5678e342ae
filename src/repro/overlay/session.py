"""Event-driven overlay multicast sessions.

A session owns one broadcast's forwarding tree.  Viewers *join* by sending
a request up the hierarchy (we charge the setup its path RTT); after that,
every frame entering the root is pushed down the tree hop by hop with
inter-DC propagation, then across each viewer's last-mile link — no
polling anywhere, no per-viewer state above the leaves.

The measured quantities mirror the RTMP/HLS analyses so the three
architectures compare directly: per-viewer frame delay, join latency,
per-server connection state, and origin egress per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.client.network import LastMileLink
from repro.geo.coordinates import GeoPoint
from repro.geo.latency import LatencyModel
from repro.overlay.tree import ForwardingNode, OverlayTree, repair_after_failure
from repro.protocols.frames import VideoFrame
from repro.simulation.engine import Simulator


@dataclass
class _AttachedViewer:
    viewer_id: int
    leaf: ForwardingNode
    downlink: LastMileLink
    join_completed_at: float
    frame_arrivals: dict[int, float] = field(default_factory=dict)
    frame_captures: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class OverlayStats:
    """Comparison metrics for one finished session."""

    viewers: int
    mean_frame_delay_s: float
    p90_frame_delay_s: float
    mean_join_latency_s: float
    max_server_state: int
    root_state: int
    origin_egress_copies: int  # frame copies the root sends (vs #viewers for RTMP)
    tree_depth: int


class OverlayMulticastSession:
    """Runs one broadcast over the forwarding hierarchy."""

    def __init__(
        self,
        tree: OverlayTree,
        simulator: Simulator,
        latency: LatencyModel,
        rng: np.random.Generator,
        forwarding_overhead_s: float = 0.004,
    ) -> None:
        if forwarding_overhead_s < 0:
            raise ValueError("forwarding overhead must be non-negative")
        self.tree = tree
        self.simulator = simulator
        self.latency = latency
        self.rng = rng
        self.forwarding_overhead_s = forwarding_overhead_s
        self._viewers: dict[int, _AttachedViewer] = {}
        self._frames_published = 0

    # -- join path ---------------------------------------------------------

    def join(self, viewer_id: int, location: GeoPoint, downlink: LastMileLink) -> float:
        """Attach a viewer; returns the join-setup latency.

        The request travels leaf → hub → root and the grant returns, so
        setup pays one RTT along the path (§8: "setting up a reverse
        forwarding path in the process").
        """
        if viewer_id in self._viewers:
            raise ValueError(f"viewer {viewer_id} already joined")
        leaf = self.tree.attach_viewer(viewer_id, location)
        setup = self.latency.rtt_s(location, leaf.datacenter.location, self.rng)
        node = leaf
        while node.parent is not None:
            setup += self.latency.rtt_s(
                node.datacenter.location, node.parent.datacenter.location, self.rng
            )
            node = node.parent
        completed = self.simulator.now + setup
        self._viewers[viewer_id] = _AttachedViewer(
            viewer_id=viewer_id,
            leaf=leaf,
            downlink=downlink,
            join_completed_at=completed,
        )
        return setup

    # -- data path -----------------------------------------------------------

    def publish_frame(self, frame: VideoFrame) -> None:
        """Frame arrives at the root (from the ingest server); push down."""
        self._frames_published += 1
        self._forward(self.tree.root, frame, self.simulator.now)

    def _forward(self, node: ForwardingNode, frame: VideoFrame, now: float) -> None:
        for child in node.children:
            hop = self.forwarding_overhead_s + self.latency.one_way_s(
                node.datacenter.location, child.datacenter.location, self.rng
            )
            self.simulator.schedule_at(
                max(now + hop, self.simulator.now),
                _Forward(self, child, frame),
                label=f"overlay:{child.datacenter.name}:{frame.sequence}",
            )
        for viewer_id in node.viewer_ids:
            viewer = self._viewers[viewer_id]
            arrival = viewer.downlink.send(now)
            self.simulator.schedule_at(
                max(arrival, self.simulator.now),
                _Deliver(self, viewer, frame),
                label=f"overlay-dl:{viewer_id}:{frame.sequence}",
            )

    # -- results ---------------------------------------------------------------

    def stats(self) -> OverlayStats:
        if not self._viewers:
            raise ValueError("no viewers joined the session")
        delays = []
        joins = []
        for viewer in self._viewers.values():
            joins.append(viewer.join_completed_at)
            for sequence, arrival in viewer.frame_arrivals.items():
                delays.append(arrival - viewer.frame_captures[sequence])
        if not delays:
            raise ValueError("no frames were delivered")
        delay_array = np.array(delays)
        depth = max(leaf.depth for leaf in self.tree.leaves) if self.tree.leaves else 0
        return OverlayStats(
            viewers=len(self._viewers),
            mean_frame_delay_s=float(delay_array.mean()),
            p90_frame_delay_s=float(np.percentile(delay_array, 90)),
            mean_join_latency_s=float(np.mean(joins)),
            max_server_state=self.tree.max_forwarding_state,
            root_state=self.tree.root.forwarding_state,
            origin_egress_copies=len(self.tree.root.children)
            + len(self.tree.root.viewer_ids),
            tree_depth=depth,
        )

    def viewer_delays(self, viewer_id: int) -> np.ndarray:
        viewer = self._viewers[viewer_id]
        sequences = sorted(viewer.frame_arrivals)
        return np.array(
            [viewer.frame_arrivals[s] - viewer.frame_captures[s] for s in sequences]
        )


class _Forward:
    def __init__(self, session: OverlayMulticastSession, node: ForwardingNode, frame: VideoFrame) -> None:
        self._session = session
        self._node = node
        self._frame = frame

    def __call__(self) -> None:
        self._session._forward(self._node, self._frame, self._session.simulator.now)


class _Deliver:
    def __init__(
        self,
        session: OverlayMulticastSession,
        viewer: _AttachedViewer,
        frame: VideoFrame,
    ) -> None:
        self._session = session
        self._viewer = viewer
        self._frame = frame

    def __call__(self) -> None:
        self._viewer.frame_arrivals[self._frame.sequence] = self._session.simulator.now
        self._viewer.frame_captures[self._frame.sequence] = self._frame.capture_time


def fail_and_repair(session: OverlayMulticastSession, node: ForwardingNode) -> None:
    """Fail a forwarding server mid-broadcast and repair the tree.

    Viewers attached to the failed node move with it to the parent; the
    session keeps pushing frames without interruption — the property §8's
    "reverse forwarding path" setup makes cheap to restore.
    """
    repair_after_failure(session.tree, node)
    # Re-point attached-viewer leaf records at their new server.
    for viewer in session._viewers.values():
        if viewer.leaf is node and node.parent is None:
            # The viewer moved to the failed node's old parent; find it by
            # membership (the repair already moved the viewer_ids).
            for candidate in session.tree.all_nodes():
                if viewer.viewer_id in candidate.viewer_ids:
                    viewer.leaf = candidate
                    break
