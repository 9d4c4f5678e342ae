"""Geographically clustered forwarding hierarchy.

Structure (per broadcast):

* the **root** is the broadcaster's ingest datacenter (same nearest-Wowza
  assignment as the production system),
* one **hub** per continent — the forwarding server at the POP closest to
  the continent's other POPs,
* every remaining POP is a **leaf** under its continental hub,
* viewers attach to their nearest leaf (anycast, as for HLS).

Forwarding state is per-*child*, not per-viewer: the root holds one
connection per continent, a hub one per POP in its continent, and only
leaves hold per-viewer connections — which is exactly the property §8
wants ("efficiently forward video frames without per-viewer state or
periodic polling").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.geo.coordinates import GeoPoint
from repro.geo.datacenters import Datacenter, FASTLY_DATACENTERS


@dataclass
class ForwardingNode:
    """One forwarding server in the tree."""

    datacenter: Datacenter
    parent: Optional["ForwardingNode"] = None
    children: list["ForwardingNode"] = field(default_factory=list)
    viewer_ids: list[int] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def forwarding_state(self) -> int:
        """Connections this server maintains (children + attached viewers)."""
        return len(self.children) + len(self.viewer_ids)

    @property
    def depth(self) -> int:
        node: Optional[ForwardingNode] = self
        depth = 0
        while node is not None and node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def add_child(self, child: "ForwardingNode") -> None:
        if child.parent is not None:
            raise ValueError(f"{child.datacenter.name} already has a parent")
        child.parent = self
        self.children.append(child)


@dataclass
class OverlayTree:
    """The per-broadcast forwarding hierarchy."""

    root: ForwardingNode
    leaves: list[ForwardingNode]

    def all_nodes(self) -> list[ForwardingNode]:
        nodes: list[ForwardingNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        return nodes

    def leaf_for(self, location: GeoPoint) -> ForwardingNode:
        """Nearest attachable server (leaves plus hubs — a viewer near a
        hub's city attaches directly to it)."""
        attachable = {id(node): node for node in self.leaves}
        for node in self.all_nodes():
            attachable.setdefault(id(node), node)
        nodes = list(attachable.values())
        return min(nodes, key=lambda n: n.datacenter.location.distance_km(location))

    def attach_viewer(self, viewer_id: int, location: GeoPoint) -> ForwardingNode:
        """Attach a viewer at the nearest server; returns the leaf used."""
        leaf = self.leaf_for(location)
        leaf.viewer_ids.append(viewer_id)
        return leaf

    @property
    def max_forwarding_state(self) -> int:
        """Worst-case per-server connection count across the tree."""
        return max(node.forwarding_state for node in self.all_nodes())

    @property
    def total_viewers(self) -> int:
        return sum(len(node.viewer_ids) for node in self.all_nodes())


def _continent_hub(pops: Sequence[Datacenter]) -> Datacenter:
    """The POP minimizing total distance to its continent's other POPs."""
    if not pops:
        raise ValueError("no POPs on this continent")
    return min(
        pops,
        key=lambda candidate: sum(candidate.distance_km(other) for other in pops),
    )


def build_geographic_tree(
    root_datacenter: Datacenter,
    pops: Sequence[Datacenter] = FASTLY_DATACENTERS,
) -> OverlayTree:
    """Build the root → continental hubs → leaf POPs hierarchy."""
    root = ForwardingNode(datacenter=root_datacenter)

    by_continent: dict[str, list[Datacenter]] = {}
    for pop in pops:
        by_continent.setdefault(pop.continent, []).append(pop)

    leaves: list[ForwardingNode] = []
    for continent_pops in by_continent.values():
        hub_dc = _continent_hub(continent_pops)
        hub = ForwardingNode(datacenter=hub_dc)
        root.add_child(hub)
        for pop in continent_pops:
            if pop is hub_dc:
                continue
            leaf = ForwardingNode(datacenter=pop)
            hub.add_child(leaf)
            leaves.append(leaf)
        # A hub with no other POPs on its continent is itself a leaf.
        if not hub.children:
            leaves.append(hub)
    return OverlayTree(root=root, leaves=leaves)


def repair_after_failure(tree: OverlayTree, failed: ForwardingNode) -> list[ForwardingNode]:
    """Remove a failed forwarding server and re-parent its subtree.

    §8's design must survive server churn: children of the failed node
    (and its directly attached viewers) re-attach to the failed node's
    parent — one level up the hierarchy — preserving the forwarding
    invariant that every node has a path to the root.  Returns the nodes
    that were re-parented.

    The root cannot fail here (ingest failover is a different mechanism).
    """
    if failed.is_root or failed.parent is None:
        raise ValueError("cannot repair around the root")
    parent = failed.parent
    parent.children.remove(failed)
    moved = list(failed.children)
    for child in moved:
        child.parent = None
        parent.add_child(child)
    failed.children = []
    # Orphaned viewers re-join at the parent.
    parent.viewer_ids.extend(failed.viewer_ids)
    failed.viewer_ids = []
    failed.parent = None
    if failed in tree.leaves:
        tree.leaves.remove(failed)
    return moved
