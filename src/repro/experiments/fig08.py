"""Figure 8: the Periscope CDN infrastructure (architecture diagram).

The original is a block diagram of the three channels — control (HTTPS to
the Periscope server), video (RTMP to Wowza / HLS from Fastly) and
messages (HTTPS to PubNub).  This runner renders the diagram and verifies
the architectural facts against the implementation: which protocol and
component serves each channel, and the latency class of each path.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import experiment
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.platform.apps import PERISCOPE_PROFILE
from repro.protocols.messages import MessageChannel

ARCHITECTURE = r"""
      (a) Control channel             (b) Video channel                (c) Message channel

   Broadcaster    Viewers        Broadcaster                          Broadcaster   Viewers
        \            /                |  RTMP (push, 40ms frames)          \           /
       HTTPS      HTTPS               v                                   HTTPS     HTTPS
          \        /              [ Wowza x8 ]---gateway POP---+             \       /
       [ Periscope server ]        |        \                  |            [ PubNub ]
        tokens, global list,       | RTMP    \ chunks (~3s)    v          comments + hearts,
        join / comment policy      v          \            [ Fastly x23 ]  merged client-side
                               first ~100      \               |  HLS (poll 2-2.8s)
                               viewers          +----------->  v
                                                           later viewers
"""


@experiment(
    "fig8",
    "Figure 8: Periscope CDN infrastructure",
    "Three independent channels: HTTPS control via the Periscope server, video "
    "via Wowza (RTMP push, first ~100 viewers) and Fastly (HLS poll, the rest), "
    "messages via PubNub over HTTPS — merged with video client-side by timestamp.",
)
def run() -> tuple[dict, str]:
    profile = PERISCOPE_PROFILE
    channel = MessageChannel(broadcast_id=0)
    rng = np.random.default_rng(8)
    message_latency = float(
        np.median([channel.delivery_latency(rng) for _ in range(2000)])
    )
    facts = {
        "video ingest protocol": profile.ingest_protocol,
        "video ingest servers": f"{len(WOWZA_DATACENTERS)} Wowza DCs",
        "video edge servers": f"{len(FASTLY_DATACENTERS)} Fastly POPs",
        "push tier size": f"first ~{profile.rtmp_viewer_threshold} viewers",
        "chunk duration": f"{profile.chunk_duration_s:g}s",
        "client poll interval": (
            f"{profile.polling_interval_range_s[0]:g}-"
            f"{profile.polling_interval_range_s[1]:g}s"
        ),
        "comment policy": f"first {profile.comment_cap} viewers only",
        "message channel median latency": f"{message_latency:.2f}s",
        "video channel encrypted": str(profile.encrypted_video),
    }
    lines = [ARCHITECTURE.strip("\n"), ""]
    width = max(len(k) for k in facts)
    for key, value in facts.items():
        lines.append(f"{key:<{width}}  {value}")
    return {"facts": facts, "message_latency_s": message_latency}, "\n".join(lines)
