"""Streaming protocol models.

Implements the two video delivery protocols whose trade-off the paper
dissects — RTMP (persistent connection, server push, per-frame operation)
and HLS (chunked, client poll) — plus the RTMPS cost model and the
PubNub-style message channel used for comments and hearts.

The RTMP implementation includes an actual binary wire format
(:mod:`repro.protocols.rtmp`): the §7 tampering attack parses and rewrites
these packets, so the vulnerability is demonstrated on real bytes rather
than asserted.
"""

from repro.protocols.frames import Chunk, VideoFrame
from repro.protocols.rtmp import (
    RtmpHandshake,
    RtmpPacket,
    RtmpPacketType,
    RtmpParseError,
    parse_rtmp_packet,
)
from repro.protocols.hls import Chunklist, ChunklistEntry
from repro.protocols.messages import MessageChannel, StreamMessage
from repro.protocols.rtmps import RtmpsCostModel

__all__ = [
    "VideoFrame",
    "Chunk",
    "RtmpPacket",
    "RtmpPacketType",
    "RtmpHandshake",
    "RtmpParseError",
    "parse_rtmp_packet",
    "Chunklist",
    "ChunklistEntry",
    "MessageChannel",
    "StreamMessage",
    "RtmpsCostModel",
]
