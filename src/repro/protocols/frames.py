"""Video frames and chunks.

The paper's unit of RTMP delivery is a ~40 ms video frame; HLS groups
~75 frames into a ~3 s chunk (§5.2).  Keyframes carry a broadcaster-side
capture timestamp in their metadata — the paper used it as timestamp ① / ⑤
of the delay breakdown, and the §7 defense embeds signatures next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class VideoFrame:
    """One encoded video frame.

    ``capture_time`` is the broadcaster-device timestamp embedded in the
    stream metadata; ``payload`` stands in for the encoded bits (the
    security experiments replace it).
    """

    sequence: int
    capture_time: float
    duration_s: float = 0.040
    is_keyframe: bool = False
    payload: bytes = b""
    signature: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    def with_payload(self, payload: bytes) -> "VideoFrame":
        """Copy with a replaced payload (used by the tampering attack)."""
        return VideoFrame(
            sequence=self.sequence,
            capture_time=self.capture_time,
            duration_s=self.duration_s,
            is_keyframe=self.is_keyframe,
            payload=payload,
            signature=self.signature,
        )

    def with_signature(self, signature: bytes) -> "VideoFrame":
        """Copy with an embedded integrity signature (the §7.2 defense)."""
        return VideoFrame(
            sequence=self.sequence,
            capture_time=self.capture_time,
            duration_s=self.duration_s,
            is_keyframe=self.is_keyframe,
            payload=self.payload,
            signature=signature,
        )


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive frames served as one HLS unit (range and timing)."""

    index: int
    first_sequence: int
    frame_count: int
    first_capture_time: float  # capture time of the first frame (timestamp ⑤)
    duration_s: float  # summed frame durations
    completed_time: float  # when the last frame reached the ingest server

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise ValueError("chunk must contain at least one frame")
