"""HLS chunklists.

HLS viewers periodically fetch a *chunklist* (playlist) naming the chunks
available for download, then fetch new chunks (§4.1).  The delay cost of
this design — chunking delay plus polling delay — is the paper's central
scalability-versus-latency trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class ChunklistEntry:
    """One chunk reference in a chunklist."""

    chunk_index: int
    duration_s: float
    available_since: float  # when this entry appeared at the serving cache


@dataclass
class Chunklist:
    """An ordered set of available chunks with a version counter.

    ``version`` increments whenever a chunk is appended; caches compare
    versions to decide whether their copy is stale (the paper's
    "chunklist expiry" step ⑧).
    """

    entries: list[ChunklistEntry] = field(default_factory=list)
    version: int = 0
    max_entries: int = 6  # live HLS playlists advertise a short window

    def append(self, chunk_index: int, duration_s: float, now: float) -> None:
        if self.entries and chunk_index <= self.entries[-1].chunk_index:
            raise ValueError(
                f"chunk {chunk_index} not newer than {self.entries[-1].chunk_index}"
            )
        self.entries.append(
            ChunklistEntry(chunk_index=chunk_index, duration_s=duration_s, available_since=now)
        )
        if len(self.entries) > self.max_entries:
            self.entries = self.entries[-self.max_entries :]
        self.version += 1

    @property
    def latest_index(self) -> Optional[int]:
        return self.entries[-1].chunk_index if self.entries else None

    def entries_after(self, chunk_index: Optional[int]) -> list[ChunklistEntry]:
        """Entries newer than ``chunk_index`` (None = everything)."""
        if chunk_index is None:
            return list(self.entries)
        return [entry for entry in self.entries if entry.chunk_index > chunk_index]

    def copy(self) -> "Chunklist":
        clone = Chunklist(max_entries=self.max_entries)
        clone.entries = list(self.entries)
        clone.version = self.version
        return clone
