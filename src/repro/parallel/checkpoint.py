"""Resumable run directories for sharded trace generation.

A scale-1.0 generation run is a multi-hour job; without checkpoints a
worker OOM at shard 47/64 — or a plain SIGTERM to the parent — throws
every finished shard away.  A :class:`RunCheckpoint` turns a directory
into a durable journal of shard progress:

* ``manifest.json`` — one atomic JSON document (written to a
  ``.tmp<pid>`` sibling, then ``os.replace``d) recording the config's
  cache key, the shard plan, and which shard ids are ``done``,
* ``shard-NNNNN.arrays`` — each completed shard's day columns in the
  checksummed :mod:`repro.crawler.arrayfile` format, also published
  atomically, so a file either exists whole or not at all.

Opening an existing run directory *validates* rather than trusts it:
the manifest must match the requested config's cache key and shard plan
(a run dir belongs to exactly one run), every ``done`` shard's file is
re-verified against its checksum footer — corrupt or truncated files
are deleted and the shard demoted to pending — and shard files that
were published but never journaled (a crash between ``os.replace`` and
the manifest flush) are adopted as done.  Stale ``*.tmp<pid>`` files
from dead writers are swept with the same liveness probe the dataset
cache uses (:func:`repro.crawler.arrayfile.sweep_stale_temps`).

Because every day draws from its own seed-derived substream, the shards
a resume regenerates are byte-identical to the ones a crash destroyed —
resumed output equals single-shot output, which the crash-path tests
assert byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.crawler.arrayfile import atomic_output, read_arrays, sweep_stale_temps
from repro.parallel.sharding import ShardSpec

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
_MANIFEST_MAGIC = "repro-trace-run"
MANIFEST_VERSION = 1


class RunDirError(ValueError):
    """The run directory cannot serve the requested run (wrong config,
    wrong shard plan, or an existing run opened without ``resume``)."""


def shard_filename(shard_id: int) -> str:
    """Canonical name of a checkpointed shard file."""
    return f"shard-{shard_id:05d}.arrays"


def read_manifest(root: PathLike) -> Optional[dict]:
    """Best-effort read of a run directory's manifest (for status display).

    Returns ``None`` when the manifest is absent or unreadable — callers
    wanting hard validation open a :class:`RunCheckpoint` instead.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_MAGIC:
        return None
    return manifest


class RunCheckpoint:
    """Journal of per-shard progress inside one run directory.

    Construct via :meth:`open`; mutate only through :meth:`publish_shard`,
    which marks the shard done and flushes the manifest atomically.
    ``resumed`` counts the shards already done when the directory was
    opened — the work a restart did *not* repeat.
    """

    def __init__(
        self,
        root: Path,
        cache_key: str,
        plan: list[list[int]],
        done: set[int],
        resumed: int,
    ) -> None:
        self.root = root
        self.cache_key = cache_key
        self._plan = plan
        self._done = done
        self.resumed = resumed

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def open(
        cls,
        root: PathLike,
        cache_key: str,
        specs: Sequence[ShardSpec],
        resume: bool = True,
    ) -> "RunCheckpoint":
        """Open (creating if needed) a run directory for this shard plan.

        Raises :class:`RunDirError` when the directory already journals a
        *different* run (cache key or shard plan mismatch), or when it
        journals any run and ``resume`` is false — silently restarting
        over an existing journal would be indistinguishable from resuming
        it.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        sweep_stale_temps(root, "*.tmp*")
        plan = [[spec.day_start, spec.day_end] for spec in specs]

        manifest = read_manifest(root)
        if manifest is None and (root / MANIFEST_NAME).exists():
            raise RunDirError(f"{root}: unreadable run manifest; use a fresh --run-dir")
        if manifest is not None:
            if not resume:
                raise RunDirError(
                    f"{root}: already contains a run ({len(manifest.get('done', []))} "
                    "shards done); pass resume/--resume to continue it or use a "
                    "fresh --run-dir"
                )
            if int(manifest.get("format_version", 0)) != MANIFEST_VERSION:
                raise RunDirError(
                    f"{root}: unsupported run manifest version "
                    f"{manifest.get('format_version')!r}"
                )
            if manifest.get("cache_key") != cache_key:
                raise RunDirError(
                    f"{root}: run directory belongs to a different config "
                    f"(cache key {manifest.get('cache_key')!r} != {cache_key!r})"
                )
            if manifest.get("shard_plan") != plan:
                raise RunDirError(
                    f"{root}: run directory was planned with different shards; "
                    "re-run with the original shards/workers or use a fresh --run-dir"
                )
            done = {int(shard_id) for shard_id in manifest.get("done", [])}
        else:
            done = set()

        checkpoint = cls(root, cache_key, plan, done, resumed=0)
        if manifest is not None:
            checkpoint._validate_done_shards()
        checkpoint.resumed = len(checkpoint._done)
        checkpoint.flush()
        return checkpoint

    def _validate_done_shards(self) -> None:
        """Re-verify journaled shards; demote corrupt ones, adopt orphans.

        A ``done`` shard whose file is missing, truncated, or fails its
        checksum footer goes back to pending (and the bad file is
        removed).  A shard file that exists and verifies but was never
        journaled — the parent died between publishing the file and
        flushing the manifest — is adopted as done.
        """
        for shard_id in range(len(self._plan)):
            path = self.shard_path(shard_id)
            journaled = shard_id in self._done
            if not journaled and not path.exists():
                continue
            try:
                read_arrays(path, verify=True)
            except (OSError, ValueError):
                self._done.discard(shard_id)
                path.unlink(missing_ok=True)
            else:
                self._done.add(shard_id)

    # -- paths ---------------------------------------------------------

    def shard_path(self, shard_id: int) -> Path:
        return self.root / shard_filename(shard_id)

    # -- progress ------------------------------------------------------

    @property
    def done_shards(self) -> frozenset[int]:
        return frozenset(self._done)

    def publish_shard(self, shard_id: int, temp_path: PathLike) -> Path:
        """Atomically promote a finished temp file and journal the shard."""
        path = self.shard_path(shard_id)
        os.replace(temp_path, path)
        self._done.add(shard_id)
        self.flush()
        return path

    def flush(self) -> None:
        """Write the manifest atomically (tmp + ``os.replace``)."""
        manifest = {
            "format": _MANIFEST_MAGIC,
            "format_version": MANIFEST_VERSION,
            "cache_key": self.cache_key,
            "shard_plan": self._plan,
            "done": sorted(self._done),
        }
        encoded = json.dumps(manifest, sort_keys=True, indent=1)
        with atomic_output(self.root / MANIFEST_NAME) as temp:
            temp.write_text(encoded + "\n", "utf-8")
