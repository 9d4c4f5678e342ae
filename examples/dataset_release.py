#!/usr/bin/env python3
"""Scenario: preparing a shareable measurement dataset.

The paper closes with: "we will make parts of our measurement datasets
available to the research community."  This example runs that release
pipeline on a synthetic crawl:

1. crawl (generate) a Periscope workload trace,
2. apply the crawler-downtime mask the paper disclosed (Aug 7-9),
3. anonymize every identifier (the IRB requirement),
4. write gzip-JSONL, reload it, and verify the analyses reproduce.

Run:  python examples/dataset_release.py [output.jsonl.gz]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.broadcast_stats import broadcast_length_cdf, viewers_per_broadcast_cdf
from repro.crawler.broadcast_monitor import anonymize_id
from repro.crawler.dataset import BroadcastDataset, BroadcastRecord, DowntimeWindow
from repro.crawler.storage import load_dataset, save_dataset
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig

SALT = "release-2016"


def anonymize_dataset(dataset: BroadcastDataset, salt: str) -> BroadcastDataset:
    """One-way pseudonymize every user identifier in the dataset."""
    released = [
        BroadcastRecord(
            broadcast_id=record.broadcast_id,
            broadcaster_id=anonymize_id(record.broadcaster_id, salt),
            app_name=record.app_name,
            start_time=record.start_time,
            duration_s=record.duration_s,
            viewer_ids=np.array(
                [anonymize_id(int(v), salt) for v in record.viewer_ids],
                dtype=np.int64,
            ),
            web_views=record.web_views,
            heart_count=record.heart_count,
            comment_count=record.comment_count,
            commenter_count=record.commenter_count,
            is_private=record.is_private,
            broadcaster_followers=record.broadcaster_followers,
        )
        for record in dataset
    ]
    return BroadcastDataset.from_records(dataset.app_name, dataset.days, released)


def main(output: Path) -> None:
    print("1. crawling (generating) a 1/5000-scale Periscope trace...")
    trace = generate_trace(TraceConfig.periscope(scale=0.0002, seed=42))
    raw = trace.dataset
    print(f"   {raw.broadcast_count:,} broadcasts, {raw.total_views:,} views")

    print("2. masking the crawler outage (days 84-86, ~4.5% of that window)...")
    masked = raw.apply_downtime(
        DowntimeWindow(start_day=84.0, end_day=86.0, loss_fraction=0.9),
        np.random.default_rng(42),
    )
    print(f"   {raw.broadcast_count - masked.broadcast_count} broadcasts lost")

    print("3. anonymizing identifiers (IRB)...")
    released = anonymize_dataset(masked, SALT)
    raw_ids = {int(v) for r in masked for v in r.viewer_ids}
    released_ids = {int(v) for r in released for v in r.viewer_ids}
    assert not raw_ids & released_ids, "raw identifiers leaked!"
    print(f"   {len(released_ids):,} pseudonymous viewer IDs")

    print(f"4. writing {output} ...")
    save_dataset(released, output)
    size_kb = output.stat().st_size / 1024
    print(f"   {size_kb:,.0f} KiB on disk")

    print("5. reloading and verifying the analyses reproduce...")
    loaded = load_dataset(output)
    assert loaded.table1_row() == released.table1_row()
    lengths = broadcast_length_cdf(loaded)
    viewers = viewers_per_broadcast_cdf(loaded)
    print(f"   broadcasts under 10 min: {lengths.at(600.0):.1%} (paper: ~85%)")
    print(f"   median viewers/broadcast: {viewers.median:.0f}")
    print("\nrelease verified: same aggregates, no raw identifiers, one file.")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        target = Path(sys.argv[1])
        main(target)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp) / "periscope-release.jsonl.gz")
