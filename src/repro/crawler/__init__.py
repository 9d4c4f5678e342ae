"""Measurement crawlers.

Reimplements the paper's three data-collection instruments against the
simulated platform and CDN:

* the global-list crawler that repeatedly queries the 50-broadcast global
  list from multiple accounts to achieve an aggregate 0.25 s refresh and
  capture (nearly) every broadcast (§3.1),
* per-broadcast monitors that join each discovered broadcast and record
  viewers, comments and hearts until it ends,
* the fine-grained delay crawler that joins broadcasts as an RTMP viewer
  (zero-buffer) and as a high-frequency (0.1 s) HLS poller to timestamp
  each frame/chunk's journey through the CDN (§4.3).
"""

from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
    DowntimeWindow,
)
from repro.crawler.global_list import CrawlerAccount, GlobalListCrawler
from repro.crawler.broadcast_monitor import BroadcastMonitor
from repro.crawler.delay_crawler import ChunkObservation, DelayCrawler
from repro.crawler.graph_crawler import FollowGraphCrawler, GraphApi, GraphCrawl
from repro.crawler.arrayfile import read_arrays, write_arrays
from repro.crawler.storage import (
    DatasetCache,
    dataset_from_bytes,
    dataset_from_columnar_bytes,
    dataset_to_bytes,
    dataset_to_columnar_bytes,
    load_dataset,
    load_dataset_mapped,
    load_traces,
    save_dataset,
    save_dataset_mapped,
    save_traces,
)

__all__ = [
    "BroadcastColumns",
    "BroadcastDataset",
    "BroadcastRecord",
    "DowntimeWindow",
    "GlobalListCrawler",
    "CrawlerAccount",
    "BroadcastMonitor",
    "DelayCrawler",
    "ChunkObservation",
    "GraphApi",
    "FollowGraphCrawler",
    "GraphCrawl",
    "DatasetCache",
    "dataset_to_bytes",
    "dataset_from_bytes",
    "dataset_to_columnar_bytes",
    "dataset_from_columnar_bytes",
    "save_dataset",
    "load_dataset",
    "save_dataset_mapped",
    "load_dataset_mapped",
    "save_traces",
    "load_traces",
    "read_arrays",
    "write_arrays",
]
