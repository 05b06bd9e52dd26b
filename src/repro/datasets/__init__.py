"""The paper's three datasets (instances, toots, graphs) plus baselines.

Each dataset class wraps the raw crawler output with the indexes and
derived measures the analysis layer needs, mirroring how the paper joins
its instance snapshots with Maxmind/CAIDA metadata and its toot crawl
with the follower graphs.
"""

from repro.datasets.instances import InstanceMetadata, InstancesDataset
from repro.datasets.toots import TootsDataset
from repro.datasets.graphs import GraphDataset
from repro.datasets.twitter import TwitterBaselines, build_twitter_follower_graph, twitter_daily_downtime
from repro.datasets.io import (
    read_jsonl,
    write_jsonl,
    load_edges,
    load_snapshots,
    load_toot_records,
    save_edges,
    save_snapshots,
    save_toot_records,
)
from repro.datasets.anonymise import Anonymiser

__all__ = [
    "Anonymiser",
    "GraphDataset",
    "InstanceMetadata",
    "InstancesDataset",
    "TootsDataset",
    "TwitterBaselines",
    "build_twitter_follower_graph",
    "load_edges",
    "load_snapshots",
    "load_toot_records",
    "read_jsonl",
    "save_edges",
    "save_snapshots",
    "save_toot_records",
    "twitter_daily_downtime",
    "write_jsonl",
]
