"""Streaming community detection: warm refits along an edge stream."""

from repro.streaming.drift import (
    DRIFT_POLICIES,
    DriftPolicy,
    drift_value,
)
from repro.streaming.source import (
    STREAM_SOURCES,
    EdgeStream,
    StreamSourceSpec,
    edgelist_dir_stream,
    synthetic_churn_stream,
)
from repro.streaming.session import SnapshotReport, StreamResult, StreamSession

__all__ = [
    "STREAM_SOURCES",
    "DRIFT_POLICIES",
    "DriftPolicy",
    "drift_value",
    "EdgeStream",
    "StreamSourceSpec",
    "synthetic_churn_stream",
    "edgelist_dir_stream",
    "SnapshotReport",
    "StreamResult",
    "StreamSession",
]
