"""Durable streaming ingestion for ranking cubes.

The paper assumes a static base table; this package makes the
incremental-maintenance path (``refresh_delta`` + ``CubeCompactor``)
production-shaped: a checksummed write-ahead log ahead of the delta
store, a pending-row count driving compaction, checkpoints that bound
recovery time, and crash recovery that replays the WAL suffix
into a reconstructed delta.  See DESIGN.md §16.
"""

from .stream import (
    INGEST_FAULT_POINTS,
    IngestError,
    ShardedStreamIngestor,
    StreamIngestor,
)
from .wal import WalError, WalRecord, WriteAheadLog, decode_records, encode_record

__all__ = [
    "INGEST_FAULT_POINTS",
    "IngestError",
    "ShardedStreamIngestor",
    "StreamIngestor",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "decode_records",
    "encode_record",
]
