"""Simulated block-level storage engine.

This package stands in for the disk + storage manager under Microsoft SQL
Server 2005 in the paper's experiments.  It provides a metered page device
(:class:`BlockDevice`), byte-level page layouts, an LRU :class:`BufferPool`,
and :class:`HeapFile` table storage.  Every access method in the repository
— baselines and ranking cube alike — performs its I/O through these
primitives so block-access comparisons are apples to apples.
"""

from .blobs import BlobStore
from .buffer import BufferPool, BufferStats
from .device import (
    DEFAULT_PAGE_SIZE,
    BlockDevice,
    IOStats,
    PageCorruptionError,
    PageNotAllocatedError,
    StorageError,
)
from .faults import (
    BIT_FLIP,
    FAULT_KINDS,
    LATENCY,
    READ_ERROR,
    TORN_WRITE,
    WRITE_ERROR,
    FaultInjector,
    FaultRule,
    FaultStats,
    FaultyBlockDevice,
    RetryExhaustedError,
    RetryPolicy,
    ScrubReport,
    TornWriteError,
    TransientReadError,
    TransientStorageFault,
    TransientWriteError,
    transient_fault_plan,
)
from .heap import HeapFile, Rid
from .pages import BytesPage, PageFormatError, RecordCodec, RecordPage

__all__ = [
    "BIT_FLIP",
    "DEFAULT_PAGE_SIZE",
    "FAULT_KINDS",
    "LATENCY",
    "READ_ERROR",
    "TORN_WRITE",
    "WRITE_ERROR",
    "BlobStore",
    "BlockDevice",
    "BufferPool",
    "BufferStats",
    "BytesPage",
    "FaultInjector",
    "FaultRule",
    "FaultStats",
    "FaultyBlockDevice",
    "HeapFile",
    "IOStats",
    "PageCorruptionError",
    "PageFormatError",
    "PageNotAllocatedError",
    "RecordCodec",
    "RecordPage",
    "RetryExhaustedError",
    "RetryPolicy",
    "Rid",
    "ScrubReport",
    "StorageError",
    "TornWriteError",
    "TransientReadError",
    "TransientStorageFault",
    "TransientWriteError",
    "transient_fault_plan",
]
