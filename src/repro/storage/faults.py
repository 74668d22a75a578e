"""Deterministic fault injection for the storage substrate.

The paper's experiments assume a disk that never fails; a production system
cannot.  This module makes the simulated device *misbehave on purpose* so
every layer above it — buffer pool, heap files, blob store, cuboids, the
query executor — can prove it either recovers or fails with a typed error,
never a silent wrong answer.

Three pieces:

* :class:`FaultRule` / :class:`FaultInjector` — a declarative, seedable
  fault plan.  Rules select accesses by operation, page id (explicit set or
  predicate), trigger mode (probability or exact nth matching access), and
  a trigger budget, so schedules are reproducible from a single seed.
* :class:`FaultyBlockDevice` — composes over any
  :class:`~repro.storage.device.BlockDevice` and injects read errors, write
  errors, torn (partial) writes, silent bit-flips, and latency spikes.  It
  keeps its own shadow checksums for every page written through it, so an
  in-transit bit-flip — silent at injection time — is detected on delivery
  and surfaces as a :class:`~repro.storage.device.PageCorruptionError`.
* :class:`RetryPolicy` — the retry-with-backoff contract threaded through
  :class:`~repro.storage.buffer.BufferPool`: transient faults are retried
  up to ``max_attempts`` times with exponential (simulated) backoff, then
  the final typed error escalates to the caller.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .device import BlockDevice, IOStats, PageCorruptionError, StorageError

#: Fault kinds understood by :class:`FaultInjector`.
READ_ERROR = "read_error"
WRITE_ERROR = "write_error"
TORN_WRITE = "torn_write"
BIT_FLIP = "bit_flip"
LATENCY = "latency"

FAULT_KINDS = (READ_ERROR, WRITE_ERROR, TORN_WRITE, BIT_FLIP, LATENCY)

#: Which device operation each fault kind applies to.
_FAULT_OPS = {
    READ_ERROR: "read",
    WRITE_ERROR: "write",
    TORN_WRITE: "write",
    BIT_FLIP: "read",
    LATENCY: None,  # either
}


class TransientStorageFault(StorageError):
    """Marker base for injected faults that a retry may clear.

    The buffer pool's retry loop catches exactly this (plus
    :class:`~repro.storage.device.PageCorruptionError`, whose
    quarantine-and-refetch handling is equivalent); anything else —
    unallocated pages, format violations — escalates immediately.
    """

    def __init__(self, message: str, *, page_id: int | None = None):
        super().__init__(message)
        self.page_id = page_id


class TransientReadError(TransientStorageFault):
    """An injected read failure (the stored image is intact)."""


class TransientWriteError(TransientStorageFault):
    """An injected write failure (nothing reached the stored image)."""


class TornWriteError(TransientWriteError):
    """A write that only partially reached the stored image.

    The damaged page carries a stale checksum, so until a retry rewrites it
    in full, reads of it raise
    :class:`~repro.storage.device.PageCorruptionError`.
    """


class RetryExhaustedError(StorageError):
    """All retry attempts failed; carries the final underlying error."""

    def __init__(self, message: str, *, page_id: int | None = None, attempts: int = 0):
        super().__init__(message)
        self.page_id = page_id
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry contract for transient storage faults.

    Backoff is *simulated*: delays are accounted (so schedules stay
    deterministic and tests stay fast) and only actually slept when a
    ``sleep`` callable is supplied.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.1
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delays(self) -> Iterator[float]:
        """Backoff delay before each retry (``max_attempts - 1`` values)."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier

    def backoff(self, delay_s: float) -> None:
        if self.sleep is not None and delay_s > 0:
            self.sleep(delay_s)


@dataclass
class FaultRule:
    """One declarative fault: *what* to inject and *when* it triggers.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance of triggering on each matching access (ignored when ``nth``
        is given).  Drawn from the injector's seeded RNG.
    nth:
        Trigger deterministically on the nth matching access (1-based).
        Implies ``max_triggers=1`` unless overridden.
    page_ids / predicate:
        Restrict matching to an explicit page-id set and/or an arbitrary
        ``page_id -> bool`` predicate.  Both default to "any page".
    max_triggers:
        Stop injecting after this many triggers (``None`` = unlimited).
        Transient schedules use small budgets so retries eventually win.
    latency_s:
        Simulated delay for :data:`LATENCY` rules (accounted, not slept).
    """

    kind: str
    probability: float = 1.0
    nth: int | None = None
    page_ids: Collection[int] | None = None
    predicate: Callable[[int], bool] | None = None
    max_triggers: int | None = None
    latency_s: float = 0.005
    # mutable bookkeeping, managed by the injector
    matches: int = field(default=0, repr=False)
    triggers: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.nth is not None and self.max_triggers is None:
            self.max_triggers = 1
        if self.page_ids is not None:
            self.page_ids = frozenset(self.page_ids)

    def applies_to(self, op: str) -> bool:
        fault_op = _FAULT_OPS[self.kind]
        return fault_op is None or fault_op == op

    def matches_page(self, page_id: int) -> bool:
        if self.page_ids is not None and page_id not in self.page_ids:
            return False
        if self.predicate is not None and not self.predicate(page_id):
            return False
        return True


@dataclass
class FaultStats:
    """Counts of injected faults, by kind, plus accounted latency."""

    injected: dict[str, int] = field(default_factory=dict)
    simulated_latency_s: float = 0.0

    def count(self, kind: str) -> int:
        return self.injected.get(kind, 0)

    @property
    def total(self) -> int:
        return sum(self.injected.values())

    def record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def reset(self) -> None:
        self.injected.clear()
        self.simulated_latency_s = 0.0


class FaultInjector:
    """Seeded, declarative decision-maker for a :class:`FaultyBlockDevice`.

    The same seed and rule list always produce the same fault schedule for
    the same access sequence, which is what makes the crash-consistency
    harness (``tests/faults/harness.py``) and its fault matrix reproducible.
    """

    def __init__(self, seed: int = 0, rules: Iterable[FaultRule] = ()):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: list[FaultRule] = list(rules)
        self.stats = FaultStats()
        self.enabled = True

    # ------------------------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def arm(self) -> None:
        self.enabled = True

    def disarm(self) -> None:
        """Stop injecting (rule bookkeeping freezes too)."""
        self.enabled = False

    # ------------------------------------------------------------------
    def decide(self, op: str, page_id: int) -> list[FaultRule]:
        """Rules triggering on this access, in declaration order.

        At most one *erroring* rule is returned (the first to trigger);
        :data:`LATENCY` rules stack freely in front of it, since a slow
        access can also fail.
        """
        if not self.enabled:
            return []
        triggered: list[FaultRule] = []
        for rule in self.rules:
            if not rule.applies_to(op) or not rule.matches_page(page_id):
                continue
            if rule.max_triggers is not None and rule.triggers >= rule.max_triggers:
                continue
            rule.matches += 1
            if rule.nth is not None:
                fire = rule.matches == rule.nth
            else:
                fire = self.rng.random() < rule.probability
            if not fire:
                continue
            rule.triggers += 1
            self.stats.record(rule.kind)
            if rule.kind == LATENCY:
                self.stats.simulated_latency_s += rule.latency_s
                triggered.append(rule)
                continue
            triggered.append(rule)
            break  # one error per access is enough
        return triggered


class FaultyBlockDevice:
    """A :class:`BlockDevice` wrapper that injects faults on the way through.

    Composes over *any* object with the block-device interface; all metering
    flows to the inner device's :class:`~repro.storage.device.IOStats`
    (shared via :attr:`stats`), with failed attempts reclassified as
    ``retried_reads`` / ``retried_writes`` so successful-delivery counts
    stay comparable to a pristine run.

    The wrapper records a shadow CRC-32 for every page allocated or written
    through it.  Reads are verified against the shadow checksum *after*
    fault injection, which is how silent in-transit bit-flips become
    detectable :class:`~repro.storage.device.PageCorruptionError`\\ s — and a
    retry, which re-reads the intact stored image, clears them.
    """

    def __init__(
        self,
        inner: BlockDevice,
        injector: FaultInjector | None = None,
        verify_checksums: bool = True,
    ):
        self.inner = inner
        self.injector = injector if injector is not None else FaultInjector()
        self.verify_checksums = verify_checksums
        self._checksums: dict[int, int] = {}
        for page_id in range(inner.num_pages):
            self._checksums[page_id] = zlib.crc32(inner.read(page_id))
        inner.reset_stats()
        # Serializes fault decisions (seeded RNG + rule bookkeeping) and
        # shadow-checksum updates under the concurrent serving layer; the
        # injected schedule stays deterministic *per access sequence*, and
        # the lock is what keeps that sequence well-defined.
        self._lock = threading.RLock()

    # Locks are process-local: strip on pickle (persist snapshots), rebuild
    # on unpickle.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # passthrough surface
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self.inner.page_size

    @property
    def stats(self) -> IOStats:
        return self.inner.stats

    @property
    def registry(self):
        """The inner device's metrics registry (one spine per tree)."""
        return self.inner.registry

    @property
    def fault_stats(self) -> FaultStats:
        return self.injector.stats

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    @property
    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes

    def allocate(self) -> int:
        with self._lock:
            page_id = self.inner.allocate()
            self._checksums[page_id] = zlib.crc32(bytes(self.page_size))
            return page_id

    def allocate_many(self, count: int) -> list[int]:
        return [self.allocate() for _ in range(count)]

    def corrupt(self, page_id: int, offset: int = 0) -> None:
        self.inner.corrupt(page_id, offset)

    def patch(self, page_id: int, data: bytes, *, update_checksum: bool = False) -> None:
        self.inner.patch(page_id, data, update_checksum=update_checksum)

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def fingerprint(self) -> str:
        return self.inner.fingerprint()

    # ------------------------------------------------------------------
    # faulty I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> bytes:
        with self._lock:
            return self._read_locked(page_id)

    def _read_locked(self, page_id: int) -> bytes:
        rules = self.injector.decide("read", page_id)
        error_rule = next((r for r in rules if r.kind != LATENCY), None)
        if error_rule is not None and error_rule.kind == READ_ERROR:
            # The wrapper mutates the *inner* device's counters from
            # outside the inner device's lock, so every adjustment here
            # must go through the stats view's atomic path (one mutex —
            # the registry's) rather than plain ``+=``.
            self.stats.inc("retried_reads")
            raise TransientReadError(
                f"injected read error on page {page_id}", page_id=page_id
            )

        seq_before = self.stats.sequential_reads
        data = self.inner.read(page_id)  # meters one successful read

        if error_rule is not None and error_rule.kind == BIT_FLIP:
            flipped = bytearray(data)
            offset = self.injector.rng.randrange(len(flipped))
            flipped[offset] ^= 1 << self.injector.rng.randrange(8)
            data = bytes(flipped)

        if self.verify_checksums:
            expected = self._checksums.get(page_id)
            actual = zlib.crc32(data)
            if expected is not None and actual != expected:
                # the metered read delivered garbage: reclassify as a
                # retry — one atomic multi-field adjustment, so no reader
                # ever observes the counters mid-reclassification
                was_sequential = self.stats.sequential_reads > seq_before
                self.stats.inc_many(
                    reads=-1,
                    bytes_read=-self.page_size,
                    sequential_reads=-1 if was_sequential else 0,
                    random_reads=0 if was_sequential else -1,
                    retried_reads=1,
                )
                raise PageCorruptionError(
                    f"checksum mismatch on page {page_id} after transfer "
                    f"(expected {expected:#010x}, found {actual:#010x})",
                    page_id=page_id,
                    expected_checksum=expected,
                    actual_checksum=actual,
                )
        return data

    def write(self, page_id: int, data: bytes) -> None:
        with self._lock:
            self._write_locked(page_id, data)

    def _write_locked(self, page_id: int, data: bytes) -> None:
        rules = self.injector.decide("write", page_id)
        error_rule = next((r for r in rules if r.kind != LATENCY), None)
        if error_rule is not None and error_rule.kind == WRITE_ERROR:
            self.stats.inc("retried_writes")
            raise TransientWriteError(
                f"injected write error on page {page_id}", page_id=page_id
            )
        if error_rule is not None and error_rule.kind == TORN_WRITE:
            padded = bytes(data) + bytes(max(0, self.page_size - len(data)))
            torn_len = max(1, self.injector.rng.randrange(1, self.page_size))
            self.inner.patch(page_id, padded[:torn_len], update_checksum=False)
            self.stats.inc("retried_writes")
            raise TornWriteError(
                f"injected torn write on page {page_id} "
                f"({torn_len} of {self.page_size} bytes reached storage)",
                page_id=page_id,
            )
        self.inner.write(page_id, data)
        if len(data) < self.page_size:
            data = bytes(data) + bytes(self.page_size - len(data))
        self._checksums[page_id] = zlib.crc32(data)

    # ------------------------------------------------------------------
    def scrub(self) -> "ScrubReport":
        """Read every stored page image and report detectable damage.

        Scrubbing inspects the *stored* state (injection bypassed), so it
        answers the crash-consistency question: after a crash, is every
        page either readable or detectably invalid?
        """
        corrupt: list[int] = []
        unreadable: list[int] = []
        for page_id in range(self.inner.num_pages):
            try:
                data = self.inner.read(page_id)
            except PageCorruptionError:
                corrupt.append(page_id)
                continue
            except StorageError:
                unreadable.append(page_id)
                continue
            expected = self._checksums.get(page_id)
            if expected is not None and zlib.crc32(data) != expected:
                corrupt.append(page_id)
        return ScrubReport(
            total_pages=self.inner.num_pages,
            corrupt_page_ids=tuple(corrupt),
            unreadable_page_ids=tuple(unreadable),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyBlockDevice(pages={self.num_pages}, "
            f"faults={self.fault_stats.total}, rules={len(self.injector.rules)})"
        )


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of :meth:`FaultyBlockDevice.scrub`."""

    total_pages: int
    corrupt_page_ids: tuple[int, ...]
    unreadable_page_ids: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.corrupt_page_ids and not self.unreadable_page_ids


def transient_fault_plan(
    seed: int,
    *,
    read_error_p: float = 0.05,
    write_error_p: float = 0.03,
    bit_flip_p: float = 0.02,
    torn_write_p: float = 0.01,
    latency_p: float = 0.02,
    max_triggers_per_rule: int | None = 64,
) -> FaultInjector:
    """A ready-made all-transient fault plan.

    Every fault it injects is cleared by a retry (read errors and bit-flips
    re-read the intact image; write errors and torn writes are healed by
    the retried full write), so any storage structure driven through a
    pool with a :class:`RetryPolicy` must produce *identical* results to a
    pristine device — the invariant
    ``tests/properties/test_fault_equivalence.py`` checks.
    """
    rules = [
        FaultRule(READ_ERROR, probability=read_error_p, max_triggers=max_triggers_per_rule),
        FaultRule(WRITE_ERROR, probability=write_error_p, max_triggers=max_triggers_per_rule),
        FaultRule(BIT_FLIP, probability=bit_flip_p, max_triggers=max_triggers_per_rule),
        FaultRule(TORN_WRITE, probability=torn_write_p, max_triggers=max_triggers_per_rule),
        FaultRule(LATENCY, probability=latency_p, max_triggers=max_triggers_per_rule),
    ]
    return FaultInjector(seed=seed, rules=rules)
