"""ARIES-lite crash recovery over tiered memory and a placed log.

Ties the WAL backends (:mod:`repro.core.wal`) to real crash
semantics: updates go to volatile pages and to the log; commits force
the log; a crash discards volatile state; recovery runs analysis /
redo / undo and must restore exactly the committed effects.

Placement matters twice (and experiment A7 measures both):

* the log backend sets commit latency (NVMe vs CXL-NVM vs replicated);
* recovery reads the log at the backend's bandwidth, so a CXL-NVM log
  replays at memory speed while an NVMe log replays at disk speed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import TransactionError
from ..units import transfer_time_ns
from .wal import LogBackend, WriteAheadLog

#: Approximate serialized size of one update record.
RECORD_BYTES = 128
#: Rate at which redo/undo applies records to pages.
APPLY_RATE = 2.0  # bytes/ns


class RecordKind(enum.Enum):
    """Log record types."""

    UPDATE = "update"
    COMMIT = "commit"


@dataclass(frozen=True)
class LogRecord:
    """One write-ahead log record."""

    lsn: int
    kind: RecordKind
    txn_id: int = -1
    page_id: int = -1
    key: object = None
    before: object = None
    after: object = None


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass."""

    analysis_records: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    losers: set[int] = field(default_factory=set)
    time_ns: float = 0.0


class RecoveryManager:
    """A minimal ARIES: WAL + volatile page images.

    Pages are dictionaries (key -> value) held in ``volatile``, the
    buffer pool's view. No page is written back before a crash, so the
    log is the only durable state and recovery rebuilds every page
    from it.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self.volatile: dict[int, dict] = {}
        self.log: list[LogRecord] = []
        self.committed: set[int] = set()
        self.active: set[int] = set()
        # Every txn id with a record in the log. Recovery judges a txn
        # by its records, so an id reused after a crash would inherit
        # (and could commit) a rolled-back loser's updates.
        self._logged: set[int] = set()
        # Strict 2PL on writes: ARIES undo is only correct if no
        # transaction overwrites another's uncommitted data.
        self._write_locks: dict[tuple[int, object], int] = {}
        self._next_lsn = 1
        self.now_ns = 0.0

    # -- logging ----------------------------------------------------------

    def _append(self, record: LogRecord) -> None:
        self.log.append(record)
        done = self.wal.append(RECORD_BYTES, self.now_ns)
        if done is not None:
            self.now_ns = done

    # -- transaction API -----------------------------------------------------

    def begin(self, txn_id: int) -> None:
        """Start a transaction; an id already in the log is refused."""
        if txn_id in self.active or txn_id in self._logged:
            raise TransactionError(f"txn {txn_id} already used")
        self.active.add(txn_id)

    def update(self, txn_id: int, page_id: int, key: object,
               value: object) -> None:
        """Apply an update to the volatile page, logging before/after."""
        if txn_id not in self.active:
            raise TransactionError(f"txn {txn_id} not active")
        holder = self._write_locks.get((page_id, key))
        if holder is not None and holder != txn_id:
            raise TransactionError(
                f"dirty write: ({page_id}, {key!r}) is write-locked"
                f" by txn {holder}"
            )
        self._write_locks[(page_id, key)] = txn_id
        self._logged.add(txn_id)
        page = self.volatile.setdefault(page_id, {})
        lsn = self._next_lsn
        self._next_lsn += 1
        self._append(LogRecord(
            lsn=lsn, kind=RecordKind.UPDATE, txn_id=txn_id,
            page_id=page_id, key=key,
            before=page.get(key), after=value,
        ))
        page[key] = value

    def commit(self, txn_id: int) -> float:
        """Commit: log the record and force the WAL. Returns the
        durable-commit time."""
        if txn_id not in self.active:
            raise TransactionError(f"txn {txn_id} not active")
        lsn = self._next_lsn
        self._next_lsn += 1
        self.log.append(LogRecord(lsn=lsn, kind=RecordKind.COMMIT,
                                  txn_id=txn_id))
        self._logged.add(txn_id)
        self.wal.append(RECORD_BYTES, self.now_ns)
        done = self.wal.flush(self.now_ns)
        if done is not None:
            self.now_ns = done
        self.active.discard(txn_id)
        self.committed.add(txn_id)
        self._release_locks(txn_id)
        return self.now_ns

    def _release_locks(self, txn_id: int) -> None:
        self._write_locks = {
            key: holder for key, holder in self._write_locks.items()
            if holder != txn_id
        }

    # -- crash and recovery --------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (the log survives)."""
        self.volatile.clear()
        self._write_locks.clear()

    def recover(self, backend: LogBackend | None = None
                ) -> RecoveryReport:
        """Analysis + redo + undo; rebuilds volatile state.

        *backend* (default: the WAL's backend) sets the log *read*
        bandwidth, so the report's time reflects where the log lives.
        """
        report = RecoveryReport()
        backend = backend or self.wal.backend

        # Analysis: find losers (txns with no commit record).
        seen: set[int] = set()
        finished: set[int] = set()
        for record in self.log:
            report.analysis_records += 1
            if record.txn_id >= 0:
                seen.add(record.txn_id)
                if record.kind is RecordKind.COMMIT:
                    finished.add(record.txn_id)
        report.losers = seen - finished

        # Redo: repeat the whole history onto empty pages.
        self.volatile = {}
        for record in self.log:
            if record.kind is not RecordKind.UPDATE:
                continue
            page = self.volatile.setdefault(record.page_id, {})
            if record.after is None:
                page.pop(record.key, None)
            else:
                page[record.key] = record.after
            report.redo_applied += 1

        # Undo the losers, newest first.
        for record in reversed(self.log):
            if record.kind is RecordKind.UPDATE and \
                    record.txn_id in report.losers:
                page = self.volatile.setdefault(record.page_id, {})
                if record.before is None:
                    page.pop(record.key, None)
                else:
                    page[record.key] = record.before
                report.undo_applied += 1
        self.active -= report.losers

        # Timing: read the log from its backend, apply records.
        log_bytes = max(1, len(self.log)) * RECORD_BYTES
        report.time_ns = (
            backend.force_time_ns(log_bytes)  # read ~= write envelope
            + transfer_time_ns(
                (report.redo_applied + report.undo_applied + 1)
                * RECORD_BYTES, APPLY_RATE)
        )
        self.now_ns += report.time_ns
        return report

    # -- verification helpers ----------------------------------------------------------

    def read(self, page_id: int, key: object) -> object | None:
        """Current (volatile) value of a key."""
        return self.volatile.get(page_id, {}).get(key)
