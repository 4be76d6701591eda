"""ARIES-lite crash recovery: correctness under any crash point."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import RecoveryManager
from repro.core.wal import (
    BatteryDRAMLogBackend,
    CXLNVMLogBackend,
    NVMeLogBackend,
    WriteAheadLog,
)
from repro.errors import TransactionError
from repro.storage.disk import StorageDevice


def manager(group_size=1) -> RecoveryManager:
    return RecoveryManager(
        WriteAheadLog(BatteryDRAMLogBackend.build(),
                      group_size=group_size)
    )


class TestTransactions:
    def test_committed_update_visible(self):
        rm = manager()
        rm.begin(1)
        rm.update(1, page_id=0, key="a", value=10)
        rm.commit(1)
        assert rm.read(0, "a") == 10

    def test_double_begin_rejected(self):
        rm = manager()
        rm.begin(1)
        with pytest.raises(TransactionError):
            rm.begin(1)

    def test_rolled_back_txn_id_is_refused(self):
        """A loser's id stays used after recovery: reusing it would let
        its rolled-back update ride in on the new commit record."""
        rm = manager()
        rm.begin(1)
        rm.update(1, 0, "a", 10)
        rm.commit(1)
        rm.begin(2)
        rm.update(2, 0, "a", 99)
        rm.crash()
        rm.recover()
        assert rm.read(0, "a") == 10
        with pytest.raises(TransactionError, match="already used"):
            rm.begin(2)
        rm.begin(3)
        rm.update(3, 0, "b", 1)
        rm.commit(3)
        rm.crash()
        rm.recover()
        assert (rm.read(0, "a"), rm.read(0, "b")) == (10, 1)

    def test_update_without_begin_rejected(self):
        with pytest.raises(TransactionError):
            manager().update(1, 0, "a", 1)

    def test_dirty_write_rejected(self):
        """ARIES undo requires strict 2PL: a second transaction may
        not overwrite uncommitted data."""
        rm = manager()
        rm.begin(1)
        rm.begin(2)
        rm.update(1, 0, "a", 10)
        with pytest.raises(TransactionError):
            rm.update(2, 0, "a", 99)
        rm.commit(1)
        rm.update(2, 0, "a", 99)  # lock released: now fine
        rm.commit(2)
        assert rm.read(0, "a") == 99

    def test_commit_forces_log(self):
        rm = manager(group_size=8)
        rm.begin(1)
        rm.update(1, 0, "a", 1)
        assert rm.wal.pending > 0
        rm.commit(1)
        assert rm.wal.pending == 0


class TestCrashRecovery:
    def test_committed_survives_crash_without_flush(self):
        rm = manager()
        rm.begin(1)
        rm.update(1, 0, "a", 10)
        rm.commit(1)
        rm.crash()               # dirty page never flushed
        report = rm.recover()
        assert rm.read(0, "a") == 10
        assert report.redo_applied >= 1

    def test_uncommitted_rolled_back_after_crash(self):
        rm = manager()
        rm.begin(1)
        rm.update(1, 0, "a", 10)
        rm.commit(1)
        rm.begin(2)
        rm.update(2, 0, "a", 99)  # loser
        rm.crash()
        report = rm.recover()
        assert rm.read(0, "a") == 10
        assert report.losers == {2}
        assert report.undo_applied >= 1

    def test_recovery_idempotent(self):
        rm = manager()
        rm.begin(1)
        rm.update(1, 0, "a", 10)
        rm.commit(1)
        rm.crash()
        rm.recover()
        state_once = dict(rm.volatile.get(0, {}))
        rm.crash()
        rm.recover()
        assert rm.volatile.get(0, {}) == state_once


class TestLogPlacementTiming:
    def _workload(self, rm):
        for txn in range(1, 30):
            rm.begin(txn)
            rm.update(txn, txn % 4, "k", txn)
            rm.commit(txn)
        rm.crash()
        return rm.recover()

    def test_cxl_nvm_recovers_faster_than_nvme(self):
        nvme = RecoveryManager(
            WriteAheadLog(NVMeLogBackend(StorageDevice())))
        cxl = RecoveryManager(WriteAheadLog(CXLNVMLogBackend.build()))
        t_nvme = self._workload(nvme).time_ns
        t_cxl = self._workload(cxl).time_ns
        assert t_cxl < t_nvme

    def test_commit_latency_ordering(self):
        nvme = RecoveryManager(
            WriteAheadLog(NVMeLogBackend(StorageDevice())))
        cxl = RecoveryManager(WriteAheadLog(CXLNVMLogBackend.build()))
        for rm in (nvme, cxl):
            rm.begin(1)
            rm.update(1, 0, "a", 1)
            rm.commit(1)
        assert cxl.wal.commit_latency.mean < nvme.wal.commit_latency.mean


@given(ops=st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # txn slot
        st.integers(min_value=0, max_value=3),    # page
        st.sampled_from(["x", "y"]),              # key
        st.integers(min_value=0, max_value=99),   # value
        st.sampled_from(["update", "commit"]),
    ),
    min_size=1, max_size=60,
))
@settings(max_examples=60, deadline=None)
def test_recovery_equals_committed_history(ops):
    """Property: after crash+recover, state equals exactly the replay
    of committed transactions in commit order."""
    rm = manager()
    txn_ids = {}
    next_txn = 1
    pending: dict[int, list] = {}
    committed_effects: list = []
    write_locks: dict[tuple, int] = {}

    for slot, page, key, value, action in ops:
        if slot not in txn_ids:
            txn_ids[slot] = next_txn
            rm.begin(next_txn)
            pending[slot] = []
            next_txn += 1
        txn = txn_ids[slot]
        if action == "update":
            # Strict 2PL: skip updates that would be dirty writes
            # (the manager rejects them; see the dedicated test).
            holder = write_locks.get((page, key))
            if holder is not None and holder != txn:
                continue
            rm.update(txn, page, key, value)
            write_locks[(page, key)] = txn
            pending[slot].append((page, key, value))
        else:  # commit
            rm.commit(txn)
            committed_effects.extend(pending[slot])
            write_locks = {
                k: h for k, h in write_locks.items() if h != txn
            }
            del txn_ids[slot]
            del pending[slot]

    rm.crash()
    rm.recover()

    expected: dict[tuple, int] = {}
    for page, key, value in committed_effects:
        expected[(page, key)] = value
    for (page, key), value in expected.items():
        assert rm.read(page, key) == value
    # Loser updates to untouched keys are invisible.
    committed_keys = set(expected)
    for slot, updates in pending.items():
        for page, key, _value in updates:
            if (page, key) not in committed_keys:
                assert rm.read(page, key) is None
