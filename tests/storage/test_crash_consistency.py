"""Unit tests for the HostStorage crash-consistency model.

The model under test: buffered writes are visible to readers but not
durable until an fsync barrier; a power loss resolves each un-synced write
with a seeded fate (dropped, torn mid-blob, or fully applied — independent
per file, so effectively reordered across files); an armed crash point
kills the disk controller mid-sequence. Everything is deterministic from
the RNG seed.
"""

import random

import pytest

from repro.errors import LedgerError
from repro.storage.host_storage import HostStorage


class TestBufferedVsDurable:
    def test_synced_write_is_durable(self):
        storage = HostStorage()
        storage.write("a.bin", b"hello")
        assert storage.read("a.bin") == b"hello"
        assert storage.durable_image().read("a.bin") == b"hello"

    def test_buffered_write_visible_but_not_durable(self):
        storage = HostStorage()
        storage.write("a.bin", b"hello", sync=False)
        assert storage.read("a.bin") == b"hello"  # page-cache view
        with pytest.raises(LedgerError):
            storage.durable_image().read("a.bin")
        assert storage.dirty_files() == ["a.bin"]

    def test_fsync_is_the_durability_barrier(self):
        storage = HostStorage()
        storage.write_buffered("a.bin", b"hello")
        storage.fsync("a.bin")
        assert storage.durable_image().read("a.bin") == b"hello"
        assert storage.dirty_files() == []

    def test_unsynced_delete_hides_file_from_readers(self):
        storage = HostStorage()
        storage.write("a.bin", b"hello")
        storage.delete("a.bin", sync=False)
        with pytest.raises(LedgerError):
            storage.read("a.bin")
        assert "a.bin" not in storage.list_files()
        # ... but the durable image still holds it.
        assert storage.durable_image().read("a.bin") == b"hello"

    def test_fsync_all_flushes_every_pending_write(self):
        storage = HostStorage()
        for i in range(5):
            storage.write(f"f{i}.bin", bytes([i]) * 10, sync=False)
        storage.fsync_all()
        image = storage.durable_image()
        for i in range(5):
            assert image.read(f"f{i}.bin") == bytes([i]) * 10

    def test_clone_keeps_buffer_durable_image_drops_it(self):
        storage = HostStorage()
        storage.write("synced.bin", b"durable")
        storage.write("pending.bin", b"volatile", sync=False)
        clone = storage.clone()
        assert clone.read("pending.bin") == b"volatile"
        assert clone.dirty_files() == ["pending.bin"]
        image = storage.durable_image()
        with pytest.raises(LedgerError):
            image.read("pending.bin")


class TestPowerLoss:
    def test_durable_content_always_survives(self):
        for seed in range(20):
            storage = HostStorage()
            storage.write("synced.bin", b"must-survive")
            storage.write("pending.bin", b"x" * 100, sync=False)
            storage.power_loss(random.Random(seed))
            assert storage.files["synced.bin"] == b"must-survive"

    def test_fates_are_seeded_and_deterministic(self):
        def run(seed):
            storage = HostStorage()
            for i in range(8):
                storage.write(f"f{i}.bin", bytes(range(64)), sync=False)
            events = storage.power_loss(random.Random(seed))
            return events, dict(storage.files)

        events_a, files_a = run(42)
        events_b, files_b = run(42)
        assert events_a == events_b
        assert files_a == files_b

    def test_all_three_fates_reachable(self):
        outcomes = set()
        for seed in range(64):
            storage = HostStorage()
            storage.write("f.bin", bytes(range(64)), sync=False)
            (event,) = storage.power_loss(random.Random(seed))
            if "lost" in event:
                outcomes.add("lost")
            elif "torn" in event:
                outcomes.add("torn")
                assert 0 < len(storage.files["f.bin"]) < 64
                assert bytes(range(64)).startswith(storage.files["f.bin"])
            else:
                outcomes.add("survived")
                assert storage.files["f.bin"] == bytes(range(64))
        assert outcomes == {"lost", "torn", "survived"}

    def test_cross_file_reordering(self):
        """A later write can survive while an earlier one is lost — the
        write-reordering anomaly real disks exhibit."""
        seen_reorder = False
        for seed in range(64):
            storage = HostStorage()
            storage.write("first.bin", b"a" * 32, sync=False)
            storage.write("second.bin", b"b" * 32, sync=False)
            storage.power_loss(random.Random(seed))
            if "second.bin" in storage.files and "first.bin" not in storage.files:
                seen_reorder = True
                break
        assert seen_reorder

    def test_unsynced_delete_resolves_by_coin(self):
        applied = lost = 0
        for seed in range(32):
            storage = HostStorage()
            storage.write("f.bin", b"data")
            storage.delete("f.bin", sync=False)
            storage.power_loss(random.Random(seed))
            if "f.bin" in storage.files:
                lost += 1
            else:
                applied += 1
        assert applied > 0 and lost > 0

    def test_power_loss_marks_disk_crashed(self):
        storage = HostStorage()
        storage.write("f.bin", b"data", sync=False)
        storage.power_loss(random.Random(0))
        storage.write("g.bin", b"late")  # silently ignored: disk is dead
        assert "g.bin" not in storage.list_files()


class TestCrashPoints:
    def test_countdown_ops_succeed_then_silence(self):
        storage = HostStorage()
        storage.arm_crash_point(countdown=2)
        storage.write("a.bin", b"1", sync=False)  # op 1
        storage.write("b.bin", b"2", sync=False)  # op 2
        storage.write("c.bin", b"3", sync=False)  # dropped: disk died
        assert storage.crashed
        assert storage.read("a.bin") == b"1"
        assert storage.read("b.bin") == b"2"
        with pytest.raises(LedgerError):
            storage.read("c.bin")
        assert any("disk died before" in line for line in storage.crash_log)

    def test_crash_between_write_and_fsync(self):
        """The mid-chunk-write crash: the buffered write lands, its barrier
        does not, so the bytes are at the mercy of the power loss."""
        storage = HostStorage()
        storage.arm_crash_point(countdown=1)
        storage.write("chunk.bin", b"payload", sync=True)  # write ok, fsync dies
        assert storage.read("chunk.bin") == b"payload"
        assert storage.dirty_files() == ["chunk.bin"]
        with pytest.raises(LedgerError):
            storage.durable_image().read("chunk.bin")

    def test_armed_but_not_reached_is_harmless(self):
        storage = HostStorage()
        storage.arm_crash_point(countdown=100)
        storage.write("a.bin", b"data")
        assert not storage.crashed
        assert storage.durable_image().read("a.bin") == b"data"


class TestSyncedLedgerSeqno:
    def test_complete_chunk_fsync_advances_high_water_mark(self):
        storage = HostStorage()
        storage.write("ledger_1_5.chunk", b"entries")
        assert storage.synced_ledger_seqno == 5
        storage.write("ledger_6_9.chunk", b"entries")
        assert storage.synced_ledger_seqno == 9

    def test_open_chunk_and_buffered_writes_do_not_advance(self):
        storage = HostStorage()
        storage.write("ledger_1_5.open.chunk", b"entries")
        assert storage.synced_ledger_seqno == 0
        storage.write("ledger_1_5.chunk", b"entries", sync=False)
        assert storage.synced_ledger_seqno == 0
        storage.fsync("ledger_1_5.chunk")
        assert storage.synced_ledger_seqno == 5

    def test_snapshot_write_declares_sync_point(self):
        storage = HostStorage()
        storage.write("manifest_7.bin", b"manifest-bytes", sync=True)
        assert storage.durable_image().read("manifest_7.bin") == b"manifest-bytes"
