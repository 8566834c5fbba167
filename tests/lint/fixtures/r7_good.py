# reprolint: module=repro.service.fixture_r7_good
"""R7 good fixture: the same WAL shape with the barriers in place.

Mirrors the real :class:`repro.engine.wal.WriteAheadLog` structure —
commit delegates to a private append helper, the barrier is an
unconditional ``chip.sync()`` (a no-op over a bare synchronous chip),
truncate erases then syncs — and the replication link acks only after
the standby applied.
"""


class BarrierWal:
    def __init__(self, chip):
        self.chip = chip
        self.head = 0

    def commit(self, frame):
        self._append(frame)

    def _append(self, frame):
        for offset, byte in enumerate(frame):
            self.chip.partial_program(self.head + offset, byte)
        self.head += len(frame)
        self.chip.sync()

    def truncate(self):
        for block in range(4):
            self.chip.erase_block(block)
        self.head = 0
        self.chip.sync()


class PatientLink:
    def __init__(self, standby):
        self.standby = standby
        self.groups_acked = 0

    def ship(self, group):
        self.standby.apply_group(group)
        self.groups_acked += 1  # ack strictly after the standby apply
