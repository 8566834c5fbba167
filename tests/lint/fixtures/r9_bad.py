# reprolint: module=repro.service.fixture_r9_bad
"""R9 bad fixture: arithmetic mixing two clock domains.

A per-shard ``SimClock`` timestamp and a global clock timestamp meet in
subtraction, addition and comparison — all three are domain mixes that
must go through the sanctioned helper ``repro.service.service.global_end_us``.
"""


class Skew:
    def __init__(self, shards, global_clock):
        self.shards = shards
        self.global_clock = global_clock

    def skew_us(self, shard):
        local_us = shard.manager.clock.now_us
        global_us = self.global_clock.now_us
        return local_us - global_us  # cross-domain subtraction

    def deadline_us(self, shard):
        # Adding two absolute timestamps is meaningless in any domain.
        return shard.manager.clock.now_us + self.global_clock.now_us

    def is_late(self, shard):
        return shard.manager.clock.now_us > self.global_clock.now_us
