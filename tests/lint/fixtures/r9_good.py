# reprolint: module=repro.service.fixture_r9_good
"""R9 good fixture: same-domain arithmetic and sanctioned mapping.

Durations are computed on one clock; the shard-to-global mapping flows
through ``global_end_us``, the only function allowed to bridge domains.
"""

from repro.service.service import global_end_us


class Mapper:
    def end_time_us(self, t_us, shard):
        clock = shard.manager.clock
        start_us = clock.now_us
        shard.execute()
        duration_us = clock.now_us - start_us
        return global_end_us(t_us, duration_us)

    def offset_us(self, shard, think_us):
        # Timestamp plus a scalar duration stays in the shard's domain.
        return shard.manager.clock.now_us + think_us
