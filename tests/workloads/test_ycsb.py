"""YCSB generator: mixes, determinism, IPA interaction."""

import hashlib

import numpy as np
import pytest

from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash import media_digest
from repro.flash.modes import FlashMode
from repro.workloads.base import draws, release
from repro.workloads.ycsb import MIXES, YcsbWorkload, _value


def stack_for(workload, buffer_pages=16, scheme=SCHEME_2X4):
    return build_stack(
        ExperimentConfig(
            workload=workload,
            architecture="ipa-native",
            mode=FlashMode.SLC,
            scheme=scheme,
            buffer_pages=buffer_pages,
        )
    )


class TestFieldValues:
    @pytest.mark.parametrize("size", [1, 10, 37])
    def test_same_letters_and_same_stream_as_the_scalar_walk(self, size):
        """The field value is a slice of the kernel's letter table; it
        must spell what the letter-by-letter walk spelled and leave the
        stream — and, once released, the generator — where that walk
        left it (seeded op streams depend on it)."""
        letters = "abcdefghijklmnopqrstuvwxyz"
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(20):
            expected = "".join(
                letters[int(reference.integers(0, 26))] for _ in range(size)
            )
            assert _value(rng, size) == expected
        assert draws(rng).random() == reference.random()
        release(rng)
        assert rng.random() == reference.random()


#: (architecture, scheme, WAL, field count, field size, seed) -> the load
#: of a 1 000-record usertable (no transaction run): sha256 of its rows as
#: a scan decodes them, sha256 of data (+ WAL) media, both first 16 hex
#: digits, and the simulated clock.  Recorded while a row was ten
#: ``letters`` draws, its record a per-column encode and its insert the
#: whole update bracket.
LOAD_GOLDEN = {
    ("ipa-native", "2x4", True, 10, 10, 42): (
        "7b8c94fe6fba0eaa", "9e9fea52fdf9e080", "64037.480000000556"
    ),
    ("traditional", "off", False, 10, 10, 7): (
        "0915433c07932dc7", "4bf6ab2d5e665649", "15210.887999999966"
    ),
    ("ipa-native", "2x4", True, 3, 7, 5): (
        "112c00148440a132", "2c7b171daec4e0df", "33096.23200000002"
    ),
}


class TestLoadGolden:
    @pytest.mark.parametrize("case", sorted(LOAD_GOLDEN))
    def test_a_loaded_table_and_its_media(self, case):
        architecture, scheme, with_wal, field_count, field_size, seed = case
        workload = YcsbWorkload(
            records=1000, mix="b", field_count=field_count, field_size=field_size
        )
        db, manager = build_stack(
            ExperimentConfig(
                workload=workload,
                architecture=architecture,
                mode=FlashMode.SLC,
                scheme=SCHEME_2X4 if scheme == "2x4" else IPA_DISABLED,
                buffer_pages=16,
                with_wal=with_wal,
            )
        )
        workload.build(db, np.random.default_rng(seed))
        rows = [dict(row) for row in db.table("usertable").scan()]
        chips = (manager.device.chip,) + ((manager.wal.chip,) if with_wal else ())
        assert (
            hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            media_digest(*chips)[:16],
            repr(manager.clock.now_us),
        ) == LOAD_GOLDEN[case]


class TestYcsb:
    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbWorkload(mix="z")

    @pytest.mark.parametrize("field_count", [0, -2])
    def test_no_fields_rejected_at_construction(self, field_count):
        """Used to construct and then die inside the first update with
        numpy's bare ``low >= high``."""
        with pytest.raises(
            ValueError, match=f"field_count must be >= 1, got {field_count}"
        ):
            YcsbWorkload(field_count=field_count)

    def test_build(self):
        wl = YcsbWorkload(records=200, mix="a")
        db, _mgr = stack_for(wl)
        wl.build(db, np.random.default_rng(1))
        assert len(db.table("usertable")) == 200

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_mix_proportions(self, mix):
        wl = YcsbWorkload(records=300, mix=mix)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(2)
        wl.build(db, rng)
        counts = {}
        for _ in range(400):
            kind = wl.transaction(db, rng)
            counts[kind] = counts.get(kind, 0) + 1
        expected = MIXES[mix]
        got_read = counts.get("read", 0) / 400
        assert abs(got_read - expected["read"]) < 0.12

    def test_updates_round_trip(self):
        wl = YcsbWorkload(records=150, mix="a", zipfian=False)
        db, mgr = stack_for(wl, buffer_pages=4)
        rng = np.random.default_rng(3)
        wl.build(db, rng)
        for _ in range(300):
            wl.transaction(db, rng)
        db.checkpoint()
        mgr.pool.drop_all()
        # All rows still readable and schema-valid after heavy churn.
        table = db.table("usertable")
        for key in range(150):
            row = table.get(key)
            assert row["key"] == key

    def test_update_heavy_mix_uses_ipa_with_sized_m(self):
        # YCSB replaces whole fields, so M must cover the field width:
        # with [2x4] a 10-byte field rewrite never conforms (an honest
        # workload/scheme mismatch); [2x12] captures it.
        from repro.core.config import IpaScheme

        wl = YcsbWorkload(records=800, mix="a", field_size=10)
        db, mgr = stack_for(wl, buffer_pages=8, scheme=IpaScheme(2, 12))
        rng = np.random.default_rng(4)
        wl.build(db, rng)
        for _ in range(600):
            wl.transaction(db, rng)
        db.checkpoint()
        assert mgr.device.stats.host_delta_writes > 0

    def test_whole_field_updates_miss_small_m(self):
        # The counterpart: [2x4] cannot capture 10-byte field rewrites.
        wl = YcsbWorkload(records=800, mix="a", field_size=10)
        db, mgr = stack_for(wl, buffer_pages=8)
        rng = np.random.default_rng(4)
        wl.build(db, rng)
        for _ in range(300):
            wl.transaction(db, rng)
        db.checkpoint()
        assert mgr.device.stats.host_delta_writes == 0

    def test_name_carries_mix(self):
        assert YcsbWorkload(mix="b").name == "ycsb-b"
