"""Shadow-model fuzzing: the whole stack vs a plain dictionary.

A random stream of inserts / field-updates / deletes / point reads runs
against every storage architecture (traditional, IPA block-device, IPA
native, IPL) with a tiny buffer pool — so evictions, delta-records,
reconstructions, GC and IPL merges all fire constantly — while a Python
dict mirrors the expected logical state.  Any divergence is a
correctness bug in the write or reconstruction path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.ipl import IplConfig, IplPolicy, IplStore
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.heap import FileFullError
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
)

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=48)

SCHEMA = Schema(
    [
        Column("k", ColumnType.INT32),
        Column("v1", ColumnType.INT64),
        Column("v2", ColumnType.INT64),
        Column("tag", ColumnType.CHAR, 12),
    ]
)


def make_db(architecture: str) -> Database:
    if architecture == "traditional":
        device = PageMappingFtl(FlashChip(GEO), over_provisioning=0.2)
        manager = StorageManager(
            device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=4
        )
    elif architecture == "ipa-blockdev":
        device = IpaFtl(FlashChip(GEO), over_provisioning=0.2)
        manager = StorageManager(
            device, SCHEME_2X4, IpaBlockDevicePolicy(), buffer_capacity=4
        )
    elif architecture == "ipa-native":
        device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
        device.create_region("t", blocks=48, ipa=SCHEME_2X4)
        manager = StorageManager(
            device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=4
        )
    elif architecture == "ipl":
        device = IplStore(
            FlashChip(GEO),
            IplConfig(log_pages_per_block=2, sector_size=256),
        )
        manager = StorageManager(
            device, IPA_DISABLED, IplPolicy(), buffer_capacity=4
        )
    else:
        raise ValueError(architecture)
    return Database(manager)


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update_v1", "update_v2", "update_both",
                         "delete", "read", "checkpoint", "drop_cache"]),
        st.integers(min_value=0, max_value=59),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
    min_size=20,
    max_size=120,
)


@pytest.mark.parametrize(
    "architecture", ["traditional", "ipa-blockdev", "ipa-native", "ipl"]
)
@given(ops=op_strategy)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stack_matches_shadow_model(architecture, ops):
    db = make_db(architecture)
    table = db.create_table("t", SCHEMA, n_pages=40, pk="k")
    shadow: dict[int, dict] = {}

    for op, key, value in ops:
        if op == "insert":
            if key in shadow:
                continue
            row = {"k": key, "v1": value, "v2": value // 2, "tag": f"t{key}"}
            try:
                table.insert(row)
            except FileFullError:
                continue
            shadow[key] = dict(row)
        elif op == "update_v1":
            if key in shadow:
                table.update_field(key, "v1", value)
                shadow[key]["v1"] = value
        elif op == "update_v2":
            if key in shadow:
                table.update_field(key, "v2", value)
                shadow[key]["v2"] = value
        elif op == "update_both":
            if key in shadow:
                table.update_fields(key, {"v1": value, "v2": value + 1})
                shadow[key]["v1"] = value
                shadow[key]["v2"] = value + 1
        elif op == "delete":
            if key in shadow:
                table.delete(key)
                del shadow[key]
        elif op == "read":
            if key in shadow:
                assert table.get(key) == shadow[key]
        elif op == "checkpoint":
            db.checkpoint()
            if architecture == "ipl":
                db.manager.device.flush_log_buffers()
        elif op == "drop_cache":
            # Everything must be reconstructible from Flash alone.
            db.checkpoint()
            if architecture == "ipl":
                db.manager.device.flush_log_buffers()
            db.manager.pool.drop_all()

    # Final verification: full state from Flash after a cold restart.
    db.checkpoint()
    if architecture == "ipl":
        db.manager.device.flush_log_buffers()
    db.manager.pool.drop_all()
    for key, expected in shadow.items():
        assert table.get(key) == expected, f"{architecture}: key {key} diverged"
    assert len(table) == len(shadow)
