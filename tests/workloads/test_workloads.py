"""Workload generators: build, run, and verify invariants."""

import hashlib

import numpy as np
import pytest

from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import SCHEME_2X4
from repro.flash import media_digest
from repro.flash.modes import FlashMode
from repro.workloads import WORKLOADS
from repro.workloads.base import draws, nurand, zipf_index
from repro.workloads.linkbench import LinkBenchWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload


def stack_for(workload, buffer_pages=64, **overrides):
    config = ExperimentConfig(
        workload=workload,
        architecture="ipa-native",
        mode=FlashMode.SLC,
        scheme=SCHEME_2X4,
        buffer_pages=buffer_pages,
        **overrides,
    )
    return build_stack(config)


class TestRandomHelpers:
    def test_nurand_in_range(self):
        rng = np.random.default_rng(1)
        values = [nurand(rng, 255, 0, 999) for _ in range(500)]
        assert all(0 <= v <= 999 for v in values)

    def test_zipf_skewed_and_bounded(self):
        rng = np.random.default_rng(1)
        values = [zipf_index(rng, 100) for _ in range(2000)]
        assert all(0 <= v < 100 for v in values)
        # Zipf: the head dominates the tail.
        assert values.count(0) > len(values) * 0.10
        assert values.count(0) > 10 * max(values.count(90), 1)


class TestTpcb:
    def test_build_populates_tables(self):
        wl = TpcbWorkload(scale=1, accounts_per_branch=200, history_pages=20)
        db, _mgr = stack_for(wl)
        wl.build(db, np.random.default_rng(1))
        assert len(db.table("account")) == 200
        assert len(db.table("teller")) == 10
        assert len(db.table("branch")) == 1

    def test_money_conservation(self):
        """sum(accounts) + sum(tellers) + sum(branches) moves together:
        every delta is applied to all three, so their totals stay equal."""
        wl = TpcbWorkload(scale=1, accounts_per_branch=100, history_pages=30)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(2)
        wl.build(db, rng)
        for _ in range(150):
            wl.transaction(db, rng)
        account_total = sum(r["a_balance"] for r in db.table("account").scan())
        teller_total = sum(r["t_balance"] for r in db.table("teller").scan())
        branch_total = sum(r["b_balance"] for r in db.table("branch").scan())
        base = 100 * wl.initial_balance
        assert account_total - base == teller_total - 10 * wl.initial_balance
        assert account_total - base == branch_total - wl.initial_balance

    def test_history_grows(self):
        wl = TpcbWorkload(scale=1, accounts_per_branch=100, history_pages=30)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(2)
        wl.build(db, rng)
        for _ in range(50):
            wl.transaction(db, rng)
        assert len(db.table("history")) == 50

    def test_deterministic_given_seed(self):
        def run_once():
            wl = TpcbWorkload(scale=1, accounts_per_branch=100, history_pages=30)
            db, mgr = stack_for(wl)
            rng = np.random.default_rng(3)
            wl.build(db, rng)
            for _ in range(100):
                wl.transaction(db, rng)
            return (
                mgr.device.stats.host_writes,
                mgr.device.stats.host_delta_writes,
                sum(r["a_balance"] for r in db.table("account").scan()),
            )

        assert run_once() == run_once()

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TpcbWorkload(scale=0)

    @pytest.mark.parametrize(
        "field, value",
        [("accounts_per_branch", 0), ("accounts_per_branch", -3), ("history_pages", 0)],
    )
    def test_empty_tables_rejected_at_construction(self, field, value):
        """Used to construct and then die inside the first transaction
        with numpy's bare ``low >= high``."""
        with pytest.raises(ValueError, match=rf"{field} must be >= 1, got {value}"):
            TpcbWorkload(**{field: value})


class TestTpcc:
    def test_build_and_run(self):
        wl = TpccWorkload(warehouses=1, customers_per_district=10, items=200)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(4)
        wl.build(db, rng)
        counts = {}
        for _ in range(200):
            kind = wl.transaction(db, rng)
            counts[kind] = counts.get(kind, 0) + 1
        # All five types appear; NewOrder and Payment dominate (45/43 mix).
        assert set(counts) >= {"NewOrder", "Payment"}
        assert counts["NewOrder"] + counts["Payment"] > 150

    def test_new_order_advances_district_counter(self):
        wl = TpccWorkload(warehouses=1, customers_per_district=10, items=200)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(4)
        wl.build(db, rng)
        for _ in range(100):
            wl.transaction(db, rng)
        row = db.table("district").get((0, 0))
        assert row["d_next_o_id"] == wl._next_order[(0, 0)]

    def test_stock_updates_are_one_op(self):
        """The NewOrder stock update must be a single grouped operation,
        else it can never conform to N x M."""
        wl = TpccWorkload(warehouses=1, customers_per_district=10, items=200)
        db, mgr = stack_for(wl)
        rng = np.random.default_rng(4)
        wl.build(db, rng)
        ops_before = mgr.stats.update_ops
        wl._new_order(db, draws(rng))
        ops = mgr.stats.update_ops - ops_before
        # 1 district + 1 per order line (5..15 lines): <= 16 ops total.
        assert ops <= 16


class TestTatp:
    def test_build_and_mix(self):
        wl = TatpWorkload(subscribers=300)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(5)
        wl.build(db, rng)
        counts = {}
        for _ in range(500):
            kind = wl.transaction(db, rng)
            counts[kind] = counts.get(kind, 0) + 1
        reads = (
            counts.get("GET_SUBSCRIBER_DATA", 0)
            + counts.get("GET_NEW_DESTINATION", 0)
            + counts.get("GET_ACCESS_DATA", 0)
        )
        # TATP: ~80 % reads.
        assert reads / 500 > 0.70

    def test_update_location_changes_subscriber(self):
        wl = TatpWorkload(subscribers=50)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(5)
        wl.build(db, rng)
        before = {r["s_id"]: r["vlr_location"] for r in db.table("subscriber").scan()}
        for _ in range(60):
            wl._update_location(db, draws(rng))
        after = {r["s_id"]: r["vlr_location"] for r in db.table("subscriber").scan()}
        assert before != after


class TestLinkBench:
    def test_build_and_run(self):
        wl = LinkBenchWorkload(nodes=200, links_per_node=2)
        db, _mgr = stack_for(wl)
        rng = np.random.default_rng(6)
        wl.build(db, rng)
        assert len(db.table("node")) == 200
        for _ in range(300):
            wl.transaction(db, rng)
        # Adjacency mirror stays consistent with the link table.
        live_links = sum(len(v) for v in wl._adjacency.values())
        assert live_links == len(db.table("link"))

    def test_registry(self):
        assert set(WORKLOADS) == {"tpcb", "tpcc", "tatp", "linkbench", "ycsb"}


# ---------------------------------------------------------------------- #
# Seeded streams: no draw outside the kernel, no draw out of order
# ---------------------------------------------------------------------- #


class KernelOnlyGenerator(np.random.Generator):
    """A generator whose own samplers refuse to run: whatever a workload
    draws has to come through the draw kernel's raw-word prefetch."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a workload drew from its generator directly")

    random = integers = choice = bytes = _refuse


SEEDED_WORKLOADS = {
    "tpcb": lambda: TpcbWorkload(scale=2, accounts_per_branch=150, history_pages=40),
    "tpcc": lambda: TpccWorkload(
        warehouses=2, customers_per_district=12, items=150, order_pages=60
    ),
    "tatp": lambda: TatpWorkload(subscribers=300),
    "linkbench": lambda: LinkBenchWorkload(nodes=300, links_per_node=3),
    "ycsb-a": lambda: YcsbWorkload(records=300, mix="a"),
    "ycsb-f-uniform": lambda: YcsbWorkload(records=300, mix="f", zipfian=False),
}

#: (workload, seed) -> (sha256 of the 2 000 transaction types in order,
#: sha256 of data + WAL media after the final checkpoint), first 16 hex
#: digits each, recorded at commit 0870827 — when every draw was a plain
#: ``rng.integers`` / ``rng.random`` / ``np.searchsorted`` call.
PARENT_STREAMS = {
    ("tpcb", 7): ("b894214f2de3718e", "8149f8179c1f0c25"),
    ("tpcb", 2017): ("b894214f2de3718e", "ba12d2aee5bf5f28"),
    ("tpcc", 7): ("ddbfa4fde2973a77", "54258d860a2dc047"),
    ("tpcc", 2017): ("fcb6dc2a02875c74", "bbb8ea0c479324b3"),
    ("tatp", 7): ("96352b09eb03a879", "5c5ad2347b953ed7"),
    ("tatp", 2017): ("069fd2f4bd9e5208", "3ba8b535983f7dc4"),
    ("linkbench", 7): ("0e04e80884e61762", "ec396e6e607e827f"),
    ("linkbench", 2017): ("8ad0d5d597fca9cf", "594739113bee3c27"),
    ("ycsb-a", 7): ("064e648f7367ff7b", "387d3d60df93207b"),
    ("ycsb-a", 2017): ("6186c5a3dcd6e700", "efc2d40aae7e2d71"),
    ("ycsb-f-uniform", 7): ("2643258cc065ad22", "1bcae3daa4dd8d78"),
    ("ycsb-f-uniform", 2017): ("d0efc1544b4f3759", "cd40af5e9f301b8c"),
}


class TestSeededStreams:
    @pytest.mark.parametrize("name, seed", sorted(PARENT_STREAMS))
    def test_same_transactions_and_media_as_the_parent_commit(self, name, seed):
        """2 000 transactions on a generator that can only be read through
        the kernel: a draw that bypasses it raises, a draw made in another
        order (or with another bound) changes the type sequence or the
        media bytes."""
        workload = SEEDED_WORKLOADS[name]()
        db, manager = stack_for(workload, buffer_pages=16, with_wal=True, seed=seed)
        rng = KernelOnlyGenerator(np.random.PCG64(seed))
        workload.build(db, rng)
        kinds = [workload.transaction(db, rng) for _ in range(2000)]
        db.checkpoint()
        sequence = hashlib.sha256("\n".join(kinds).encode()).hexdigest()[:16]
        media = media_digest(manager.device.chip, manager.wal.chip)[:16]
        assert (sequence, media) == PARENT_STREAMS[name, seed]

    def test_the_refusing_generator_refuses(self):
        rng = KernelOnlyGenerator(np.random.PCG64(1))
        for sampler in (rng.random, rng.integers, rng.choice, rng.bytes):
            with pytest.raises(AssertionError):
                sampler(10)
