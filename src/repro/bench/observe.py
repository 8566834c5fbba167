"""``python -m repro obs``: one observed TPC-B run under GC pressure.

Both commands build the run's artefact
(:meth:`repro.obs.Observation.artefact`) and render only from it.
``obs report`` prints :func:`repro.obs.report.render_report` (with
``--out DIR`` it also saves the artefact as ``DIR/run.json``, which
``render_report(load_artefact(path))`` renders again); ``obs timeline
OUT`` writes a Chrome-trace / Perfetto timeline of its spans
(:mod:`repro.obs.chrometrace`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.modes import FlashMode
from repro.obs import ObserveConfig
from repro.obs.chrometrace import CHANNEL_NAMES, write_chrome_trace
from repro.obs.report import render_report, write_artefact
from repro.workloads.base import rows_per_page
from repro.workloads.tpcb import HISTORY_SCHEMA, TpcbWorkload

def build_config(
    arch: str, transactions: int, channels: int = 1
) -> ExperimentConfig:
    """An observed-run config under genuine GC pressure."""
    is_ipa = arch.startswith("ipa")
    return ExperimentConfig(
        workload=TpcbWorkload(scale=1, accounts_per_branch=2000),
        architecture=arch,
        mode=FlashMode.PSLC if is_ipa else FlashMode.SLC,
        scheme=SCHEME_2X4 if is_ipa else IPA_DISABLED,
        transactions=transactions,
        buffer_pages=32,
        device_utilization=0.92,
        over_provisioning=0.08,
        channels=channels,
    )


def history_capacity(config: ExperimentConfig) -> int:
    """Transactions the run's history file holds: each TPC-B transaction
    appends one history row, and the file has a fixed page budget."""
    db, _manager = config.build(config.workload)
    per_page = rows_per_page(db, HISTORY_SCHEMA.record_size)
    return per_page * config.workload.history_pages


def main() -> None:
    """``obs [report] [--fast] [--out DIR]`` or ``obs timeline OUT``; a
    bare ``obs`` (possibly with flags) is the report."""
    argv = sys.argv[1:]
    timeline = argv[:1] == ["timeline"]
    if argv[:1] in (["report"], ["timeline"]):
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog=f"repro obs {'timeline' if timeline else 'report'}",
        description=__doc__,
    )
    parser.add_argument(
        "--arch",
        choices=("traditional", "ipa-blockdev", "ipa-native"),
        default="traditional",
    )
    if timeline:
        parser.add_argument("out", help="output Chrome-trace JSON file")
        parser.add_argument("--transactions", type=int, default=400)
        parser.add_argument(
            "--channels", type=int, default=4,
            help="flash channels (per-channel tracks need > 1)",
        )
    else:
        parser.add_argument("--transactions", type=int, default=2000)
        parser.add_argument("--fast", action="store_true", help="small run (CI smoke)")
        parser.add_argument(
            "--out", default=None, help="directory for the run artefact (run.json)"
        )
    args = parser.parse_args(argv)

    channels = args.channels if timeline else 1
    transactions = 600 if not timeline and args.fast else args.transactions
    config = build_config(args.arch, transactions, channels)
    capacity = history_capacity(config)
    if transactions > capacity:
        parser.error(
            f"--transactions {transactions} exceeds the history file's "
            f"limit of {capacity} transactions on {args.arch} "
            f"({config.workload.history_pages} pages, one row per transaction)"
        )
    if timeline:
        observe = ObserveConfig(trace_channel_ops=True)
    else:
        observe = ObserveConfig(sample_interval_s=0.01)
    result = run_experiment(config, observe)
    artefact = result.artefact(
        {
            "arch": args.arch,
            "transactions": transactions,
            "channels": channels,
            "seed": config.seed,
        }
    )

    if timeline:
        spans = artefact["spans"]
        count = write_chrome_trace(args.out, spans)
        channel_events = sum(1 for s in spans if s["name"] in CHANNEL_NAMES)
        print(
            f"{count} events written to {args.out} "
            f"({channel_events} channel events across {args.channels} "
            "channels); load in chrome://tracing or ui.perfetto.dev"
        )
        if artefact["spans_dropped"]:
            print(
                f"WARNING: the span ring buffer dropped the "
                f"{artefact['spans_dropped']:,} oldest spans; the timeline "
                "starts after them"
            )
        return

    print(render_report(artefact))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "run.json")
        write_artefact(path, artefact)
        print(f"\nrun artefact written to {path}")
