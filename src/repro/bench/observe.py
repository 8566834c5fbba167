"""``python -m repro obs``: one observed TPC-B run under GC pressure.

``obs report`` prints :func:`repro.obs.report.render_report` (with
``--out DIR`` also the raw spans JSONL, samples CSV and Prometheus
text); ``obs timeline OUT`` writes a Chrome-trace / Perfetto timeline
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
from repro.obs.export import write_samples_csv
from repro.obs.report import render_report
from repro.workloads.tpcb import TpcbWorkload

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
        parser.add_argument("--out", default=None, help="directory for raw artifacts")
    args = parser.parse_args(argv)

    if timeline:
        config = build_config(args.arch, args.transactions, args.channels)
        result = run_experiment(config, ObserveConfig(trace_channel_ops=True))
        spans = result.observation.spans()
        count = write_chrome_trace(args.out, spans)
        channel_events = sum(1 for s in spans if s.name in CHANNEL_NAMES)
        print(
            f"{count} events written to {args.out} "
            f"({channel_events} channel events across {args.channels} "
            "channels); load in chrome://tracing or ui.perfetto.dev"
        )
        return

    config = build_config(args.arch, 600 if args.fast else args.transactions)
    trace_path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, "spans.jsonl")
    observe = ObserveConfig(sample_interval_s=0.01, trace_path=trace_path)
    result = run_experiment(config, observe=observe)
    print(render_report(result))

    if args.out:
        obs = result.observation
        write_samples_csv(
            os.path.join(args.out, "samples.csv"), obs.samples, obs.sampler.columns
        )
        with open(
            os.path.join(args.out, "metrics.prom"), "w", encoding="utf-8"
        ) as fh:
            fh.write(obs.export_prometheus())
        print(f"\nartifacts written to {args.out}/ (spans.jsonl, samples.csv, metrics.prom)")
