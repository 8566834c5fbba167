"""Live run statistics — the demo GUI's monitoring pane (paper Figure 5).

The EDBT demo let the audience watch throughput evolve during the run.
This example drives the observability sampler
(:class:`repro.obs.TimeSeriesSampler`) attached by the harness's
``observe=`` hook: every ~20 ms of *simulated* time it snapshots the
cumulative counters of all layers and derives per-second rates — the
same series `python -m repro obs` renders.  ``--out FILE`` saves the
run artefact (series, spans, ledger, histograms) as JSON;
``render_report(load_artefact(FILE))`` from :mod:`repro.obs.report`
renders it again.

Run:
    python examples/live_stats.py
    python examples/live_stats.py --arch traditional
    python examples/live_stats.py --out run.json
"""

import argparse

import numpy as np

from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.modes import FlashMode
from repro.obs import Observation, ObserveConfig
from repro.obs.report import write_artefact
from repro.workloads.tpcb import TpcbWorkload

TRANSACTIONS = 8000
SEED = 42


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--arch", choices=("ipa-native", "ipa-blockdev", "traditional"),
        default="ipa-native",
    )
    parser.add_argument(
        "--out", default=None, help="also save the run artefact as JSON"
    )
    args = parser.parse_args()

    is_ipa = args.arch.startswith("ipa")
    workload = TpcbWorkload(scale=1, accounts_per_branch=8000, history_pages=400)
    config = ExperimentConfig(
        workload=workload,
        architecture=args.arch,
        mode=FlashMode.PSLC if is_ipa else FlashMode.MLC,
        scheme=SCHEME_2X4 if is_ipa else IPA_DISABLED,
        buffer_pages=24,
    )
    db, manager = build_stack(config)
    rng = np.random.default_rng(SEED)
    print(f"loading TPC-B ({workload.n_accounts} accounts) on {args.arch} ...")
    workload.build(db, rng)
    manager.clock.reset()

    obs = Observation.create(db=db, manager=manager,
                             config=ObserveConfig(sample_interval_s=0.02))
    sampler = obs.sampler

    header = (f"{'t (sim s)':>9} {'TPS':>7} {'appends':>8} {'oop':>6} "
              f"{'GC migr':>7} {'erases':>7} {'free blk':>8} {'W-amp':>6}")
    print(f"\n{header}")
    shown = 0
    for _ in range(TRANSACTIONS):
        start_us = manager.clock.now_us
        workload.transaction(db, rng)
        obs.txn_latency.observe(manager.clock.now_us - start_us)
        if sampler.maybe_sample():
            row = sampler.samples[-1]
            print(f"{row['t_s']:>9.3f} {row.get('txns_per_s', 0.0):>7.0f} "
                  f"{row['in_place_appends']:>8.0f} "
                  f"{row['host_writes'] - row['in_place_appends']:>6.0f} "
                  f"{row['gc_migrations']:>7.0f} {row['gc_erases']:>7.0f} "
                  f"{row['free_blocks']:>8.0f} {row['write_amp']:>6.2f}")
            shown += 1

    db.checkpoint()
    sampler.sample_now()
    committed = db.txn_stats.committed
    tps = committed / manager.clock.now_s
    if args.out:
        write_artefact(args.out, obs.artefact(
            {"arch": args.arch, "transactions": TRANSACTIONS, "seed": SEED},
            {"config_label": config.display_label(), "workload": workload.name,
             "transactions": committed, "elapsed_s": manager.clock.now_s,
             "tps": tps},
        ))
        print(f"\nrun artefact written to {args.out}")

    print(f"\nfinal: {committed} txns in "
          f"{manager.clock.now_s:.2f} simulated s ({tps:,.0f} TPS), "
          f"{len(sampler.samples)} samples, "
          f"GC attribution {obs.gc_attribution_rate():.0%}")


if __name__ == "__main__":
    main()
