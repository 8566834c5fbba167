"""The paper's demonstration, as a CLI (Section 4, Figures 4-5).

Reproduces the three demo scenarios the EDBT audience walked through:

  1. **Baseline** — traditional out-of-place writes on a conventional SSD;
  2. **IPA for conventional SSDs** — whole pages in ``body + delta area``
     format over a block interface; the IPA-aware FTL detects appends;
  3. **IPA for native Flash** — NoFTL with the ``write_delta`` command.

Like the demo GUI, you pick the benchmark, the N x M scheme, the MLC
mode (pSLC / odd-MLC) and the duration, then compare throughput and I/O
statistics across scenarios.

Run:
    python examples/demo_scenarios.py --workload tpcb --duration 4
    python examples/demo_scenarios.py --workload tatp --mode odd-mlc --n 2 --m 4
"""

import argparse

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.report import render_comparison, summarize
from repro.core.config import IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads import WORKLOADS


def make_workload(name: str):
    factories = {
        "tpcb": lambda: WORKLOADS["tpcb"](
            scale=1, accounts_per_branch=6000, history_pages=300
        ),
        "tpcc": lambda: WORKLOADS["tpcc"](
            warehouses=1, customers_per_district=50, items=2000
        ),
        "tatp": lambda: WORKLOADS["tatp"](subscribers=3000),
    }
    return factories[name]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", choices=("tpcb", "tpcc", "tatp"), default="tpcb",
        help="benchmark to run (the demo GUI's workload picker)",
    )
    parser.add_argument(
        "--duration", type=float, default=3.0,
        help="simulated seconds per scenario (demo used 5-10 minutes)",
    )
    parser.add_argument(
        "--mode", choices=("pslc", "odd-mlc"), default="pslc",
        help="IPA MLC safety mode (Section 3)",
    )
    parser.add_argument("--n", type=int, default=2, help="N: records per page")
    parser.add_argument("--m", type=int, default=4, help="M: bytes per record")
    parser.add_argument("--buffer", type=int, default=32, help="buffer frames")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    scheme = IpaScheme(args.n, args.m)
    mode = FlashMode.PSLC if args.mode == "pslc" else FlashMode.ODD_MLC
    factory = make_workload(args.workload)
    common = dict(
        duration_s=args.duration, buffer_pages=args.buffer, seed=args.seed
    )

    print(f"=== Demo-Scenario 1: baseline (traditional SSD), "
          f"{args.workload}, {args.duration}s simulated ===")
    baseline = run_experiment(
        ExperimentConfig(
            workload=factory(),
            architecture="traditional",
            mode=FlashMode.MLC,
            label="Scenario 1: baseline",
            **common,
        )
    )
    print(summarize(baseline))

    print(f"\n=== Demo-Scenario 2: IPA for conventional SSD "
          f"({scheme} {mode.value}, block interface) ===")
    blockdev = run_experiment(
        ExperimentConfig(
            workload=factory(),
            architecture="ipa-blockdev",
            mode=mode,
            scheme=scheme,
            label=f"Scenario 2: IPA blockdev {scheme}",
            **common,
        )
    )
    print(summarize(blockdev))

    print(f"\n=== Demo-Scenario 3: IPA for native Flash "
          f"({scheme} {mode.value}, write_delta) ===")
    native = run_experiment(
        ExperimentConfig(
            workload=factory(),
            architecture="ipa-native",
            mode=mode,
            scheme=scheme,
            label=f"Scenario 3: IPA native {scheme}",
            **common,
        )
    )
    print(summarize(native))

    print()
    print(render_comparison(baseline, [blockdev, native],
                            title="Scenario comparison (paper Table 1 format)"))
    print()
    saved = (
        blockdev.device.host_bytes_written - native.device.host_bytes_written
    )
    print(
        "Scenarios 2 and 3 show the same GC reduction; Scenario 3 "
        f"additionally saved {saved:,} host-interface bytes via write_delta."
    )


if __name__ == "__main__":
    main()
