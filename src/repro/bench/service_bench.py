"""Sharded service tier benchmark / smoke driver.

``python -m repro service`` runs the closed-loop multi-session workload
from :mod:`repro.service` and reports per-shard throughput, SLO
latencies (p50/p99 of the client-view latency), admission-control
counters and the per-shard media digests that carry the determinism
contract.

The ``service-smoke`` CI job runs this twice with the same seed and
diffs the ``--digests`` output (byte-identical media), and once with
``--verify-replay`` (each shard's serially-replayed dispatch log must
reproduce its digest).  With ``--replication`` every shard ships its
WAL commit groups to a synchronous standby (``docs/replication.md``);
``--verify-standby`` additionally asserts each standby's media digest
equals its primary's, and the ``replication-smoke`` job gates on it.
"""

from __future__ import annotations

import argparse
import json

from repro.service import ServiceConfig, replay_shard_stream, run_service


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="sharded multi-device service tier benchmark"
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--sessions", type=int, default=16)
    parser.add_argument("--txns", type=int, default=50,
                        help="transactions per session")
    parser.add_argument("--depth", type=int, default=8,
                        help="admission queue depth per shard")
    parser.add_argument("--policy", choices=("shed", "wait"), default="shed")
    parser.add_argument("--group", type=int, default=4,
                        help="max WAL group-commit batch size")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--replication", action="store_true",
                        help="attach a synchronous standby to every shard")
    parser.add_argument("--repl-latency-us", type=float, default=50.0,
                        help="one-way replication transport latency (us)")
    parser.add_argument("--digests", action="store_true",
                        help="print only per-shard media digests")
    parser.add_argument("--verify-replay", action="store_true",
                        help="check each shard's serial-replay digest")
    parser.add_argument("--verify-standby", action="store_true",
                        help="check each standby digest equals its primary "
                             "(implies --replication)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON")
    return parser


def main() -> None:
    args = _parser().parse_args()
    config = ServiceConfig(
        shards=args.shards,
        sessions=args.sessions,
        txns_per_session=args.txns,
        queue_depth=args.depth,
        admission_policy=args.policy,
        group_commit_size=args.group,
        seed=args.seed,
        replication=args.replication or args.verify_standby,
        repl_latency_us=args.repl_latency_us,
    )
    result = run_service(config)

    if args.digests:
        for report in result.shard_reports:
            print(f"{report.index} {report.media_digest}")
    else:
        repl = " replication=on" if config.replication else ""
        print(
            f"service: {result.shards} shard(s), {result.sessions} "
            f"session(s), policy={config.admission_policy}, "
            f"depth={config.queue_depth}{repl}"
        )
        header = (
            f"{'shard':>5} {'sess':>4} {'txns':>5} {'shed':>5} {'waits':>5} "
            f"{'groups':>6} {'p50 us':>8} {'p99 us':>8}"
        )
        if config.replication:
            header += f" {'acked':>6} {'lag us':>10}"
        print(header + "  digest")
        for report in result.shard_reports:
            line = (
                f"{report.index:>5} {report.sessions:>4} "
                f"{report.txns_completed:>5} {report.txns_shed:>5} "
                f"{report.admission_waits:>5} {report.group_commits:>6} "
                f"{report.p50_us:>8.1f} {report.p99_us:>8.1f}"
            )
            if config.replication:
                line += (
                    f" {report.repl_groups_acked:>6} {report.repl_lag_us:>10.1f}"
                )
            print(line + f"  {report.media_digest[:16]}")
        print(
            f"total: {result.txns_completed} committed, "
            f"{result.txns_shed} shed, {result.elapsed_us / 1e3:.1f} ms "
            f"simulated, {result.tps:.0f} tps"
        )

    if args.verify_replay:
        for report in result.shard_reports:
            digest = replay_shard_stream(
                config, report.index, report.dispatch_log
            )
            if digest != report.media_digest:
                raise SystemExit(
                    f"shard {report.index}: serial replay digest mismatch"
                )
        print(f"serial replay verified for {result.shards} shard(s)")

    if args.verify_standby:
        for report in result.shard_reports:
            if report.standby_digest != report.media_digest:
                raise SystemExit(
                    f"shard {report.index}: standby digest "
                    f"{report.standby_digest[:16]} != primary "
                    f"{report.media_digest[:16]}"
                )
        print(f"standby digests verified for {result.shards} shard(s)")

    if args.json:
        payload = {
            "shards": result.shards,
            "sessions": result.sessions,
            "seed": result.seed,
            "elapsed_us": result.elapsed_us,
            "txns_completed": result.txns_completed,
            "txns_shed": result.txns_shed,
            "tps": result.tps,
            "shard_reports": [
                {
                    "index": r.index,
                    "sessions": r.sessions,
                    "txns_completed": r.txns_completed,
                    "txns_shed": r.txns_shed,
                    "group_commits": r.group_commits,
                    "admission_waits": r.admission_waits,
                    "admission_wait_us": r.admission_wait_us,
                    "p50_us": r.p50_us,
                    "p99_us": r.p99_us,
                    "sim_elapsed_us": r.sim_elapsed_us,
                    "media_digest": r.media_digest,
                    "repl_groups_acked": r.repl_groups_acked,
                    "repl_lag_us": r.repl_lag_us,
                    "standby_digest": r.standby_digest,
                }
                for r in result.shard_reports
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
