"""ochub benchmark: seeded jaffle-shop workloads through the ochub CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bulk|trickle|graph --seed N \\
        --seconds S --trace 0|1

Load is a closed loop from one client: one ``ochub`` subprocess
(``python -m ochub.cli`` with ``src`` on PYTHONPATH) or one in-process point
read at a time, each waiting for the previous one. A run repeats passes of
the workload's timed steps until ``--seconds`` have elapsed, then reports
medians. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the same passes with every command run in-process
through ``ochub.cli.run``, traced, and prints the per-layer metrics (see
traced.py).

Every output is checked against the generator's model; the last line of
stdout is one JSON object: correct, attempted, failed, metrics. Generated
data lives under .perfbench_work/ and is removed at exit; output digests,
failures and spans are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common
from common import Client, Ops
from workloads import WORKLOADS

SETUP_REPEATS = 5
SETUP_MIN_S = 5.0  # short set-ups repeat until this much time is measured


def run_untraced(workload: str, seed: int, seconds: float, orders: int,
                 work: Path) -> tuple:
    """Set up (the ochub part at least SETUP_REPEATS times and SETUP_MIN_S
    seconds), then run passes for ``seconds``."""
    ops = Ops()
    setup, setup_walls = common.timed_setups(
        workload, seed, orders, work / "setup", ops, SETUP_REPEATS, SETUP_MIN_S)
    client = Client(work)
    run = WORKLOADS[workload](setup, client, ops, work, random.Random(seed))
    start = time.perf_counter()
    n = 0
    gauge_ms = []
    while n == 0 or time.perf_counter() - start < seconds:
        run.one_pass(n)
        gauge_ms.append(common.machine_gauge_ms())
        n += 1
    med = statistics.median
    metrics = {
        "setup_s": (med(setup_walls), "s"),
        "pass_s": (run.pass_s(), "s"),
        "timeline_phase_p50_ms": (statistics.fmean(run.phase_p50_ms["timeline"]), "ms"),
        "o2o_phase_p50_ms": (statistics.fmean(run.phase_p50_ms["o2o"]), "ms"),
        "peak_rss_mb": (client.peak_rss_kb / 1024, "MB"),
        "store_bytes_per_row": (med(run.store_bytes_per_row), "B"),
    }
    info = [(name, value, unit) for name, value, unit in run.extra_metrics()]
    info.append((f"timeline_p50_ms(n={len(run.timeline_ms)})", med(run.timeline_ms), "ms"))
    info.append((f"o2o_p50_ms(n={len(run.o2o_ms)})", med(run.o2o_ms), "ms"))
    if len(run.timeline_ms) >= 1000:
        info.append((f"timeline_p99_ms(n={len(run.timeline_ms)})",
                     statistics.quantiles(run.timeline_ms, n=100)[-1], "ms"))
    info.append(("passes", n, "count"))
    info.append(("machine_gauge_ms", med(gauge_ms), "ms"))
    info.append(("failed_ops_ratio", ops.failed / max(1, ops.attempted), "ratio"))
    raw = {"step_walls_s": run.steps, "read_s": run.read_s, "setup_walls_s": setup_walls}
    return metrics, info, ops, {"output_sha256": run.digests, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()

    orders = common.ORDERS[args.workload]
    common.WORK.mkdir(exist_ok=True)
    common.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK))
    try:
        if args.trace:
            import traced

            metrics, info, ops, details = traced.run(
                args.workload, args.seed, orders, work, args.seconds)
        else:
            metrics, info, ops, details = run_untraced(
                args.workload, args.seed, args.seconds, orders, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value, unit in info:
        print(f"  {name} {value:.6g} {unit}")
    for failure in ops.failures[:20]:
        print(f"FAILED {failure}")
    manifest = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    manifest.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "orders": orders,
        **details, "failures": ops.failures,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "info": {name: value for name, value, _ in info},
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
