"""Benchmark of the synthesis stack: three workloads, one result line each.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload ilp-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced blocks and reports per-layer metrics from
the span tree.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  Each run also writes a record of its
inputs (seed, graph fingerprints, config points) and, when traced, a
Chrome trace to ``.perfbench/``.  See ``METRICS.md`` for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ilp-exact", "sweep-service", "verify-mc")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with {completed.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        failed_ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} failed_ratio={failed_ratio:.4f} "
              f"({result['failed']}/{result['attempted']})")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    started = time.perf_counter()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, os.path.abspath("src"))
    try:
        import repro  # noqa: F401 - fails fast outside a checkout
        import harness
        from ilp_exact import IlpExact
        from sweep_service import SweepService
        from verify_mc import VerifyMc
    except ImportError as exc:
        print(f"perfbench: cannot import the program from ./src ({exc}); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    factory = {"ilp-exact": IlpExact, "sweep-service": SweepService, "verify-mc": VerifyMc}[args.workload]

    workload, setup_s = harness.run_setup(factory, args.seed, import_s)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wall = {}
        if args.trace:
            metrics, ops, checks = harness.traced_run(workload, args.seconds, label)
        else:
            blocks, rss_mb, refs = harness.timed_region(workload, args.seconds)
            ops = [op for block in blocks for op in block.ops]
            metrics = harness.end_to_end(workload, blocks, rss_mb, setup_s)
            wall = harness.timings(blocks, scaled=False)
            wall["host_factor"] = statistics.median(block.host for block in blocks)
            wall["blocks"] = [{"wall_s": b.wall_s, "host": b.host, "latencies_s": [op.latency_s for op in b.ops]}
                              for b in blocks]
            wall["reference"] = refs
            checks = []
        checks += workload.checks()
    finally:
        workload.teardown()

    failed_checks = [c for c in checks if not c.ok]
    attempted = len(ops) + len(checks)
    failed = sum(1 for op in ops if not op.ok) + len(failed_checks)
    harness.OUTPUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "metrics": metrics, "wall": wall,
        "checks": [c.__dict__ for c in checks], "import_and_setup_reps_s": workload.setup_reps_s,
        **workload.record(),
    }
    (harness.OUTPUT_DIR / f"{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in wall.items():
        if name not in ("blocks", "reference"):
            print(f"{workload.name} wall {name} = {value:.6g}")
    if not args.trace:
        print(f"{workload.name} failed_ratio = {failed / attempted:.6g} failed/attempted")
    for check in failed_checks:
        print(f"{workload.name} FAILED {check.name}: {check.detail}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
