"""Run the benchmark over several seeds and keep each run's output.

    python3 perfbench/sweep.py --out .bench_build/perfbench/results/a \\
        --workloads train_lstm serve_lstm serve_short --seeds 1-10

Each run's standard output goes to ``<out>/<workload>-seed<n>-trace<t>.out``
(the format `compare.py` reads).  Runs go one at a time, in the order
given, so they never compete with each other for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
            run = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            path = out / f"{workload}-seed{seed}-trace{args.trace}.out"
            path.write_text(run.stdout)
            last = run.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{path.name}: exit {run.returncode} {last[0][:160]}", flush=True)
            if run.returncode != 0:
                failures += 1
                sys.stderr.write(run.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
