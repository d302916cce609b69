"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py A_DIR B_DIR [--estimators]

Each directory holds run outputs as `sweep.py` writes them (standard
output of `run.py`, one file per run).  For every workload and
end-to-end metric the table gives each side's median and quartiles, the
quartile spread as a share of the median, and the change of B's median
against A's.  Flags, against the bounds in BENCHMARK.json:

- ``SPREAD``: a side's quartile spread exceeds the metric's bound;
- ``WORSE``: B's median is worse than A's by more than the bound;
- ``FAILED``: the sides' shares of failed operations differ.

Runs whose provenance differs in Python, numpy or CPU count, or in the
config digest at the same seed, are not comparable: the command lists the mismatch and exits 2.
``--estimators`` adds the spread of each candidate estimator the runs
printed.  Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENVIRONMENT = ("python", "numpy", "nproc")


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        run = {"file": path.name, "result": json.loads(lines[-1])}
        for line in lines[:-1]:
            key, _, rest = line.partition(" ")
            if key in ("provenance", "estimators", "setup_samples_s"):
                run[key] = json.loads(rest)
        runs.append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _scalar(value) -> float:
    """A run's estimate: the value itself, or the median of its slices."""
    return statistics.median(value) if isinstance(value, list) else value


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if run["result"]["metrics"] and "provenance" in run:
            out.setdefault(run["provenance"]["workload"], []).append(run)
    return out


def provenance_mismatch(a: list[dict], b: list[dict]) -> list[str]:
    """Environment must match across all runs; the config digest across
    runs of the same seed (a train config embeds its seed)."""
    problems = []
    for key in ENVIRONMENT:
        va = {r["provenance"].get(key) for r in a}
        vb = {r["provenance"].get(key) for r in b}
        if len(va | vb) > 1:
            problems.append(f"{key}: A {sorted(map(str, va))} vs B {sorted(map(str, vb))}")
    digests: dict[int, set] = {}
    for r in a + b:
        digests.setdefault(r["provenance"]["seed"], set()).add(
            r["provenance"]["config_digest"])
    for seed, found in sorted(digests.items()):
        if len(found) > 1:
            problems.append(f"config_digest at seed {seed}: {sorted(d[:12] for d in found)}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--estimators", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    side_a = by_workload(load_runs(Path(args.a)))
    side_b = by_workload(load_runs(Path(args.b)))

    mismatched = False
    for workload in sorted(set(side_a) & set(side_b)):
        problems = provenance_mismatch(side_a[workload], side_b[workload])
        for problem in problems:
            print(f"{workload}: provenance differs, {problem}")
        mismatched |= bool(problems)
    if mismatched:
        return 2

    flagged = False
    header = (f"{'workload':12} {'metric':28} {'n':>5} {'A q1/med/q3':>28} {'spread':>7}"
              f" {'B q1/med/q3':>28} {'spread':>7} {'B/A-1':>7} {'bound':>5}  flags")
    print(header)
    for workload in sorted(set(side_a) | set(side_b)):
        ra, rb = side_a.get(workload, []), side_b.get(workload, [])
        for name, spec in specs.items():
            va = [r["result"]["metrics"][name]["value"] for r in ra
                  if name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"] for r in rb
                  if name in r["result"]["metrics"]]
            if not va or not vb:
                print(f"{workload:12} {name:28} missing on one side")
                flagged = True
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sa, sb = spread(va), spread(vb)
            change = qb[1] / qa[1] - 1.0 if qa[1] else float("inf")
            worse = -change if spec["better"] == "higher" else change
            flags = []
            if name != "setup_s" and max(sa, sb) > spec["bound"]:
                flags.append("SPREAD")
            if worse > spec["bound"]:
                flags.append("WORSE")
            flagged |= bool(flags)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:12} {name:28} {len(va):>2}/{len(vb):<2} {fmt(qa):>28} {sa:>7.3f}"
                  f" {fmt(qb):>28} {sb:>7.3f} {change:>+7.3f} {spec['bound']:>5}  "
                  + " ".join(flags))
        share = [
            {r["result"]["failed"] / r["result"]["attempted"] for r in side}
            for side in (ra, rb)
        ]
        if share[0] != share[1] or len(share[0]) > 1:
            print(f"{workload:12} FAILED share of operations differs: A {share[0]} B {share[1]}")
            flagged = True
        if args.estimators:
            for label, side in (("A", ra), ("B", rb)):
                keys = sorted({k for r in side for k in r.get("estimators", {})})
                for key in keys:
                    vals = [_scalar(r["estimators"][key]) for r in side
                            if r.get("estimators", {}).get(key)]
                    if len(vals) > 1:
                        q = quartiles(vals)
                        print(f"{workload:12}   estimator {label} {key:22} median {q[1]:.5g}"
                              f" spread {spread(vals):.3f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
