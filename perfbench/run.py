"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train_lstm --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and measures the program in its
``src`` directory.  Prints a provenance line, the candidate estimators,
with ``--trace 1`` a per-layer report, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).  Workloads
and metrics are defined in BENCHMARK.json and explained in README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("train_lstm", "serve_lstm", "serve_short")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("forecast_accuracy", "fraction"),
    ("saved_kwh_per_residence_day", "kWh"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the ready stamp, exit")
    return p.parse_args(argv)


def _setup(workload: str, seed: int, seconds: float, store_root: str | None):
    if workload == "train_lstm":
        import train

        return train.setup(seed)
    import serve

    return serve.setup(workload, seed, seconds, store_root)


def _kernel_times(n: int) -> list[float]:
    from calib import kernel

    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def setup_probe(args) -> int:
    # Kernel runs at start and after ready calibrate this probe in its
    # own process; those at start are taken out of its set-up time.
    first = _kernel_times(common.PROBE_KERNELS)
    common.import_repro()
    root = None
    if args.workload != "train_lstm":
        import serve

        root = serve.ensure_checkpoint()
    state = _setup(args.workload, args.seed, args.seconds, root)
    ready = time.monotonic()
    if args.workload != "train_lstm":
        state.engine.stop()
    last = _kernel_times(common.PROBE_KERNELS)
    print(json.dumps({"ready": ready, "kernel_s": first + last,
                      "excluded_s": sum(first)}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    common.import_repro()

    store_root = None
    if args.workload != "train_lstm":
        import serve

        cached = serve.ensure_checkpoint()
        work = common.scratch_dir(f"{args.workload}-store")
        shutil.copytree(cached, work / "store")
        store_root = str(work / "store")

    setup_samples, setup_nominal = common.probe_setup(args.workload, args.seed, args.seconds)

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        from repro.forecast.lstm_forecaster import LSTMForecaster

        tracer = Tracer()
        layers.install(tracer, LSTMForecaster)
    t_setup = time.perf_counter()
    state = _setup(args.workload, args.seed, args.seconds, store_root)
    if args.workload == "train_lstm":
        import train

        config = state[1]
        out = train.run(state, args.seed, args.seconds, tracer)
    else:
        import serve

        state.work = work
        config = state.config
        out = serve.run(state, args.seed, args.seconds, tracer)

    print("provenance " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, **common.provenance(config)}, sort_keys=True))
    print("setup_samples_s " + json.dumps(setup_samples))
    print("estimators " + json.dumps({
        "setup_s.whole": common.median(setup_samples),
        "setup_s.nominal": common.median(setup_nominal),
        **out["estimators"],
    }))
    for err in out["errors"]:
        print(f"CHECK FAILED: {err}")

    values = {
        "setup_s": common.median(setup_nominal),
        "ops_per_s": out["ops_per_s"],
        "latency_p50_ms": out["latency_p50_ms"],
        "peak_rss_mb": common.peak_rss_mb(),
        "forecast_accuracy": out["forecast_accuracy"],
        "saved_kwh_per_residence_day": out["saved_kwh_per_residence_day"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if tracer is not None:
        import report

        metrics = report.emit(args, tracer, out, state, t_setup, values)
    print(json.dumps({
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
