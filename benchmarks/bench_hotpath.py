"""Hot-path benchmark: batched/parallel EMS training vs the serial oracle.

Standalone (no pytest-benchmark dependency) so CI can run it with the
tier-1 package set:

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

Measures, on one profile (default: 64 residences — small fleets are
dominated by fixed per-minute Python overhead and do not show the
batched engine's scaling):

- greedy evaluation: the per-step rollout of the serial oracle
  (``tests/ems_oracle.py``) vs the trainer's vectorized matrix rollout
  (must be bit-identical; asserts the speedup floor);
- one device-scope training day, three ways:
  * serial oracle: per-agent Python ``run_episode`` with
    ``observe()``/``learn_step()``;
  * batched engine (the trainer): stacked replay sampling + one
    stacked forward/backward/Adam step per wave (bit-identical to the
    oracle — asserted);
  * persistent worker pool: residence shards forked once, each worker
    running the batched engine over a zero-copy shared-memory view of
    the parameter arena; per-segment IPC is bounds out, rewards and
    counters back — no weight pickling in either direction
    (bit-identical to the oracle — asserted);
- one residence-scope training day, oracle vs engine (bit-identical
  day result and trainer state — asserted; timed but not floored).

Speedup floors (``--min-batched-speedup`` / ``--min-parallel-speedup``,
default 1.0) make CI fail if either accelerated path regresses below
the serial oracle.  The pool is kept because it beats the in-process
engine, not only the oracle, so on a machine with two or more CPUs the
bench also fails unless ``parallel_vs_batched`` (batched seconds over
pool seconds) is at least 1.0.  The committed ``BENCH_hotpath.json``
records the achieved numbers plus environment metadata (numpy version,
CPU count) so a regression can be told apart from a slower machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # tests.ems_oracle

import numpy as np  # noqa: E402

from repro.config import DQNConfig, FederationConfig  # noqa: E402
from repro.core.pfdrl import PFDRLTrainer  # noqa: E402
from repro.core.streams import build_streams  # noqa: E402
from repro.data import generate_neighborhood  # noqa: E402
from repro.persist.state import flatten_state  # noqa: E402
from tests.ems_oracle import SerialPFDRLTrainer  # noqa: E402

#: The EMS pool must at least match the in-process engine it replaces
#: (checked only where two or more CPUs let the workers run at once).
MIN_PARALLEL_VS_BATCHED = 1.0


def make_trainer(streams, args, cls=PFDRLTrainer, agent_scope="device", **kwargs):
    return cls(
        streams,
        dqn_config=DQNConfig(
            learn_every=args.learn_every, hidden_width=args.hidden_width
        ),
        federation_config=FederationConfig(gamma_hours=12.0),
        sharing="personalized",
        agent_scope=agent_scope,
        seed=0,
        **kwargs,
    )


def timed(fn, repeats: int = 1):
    """(best wall-clock seconds, last result) over *repeats* runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def states_equal(a: dict, b: dict) -> bool:
    arrays_a, values_a = flatten_state(a)
    arrays_b, values_b = flatten_state(b)
    return (
        values_a == values_b
        and arrays_a.keys() == arrays_b.keys()
        and all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
    )


def evaluations_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in (
            "saved_standby_kwh", "total_standby_kwh", "saved_total_kwh",
            "comfort_violations", "reward_fraction", "saved_kw",
        )
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--residences", type=int, default=64)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--minutes-per-day", type=int, default=240)
    p.add_argument("--devices", default="tv,light")
    # The scaled experiment profiles run learn_every in {3, 4, 6}; 4 makes
    # the bench's train-day mix match them.  learn_every=1 (paper-exact)
    # is learn-step bound — exactly the regime the stacked learn step
    # targets — and shows even larger batched speedups.
    p.add_argument("--learn-every", type=int, default=4)
    # The scaled experiment profiles (src/repro/experiments/profiles.py)
    # train 16/24-wide nets; 24 keeps the bench in that regime, where a
    # serial day is bound by per-agent Python overhead rather than BLAS.
    # The paper-exact width (100) is available via --hidden-width 100 —
    # there the learn step is memory-bound in Adam and serial/batched
    # converge, which is a property of the geometry, not a regression.
    p.add_argument("--hidden-width", type=int, default=24)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--repeats", type=int, default=2, help="eval timing repeats")
    p.add_argument("--min-eval-speedup", type=float, default=5.0)
    p.add_argument("--min-batched-speedup", type=float, default=1.0)
    p.add_argument("--min-parallel-speedup", type=float, default=1.0)
    p.add_argument("--out", default="BENCH_hotpath.json")
    args = p.parse_args(argv)

    dataset = generate_neighborhood(
        n_residences=args.residences,
        n_days=args.days,
        minutes_per_day=args.minutes_per_day,
        device_types=tuple(args.devices.split(",")),
        seed=7,
    )
    streams = build_streams(dataset)
    n_pairs = sum(len(s.devices) for s in streams)
    print(
        f"profile: {args.residences} residences x {args.devices} devices, "
        f"{args.days} x {args.minutes_per_day}-min days ({n_pairs} agent pairs)"
    )

    # --- training day: serial oracle vs batched engine vs pool ---------
    serial = make_trainer(streams, args, cls=SerialPFDRLTrainer)
    t_train_serial, r_serial = timed(serial.run_day)

    batched = make_trainer(streams, args)
    t_train_batched, r_batched = timed(batched.run_day)
    assert r_batched == r_serial, "batched day result diverged from serial"

    # The pool workers run the batched engine over shared-memory arena
    # views, keeping the serial bit-identity contract.
    parallel = make_trainer(streams, args, n_workers=args.workers)
    try:
        t_train_parallel, r_parallel = timed(parallel.run_day)
        assert r_parallel == r_serial, "sharded day result diverged from serial"
    finally:
        parallel.close()

    batched_speedup = t_train_serial / t_train_batched
    parallel_speedup = t_train_serial / t_train_parallel
    parallel_vs_batched = t_train_batched / t_train_parallel
    print(
        f"train day : serial {t_train_serial:.2f}s | "
        f"batched {t_train_batched:.2f}s ({batched_speedup:.2f}x) | "
        f"{args.workers} workers {t_train_parallel:.2f}s "
        f"({parallel_speedup:.2f}x, {parallel_vs_batched:.2f}x the engine)"
    )
    assert batched_speedup >= args.min_batched_speedup, (
        f"batched speedup {batched_speedup:.2f}x below the "
        f"{args.min_batched_speedup}x floor"
    )
    assert parallel_speedup >= args.min_parallel_speedup, (
        f"parallel speedup {parallel_speedup:.2f}x below the "
        f"{args.min_parallel_speedup}x floor"
    )
    if args.workers > 1 and (os.cpu_count() or 1) >= 2:
        assert parallel_vs_batched >= MIN_PARALLEL_VS_BATCHED, (
            f"the {args.workers}-worker pool is {parallel_vs_batched:.2f}x the "
            f"in-process engine, below the {MIN_PARALLEL_VS_BATCHED}x floor"
        )

    # --- residence scope: one engine, bit-identical to the oracle ------
    serial_res = make_trainer(
        streams, args, cls=SerialPFDRLTrainer, agent_scope="residence"
    )
    t_res_serial, r_res_serial = timed(serial_res.run_day)
    batched_res = make_trainer(streams, args, agent_scope="residence")
    t_res_batched, r_res_batched = timed(batched_res.run_day)
    assert r_res_batched == r_res_serial, (
        "residence-scope day result diverged from serial"
    )
    assert states_equal(batched_res.state(), serial_res.state()), (
        "residence-scope trainer state diverged from serial"
    )
    print(
        f"residence : serial {t_res_serial:.2f}s | "
        f"batched {t_res_batched:.2f}s "
        f"({t_res_serial / t_res_batched:.2f}x, bit-identical)"
    )

    # --- greedy evaluation: per-step rollout vs vectorized rollout ---
    # Same trained weights on both sides: the oracle's per-step rollout
    # against the trainer's matrix rollout.
    t_eval_serial, ev_serial = timed(serial.evaluate, args.repeats)
    t_eval_vec, ev_vec = timed(batched.evaluate, args.repeats)
    assert evaluations_equal(ev_serial, ev_vec), (
        "vectorized evaluation is not bit-identical to the per-step rollout"
    )
    eval_speedup = t_eval_serial / t_eval_vec
    print(
        f"evaluate  : serial {t_eval_serial:.2f}s | "
        f"vectorized {t_eval_vec:.3f}s ({eval_speedup:.1f}x, bit-identical)"
    )
    assert eval_speedup >= args.min_eval_speedup, (
        f"eval speedup {eval_speedup:.2f}x below the "
        f"{args.min_eval_speedup}x floor"
    )

    out = {
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "profile": {
            "residences": args.residences,
            "days": args.days,
            "minutes_per_day": args.minutes_per_day,
            "devices": args.devices.split(","),
            "agent_pairs": n_pairs,
            "learn_every": args.learn_every,
            "hidden_width": args.hidden_width,
        },
        "evaluate": {
            "serial_s": round(t_eval_serial, 4),
            "vectorized_s": round(t_eval_vec, 4),
            "speedup": round(eval_speedup, 2),
            "bit_identical": True,
        },
        "train_day": {
            "serial_s": round(t_train_serial, 4),
            "batched_s": round(t_train_batched, 4),
            "batched_speedup": round(batched_speedup, 2),
            "parallel_s": round(t_train_parallel, 4),
            "parallel_speedup": round(parallel_speedup, 2),
            "parallel_vs_batched": round(parallel_vs_batched, 2),
            "n_workers": args.workers,
            "workers_batched": True,
            "bit_identical": True,
        },
        "train_day_residence": {
            "serial_s": round(t_res_serial, 4),
            "batched_s": round(t_res_batched, 4),
            "batched_speedup": round(t_res_serial / t_res_batched, 2),
            "bit_identical": True,
        },
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
