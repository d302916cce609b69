"""Workload ``train_lstm``: the `python -m repro train --model lstm` run.

4 residences x 4 days of 240 minutes, 2 EMS episodes, flat full mesh,
the default serial residence-scope EMS engine, a checkpoint after every
day into a fresh store.  One pipeline run is one round of operations:
3 DFL days + 6 EMS days + the evaluation.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

import numpy as np

from calib import Calibrator
from common import cli_args, median, scratch_dir
from tracer import END, Tracer

ABS_TOL = 1e-9


def setup(seed: int):
    """Config and a constructed system (generates the dataset).

    The neighbourhood is always the CLI's seed-0 one, so every run does
    the same work; *seed* is the training seed (model initialisation,
    exploration, replay sampling).  Seed 0 is the CLI run exactly.
    """
    from repro.__main__ import pipeline_config
    from repro.core import PFDRLSystem

    args = cli_args(0)
    config = dataclasses.replace(pipeline_config(args), seed=seed)
    return args, config, PFDRLSystem(config)


def own_accuracy(system) -> float:
    """Held-out ``Ac = 1 - |V - RV| / RV`` recomputed from raw predictions.

    Per forecast window, V and RV are the predicted and real energy over
    the horizon (on-normalised units); RV is floored at the configured
    fraction of the window's full-on energy.  Mean per (residence,
    device), then over all pairs.
    """
    cfg = system.config.forecast
    floor = cfg.accuracy_floor * cfg.horizon
    t0 = system.dfl.minutes_trained
    per_pair = []
    for client, res in zip(system.dfl.clients, system.test_data.residences):
        for device, trace in res:
            series = np.asarray(trace.power_kw, dtype=np.float64) / trace.on_kw
            pred, real, _ = client.predict_series(device, series, t0=t0)
            if pred.shape[0] == 0:
                continue
            v = pred.sum(axis=1)
            rv = real.sum(axis=1)
            acc = 1.0 - np.abs(v - rv) / np.maximum(np.abs(rv), floor)
            per_pair.append(float(np.clip(acc, 0.0, 1.0).mean()))
    return float(np.mean(per_pair))


def own_standby_kwh(system) -> np.ndarray:
    """Per-residence standby energy of the raw test-day traces (kWh)."""
    out = []
    for res in system.test_data.residences:
        total = 0.0
        for _, trace in res:
            total += float(trace.power_kw[trace.mode == 1].sum()) / 60.0
        out.append(total)
    return np.asarray(out)


def base_layer_size(config) -> int:
    """Parameters in the α shared base layers of one Q-network."""
    from repro.rl.qnet import STATE_DIM

    widths = [STATE_DIM] + [config.dqn.hidden_width] * config.dqn.n_hidden_layers
    return sum(
        widths[i] * widths[i + 1] + widths[i + 1]
        for i in range(config.federation.alpha)
    )


def check(system, result, config, store) -> list[str]:
    """Correctness checks computed apart from the program; [] when all hold."""
    from repro.core.system import config_digest
    from repro.serve import ModelSnapshot

    errors = []
    acc = own_accuracy(system)
    if not abs(acc - result.forecast_accuracy) <= ABS_TOL:
        errors.append(f"forecast_accuracy {result.forecast_accuracy!r} != recomputed {acc!r}")
    total = own_standby_kwh(system)
    saved = np.asarray(result.ems.saved_standby_kwh)
    if saved.shape != total.shape or not (
        np.all(saved >= -ABS_TOL) and np.all(saved <= total + ABS_TOL)
    ):
        errors.append(f"saved standby {saved.tolist()} outside [0, {total.tolist()}]")

    n_res = config.data.n_residences
    ems_rounds = sum(d.n_broadcast_events for d in result.drl_history) + 1  # + finalize
    want_ems = ems_rounds * n_res * base_layer_size(config)
    if system.drl.params_broadcast_total != want_ems:
        errors.append(
            f"EMS params broadcast {system.drl.params_broadcast_total} != "
            f"{ems_rounds} rounds x {n_res} residences x α base layers = {want_ems}"
        )
    dfl_rounds = sum(d.n_broadcast_events for d in result.dfl_history)
    fc_size = sum(
        int(w.size)
        for device in system.dfl.clients[0].device_types
        for w in system.dfl.clients[0].get_weights(device)
    )
    want_dfl = dfl_rounds * n_res * fc_size
    if system.dfl.bus.stats.n_tx_params != want_dfl:
        errors.append(
            f"DFL params broadcast {system.dfl.bus.stats.n_tx_params} != "
            f"{dfl_rounds} rounds x {n_res} residences x forecaster = {want_dfl}"
        )
    try:
        snap = ModelSnapshot.load(store, config)
    except Exception as exc:  # any failure to load is a failed check
        errors.append(f"final checkpoint does not load as a snapshot: {exc!r}")
    else:
        meta = snap.meta
        if meta.get("config_sha256") != config_digest(config) or not meta.get("final"):
            errors.append(f"final checkpoint meta {meta} lacks the config digest / final mark")
    return errors


def run(state, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """Whole pipeline runs until *seconds* have passed (at least one).

    *state* is the :func:`setup` result for the first pipeline; later
    pipelines set up again outside their timed region.
    """
    from repro.forecast.lstm_forecaster import LSTMForecaster
    from repro.persist import CheckpointStore
    from repro.rl.dqn import DQNAgent

    slices = tracer or Tracer()
    if tracer is None:
        # The day latencies need only the 10 checkpoint saves.
        slices.wrap(CheckpointStore, "save", "persist.save")
    # The calibration kernel runs in this (the only) thread, when due,
    # before the calls that do the pipeline's work.
    calib = Calibrator()
    for owner, attr in ((DQNAgent, "learn_step"), (DQNAgent, "act"),
                        (LSTMForecaster, "fit"), (CheckpointStore, "save")):
        calib.attach(owner, attr)
    pipelines = []
    errors: list[str] = []
    t_begin = time.perf_counter()
    try:
        while not pipelines or time.perf_counter() - t_begin < seconds:
            args, config, system = state if not pipelines else setup(seed)
            work = scratch_dir("train-store")
            store = CheckpointStore(str(work), keep_last=args.keep_last)
            mark = len(slices.spans)
            t0 = time.perf_counter()
            result = system.run(
                checkpoint_store=store, checkpoint_every=args.checkpoint_every
            )
            t1 = time.perf_counter()
            with slices.pause():
                errors += check(system, result, config, store)
            shutil.rmtree(work, ignore_errors=True)
            pipelines.append((t0, t1, slices.spans[mark:], system, result, config))
    finally:
        calib.remove()
        if tracer is None:
            slices.remove()
    return _summarise(pipelines, errors, calib)


def _summarise(pipelines, errors, calib) -> dict:
    rate: dict[str, list[float]] = {}
    day_ms: dict[str, list[float]] = {}
    ems_ms: dict[str, list[float]] = {}
    n_ops = 0
    timelines = {"whole": lambda t: t, "nominal": calib.clock()}
    for t0, t1, spans, system, result, config in pipelines:
        n = config.data.n_residences * config.data.n_days
        saves = [s[END] for s in spans if s[0] == "persist.save"]
        for label, clock in timelines.items():
            rate.setdefault(label, []).append(n / (clock(t1) - clock(t0)))
            # Latency of one training day: from the previous checkpoint
            # (or the start) to the end of this day's checkpoint.
            prev = clock(t0)
            days = []
            for end in saves:
                days.append((clock(end) - prev) * 1e3)
                prev = clock(end)
            day_ms.setdefault(label, []).extend(days)
            n_dfl = len(result.dfl_history)
            ems_ms.setdefault(label, []).extend(days[n_dfl:n_dfl + len(result.drl_history)])
        n_ops += len(result.dfl_history) + len(result.drl_history) + 1
    last = pipelines[-1]
    system, result, config = last[3], last[4], last[5]
    n_days_test = system.n_test_days
    saved = float(np.sum(result.ems.saved_standby_kwh))
    return {
        "attempted": n_ops,
        "failed": 0,
        "errors": errors,
        "estimators": {
            **{f"ops_per_s.{k}": median(v) for k, v in rate.items()},
            **{f"latency_p50_ms.{k}": median(v) for k, v in day_ms.items()},
            **{f"latency_p50_ms.ems_{k}": median(v) for k, v in ems_ms.items()},
        },
        "ops_per_s": median(rate["nominal"]),
        # EMS days only: the 3 DFL days and the evaluation are other
        # work, and a median over the mix lands on its seam.
        "latency_p50_ms": median(ems_ms["nominal"]),
        "forecast_accuracy": float(result.forecast_accuracy),
        "saved_kwh_per_residence_day": saved / (config.data.n_residences * n_days_test),
        "wall": [(p[0], p[1]) for p in pipelines],
        "pipelines": pipelines,
    }
