"""Workloads ``serve_lstm`` and ``serve_short``: the threaded ServingEngine.

Both serve an LSTM checkpoint of the `train --model lstm` geometry,
trained by the code under test once per source tree and cached under
the work directory (never committed).  Queries come from the program's
own load generator; the engine runs with the CLI's default micro-batch
of 64 and one worker thread, so a run holds two threads.

- ``serve_lstm``: one closed burst.  All its queries (the loadgen's
  default 70-minute traces) are submitted at once; when the first answer
  is back, the latest checkpoint is republished and hot-swapped in.
- ``serve_short``: open loop.  Seeded Poisson arrivals at RATE queries
  per second; each query carries one 10-minute lag window of readings,
  so forecasts come from the persistence rule and never from a model.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from calib import Calibrator
from common import WORK, cli_args, median, quantile, scratch_dir, source_digest
from tracer import END, EXTRA, START, Tracer

#: serve_lstm's one burst: this many 64-query batches per second of
#: --seconds (a batch takes 1.0-1.5 s here), at least 6.  Its queries
#: are made in set-up, so no generation runs inside the timed region.
BATCHES_PER_SECOND = 1.2
RATE = 400.0
#: serve_short calibrates only in arrival gaps longer than this.
IDLE_GAP_S = 0.003
#: Room left before the next arrival for one kernel run (~0.5-1 ms).
KERNEL_ROOM_S = 0.0015
MAX_BATCH = 64
#: Answers per run replayed through the per-minute controller.
SAMPLE = 12
RESULT_TIMEOUT = 120.0
CHECKPOINT_SEED = 0


def ensure_checkpoint() -> str:
    """Train the served checkpoint once per source tree; return its store."""
    from repro.__main__ import pipeline_config
    from repro.core import PFDRLSystem
    from repro.persist import CheckpointStore

    final = WORK / f"serve-ckpt-{source_digest()[:16]}"
    if (final / "complete").is_file():
        return str(final / "store")
    build = scratch_dir("serve-ckpt-build")
    args = cli_args(CHECKPOINT_SEED)
    store = CheckpointStore(str(build / "store"), keep_last=1)
    PFDRLSystem(pipeline_config(args)).run(
        checkpoint_store=store, checkpoint_every=args.checkpoint_every
    )
    (build / "complete").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(build, final)
    return str(final / "store")


@dataclass
class State:
    workload: str
    config: object
    store: object
    snapshot: object
    engine: object
    watcher: object
    queries: list
    offsets: np.ndarray | None = None
    work: object = None


def n_queries(workload: str, seconds: float) -> int:
    if workload == "serve_lstm":
        return MAX_BATCH * max(6, int(round(seconds * BATCHES_PER_SECOND)))
    return int(round(RATE * seconds))


def setup(workload: str, seed: int, seconds: float, store_root: str) -> State:
    """Snapshot load, query generation and engine start (setup_s)."""
    from repro.__main__ import pipeline_config
    from repro.persist import CheckpointStore
    from repro.serve import ModelSnapshot, ServingEngine, SnapshotWatcher, make_queries

    config = pipeline_config(cli_args(CHECKPOINT_SEED))
    store = CheckpointStore(store_root, keep_last=None)
    snapshot = ModelSnapshot.load(store, config)
    trace_minutes = None if workload == "serve_lstm" else int(config.forecast.window)
    queries = make_queries(
        config, n_queries(workload, seconds), trace_minutes=trace_minutes, seed=seed
    )
    offsets = None
    if workload == "serve_short":
        rng = np.random.default_rng([seed, 0x5E4E])
        offsets = np.cumsum(rng.exponential(1.0 / RATE, size=len(queries)))
    engine = ServingEngine(snapshot, max_batch=MAX_BATCH)
    watcher = SnapshotWatcher(engine, store, config)
    engine.start()
    return State(workload, config, store, snapshot, engine, watcher, queries, offsets)


# ----------------------------------------------------------------------
def _done_times(tracer: Tracer) -> dict[int, float]:
    """id(query) -> when the batch that answered it returned."""
    out: dict[int, float] = {}
    for s in tracer.named("serve.batch"):
        for q in s[6]:
            out[q] = s[END]
    return out


def _answer_counts(tracer: Tracer) -> dict[int, int]:
    counts: dict[int, int] = {}
    for s in tracer.named("serve.batch"):
        for q in s[6]:
            counts[q] = counts.get(q, 0) + 1
    return counts


def _collect(pendings) -> tuple[list, int]:
    answers, failed = [], 0
    for p in pendings:
        try:
            answers.append(p.result(timeout=RESULT_TIMEOUT))
        except Exception:  # a failed or lost query is counted, not fatal
            answers.append(None)
            failed += 1
    return answers, failed


def run(state: State, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    from layers import batch_queries
    from repro.serve import ServingEngine

    slices = tracer or Tracer()
    if tracer is None:
        # Batch completion times: one wrapper call per batch.
        slices.wrap(ServingEngine, "answer_batch", "serve.batch",
                    on_return=batch_queries)
    try:
        if state.workload == "serve_lstm":
            out = _run_burst(state, slices)
        else:
            out = _run_open_loop(state, slices)
        state.engine.stop()
    finally:
        if tracer is None:
            slices.remove()
    with slices.pause():
        out["errors"] = check(state, out, seed, slices)
        out.update(quality(state, out))
    if state.work:
        shutil.rmtree(state.work, ignore_errors=True)
    return out


def _run_burst(state: State, slices: Tracer) -> dict:
    import repro.serve as serve_pkg
    import repro.serve.snapshot as snapshot_mod

    engine = state.engine
    # The calibration kernel runs in the engine's worker, when due,
    # before forecast calls: several times per batch.
    calib = Calibrator()
    calib.attach(snapshot_mod, "forecast_block")
    try:
        t0 = time.perf_counter()
        pendings = [engine.submit(q) for q in state.queries]
        pendings[0].result(timeout=RESULT_TIMEOUT)
        swap_t0 = time.perf_counter()
        step = serve_pkg.republish_latest(state.store)
        swapped = state.watcher.check_once()
        swap_t1 = time.perf_counter()
        answers, failed = _collect(pendings)
    finally:
        calib.remove()
    clock = calib.clock()
    done = _done_times(slices)
    end = max(done.values())
    # Throughput and batch time over the batches clear of the swap: how
    # long a swap takes beside a busy worker varies several-fold between
    # identical bursts, and every batch it overlaps inherits that.  The
    # swap's own cost is the per-layer serve.swap_s.
    clean = [s for s in slices.named("serve.batch")
             if t0 <= s[START] and (s[END] < swap_t0 or s[START] > swap_t1)]
    spent = [s[END] - s[START] for s in clean]
    nominal = [clock(s[END]) - clock(s[START]) for s in clean]
    served = sum(len(s[EXTRA]) for s in clean)
    return {
        "bursts": [{"queries": state.queries, "pendings": pendings, "answers": answers,
                    "failed": failed, "t0": t0, "swapped": swapped, "step": step,
                    "swap": (swap_t0, swap_t1)}],
        "attempted": len(state.queries),
        "failed": failed,
        "estimators": {
            "ops_per_s.burst": (len(answers) - failed) / (end - t0),
            "swap_s": swap_t1 - swap_t0,
            "clean_batches": len(clean),
            "ops_per_s.whole": served / sum(spent),
            "ops_per_s.nominal": served / sum(nominal),
            "latency_p50_ms.whole": median(spent) * 1e3,
            "latency_p50_ms.nominal": median(nominal) * 1e3,
            "kernel_samples": len(calib.samples),
        },
        "ops_per_s": served / sum(nominal),
        "latency_p50_ms": median(nominal) * 1e3,
        "wall": [(t0, end)],
    }


def _idle(pendings, timeout: float) -> bool:
    """Wait up to *timeout* for the last query's answer; True once it is in."""
    if not pendings:
        return True
    try:
        pendings[-1].result(timeout=max(timeout, 0.0))
    except Exception:  # timed out (or failed, which is done too)
        return pendings[-1].done()
    return True


def _run_open_loop(state: State, slices: Tracer) -> dict:
    engine = state.engine
    clock = time.perf_counter
    sleep = time.sleep
    # The calibration kernel runs in this thread, when due, in idle gaps
    # only: the last query is answered and the next is due well after
    # the kernel ends, so it neither delays nor overlaps a query.
    calib = Calibrator()
    pendings, due_at = [], []
    t0 = clock() + 0.005
    for q, off in zip(state.queries, state.offsets):
        due = t0 + off
        delay = due - clock()
        if delay > IDLE_GAP_S and calib.due() and _idle(pendings, delay - KERNEL_ROOM_S):
            if due - clock() > KERNEL_ROOM_S:
                calib.run(1)
            delay = due - clock()
        if delay > 0:
            sleep(delay)
        due_at.append(due)
        pendings.append(engine.submit(q))
    answers, failed = _collect(pendings)
    done = _done_times(slices)
    late_s = [p.submitted_at - d for p, d in zip(pendings, due_at)]
    last = max(done.values())
    nominal = calib.clock()
    lat_ms = [(done[id(x)] - d) * 1e3 for x, d in zip(state.queries, due_at) if id(x) in done]
    lat_nominal_ms = [(nominal(done[id(x)]) - nominal(d)) * 1e3
                      for x, d in zip(state.queries, due_at) if id(x) in done]
    return {
        "bursts": [{"queries": state.queries, "pendings": pendings, "answers": answers,
                    "failed": failed, "t0": t0, "swapped": None, "step": None}],
        "attempted": len(state.queries),
        "failed": failed,
        "estimators": {
            "latency_p50_ms.whole": median(lat_ms),
            "latency_p99_ms.whole": quantile(lat_ms, 0.99),
            "latency_p50_ms.nominal": median(lat_nominal_ms),
            "latency_p99_ms.nominal": quantile(lat_nominal_ms, 0.99),
            "late_p50_ms": median(late_s) * 1e3,
            "submit_p50_ms.nominal": median(
                [(nominal(done[id(p.query)]) - nominal(p.submitted_at)) * 1e3
                 for p in pendings if id(p.query) in done]),
            "kernel_samples": len(calib.samples),
        },
        "ops_per_s": (len(answers) - failed) / (last - t0),
        "latency_p50_ms": median(lat_nominal_ms),
        "late_s": late_s,
        "due_at": due_at,
        "wall": [(t0, last)],
    }


def quality(state: State, out: dict) -> dict:
    """What the answered schedules are worth, from queries and answers.

    ``forecast_accuracy``: the paper's horizon-energy accuracy of the
    served forecasts against the readings, per (query, device, horizon
    block), with the configured floor.  ``saved_kwh_per_residence_day``:
    energy the schedules withhold, per residence-day of readings.
    """
    cfg = state.config.forecast
    h = int(cfg.horizon)
    mpd = int(state.config.data.minutes_per_day)
    on_kw = {}
    acc, saved, minutes = [], 0.0, 0
    for b in out["bursts"]:
        for q, a in zip(b["queries"], b["answers"]):
            if a is None:
                continue
            if q.residence_id not in on_kw:
                noms = state.snapshot.controller(q.residence_id).nominals
                on_kw[q.residence_id] = {d: n.on_kw for d, n in noms.items()}
            for device, readings in q.readings.items():
                real = np.asarray(readings, dtype=np.float64)
                pred = np.asarray(a.predicted_kw[device], dtype=np.float64)
                floor = cfg.accuracy_floor * h * on_kw[q.residence_id][device]
                for lo in range(0, real.shape[0] - h + 1, h):
                    v, rv = pred[lo:lo + h].sum(), real[lo:lo + h].sum()
                    acc.append(min(1.0, max(0.0, 1.0 - abs(v - rv) / max(abs(rv), floor))))
            saved += a.saved_kwh
            minutes += len(next(iter(q.readings.values())))
    return {
        "forecast_accuracy": float(np.mean(acc)),
        "saved_kwh_per_residence_day": saved / minutes * mpd,
    }


# ----------------------------------------------------------------------
def check_answer(query, answer, tol: float = 1e-9) -> list[str]:
    """Per-answer invariants, from the query's readings alone."""
    errors = []
    if answer.residence_id != query.residence_id:
        errors.append(f"answer for residence {answer.residence_id}, asked {query.residence_id}")
    if set(answer.actions) != set(query.readings):
        errors.append("answer devices differ from the query's")
        return errors
    saved = 0.0
    for device, readings in query.readings.items():
        real = np.asarray(readings, dtype=np.float64)
        ctl = np.asarray(answer.controlled_kw[device], dtype=np.float64)
        acts = np.asarray(answer.actions[device])
        if ctl.shape != real.shape or acts.shape != real.shape:
            errors.append(f"{device}: answer length differs from the readings")
            continue
        if np.any(ctl > real + tol):
            errors.append(f"{device}: controlled draw exceeds the reading")
        on = acts == 2
        if np.any(ctl[on] != real[on]):
            errors.append(f"{device}: controlled draw differs from the reading while on")
        saved += float((real - ctl).sum()) / 60.0
    if not abs(saved - answer.saved_kwh) <= tol * max(1.0, abs(saved)):
        errors.append(f"saved_kwh {answer.saved_kwh!r} != Σ(real - controlled)/60 = {saved!r}")
    return errors


def check_controller(snapshot, query, answer) -> list[str]:
    """The answer equals the per-minute controller, action for action."""
    steps = snapshot.controller(query.residence_id, query.t0).run_trace(
        {d: np.asarray(r) for d, r in query.readings.items()}
    )
    for device, acts in answer.actions.items():
        want = np.asarray([s[device] for s in steps])
        if want.shape != np.asarray(acts).shape or np.any(want != acts):
            return [f"residence {query.residence_id} {device}: actions differ "
                    f"from the per-minute controller"]
    return []


def check_generations(stamps, old: str, new: str | None, swap=None) -> list[str]:
    """The generation stamp changes exactly once, at the swap.

    *stamps* are ``(batch start, generation)`` per answer in submit
    order.  Batches that started before the swap began must carry *old*,
    those that started after it ended *new*; a batch that started while
    it ran may carry either, and the stamp never changes back.  Without
    a swap (*new* None) every stamp is *old*.
    """
    errors = []
    seen_new = False
    for start, gen in stamps:
        if new is None or start < swap[0]:
            want = {old}
        elif start > swap[1]:
            want = {new}
        else:
            want = {new} if seen_new else {old, new}
        if gen not in want:
            errors.append(f"answer from a batch started at {start:.3f} carries {gen}, "
                          f"want {sorted(want)} (swap ran {swap})")
            break
        seen_new |= gen == new
    return errors


def check(state: State, out: dict, seed: int, tracer: Tracer) -> list[str]:
    errors = []
    counts = _answer_counts(tracer)
    batch_start = {}
    for s in tracer.named("serve.batch"):
        for q in s[EXTRA]:
            batch_start[q] = s[START]
    rng = np.random.default_rng([seed, 0xC0DE])
    generation = state.snapshot.generation
    for b in out["bursts"]:
        for q, a in zip(b["queries"], b["answers"]):
            if counts.get(id(q), 0) != 1:
                errors.append(f"query answered {counts.get(id(q), 0)} times")
            if a is not None:
                errors += check_answer(q, a)
        if b["swapped"] is False:
            errors.append("the hot-swap did not happen")
        new = f"ckpt-{b['step']:08d}" if b["swapped"] else None
        stamps = [(batch_start[id(q)], a.generation)
                  for q, a in zip(b["queries"], b["answers"])
                  if a is not None and id(q) in batch_start]
        errors += check_generations(stamps, generation, new, b.get("swap"))
        generation = new or generation
    if state.engine.generation != generation:
        errors.append(f"engine serves {state.engine.generation}, want {generation}")
    flat = [(q, a) for b in out["bursts"] for q, a in zip(b["queries"], b["answers"])
            if a is not None]
    for i in rng.choice(len(flat), size=min(SAMPLE, len(flat)), replace=False):
        errors += check_controller(state.snapshot, *flat[int(i)])
    if state.engine.dropped:
        errors.append(f"engine dropped {state.engine.dropped} queries")
    return errors[:20]
