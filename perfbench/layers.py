"""The per-layer view: which public calls are timed, and their metrics.

:func:`install` wraps one call per layer boundary (see README.md for
which end-to-end metric each should move).  :func:`metrics` turns the
recorded spans into the per-layer metrics; every workload reports the
full set, so a layer a workload never calls reads 0 there.
"""

from __future__ import annotations

import os

from tracer import END, EXTRA, START, Tracer

#: (metric, unit) in report order.
PER_LAYER = [
    ("data.generate_s", "s"),
    ("dfl.day_s", "s"),
    ("dfl.fit_s", "s"),
    ("dfl.fit_calls", "count"),
    ("dfl.params_tx", "count"),
    ("streams.build_s", "s"),
    ("ems.day_s", "s"),
    ("rl.act_s", "s"),
    ("rl.act_calls", "count"),
    ("rl.env_step_s", "s"),
    ("rl.env_steps", "count"),
    ("rl.learn_s", "s"),
    ("rl.sgd_steps", "count"),
    ("rl.replay_sample_s", "s"),
    ("nn.adam_s", "s"),
    ("ems.share_s", "s"),
    ("ems.params_tx", "count"),
    ("eval.s", "s"),
    ("persist.state_s", "s"),
    ("persist.save_s", "s"),
    ("persist.saves", "count"),
    ("persist.bytes_written", "B"),
    ("persist.load_s", "s"),
    ("serve.load_s", "s"),
    ("serve.swap_s", "s"),
    ("serve.forecast_block_s", "s"),
    ("serve.forecast_block_calls", "count"),
    ("serve.model_calls", "count"),
    ("serve.batch_s", "s"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.build_states_s", "s"),
    ("serve.forward_s", "s"),
    ("serve.apply_actions_s", "s"),
    ("serve.assembly_s", "s"),
    ("loadgen.late_ms", "ms"),
]


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _save_bytes(rec, args, result) -> None:
    rec[EXTRA] = _dir_bytes(result)


def _used_model(rec, args, result) -> None:
    rec[EXTRA] = bool(result[1])


def batch_queries(rec, args, result) -> None:
    """Keep the ids of the queries a batch answered."""
    rec[EXTRA] = [id(q) for q in args[1]]


def install(tracer: Tracer, forecaster_cls) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.core.system as system_mod
    import repro.serve as serve_pkg
    import repro.serve.loadgen as loadgen_mod
    import repro.serve.snapshot as snapshot_mod
    from repro.core.pfdrl import PFDRLTrainer
    from repro.core.system import PFDRLSystem
    from repro.federated.dfl import DFLTrainer
    from repro.nn.optim import Adam
    from repro.persist import CheckpointStore
    from repro.rl.batch import StackedQNet
    from repro.rl.dqn import DQNAgent
    from repro.rl.env import DeviceEnv
    from repro.rl.replay import ReplayBuffer
    from repro.serve import ServingEngine, SnapshotWatcher
    from repro.serve.snapshot import ModelSnapshot

    w = tracer.wrap
    for mod in (system_mod, snapshot_mod, loadgen_mod):
        w(mod, "generate_neighborhood", "data.generate")
    w(DFLTrainer, "__init__", "dfl.init")
    w(DFLTrainer, "run_day", "dfl.day")
    w(forecaster_cls, "fit", "dfl.fit")
    w(system_mod, "build_streams", "streams.build")
    w(PFDRLTrainer, "__init__", "ems.init")
    w(PFDRLTrainer, "run_day", "ems.day")
    w(DQNAgent, "act", "rl.act")
    w(DeviceEnv, "step", "rl.env_step")
    w(DQNAgent, "learn_step", "rl.learn")
    w(ReplayBuffer, "sample", "rl.replay_sample")
    w(Adam, "step", "nn.adam")
    # γ rounds run inside run_day through the trainer's share round;
    # no public call covers them alone.
    w(PFDRLTrainer, "_share_round", "ems.share")
    w(PFDRLTrainer, "finalize", "ems.finalize")
    w(PFDRLTrainer, "evaluate", "eval.ems")
    w(DFLTrainer, "mean_accuracy", "eval.accuracy")
    w(PFDRLSystem, "state", "persist.state")
    w(CheckpointStore, "save", "persist.save", on_return=_save_bytes)
    w(CheckpointStore, "load", "persist.load")
    w(ModelSnapshot, "load", "serve.load")
    w(SnapshotWatcher, "check_once", "serve.swap")
    w(serve_pkg, "republish_latest", "serve.republish")
    w(ServingEngine, "answer_batch", "serve.batch", on_return=batch_queries)
    w(snapshot_mod, "forecast_block", "serve.forecast_block", qid_arg=1,
      on_return=_used_model)
    w(snapshot_mod, "build_states", "serve.build_states", qid_arg=1)
    w(StackedQNet, "forward_batch", "serve.forward")
    w(snapshot_mod, "apply_actions", "serve.apply_actions", qid_arg=1)


def metrics(tracer: Tracer, *, dfl_params_tx: int = 0, ems_params_tx: int = 0,
            submitted_at: dict[int, float] | None = None,
            late_s: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and run counters.

    ``submitted_at`` maps id(query) to its submit time, for the queue
    wait from submit to the start of the batch that answered it.
    """
    t = tracer.total
    n = tracer.count
    batches = tracer.named("serve.batch")
    waits = []
    if submitted_at:
        for b in batches:
            waits.extend(b[START] - submitted_at[q] for q in b[EXTRA])
    sizes = [len(b[EXTRA]) for b in batches]
    out = {
        "data.generate_s": t("data.generate"),
        "dfl.day_s": t("dfl.day"),
        "dfl.fit_s": t("dfl.fit"),
        "dfl.fit_calls": n("dfl.fit"),
        "dfl.params_tx": dfl_params_tx,
        "streams.build_s": t("streams.build"),
        "ems.day_s": t("ems.day"),
        "rl.act_s": t("rl.act"),
        "rl.act_calls": n("rl.act"),
        "rl.env_step_s": t("rl.env_step"),
        "rl.env_steps": n("rl.env_step"),
        "rl.learn_s": t("rl.learn"),
        "rl.sgd_steps": n("rl.learn"),
        "rl.replay_sample_s": t("rl.replay_sample"),
        "nn.adam_s": t("nn.adam"),
        "ems.share_s": t("ems.share"),
        "ems.params_tx": ems_params_tx,
        "eval.s": t("eval.ems") + t("eval.accuracy"),
        "persist.state_s": t("persist.state"),
        "persist.save_s": t("persist.save"),
        "persist.saves": n("persist.save"),
        "persist.bytes_written": sum(s[EXTRA] for s in tracer.named("persist.save")),
        "persist.load_s": t("persist.load"),
        "serve.load_s": t("serve.load"),
        "serve.swap_s": t("serve.swap"),
        "serve.forecast_block_s": t("serve.forecast_block"),
        "serve.forecast_block_calls": n("serve.forecast_block"),
        "serve.model_calls": sum(
            1 for s in tracer.named("serve.forecast_block") if s[EXTRA]
        ),
        "serve.batch_s": t("serve.batch"),
        "serve.batches": len(batches),
        "serve.batch_size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "serve.queue_wait_ms": 1e3 * sum(waits) / len(waits) if waits else 0.0,
        "serve.build_states_s": t("serve.build_states"),
        "serve.forward_s": t("serve.forward"),
        "serve.apply_actions_s": t("serve.apply_actions"),
        "serve.assembly_s": tracer.self_time("serve.batch"),
        "loadgen.late_ms": 1e3 * sum(late_s) / len(late_s) if late_s else 0.0,
    }
    assert [k for k, _ in PER_LAYER] == list(out)
    return out


def top_level_report(tracer: Tracer, thread: str, lo: float, hi: float) -> dict:
    """Reconciliation: top-level spans of *thread* against wall [lo, hi]."""
    spans = tracer.top_level(thread, lo, hi)
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s[0]] = by_name.get(s[0], 0.0) + s[END] - s[START]
    covered = sum(by_name.values())
    wall = hi - lo
    return {
        "wall_s": wall,
        "top_level_s": covered,
        "uncovered_s": wall - covered,
        "coverage": covered / wall if wall > 0 else 0.0,
        "top_level": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
    }
