"""The traced run's report: per-layer metrics, self times, reconciliation.

Printed before the result line; the spans themselves go to
``.bench_build/perfbench/trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import json

import layers
from common import WORK
from tracer import END, EXTRA, START

#: Top-level spans must cover the timed wall within this share.
TRAIN_TOLERANCE = 0.03
#: Per query, due-to-answer latency must equal lateness + queue wait +
#: batch service within this share (the rest is the engine's hand-off).
SERVE_TOLERANCE = 0.05


def _train_reconcile(tracer, out) -> dict:
    t0, t1 = out["wall"][0]
    rec = layers.top_level_report(tracer, "MainThread", t0, t1)
    rec["tolerance"] = TRAIN_TOLERANCE
    rec["ok"] = bool(abs(1.0 - rec["coverage"]) <= TRAIN_TOLERANCE)
    return rec


def _serve_reconcile(tracer, out) -> dict:
    """Mean latency against the sum of its traced stages, per query."""
    stages = {"late": 0.0, "queue_wait": 0.0, "service": 0.0}
    measured = 0.0
    n = 0
    batch_of = {}
    for b in tracer.named("serve.batch"):
        for q in b[EXTRA]:
            batch_of[q] = b
    for burst in out["bursts"]:
        due = out.get("due_at")
        for i, (q, p, a) in enumerate(zip(burst["queries"], burst["pendings"],
                                          burst["answers"])):
            if a is None:
                continue
            b = batch_of[id(q)]
            start = due[i] if due else p.submitted_at
            stages["late"] += p.submitted_at - start
            stages["queue_wait"] += b[START] - p.submitted_at
            stages["service"] += b[END] - b[START]
            # The engine's own stamp: submit to its hand-off of the answer.
            measured += p.submitted_at + a.latency_s - start
            n += 1
    staged = sum(stages.values())
    return {
        "queries": n,
        "mean_latency_ms": 1e3 * measured / n,
        "mean_staged_ms": 1e3 * staged / n,
        "stages_ms": {k: 1e3 * v / n for k, v in stages.items()},
        "coverage": staged / measured,
        "tolerance": SERVE_TOLERANCE,
        "ok": bool(abs(1.0 - staged / measured) <= SERVE_TOLERANCE),
    }


def _self_times(tracer) -> dict[str, float]:
    names = sorted({s[0] for s in tracer.spans})
    rows = {name: tracer.self_time(name) for name in names}
    return dict(sorted(rows.items(), key=lambda kv: -kv[1]))


def emit(args, tracer, out, state, t_setup: float, values: dict) -> dict:
    """Print the report; return the per-layer metrics for the result line."""
    if args.workload == "train_lstm":
        pipeline = out["pipelines"][0]
        system = pipeline[3]
        kw = {
            "dfl_params_tx": system.dfl.bus.stats.n_tx_params,
            "ems_params_tx": system.drl.params_broadcast_total,
        }
        reconcile = _train_reconcile(tracer, out)
    else:
        submitted = {
            id(q): p.submitted_at
            for b in out["bursts"] for q, p in zip(b["queries"], b["pendings"])
        }
        kw = {"submitted_at": submitted, "late_s": out.get("late_s")}
        reconcile = _serve_reconcile(tracer, out)
    per_layer = layers.metrics(tracer, **kw)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    n_spans = tracer.write(path, t_setup)
    print("traced_end_to_end " + json.dumps(values))
    print("self_time_s " + json.dumps(_self_times(tracer)))
    print("reconciliation " + json.dumps(reconcile))
    print(f"spans {n_spans} -> {path.relative_to(WORK.parent.parent)}")
    units = dict(layers.PER_LAYER)
    return {name: {"value": v, "unit": units[name]} for name, v in per_layer.items()}
