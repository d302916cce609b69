"""Show that every correctness check fails on a corrupted output.

    python3 perfbench/selftest.py

Trains a small LSTM system (2 residences x 3 days), checks its clean
outputs pass, then corrupts one output at a time and requires the
matching check to report it.  Prints one line per case; exit status 1
when a clean output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import common  # noqa: E402


def main() -> int:
    common.import_repro()
    import serve
    import train
    from repro.__main__ import build_parser, pipeline_config
    from repro.core import PFDRLSystem
    from repro.persist import CheckpointStore
    from repro.serve import ModelSnapshot, ServingEngine, make_queries
    from tracer import Tracer

    args = build_parser().parse_args(
        ["train", "--model", "lstm", "--residences", "2", "--days", "3",
         "--episodes", "1", "--seed", "3"])
    config = pipeline_config(args)
    work = common.scratch_dir("selftest")
    store = CheckpointStore(str(work / "store"), keep_last=None)
    system = PFDRLSystem(config)
    result = system.run(checkpoint_store=store)
    failures = 0

    def case(name: str, errors: list[str], want_error: bool) -> None:
        nonlocal failures
        ok = bool(errors) == want_error
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {errors[0] if errors else 'no error'}")

    # -- train_lstm checks -------------------------------------------
    case("train clean", train.check(system, result, config, store), False)
    bad = copy.deepcopy(result)
    bad.forecast_accuracy += 1e-6
    case("accuracy off by 1e-6", train.check(system, bad, config, store), True)
    bad = copy.deepcopy(result)
    bad.ems.saved_standby_kwh[0] = train.own_standby_kwh(system)[0] + 0.01
    case("saved above the standby total", train.check(system, bad, config, store), True)
    bad.ems.saved_standby_kwh[0] = -0.01
    case("saved below zero", train.check(system, bad, config, store), True)
    system.drl._params_broadcast += 1
    case("EMS broadcast one parameter too many", train.check(system, result, config, store), True)
    system.drl._params_broadcast -= 1
    system.dfl.bus.stats.n_tx_params += 1
    case("DFL broadcast one parameter too many", train.check(system, result, config, store), True)
    system.dfl.bus.stats.n_tx_params -= 1
    state, manifest = store.load()
    meta = dict(manifest["meta"], config_sha256="0" * 64)
    store.save(store.latest_step() + 1, state, meta=meta)
    case("final checkpoint under another digest", train.check(system, result, config, store), True)
    meta = {k: v for k, v in manifest["meta"].items() if k != "final"}
    store.save(store.latest_step() + 1, state, meta=meta)
    case("final checkpoint without the final mark", train.check(system, result, config, store), True)
    meta = dict(manifest["meta"])
    store.save(store.latest_step() + 1, state, meta=meta)

    # -- serve checks --------------------------------------------------
    snapshot = ModelSnapshot.load(store, config)
    engine = ServingEngine(snapshot)
    queries = make_queries(config, 6, seed=5)
    answers = engine.answer_batch(queries)
    q, a = queries[0], answers[0]
    case("answer clean", serve.check_answer(q, a) + serve.check_controller(snapshot, q, a), False)
    device = next(iter(a.actions))
    bad = copy.deepcopy(a)
    i = int(np.argmax(np.asarray(q.readings[device])))
    bad.actions[device][i] = 0 if bad.actions[device][i] == 2 else 2
    case("one action flipped", serve.check_controller(snapshot, q, bad), True)
    bad = copy.deepcopy(a)
    bad.controlled_kw[device][i] = np.asarray(q.readings[device])[i] + 0.01
    case("controlled draw above the reading", serve.check_answer(q, bad), True)
    bad = copy.deepcopy(a)
    on = np.flatnonzero(bad.actions[device] == 2)
    if on.size:
        bad.controlled_kw[device][on[0]] *= 0.5
        case("controlled draw cut while on", serve.check_answer(q, bad), True)
    bad = copy.deepcopy(a)
    bad.saved_kwh += 1e-6
    case("saved_kwh off by 1e-6", serve.check_answer(q, bad), True)

    old, new = "ckpt-00000007", "ckpt-00000008"
    swap = (10.0, 11.0)
    good = [(9.0, old), (10.5, old), (10.9, new), (12.0, new)]
    case("one swap", serve.check_generations(good, old, new, swap), False)
    case("new stamp before the swap began",
         serve.check_generations([(9.0, new), (12.0, new)], old, new, swap), True)
    case("old stamp after the swap ended",
         serve.check_generations([(9.0, old), (12.0, old)], old, new, swap), True)
    case("stamp changed back during the swap",
         serve.check_generations([(10.2, new), (10.4, old), (12.0, new)], old, new, swap),
         True)
    case("stamp changed without a swap",
         serve.check_generations([(9.0, old), (12.0, new)], old, None), True)

    tracer = Tracer()
    tracer.spans.append(["serve.batch", 0.0, 1.0, None, "t", None,
                         [id(x) for x in queries[1:]] + [id(queries[2])]])
    tracer.spans.append(["serve.batch", 1.0, 2.0, None, "t", None, [id(queries[0])]])
    st = serve.State("serve_short", config, store, snapshot, engine, None, queries)
    out = {"bursts": [{"queries": queries, "answers": answers, "swapped": None,
                       "step": None}]}
    tracer.spans[1][6] = []
    errors = serve.check(st, out, 0, tracer)
    case("one query never answered, one answered twice", errors, True)
    tracer.spans[0][6] = [id(x) for x in queries]
    case("every query answered once", serve.check(st, out, 0, tracer), False)

    shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
