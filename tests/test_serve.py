"""The serving layer: snapshot loading, batched answering, hot-swap.

Pins the subsystem's three contracts:

1. **Equivalence** — a batch answered by the engine is bit-identical
   (per-minute actions) to streaming the same readings through an
   :class:`OnlineController` rebuilt *independently* from the same
   checkpoint state.
2. **Immutability** — every array a snapshot exposes is read-only;
   in-place writes raise.
3. **Hot-swap** — swapping to a republished (identical) checkpoint
   changes only the generation stamp, never the answers, and the
   threaded engine drops zero queries across a mid-burst swap.
"""

import json
import threading

import numpy as np
import pytest

from repro.config import DataConfig, DQNConfig, ForecastConfig, PFDRLConfig
from repro.core import OnlineController, PFDRLSystem
from repro.federated.dfl import DFLClient
from repro.persist import CheckpointError, CheckpointStore
from repro.rl.dqn import DQNAgent
from repro.serve import (
    ModelSnapshot,
    ScheduleQuery,
    ServingEngine,
    SnapshotError,
    SnapshotWatcher,
    make_queries,
    republish_latest,
)

CFG = PFDRLConfig(
    data=DataConfig(
        n_residences=3, n_days=3, minutes_per_day=240,
        device_types=("tv", "light"), heterogeneity=0.6, seed=11,
    ),
    forecast=ForecastConfig(model="lr", window=10, horizon=10),
    dqn=DQNConfig(
        hidden_width=10, batch_size=8, memory_capacity=200,
        learn_every=4, reward_scale=1 / 30,
    ),
    episodes=1,
    seed=11,
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One trained + checkpointed system, loaded as a snapshot."""
    root = tmp_path_factory.mktemp("serve-store")
    store = CheckpointStore(str(root), keep_last=5)
    PFDRLSystem(CFG).run(checkpoint_store=store)
    snapshot = ModelSnapshot.load(store, CFG)
    return store, snapshot


def fresh_queries(n=6, seed=5):
    return make_queries(CFG, n, seed=seed)


class TestSnapshotLoad:
    def test_final_checkpoint_is_served(self, served):
        store, snapshot = served
        assert snapshot.step == store.latest_step()
        assert snapshot.generation == f"ckpt-{snapshot.step:08d}"
        assert snapshot.meta.get("final") is True
        assert snapshot.residences() == (0, 1, 2)
        assert snapshot.devices(0) == ("tv", "light")

    def test_digest_guard_refuses_other_config(self, served):
        store, _ = served
        other = CFG.replace(seed=CFG.seed + 1)
        with pytest.raises(CheckpointError, match="different configuration"):
            ModelSnapshot.load(store, other)

    def test_forecast_only_checkpoint_refused(self, served, tmp_path):
        store, _ = served
        state, manifest = store.load()
        state = {k: v for k, v in state.items() if k != "drl"}
        early = CheckpointStore(str(tmp_path), keep_last=None)
        early.save(1, state, meta=dict(manifest["meta"]))
        with pytest.raises(SnapshotError, match="predates"):
            ModelSnapshot.load(early, CFG)

    def test_unknown_residence_rejected(self, served):
        _, snapshot = served
        query = fresh_queries(1)[0]
        bad = ScheduleQuery(residence_id=99, readings=query.readings)
        with pytest.raises(SnapshotError, match="residence 99"):
            snapshot.schedule([bad])


class TestEquivalence:
    def test_batch_matches_independent_controller(self, served):
        """Engine answers == a controller rebuilt from raw checkpoint
        state (not through ModelSnapshot), minute by minute."""
        store, snapshot = served
        state, _ = store.load()
        engine = ServingEngine(snapshot)
        queries = fresh_queries(6)
        answers = engine.answer_batch(queries)
        for query, answer in zip(queries, answers):
            rid = query.residence_id
            agent = DQNAgent(CFG.dqn, seed=0)
            agent.load_state_dict(state["drl"]["agents"][f"{rid}/*"])
            client = DFLClient(
                rid,
                {d: np.zeros(CFG.forecast.window + CFG.forecast.horizon)
                 for d in query.readings},
                CFG.forecast,
                minutes_per_day=CFG.data.minutes_per_day,
                seed=CFG.seed,
            )
            client.load_state_dict(state["dfl"]["clients"][str(rid)])
            nominals = {
                d: snapshot._residence(rid).nominals[d] for d in query.readings
            }
            controller = OnlineController(
                forecasters=client.forecasters,
                qnet=agent.qnet,
                nominals=nominals,
                minutes_per_day=CFG.data.minutes_per_day,
                t0=query.t0,
            )
            per_minute = controller.run_trace(dict(query.readings))
            for device in query.readings:
                serial = np.asarray([m[device] for m in per_minute])
                assert np.array_equal(serial, answer.actions[device])
            assert sum(controller.stats.saved_kwh.values()) == pytest.approx(
                answer.saved_kwh
            )

    def test_snapshot_controller_matches_engine(self, served):
        _, snapshot = served
        engine = ServingEngine(snapshot)
        query = fresh_queries(1, seed=9)[0]
        answer = engine.answer(query)
        controller = snapshot.controller(query.residence_id, t0=query.t0)
        per_minute = controller.run_trace(dict(query.readings))
        for device in query.readings:
            serial = np.asarray([m[device] for m in per_minute])
            assert np.array_equal(serial, answer.actions[device])

    def test_controlled_power_semantics(self, served):
        _, snapshot = served
        answer = ServingEngine(snapshot).answer(fresh_queries(1)[0])
        for device, controlled in answer.controlled_kw.items():
            actions = answer.actions[device]
            assert np.all(controlled[actions == 0] == 0.0)
            assert np.all(controlled >= 0)


class TestImmutability:
    def test_stack_and_member_views_read_only(self, served):
        _, snapshot = served
        for arr in snapshot.stack._weights + snapshot.stack._biases:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        for qnet in snapshot.stack.qnets:
            for p in qnet.parameters():
                assert not p.data.flags.writeable
                with pytest.raises(ValueError):
                    p.data[(0,) * p.data.ndim] = 1.0

    def test_forecaster_arrays_read_only(self, served):
        _, snapshot = served
        rid = snapshot.residences()[0]
        frozen = 0
        for fc in snapshot._residence(rid).forecasters.values():
            for value in vars(fc).values():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable
                    frozen += 1
        assert frozen > 0  # the guard actually covered something

    def test_answers_are_private_copies(self, served):
        """Answer arrays are caller-owned: scribbling on one answer
        must not leak into the snapshot or later answers."""
        _, snapshot = served
        engine = ServingEngine(snapshot)
        query = fresh_queries(1)[0]
        a1 = engine.answer(query)
        pristine = {d: a.copy() for d, a in a1.actions.items()}
        for arr in a1.actions.values():
            arr[:] = -1
        a2 = engine.answer(query)
        for device in pristine:
            assert np.array_equal(a2.actions[device], pristine[device])


class TestHotSwap:
    def test_swap_to_identical_checkpoint_changes_only_generation(
        self, served
    ):
        store, snapshot = served
        engine = ServingEngine(snapshot)
        watcher = SnapshotWatcher(engine, store, CFG)
        queries = fresh_queries(4)
        before = engine.answer_batch(queries)
        assert watcher.check_once() is False  # nothing new yet

        republish_latest(store)
        assert watcher.check_once() is True
        assert engine.swaps == 1
        after = engine.answer_batch(queries)
        assert after[0].generation != before[0].generation
        for a, b in zip(before, after):
            for device in a.actions:
                assert np.array_equal(a.actions[device], b.actions[device])
                assert np.array_equal(a.predicted_kw[device], b.predicted_kw[device])
        # idempotent: no further swap until another publish
        assert watcher.check_once() is False

    def test_threaded_swap_drops_nothing(self, served):
        store, snapshot = served
        engine = ServingEngine(snapshot, max_batch=4)
        watcher = SnapshotWatcher(engine, store, CFG)
        queries = fresh_queries(24, seed=31)
        engine.start()
        try:
            first = [engine.submit(q) for q in queries[:12]]
            republish_latest(store)
            swap_done = threading.Event()

            def swapper():
                watcher.check_once()
                swap_done.set()

            t = threading.Thread(target=swapper)
            t.start()
            second = [engine.submit(q) for q in queries[12:]]
            t.join()
            answers = [p.result(timeout=60.0) for p in first + second]
        finally:
            engine.stop()
        assert swap_done.is_set()
        assert len(answers) == len(queries)
        assert engine.dropped == 0
        assert engine.queries_served == len(queries)
        generations = {a.generation for a in answers}
        assert generations <= {snapshot.generation, engine.generation}
        # every answer is stamped and latency-tagged
        assert all(a.latency_s > 0 for a in answers)

    def test_watcher_survives_racing_publish(self, served, monkeypatch):
        """A CheckpointError during load is counted, not fatal."""
        store, snapshot = served
        engine = ServingEngine(snapshot)
        watcher = SnapshotWatcher(engine, store, CFG)
        republish_latest(store)
        monkeypatch.setattr(
            ModelSnapshot,
            "load",
            classmethod(lambda *a, **k: (_ for _ in ()).throw(
                CheckpointError("torn read")
            )),
        )
        assert watcher.check_once() is False
        assert watcher.load_errors == 1
        assert engine.swaps == 0


class TestServeCLI:
    def test_train_then_serve_with_swap_demo(self, tmp_path, capsys):
        from repro.__main__ import main

        ck = str(tmp_path / "ck")
        out = str(tmp_path / "serve.json")
        args = ["--residences", "2", "--days", "3", "--episodes", "1"]
        assert main(["train", *args, "--checkpoint-dir", ck]) == 0
        assert main([
            "serve", *args, "--checkpoint-dir", ck, "--queries", "8",
            "--swap-demo", "--result-json", out,
        ]) == 0
        capsys.readouterr()
        summary = json.load(open(out))
        assert summary["queries"] == 16
        assert summary["dropped"] == 0
        assert summary["swaps"] == 1
        assert summary["swap_demo"]["identical_answers"] is True
        assert summary["p99_ms"] >= summary["p50_ms"] > 0
        assert summary["qps"] > 0
