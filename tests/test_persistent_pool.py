"""Tests for the persistent training pool and its shared-memory plumbing.

Covers the parallel runtime primitives (SharedArena, WorkerPool), the
stacked learn step's per-agent equivalence, replay serialization
payload size, and the trainer-level pool lifecycle: workers persist
across days, shut down cleanly on errors and scheduled stops, and
checkpoint/restore keeps the bit-identity contract.
"""

import os
import pickle

import numpy as np
import pytest

from repro.config import DQNConfig, FederationConfig, PFDRLConfig, DataConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import build_streams
from repro.core.system import PFDRLSystem
from repro.data import generate_neighborhood
from repro.parallel import SharedArena, WorkerError, WorkerPool, fork_available
from repro.persist import CheckpointStore, TrainingInterrupted
from repro.rl.batch import BatchedEpisodeEngine, StackedLearner, StackedQNet
from repro.rl.dqn import DQNAgent
from repro.rl.replay import ReplayBuffer

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="persistent pool needs the fork start method"
)


@pytest.fixture(scope="module")
def dqn_config():
    return DQNConfig(
        hidden_width=10, learning_rate=0.01, epsilon_decay_steps=200,
        batch_size=8, memory_capacity=200, learn_every=2,
    )


@pytest.fixture(scope="module")
def streams():
    ds = generate_neighborhood(
        n_residences=3, n_days=2, minutes_per_day=240,
        device_types=("tv", "light"), seed=17,
    )
    return build_streams(ds)


def make_trainer(streams, dqn_config, **kwargs):
    kwargs.setdefault("sharing", "personalized")
    return PFDRLTrainer(
        streams,
        dqn_config=dqn_config,
        federation_config=FederationConfig(alpha=6, gamma_hours=6.0),
        seed=0,
        **kwargs,
    )


def assert_weights_equal(tr_a, tr_b):
    assert tr_a._agents.keys() == tr_b._agents.keys()
    for key in tr_a._agents:
        for wa, wb in zip(tr_a._agents[key].get_weights(), tr_b._agents[key].get_weights()):
            np.testing.assert_array_equal(wa, wb)


# ----------------------------------------------------------------------
class TestSharedArena:
    def test_alloc_shapes_zeroed_and_aligned(self):
        arena = SharedArena(SharedArena.required_bytes([(3, 5), (7,)]))
        a = arena.alloc((3, 5))
        b = arena.alloc((7,), dtype=np.int64)
        assert a.shape == (3, 5) and a.dtype == np.float64
        assert b.shape == (7,) and b.dtype == np.int64
        assert not a.any() and not b.any()
        assert a.ctypes.data % 64 == 0
        assert b.ctypes.data % 64 == 0
        assert arena.used_bytes > 0

    def test_exhaustion_raises(self):
        arena = SharedArena(128)
        with pytest.raises(MemoryError):
            arena.alloc((100, 100))

    def test_fork_shares_pages_both_ways(self):
        arr = SharedArena(1024).alloc((4,))

        def factory():
            def handle(cmd, payload):
                if cmd == "write":
                    arr[payload] = 42.0
                    return None
                return float(arr[payload])
            return handle

        with WorkerPool([factory]) as pool:
            # child write -> parent read
            pool.call(0, "write", 1)
            assert arr[1] == 42.0
            # parent write -> child read
            arr[2] = 7.0
            assert pool.call(0, "read", 2) == 7.0


# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_routed_calls_and_distinct_processes(self):
        def make_factory(tag):
            def factory():
                return lambda cmd, payload: (tag, os.getpid(), cmd, payload)
            return factory

        with WorkerPool([make_factory("a"), make_factory("b")]) as pool:
            assert pool.n_workers == 2
            assert len(set(pool.pids())) == 2
            assert all(pid != os.getpid() for pid in pool.pids())
            tag, pid, cmd, payload = pool.call(1, "echo", 5)
            assert (tag, cmd, payload) == ("b", "echo", 5)
            assert pid == pool.pids()[1]
            replies = pool.call_all("x", [10, 20])
            assert [r[0] for r in replies] == ["a", "b"]
            assert [r[3] for r in replies] == [10, 20]

    def test_worker_exception_raises_and_closes(self):
        def factory():
            def handle(cmd, payload):
                raise RuntimeError("kaboom-in-child")
            return handle

        pool = WorkerPool([factory])
        pids = pool.pids()
        with pytest.raises(WorkerError, match="kaboom-in-child"):
            pool.call(0, "go")
        assert not pool.alive()
        with pytest.raises(WorkerError):
            pool.submit(0, "again")
        for pid in pids:  # no zombie children left behind
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_factory_failure_surfaces_at_construction(self):
        def bad_factory():
            raise ValueError("bad factory")

        with pytest.raises(WorkerError, match="bad factory"):
            WorkerPool([bad_factory])

    def test_close_idempotent(self):
        pool = WorkerPool([lambda: (lambda cmd, payload: payload)])
        pool.close()
        pool.close()
        assert not pool.alive()


# ----------------------------------------------------------------------
class TestStackedLearnerEquivalence:
    """observe_rows must reproduce per-agent observe()/learn_step() bitwise."""

    @pytest.mark.parametrize("n_agents", [1, 3])
    def test_bitwise_vs_serial_observe(self, dqn_config, n_agents):
        serial = [DQNAgent(dqn_config, seed=100 + i) for i in range(n_agents)]
        stacked = [DQNAgent(dqn_config, seed=100 + i) for i in range(n_agents)]
        qstack = StackedQNet([a.qnet for a in stacked])
        tstack = StackedQNet([a.target for a in stacked])
        learner = StackedLearner(stacked, qstack, tstack)

        rng = np.random.default_rng(7)
        dim = serial[0].qnet.in_dim
        learner.sync_in()
        rows = np.arange(n_agents)
        for t in range(60):
            s = rng.normal(size=(n_agents, dim))
            a = rng.integers(0, dqn_config.n_actions, size=n_agents)
            r = rng.integers(-10, 3, size=n_agents).astype(np.float64)
            s2 = rng.normal(size=(n_agents, dim))
            d = np.zeros(n_agents, dtype=bool)
            for i, agent in enumerate(serial):
                agent.observe(s[i], int(a[i]), float(r[i]), s2[i], bool(d[i]))
            learner.observe_rows(rows, s, a.astype(np.int64), r, s2, d)
        learner.sync_out()

        for sa, ba in zip(serial, stacked):
            assert sa.learn_steps == ba.learn_steps > 0
            assert sa._observed == ba._observed
            for ws, wb in zip(sa.get_weights(), ba.get_weights()):
                np.testing.assert_array_equal(ws, wb)
            for ts_, tb in zip(sa.target.parameters(), ba.target.parameters()):
                np.testing.assert_array_equal(ts_.data, tb.data)
            assert sa.optimizer._t == ba.optimizer._t

    def test_subset_rows_only_touch_their_agents(self, dqn_config):
        agents = [DQNAgent(dqn_config, seed=i) for i in range(3)]
        qstack = StackedQNet([a.qnet for a in agents])
        tstack = StackedQNet([a.target for a in agents])
        learner = StackedLearner(agents, qstack, tstack)
        learner.sync_in()
        rng = np.random.default_rng(3)
        dim = agents[0].qnet.in_dim
        before = [w.copy() for w in agents[2].get_weights()]
        # Feed only rows 0 and 1 until they learn; row 2 must stay put.
        rows = np.array([0, 1])
        for _ in range(4 * dqn_config.batch_size):
            s = rng.normal(size=(2, dim))
            learner.observe_rows(
                rows, s, np.zeros(2, dtype=np.int64), np.ones(2), s, np.zeros(2, bool)
            )
        learner.sync_out()
        assert agents[0].learn_steps > 0 and agents[1].learn_steps > 0
        assert agents[2].learn_steps == 0
        for wb, wa in zip(before, agents[2].get_weights()):
            np.testing.assert_array_equal(wb, wa)


# ----------------------------------------------------------------------
class TestReplayPayloadSize:
    def test_state_dict_tracks_contents_not_capacity(self):
        buf = ReplayBuffer(2000, 8, seed=0, n_actions=3)
        for i in range(10):
            buf.push(np.full(8, float(i)), i % 3, -1.0, np.zeros(8), False)
        small = len(pickle.dumps(buf.state_dict()))
        # Full-capacity rings used to pickle the whole pre-allocation:
        # 2000 * (8 + 8) * 8 bytes of states alone (~256 KB).
        assert small < 10_000
        full = ReplayBuffer(2000, 8, seed=0, n_actions=3)
        for i in range(2000):
            full.push(np.zeros(8), 0, 0.0, np.zeros(8), False)
        assert len(pickle.dumps(full.state_dict())) > 50 * small

    def test_sliced_roundtrip_resumes_identically(self):
        src = ReplayBuffer(50, 4, seed=9, n_actions=3)
        for i in range(20):
            src.push(np.full(4, i), i % 3, float(-i), np.full(4, i + 1), i % 7 == 0)
        clone = ReplayBuffer(50, 4, seed=1, n_actions=3)
        clone.load_state_dict(src.state_dict())
        assert len(clone) == len(src)
        for a, b in zip(src.sample(8), clone.sample(8)):
            np.testing.assert_array_equal(a, b)

    def test_legacy_full_capacity_format_still_loads(self):
        src = ReplayBuffer(30, 4, seed=2)
        for i in range(12):
            src.push(np.full(4, i), 0, 1.0, np.zeros(4), False)
        legacy = src.state_dict()
        for k in ("states", "actions", "rewards", "next_states", "dones"):
            arr = legacy[k]
            pad = np.zeros((30 - arr.shape[0],) + arr.shape[1:], dtype=arr.dtype)
            legacy[k] = np.concatenate([arr, pad])
        clone = ReplayBuffer(30, 4, seed=3)
        clone.load_state_dict(legacy)
        assert len(clone) == 12
        for a, b in zip(src.sample(6), clone.sample(6)):
            np.testing.assert_array_equal(a, b)

    def test_push_rejects_out_of_range_action(self):
        buf = ReplayBuffer(10, 4, seed=0, n_actions=3)
        with pytest.raises(ValueError, match="out of range"):
            buf.push(np.zeros(4), 3, 0.0, np.zeros(4), False)
        with pytest.raises(ValueError):
            buf.push(np.zeros(4), -1, 0.0, np.zeros(4), False)


# ----------------------------------------------------------------------
class TestTrainerPoolLifecycle:
    @pytest.mark.parametrize("device_scope", [False, True])
    def test_pool_persists_across_days(self, streams, dqn_config, device_scope):
        tr = make_trainer(
            streams, dqn_config,
            agent_scope="device" if device_scope else "residence",
            n_workers=2,
        )
        tr.run_day()
        assert tr._pool is not None
        pids = tr._pool.pids()
        assert len(pids) == 2
        tr.run_day()
        assert tr._pool.pids() == pids  # same processes, not respawned
        tr.close()
        assert tr._pool is None

    def test_close_preserves_state_and_allows_retraining(self, streams, dqn_config):
        serial = make_trainer(streams, dqn_config, agent_scope="device")
        pooled = make_trainer(
            streams, dqn_config, agent_scope="device", n_workers=2
        )
        r_serial_1 = serial.run_day()
        r_pooled_1 = pooled.run_day()
        assert r_serial_1 == r_pooled_1
        pooled.close()
        assert_weights_equal(serial, pooled)
        # Training continues after close: a fresh pool forks from the
        # pulled mirror and day 2 still matches bit-for-bit.
        assert serial.run_day() == pooled.run_day()
        assert_weights_equal(serial, pooled)

    def test_state_restore_roundtrip_with_pool(self, streams, dqn_config):
        reference = make_trainer(
            streams, dqn_config, agent_scope="device"
        )
        pooled = make_trainer(
            streams, dqn_config, agent_scope="device", n_workers=2
        )
        reference.run_day()
        pooled.run_day()
        snapshot = pooled.state()
        resumed = make_trainer(
            streams, dqn_config, agent_scope="device", n_workers=2
        )
        resumed.restore(snapshot)
        assert resumed._pool is None  # restore drops any live pool
        r_ref = reference.run_day()
        assert resumed.run_day() == r_ref
        assert_weights_equal(reference, resumed)
        resumed.close()
        pooled.close()

    def test_worker_exception_shuts_pool_down(self, streams, dqn_config, monkeypatch):
        tr = make_trainer(
            streams, dqn_config, agent_scope="device", n_workers=2
        )
        # Patched before the fork, so the children inherit the failure.
        def boom(self, pairs):
            raise RuntimeError("engine-exploded")

        monkeypatch.setattr(BatchedEpisodeEngine, "run_chunk", boom)
        with pytest.raises(WorkerError, match="engine-exploded"):
            tr.run_day()
        assert tr._pool is None
        monkeypatch.undo()
        tr.close()  # no-op, must not raise

    def test_stop_after_step_closes_pool(self, tmp_path):
        cfg = PFDRLConfig(
            data=DataConfig(
                n_residences=2, n_days=2, minutes_per_day=240,
                device_types=("tv", "light"),
            ),
            dqn=DQNConfig(
                hidden_width=10, epsilon_decay_steps=200,
                batch_size=8, memory_capacity=200, learn_every=4,
            ),
            ems_workers=2,
        )
        system = PFDRLSystem(cfg)
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(TrainingInterrupted):
            system.run(checkpoint_store=store, stop_after_step=system.n_train_days + 1)
        assert system.drl is not None
        assert system.drl._pool is None  # run()'s finally closed it
