"""Tests for the batched training engine (repro.rl.batch).

Semantics-preservation contract, checked against the serial reference
trainer of ``tests/ems_oracle.py``:

- :class:`StackedQNet` forward is *bitwise* identical to each member
  network's own batch-of-1 forward (broadcast ``matmul`` computes each
  stacked item exactly as the serial product);
- vectorized greedy evaluation returns bit-identical ``EMSEvaluation``
  arrays to the per-step rollout;
- engine training is bit-identical to the serial ``run_episode`` loop
  in both agent scopes — day results, full trainer state and
  evaluation — over generated configurations, with and without a
  restore at a day boundary;
- process-parallel residence sharding is bit-identical to serial
  training in either scope.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import DQNConfig, FederationConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import ResidenceStream, build_streams
from repro.data import generate_neighborhood
from repro.nn.serialization import get_weights
from repro.parallel import fork_available
from repro.persist.state import flatten_state
from repro.rl.batch import BatchedEpisodeEngine, StackedQNet, greedy_rollout
from repro.rl.dqn import DQNAgent

from tests.ems_oracle import SerialPFDRLTrainer


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


def make_trainer(streams, dqn_config, cls=PFDRLTrainer, **kwargs):
    kwargs.setdefault("sharing", "personalized")
    kwargs.setdefault("federation_config", FederationConfig(alpha=6, gamma_hours=6.0))
    return cls(streams, dqn_config=dqn_config, seed=0, **kwargs)


def make_oracle(streams, dqn_config, **kwargs):
    return make_trainer(streams, dqn_config, cls=SerialPFDRLTrainer, **kwargs)


def assert_weights_equal(tr_a, tr_b):
    """Every agent's online-net parameters must match bit-for-bit."""
    assert tr_a._agents.keys() == tr_b._agents.keys()
    for key in tr_a._agents:
        for wa, wb in zip(
            get_weights(tr_a._agents[key].qnet), get_weights(tr_b._agents[key].qnet)
        ):
            np.testing.assert_array_equal(wa, wb)


def assert_states_equal(state_a, state_b):
    """Two ``PFDRLTrainer.state()`` trees must match bit-for-bit."""
    arrays_a, values_a = flatten_state(state_a)
    arrays_b, values_b = flatten_state(state_b)
    assert values_a == values_b
    assert arrays_a.keys() == arrays_b.keys()
    for path, arr in arrays_a.items():
        assert arr.dtype == arrays_b[path].dtype, path
        np.testing.assert_array_equal(arr, arrays_b[path], err_msg=path)


def assert_days_equal(day_a, day_b):
    # repr round-trips floats exactly and prints NaN equal to itself.
    assert repr(day_a) == repr(day_b)


def assert_evaluations_equal(ev_a, ev_b):
    np.testing.assert_array_equal(ev_a.saved_standby_kwh, ev_b.saved_standby_kwh)
    np.testing.assert_array_equal(ev_a.total_standby_kwh, ev_b.total_standby_kwh)
    np.testing.assert_array_equal(ev_a.saved_total_kwh, ev_b.saved_total_kwh)
    np.testing.assert_array_equal(ev_a.comfort_violations, ev_b.comfort_violations)
    np.testing.assert_array_equal(ev_a.reward_fraction, ev_b.reward_fraction)
    np.testing.assert_array_equal(ev_a.saved_kw, ev_b.saved_kw)


class TestStackedQNet:
    def make_agents(self, dqn_config, n=3):
        return [DQNAgent(dqn_config, seed=100 + i) for i in range(n)]

    def test_forward_bitwise_matches_members(self, dqn_config):
        agents = self.make_agents(dqn_config)
        stack = StackedQNet([a.qnet for a in agents])
        rng = np.random.default_rng(0)
        states = rng.normal(size=(len(agents), stack.in_dim))
        q = stack.forward(states)
        for i, agent in enumerate(agents):
            np.testing.assert_array_equal(
                q[i], agent.qnet.forward(states[i][None, :])[0]
            )

    def test_rows_selection_matches_full(self, dqn_config):
        agents = self.make_agents(dqn_config, n=4)
        stack = StackedQNet([a.qnet for a in agents])
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, stack.in_dim))
        rows = np.array([2, 0, 2])  # duplicates allowed
        q = stack.forward(states, rows=rows)
        for bi, i in enumerate(rows):
            np.testing.assert_array_equal(
                q[bi], agents[i].qnet.forward(states[bi][None, :])[0]
            )

    def test_inplace_updates_write_through(self, dqn_config):
        """set_weights / optimizer steps must hit the arena with no re-sync."""
        agents = self.make_agents(dqn_config, n=2)
        stack = StackedQNet([a.qnet for a in agents])
        agents[0].set_weights([w + 1.0 for w in agents[0].get_weights()])
        rng = np.random.default_rng(2)
        states = rng.normal(size=(2, stack.in_dim))
        q = stack.forward(states)
        for i, agent in enumerate(agents):
            np.testing.assert_array_equal(
                q[i], agent.qnet.forward(states[i][None, :])[0]
            )

    def test_adoption_rebinds_to_views(self, dqn_config):
        agents = self.make_agents(dqn_config, n=2)
        stack = StackedQNet([a.qnet for a in agents])
        for i, agent in enumerate(agents):
            for j, lin in enumerate(agent.qnet._linears):
                # Views of one flat (N, P) arena, at their layer's rows.
                assert lin.W.data.base is stack._flat
                assert lin.b.data.base is stack._flat
                assert np.shares_memory(lin.W.data, stack._weights[j][i])
                assert np.shares_memory(lin.b.data, stack._biases[j][i])

    def test_architecture_mismatch_rejected(self, dqn_config):
        a = DQNAgent(dqn_config, seed=0)
        b = DQNAgent(DQNConfig(hidden_width=12), seed=0)
        with pytest.raises(ValueError):
            StackedQNet([a.qnet, b.qnet])


class TestVectorizedEvaluation:
    @pytest.mark.parametrize("agent_scope", ["residence", "device"])
    def test_bit_identical_to_serial_rollout(self, streams, dqn_config, agent_scope):
        tr = make_trainer(streams, dqn_config, agent_scope=agent_scope)
        tr.run_day()  # trained weights, so argmax rows are non-trivial
        oracle = make_oracle(streams, dqn_config, agent_scope=agent_scope)
        oracle.restore(tr.state())
        assert_evaluations_equal(tr.evaluate(), oracle.evaluate())

    def test_greedy_rollout_matches_env_semantics(self, streams, dqn_config):
        tr = make_trainer(streams, dqn_config)
        stream = streams[0]
        dev = next(iter(stream.devices.values()))
        agent = tr.agent_for(stream.residence_id, dev.device)
        actions, controlled, rewards = greedy_rollout(agent.qnet, dev)
        assert actions.shape == controlled.shape == rewards.shape == dev.real_kw.shape
        # Pass-through semantics: off -> 0, standby -> capped, on -> real.
        np.testing.assert_array_equal(controlled[actions == 0], 0.0)
        np.testing.assert_array_equal(
            controlled[actions == 2], dev.real_kw[actions == 2]
        )
        cap = dev.standby_kw * 1.1
        assert (controlled[actions == 1] <= cap + 1e-12).all()


def assert_arena_bound(engine):
    """Every member's weights, target weights, Adam moments and replay
    rings must still be views of the engine's stacked rows."""

    def same(a, b):
        return (
            a.shape == b.shape
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        )

    for slot, stack in engine._stacks.items():
        learner = engine._learners[slot]
        for net_stack in (stack, engine._targets[slot]):
            for i, qn in enumerate(net_stack.qnets):
                for j, lin in enumerate(qn._linears):
                    assert same(lin.W.data, net_stack._weights[j][i])
                    assert same(lin.b.data, net_stack._biases[j][i])
        for i, agent in enumerate(learner.agents):
            for (lo, _), m, v in zip(
                learner.optim.spans, agent.optimizer._m, agent.optimizer._v
            ):
                assert same(m.ravel(), learner.optim._m[i, lo:lo + m.size])
                assert same(v.ravel(), learner.optim._v[i, lo:lo + v.size])
            assert same(agent.replay._states, learner.replay._states[i])


class TestBatchedTraining:
    def test_device_scope_bit_identical(self, streams, dqn_config):
        serial = make_oracle(streams, dqn_config, agent_scope="device")
        batched = make_trainer(streams, dqn_config, agent_scope="device")
        for _ in range(2):
            ra = serial.run_day()
            rb = batched.run_day()
            assert ra == rb
        assert_weights_equal(serial, batched)
        assert_evaluations_equal(serial.evaluate(), batched.evaluate())

    def test_share_rounds_and_restore_keep_arena_bound(self, streams, dqn_config):
        """In-place share rounds and checkpoint restore must not detach views."""
        cases = [("residence", 1), ("device", 1)]
        if fork_available():
            cases.append(("residence", 2))
        for agent_scope, n_workers in cases:
            tr = make_trainer(
                streams, dqn_config, agent_scope=agent_scope, n_workers=n_workers
            )
            tr.run_day()  # builds the engine, fires γ rounds
            snapshot = tr.state()
            tr.run_day()
            tr.restore(snapshot)
            assert tr._engine is not None
            assert_arena_bound(tr._engine)
            # And the restored trainer replays day 2 identically.
            reference = make_oracle(streams, dqn_config, agent_scope=agent_scope)
            reference.run_day()
            r_ref = reference.run_day()
            assert tr.run_day() == r_ref
            assert_arena_bound(tr._engine)
            assert_states_equal(tr.state(), reference.state())
            tr.close()


DEVICES = ("tv", "light", "fridge")


@st.composite
def engine_cases(draw):
    """A small generated training setup for the engine-vs-oracle check."""
    n_res = draw(st.integers(2, 3))
    mixes = [
        draw(st.lists(st.sampled_from(DEVICES), min_size=1, max_size=3, unique=True))
        for _ in range(n_res)
    ]
    return {
        "mixes": mixes,
        "agent_scope": draw(st.sampled_from(["residence", "device"])),
        "sharing": draw(st.sampled_from(["personalized", "full", "none"])),
        "learn_every": draw(st.integers(1, 3)),
        "gamma_hours": draw(st.sampled_from([0.5, 3.0])),
        "double_q": draw(st.booleans()),
        "n_workers": draw(st.sampled_from([1, 2])),
        "restore": draw(st.booleans()),
    }


@pytest.fixture(scope="module")
def full_streams():
    ds = generate_neighborhood(
        n_residences=3, n_days=2, minutes_per_day=120, device_types=DEVICES, seed=23,
    )
    return build_streams(ds)


class TestEngineMatchesOracle:
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=engine_cases())
    # Residence scope with unequal waves, in process, across a restore.
    @example(
        case={
            "mixes": [["tv", "light", "fridge"], ["light"], ["fridge", "tv"]],
            "agent_scope": "residence",
            "sharing": "personalized",
            "learn_every": 1,
            "gamma_hours": 0.5,
            "double_q": False,
            "n_workers": 1,
            "restore": True,
        }
    )
    def test_generated_configs_bitwise(self, full_streams, case):
        """Engine == serial oracle on day results, state() and evaluate().

        Ragged device mixes give residence scope unequal occurrence
        waves; a restore at the day boundary rebuilds the engine from a
        checkpointed state mid-run.
        """
        streams = [
            ResidenceStream(
                residence_id=s.residence_id,
                devices={d: s.devices[d] for d in mix},
                minutes_per_day=s.minutes_per_day,
            )
            for s, mix in zip(full_streams, case["mixes"])
        ]
        dqn = DQNConfig(
            hidden_width=8, n_hidden_layers=2, learning_rate=0.01,
            epsilon_decay_steps=200, batch_size=8, memory_capacity=100,
            learn_every=case["learn_every"], target_replace_iter=7,
            double_q=case["double_q"],
        )
        kwargs = dict(
            agent_scope=case["agent_scope"],
            sharing=case["sharing"],
            federation_config=FederationConfig(
                alpha=1, gamma_hours=case["gamma_hours"]
            ),
        )
        oracle = make_oracle(streams, dqn, **kwargs)
        engine = make_trainer(streams, dqn, n_workers=case["n_workers"], **kwargs)
        try:
            assert_days_equal(engine.run_day(), oracle.run_day())
            if case["restore"]:
                snapshot = engine.state()
                engine.close()
                engine = make_trainer(
                    streams, dqn, n_workers=case["n_workers"], **kwargs
                )
                engine.restore(snapshot)
            assert_days_equal(engine.run_day(), oracle.run_day())
            assert engine._engine is not None  # the stacked engine really ran
            assert_states_equal(engine.state(), oracle.state())
            engine.finalize()
            oracle.finalize()
            assert_evaluations_equal(engine.evaluate(), oracle.evaluate())
        finally:
            engine.close()


class TestParallelTraining:
    @pytest.mark.parametrize("agent_scope", ["residence", "device"])
    def test_two_workers_bit_identical_to_serial(self, streams, dqn_config, agent_scope):
        serial = make_oracle(streams, dqn_config, agent_scope=agent_scope)
        sharded = make_trainer(
            streams, dqn_config, agent_scope=agent_scope, n_workers=2
        )
        ra = serial.run_day()
        rb = sharded.run_day()
        assert ra == rb
        assert_weights_equal(serial, sharded)
        assert_evaluations_equal(serial.evaluate(), sharded.evaluate())

    def test_single_stream_falls_back_to_serial(self, dqn_config):
        ds = generate_neighborhood(
            n_residences=1, n_days=1, minutes_per_day=240,
            device_types=("tv",), seed=5,
        )
        tr = make_trainer(
            build_streams(ds), dqn_config, sharing="none", n_workers=4
        )
        r = tr.run_day()
        assert np.isfinite(r.mean_reward)


class TestEngineChunks:
    def test_empty_chunk(self, dqn_config):
        agents = {(0, "*"): DQNAgent(dqn_config, seed=0)}
        engine = BatchedEpisodeEngine([[(0, "*")]], agents)
        assert engine.run_chunk([]) == ([], [])
