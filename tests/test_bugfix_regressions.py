"""Regression tests for the training-loop correctness fixes (PR 2).

Each class pins one fix and fails on the pre-fix code:

- :class:`TestReplaySampling` — ``ReplayBuffer.sample`` drew indices
  *with* replacement, so one mini-batch could double-count a transition;
- :class:`TestPerDayBroadcastAccounting` — ``PFDRLDayResult.params_broadcast``
  reported the cumulative total while ``sgd_steps`` was a per-day delta;
- :class:`TestDQNTargetInit` — ``DQNAgent.__init__`` built the target net
  with a second ``make_qnet`` call, burning init draws only to overwrite
  them via the deploy-time sync;
- :class:`TestClassifyModesPhantomStandby` — for two-mode devices
  (``standby_kw == 0``) the out-of-band fallback still offered a standby
  pseudo-level, so stray readings classified as standby for devices that
  have no standby mode.

The γ-round scheduling fixes (collapsed sub-hour rounds, dropped midnight
event) are pinned separately in ``test_gamma_schedule.py``.
"""

import numpy as np
import pytest

from repro.config import DataConfig, DQNConfig, FederationConfig, PFDRLConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import build_streams
from repro.data import generate_neighborhood
from repro.nn.serialization import get_weights, set_weights, weights_allclose
from repro.rl.dqn import DQNAgent
from repro.rl.qnet import make_qnet
from repro.rl.replay import ReplayBuffer
from repro.rng import as_generator, spawn


class TestReplaySampling:
    """Mini-batches must be drawn without replacement."""

    def _full_buffer(self, capacity=32):
        buf = ReplayBuffer(capacity, state_dim=2, seed=0)
        for i in range(capacity):
            s = np.array([float(i), 0.0])
            buf.push(s, 0, 0.0, s, False)
        return buf

    def test_full_buffer_sample_has_no_duplicates(self):
        """Sampling the whole buffer must return every transition once.

        Pre-fix (``integers`` with replacement) the chance of 20 clean
        32-of-32 draws is astronomically small.
        """
        buf = self._full_buffer(32)
        for _ in range(20):
            states, *_ = buf.sample(32)
            assert len(np.unique(states[:, 0])) == 32

    def test_partial_batch_has_no_duplicates(self):
        buf = self._full_buffer(32)
        for _ in range(50):
            states, *_ = buf.sample(16)
            assert len(np.unique(states[:, 0])) == 16

    def test_oversized_batch_clamped_to_size(self):
        buf = ReplayBuffer(8, 1, seed=0)
        for i in range(3):
            buf.push(np.array([float(i)]), 0, 0.0, np.array([float(i)]), False)
        states, actions, rewards, next_states, dones = buf.sample(8)
        assert states.shape == (3, 1)
        assert sorted(states[:, 0]) == [0.0, 1.0, 2.0]


class TestPerDayBroadcastAccounting:
    """``params_broadcast`` must be a per-day delta, like ``sgd_steps``."""

    def make_trainer(self):
        cfg = PFDRLConfig(
            data=DataConfig(
                n_residences=2, n_days=2, minutes_per_day=240,
                device_types=("tv",), seed=0,
            ),
            dqn=DQNConfig(
                hidden_width=8, learning_rate=0.01, batch_size=8,
                memory_capacity=100, epsilon_decay_steps=100,
                learn_every=8, reward_scale=1 / 30,
            ),
            # gamma = 16 h on a 240-min day (period 160 min) -> exactly one
            # share event per day on both days (minutes 160 and 320), so the
            # per-day params deltas must be equal.
            federation=FederationConfig(alpha=2, beta_hours=6, gamma_hours=16),
            episodes=1,
        )
        streams = build_streams(generate_neighborhood(cfg.data))
        return PFDRLTrainer(
            streams, cfg.dqn, cfg.federation, sharing="personalized", seed=0
        )

    def test_equal_share_schedule_gives_equal_per_day_params(self):
        tr = self.make_trainer()
        r1 = tr.run_day()
        r2 = tr.run_day()
        assert r1.n_broadcast_events == r2.n_broadcast_events > 0
        assert r1.params_broadcast > 0
        # Pre-fix, day 2 reported the running total: exactly 2x day 1.
        assert r2.params_broadcast == r1.params_broadcast

    def test_cumulative_total_is_sum_of_deltas(self):
        tr = self.make_trainer()
        deltas = [tr.run_day().params_broadcast for _ in range(2)]
        assert tr.params_broadcast_total == sum(deltas)
        tr.finalize()
        assert tr.params_broadcast_total > sum(deltas)


class TestDQNTargetInit:
    """The target net is a deep copy, not a second random init."""

    def cfg(self):
        return DQNConfig(hidden_width=10, batch_size=8, memory_capacity=50)

    def test_make_qnet_called_exactly_once(self, monkeypatch):
        import repro.rl.dqn as dqn_mod

        calls = []
        real = dqn_mod.make_qnet

        def counting(config, rng=None, state_dim=None):
            calls.append(config)
            return real(config, rng=rng, state_dim=state_dim)

        monkeypatch.setattr(dqn_mod, "make_qnet", counting)
        DQNAgent(self.cfg(), seed=0)
        assert len(calls) == 1

    def test_qnet_init_stream_unchanged(self):
        """The online net's init must still consume exactly the first
        spawned child stream — the fix may not shift existing seeds."""
        cfg = self.cfg()
        agent = DQNAgent(cfg, seed=0)
        r_net = spawn(as_generator(0), 3)[0]
        reference = make_qnet(cfg, rng=r_net)
        assert weights_allclose(get_weights(agent.qnet), get_weights(reference))

    def test_target_matches_but_is_independent(self):
        agent = DQNAgent(self.cfg(), seed=0)
        target_before = get_weights(agent.target)
        assert weights_allclose(target_before, get_weights(agent.qnet))
        set_weights(agent.qnet, [w + 1.0 for w in get_weights(agent.qnet)])
        # Mutating the online net must not leak into the target copy.
        assert weights_allclose(get_weights(agent.target), target_before)


class TestClassifyModesPhantomStandby:
    """Two-mode devices (standby_kw == 0) must never classify as standby."""

    def test_stray_low_reading_resolves_to_off(self):
        from repro.data.devices import MODE_OFF
        from repro.rl.modes import classify_modes

        # 1e-5 kW is outside every band; the old fallback offered a
        # standby pseudo-level at 2 * zero_eps and picked it.
        out = classify_modes(np.array([1e-5, 1e-6]), on_kw=1.0, standby_kw=0.0)
        assert (out == MODE_OFF).all()

    def test_no_standby_anywhere_for_two_mode_device(self):
        from repro.data.devices import MODE_STANDBY
        from repro.rl.modes import classify_modes

        rng = as_generator(3)
        values = rng.uniform(0.0, 1.5, size=2000)
        out = classify_modes(values, on_kw=1.0, standby_kw=0.0)
        assert not (out == MODE_STANDBY).any()

    def test_mid_range_reading_still_resolves_to_on(self):
        from repro.data.devices import MODE_ON
        from repro.rl.modes import classify_modes

        out = classify_modes(np.array([0.5]), on_kw=1.0, standby_kw=0.0)
        assert out[0] == MODE_ON

    def test_three_mode_fallback_unchanged(self):
        from repro.data.devices import MODE_OFF, MODE_ON, MODE_STANDBY
        from repro.rl.modes import classify_modes

        # With a real standby level the fallback still offers all three.
        out = classify_modes(
            np.array([1e-6, 0.11, 0.5]), on_kw=1.0, standby_kw=0.1
        )
        assert out[0] == MODE_OFF
        assert out[1] == MODE_STANDBY
        assert out[2] == MODE_ON

    def test_band_overlap_on_wins(self):
        from repro.data.devices import MODE_ON
        from repro.rl.modes import classify_modes

        # standby 0.95 / on 1.0: the bands overlap on [0.9, 1.045]; the
        # on band takes precedence (assignment order is the contract).
        out = classify_modes(np.array([0.92, 1.0]), on_kw=1.0, standby_kw=0.95)
        assert (out == MODE_ON).all()


class TestActionDrawRuleSingleSource:
    """Regression (scenario-pack PR): ``DeviceEnv.step`` and
    ``OnlineController.observe_minute`` carried their own inline copies
    of the action -> controlled-draw rule instead of routing through
    :func:`repro.rl.env.apply_actions`.  A semantics tweak to the shared
    rule (say, the standby headroom) would have silently diverged the
    serial env from the batched rollout and the serving engine.  Both
    must call the single shared function, and the three execution paths
    must materialise bit-identical controlled traces."""

    ON_KW = 1.0
    STANDBY_KW = 0.05
    HORIZON = 6

    def _trace(self, n=36, seed=7):
        rng = np.random.default_rng(seed)
        levels = np.array([0.0, self.STANDBY_KW, self.ON_KW])
        real = levels[rng.integers(0, 3, size=n)]
        # Predicted series matching the controller's persistence rule:
        # standby before any history, then the reading at the last
        # horizon boundary — so all three paths see identical states.
        pred = np.empty(n)
        for t in range(n):
            if t < self.HORIZON:
                pred[t] = self.STANDBY_KW
            else:
                pred[t] = real[(t // self.HORIZON) * self.HORIZON - 1]
        return pred, real

    def _agent(self):
        from repro.rl.qnet import make_qnet

        cfg = DQNConfig(hidden_width=8, n_hidden_layers=2)
        agent = DQNAgent(cfg, seed=11)
        return agent

    def test_env_step_routes_through_apply_actions(self, monkeypatch):
        import repro.rl.env as env_mod

        calls = []
        shared = env_mod.apply_actions

        def spy(actions, real_kw, standby_kw):
            calls.append(int(np.asarray(actions)[0]))
            return shared(actions, real_kw, standby_kw)

        monkeypatch.setattr(env_mod, "apply_actions", spy)
        pred, real = self._trace(n=6)
        env = env_mod.DeviceEnv(pred, real, self.ON_KW, self.STANDBY_KW)
        env.reset()
        for action in (0, 1, 2):
            env.step(action)
        # Pre-fix the env used an inline rule and the spy never fired.
        assert calls == [0, 1, 2]

    def test_controller_routes_through_apply_actions(self, monkeypatch):
        import repro.core.controller as ctrl_mod

        calls = []
        shared = ctrl_mod.apply_actions

        def spy(actions, real_kw, standby_kw):
            calls.append(int(np.asarray(actions)[0]))
            return shared(actions, real_kw, standby_kw)

        monkeypatch.setattr(ctrl_mod, "apply_actions", spy)
        controller = self._controller()
        controller.observe_minute({"tv": 0.5})
        assert len(calls) == 1

    def _controller(self):
        from types import SimpleNamespace

        from repro.core.controller import DeviceNominals, OnlineController

        # Persistence-only forecaster: window longer than any trace we
        # stream, so forecast_block never calls predict().
        fake = SimpleNamespace(window=10**6, horizon=self.HORIZON, n_extra=0)
        return OnlineController(
            forecasters={"tv": fake},
            qnet=self._agent().qnet,
            nominals={"tv": DeviceNominals(self.ON_KW, self.STANDBY_KW)},
            minutes_per_day=240,
        )

    def test_three_paths_identical_controlled_traces(self, monkeypatch):
        import repro.core.controller as ctrl_mod
        from repro.core.streams import DeviceStream
        from repro.rl.batch import greedy_rollout
        from repro.rl.env import DeviceEnv
        from repro.rl.modes import classify_modes

        pred, real = self._trace()
        agent = self._agent()

        # 1. Serial environment, greedy agent loop.
        env = DeviceEnv(pred, real, self.ON_KW, self.STANDBY_KW, device="tv")
        state = env.reset()
        serial_actions = []
        done = False
        while not done:
            action = agent.act(state, greedy=True)
            step = env.step(action)
            serial_actions.append(action)
            state, done = step.state, step.done
        serial_controlled = env.controlled_kw.copy()

        # 2. Batched greedy rollout (the evaluation hot path).
        stream = DeviceStream(
            device="tv",
            real_kw=real,
            predicted_kw=pred,
            mode=classify_modes(real, self.ON_KW, self.STANDBY_KW),
            on_kw=self.ON_KW,
            standby_kw=self.STANDBY_KW,
        )
        batch_actions, batch_controlled, _ = greedy_rollout(agent.qnet, stream)

        # 3. The online controller (the serving-side minute loop),
        #    controlled draws recorded at the shared rule itself.
        recorded = []
        shared = ctrl_mod.apply_actions

        def spy(actions, real_kw, standby_kw):
            out = shared(actions, real_kw, standby_kw)
            recorded.append(float(out[0]))
            return out

        monkeypatch.setattr(ctrl_mod, "apply_actions", spy)
        controller = self._controller()
        controller.qnet = agent.qnet
        ctrl_actions = [
            m["tv"] for m in controller.run_trace({"tv": real})
        ]

        assert serial_actions == list(batch_actions) == ctrl_actions
        assert np.array_equal(serial_controlled, batch_controlled)
        assert np.array_equal(serial_controlled, np.asarray(recorded))
