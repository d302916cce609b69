"""Tests for the online deployment controller."""

import numpy as np
import pytest

from repro.config import DQNConfig
from repro.core.controller import ControllerStats, DeviceNominals, OnlineController
from repro.forecast import LinearRegressionForecaster
from repro.rl import DeviceEnv, DQNAgent


def trained_agent(on_kw=0.12, standby_kw=0.012, device="tv", seed=1):
    """A quickly-trained agent that knows off-for-standby / on-for-on.

    seed=1: with replacement-free replay sampling, seed 0's exploration
    happens to settle in the keep-standby local optimum at this tiny
    training budget; seed 1 learns the intended policy robustly.
    """
    agent = DQNAgent(
        DQNConfig(hidden_width=10, learning_rate=0.01, batch_size=8,
                  memory_capacity=200, epsilon_decay_steps=200,
                  reward_scale=1 / 30),
        seed=seed,
    )
    rng = np.random.default_rng(1)
    for _ in range(50):
        sb = rng.random(10) < 0.5
        real = np.where(sb, standby_kw, on_kw)
        mode = np.where(sb, 1, 2).astype(np.int8)
        env = DeviceEnv(real.copy(), real, on_kw, standby_kw,
                        ground_truth_mode=mode, device=device)
        agent.run_episode(env, learn=True)
    return agent


def make_controller(window=6, horizon=3, device="tv", agent=None):
    fc = LinearRegressionForecaster(window, horizon, n_extra=0)
    # Identity-ish forecaster: predict the last value (persistence row).
    fc.W[window - 1, :] = 1.0
    fc._fitted = True
    return OnlineController(
        forecasters={device: fc},
        qnet=(agent or trained_agent(device=device)).qnet,
        nominals={device: DeviceNominals(on_kw=0.12, standby_kw=0.012)},
        minutes_per_day=240,
    )


class TestConstruction:
    def test_mismatched_devices_rejected(self):
        fc = LinearRegressionForecaster(4, 2, n_extra=0)
        with pytest.raises(ValueError):
            OnlineController(
                {"tv": fc}, trained_agent().qnet, {"light": DeviceNominals(0.1, 0.01)}
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OnlineController({}, trained_agent().qnet, {})

    def test_nominals_validated(self):
        with pytest.raises(ValueError):
            DeviceNominals(on_kw=0.0, standby_kw=0.01)


class TestStreaming:
    def test_actions_from_first_minute(self):
        ctrl = make_controller()
        actions = ctrl.observe_minute({"tv": 0.012})
        assert actions["tv"] in (0, 1, 2)
        assert ctrl.stats.minutes == 1

    def test_kills_standby_after_warmup(self):
        ctrl = make_controller()
        for _ in range(12):
            actions = ctrl.observe_minute({"tv": 0.012})
        assert actions["tv"] == 0  # standby -> off
        assert ctrl.stats.saved_kwh["tv"] > 0

    def test_passes_active_use_through(self):
        ctrl = make_controller()
        for _ in range(12):
            actions = ctrl.observe_minute({"tv": 0.12})
        assert actions["tv"] == 2  # on stays on (once the forecast warms up)
        # Any withheld energy is confined to the cold-start minutes where
        # the persistence fallback mispredicts standby.
        total_kwh = 0.12 * 12 / 60.0
        assert ctrl.stats.saved_kwh["tv"] <= 0.25 * total_kwh

    def test_forecast_refresh_cadence(self):
        ctrl = make_controller(window=4, horizon=3)
        for _ in range(10):
            ctrl.observe_minute({"tv": 0.012})
        # First 4 minutes run on persistence fallback; model forecasts
        # start once a window exists and refresh every horizon=3 minutes.
        assert ctrl.stats.forecasts_made >= 2

    def test_readings_must_cover_devices(self):
        ctrl = make_controller()
        with pytest.raises(ValueError):
            ctrl.observe_minute({"not_tv": 0.01})

    def test_negative_reading_rejected(self):
        ctrl = make_controller()
        with pytest.raises(ValueError):
            ctrl.observe_minute({"tv": -1.0})

    def test_run_trace_alignment(self):
        ctrl = make_controller()
        out = ctrl.run_trace({"tv": np.full(7, 0.012)})
        assert len(out) == 7
        with pytest.raises(ValueError):
            make_controller().run_trace({"tv": np.zeros(3), "x": np.zeros(4)})


class TestEndToEndDeployment:
    def test_controller_on_generated_trace(self):
        """Deploy on a real generated trace and recover most standby."""
        from repro.data import generate_neighborhood

        ds = generate_neighborhood(
            n_residences=1, n_days=1, minutes_per_day=240,
            device_types=("tv",), heterogeneity=0.0, seed=8,
        )
        trace = ds[0]["tv"]
        agent = trained_agent(on_kw=trace.on_kw, standby_kw=trace.standby_kw)
        fc = LinearRegressionForecaster(6, 3, n_extra=0)
        fc.W[5, :] = 1.0
        fc._fitted = True
        ctrl = OnlineController(
            {"tv": fc}, agent.qnet,
            {"tv": DeviceNominals(trace.on_kw, trace.standby_kw)},
            minutes_per_day=240,
        )
        ctrl.run_trace({"tv": trace.power_kw})
        standby_kwh = trace.standby_energy_kwh()
        if standby_kwh > 0:
            assert ctrl.stats.saved_kwh["tv"] >= 0.5 * standby_kwh
        assert ctrl.stats.minutes == 240
