"""Integration: controller built from fully-trained pipeline components."""

import numpy as np
import pytest

from repro.config import (
    DataConfig,
    DQNConfig,
    FederationConfig,
    ForecastConfig,
    PFDRLConfig,
)
from repro.core import DeviceNominals, OnlineController, PFDRLSystem
from repro.data import generate_neighborhood


@pytest.fixture(scope="module")
def trained_system():
    cfg = PFDRLConfig(
        data=DataConfig(
            n_residences=2, n_days=3, minutes_per_day=240,
            device_types=("tv", "light"), heterogeneity=0.3, seed=81,
        ),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(
            hidden_width=10, learning_rate=0.01, batch_size=8,
            memory_capacity=200, epsilon_decay_steps=400,
            learn_every=4, reward_scale=1 / 30,
        ),
        federation=FederationConfig(beta_hours=6, gamma_hours=6),
        episodes=2,
    )
    system = PFDRLSystem(cfg)
    system.run()
    return cfg, system


def build_controller(cfg, system, rid=0):
    client = system.dfl.clients[rid]
    agent = system.drl.agents[rid]
    nominals = {
        dev: DeviceNominals(t.on_kw, t.standby_kw) for dev, t in system.dataset[rid]
    }
    return OnlineController(
        forecasters=client.forecasters,
        qnet=agent.qnet,
        nominals=nominals,
        minutes_per_day=cfg.data.minutes_per_day,
    )


class TestDeployedController:
    def test_streams_fresh_day(self, trained_system):
        cfg, system = trained_system
        ctrl = build_controller(cfg, system)
        fresh = generate_neighborhood(cfg.data, seed=982)[0]
        traces = {dev: t.power_kw for dev, t in fresh}
        actions = ctrl.run_trace(traces)
        assert len(actions) == fresh.n_minutes
        assert ctrl.stats.minutes == fresh.n_minutes
        # The controller uses its real forecasters, not just fallbacks.
        assert ctrl.stats.forecasts_made > 0

    def test_recovers_most_standby_on_fresh_data(self, trained_system):
        cfg, system = trained_system
        ctrl = build_controller(cfg, system)
        fresh = generate_neighborhood(cfg.data, seed=983)[0]
        traces = {dev: t.power_kw for dev, t in fresh}
        ctrl.run_trace(traces)
        available = fresh.total_standby_energy_kwh()
        saved = sum(ctrl.stats.saved_kwh.values())
        assert saved >= 0.5 * available

    def test_per_device_accounting_sums(self, trained_system):
        cfg, system = trained_system
        ctrl = build_controller(cfg, system)
        fresh = generate_neighborhood(cfg.data, seed=984)[0]
        ctrl.run_trace({dev: t.power_kw for dev, t in fresh})
        total_actions = sum(ctrl.stats.actions.values())
        assert total_actions == ctrl.stats.minutes * len(ctrl.devices)
