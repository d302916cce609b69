"""Tests for the grid-aware scenario pack (schedulable loads, DERs, DR).

Covers the scenario MDP (:class:`repro.rl.env.ScheduleEnv`), the
schedulable-device specs and request generator, the DER tier (solar +
battery), the seeded DR events, the optimal coordinated baseline, the
batched schedule rollout, and the end-to-end :class:`repro.scenario.
ScenarioRunner` determinism / checkpoint-resume / pipeline-integration
contracts.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    DataConfig,
    DQNConfig,
    ForecastConfig,
    PFDRLConfig,
    ScenarioConfig,
)
from repro.data.devices import DEVICE_CATALOG, DeviceSpec
from repro.data.generator import generate_schedule_requests
from repro.rl.env import ACTION_SHIFT, ScheduleEnv
from repro.rl.qnet import N_SCHED_FEATURES, SCHED_STATE_DIM, STATE_DIM, build_states
from repro.scenario import (
    Battery,
    ScenarioRunner,
    cheapest_minutes,
    dispatch_der,
    first_minutes,
    generate_dr_events,
    schedule_cost,
    solar_trace,
)


def tiny_config(pricing="tou", devices=("dishwasher", "washer"), **data_kw):
    data = dict(n_residences=2, n_days=3, minutes_per_day=240, seed=5)
    data.update(data_kw)
    return PFDRLConfig(
        data=DataConfig(**data),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(hidden_width=8, n_hidden_layers=2, epsilon_decay_steps=200),
        scenario=ScenarioConfig(
            pricing=pricing, schedulable_devices=devices, episodes_per_task=1
        ),
    )


# ----------------------------------------------------------------------
class TestSchedulableSpecs:
    def test_catalog_has_schedulable_entries(self):
        for name in ("dishwasher", "washer", "ev_charger"):
            spec = DEVICE_CATALOG[name]
            assert spec.schedulable
            assert spec.run_minutes >= 1
            w0, w1 = spec.window
            assert 0.0 <= w0 < w1 <= 24.0
            assert spec.run_minutes <= (w1 - w0) * 60

    def test_non_schedulable_defaults(self):
        spec = DEVICE_CATALOG["tv"]
        assert not spec.schedulable
        assert spec.run_minutes == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):  # run minutes exceed the window
            DeviceSpec(
                name="x", on_kw=1.0, standby_kw=0.01,
                usage_peaks=(12.0,), usage_widths=(2.0,), usage_scale=0.5,
                schedulable=True, run_minutes=200, window=(10.0, 12.0),
            )
        with pytest.raises(ValueError):  # non-schedulable with run minutes
            DeviceSpec(
                name="x", on_kw=1.0, standby_kw=0.01,
                usage_peaks=(12.0,), usage_widths=(2.0,), usage_scale=0.5,
                run_minutes=30,
            )


class TestScheduleRequests:
    def _requests(self, seed=5):
        cfg = DataConfig(n_residences=3, n_days=4, minutes_per_day=240, seed=seed)
        return generate_schedule_requests(cfg, ("dishwasher", "washer"))

    def test_deterministic(self):
        a, b = self._requests(), self._requests()
        assert a == b

    def test_requests_fit_the_day(self):
        for req in self._requests():
            assert 0 <= req.start_min < req.end_min <= 240
            assert 1 <= req.run_minutes <= req.window_minutes
            assert 0 <= req.day < 4

    def test_addressed_streams_stable_under_mix_changes(self):
        """Adding a device must not move another device's requests."""
        cfg = DataConfig(n_residences=2, n_days=4, minutes_per_day=240, seed=5)
        solo = [
            r for r in generate_schedule_requests(cfg, ("dishwasher",))
        ]
        mixed = [
            r
            for r in generate_schedule_requests(cfg, ("dishwasher", "washer"))
            if r.device == "dishwasher"
        ]
        assert solo == mixed


# ----------------------------------------------------------------------
class TestScheduleEnv:
    def _env(self, horizon=30, run=10, seed=0, **kw):
        rng = np.random.default_rng(seed)
        price = 0.1 + 0.1 * rng.random(horizon)
        return ScheduleEnv(price, on_kw=1.0, standby_kw=0.02, run_minutes=run, **kw)

    def test_state_shape_and_extras(self):
        env = self._env()
        s = env.reset()
        assert s.shape == (SCHED_STATE_DIM,)
        assert env.state_dim == STATE_DIM + N_SCHED_FEATURES
        assert s[STATE_DIM + 1] == pytest.approx(1.0)  # remaining fraction

    def test_constraint_satisfied_under_any_policy(self):
        """The deadline override completes the task under any policy.

        ``run_mask`` can exceed ``run_minutes`` when a random policy
        re-runs a finished task (that just burns money), but the
        mandatory run itself always lands: ``remaining`` hits zero.
        """
        for seed in range(5):
            env = self._env(horizon=25, run=9, seed=seed)
            rng = np.random.default_rng(seed)
            env.reset()
            done = False
            while not done:
                done = env.step(int(rng.integers(0, 4))).done
            assert env.remaining == 0
            assert env.run_mask().sum() >= 9

    def test_pure_shift_policy_gets_forced_at_deadline(self):
        env = self._env(horizon=12, run=5)
        env.reset()
        done = False
        while not done:
            done = env.step(ACTION_SHIFT).done
        assert env.forced_runs == 5
        assert env.run_mask()[-5:].all()  # the run lands at the tail

    def test_running_cheap_beats_running_dear(self):
        price = np.asarray([0.05, 0.05, 0.3, 0.3])
        env = ScheduleEnv(price, 1.0, 0.0, run_minutes=2)
        env.reset()
        cheap = env.step(2).reward + env.step(2).reward
        env.reset()
        env.step(ACTION_SHIFT)
        env.step(ACTION_SHIFT)
        dear = env.step(2).reward + env.step(2).reward
        assert cheap > dear

    def test_shift_free_while_pending_costly_after(self):
        env = self._env(horizon=20, run=2)
        env.reset()
        assert env.step(ACTION_SHIFT).reward == 0.0
        env.step(2)
        env.step(2)  # task done
        assert env.step(ACTION_SHIFT).reward < 0.0

    def test_cost_prices_the_controlled_trace(self):
        env = self._env(horizon=10, run=3)
        env.reset()
        for _ in range(10):
            env.step(2)
        run_price = env.price[:3].sum()  # forced stops after remaining=0?
        # First 3 steps run the task; the rest re-run at full draw.
        assert env.cost() == pytest.approx(env.price.sum() / 60.0)
        assert run_price > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ScheduleEnv(np.asarray([0.1, -0.1]), 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            ScheduleEnv(np.asarray([0.1, 0.1]), 1.0, 0.0, 3)
        env = self._env()
        env.reset()
        with pytest.raises(ValueError):
            env.step(4)


class TestScheduleRollout:
    def test_matches_serial_greedy(self):
        from repro.rl.batch import schedule_rollout
        from repro.rl.dqn import DQNAgent

        agent = DQNAgent(
            DQNConfig(hidden_width=8, n_hidden_layers=2, n_actions=4),
            seed=3,
            state_dim=SCHED_STATE_DIM,
        )
        rng = np.random.default_rng(0)

        def envs():
            return [
                ScheduleEnv(0.1 + 0.1 * rng.random(20 + 5 * i), 1.0, 0.02, 6)
                for i in range(4)
            ]

        rng = np.random.default_rng(0)
        batch_envs = envs()
        traces = schedule_rollout(agent.qnet, batch_envs)
        rng = np.random.default_rng(0)
        for env, batched in zip(envs(), traces):
            state = env.reset()
            done = False
            while not done:
                step = env.step(agent.act(state, greedy=True))
                state, done = step.state, step.done
            assert np.array_equal(np.nan_to_num(env.controlled_kw), batched)


# ----------------------------------------------------------------------
class TestSolar:
    def test_deterministic_and_nonnegative(self):
        a = solar_trace(3.0, 240, 100, residence_id=1, seed=4)
        b = solar_trace(3.0, 240, 100, residence_id=1, seed=4)
        assert np.array_equal(a, b)
        assert (a >= 0).all()

    def test_no_generation_at_night(self):
        trace = solar_trace(3.0, 1440, 172, residence_id=0, seed=0)
        hours = np.arange(1440) / 60.0
        assert trace[(hours < 5.5) | (hours >= 20.0)].sum() == 0.0
        assert trace.max() > 0

    def test_summer_outshines_winter(self):
        summer = sum(
            solar_trace(3.0, 240, 172, residence_id=0, seed=s).sum()
            for s in range(6)
        )
        winter = sum(
            solar_trace(3.0, 240, 355, residence_id=0, seed=s).sum()
            for s in range(6)
        )
        assert summer > winter

    def test_zero_peak_is_dark(self):
        assert solar_trace(0.0, 240, 100, 0).sum() == 0.0


class TestBattery:
    def test_soc_bounds_and_power_cap(self):
        bat = Battery(capacity_kwh=1.0, max_kw=2.0, efficiency=0.9)
        for _ in range(120):
            absorbed = bat.charge(5.0)
            assert absorbed <= 2.0
            assert 0.0 <= bat.soc_kwh <= 1.0 + 1e-12
        assert bat.soc_kwh == pytest.approx(1.0)

    def test_round_trip_efficiency(self):
        bat = Battery(capacity_kwh=10.0, max_kw=100.0, efficiency=0.81)
        absorbed = bat.charge(60.0)  # one minute at 60 kW = 1 kWh in
        delivered = 0.0
        for _ in range(600):
            delivered += bat.discharge(60.0) / 60.0
        assert delivered == pytest.approx(absorbed / 60.0 * 0.81)

    def test_zero_capacity_is_noop(self):
        bat = Battery(0.0, 2.0)
        assert bat.charge(1.0) == 0.0
        assert bat.discharge(1.0) == 0.0

    def test_state_roundtrip(self):
        bat = Battery(2.0, 1.0)
        bat.charge(1.0, minutes=30.0)
        other = Battery(2.0, 1.0)
        other.load_state_dict(bat.state_dict())
        assert other.soc_kwh == bat.soc_kwh


class TestDispatch:
    def test_grid_never_negative_and_cheaper(self):
        rng = np.random.default_rng(1)
        load = rng.uniform(0.0, 2.0, 240)
        solar = solar_trace(3.0, 240, 172, residence_id=0, seed=1)
        price = 0.1 + 0.1 * rng.random(240)
        out = dispatch_der(load, solar, price, Battery(4.0, 2.0, 0.9))
        assert (out.grid_kw >= 0).all()
        assert (out.grid_kw * price).sum() <= (load * price).sum() + 1e-12
        assert out.solar_used_kwh <= solar.sum() / 60.0 + 1e-12

    def test_no_solar_no_battery_is_identity(self):
        load = np.full(50, 1.0)
        price = np.full(50, 0.1)
        out = dispatch_der(load, np.zeros(50), price, Battery(0.0, 0.0))
        assert np.array_equal(out.grid_kw, load)
        assert out.solar_used_kwh == 0.0


# ----------------------------------------------------------------------
class TestDREvents:
    def test_deterministic_and_rate_limits(self):
        a = generate_dr_events(30, rate=0.5, seed=9)
        b = generate_dr_events(30, rate=0.5, seed=9)
        assert a == b
        assert generate_dr_events(30, rate=0.0, seed=9) == ()
        assert len(generate_dr_events(30, rate=1.0, seed=9)) == 30

    def test_windows_in_evening_band(self):
        for ev in generate_dr_events(60, rate=1.0, duration_hours=2.0, seed=3):
            assert 14.0 <= ev.start_hour
            assert ev.end_hour <= 24.0
            assert ev.end_hour - ev.start_hour == pytest.approx(2.0)

    def test_saved_energy_worth_more_inside_event(self):
        """Satellite: saved_monetary_cost sign/ordering under DR pricing."""
        from repro.data.pricing import DemandResponsePlan, VariableRatePlan
        from repro.metrics.monetary import saved_monetary_cost

        plan = DemandResponsePlan(
            base=VariableRatePlan(), events=((10.0, 17.0, 19.0, 0.25),)
        )
        hours = np.full(60, 18.0)
        days = np.full(60, 10.0)
        baseline = np.full(60, 1.0)
        controlled = np.zeros(60)
        inside = saved_monetary_cost(baseline, controlled, hours, days, plan)
        base_only = saved_monetary_cost(
            baseline, controlled, hours, days, plan.base
        )
        assert inside > base_only > 0.0
        assert inside == pytest.approx(base_only + 0.25)
        # Mis-control (drawing more than baseline) prices negative.
        assert saved_monetary_cost(controlled, baseline, hours, days, plan) < 0


# ----------------------------------------------------------------------
class TestBaseline:
    def test_cheapest_minutes_is_optimal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            price = 0.05 + rng.random(40)
            k = int(rng.integers(1, 40))
            best = schedule_cost(cheapest_minutes(price, k), price, 1.0)
            random_mask = np.zeros(40, dtype=bool)
            random_mask[rng.choice(40, size=k, replace=False)] = True
            assert best <= schedule_cost(random_mask, price, 1.0) + 1e-12
            assert best <= schedule_cost(first_minutes(40, k), price, 1.0) + 1e-12

    def test_mask_counts(self):
        price = np.asarray([3.0, 1.0, 2.0])
        mask = cheapest_minutes(price, 2)
        assert mask.sum() == 2
        assert mask[1] and mask[2]

    def test_stable_tie_break(self):
        mask = cheapest_minutes(np.full(5, 0.1), 2)
        assert list(np.flatnonzero(mask)) == [0, 1]


# ----------------------------------------------------------------------
class TestQnetExtensions:
    def test_build_states_extra_columns(self):
        n = 7
        extra = np.arange(n * 3, dtype=float).reshape(n, 3)
        out = build_states(np.zeros(n), np.zeros(n), extra=extra)
        assert out.shape == (n, STATE_DIM + 3)
        assert np.array_equal(out[:, STATE_DIM:], extra)

    def test_build_states_default_unchanged(self):
        out = build_states(np.zeros(4), np.zeros(4))
        assert out.shape == (4, STATE_DIM)

    def test_agent_state_dim_widens_net_and_replay(self):
        from repro.rl.dqn import DQNAgent

        cfg = DQNConfig(hidden_width=8, n_hidden_layers=2, n_actions=4)
        agent = DQNAgent(cfg, seed=0, state_dim=SCHED_STATE_DIM)
        assert agent.qnet.in_dim == SCHED_STATE_DIM
        assert agent.replay.state_dim == SCHED_STATE_DIM
        q = agent.qnet.forward(np.zeros((1, SCHED_STATE_DIM)))
        assert q.shape == (1, 4)


# ----------------------------------------------------------------------
class TestScenarioRunner:
    def test_run_deterministic_and_bounded(self):
        cfg = tiny_config()
        a = ScenarioRunner(cfg).run()
        b = ScenarioRunner(cfg).run()
        assert a == b
        assert a["baseline_cost"] <= a["dqn_cost"] + 1e-12
        assert a["baseline_cost"] <= a["naive_cost"] + 1e-12

    def test_requires_scenario_config(self):
        cfg = dataclasses.replace(tiny_config(), scenario=None)
        with pytest.raises(ValueError):
            ScenarioRunner(cfg)

    def test_resume_bit_identical(self, tmp_path):
        from repro.persist import CheckpointStore, TrainingInterrupted

        cfg = tiny_config(pricing="dr", n_days=4)
        reference = ScenarioRunner(cfg)
        ref_summary = reference.run()

        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(TrainingInterrupted):
            ScenarioRunner(cfg).run(
                store=store, checkpoint_every=1, stop_after_day=1
            )
        resumed = ScenarioRunner(cfg)
        assert resumed.run(store=store, checkpoint_every=1, resume=True) == (
            ref_summary
        )
        for key, agent in reference.agents.items():
            for w_ref, w_res in zip(
                agent.get_weights(), resumed.agents[key].get_weights()
            ):
                assert np.array_equal(w_ref, w_res)

    def test_resume_refuses_other_config(self, tmp_path):
        from repro.persist import CheckpointError, CheckpointStore

        store = CheckpointStore(tmp_path / "ckpt")
        runner = ScenarioRunner(tiny_config(pricing="tou", n_days=4))
        runner.run_day()
        store.save(
            1, runner.state_dict(), meta={"config_sha256": runner.config_digest()}
        )
        other = ScenarioRunner(tiny_config(pricing="realtime", n_days=4))
        with pytest.raises(CheckpointError):
            other.resume(store)


class TestSystemIntegration:
    def _pipe_config(self, scenario):
        from repro.config import FederationConfig

        return PFDRLConfig(
            data=DataConfig(
                n_residences=2,
                n_days=2,
                minutes_per_day=96,
                device_types=("tv", "light"),
                seed=3,
            ),
            forecast=ForecastConfig(model="lr", window=4, horizon=4),
            dqn=DQNConfig(hidden_width=8, n_hidden_layers=2),
            federation=FederationConfig(alpha=2, beta_hours=1.0, gamma_hours=1.0),
            episodes=1,
            scenario=scenario,
        )

    def test_default_result_has_no_scenario_key(self):
        from repro.core.system import PFDRLSystem

        result = PFDRLSystem(self._pipe_config(None)).run()
        assert result.scenario is None
        assert "scenario" not in result.to_dict()

    def test_enabled_result_carries_summary(self):
        from repro.core.system import PFDRLSystem

        scenario = ScenarioConfig(pricing="dr", seed=3)
        result = PFDRLSystem(self._pipe_config(scenario)).run()
        assert result.scenario is not None
        d = result.to_dict()["scenario"]
        assert d["pricing"] == "dr"
        assert np.isfinite(d["saved_value"])


class TestDERMeterController:
    def test_meter_nets_solar_before_the_grid(self):
        from types import SimpleNamespace

        from repro.core.controller import DeviceNominals, OnlineController
        from repro.rl.dqn import DQNAgent
        from repro.scenario import DERMeter

        n = 24
        solar = np.full(n, 10.0)  # overwhelming PV: grid draw must be 0
        price = np.full(n, 0.1)
        meter = DERMeter(solar, price, Battery(1.0, 1.0))
        fake = SimpleNamespace(window=10**6, horizon=6, n_extra=0)
        controller = OnlineController(
            forecasters={"tv": fake},
            qnet=DQNAgent(DQNConfig(hidden_width=8, n_hidden_layers=2), seed=0).qnet,
            nominals={"tv": DeviceNominals(1.0, 0.05)},
            minutes_per_day=240,
            der=meter,
        )
        for _ in range(n):
            controller.observe_minute({"tv": 1.0})
        assert controller.grid_kwh == 0.0
        assert meter.t == n

    def test_no_meter_counts_controlled_energy(self):
        from types import SimpleNamespace

        from repro.core.controller import DeviceNominals, OnlineController
        from repro.rl.dqn import DQNAgent

        fake = SimpleNamespace(window=10**6, horizon=6, n_extra=0)
        controller = OnlineController(
            forecasters={"tv": fake},
            qnet=DQNAgent(DQNConfig(hidden_width=8, n_hidden_layers=2), seed=0).qnet,
            nominals={"tv": DeviceNominals(1.0, 0.05)},
            minutes_per_day=240,
        )
        controller.observe_minute({"tv": 1.0})
        saved = sum(controller.stats.saved_kwh.values())
        assert controller.grid_kwh == pytest.approx(1.0 / 60.0 - saved)
