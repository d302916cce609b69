"""Tests for the five comparison pipelines (Table 2)."""

import multiprocessing

import numpy as np
import pytest

from repro.baselines import METHODS, method_table, run_method
from repro.baselines import cloud, fl, frl, local
from repro.config import (
    DataConfig,
    DQNConfig,
    FaultConfig,
    FederationConfig,
    ForecastConfig,
    PFDRLConfig,
)
from repro.core import PFDRLSystem
from repro.core.pfdrl import PFDRLTrainer
from repro.data import generate_neighborhood


@pytest.fixture(scope="module")
def config():
    return PFDRLConfig(
        data=DataConfig(
            n_residences=3, n_days=3, minutes_per_day=240,
            device_types=("tv", "light"), seed=6,
        ),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(
            hidden_width=10, learning_rate=0.01, epsilon_decay_steps=200,
            batch_size=8, learn_every=2, memory_capacity=200,
        ),
        federation=FederationConfig(beta_hours=6, gamma_hours=6),
        episodes=1,
    )


@pytest.fixture(scope="module")
def dataset(config):
    return generate_neighborhood(config.data)


class TestMethodSpecs:
    def test_all_five_methods_exist(self):
        assert set(METHODS) == {"local", "cloud", "fl", "frl", "pfdrl"}

    def test_table2_feature_flags(self):
        # Spot-check the paper's Table 2.
        assert METHODS["local"].local_area and METHODS["local"].data_privacy
        assert not METHODS["cloud"].data_privacy
        assert METHODS["frl"].sharing_ems and not METHODS["frl"].personalization
        pf = METHODS["pfdrl"]
        assert all([pf.local_area, pf.data_privacy, pf.small_batch_training,
                    pf.sharing_ems, pf.personalization])

    def test_method_table_renders_all_rows(self):
        table = method_table()
        for name in METHODS:
            assert name.upper() in table

    def test_unknown_method_rejected(self, config):
        with pytest.raises(KeyError):
            run_method("quantum", config)


class TestRunMethods:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_each_method_runs(self, name, config, dataset):
        r = run_method(name, config, dataset)
        assert 0.0 <= r.forecast_accuracy <= 1.0
        assert np.isfinite(r.saved_standby_fraction)
        assert r.train_seconds > 0

    def test_privacy_cost_accounting(self, config, dataset):
        r_cloud = run_method("cloud", config, dataset)
        r_pfdrl = run_method("pfdrl", config, dataset)
        assert r_cloud.data_bytes_uploaded > 0
        assert r_pfdrl.data_bytes_uploaded == 0

    def test_local_broadcasts_nothing(self, config, dataset):
        r = run_method("local", config, dataset)
        assert r.params_broadcast == 0

    def test_frl_broadcasts_more_than_pfdrl(self, config, dataset):
        """FRL ships full DQNs both ways; PFDRL ships α of 8 layers."""
        r_frl = run_method("frl", config, dataset)
        r_pf = run_method("pfdrl", config, dataset)
        assert r_frl.params_broadcast > r_pf.params_broadcast

    def test_convergence_tracking(self, config, dataset):
        r = run_method("pfdrl", config, dataset, track_convergence=True)
        assert len(r.convergence) == 2  # 1 episode x 2 train days
        assert all(np.isfinite(v) for v in r.convergence)

    def test_module_wrappers(self, config, dataset):
        assert local.SPEC.name == "local"
        assert cloud.SPEC.name == "cloud"
        assert fl.SPEC.name == "fl"
        assert frl.SPEC.name == "frl"
        r = local.run(config, dataset)
        assert r.spec.name == "local"


class TestRunMethodLifecycle:
    @pytest.mark.parametrize("track", [False, True])
    def test_ems_trainer_gets_the_fault_config(
        self, config, dataset, monkeypatch, track
    ):
        """The tracked (Fig. 9) path must train on the faulty bus too."""
        trainers = []
        init = PFDRLTrainer.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            trainers.append(self)

        monkeypatch.setattr(PFDRLTrainer, "__init__", spy)
        faulty = config.replace(faults=FaultConfig(drop_rate=0.5))
        run_method("pfdrl", faulty, dataset, track_convergence=track)
        assert len(trainers) == 1
        assert trainers[0].fault_config == faulty.faults

    @pytest.mark.parametrize("track", [False, True])
    def test_no_worker_outlives_run_method(self, config, dataset, track):
        before = set(multiprocessing.active_children())
        r = run_method(
            "pfdrl", config.replace(ems_workers=2), dataset,
            track_convergence=track,
        )
        assert np.isfinite(r.saved_standby_fraction)
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("track", [False, True])
    def test_no_worker_outlives_a_failing_run_method(
        self, config, dataset, monkeypatch, track
    ):
        """A raising stage must not leave the pool to the garbage collector.

        A caller that keeps the exception keeps its traceback, and so
        ``run_method``'s frame and trainer, alive; only an explicit close
        stops the workers then.
        """
        before = set(multiprocessing.active_children())
        during = []

        def boom(self):
            during.extend(multiprocessing.active_children())
            raise RuntimeError("evaluate-exploded")

        monkeypatch.setattr(PFDRLSystem, "evaluate", boom)
        with pytest.raises(RuntimeError, match="evaluate-exploded") as caught:
            run_method(
                "pfdrl", config.replace(ems_workers=2), dataset,
                track_convergence=track,
            )
        assert len(set(during) - before) == 2  # the pool was up
        assert caught.tb is not None  # the traceback is still held here
        assert set(multiprocessing.active_children()) == before
