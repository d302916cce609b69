"""Tests for repro.config: validation and derived properties."""

import dataclasses

import pytest

from repro.config import (
    DataConfig,
    DQNConfig,
    ExperimentConfig,
    FederationConfig,
    ForecastConfig,
    PFDRLConfig,
    config_to_dict,
)


class TestDataConfig:
    def test_defaults_valid(self):
        cfg = DataConfig()
        assert cfg.n_residences >= 1
        assert 0 < cfg.train_fraction < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_residences": 0},
            {"n_days": 0},
            {"train_fraction": 0.0},
            {"train_fraction": 1.0},
            {"heterogeneity": -0.1},
            {"heterogeneity": 1.5},
            {"noise_std": -1.0},
            {"device_types": ()},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DataConfig(**kwargs)

    def test_frozen(self):
        cfg = DataConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_residences = 5  # type: ignore[misc]


class TestForecastConfig:
    def test_input_dim_with_time_features(self):
        cfg = ForecastConfig(window=60, time_harmonics=4)
        assert cfg.n_extra == 8
        assert cfg.input_dim == 68

    def test_input_dim_without_time_features(self):
        cfg = ForecastConfig(window=60, time_features=False)
        assert cfg.n_extra == 0
        assert cfg.input_dim == 60

    def test_default_stride_quarter_horizon(self):
        cfg = ForecastConfig(horizon=60)
        assert cfg.stride == 15

    def test_explicit_stride(self):
        assert ForecastConfig(train_stride=7).stride == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"horizon": 0},
            {"local_epochs": 0},
            {"learning_rate": 0.0},
            {"train_stride": 0},
            {"time_harmonics": 0},
            {"accuracy_floor": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ForecastConfig(**kwargs)


class TestDQNConfig:
    def test_paper_defaults(self):
        cfg = DQNConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.discount == 0.9
        assert cfg.memory_capacity == 2000
        assert cfg.target_replace_iter == 100
        assert cfg.n_hidden_layers == 8
        assert cfg.hidden_width == 100
        assert cfg.n_actions == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"discount": 1.5},
            {"memory_capacity": 0},
            {"n_hidden_layers": 0},
            {"epsilon_start": 0.1, "epsilon_end": 0.5},
            {"learn_every": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DQNConfig(**kwargs)


class TestFederationConfig:
    def test_paper_defaults(self):
        cfg = FederationConfig()
        assert cfg.alpha == 6
        assert cfg.beta_hours == 12.0
        assert cfg.gamma_hours == 12.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -1},
            {"alpha": 9},
            {"beta_hours": 0.0},
            {"gamma_hours": -1.0},
            {"topology": "mesh2000"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FederationConfig(**kwargs)


class TestPFDRLConfig:
    def test_replace_returns_copy(self):
        cfg = PFDRLConfig()
        cfg2 = cfg.replace(episodes=9)
        assert cfg2.episodes == 9
        assert cfg.episodes != 9

    def test_experiment_config_repeats(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", repeats=0)


class TestConfigToDict:
    def test_nested_roundtrip_keys(self):
        d = config_to_dict(PFDRLConfig())
        assert set(d) == {
            "data", "forecast", "dqn", "federation", "faults", "episodes",
            "ems_workers", "scenario", "seed",
        }
        assert d["scenario"] is None  # scenario pack is opt-in
        assert d["dqn"]["memory_capacity"] == 2000
        assert isinstance(d["data"]["device_types"], list)

    def test_scalar_passthrough(self):
        assert config_to_dict(5) == 5
        assert config_to_dict("x") == "x"
