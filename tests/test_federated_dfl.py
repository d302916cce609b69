"""Tests for the DFL trainer (Algorithm 1) across its four sharing modes."""

import numpy as np
import pytest

from repro.config import FederationConfig, ForecastConfig
from repro.data import generate_neighborhood
from repro.federated.dfl import DFLClient, DFLTrainer
from repro.forecast import normalize_power


@pytest.fixture(scope="module")
def dataset():
    return generate_neighborhood(
        n_residences=3, n_days=3, minutes_per_day=240,
        device_types=("tv", "light"), seed=8,
    )


@pytest.fixture(scope="module")
def fc_config():
    return ForecastConfig(model="lr", window=10, horizon=10)


def make_trainer(dataset, fc_config, mode="decentralized", beta=6.0):
    return DFLTrainer(
        dataset,
        forecast_config=fc_config,
        federation_config=FederationConfig(beta_hours=beta),
        mode=mode,
        seed=0,
    )


class TestDFLClient:
    def test_one_forecaster_per_device(self, dataset, fc_config):
        res = dataset[0]
        client = DFLClient(
            0,
            {d: normalize_power(t.power_kw, t.on_kw) for d, t in res},
            fc_config,
            minutes_per_day=240,
        )
        assert set(client.forecasters) == {"tv", "light"}

    def test_train_segment_returns_finite_loss(self, dataset, fc_config):
        res = dataset[0]
        client = DFLClient(
            0,
            {d: normalize_power(t.power_kw, t.on_kw) for d, t in res},
            fc_config,
            minutes_per_day=240,
        )
        loss = client.train_segment("tv", 0, 240)
        assert np.isfinite(loss)

    def test_empty_segment_returns_nan(self, dataset, fc_config):
        res = dataset[0]
        client = DFLClient(
            0,
            {d: normalize_power(t.power_kw, t.on_kw) for d, t in res},
            fc_config,
            minutes_per_day=240,
        )
        assert np.isnan(client.train_segment("tv", 0, 3))


class TestCursorLag:
    """Segments too short for a window hold their data for the next one."""

    @pytest.fixture
    def client(self, dataset):
        res = dataset[0]
        client = DFLClient(
            0,
            {d: normalize_power(t.power_kw, t.on_kw) for d, t in res},
            ForecastConfig(model="lr", window=10, horizon=10, train_stride=10),
            minutes_per_day=240,
        )
        fitted = client.fitted_targets = []
        fit = client.forecasters["tv"].fit

        def spy(X, y):
            fitted.append(y.copy())
            return fit(X, y)

        client.forecasters["tv"].fit = spy
        return client

    def test_short_segment_returns_nan_and_keeps_cursor(self, client):
        # window = horizon = stride = 10: [0, 30) trains the targets at
        # minutes 10 and 20, leaving the cursor at 30.
        assert np.isfinite(client.train_segment("tv", 0, 30))
        assert client._cursor["tv"] == 30
        assert np.isnan(client.train_segment("tv", 30, 35))
        assert client._cursor["tv"] == 30
        assert len(client.fitted_targets) == 1

    def test_next_segment_trains_held_back_windows(self, client):
        series = client.series["tv"]
        client.train_segment("tv", 0, 30)
        client.train_segment("tv", 30, 35)
        assert np.isfinite(client.train_segment("tv", 35, 60))
        # The target at minute 30 starts in the short segment; it is
        # trained now, together with those at 40 and 50.
        np.testing.assert_array_equal(
            client.fitted_targets[-1],
            np.stack([series[30:40], series[40:50], series[50:60]]),
        )
        assert client._cursor["tv"] == 60


class TestDFLTrainerModes:
    def test_decentralized_converges_models(self, dataset, fc_config):
        """Right after a broadcast round every client holds the same weights."""
        tr = make_trainer(dataset, fc_config, "decentralized", beta=6.0)
        tr.run_day()
        tr._broadcast_and_aggregate()
        for device in tr.device_types:
            w0 = tr.clients[0].get_weights(device)
            for client in tr.clients[1:]:
                for a, b in zip(w0, client.get_weights(device)):
                    assert np.allclose(a, b)

    def test_local_mode_keeps_models_distinct(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config, "local")
        tr.run_day()
        w0 = tr.clients[0].get_weights("tv")[0]
        w1 = tr.clients[1].get_weights("tv")[0]
        assert not np.allclose(w0, w1)
        assert tr.bus.stats.n_messages == 0

    def test_centralized_routes_through_hub(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config, "centralized")
        tr.run_day()
        assert tr.topology.name == "star"
        assert tr.bus.stats.n_messages > 0
        # Right after an aggregation everyone holds the global model.
        tr._broadcast_and_aggregate()
        w0 = tr.clients[0].get_weights("tv")[0]
        assert np.allclose(w0, tr.clients[2].get_weights("tv")[0])

    def test_cloud_mode_uploads_raw_data(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config, "cloud")
        tr.run_day()
        assert tr.data_bytes_uploaded > 0
        w0 = tr.clients[0].get_weights("tv")[0]
        assert np.allclose(w0, tr.clients[1].get_weights("tv")[0])

    def test_unknown_mode_rejected(self, dataset, fc_config):
        with pytest.raises(ValueError):
            make_trainer(dataset, fc_config, "telepathy")


class TestDFLTraining:
    def test_run_day_advances_clock(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config)
        r0 = tr.run_day()
        r1 = tr.run_day()
        assert (r0.day, r1.day) == (0, 1)
        assert tr.minutes_trained == 480

    def test_exhausting_dataset_raises(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config)
        tr.run(3)
        with pytest.raises(RuntimeError):
            tr.run_day()

    def test_broadcast_count_matches_beta(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config, beta=6.0)
        r = tr.run_day()
        # 6h on a 240-min day = every 60 min; day-end boundary belongs to
        # the next day's range, so day 0 fires at 60, 120, 180.
        assert r.n_broadcast_events == 3

    def test_messages_scale_with_clients_and_devices(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config, beta=12.0)
        r = tr.run_day()
        n, d = 3, 2
        # One event on day 0 (minute 120); the midnight event belongs to day 1.
        expected = 1 * n * (n - 1) * d  # events * ordered pairs * devices
        assert r.n_messages == expected

    def test_losses_reported_per_device(self, dataset, fc_config):
        r = make_trainer(dataset, fc_config).run_day()
        assert set(r.per_device_loss) == {"tv", "light"}
        assert np.isfinite(r.mean_train_loss)


class TestDFLEvaluation:
    def test_accuracy_in_unit_interval(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config)
        tr.run(2)
        test = dataset.slice_days(2, 3)
        acc = tr.mean_accuracy(test)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_returns_offsets(self, dataset, fc_config):
        tr = make_trainer(dataset, fc_config)
        tr.run(2)
        test = dataset.slice_days(2, 3)
        acc, offs = tr.evaluate(test, return_offsets=True)
        assert set(acc) == set(offs)
        for key in acc:
            assert acc[key].shape == offs[key].shape

    def test_federation_beats_local_on_shared_structure(self, fc_config):
        """With homogeneous homes and little local data, sharing must help."""
        ds = generate_neighborhood(
            n_residences=6, n_days=3, minutes_per_day=240,
            device_types=("tv",), heterogeneity=0.05, seed=21,
        )
        train, test = ds.slice_days(0, 2), ds.slice_days(2, 3)
        accs = {}
        for mode in ("decentralized", "local"):
            tr = DFLTrainer(
                train,
                forecast_config=fc_config,
                federation_config=FederationConfig(beta_hours=6.0),
                mode=mode,
                seed=0,
            )
            tr.run(2)
            accs[mode] = tr.mean_accuracy(test)
        # Allow a tiny tolerance: at this scale the gap can be small.
        assert accs["decentralized"] >= accs["local"] - 0.02
