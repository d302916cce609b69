"""Contract tests shared by all four forecasters, plus model-specific checks."""

import numpy as np
import pytest

from repro.forecast import (
    FORECASTERS,
    BPForecaster,
    LinearRegressionForecaster,
    LSTMForecaster,
    SVRForecaster,
    make_forecaster,
)
from repro.forecast.registry import register_forecaster

WINDOW, HORIZON, EXTRA = 8, 4, 2


def make(name):
    kwargs = {} if name == "lr" else {"seed": 0}
    if name == "bp":
        kwargs["epochs"] = 10
    if name == "lstm":
        kwargs.update(epochs=5, hidden_size=8)
    if name == "svm":
        kwargs["epochs"] = 10
    return make_forecaster(name, WINDOW, HORIZON, n_extra=EXTRA, **kwargs)


def toy_data(n=40, seed=0):
    """y is a linear-ish function of the window mean plus the extras."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, WINDOW + EXTRA))
    base = X[:, :WINDOW].mean(axis=1, keepdims=True)
    y = np.tile(base, (1, HORIZON)) + 0.1 * X[:, WINDOW:WINDOW + 1]
    return X, y


@pytest.mark.parametrize("name", sorted(FORECASTERS))
class TestForecasterContract:
    def test_fit_reduces_loss_and_predicts_shape(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        pred = f.predict(X)
        assert pred.shape == y.shape
        # After fitting, predictions beat the trivial zero predictor.
        assert np.abs(pred - y).mean() < np.abs(y).mean()

    def test_weights_roundtrip_preserves_predictions(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        w = f.get_weights()
        g = f.clone()
        g.set_weights(w)
        assert np.allclose(f.predict(X), g.predict(X))

    def test_get_weights_are_copies(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        w = f.get_weights()
        before = f.predict(X)
        for arr in w:
            arr[...] = 0.0
        assert np.allclose(f.predict(X), before)

    def test_clone_is_fresh_config_twin(self, name):
        f = make(name)
        g = f.clone()
        assert type(g) is type(f)
        assert g.window == f.window and g.horizon == f.horizon
        assert g.n_extra == f.n_extra

    def test_input_dim_validation(self, name):
        f = make(name)
        with pytest.raises(ValueError):
            f.predict(np.zeros((2, WINDOW)))  # missing the extra columns

    def test_incremental_fit_improves(self, name):
        f = make(name)
        X, y = toy_data(n=60)
        f.fit(X, y)
        err1 = np.abs(f.predict(X) - y).mean()
        for _ in range(3):
            f.fit(X, y)
        err2 = np.abs(f.predict(X) - y).mean()
        assert err2 <= err1 * 1.05  # never dramatically worse, usually better

    def test_weight_shape_mismatch_rejected(self, name):
        f = make(name)
        w = f.get_weights()
        w[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            f.set_weights(w)

    def test_predict_rows_is_per_row_predict_bitwise(self, name):
        """Row i of predict_rows is predict(X[i:i+1])[0], bit for bit —
        the contract stacked serving rests on."""
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        rng = np.random.default_rng(3)
        for n in (1, 2, 9, 64):
            Xn = rng.uniform(0, 1.2, size=(n, WINDOW + EXTRA))
            rows = f.predict_rows(Xn)
            assert rows.shape == (n, HORIZON)
            for i in range(n):
                assert np.array_equal(rows[i], f.predict(Xn[i : i + 1])[0])
        assert f.predict_rows(np.zeros((0, WINDOW + EXTRA))).shape == (0, HORIZON)

    def test_averaging_weights_is_well_defined(self, name):
        """FedAvg of two trained models yields a usable model."""
        from repro.nn.serialization import average_weights

        X, y = toy_data(n=50, seed=1)
        f1, f2 = make(name), make(name)
        f1.fit(X[:25], y[:25])
        f2.fit(X[25:], y[25:])
        merged = average_weights([f1.get_weights(), f2.get_weights()])
        g = f1.clone()
        g.set_weights(merged)
        pred = g.predict(X)
        assert np.all(np.isfinite(pred))


class TestLSTMInference:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_predictions_keep_no_backward_cache(self, n_layers):
        """Inference forwards hold no activations: a served forecaster
        answering many rows must not keep them alive between batches."""
        f = LSTMForecaster(WINDOW, HORIZON, n_extra=EXTRA, hidden_size=5,
                           n_layers=n_layers, epochs=1, seed=0)
        X, y = toy_data()
        f.fit(X, y)
        for predict in (f.predict, f.predict_rows):
            f.fit(X, y)  # leaves the last mini-batch's cache behind
            predict(X)
            assert all(layer._cache is None for layer in f.model.layers)
            assert f.model.head._x is None

    def test_training_forward_still_backpropagates(self):
        f = LSTMForecaster(WINDOW, HORIZON, n_extra=EXTRA, hidden_size=5, seed=0)
        X, _ = toy_data(n=4)
        out = f.model.forward(f._to_sequence(X))
        f.model.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in f.model.parameters())


class TestLinearRegressionSpecifics:
    def test_exact_fit_on_linear_problem(self):
        rng = np.random.default_rng(0)
        f = LinearRegressionForecaster(4, 2, ridge=1e-9, n_extra=0)
        W_true = rng.normal(size=(4, 2))
        X = rng.normal(size=(50, 4))
        y = X @ W_true + 3.0
        f.fit(X, y)
        assert np.allclose(f.predict(X), y, atol=1e-6)

    def test_blend_mixes_solutions(self):
        """blend=0.5 lands halfway between the old W and the fresh solve."""
        X = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y1 = X.sum(axis=1, keepdims=True)
        y2 = np.zeros((3, 1))

        half = LinearRegressionForecaster(2, 1, ridge=1e-9, blend=0.5, n_extra=0)
        full = LinearRegressionForecaster(2, 1, ridge=1e-9, blend=1.0, n_extra=0)
        for f in (half, full):
            f.fit(X, y1)
        w_first = half.W.copy()
        for f in (half, full):
            f.fit(X, y2)
        # `full` tracks the fresh solve on accumulated stats; `half` is the
        # midpoint between that solve and the post-first-fit weights.
        assert np.allclose(half.W, 0.5 * (w_first + full.W), atol=1e-9)
        assert not np.allclose(half.W, full.W)

    def test_statistics_accumulate_across_fits(self):
        """Two half-batches equal one full batch for blend=1."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=(40, 2))
        a = LinearRegressionForecaster(4, 2, ridge=1.0, blend=1.0, n_extra=0)
        a.fit(X[:20], y[:20])
        a.fit(X[20:], y[20:])
        b = LinearRegressionForecaster(4, 2, ridge=1.0, blend=1.0, n_extra=0)
        b.fit(X, y)
        assert np.allclose(a.W, b.W)
        assert a.n_samples_seen == 40

    def test_ridge_shrinks_weights(self):
        X, y = toy_data()
        small = LinearRegressionForecaster(WINDOW, HORIZON, ridge=1e-6, n_extra=EXTRA)
        big = LinearRegressionForecaster(WINDOW, HORIZON, ridge=1e3, n_extra=EXTRA)
        small.fit(X, y)
        big.fit(X, y)
        assert np.abs(big.W[:-1]).sum() < np.abs(small.W[:-1]).sum()


class TestSVRSpecifics:
    def test_epsilon_tube_ignores_small_errors(self):
        f = SVRForecaster(2, 1, epsilon=10.0, n_extra=0, seed=0, epochs=5)
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.random.default_rng(1).uniform(-0.5, 0.5, size=(20, 1))
        f.fit(X, y)
        # Everything is inside the enormous tube: weights never move.
        assert np.allclose(f.W, 0.0) and np.allclose(f.b, 0.0)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SVRForecaster(2, 1, C=0.0)
        with pytest.raises(ValueError):
            SVRForecaster(2, 1, epsilon=-1.0)


class TestLSTMSpecifics:
    def test_sequence_reshape_layout(self):
        f = LSTMForecaster(3, 2, n_extra=2, seed=0, hidden_size=4)
        X = np.asarray([[1.0, 2.0, 3.0, 9.0, 8.0]])
        seq = f._to_sequence(X)
        assert seq.shape == (1, 3, 3)
        assert np.allclose(seq[0, :, 0], [1, 2, 3])      # lag channel
        assert np.allclose(seq[0, :, 1], [9, 9, 9])      # tiled extra 1
        assert np.allclose(seq[0, :, 2], [8, 8, 8])      # tiled extra 2

    def test_no_extra_features(self):
        f = LSTMForecaster(3, 2, n_extra=0, seed=0, hidden_size=4)
        seq = f._to_sequence(np.ones((2, 3)))
        assert seq.shape == (2, 3, 1)


class TestRegistry:
    def test_all_expected_models_registered(self):
        assert set(FORECASTERS) >= {"lr", "svm", "bp", "lstm"}

    def test_unknown_name_raises_with_list(self):
        with pytest.raises(KeyError, match="lstm"):
            make_forecaster("prophet", 4, 4)

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_forecaster("lr", LinearRegressionForecaster)

    def test_register_custom(self):
        register_forecaster("lr_test_custom", LinearRegressionForecaster)
        try:
            f = make_forecaster("lr_test_custom", 4, 4)
            assert isinstance(f, LinearRegressionForecaster)
        finally:
            del FORECASTERS["lr_test_custom"]
