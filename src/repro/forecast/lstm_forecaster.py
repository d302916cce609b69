"""LSTM forecaster — the paper's best model (≈92% accuracy).

Input layout: the feature vector's first ``window`` columns are the lag
sequence; the remaining ``n_extra`` columns (target-time harmonics) are
*tiled across every timestep* as conditioning channels, so each LSTM
step sees ``1 + n_extra`` features.  The final hidden state feeds a
linear head producing the ``horizon``-length prediction; trained with
Adam on MSE.
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.nn import Adam, LSTMRegressor, MSELoss
from repro.nn.serialization import get_weights, set_weights
from repro.rng import as_generator, generator_state, restore_generator

__all__ = ["LSTMForecaster"]


class LSTMForecaster(Forecaster):
    """(Stacked) LSTM sequence encoder + linear head (the paper's best model)."""

    name = "lstm"

    def __init__(
        self,
        window: int,
        horizon: int,
        hidden_size: int = 32,
        learning_rate: float = 0.01,
        epochs: int = 10,
        batch_size: int = 32,
        n_layers: int = 1,
        n_extra: int = 0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        self.hidden_size = int(hidden_size)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.n_layers = int(n_layers)
        self._seed = seed
        self._rng = as_generator(seed)
        self.model = LSTMRegressor(
            1 + self.n_extra, hidden_size, horizon, n_layers=n_layers, rng=self._rng
        )
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate, clip_norm=5.0)
        self.loss_fn = MSELoss()

    # ------------------------------------------------------------------
    def _to_sequence(self, X: np.ndarray) -> np.ndarray:
        """(n, window + n_extra) -> (n, window, 1 + n_extra)."""
        n = X.shape[0]
        lags = X[:, : self.window, None]
        if self.n_extra == 0:
            return lags
        extras = X[:, self.window :]  # (n, n_extra)
        tiled = np.broadcast_to(extras[:, None, :], (n, self.window, self.n_extra))
        return np.concatenate([lags, tiled], axis=2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = self._check_Xy(X, y)
        n = X.shape[0]
        if n == 0:
            return float("nan")
        bs = min(self.batch_size, n)
        last = float("nan")
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                self.model.zero_grad()
                pred = self.model.forward(self._to_sequence(X[idx]))
                last, grad = self.loss_fn(pred, y[idx])
                self.model.backward(grad)
                self.optimizer.step()
        # The last batch's activations are dead once training ends.
        self.model.clear_cache()
        return last

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_X(X)
        return self.model.forward(self._to_sequence(X), cache=False)

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """One stacked forward over ``(n, 1, window, features)``.

        Each step runs one ``(1, F) @ (F, 4H)`` product per row inside a
        stacked ``matmul``, so row ``i`` is bitwise ``predict(X[i:i+1])``
        at a fraction of ``n`` separate forwards.
        """
        X = self._check_X(X)
        return self.model.forward(self._to_sequence(X)[:, None], cache=False)[:, 0]

    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return get_weights(self.model)

    def set_weights(self, weights: list[np.ndarray]) -> None:
        set_weights(self.model, weights)
        # Adam moments were estimated for the pre-merge parameters; reset
        # so the merged model starts from clean optimiser state.
        self.optimizer = Adam(self.model.parameters(), lr=self.learning_rate, clip_norm=5.0)

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {
            "weights": get_weights(self.model),
            "optimizer": self.optimizer.state_dict(),
            "rng": generator_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        # Bypass self.set_weights: that hook deliberately resets Adam
        # (federated-merge semantics), but a restore must bring the
        # moment estimates back exactly as they were.
        set_weights(self.model, [np.asarray(w) for w in state["weights"]])
        self.optimizer.load_state_dict(state["optimizer"])
        restore_generator(self._rng, state["rng"])

    def clone(self) -> "LSTMForecaster":
        return LSTMForecaster(
            self.window,
            self.horizon,
            hidden_size=self.hidden_size,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            n_layers=self.n_layers,
            n_extra=self.n_extra,
            seed=self._seed,
        )
