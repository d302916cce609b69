"""Forecaster protocol shared by all four prediction models."""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Forecaster"]


class Forecaster(abc.ABC):
    """A trainable next-hour load predictor.

    Contract
    --------
    - ``fit(X, y)`` performs *incremental* training: calling it again
      continues from the current weights (this is what makes federated
      rounds meaningful).
    - ``predict(X)`` maps ``(n, window)`` features to ``(n, horizon)``
      predictions; ``predict_rows(X)`` does the same with each row
      predicted as a batch of one (bitwise equal to per-row ``predict``).
    - ``get_weights()`` / ``set_weights()`` expose the parameters that go
      on the wire in the DFL broadcast, in a stable order.
    - ``clone()`` builds a fresh untrained model with identical
      configuration (used to spin up per-device models across residences).

    Inputs are expected pre-normalised (see
    :func:`repro.forecast.features.normalize_power`).
    """

    #: Registry key, e.g. ``"lr"``; set by subclasses.
    name: str = "base"

    def __init__(self, window: int, horizon: int, n_extra: int = 0) -> None:
        if window < 1 or horizon < 1:
            raise ValueError("window and horizon must be >= 1")
        if n_extra < 0:
            raise ValueError("n_extra must be >= 0")
        self.window = int(window)
        self.horizon = int(horizon)
        self.n_extra = int(n_extra)

    @property
    def input_dim(self) -> int:
        """Feature-vector width: ``window`` lag columns + ``n_extra``."""
        return self.window + self.n_extra

    # -- shape checking ----------------------------------------------
    def _check_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected X of shape (n, {self.input_dim}), got {X.shape}")
        return X

    def _check_Xy(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = self._check_X(X)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[None, :]
        if y.shape != (X.shape[0], self.horizon):
            raise ValueError(
                f"expected y of shape ({X.shape[0]}, {self.horizon}), got {y.shape}"
            )
        return X, y

    # -- API ------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        """Train incrementally on (X, y); return the final training loss."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict ``(n, horizon)`` outputs for ``(n, window)`` inputs."""

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """Predict each row of ``(n, window)`` *X* as its own batch of one.

        Row ``i`` of the result is bitwise ``predict(X[i:i+1])[0]`` — the
        contract the serving path relies on to answer many forecast
        blocks at once exactly as the per-minute controller does.  This
        loop is exact for every model; models with a faster stacked form
        (:class:`~repro.forecast.lstm_forecaster.LSTMForecaster`)
        override it.
        """
        X = self._check_X(X)
        out = np.empty((X.shape[0], self.horizon))
        for i in range(X.shape[0]):
            out[i] = self.predict(X[i : i + 1])[0]
        return out

    @abc.abstractmethod
    def get_weights(self) -> list[np.ndarray]:
        """Parameter arrays in stable order (copies)."""

    @abc.abstractmethod
    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_weights`."""

    @abc.abstractmethod
    def clone(self) -> "Forecaster":
        """Fresh untrained model with the same configuration."""

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict:
        """Complete mutable state as a state tree (see ``repro.persist``).

        The base implementation covers the wire weights only; models
        with additional training state (optimizer slots, sufficient
        statistics, RNGs) override this so that restore-and-continue is
        bit-identical to never having stopped.
        """
        return {"weights": self.get_weights()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` in place."""
        self.set_weights([np.asarray(w, dtype=np.float64) for w in state["weights"]])

    # -- conveniences ----------------------------------------------------
    def n_parameters(self) -> int:
        return sum(int(w.size) for w in self.get_weights())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(window={self.window}, horizon={self.horizon})"
