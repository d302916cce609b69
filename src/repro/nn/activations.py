"""Element-wise activation layers (no parameters)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["ReLU", "Tanh", "Sigmoid", "Identity", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function in one pass, no masked gathers.

    ``exp(-|x|)`` never overflows; it is ``exp(-x)`` for ``x >= 0`` and
    ``exp(x)`` below, so each branch computes exactly the classic
    piecewise form (``1 / (1 + exp(-x))`` for ``x >= 0``,
    ``exp(x) / (1 + exp(x))`` below) and the result is bitwise equal to
    it on every input, ±0 and infinities included (NaN stays NaN).
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class _Stateless(Module):
    def parameters(self) -> list[Parameter]:
        return []


class ReLU(_Stateless):
    """``max(0, x)`` — the paper's hidden-layer activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mask = x > 0
        self._mask = mask if cache else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, 0.0)


class Tanh(_Stateless):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        y = np.tanh(np.asarray(x, dtype=np.float64))
        self._y = y if cache else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class Sigmoid(_Stateless):
    """Logistic sigmoid (numerically stable piecewise form)."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        y = sigmoid(x)
        self._y = y if cache else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)


class Identity(_Stateless):
    """Pass-through (used as the output 'activation' of regressors)."""

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.asarray(grad_out, dtype=np.float64)
