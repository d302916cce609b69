"""Fully-connected layer with manual backprop."""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_uniform, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.rng import as_generator

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W + b`` over a batch.

    Parameters
    ----------
    in_features, out_features:
        Layer shape.
    init:
        ``"he"`` (ReLU networks) or ``"xavier"`` (tanh/sigmoid networks).
    rng:
        Seed or generator for the weight draw.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "he",
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("features must be >= 1")
        gen = as_generator(rng)
        if init == "he":
            w = he_uniform(gen, in_features, out_features)
        elif init == "xavier":
            w = xavier_uniform(gen, in_features, out_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.W = Parameter(w, name="W")
        self.b = Parameter(np.zeros(out_features), name="b")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """``x @ W + b`` over the last axis; any leading axes are batch.

        A stacked ``(M, 1, F)`` input runs one batch-of-one product per
        row (bitwise equal to ``M`` separate ``(1, F)`` calls).  With
        ``cache=False`` (inference) the input is not kept for
        :meth:`backward`, and any earlier cache is dropped.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input dim {self.in_features}, got {x.shape[-1]}"
            )
        self._x = x if cache else None
        return x @ self.W.data + self.b.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.W.data.T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"
