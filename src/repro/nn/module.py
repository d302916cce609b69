"""Module / Parameter base classes: the minimal layer protocol.

Design: explicit cached-forward / backward, no autograd tape.  Each layer

- stores its learnable arrays as :class:`Parameter` (``data`` + ``grad``);
- caches whatever it needs during :meth:`Module.forward`;
- implements :meth:`Module.backward`, which consumes the upstream gradient
  and (a) accumulates into each parameter's ``grad`` and (b) returns the
  gradient w.r.t. its input.

This is deliberately the same shape as a torch ``nn.Module`` reduced to
what the paper needs, so the federated-learning code can treat "a model"
as an ordered list of parameter arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A learnable array plus its gradient accumulator."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models."""

    #: Set to False while evaluating (affects e.g. future dropout layers).
    training: bool = True

    # -- parameters --------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Ordered list of learnable parameters (deterministic order)."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- computation --------------------------------------------------
    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Compute the output; ``cache=False`` (inference) keeps no state
        for :meth:`backward`."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through the most recent :meth:`forward` call."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- mode ----------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        return self

    def eval(self) -> "Module":
        self.training = False
        return self


class Sequential(Module):
    """Chain of sub-modules applied in order.

    Also exposes :meth:`layers` so higher-level code (the α-split) can
    address per-layer parameter groups.
    """

    def __init__(self, layers: Sequence[Module] | None = None) -> None:
        self._layers: list[Module] = list(layers or [])

    def append(self, layer: Module) -> "Sequential":
        self._layers.append(layer)
        return self

    @property
    def layers(self) -> list[Module]:
        return self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, i: int) -> Module:
        return self._layers[i]

    def __iter__(self) -> Iterable[Module]:
        return iter(self._layers)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self._layers:
            out.extend(layer.parameters())
        return out

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Apply the layers in order; ``cache=False`` (inference) keeps
        no backward state in any layer."""
        for layer in self._layers:
            x = layer.forward(x, cache=cache)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self._layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def train(self) -> "Sequential":
        for layer in self._layers:
            layer.train()
        return super().train()  # type: ignore[return-value]

    def eval(self) -> "Sequential":
        for layer in self._layers:
            layer.eval()
        return super().eval()  # type: ignore[return-value]
