"""Multi-layer perceptron builder.

Used for (a) the BP-network forecaster and (b) the DQN Q-network, which
the paper defines as 8 hidden layers x 100 ReLU neurons with a 3-unit
linear output.  The class exposes :meth:`hidden_layer_groups` — the
per-hidden-layer parameter grouping the α base/personalization split
operates on (§3.3.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activations import Identity, ReLU, Sigmoid, Tanh
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter, Sequential
from repro.rng import as_generator, spawn

__all__ = ["MLP"]

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid, "identity": Identity}


class MLP(Module):
    """Feed-forward network: ``in -> hidden[0] -> ... -> hidden[-1] -> out``.

    Parameters
    ----------
    in_dim, out_dim:
        Input / output feature counts.
    hidden:
        Width of each hidden layer.
    activation:
        Hidden activation name (``relu`` per the paper).
    rng:
        Seed or generator; each layer gets an independent child stream.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        activation: str = "relu",
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        hidden = list(hidden)
        if any(h < 1 for h in hidden):
            raise ValueError("hidden widths must be >= 1")
        gen = as_generator(rng)
        n_linear = len(hidden) + 1
        child_rngs = spawn(gen, n_linear)
        init = "he" if activation == "relu" else "xavier"
        act_cls = _ACTIVATIONS[activation]

        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden_sizes = tuple(hidden)
        self._linears: list[Linear] = []
        layers: list[Module] = []
        dims = [in_dim, *hidden]
        for i in range(len(hidden)):
            lin = Linear(dims[i], dims[i + 1], init=init, rng=child_rngs[i])
            self._linears.append(lin)
            layers.append(lin)
            layers.append(act_cls())
        out_lin = Linear(dims[-1], out_dim, init=init, rng=child_rngs[-1])
        self._linears.append(out_lin)
        layers.append(out_lin)
        self.net = Sequential(layers)

    # -- Module protocol ------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return self.net.parameters()

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """``cache=False`` for inference: no layer keeps inputs or masks."""
        return self.net.forward(x, cache=cache)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)

    # -- structure ------------------------------------------------------
    @property
    def n_hidden_layers(self) -> int:
        return len(self.hidden_sizes)

    def hidden_layer_groups(self) -> list[list[Parameter]]:
        """Parameter groups, one per *hidden* layer plus the output layer.

        Group ``i`` (for ``i < n_hidden_layers``) holds hidden layer i's
        Linear parameters; the final group holds the output layer.  The
        paper's α-split shares the first α groups ("base layers") and keeps
        the rest ("personalization layers") local.
        """
        return [lin.parameters() for lin in self._linears]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arch = " -> ".join(map(str, (self.in_dim, *self.hidden_sizes, self.out_dim)))
        return f"MLP({arch})"
