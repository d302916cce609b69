"""LSTM layer with full backpropagation-through-time.

The paper's best load forecaster is an LSTM; this is a single-layer LSTM
implemented directly on numpy.  The time loop is inherently sequential,
but every step is vectorised over the batch and over all four gates at
once (one ``(B, F) @ (F, 4H)`` matmul per step), per the HPC guides.

Shapes
------
Input  ``x``: ``(B, T, F)`` — batch, time, features.
Output: ``(B, H)`` (last hidden state) or ``(B, T, H)`` when
``return_sequences=True``.

Inference may add leading stack axes: ``(M, B, T, F)`` runs ``M``
independent batches against the same weights, one ``(B, F) @ (F, 4H)``
product per stack entry inside one stacked ``matmul`` per step.  With
``B = 1`` every row's result is bitwise equal to a separate batch-of-one
forward, which one flattened ``(M, F) @ (F, 4H)`` gemm is not (BLAS
blocks a many-row product differently).  Only ``(B, T, F)`` training
forwards can be back-propagated.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.init import orthogonal, xavier_uniform
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.rng import as_generator, spawn

__all__ = ["LSTM", "LSTMRegressor"]

#: Gate-major indices of the sigmoid gates in the ``[i | f | g | o]`` layout.
_IFO = np.array([0, 1, 3])


class LSTM(Module):
    """Single-layer LSTM.

    Gate layout in the fused weight matrices is ``[i | f | g | o]``
    (input, forget, cell-candidate, output).  The forget-gate bias is
    initialised to 1.0, the standard trick for stable early training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("sizes must be >= 1")
        gen = as_generator(rng)
        rx, rh = spawn(gen, 2)
        H = hidden_size
        self.input_size = input_size
        self.hidden_size = H
        self.return_sequences = return_sequences

        self.Wx = Parameter(xavier_uniform(rx, input_size, 4 * H), name="Wx")
        wh = np.concatenate([orthogonal(rh, H, H) for _ in range(4)], axis=1)
        self.Wh = Parameter(wh, name="Wh")
        b = np.zeros(4 * H)
        b[H : 2 * H] = 1.0  # forget-gate bias
        self.b = Parameter(b, name="b")

        self._cache: dict | None = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the sequence; ``cache=False`` (inference) keeps no backward state.

        ``x`` is ``(T, F)``, ``(B, T, F)`` or a stack ``(..., B, T, F)``
        (see the module docstring).  Without the cache a forward holds
        nothing after it returns, and any earlier cache is dropped.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:  # (T, F) convenience -> batch of 1
            x = x[None, :, :]
        if x.ndim < 3 or x.shape[-1] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        lead, T = x.shape[:-2], x.shape[-2]
        H = self.hidden_size
        keep = cache and x.ndim == 3  # backward handles (B, T, F) only

        h = np.zeros((*lead, H))
        c = np.zeros((*lead, H))
        hs = np.zeros((*lead, T, H))
        # z (..., 4H) viewed gate-major as (4, ..., H).
        gate_shape = (*lead, 4, H)
        gate_major = (len(lead), *range(len(lead)), len(lead) + 1)
        cache_steps = []
        for t in range(T):
            z = x[..., t, :] @ self.Wx.data + h @ self.Wh.data + self.b.data
            # One sigmoid call per step: the i, f, o gate columns are
            # gathered into one contiguous (3, ..., H) block, so every
            # later gate op runs on contiguous memory.
            i, f, o = sigmoid(z.reshape(gate_shape).transpose(gate_major)[_IFO])
            g = np.tanh(z[..., 2 * H : 3 * H])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h_prev = h
            h = o * tc
            hs[..., t, :] = h
            if keep:
                cache_steps.append((i, f, g, o, c_prev, tc, h_prev))
        self._cache = (
            {"x": x, "steps": cache_steps, "B": lead[0], "T": T} if keep else None
        )
        return hs if self.return_sequences else h

    # ------------------------------------------------------------------
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache["x"]
        steps = self._cache["steps"]
        B, T = self._cache["B"], self._cache["T"]
        H = self.hidden_size

        grad_out = np.asarray(grad_out, dtype=np.float64)
        if self.return_sequences:
            if grad_out.shape != (B, T, H):
                raise ValueError(f"expected grad (B,T,H)={(B,T,H)}, got {grad_out.shape}")
            dh_seq = grad_out
        else:
            grad_out = np.atleast_2d(grad_out)
            if grad_out.shape != (B, H):
                raise ValueError(f"expected grad (B,H)={(B,H)}, got {grad_out.shape}")
            dh_seq = None

        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H)) if dh_seq is not None else grad_out.copy()
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o, c_prev, tc, h_prev = steps[t]
            dh = dh_next + (dh_seq[:, t, :] if dh_seq is not None else 0.0)
            do = dh * tc
            dc = dh * o * (1.0 - tc**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f

            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.Wx.grad += x[:, t, :].T @ dz
            self.Wh.grad += h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.Wx.data.T
            dh_next = dz @ self.Wh.data.T
        return dx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LSTM({self.input_size}, {self.hidden_size})"


class LSTMRegressor(Module):
    """(Stacked) LSTM encoder + linear head: ``(B, T, F) -> (B, out_dim)``.

    This is the paper's load-forecasting architecture: the sequence of the
    last ``window`` minutes in, the next-hour consumption out.  With
    ``n_layers > 1`` the lower layers emit full sequences feeding the next
    layer; only the top layer's final hidden state reaches the head.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        out_dim: int,
        n_layers: int = 1,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        gen = as_generator(rng)
        rngs = spawn(gen, n_layers + 1)
        self.layers: list[LSTM] = []
        for i in range(n_layers):
            self.layers.append(
                LSTM(
                    input_size if i == 0 else hidden_size,
                    hidden_size,
                    return_sequences=(i < n_layers - 1),
                    rng=rngs[i],
                )
            )
        self.lstm = self.layers[0]  # kept for backwards compatibility
        self.head = Linear(hidden_size, out_dim, init="xavier", rng=rngs[-1])

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out + self.head.parameters()

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """``(..., B, T, F) -> (..., B, out_dim)``; ``cache=False`` for inference."""
        for layer in self.layers:
            x = layer.forward(x, cache=cache)
        return self.head.forward(x, cache=cache)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.head.backward(grad_out)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def clear_cache(self) -> None:
        """Drop every layer's backward state (the last training batch)."""
        for layer in self.layers:
            layer._cache = None
        self.head._x = None
