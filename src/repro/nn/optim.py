"""Optimisers operating on :class:`repro.nn.module.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "StackedAdam"]


class Optimizer:
    """Base: holds the parameter list and a learning rate."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be > 0")
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable optimizer state (slot arrays, step counters).

        Hyperparameters (lr, momentum, betas) are construction-time
        configuration and are *not* included: a restored optimizer is
        expected to be built from the same config first.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` in place."""
        if state:
            raise ValueError(f"unexpected optimizer state keys: {sorted(state)}")

    def _check_keys(self, state: dict, expected: set[str]) -> None:
        if set(state) != expected:
            raise ValueError(
                f"optimizer state keys {sorted(state)} != expected {sorted(expected)}"
            )

    def _load_slots(self, slots: list[np.ndarray], arrays) -> None:
        """Copy *arrays* into the per-parameter slot list *slots*."""
        if len(arrays) != len(slots):
            raise ValueError(
                f"optimizer state has {len(arrays)} slot arrays, "
                f"expected {len(slots)}"
            )
        for slot, arr in zip(slots, arrays):
            arr = np.asarray(arr, dtype=slot.dtype)
            if arr.shape != slot.shape:
                raise ValueError(
                    f"slot shape mismatch: {arr.shape} vs {slot.shape}"
                )
            slot[...] = arr


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and grad clipping.

    The paper's DFL update (Eq. 2) is plain (D)SGD; momentum defaults to 0.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        scale = _clip_scale(self.params, self.clip_norm)
        for p, v in zip(self.params, self._velocity):
            g = p.grad * scale
            if self.momentum > 0.0:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._check_keys(state, {"velocity"})
        self._load_slots(self._velocity, state["velocity"])


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        scale = _clip_scale(self.params, self.clip_norm)
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad * scale
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self) -> dict:
        return {
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
            "t": self._t,
        }

    def load_state_dict(self, state: dict) -> None:
        self._check_keys(state, {"m", "v", "t"})
        self._load_slots(self._m, state["m"])
        self._load_slots(self._v, state["v"])
        self._t = int(state["t"])


class StackedAdam:
    """Moment arena + row-batched step over N member :class:`Adam`\\ s.

    Companion to :class:`repro.rl.batch.StackedQNet`: the members'
    ``_m`` / ``_v`` slot arrays are rebound (value-preserving) to views
    of stacked ``(N, *shape)`` tensors, so a member's own
    ``load_state_dict`` (which copies in place) keeps the stack current,
    and one vectorised :meth:`step` updates any subset of members at
    once.

    Bitwise contract: for each selected row, :meth:`step` performs the
    exact operation sequence of the member's serial ``Adam.step`` —
    per-row global-norm clip accumulated in parameter order, bias
    corrections computed with Python-float ``beta ** t`` (binary
    pow differs from ``np.power`` in the last ulp for some inputs),
    and the same elementwise update expression — so a stacked step is
    bit-identical to N serial steps.
    """

    def __init__(self, optimizers: list[Adam]) -> None:
        if not optimizers:
            raise ValueError("need at least one optimizer to stack")
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                not isinstance(opt, Adam)
                or opt.lr != ref.lr
                or opt.beta1 != ref.beta1
                or opt.beta2 != ref.beta2
                or opt.eps != ref.eps
                or opt.clip_norm != ref.clip_norm
                or len(opt._m) != len(ref._m)
                or any(a.shape != b.shape for a, b in zip(opt._m, ref._m))
            ):
                raise ValueError("all stacked optimizers must share one config")
        self.optimizers = list(optimizers)
        self.lr = ref.lr
        self.beta1, self.beta2, self.eps = ref.beta1, ref.beta2, ref.eps
        self.clip_norm = ref.clip_norm
        #: (N, *param_shape) first/second-moment stacks, one per parameter.
        self._m: list[np.ndarray] = []
        self._v: list[np.ndarray] = []
        for k in range(len(ref._m)):
            self._m.append(np.stack([opt._m[k] for opt in optimizers]))
            self._v.append(np.stack([opt._v[k] for opt in optimizers]))
            for i, opt in enumerate(optimizers):
                opt._m[k] = self._m[k][i]
                opt._v[k] = self._v[k][i]
        self._t = np.array([opt._t for opt in optimizers], dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.optimizers)

    @classmethod
    def view(cls, parent: "StackedAdam", lo: int, hi: int) -> "StackedAdam":
        """Zero-copy row-slice view over members ``lo:hi`` of *parent*.

        The slice shares the parent's moment arrays (the members stay
        bound either way), so a forked shard worker's updates land in
        its copy-on-write pages without any re-stacking.
        """
        if not 0 <= lo < hi <= parent.n:
            raise ValueError(f"invalid view range [{lo}, {hi}) of {parent.n}")
        sub = cls.__new__(cls)
        sub.optimizers = parent.optimizers[lo:hi]
        sub.lr = parent.lr
        sub.beta1, sub.beta2, sub.eps = parent.beta1, parent.beta2, parent.eps
        sub.clip_norm = parent.clip_norm
        sub._m = [m[lo:hi] for m in parent._m]
        sub._v = [v[lo:hi] for v in parent._v]
        sub._t = parent._t[lo:hi]
        return sub

    def sync_in(self) -> None:
        """Pull members' step counters (they may have been restored)."""
        for i, opt in enumerate(self.optimizers):
            self._t[i] = opt._t

    def sync_out(self) -> None:
        """Write the stacked step counters back to the members."""
        for i, opt in enumerate(self.optimizers):
            opt._t = int(self._t[i])

    def step(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        rows: np.ndarray | None = None,
    ) -> None:
        """One Adam step for the selected member rows.

        ``params[k]`` is the full ``(N, *shape)`` stacked parameter for
        slot ``k`` (same order as the members' parameter lists);
        ``grads[k]`` carries the selected rows only, shape
        ``(K, *shape)`` where ``K = len(rows)`` (or ``N`` for
        ``rows=None``, the all-rows fast path that avoids gather/scatter
        copies).
        """
        if len(params) != len(self._m) or len(grads) != len(self._m):
            raise ValueError(
                f"expected {len(self._m)} param/grad arrays, got "
                f"{len(params)}/{len(grads)}"
            )
        full = rows is None
        if full:
            self._t += 1
            ts = self._t
        else:
            self._t[rows] += 1
            ts = self._t[rows]
        k = len(ts)
        # Per-row global-norm clip, accumulated in parameter order (the
        # accumulation order changes the float sum, so it must mirror
        # the serial loop exactly).
        if self.clip_norm is None:
            scale = None
        else:
            total = np.zeros(k)
            for g in grads:
                total += (g.reshape(k, -1) ** 2).sum(axis=1)
            norm = np.sqrt(total)
            scale = np.where(
                (norm <= self.clip_norm) | (norm == 0.0),
                1.0,
                self.clip_norm / norm,
            )
        # Bias corrections via Python-float pow, one per distinct row t.
        b1c = np.array([1.0 - self.beta1 ** int(t) for t in ts])
        b2c = np.array([1.0 - self.beta2 ** int(t) for t in ts])
        for p, g, m, v in zip(params, grads, self._m, self._v):
            shape = (k,) + (1,) * (g.ndim - 1)
            if scale is not None:
                g = g * scale.reshape(shape)
            if full:
                ps, ms, vs = p, m, v
            else:
                ps, ms, vs = p[rows], m[rows], v[rows]
            ms *= self.beta1
            ms += (1.0 - self.beta1) * g
            vs *= self.beta2
            vs += (1.0 - self.beta2) * g * g
            ps -= (
                self.lr
                * (ms / b1c.reshape(shape))
                / (np.sqrt(vs / b2c.reshape(shape)) + self.eps)
            )
            if not full:
                p[rows] = ps
                m[rows] = ms
                v[rows] = vs


def _clip_scale(params: list[Parameter], clip_norm: float | None) -> float:
    """Global-norm gradient clipping factor (1.0 when disabled)."""
    if clip_norm is None:
        return 1.0
    total = 0.0
    for p in params:
        total += float((p.grad**2).sum())
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return 1.0
    return clip_norm / norm
