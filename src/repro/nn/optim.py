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
            adam_update(self, p.data, p.grad * scale, m, v, b1c, b2c)

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
    """Flat moment arena + one fused step over N member :class:`Adam`\\ s.

    Companion to :class:`repro.rl.batch.StackedQNet`, in the same flat
    layout: row ``i`` of the ``(N, P)`` first/second-moment buffers holds
    member ``i``'s slots end to end in parameter order, and each
    member's ``_m`` / ``_v`` slot arrays are rebound (value-preserving)
    to views of its row, so a member's own ``load_state_dict`` (which
    copies in place) keeps the arena current.  One :meth:`step` then
    updates any subset of members with one elementwise pass over
    ``(rows, P)``.

    Bitwise contract: for each selected row, :meth:`step` performs the
    exact operation sequence of the member's serial ``Adam.step`` —
    per-row global-norm clip accumulated per tensor in parameter order,
    bias corrections computed with Python-float ``beta ** t`` (binary
    pow differs from ``np.power`` in the last ulp for some inputs), and
    the shared :func:`adam_update` — so a stacked step is bit-identical
    to N serial steps (every update op is elementwise, so the flat
    layout cannot change a value).
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
        #: ``(lo, hi)`` column span of each parameter slot in a flat row.
        self.spans = flat_spans([m.shape for m in ref._m])
        width = self.spans[-1][1]
        #: (N, P) first/second-moment arenas.
        self._m = np.empty((len(optimizers), width))
        self._v = np.empty((len(optimizers), width))
        for i, opt in enumerate(optimizers):
            opt._m = _adopt_row(self._m[i], self.spans, opt._m)
            opt._v = _adopt_row(self._v[i], self.spans, opt._v)
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
        sub.spans = parent.spans
        sub._m = parent._m[lo:hi]
        sub._v = parent._v[lo:hi]
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
        self, params: np.ndarray, grads: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        """One fused Adam step for the selected member rows.

        ``params`` is the full ``(N, P)`` flat parameter arena (same
        slot layout as the moments); ``grads`` carries the selected rows
        only, shape ``(K, P)`` where ``K = len(rows)`` (or ``N`` for
        ``rows=None``, the all-rows path that updates in place with no
        gather/scatter copies).
        """
        if params.shape != (self.n, self._m.shape[1]) or grads.shape[1:] != (
            self._m.shape[1],
        ):
            raise ValueError(
                f"expected ({self.n}, {self._m.shape[1]}) params and (K, "
                f"{self._m.shape[1]}) grads, got {params.shape}/{grads.shape}"
            )
        full = rows is None
        if full:
            self._t += 1
            ts = self._t
        else:
            self._t[rows] += 1
            ts = self._t[rows]
        if self.clip_norm is not None:
            # Per-row global-norm clip, summed per tensor in parameter
            # order (the accumulation order changes the float sum, so it
            # must mirror the serial loop exactly).
            sq = grads**2
            total = np.zeros(len(ts))
            for lo, hi in self.spans:
                total += sq[:, lo:hi].sum(axis=1)
            norm = np.sqrt(total)
            scale = np.where(
                (norm <= self.clip_norm) | (norm == 0.0), 1.0, self.clip_norm / norm
            )
            grads = grads * scale[:, None]
        # Bias corrections via Python-float pow, one per row.
        b1c = np.array([[1.0 - self.beta1 ** int(t)] for t in ts])
        b2c = np.array([[1.0 - self.beta2 ** int(t)] for t in ts])
        if full:
            adam_update(self, params, grads, self._m, self._v, b1c, b2c)
        else:
            ps, ms, vs = params[rows], self._m[rows], self._v[rows]
            adam_update(self, ps, grads, ms, vs, b1c, b2c)
            params[rows] = ps
            self._m[rows] = ms
            self._v[rows] = vs


def adam_update(opt, p, g, m, v, b1c, b2c) -> None:
    """The Adam moment and parameter update, in place.

    The one copy of the arithmetic: :meth:`Adam.step` calls it per
    tensor with Python-float bias corrections, :meth:`StackedAdam.step`
    once over a flat ``(rows, P)`` arena with per-row ``(K, 1)`` ones.
    Every op is elementwise, so both give the same bits per element.
    """
    # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    # p -= lr*(m/b1c) / (sqrt(v/b2c) + eps) — in place, two temporaries.
    m *= opt.beta1
    tmp = (1.0 - opt.beta1) * g
    m += tmp
    v *= opt.beta2
    np.multiply(1.0 - opt.beta2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, b1c, out=tmp)
    tmp *= opt.lr
    den = v / b2c
    np.sqrt(den, out=den)
    den += opt.eps
    tmp /= den
    p -= tmp


def flat_spans(shapes) -> list[tuple[int, int]]:
    """``(lo, hi)`` column span of each shape laid end to end in a flat row."""
    spans = []
    lo = 0
    for shape in shapes:
        hi = lo + int(np.prod(shape, dtype=np.int64))
        spans.append((lo, hi))
        lo = hi
    return spans


def _adopt_row(row: np.ndarray, spans, arrays) -> list[np.ndarray]:
    """Copy *arrays* into flat *row* and return their views of it."""
    views = []
    for (lo, hi), arr in zip(spans, arrays):
        view = row[lo:hi].reshape(arr.shape)
        view[...] = arr
        views.append(view)
    return views


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
