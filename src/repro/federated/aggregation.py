"""Aggregation rules: FedAvg (Eq. 2) and the α-layer partial update (Eq. 7-8).

The α-split works on *parameter-group* granularity: a model's parameters
are grouped per layer (see
:func:`repro.nn.serialization.layer_parameter_groups`); the first ``alpha``
groups are "base layers" (shared, averaged across residences), the rest
are "personalization layers" (kept local).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.serialization import average_weights

__all__ = [
    "aggregate_full",
    "aggregate_partial",
    "split_base_personal",
    "base_param_count",
    "staleness_weights",
]

Weights = list[np.ndarray]


def aggregate_full(
    local: Sequence[np.ndarray],
    received: Sequence[Sequence[np.ndarray]],
    client_weights: Sequence[float] | None = None,
) -> Weights:
    """FedAvg including the local model: mean over {local} ∪ received."""
    return average_weights([list(local), *map(list, received)], client_weights)


def staleness_weights(
    ages: Sequence[int], horizon: int, decay: float = 0.5
) -> np.ndarray:
    """Staleness-aware client weights: ``decay**age``, zero past *horizon*.

    ``ages[k]`` is how many broadcast rounds old peer *k*'s payload is
    (0 = sent this round).  A fresh payload keeps full weight, delayed
    payloads are geometrically discounted, and anything older than
    *horizon* rounds is rejected outright (weight 0) — stale gradients
    must not drag the average backwards.  With all ages zero this is the
    uniform FedAvg mean, bit-identical to unweighted ``average_weights``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    ages_arr = np.asarray(ages, dtype=np.int64)
    if np.any(ages_arr < 0):
        raise ValueError("ages must be >= 0")
    return np.where(ages_arr <= horizon, np.power(decay, ages_arr), 0.0)


def split_base_personal(
    group_sizes: Sequence[int], alpha: int
) -> tuple[list[int], list[int]]:
    """Parameter indices for base vs personalization groups.

    ``group_sizes[i]`` is the number of parameter *arrays* in layer group
    ``i``; the first ``alpha`` groups are base.  Returns flat array-index
    lists ``(base_idx, personal_idx)`` into the model's parameter order.
    """
    n_groups = len(group_sizes)
    if not 0 <= alpha <= n_groups:
        raise ValueError(f"alpha must be in [0, {n_groups}], got {alpha}")
    base: list[int] = []
    personal: list[int] = []
    offset = 0
    for gi, size in enumerate(group_sizes):
        target = base if gi < alpha else personal
        target.extend(range(offset, offset + size))
        offset += size
    return base, personal


def base_param_count(weights: Sequence[np.ndarray], base_idx: Sequence[int]) -> int:
    """Scalar parameter count of the base (broadcast) portion."""
    return sum(int(np.asarray(weights[i]).size) for i in base_idx)


def aggregate_partial(
    local: Sequence[np.ndarray],
    received_base: Sequence[Sequence[np.ndarray]],
    base_idx: Sequence[int],
    client_weights: Sequence[float] | None = None,
) -> Weights:
    """Eq. 7 + Eq. 8: average the base arrays, keep personal arrays local.

    ``received_base[k]`` holds *only* the base arrays of peer ``k``, in
    ``base_idx`` order (that is all that crossed the wire).
    """
    local = [np.asarray(w, dtype=np.float64) for w in local]
    for rb in received_base:
        if len(rb) != len(base_idx):
            raise ValueError(
                f"peer sent {len(rb)} base arrays, expected {len(base_idx)}"
            )
    local_base = [local[i] for i in base_idx]
    merged_base = average_weights(
        [local_base, *[list(rb) for rb in received_base]], client_weights
    )
    out = [w.copy() for w in local]
    for j, i in enumerate(base_idx):
        out[i] = merged_base[j]
    return out
