"""ε-greedy action selection with linear decay."""

from __future__ import annotations

import numpy as np

from repro.rng import as_generator, generator_state, restore_generator

__all__ = ["EpsilonGreedy"]


class EpsilonGreedy:
    """Linear ε decay from ``start`` to ``end`` over ``decay_steps`` calls.

    Exploration uses the provided generator, so runs are reproducible.
    """

    def __init__(
        self,
        n_actions: int,
        start: float = 1.0,
        end: float = 0.05,
        decay_steps: int = 2000,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_actions < 1:
            raise ValueError("n_actions must be >= 1")
        if not 0.0 <= end <= start <= 1.0:
            raise ValueError("need 0 <= end <= start <= 1")
        if decay_steps < 1:
            raise ValueError("decay_steps must be >= 1")
        self.n_actions = int(n_actions)
        self.start = float(start)
        self.end = float(end)
        self.decay_steps = int(decay_steps)
        self._rng = as_generator(seed)
        self._step = 0

    @property
    def epsilon(self) -> float:
        """Current exploration probability."""
        frac = min(1.0, self._step / self.decay_steps)
        return self.start + (self.end - self.start) * frac

    def select(self, q_values: np.ndarray, greedy: bool = False) -> int:
        """Pick an action for one state's Q-value vector."""
        q_values = np.asarray(q_values, dtype=np.float64).ravel()
        if q_values.shape != (self.n_actions,):
            raise ValueError(f"expected {self.n_actions} Q-values, got {q_values.shape}")
        if not greedy:
            action = self.explore()
            if action is not None:
                return action
        return int(np.argmax(q_values))

    def explore(self) -> int | None:
        """One ε draw: the exploratory action, or ``None`` to act greedily.

        Advances the decay step and draws from the policy RNG exactly as
        :meth:`select` does, so a caller that takes the greedy argmax of
        many agents at once stays on each agent's serial RNG stream.
        """
        eps = self.epsilon
        self._step += 1
        if self._rng.random() < eps:
            return int(self._rng.integers(0, self.n_actions))
        return None

    def reset(self) -> None:
        self._step = 0

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {"step": self._step, "rng": generator_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self._step = int(state["step"])
        restore_generator(self._rng, state["rng"])
