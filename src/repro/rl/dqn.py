"""DQN agent (paper §3.3.1, Algorithm 2 inner loop).

Hyperparameters follow §4 exactly: learning rate 0.001, discount κ=0.9,
replay capacity 2000, target-network replacement every 100 learn steps,
8x100 ReLU Q-network with 3 outputs, Huber loss.

Federation hooks: :meth:`DQNAgent.get_weights` / :meth:`set_weights`
expose the online network's parameters, and
:meth:`DQNAgent.hidden_layer_groups` exposes the per-layer grouping the
α base/personalization split needs (Eqs. 7-8).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.config import DQNConfig
from repro.nn import Adam, HuberLoss
from repro.nn.module import Parameter
from repro.nn.serialization import get_weights, set_weights
from repro.rl.env import DeviceEnv
from repro.rl.policy import EpsilonGreedy
from repro.rl.qnet import make_qnet
from repro.rl.replay import ReplayBuffer
from repro.rng import as_generator, spawn

__all__ = ["DQNAgent"]


class DQNAgent:
    """Deep Q-Network agent over :class:`repro.rl.env.DeviceEnv` states."""

    def __init__(
        self,
        config: DQNConfig | None = None,
        seed: int | np.random.Generator | None = 0,
        state_dim: int | None = None,
    ) -> None:
        self.config = config or DQNConfig()
        gen = as_generator(seed)
        r_net, r_replay, r_policy = spawn(gen, 3)

        # state_dim=None is the classic STATE_DIM network (bit-identical
        # construction); the scenario pack's schedulable agents pass
        # SCHED_STATE_DIM for their widened input layer.
        self.qnet = make_qnet(self.config, rng=r_net, state_dim=state_dim)
        # The target net starts as an exact copy of the online net; a
        # second make_qnet() would burn random init draws from r_net only
        # to overwrite them, shifting the stream for no reason.
        self.target = copy.deepcopy(self.qnet)

        self.replay = ReplayBuffer(
            self.config.memory_capacity,
            self.qnet.in_dim,
            seed=r_replay,
            n_actions=self.config.n_actions,
        )
        self.policy = EpsilonGreedy(
            self.config.n_actions,
            start=self.config.epsilon_start,
            end=self.config.epsilon_end,
            decay_steps=self.config.epsilon_decay_steps,
            seed=r_policy,
        )
        self.optimizer = Adam(
            self.qnet.parameters(), lr=self.config.learning_rate, clip_norm=10.0
        )
        self.loss_fn = HuberLoss(self.config.huber_delta)
        self.learn_steps = 0
        #: Count of SGD updates — a hardware-independent work unit used by
        #: the time-overhead experiments.
        self.sgd_steps = 0
        self._observed = 0

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Pick an action for *state* (ε-greedy unless ``greedy``)."""
        q = self.qnet.forward(np.asarray(state, dtype=np.float64)[None, :], cache=False)[0]
        return self.policy.select(q, greedy=greedy)

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        learn: bool = True,
    ) -> float | None:
        """Store a transition and (optionally) run one learn step.

        A learn step fires on every ``learn_every``-th observation once the
        replay buffer holds a full batch.
        """
        self.replay.push(state, action, reward, next_state, done)
        self._observed += 1
        if (
            learn
            and len(self.replay) >= self.config.batch_size
            and self._observed % self.config.learn_every == 0
        ):
            return self.learn_step()
        return None

    def learn_step(self) -> float:
        """One mini-batch TD update; returns the Huber loss."""
        s, a, r, s2, done = self.replay.sample(self.config.batch_size)
        q_next = self.target.forward(s2)
        if self.config.double_q:
            # Double DQN: the online net picks the action, the target net
            # scores it — removes the max-operator over-estimation bias.
            best = self.qnet.forward(s2).argmax(axis=1)
            next_vals = q_next[np.arange(s2.shape[0]), best]
        else:
            next_vals = q_next.max(axis=1)
        target_vals = (
            r * self.config.reward_scale
            + self.config.discount * next_vals * (~done)
        )

        self.qnet.zero_grad()
        q = self.qnet.forward(s)
        rows = np.arange(s.shape[0])
        chosen = q[rows, a]
        loss, dchosen = self.loss_fn(chosen, target_vals)
        grad = np.zeros_like(q)
        grad[rows, a] = dchosen
        self.qnet.backward(grad)
        self.optimizer.step()

        self.learn_steps += 1
        self.sgd_steps += 1
        if self.learn_steps % self.config.target_replace_iter == 0:
            set_weights(self.target, get_weights(self.qnet))
        return loss

    # ------------------------------------------------------------------
    def run_episode(self, env: DeviceEnv, learn: bool = True, greedy: bool = False) -> float:
        """Play one episode; returns the total reward."""
        state = env.reset()
        total = 0.0
        done = False
        while not done:
            action = self.act(state, greedy=greedy)
            step = env.step(action)
            if learn:
                self.observe(state, action, step.reward, step.state, step.done)
            total += step.reward
            state = step.state
            done = step.done
        return total

    def evaluate_episode(self, env: DeviceEnv) -> tuple[float, np.ndarray]:
        """Greedy rollout without learning: (total reward, controlled kW)."""
        total = self.run_episode(env, learn=False, greedy=True)
        return total, env.controlled_kw.copy()

    # ------------------------------------------------------------------
    # Federation hooks
    def get_weights(self) -> list[np.ndarray]:
        """Copies of the online network's parameter arrays."""
        return get_weights(self.qnet)

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameters into the online network (target unchanged)."""
        set_weights(self.qnet, weights)

    def sync_target(self) -> None:
        """Force the target network to match the online network."""
        set_weights(self.target, get_weights(self.qnet))

    def hidden_layer_groups(self) -> list[list[Parameter]]:
        """Per-layer parameter groups of the online network (for α-split)."""
        return self.qnet.hidden_layer_groups()

    # ------------------------------------------------------------------
    # Persistence
    def state_dict(self) -> dict:
        """Everything mutable: nets, optimizer, replay, policy, counters."""
        return {
            "qnet": get_weights(self.qnet),
            "target": get_weights(self.target),
            "optimizer": self.optimizer.state_dict(),
            "replay": self.replay.state_dict(),
            "policy": self.policy.state_dict(),
            "learn_steps": self.learn_steps,
            "sgd_steps": self.sgd_steps,
            "observed": self._observed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; training resumes bit-identically."""
        set_weights(self.qnet, [np.asarray(w) for w in state["qnet"]])
        set_weights(self.target, [np.asarray(w) for w in state["target"]])
        self.optimizer.load_state_dict(state["optimizer"])
        self.replay.load_state_dict(state["replay"])
        self.policy.load_state_dict(state["policy"])
        self.learn_steps = int(state["learn_steps"])
        self.sgd_steps = int(state["sgd_steps"])
        self._observed = int(state["observed"])
