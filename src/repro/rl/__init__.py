"""Deep-reinforcement-learning energy-management substrate (paper §3.3).

- :mod:`repro.rl.modes` — the band-based device-mode classifier
  (0 → off, ``[0.9, 1.1]·V_s`` → standby, ``[0.9, 1.1]·V_on`` → on).
- :mod:`repro.rl.reward` — Table 1's reward function, including the +30
  standby→off bonus that drives standby-energy savings.
- :mod:`repro.rl.env` — the per-device MDP: state is built from the
  forecast window ``V`` and the real-time window ``RV``; actions pick the
  device mode; episodes run one forecast horizon (60 minutes).
- :mod:`repro.rl.replay` — experience replay (capacity 2000 per §4).
- :mod:`repro.rl.qnet` — the 8x100-ReLU, 3-output Q-network.
- :mod:`repro.rl.dqn` — the DQN agent (lr 0.001, discount 0.9, target
  replace every 100 steps, Huber loss, ε-greedy).
- :mod:`repro.rl.batch` — the batched training engine (stacked-parameter
  arena, wave-major episode stepping, stacked learn step) and the
  matrix-only greedy evaluation rollouts.
"""

from repro.rl.batch import (
    BatchedEpisodeEngine,
    StackedQNet,
    greedy_rollout,
)
from repro.rl.modes import classify_mode, classify_modes, MODE_NAMES
from repro.rl.reward import REWARD_MATRIX, reward, reward_vector
from repro.rl.env import DeviceEnv, EnvStep
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.qnet import STATE_DIM, build_state, build_states, make_qnet
from repro.rl.dqn import DQNAgent
from repro.rl.policy import EpsilonGreedy

__all__ = [
    "classify_mode",
    "classify_modes",
    "MODE_NAMES",
    "REWARD_MATRIX",
    "reward",
    "reward_vector",
    "DeviceEnv",
    "EnvStep",
    "ReplayBuffer",
    "Transition",
    "STATE_DIM",
    "build_state",
    "build_states",
    "make_qnet",
    "DQNAgent",
    "EpsilonGreedy",
    "BatchedEpisodeEngine",
    "StackedQNet",
    "greedy_rollout",
]
