"""repro — full reproduction of *PFDRL: Personalized Federated Deep
Reinforcement Learning for Residential Energy Management* (ICPP 2023).

Subpackages
-----------
- ``repro.data``        synthetic Pecan-Street-like workload substrate
- ``repro.nn``          from-scratch numpy neural-network stack
- ``repro.forecast``    LR / SVR / BP / LSTM load forecasters
- ``repro.federated``   decentralized federated learning (DFL, Algorithm 1)
- ``repro.rl``          device-MDP environment + DQN agent
- ``repro.core``        PFDRL (Algorithm 2): personalization + orchestration
- ``repro.baselines``   Local / Cloud / FL / FRL comparison pipelines
- ``repro.metrics``     accuracy, energy, monetary and timing metrics
- ``repro.obs``         run telemetry: counters/timers + JSONL run journal
- ``repro.parallel``    the EMS training process pool (``ems_workers``)
- ``repro.experiments`` one module per paper figure/table
"""

from repro.config import (
    DataConfig,
    DQNConfig,
    FaultConfig,
    FederationConfig,
    ForecastConfig,
    PFDRLConfig,
)

__version__ = "1.0.0"

__all__ = [
    "DataConfig",
    "ForecastConfig",
    "DQNConfig",
    "FederationConfig",
    "FaultConfig",
    "PFDRLConfig",
    "__version__",
]
