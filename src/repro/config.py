"""Configuration dataclasses for every hyperparameter in the paper (§4).

All experiment-facing knobs live here as frozen dataclasses so that a
configuration can be hashed, logged, and compared.  Defaults follow the
paper's *Experiment Settings* section:

- DQN: learning rate 0.001, discount 0.9, replay memory capacity 2000,
  target-network replace iteration 100, 8 hidden layers x 100 neurons with
  ReLU, 3 output Q-values.
- Personalization: ``alpha`` base layers shared (paper's best: 6 of 8).
- Broadcast periods: ``beta`` hours for forecaster weights (best 12),
  ``gamma`` hours for DRL base layers (best 12).
- Data: 80/20 train/test split.

Scale knobs (``n_residences``, ``n_days``, ``minutes_per_day``) default to
laptop-size values; the paper's full scale (669 homes, 5 years) is reachable
by overriding them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "DataConfig",
    "ForecastConfig",
    "DQNConfig",
    "HierarchyConfig",
    "FederationConfig",
    "TraceConfig",
    "FaultConfig",
    "ScenarioConfig",
    "PFDRLConfig",
    "ExperimentConfig",
    "config_to_dict",
]

# Number of hidden layers in the DRL network (paper: "an 8 hidden layers
# architecture").  ``alpha`` counts how many of these, starting from the
# input side, are treated as *base* (shared) layers.
N_HIDDEN_LAYERS = 8
HIDDEN_WIDTH = 100
N_ACTIONS = 3


@dataclass(frozen=True)
class DataConfig:
    """Synthetic Pecan-Street-like workload parameters."""

    n_residences: int = 8
    n_days: int = 4
    minutes_per_day: int = 1440
    device_types: tuple[str, ...] = ("tv", "hvac", "light", "fridge", "microwave")
    #: Degree of non-IID heterogeneity across residences in [0, 1].
    #: 0 = every home identical; 1 = strongly shifted schedules / scaled loads.
    heterogeneity: float = 0.35
    #: Multiplicative measurement-noise std on the traces.
    noise_std: float = 0.03
    #: Fraction of the trace used for training (paper: 80%).
    train_fraction: float = 0.8
    #: Calendar day-of-year of the first generated day (drives the
    #: seasonal factor; lets experiments place a workload in any month).
    start_day: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_residences < 1:
            raise ValueError("n_residences must be >= 1")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ValueError("heterogeneity must be in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if len(self.device_types) == 0:
            raise ValueError("need at least one device type")


@dataclass(frozen=True)
class ForecastConfig:
    """Per-device load-forecasting model parameters."""

    #: Which forecaster to use: one of the keys in ``repro.forecast.registry``.
    model: str = "lstm"
    #: Lag window (minutes of history fed to the model).
    window: int = 60
    #: Forecast horizon (paper predicts the next hour at minute granularity).
    horizon: int = 60
    #: Local SGD epochs per federated round.
    local_epochs: int = 2
    learning_rate: float = 0.01
    batch_size: int = 32
    hidden_size: int = 32
    #: Append sin/cos harmonics of the target's minute-of-day.
    time_features: bool = True
    #: Number of harmonic pairs (frequencies 1..K per day).
    time_harmonics: int = 4
    #: Spacing between training windows; None -> horizon // 4 (overlapping
    #: targets give NN models enough samples at laptop scale).
    train_stride: int | None = None
    #: Denominator floor for the horizon-energy accuracy metric, as a
    #: fraction of the window's full-on energy.
    accuracy_floor: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 1 or self.horizon < 1:
            raise ValueError("window and horizon must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.train_stride is not None and self.train_stride < 1:
            raise ValueError("train_stride must be >= 1")
        if self.time_harmonics < 1:
            raise ValueError("time_harmonics must be >= 1")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must be in [0, 1]")

    @property
    def n_extra(self) -> int:
        """Extra (non-lag) feature columns."""
        return 2 * self.time_harmonics if self.time_features else 0

    @property
    def input_dim(self) -> int:
        """Model input width: lag window plus optional time features."""
        return self.window + self.n_extra

    @property
    def stride(self) -> int:
        """Effective training-window stride."""
        return self.train_stride if self.train_stride is not None else max(1, self.horizon // 4)


@dataclass(frozen=True)
class DQNConfig:
    """DQN hyperparameters exactly per §4 Experiment Settings."""

    learning_rate: float = 0.001
    discount: float = 0.9
    memory_capacity: int = 2000
    target_replace_iter: int = 100
    n_hidden_layers: int = N_HIDDEN_LAYERS
    hidden_width: int = HIDDEN_WIDTH
    n_actions: int = N_ACTIONS
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 2000
    batch_size: int = 32
    #: Huber loss transition point (paper adopts Huber loss).
    huber_delta: float = 1.0
    #: Run a learn step every k-th observed transition (1 = paper's
    #: every-step training; >1 trades fidelity for speed at small scale).
    learn_every: int = 1
    #: Multiplier applied to rewards before TD learning (standard value
    #: normalisation: Table 1 rewards of +-30 with discount 0.9 produce
    #: returns up to 300, badly conditioned for a fresh network and for
    #: the Huber delta).  1.0 reproduces the paper verbatim; the scaled
    #: profiles use 1/30.
    reward_scale: float = 1.0
    #: Double-DQN target (van Hasselt 2016): select the argmax action
    #: with the online network, evaluate it with the target network.
    #: False reproduces the paper's vanilla DQN; available as an
    #: extension/ablation.
    double_q: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if self.memory_capacity < 1:
            raise ValueError("memory_capacity must be >= 1")
        if self.n_hidden_layers < 1:
            raise ValueError("n_hidden_layers must be >= 1")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if self.learn_every < 1:
            raise ValueError("learn_every must be >= 1")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be > 0")


@dataclass(frozen=True)
class HierarchyConfig:
    """Two-tier (cluster-of-clusters) federation parameters.

    Residences are partitioned into neighbourhood clusters of
    ``cluster_size`` (contiguous by residence index; the last cluster
    may be smaller).  Each cluster is headed by an aggregator: members
    upload base layers over a reliable star LAN (tier 0), aggregators
    federate cluster means over a sparse ``upper_topology`` (tier 1)
    that rides the ordinary transport stack — so fault injection,
    replayable traces and self-healing compose unchanged on the upper
    tier.  Personalization layers never leave the residence.

    ``participation`` enables seeded partial participation: each γ
    round only that fraction of every cluster's members uploads (a pure
    function of ``seed`` and the round index, so resume is trivially
    deterministic); the aggregator fills in absentees from its cached
    last uploads, discounted by age like the PR-1 staleness path and
    dropped entirely past ``staleness_horizon`` rounds.
    """

    cluster_size: int = 8
    upper_topology: str = "ring"  # full | ring | star
    upper_hub: int = 0
    #: Fraction of each cluster's members that uploads per γ round.
    participation: float = 1.0
    #: Floor on the per-cluster sample size (clamped to the cluster size).
    min_participants: int = 1
    #: Cached (non-participating) uploads older than this many rounds are
    #: excluded from the cluster mean; 0 keeps fresh uploads only.
    staleness_horizon: int = 4
    #: Geometric per-round discount applied to cached uploads.
    staleness_decay: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.upper_topology not in ("full", "ring", "star"):
            raise ValueError("upper_topology must be one of full|ring|star")
        if self.upper_hub < 0:
            raise ValueError("upper_hub must be >= 0")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError("participation must be in (0, 1]")
        if self.min_participants < 1:
            raise ValueError("min_participants must be >= 1")
        if self.staleness_horizon < 0:
            raise ValueError("staleness_horizon must be >= 0")
        if not 0.0 < self.staleness_decay <= 1.0:
            raise ValueError("staleness_decay must be in (0, 1]")


@dataclass(frozen=True)
class FederationConfig:
    """Decentralized federation parameters.

    ``beta`` and ``gamma`` are broadcast periods in *hours* (paper sweeps
    {0.1, 0.5, 1, 2, 6, 12, 24} and picks 12 for both).  ``alpha`` is the
    number of shared base layers out of ``DQNConfig.n_hidden_layers``
    (paper's best: 6).  ``hierarchy`` (opt-in) replaces the flat γ-round
    mesh with the two-tier cluster federation of
    :class:`HierarchyConfig`; ``None`` keeps the paper's flat topology
    bit-identically.
    """

    alpha: int = 6
    beta_hours: float = 12.0
    gamma_hours: float = 12.0
    topology: str = "full"  # full | ring | star
    hierarchy: HierarchyConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= N_HIDDEN_LAYERS:
            raise ValueError(f"alpha must be in [0, {N_HIDDEN_LAYERS}]")
        if self.beta_hours <= 0 or self.gamma_hours <= 0:
            raise ValueError("broadcast periods must be > 0")
        if self.topology not in ("full", "ring", "star"):
            raise ValueError("topology must be one of full|ring|star")


@dataclass(frozen=True)
class TraceConfig:
    """Replayable fault-trace parameters (LinkGuardian-style bursts).

    Production links do not fail i.i.d. per message — they *degrade* for
    stretches of rounds and then get repaired.  A ``TraceConfig``
    describes that burst process; :class:`repro.federated.traces.
    FaultTraceGenerator` expands it (deterministically, from ``seed``)
    against a concrete :class:`~repro.federated.topology.Topology` into a
    :class:`~repro.federated.traces.FaultTrace` of
    ``(round, link, loss_rate)`` episodes that the fault fabric replays:
    while an episode is active, deliveries over that link drop with the
    episode's loss rate (and corrupt with ``corrupt_fraction`` of it)
    instead of the global i.i.d. ``FaultConfig`` rates.

    - ``mttf_rounds`` — mean broadcast rounds between failures per link
      (exponential inter-arrival, per LinkGuardian's generator).
    - ``repair_rounds`` — mean episode duration in rounds (exponential,
      floored at one round).
    - ``loss_rate_min`` / ``loss_rate_max`` — episode loss rates are
      drawn log-uniform in this band (heavy-tailed, per the CorrOpt
      observations LinkGuardian adopts).
    - ``corrupt_fraction`` — fraction of an episode's loss rate that
      manifests as payload corruption rather than silent drop.
    - ``n_rounds`` — trace length; rounds past the end are clean.
    """

    mttf_rounds: float = 50.0
    repair_rounds: float = 5.0
    loss_rate_min: float = 0.05
    loss_rate_max: float = 0.9
    corrupt_fraction: float = 0.0
    n_rounds: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mttf_rounds <= 0 or self.repair_rounds <= 0:
            raise ValueError("mttf_rounds and repair_rounds must be > 0")
        if not 0.0 < self.loss_rate_min <= self.loss_rate_max:
            raise ValueError("need 0 < loss_rate_min <= loss_rate_max")
        if self.loss_rate_max >= 1.0:
            raise ValueError("loss_rate_max must be < 1 (retransmission must be able to succeed)")
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in [0, 1]")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


@dataclass(frozen=True)
class FaultConfig:
    """Communication-fault model for the federated fabric.

    All rates default to zero: the default config is the paper's perfectly
    reliable residential LAN, and every trainer path is bit-identical to
    the fault-free implementation.  Faults apply to the *decentralized*
    sharing paths (DFL broadcast rounds and the γ-round DRL mesh); the
    centralized baselines keep the ideal link.

    Failure taxonomy (see DESIGN.md "Fault model"):

    - **loss** — each delivery is dropped i.i.d. with ``drop_rate``; the
      sender retransmits up to ``max_retries`` times (retries are counted
      in ``TransportStats.n_retransmits`` so overhead numbers stay honest).
    - **corruption** — with ``corrupt_rate`` a delivered payload is
      damaged (NaN injection or truncation); receivers validate and
      quarantine it before averaging.
    - **delay** — with ``delay_rate`` a delivery lands 1..``max_delay_rounds``
      broadcast events late; staleness-aware aggregation discounts old
      payloads by ``staleness_decay`` per round and rejects anything older
      than ``staleness_horizon`` rounds.
    - **churn** — online agents crash with per-round ``crash_rate`` and
      recover with ``recovery_rate``; ``crashed_agents`` are down for the
      whole run.  A crashed agent is *offline from the fabric* (neither
      sends nor receives) but keeps training locally.
    - **stragglers** — a ``straggler_fraction`` of agents (seeded choice)
      sit out each broadcast round with ``straggler_skip_prob``.
    - **quorum** — a receiver only aggregates when it heard valid payloads
      from at least ``quorum_fraction`` of its topology neighbours;
      otherwise it continues locally and the skip is counted.
    - **trace** — instead of i.i.d. per-message faults, replay a
      :class:`TraceConfig`-generated burst trace: per-link drop/corrupt
      rates follow the trace's active episodes (links outside an episode
      are clean), deterministically and checkpoint-resumably.
    - **self-healing** — with ``selfheal`` on, a
      :class:`~repro.federated.selfheal.LinkHealthMonitor` keeps an EWMA
      loss estimate per link from the per-link transport counters and,
      past ``selfheal_threshold`` (with hysteresis: ``selfheal_restore``
      re-entry threshold plus a ``selfheal_min_rounds`` dwell between
      flips), deactivates the link in a
      :class:`~repro.federated.selfheal.TopologyOverlay` that reroutes
      broadcasts around it — detour paths on ring/star, plain avoidance
      on the full mesh.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_rounds: int = 2
    crash_rate: float = 0.0
    recovery_rate: float = 0.5
    crashed_agents: tuple[int, ...] = ()
    straggler_fraction: float = 0.0
    straggler_skip_prob: float = 0.5
    max_retries: int = 2
    staleness_horizon: int = 2
    staleness_decay: float = 0.5
    quorum_fraction: float = 0.0
    #: Recovery mode (requires churn): an agent coming back online
    #: restores its last durable snapshot instead of retaining whatever
    #: happened to be in memory — the realistic crash model, where a
    #: reboot loses RAM.  Restores are counted in
    #: ``TransportStats.n_restores`` and telemetry.
    recover_from_snapshot: bool = False
    #: Replayable burst-fault trace; ``None`` keeps the i.i.d. model.
    trace: TraceConfig | None = None
    #: Self-healing overlay: monitor per-link loss and reroute around
    #: persistently lossy links (see the class docstring).
    selfheal: bool = False
    selfheal_threshold: float = 0.35
    selfheal_restore: float = 0.1
    selfheal_alpha: float = 0.4
    selfheal_min_rounds: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "delay_rate", "crash_rate",
                     "recovery_rate", "straggler_fraction", "straggler_skip_prob",
                     "quorum_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.drop_rate >= 1.0:
            raise ValueError("drop_rate must be < 1 (retransmission must be able to succeed)")
        if self.max_delay_rounds < 1:
            raise ValueError("max_delay_rounds must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.staleness_horizon < 0:
            raise ValueError("staleness_horizon must be >= 0")
        if not 0.0 < self.staleness_decay <= 1.0:
            raise ValueError("staleness_decay must be in (0, 1]")
        if any(a < 0 for a in self.crashed_agents):
            raise ValueError("crashed_agents must be non-negative ids")
        if not 0.0 < self.selfheal_threshold <= 1.0:
            raise ValueError("selfheal_threshold must be in (0, 1]")
        if not 0.0 <= self.selfheal_restore < self.selfheal_threshold:
            raise ValueError("need 0 <= selfheal_restore < selfheal_threshold")
        if not 0.0 < self.selfheal_alpha <= 1.0:
            raise ValueError("selfheal_alpha must be in (0, 1]")
        if self.selfheal_min_rounds < 1:
            raise ValueError("selfheal_min_rounds must be >= 1")

    @property
    def active(self) -> bool:
        """True when any fault mechanism can change behaviour.

        With ``active == False`` the trainers use the plain
        :class:`~repro.federated.transport.MessageBus` — the zero-fault
        path is the original, bit-identical implementation.
        """
        return bool(
            self.drop_rate > 0
            or self.corrupt_rate > 0
            or self.delay_rate > 0
            or self.crash_rate > 0
            or self.crashed_agents
            or self.straggler_fraction > 0
            or self.quorum_fraction > 0
            or self.trace is not None
            or self.selfheal
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid-aware scenario pack: schedulable loads, DERs, DR events.

    Entirely opt-in: ``PFDRLConfig.scenario`` defaults to ``None`` and
    every training, serving and checkpoint path is bit-identical to the
    pre-scenario implementation in that case.  When set, it drives
    :class:`repro.scenario.ScenarioRunner` (deferrable-load scheduling
    agents, solar + battery netting, demand-response event pricing) and
    the per-run scenario summary :class:`repro.core.system.PFDRLSystem`
    attaches to its result.

    - ``pricing`` selects the tariff regime of the run: ``"tou"``
      (:class:`repro.data.pricing.VariableRatePlan`), ``"realtime"``
      (:class:`repro.data.pricing.RealTimeRatePlan`) or ``"dr"``
      (TOU base + seeded incentive events through
      :class:`repro.data.pricing.DemandResponsePlan`).
    - ``schedulable_devices`` name catalog entries with
      ``schedulable=True`` specs; each (residence, device) gets its own
      4-action deadline-scheduling DQN agent.
    - Solar/battery fields parameterise the per-residence DER tier that
      nets against the controlled load before pricing; ``solar_peak_kw=0``
      and ``battery_kwh=0`` disable the respective component.
    - DR fields parameterise the seeded grid-event generator
      (:func:`repro.scenario.dr.generate_dr_events`).
    """

    pricing: str = "tou"  # tou | realtime | dr
    schedulable_devices: tuple[str, ...] = ("dishwasher", "washer", "ev_charger")
    #: EMS training episodes per task window.
    episodes_per_task: int = 2
    #: Penalty added to the reward when the deadline forces a run.
    deadline_penalty: float = 1.0
    # -- DER tier ------------------------------------------------------
    solar_peak_kw: float = 3.0
    battery_kwh: float = 6.0
    battery_max_kw: float = 2.5
    #: Round-trip efficiency (split evenly between charge and discharge).
    battery_efficiency: float = 0.9
    # -- demand-response events ---------------------------------------
    dr_event_rate: float = 0.3
    dr_incentive_per_kwh: float = 0.25
    dr_duration_hours: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pricing not in ("tou", "realtime", "dr"):
            raise ValueError("pricing must be one of tou|realtime|dr")
        if len(self.schedulable_devices) == 0:
            raise ValueError("need at least one schedulable device")
        if self.episodes_per_task < 1:
            raise ValueError("episodes_per_task must be >= 1")
        if self.deadline_penalty < 0:
            raise ValueError("deadline_penalty must be >= 0")
        for name in ("solar_peak_kw", "battery_kwh", "battery_max_kw",
                     "dr_incentive_per_kwh", "dr_duration_hours"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.battery_efficiency <= 1.0:
            raise ValueError("battery_efficiency must be in (0, 1]")
        if not 0.0 <= self.dr_event_rate <= 1.0:
            raise ValueError("dr_event_rate must be in [0, 1]")


@dataclass(frozen=True)
class PFDRLConfig:
    """Top-level configuration bundling all subsystems."""

    data: DataConfig = field(default_factory=DataConfig)
    forecast: ForecastConfig = field(default_factory=ForecastConfig)
    dqn: DQNConfig = field(default_factory=DQNConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: DRL training episodes per device before evaluation.
    episodes: int = 3
    #: Process-parallel residence sharding for EMS training segments
    #: (> 1 enables it; exact in both agent scopes).
    ems_workers: int = 1
    #: Grid-aware scenario pack (schedulable loads, DERs, DR events).
    #: ``None`` keeps every path bit-identical to the classic pipeline.
    scenario: ScenarioConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ems_workers < 1:
            raise ValueError("ems_workers must be >= 1")

    def replace(self, **kwargs: Any) -> "PFDRLConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Metadata wrapper used by the experiment harness."""

    name: str
    pfdrl: PFDRLConfig = field(default_factory=PFDRLConfig)
    repeats: int = 1
    notes: str = ""

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def config_to_dict(cfg: Any) -> dict[str, Any]:
    """Recursively convert a (possibly nested) dataclass config to a dict."""
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        return {
            f.name: config_to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
        }
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]  # type: ignore[return-value]
    if isinstance(cfg, Mapping):
        return {k: config_to_dict(v) for k, v in cfg.items()}
    return cfg
