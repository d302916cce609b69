"""PFDRL trainer — Algorithm 2.

One DQN agent per residence manages all of that residence's devices.
Simulated time advances in hour-long episodes (one forecast horizon):
for each hour, each residence runs one episode per device against
:class:`repro.rl.env.DeviceEnv`, stepped by the stacked engine of
:mod:`repro.rl.batch`.  Every γ hours the residences share their DQNs:

- ``sharing="personalized"`` (PFDRL): broadcast only the α base layers
  over the full mesh; each residence averages what it received with its
  own base layers and keeps its personalization layers (Eqs. 7-8).
- ``sharing="full"`` (FRL baseline): all layers through a central
  server (classic federated RL).
- ``sharing="none"`` (Local/Cloud/FL baselines' EMS): no communication.

Evaluation replays held-out streams greedily and scores the saved
standby energy, the paper's headline metric.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.config import DQNConfig, FaultConfig, FederationConfig
from repro.core.personalization import PersonalizationManager
from repro.core.streams import ResidenceStream
from repro.federated.faults import FaultyBus, ReceiveFilter, make_bus
from repro.federated.hierarchy import HierarchicalFederation
from repro.federated.scheduler import BroadcastScheduler
from repro.federated.server import CentralServer
from repro.federated.topology import make_topology
from repro.metrics.energy import saved_energy_kwh, standby_energy_kwh
from repro.obs.telemetry import Telemetry, ensure_telemetry
from repro.parallel import (
    SharedArena,
    WorkerError,
    WorkerPool,
    fork_available,
    partition_chunks,
)
from repro.rl.batch import BatchedEpisodeEngine, greedy_rollout
from repro.rl.dqn import DQNAgent
from repro.rl.env import DeviceEnv
from repro.rl.reward import reward_vector
from repro.rng import hash_seed

__all__ = ["PFDRLTrainer", "PFDRLDayResult", "EMSEvaluation"]

SHARING_MODES = ("personalized", "full", "none")


@dataclass
class PFDRLDayResult:
    """Outcome of one simulated training day.

    ``params_broadcast`` and ``sgd_steps`` are both *per-day deltas*
    (the work done during this day only); the running total is
    :attr:`PFDRLTrainer.params_broadcast_total`.
    """

    day: int
    mean_reward: float
    reward_fraction: float  # achieved / optimal episode reward
    n_broadcast_events: int
    params_broadcast: int
    sgd_steps: int
    #: Cumulative γ-round aggregations skipped for lack of quorum
    #: (0 on a reliable fabric).
    n_quorum_skipped: int = 0


@dataclass
class EMSEvaluation:
    """Greedy-policy evaluation over held-out streams."""

    #: kWh saved per residence (standby minutes only — the paper's target).
    saved_standby_kwh: np.ndarray
    #: Total standby kWh available to save, per residence.
    total_standby_kwh: np.ndarray
    #: kWh delta over all minutes (standby savings minus any mis-control).
    saved_total_kwh: np.ndarray
    #: Count of minutes where an *on* device was forced off/standby.
    comfort_violations: np.ndarray
    #: Achieved / optimal reward, per residence.
    reward_fraction: np.ndarray
    #: Per-minute saved power (kW), shape (n_residences, n_minutes).
    saved_kw: np.ndarray

    @property
    def saved_standby_fraction(self) -> float:
        """Neighbourhood-level fraction of standby energy recovered."""
        total = self.total_standby_kwh.sum()
        if total <= 0:
            return float("nan")
        return float(self.saved_standby_kwh.sum() / total)

    def per_residence_fraction(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.total_standby_kwh > 0,
                self.saved_standby_kwh / self.total_standby_kwh,
                np.nan,
            )


class PFDRLTrainer:
    """Drives Algorithm 2 over per-residence streams.

    ``agent_scope`` selects the paper's (ambiguous) agent granularity:
    ``"residence"`` (default) gives every home ONE DQN handling all of
    its devices (the device type travels in the state); ``"device"``
    gives every (home, device type) pair its own DQN, with federation
    grouping agents of the same device type across homes — mirroring the
    DFL stage's per-device aggregation.
    """

    def __init__(
        self,
        streams: list[ResidenceStream],
        dqn_config: DQNConfig | None = None,
        federation_config: FederationConfig | None = None,
        sharing: str = "personalized",
        agent_scope: str = "residence",
        seed: int = 0,
        fault_config: FaultConfig | None = None,
        telemetry: Telemetry | None = None,
        n_workers: int = 1,
    ) -> None:
        if sharing not in SHARING_MODES:
            raise ValueError(f"sharing must be one of {SHARING_MODES}")
        if agent_scope not in ("residence", "device"):
            raise ValueError("agent_scope must be 'residence' or 'device'")
        if not streams:
            raise ValueError("need at least one residence stream")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.streams = streams
        self.dqn_config = dqn_config or DQNConfig()
        self.federation_config = federation_config or FederationConfig()
        self.sharing = sharing
        self.agent_scope = agent_scope
        self.seed = seed
        self.minutes_per_day = streams[0].minutes_per_day
        #: Episode length: one simulated hour.
        self.horizon = max(1, self.minutes_per_day // 24)
        #: Process-parallel residence sharding for training segments
        #: (> 1 enables it; residences are independent between share
        #: rounds, so sharding is exact in both agent scopes).  The
        #: workers are a persistent forked pool sharing the weight arena
        #: with this process — see :meth:`_ensure_pool`.
        self.n_workers = int(n_workers)
        self._engine: BatchedEpisodeEngine | None = None
        self._arena: SharedArena | None = None
        self._pool: WorkerPool | None = None
        self._worker_of_rid: dict[int, int] = {}
        #: True while worker-private agent state (replay rings, Adam
        #: moments, RNG streams, counters) is newer than this process's
        #: mirror agents.  Weights are never stale — they live in the
        #: shared arena — so share rounds and evaluation read them
        #: directly; :meth:`_pull_worker_states` refreshes the rest
        #: before anything serialises agent state.
        self._mirror_stale = False

        alpha = self.federation_config.alpha
        if sharing == "full":
            alpha = self.dqn_config.n_hidden_layers  # all hidden layers shared

        #: (residence_id, slot) -> agent; slot is "*" in residence scope.
        self._agents: dict[tuple[int, str], DQNAgent] = {}
        self._managers: dict[tuple[int, str], PersonalizationManager] = {}
        if agent_scope == "residence":
            slots_per_stream = {s.residence_id: ("*",) for s in streams}
        else:
            slots_per_stream = {
                s.residence_id: tuple(s.devices) for s in streams
            }
        for stream in streams:
            for slot in slots_per_stream[stream.residence_id]:
                key = (stream.residence_id, slot)
                # Residence scope keeps the original seed addressing
                # (seed, "dqn", rid) so results are stable across the
                # introduction of agent scopes.
                agent_seed = (
                    hash_seed(seed, "dqn", stream.residence_id)
                    if slot == "*"
                    else hash_seed(seed, "dqn", stream.residence_id, slot)
                )
                agent = DQNAgent(self.dqn_config, seed=agent_seed)
                self._agents[key] = agent
                self._managers[key] = PersonalizationManager(agent, alpha)

        # Federation groups: agents that average with each other — one
        # group of all homes in residence scope, one group per device
        # type in device scope.
        slots = sorted({slot for _, slot in self._agents})
        self._share_groups: list[list[tuple[int, str]]] = [
            sorted(key for key in self._agents if key[1] == slot) for slot in slots
        ]

        #: Per-residence agent list (residence scope only), kept for the
        #: public API; device scope exposes :meth:`agent_for` instead.
        self.agents = (
            [self._agents[(s.residence_id, "*")] for s in streams]
            if agent_scope == "residence"
            else list(self._agents.values())
        )
        self.managers = (
            [self._managers[(s.residence_id, "*")] for s in streams]
            if agent_scope == "residence"
            else list(self._managers.values())
        )

        n = len(streams)
        self.topology = make_topology(
            "star" if sharing == "full" else self.federation_config.topology, n
        )
        # Faults model the decentralized mesh (the γ-round broadcast
        # path); the centralized FRL baseline keeps the ideal uplink.
        self.fault_config = (
            fault_config
            if (fault_config is not None and fault_config.active and sharing == "personalized")
            else None
        )
        #: Two-tier federation (opt-in via ``FederationConfig.hierarchy``,
        #: personalized sharing only): γ rounds route through per-cluster
        #: aggregators and a sparse upper tier instead of the flat mesh.
        #: Faults move to the upper tier with it — aggregator links are
        #: the WAN hops; the cluster LANs stay reliable — and the flat
        #: bus below carries zero traffic (kept for state compatibility).
        #: Churn-snapshot recovery is a flat-mesh residence-level mode
        #: and does not apply to aggregator-tier faults.
        self.hierarchy: HierarchicalFederation | None = None
        hier_cfg = self.federation_config.hierarchy
        if hier_cfg is not None and sharing == "personalized":
            self.hierarchy = HierarchicalFederation(
                n, hier_cfg, faults=self.fault_config
            )
            self.fault_config = None
        self.bus = make_bus(self.topology, self.fault_config)
        self.server = CentralServer() if sharing == "full" else None
        self.scheduler = BroadcastScheduler(
            self.federation_config.gamma_hours, self.minutes_per_day
        )
        self._minutes_trained = 0
        self._params_broadcast = 0
        self.telemetry = ensure_telemetry(telemetry)
        #: Recovery mode: per-residence snapshot of every agent slot,
        #: replayed when churn brings the residence back online (a reboot
        #: loses RAM).  ``None`` when the mode is off.
        self._agent_snapshots: dict[int, dict[str, dict]] | None = None
        if self.fault_config is not None and self.fault_config.recover_from_snapshot:
            self._agent_snapshots = self._snapshot_all()

    def _snapshot_all(self) -> dict[int, dict[str, dict]]:
        out: dict[int, dict[str, dict]] = {}
        for (rid, slot), agent in self._agents.items():
            out.setdefault(rid, {})[slot] = agent.state_dict()
        return out

    # ------------------------------------------------------------------
    def agent_for(self, residence_id: int, device: str) -> DQNAgent:
        """The agent responsible for one (residence, device) pair."""
        return self._agents[(residence_id, self._slot(device))]

    def _slot(self, device: str) -> str:
        return "*" if self.agent_scope == "residence" else device

    @property
    def n_residences(self) -> int:
        return len(self.streams)

    @property
    def minutes_trained(self) -> int:
        return self._minutes_trained

    @property
    def params_broadcast_total(self) -> int:
        """Cumulative parameters broadcast since construction (every
        γ round across all days, plus the :meth:`finalize` round)."""
        return self._params_broadcast

    @property
    def n_quorum_skips(self) -> int:
        """Cumulative γ-round aggregations skipped for lack of quorum —
        read from wherever the fault-capable fabric lives (the upper
        tier under hierarchy, the flat mesh otherwise)."""
        if self.hierarchy is not None:
            return self.hierarchy.n_quorum_skips
        return self.bus.stats.n_quorum_skips

    def run_day(self) -> PFDRLDayResult:
        """One simulated day: hour episodes per device, γ-periodic sharing."""
        mpd = self.minutes_per_day
        day = self._minutes_trained // mpd
        start = self._minutes_trained
        stop = min(start + mpd, self.streams[0].n_minutes)
        if stop <= start:
            raise RuntimeError("streams exhausted: no more days to train on")

        tel = self.telemetry
        day_t0 = tel.now()
        rewards: list[float] = []
        optima: list[float] = []
        n_events = 0
        sgd_before = sum(a.sgd_steps for a in self.agents)
        params_before = self._params_broadcast
        quorum_before = self.n_quorum_skips
        sgd_by_agent = (
            {key: agent.sgd_steps for key, agent in self._agents.items()}
            if tel
            else {}
        )
        # Same boundary convention as the DFL trainer: segment the day at
        # the scheduled events and fire one share round per event (a
        # midnight event — e == start — owns an empty leading segment).
        events = self.scheduler.events_in(start, stop).tolist()
        boundaries = [start, *events, stop]
        for seg_lo, seg_hi in zip(boundaries[:-1], boundaries[1:]):
            if seg_hi > seg_lo:
                with tel.timer("pfdrl.train"):
                    self._train_segment(seg_lo, seg_hi, rewards, optima)
            if seg_hi in events:
                round_t0 = tel.now()
                round_params = self._params_broadcast
                round_quorum = self.n_quorum_skips
                with tel.timer("pfdrl.share"):
                    self._share_round()
                tel.event(
                    "pfdrl.round",
                    day=day,
                    round=n_events,
                    params_tx=self._params_broadcast - round_params,
                    quorum_skips=self.n_quorum_skips - round_quorum,
                    seconds=tel.now() - round_t0,
                )
                n_events += 1

        self._minutes_trained = stop
        total_r = float(np.sum(rewards)) if rewards else 0.0
        total_opt = float(np.sum(optima)) if optima else 0.0
        result = PFDRLDayResult(
            day=day,
            mean_reward=float(np.mean(rewards)) if rewards else float("nan"),
            reward_fraction=total_r / total_opt if total_opt > 0 else float("nan"),
            n_broadcast_events=n_events,
            params_broadcast=self._params_broadcast - params_before,
            sgd_steps=sum(a.sgd_steps for a in self.agents) - sgd_before,
            n_quorum_skipped=self.n_quorum_skips,
        )
        if tel:
            for key in sorted(self._agents):
                rid, slot = key
                tel.event(
                    "pfdrl.agent",
                    day=day,
                    residence=rid,
                    slot=slot,
                    sgd_steps=self._agents[key].sgd_steps - sgd_by_agent[key],
                )
            tel.event(
                "pfdrl.day",
                day=day,
                residences=len(self.streams),
                rounds=n_events,
                seconds=tel.now() - day_t0,
                sgd_steps=result.sgd_steps,
                params_tx=result.params_broadcast,
                quorum_skips=self.n_quorum_skips - quorum_before,
                mean_reward=result.mean_reward,
                reward_fraction=result.reward_fraction,
            )
            tel.add_work(
                "pfdrl.train", sgd_steps=result.sgd_steps
            )
            tel.add_work("pfdrl.share", params_tx=result.params_broadcast)
            tel.record_transport(self.bus.stats, prefix="pfdrl.transport")
            tel.record_links(self.bus.stats, prefix="pfdrl.transport")
            monitor = getattr(self.bus, "monitor", None)
            if monitor is not None:
                tel.record_selfheal(monitor, prefix="pfdrl.selfheal")
            if self.hierarchy is not None:
                self.hierarchy.record_telemetry(tel, prefix="pfdrl.hier")
        return result

    # ------------------------------------------------------------------
    # Training-segment execution (one share interval)
    def _train_segment(
        self, seg_lo: int, seg_hi: int, rewards: list[float], optima: list[float]
    ) -> None:
        """Hour-long episodes per (residence, device) over [seg_lo, seg_hi).

        Runs on the persistent-pool residence shards when
        ``n_workers > 1`` (and forking is available), and on the
        in-process batched engine otherwise.
        """
        if self.n_workers > 1 and len(self.streams) > 1 and fork_available():
            self._train_segment_parallel(seg_lo, seg_hi, rewards, optima)
        else:
            self._run_segment(
                self._ensure_engine(), self.streams, seg_lo, seg_hi, rewards, optima
            )

    def _episode_env(self, dev_stream, lo: int, hi: int) -> DeviceEnv:
        chunk = dev_stream.slice(lo, hi)
        return DeviceEnv(
            chunk.predicted_kw,
            chunk.real_kw,
            chunk.on_kw,
            chunk.standby_kw,
            ground_truth_mode=chunk.mode,
            device=chunk.device,
        )

    def _run_segment(
        self,
        engine: BatchedEpisodeEngine,
        streams: list[ResidenceStream],
        seg_lo: int,
        seg_hi: int,
        rewards: list[float],
        optima: list[float],
    ) -> None:
        """One engine chunk per hour of [seg_lo, seg_hi) over *streams*.

        Pairs are listed residence-major, devices in stream order — the
        order of the per-episode reward list.
        """
        for lo in range(seg_lo, seg_hi, self.horizon):
            hi = min(lo + self.horizon, seg_hi)
            if hi - lo < 2:
                continue
            pairs = [
                (
                    (stream.residence_id, self._slot(dev_stream.device)),
                    self._episode_env(dev_stream, lo, hi),
                )
                for stream in streams
                for dev_stream in stream.devices.values()
            ]
            chunk_rewards, chunk_optima = engine.run_chunk(pairs)
            rewards.extend(chunk_rewards)
            optima.extend(chunk_optima)

    def _ensure_engine(self, shared: bool = False) -> BatchedEpisodeEngine:
        """Lazily build the batched engine (once per trainer).

        With ``shared=True`` the weight/target stacks are carved out of
        a :class:`SharedArena` so forked pool workers train on the same
        physical pages as this process.  The dispatch in
        :meth:`_train_segment` is fixed per trainer (streams and
        ``n_workers`` never change), so the engine is only ever built
        one way.
        """
        if self._engine is None:
            allocator = None
            if shared:
                shapes: list[tuple[int, ...]] = []
                for group in self._share_groups:
                    qnet = self._agents[group[0]].qnet
                    n = len(group)
                    for lin in qnet._linears:
                        for _ in range(2):  # online + target stacks
                            shapes.append((n,) + lin.W.data.shape)
                            shapes.append((n,) + lin.b.data.shape)
                self._arena = SharedArena(SharedArena.required_bytes(shapes))
                allocator = self._arena.alloc
            self._engine = BatchedEpisodeEngine(
                self._share_groups, self._agents, allocator=allocator
            )
        return self._engine

    def _ensure_pool(self) -> WorkerPool:
        """Fork the persistent worker pool on first use.

        Residences are sharded into contiguous rid-sorted chunks (one
        shard per worker), so each worker's rows in every share group
        form a contiguous range and its engine view is a zero-copy
        slice of the shared weight arena.  Workers are forked *after*
        the arena-backed engine exists, so they inherit the trainer
        object graph by memory — nothing is pickled at spawn, and per
        segment only ``(seg_lo, seg_hi)`` goes out and
        (rewards, optima, counters) come back.  Weight updates travel
        through the arena in both directions: workers' learn steps write
        member rows in place, the parent's γ-round aggregation writes
        merged layers (and target syncs) in place.
        """
        if self._pool is not None:
            return self._pool
        self._ensure_engine(shared=True)
        order = sorted(
            range(len(self.streams)), key=lambda i: self.streams[i].residence_id
        )
        shards = partition_chunks(order, min(self.n_workers, len(self.streams)))
        factories = [
            (lambda idxs=tuple(shard): _ShardWorker(self, idxs)) for shard in shards
        ]
        self._pool = WorkerPool(factories)
        self._worker_of_rid = {
            self.streams[i].residence_id: w
            for w, shard in enumerate(shards)
            for i in shard
        }
        return self._pool

    def _pull_worker_states(self) -> None:
        """Refresh mirror agents from the workers (no-op when current).

        Loading a worker's ``state_dict`` into the mirror is in-place,
        so arena views and personalization managers stay bound; the
        weight arrays are rewritten with the identical shared-arena
        values, and the worker-private parts (replay, optimizer
        moments, RNGs, counters) become current.
        """
        if self._pool is None or not self._mirror_stale:
            return
        self._mirror_stale = False
        for states in self._pool.call_all("state"):
            for key, agent_state in states.items():
                self._agents[key].load_state_dict(agent_state)

    def close(self) -> None:
        """Shut the worker pool down (if any), preserving agent state.

        Safe to call repeatedly; the trainer keeps working afterwards
        (a later training segment simply re-forks from the mirror).
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            if self._mirror_stale and pool.alive():
                self._mirror_stale = False
                for states in pool.call_all("state"):
                    for key, agent_state in states.items():
                        self._agents[key].load_state_dict(agent_state)
        except WorkerError:
            pass  # workers already gone; mirror keeps its last pull
        finally:
            self._mirror_stale = False
            pool.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            pool = self.__dict__.get("_pool")
            if pool is not None:
                pool.close(force=True)
        except Exception:
            pass

    def _train_segment_parallel(
        self, seg_lo: int, seg_hi: int, rewards: list[float], optima: list[float]
    ) -> None:
        """Train the segment on the persistent residence-shard workers.

        Each worker steps its shard over ``[seg_lo, seg_hi)`` with a
        shard view of the same engine the single-process trainer uses.
        Per-agent trajectories are identical; only the order of the
        per-episode reward list changes (shard-major), which no consumer
        depends on (the day result reduces it to sums/means of exact
        Table-1 integers).  Weights come back through the shared arena;
        only scalar counters ride the pipe, and the heavyweight
        worker-private state (replay rings, moments, RNGs) stays put
        until something actually needs it (:meth:`_pull_worker_states`).
        """
        pool = self._ensure_pool()
        try:
            results = pool.call_all("train", [(seg_lo, seg_hi)] * pool.n_workers)
        except WorkerError:
            self._pool = None  # pool force-closed itself; mirror is stale
            self._mirror_stale = False
            raise
        self._mirror_stale = True
        for seg_rewards, seg_optima, counters in results:
            rewards.extend(seg_rewards)
            optima.extend(seg_optima)
            for key, (learn_steps, sgd_steps, observed, policy_step) in counters.items():
                agent = self._agents[key]
                agent.learn_steps = learn_steps
                agent.sgd_steps = sgd_steps
                agent._observed = observed
                agent.policy._step = policy_step

    def run(self, n_days: int) -> list[PFDRLDayResult]:
        """Train *n_days* consecutive days, returning per-day results."""
        return [self.run_day() for _ in range(n_days)]

    def rewind(self) -> None:
        """Reset the stream clock (keep learned weights) for another pass."""
        self._minutes_trained = 0

    # ------------------------------------------------------------------
    # Persistence
    def state(self) -> dict:
        """Complete trainer state as a checkpointable tree."""
        self._pull_worker_states()
        state: dict = {
            "minutes_trained": self._minutes_trained,
            "params_broadcast": self._params_broadcast,
            "agents": {
                f"{rid}/{slot}": agent.state_dict()
                for (rid, slot), agent in self._agents.items()
            },
            "bus": self.bus.state_dict(),
        }
        if self.server is not None:
            state["server"] = self.server.state_dict()
        if self.hierarchy is not None:
            state["hierarchy"] = self.hierarchy.state_dict()
        if self._agent_snapshots is not None:
            state["snapshots"] = {
                str(rid): dict(slots)
                for rid, slots in self._agent_snapshots.items()
            }
        return state

    def restore(self, state: dict) -> None:
        """Restore :meth:`state` output; continuing is bit-identical."""
        # Restored worker-private state (replay, moments, RNGs) can't be
        # injected into live children wholesale; drop the pool and let
        # the next training segment re-fork from the restored mirror.
        pool, self._pool = self._pool, None
        self._mirror_stale = False
        if pool is not None:
            pool.close()
        self._minutes_trained = int(state["minutes_trained"])
        self._params_broadcast = int(state["params_broadcast"])
        for (rid, slot), agent in self._agents.items():
            agent.load_state_dict(state["agents"][f"{rid}/{slot}"])
        self.bus.load_state_dict(state["bus"])
        if self.server is not None:
            self.server.load_state_dict(state["server"])
        if self.hierarchy is not None:
            self.hierarchy.load_state_dict(state["hierarchy"])
        if "snapshots" in state and self._agent_snapshots is not None:
            self._agent_snapshots = {
                int(rid): dict(slots)
                for rid, slots in state["snapshots"].items()
            }

    def finalize(self) -> None:
        """Terminal share round — what actually gets *deployed*.

        Under full sharing the deployed EMS is the global model (the FRL
        baseline's defining property); under personalized sharing it is
        the merged base + local personal layers.  Local-only training
        deploys as-is.  Call once after training, before evaluation.
        """
        tel = self.telemetry
        params_before = self._params_broadcast
        with tel.timer("pfdrl.share"):
            self._share_round()
        tel.event(
            "pfdrl.finalize", params_tx=self._params_broadcast - params_before
        )

    # ------------------------------------------------------------------
    def _share_round(self) -> None:
        if self.sharing == "none":
            return
        if self.sharing == "full":
            assert self.server is not None
            for group in self._share_groups:
                weight_sets = [self._agents[k].get_weights() for k in group]
                merged = self.server.aggregate(
                    f"dqn/{group[0][1]}", [k[0] for k in group], weight_sets
                )
                for key in group:
                    agent = self._agents[key]
                    agent.set_weights(merged)
                    agent.sync_target()
                self._params_broadcast += sum(int(w.size) for w in merged) * (
                    2 * len(group)
                )
            return
        if self.hierarchy is not None:
            self._hierarchical_share_round()
            return
        if self.fault_config is not None:
            self._faulty_share_round()
            return
        # Personalized decentralized sharing: α base layers over the mesh.
        # One shared-medium transmission per agent per event (the LAN
        # broadcast reaches all neighbours at once); device-scope agents
        # tag payloads per device type so only peers aggregate them.
        for group in self._share_groups:
            slot = group[0][1]
            tag = f"drl-base/{slot}"
            for key in group:
                payload = self._managers[key].base_weights()
                self.bus.broadcast(key[0], payload, tag=tag)
                self._params_broadcast += sum(int(w.size) for w in payload)
            for key in group:
                received = [
                    list(m.payload) for m in self.bus.collect(key[0], tag=tag)
                ]
                self._managers[key].apply_aggregation(received)

    def _hierarchical_share_round(self) -> None:
        """γ-round sharing through the two-tier federation.

        Each share group becomes one hierarchy request: participants
        upload their α base layers to their cluster aggregator, the
        aggregators federate cluster means over the sparse upper tier,
        and every served residence *replaces* its base layers with the
        downlinked global estimate (its own contribution is already in
        the cluster mean via the aggregator's upload cache, so the
        local model carries weight 0 in ``apply_aggregation`` — unlike
        the mesh path, where the local model is one more peer).
        Personalization layers never leave the residence, exactly as on
        the flat mesh.  With pool workers, base layers live in the
        shared weight arena, so the in-place apply is visible to the
        owning worker without any state push.
        """
        hierarchy = self.hierarchy
        assert hierarchy is not None
        requests = []
        for group in self._share_groups:
            slot = group[0][1]
            key_of = {key[0]: key for key in group}

            def get(member: int, key_of=key_of) -> list[np.ndarray]:
                return self._managers[key_of[member]].base_weights()

            def apply(member: int, merged: list[np.ndarray], key_of=key_of) -> None:
                self._managers[key_of[member]].apply_aggregation(
                    [merged], client_weights=[0.0, 1.0]
                )

            requests.append((f"drl-base/{slot}", get, apply))
        summary = hierarchy.share_round(requests)
        self._params_broadcast += summary["params_tx"]
        if self.telemetry:
            # Journal events carry JSON scalars only; flatten the
            # per-cluster participant sets to a canonical string.
            self.telemetry.event(
                "pfdrl.hier.round",
                round=summary["round"],
                participants=json.dumps(summary["participants"], sort_keys=True),
                params_tx=summary["params_tx"],
                quorum_skips=summary["quorum_skips"],
            )

    def _faulty_share_round(self) -> None:
        """γ-round sharing over the fault-injected mesh.

        Mirrors :meth:`repro.federated.dfl.DFLTrainer._faulty_round`:
        crashed agents are off the air, stragglers sit out, receivers
        quarantine corrupted base layers, discount stale ones, and only
        merge when the neighbour quorum was heard — otherwise the agent
        keeps its local model for this round (counted, not silent).
        """
        bus = self.bus
        assert isinstance(bus, FaultyBus)
        faults = self.fault_config
        if self._agent_snapshots is not None:
            # Recovery snapshots serialise full agent state, which for
            # pool workers lives worker-side; refresh the mirror first.
            self._pull_worker_states()
        for group in self._share_groups:
            slot = group[0][1]
            tag = f"drl-base/{slot}"
            for key in group:
                if not bus.sends_this_round(key[0]):
                    continue
                payload = self._managers[key].base_weights()
                bus.broadcast(key[0], payload, tag=tag)
                self._params_broadcast += sum(int(w.size) for w in payload)
            for key in group:
                rid = key[0]
                if not bus.is_online(rid):
                    continue
                manager = self._managers[key]
                recv = ReceiveFilter(
                    bus, faults, manager.base_weights(),
                    len(self.topology.neighbors(rid)),
                ).admit(bus.collect(rid, tag=tag))
                if not recv.accept():
                    continue
                manager.apply_aggregation(
                    recv.payloads, client_weights=recv.client_weights()
                )
        bus.advance_round()
        self._restore_recovered()

    def _restore_recovered(self) -> None:
        """Recovery mode: reload snapshots for residences back from a crash.

        Every agent slot of a recovered residence reverts to its last
        snapshot taken while the residence was alive (one restore counted
        per residence); currently-online residences then re-snapshot.
        """
        if self._agent_snapshots is None:
            return
        bus = self.bus
        assert isinstance(bus, FaultyBus)
        restored: list[int] = []
        for rid in bus.drain_recovered():
            slots = self._agent_snapshots.get(rid)
            if slots is None:
                continue
            for slot, snap in slots.items():
                self._agents[(rid, slot)].load_state_dict(snap)
            restored.append(rid)
            bus.stats.n_restores += 1
            self.telemetry.count("pfdrl.recovery.restores")
        if restored and self._pool is not None:
            # The mirror load above rewrote the shared-arena weights in
            # place, but the worker-private parts (replay, moments,
            # RNGs, counters) must be pushed to the owning workers.
            per_worker: dict[int, dict] = {}
            for rid in restored:
                for slot in self._agent_snapshots.get(rid, {}):
                    key = (rid, slot)
                    per_worker.setdefault(self._worker_of_rid[rid], {})[key] = (
                        self._agents[key].state_dict()
                    )
            for worker, states in per_worker.items():
                self._pool.call(worker, "load", states)
        for (rid, slot), agent in self._agents.items():
            if bus.is_online(rid):
                self._agent_snapshots.setdefault(rid, {})[slot] = agent.state_dict()

    # ------------------------------------------------------------------
    def evaluate(
        self, eval_streams: list[ResidenceStream] | None = None
    ) -> EMSEvaluation:
        """Greedy rollout over *eval_streams* (default: the training streams).

        Each device's full stream is rolled out by one Q-net forward
        over its state matrix (:meth:`_greedy_chunks`), then scored per
        hour-long chunk.
        """
        streams = eval_streams if eval_streams is not None else self.streams
        n_res = len(streams)
        if n_res != len(self.streams):
            raise ValueError("eval streams must match the trained residences")
        n_min = streams[0].n_minutes

        saved_standby = np.zeros(n_res)
        total_standby = np.zeros(n_res)
        saved_total = np.zeros(n_res)
        violations = np.zeros(n_res)
        rew = np.zeros(n_res)
        opt = np.zeros(n_res)
        saved_kw = np.zeros((n_res, n_min))

        for ri, stream in enumerate(streams):
            for dev_stream in stream.devices.values():
                agent = self.agent_for(stream.residence_id, dev_stream.device)
                for lo, hi, r, r_opt, controlled in self._greedy_chunks(
                    agent, dev_stream
                ):
                    chunk = dev_stream.slice(lo, hi)
                    rew[ri] += r
                    opt[ri] += r_opt
                    delta = chunk.real_kw - controlled
                    saved_kw[ri, lo:hi] += delta
                    standby_mask = chunk.mode == 1
                    on_mask = chunk.mode == 2
                    saved_standby[ri] += float(delta[standby_mask].sum() / 60.0)
                    total_standby[ri] += standby_energy_kwh(chunk.real_kw, chunk.mode)
                    saved_total[ri] += saved_energy_kwh(chunk.real_kw, controlled)
                    violations[ri] += int(
                        np.count_nonzero(controlled[on_mask] < chunk.real_kw[on_mask])
                    )

        with np.errstate(divide="ignore", invalid="ignore"):
            reward_fraction = np.where(opt > 0, rew / opt, np.nan)
        return EMSEvaluation(
            saved_standby_kwh=saved_standby,
            total_standby_kwh=total_standby,
            saved_total_kwh=saved_total,
            comfort_violations=violations,
            reward_fraction=reward_fraction,
            saved_kw=saved_kw,
        )

    def _greedy_chunks(self, agent: DQNAgent, dev_stream):
        """Greedy rollout of one device stream, scored per hour.

        Yields ``(lo, hi, reward, optimal reward, controlled kW)`` per
        chunk, from one matrix rollout of the whole stream
        (:func:`repro.rl.batch.greedy_rollout`).
        """
        _, controlled, rewards = greedy_rollout(agent.qnet, dev_stream)
        optimal = dev_stream.mode.astype(np.int64)
        optimal = np.where(optimal == 1, 0, optimal)  # kill standby
        opt_rewards = reward_vector(dev_stream.mode, optimal)
        n = len(rewards)
        for lo in range(0, n, self.horizon):
            hi = min(lo + self.horizon, n)
            yield (
                lo,
                hi,
                float(rewards[lo:hi].sum()),
                float(opt_rewards[lo:hi].sum()),
                controlled[lo:hi],
            )


class _ShardWorker:
    """Command handler living inside one forked pool worker.

    Built by the worker factory *after* the fork, so ``trainer`` — the
    whole object graph including streams, agents, and the arena-backed
    engine — is the parent's, inherited by memory.  Weight rows of this
    shard's agents are views into the shared arena (writes are visible
    to the parent immediately); everything else (replay rings, Adam
    moments, RNG streams, counters) is copy-on-write private and only
    crosses the pipe on explicit ``state`` / ``load`` commands.
    """

    def __init__(self, trainer: PFDRLTrainer, stream_indices: tuple[int, ...]) -> None:
        self._trainer = trainer
        self.streams = [trainer.streams[i] for i in stream_indices]
        rids = {stream.residence_id for stream in self.streams}
        self.keys = sorted(key for key in trainer._agents if key[0] in rids)
        self.engine = trainer._engine.shard_view(rids)

    def __call__(self, cmd: str, payload):
        trainer = self._trainer
        if cmd == "train":
            return self._train(*payload)
        if cmd == "state":
            return {key: trainer._agents[key].state_dict() for key in self.keys}
        if cmd == "load":
            for key, agent_state in payload.items():
                trainer._agents[key].load_state_dict(agent_state)
            return None
        if cmd == "ping":
            return os.getpid()
        raise ValueError(f"unknown worker command {cmd!r}")

    def _train(
        self, seg_lo: int, seg_hi: int
    ) -> tuple[list[float], list[float], dict]:
        trainer = self._trainer
        rewards: list[float] = []
        optima: list[float] = []
        trainer._run_segment(self.engine, self.streams, seg_lo, seg_hi, rewards, optima)
        counters = {
            key: (
                trainer._agents[key].learn_steps,
                trainer._agents[key].sgd_steps,
                trainer._agents[key]._observed,
                trainer._agents[key].policy._step,
            )
            for key in self.keys
        }
        return rewards, optima, counters
