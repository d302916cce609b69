"""Hierarchical (cluster-of-clusters) federation — ROADMAP open item 2.

The flat γ-round mesh broadcasts all-to-all: O(N²) messages per share
round, dead on arrival at city scale.  This module federates in two
tiers instead:

- **tier 0** — residences are partitioned into neighbourhood clusters
  (:func:`assign_clusters`), each headed by a
  :class:`ClusterAggregator`.  Members upload their α base layers over
  a reliable star LAN (one :class:`~repro.federated.transport.
  MessageBus` per cluster, aggregator as hub node 0) and receive the
  merged global base back.  Personalization layers never leave the
  residence — only what :class:`~repro.core.personalization.
  PersonalizationManager` would broadcast travels (Bose et al.'s
  personalization-layers-under-hierarchy recipe).
- **tier 1** — aggregators federate their cluster means over a sparse
  ``ring``/``star``/``full`` upper topology through the *ordinary*
  transport stack (:func:`~repro.federated.faults.make_bus`), so fault
  injection, replayable traces and self-healing compose unchanged: a
  severe trace on the upper tier reroutes around lossy aggregator
  links exactly like the flat fabric would.

Per round each cluster samples a seeded **partial-participation** set
(:class:`ParticipationSampler` — a pure function of the hierarchy seed
and the round index, so checkpoint-resume replays identical sets for
free); absent members are represented by the aggregator's cached last
upload, discounted by age like the PR-1 staleness path and dropped
past the horizon.

Message complexity per round: uplink ≈ participation·N, upper tier
O(clusters·degree), downlink N — linear in N against the flat mesh's
N·(N−1) (``benchmarks/bench_scale.py`` fits the empirical exponents).

:class:`SegmentedScaleRunner` drives the federation at large N
(10k+ members) with small synthetic per-member models whose local
update is a pure function of ``(seed, round, member)`` — one
elementwise step over the whole member-row matrix — and progress
checkpoints into a digest-guarded
:class:`~repro.persist.CheckpointStore` so a 10k-residence run
completes as resumable segments, bit-identically.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.config import FaultConfig, HierarchyConfig, config_to_dict
from repro.federated.aggregation import staleness_weights
from repro.federated.faults import ReceiveFilter, make_bus
from repro.federated.server import CentralServer
from repro.federated.topology import Topology, make_topology
from repro.federated.transport import MessageBus, TransportStats
from repro.nn.serialization import average_weights
from repro.obs.telemetry import Telemetry, ensure_telemetry
from repro.rng import hash_seed

__all__ = [
    "assign_clusters",
    "ParticipationSampler",
    "ClusterAggregator",
    "HierarchicalFederation",
    "SegmentedScaleRunner",
]

#: One share-round request: ``(tag, get_weights, apply)`` — the payload
#: getter returns member *base* weights; ``apply(member, merged)``
#: installs the global base estimate the member's aggregator downlinked.
ShareRequest = tuple[
    str,
    Callable[[int], list[np.ndarray]],
    Callable[[int, list[np.ndarray]], None],
]


def assign_clusters(n_members: int, cluster_size: int) -> list[list[int]]:
    """Partition members ``0..n-1`` into contiguous clusters.

    Contiguous by index (neighbourhoods are spatially contiguous in the
    synthetic workload); every cluster has ``cluster_size`` members
    except possibly the last.  A final singleton is absorbed into the
    previous cluster when possible so no aggregator heads an empty-ish
    neighbourhood.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    clusters = [
        list(range(lo, min(lo + cluster_size, n_members)))
        for lo in range(0, n_members, cluster_size)
    ]
    if len(clusters) > 1 and len(clusters[-1]) == 1 and cluster_size > 1:
        clusters[-2].extend(clusters.pop())
    return clusters


class ParticipationSampler:
    """Seeded per-cluster participant sampling — a pure function.

    ``sample(r)`` depends only on ``(seed, r, cluster)``: no mutable
    RNG stream exists, so a resumed run (whose round counter is part of
    the checkpoint) replays the identical participant sets without any
    sampler state in the checkpoint at all.
    """

    def __init__(self, config: HierarchyConfig, clusters: Sequence[Sequence[int]]):
        self.config = config
        self.clusters = [list(c) for c in clusters]

    def cluster_sample_size(self, cluster_index: int) -> int:
        m = len(self.clusters[cluster_index])
        k = int(round(self.config.participation * m))
        return min(m, max(self.config.min_participants, k))

    def sample(self, round_index: int) -> dict[int, list[int]]:
        """``{cluster_index: sorted member ids uploading this round}``."""
        out: dict[int, list[int]] = {}
        for cid, members in enumerate(self.clusters):
            k = self.cluster_sample_size(cid)
            if k >= len(members):
                out[cid] = list(members)
                continue
            rng = np.random.default_rng(
                hash_seed(self.config.seed, "hier-participation", round_index, cid)
            )
            picks = rng.choice(len(members), size=k, replace=False)
            out[cid] = sorted(members[i] for i in picks)
        return out


class ClusterAggregator(CentralServer):
    """Tier-aware neighbourhood aggregator.

    Generalizes :class:`~repro.federated.server.CentralServer` (the
    cloud FedAvg server the FL baselines use) into one node of a tier:
    it knows its ``tier`` and ``cluster_id``, serves a fixed member
    set, and — unlike the cloud server, which sees every client every
    round — keeps a **round-stamped upload cache** so partial
    participation still yields a full-cluster mean: absent members
    contribute their last upload, geometrically discounted by age and
    dropped past the staleness horizon (the PR-1 staleness semantics,
    applied at the aggregation tier).

    ``cost_per_round`` defaults to 0: a neighbourhood aggregator is an
    edge device, not the paper's metered cloud.
    """

    def __init__(
        self,
        cluster_id: int,
        members: Sequence[int],
        tier: int = 0,
        cost_per_round: float = 0.0,
    ) -> None:
        super().__init__(cost_per_round=cost_per_round)
        if not members:
            raise ValueError("a cluster needs at least one member")
        self.cluster_id = int(cluster_id)
        self.tier = int(tier)
        self.members = [int(m) for m in members]
        #: key -> member -> {"round": upload round, "weights": [...]}.
        self._cache: dict[str, dict[int, dict]] = {}

    @property
    def size(self) -> int:
        return len(self.members)

    def submit(
        self, key: str, member: int, weights: Sequence[np.ndarray], round_index: int
    ) -> None:
        """Cache one member upload (fresh uploads replace older ones)."""
        if member not in self.members:
            raise KeyError(
                f"member {member} does not belong to cluster {self.cluster_id}"
            )
        self._cache.setdefault(key, {})[int(member)] = {
            "round": int(round_index),
            "weights": [np.array(w, dtype=np.float64, copy=True) for w in weights],
        }

    def cached_mean(
        self, key: str, round_index: int, horizon: int, decay: float
    ) -> list[np.ndarray]:
        """Staleness-discounted cluster mean over all cached uploads.

        Entries older than *horizon* rounds are excluded (and evicted —
        they can never contribute again); the survivors are averaged
        with :func:`~repro.federated.aggregation.staleness_weights`
        discounts through the inherited FedAvg round, so the
        :class:`ServerStats` cost accounting covers the hierarchy too.
        """
        entries = self._cache.get(key, {})
        live = {
            m: e for m, e in entries.items() if round_index - e["round"] <= horizon
        }
        if not live:
            raise RuntimeError(
                f"cluster {self.cluster_id} has no live upload for {key!r} "
                f"at round {round_index} (horizon {horizon})"
            )
        self._cache[key] = live
        members = sorted(live)
        ages = [round_index - live[m]["round"] for m in members]
        weights = staleness_weights(ages, horizon, decay)
        return self.aggregate(
            key,
            members,
            [live[m]["weights"] for m in members],
            client_weights=weights,
        )

    def contributing(self, key: str, round_index: int, horizon: int) -> list[int]:
        """Members whose cached upload is live at *round_index*."""
        entries = self._cache.get(key, {})
        return sorted(
            m for m, e in entries.items() if round_index - e["round"] <= horizon
        )

    # ------------------------------------------------------------------
    # Persistence
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cache"] = {
            key: {
                str(m): {
                    "round": e["round"],
                    "weights": [w.copy() for w in e["weights"]],
                }
                for m, e in entries.items()
            }
            for key, entries in self._cache.items()
        }
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict({k: v for k, v in state.items() if k != "cache"})
        self._cache = {
            key: {
                int(m): {
                    "round": int(e["round"]),
                    "weights": [
                        np.asarray(w, dtype=np.float64) for w in e["weights"]
                    ],
                }
                for m, e in entries.items()
            }
            for key, entries in state["cache"].items()
        }


class HierarchicalFederation:
    """Two-tier federation over the existing transport substrate.

    Parameters
    ----------
    n_members:
        Total residences (global member ids ``0..n-1``).
    config:
        The :class:`~repro.config.HierarchyConfig` (cluster geometry,
        upper topology, participation, tier-0 staleness).
    faults:
        Optional :class:`~repro.config.FaultConfig` applied to the
        **upper tier** (tier 0 is the paper's reliable residential
        LAN); ``None`` means the default, fault-free config.  The upper
        bus comes from :func:`~repro.federated.faults.make_bus`, so
        traces, churn, self-healing and the quorum/staleness receive
        policies all operate between aggregators exactly as on the flat
        mesh.
    """

    def __init__(
        self,
        n_members: int,
        config: HierarchyConfig,
        faults: FaultConfig | None = None,
    ) -> None:
        self.config = config
        self.n_members = int(n_members)
        self.clusters = assign_clusters(n_members, config.cluster_size)
        self.n_clusters = len(self.clusters)
        self.cluster_sizes = [len(c) for c in self.clusters]
        self._cluster_of: dict[int, int] = {}
        self._local_id: dict[int, int] = {}
        for cid, members in enumerate(self.clusters):
            for pos, member in enumerate(members):
                self._cluster_of[member] = cid
                self._local_id[member] = pos + 1  # node 0 is the aggregator
        self.aggregators = [
            ClusterAggregator(cid, members, tier=0)
            for cid, members in enumerate(self.clusters)
        ]
        #: Tier 0: one reliable star LAN per cluster, aggregator at hub 0.
        self.cluster_buses = [
            MessageBus(make_topology("star", len(members) + 1, hub=0))
            for members in self.clusters
        ]
        #: Tier 1: sparse aggregator federation over the fault-capable stack.
        hub = min(config.upper_hub, self.n_clusters - 1)
        self.upper_topology: Topology = make_topology(
            config.upper_topology, self.n_clusters, hub=hub
        )
        self.faults = faults if faults is not None else FaultConfig()
        self.upper_bus = make_bus(self.upper_topology, self.faults)
        self.sampler = ParticipationSampler(config, self.clusters)
        #: γ-round counter (one per share *event*, shared by all slots).
        self.round = 0

    # ------------------------------------------------------------------
    # membership helpers
    def cluster_of(self, member: int) -> int:
        return self._cluster_of[member]

    def local_id(self, member: int) -> int:
        """*member*'s node id on its cluster bus (aggregator is 0)."""
        return self._local_id[member]

    # ------------------------------------------------------------------
    # the γ-round
    def share_round(self, requests: Sequence[ShareRequest]) -> dict:
        """One full share event over every slot in *requests*.

        Returns a JSON-ready summary: the round index, the sampled
        participant sets per cluster, and the wire parameters this
        event cost (all tiers) — the journal event the determinism
        tests replay.
        """
        participants = self.sampler.sample(self.round)
        tx_before = self.n_tx_params
        skips_before = self.n_quorum_skips
        for tag, get_weights, apply in requests:
            self._share_slot(tag, get_weights, apply, participants)
        self._advance_round()
        summary = {
            "round": self.round,
            "participants": {str(cid): ids for cid, ids in participants.items()},
            "params_tx": self.n_tx_params - tx_before,
            "quorum_skips": self.n_quorum_skips - skips_before,
        }
        self.round += 1
        return summary

    def _share_slot(
        self,
        tag: str,
        get_weights: Callable[[int], list[np.ndarray]],
        apply: Callable[[int, list[np.ndarray]], None],
        participants: dict[int, list[int]],
    ) -> None:
        # 1. Tier-0 uplink: sampled members send base layers to their
        #    aggregator; the aggregator folds them into its cache and
        #    computes the staleness-discounted cluster mean.
        cfg = self.config
        cluster_means: list[list[np.ndarray]] = []
        for cid, members in enumerate(self.clusters):
            bus = self.cluster_buses[cid]
            agg = self.aggregators[cid]
            for member in participants[cid]:
                bus.send(self._local_id[member], 0, get_weights(member), tag=tag)
            for msg in bus.collect(0, tag=tag):
                agg.submit(tag, members[msg.src - 1], msg.payload, self.round)
            cluster_means.append(
                agg.cached_mean(
                    tag, self.round, cfg.staleness_horizon, cfg.staleness_decay
                )
            )
        # 2. Tier-1 exchange: every (online, non-straggling) aggregator
        #    broadcasts its cluster mean to its upper-tier neighbours.
        upper = self.upper_bus
        for cid in range(self.n_clusters):
            if not upper.sends_this_round(cid):
                continue
            upper.broadcast(cid, cluster_means[cid], tag=tag)
        # 3. Merge + tier-0 downlink: each aggregator size-weights the
        #    means it heard against its own and broadcasts the global
        #    estimate back to every member (participant or not).
        for cid, members in enumerate(self.clusters):
            if not upper.is_online(cid):
                continue  # a crashed aggregator serves nobody this round
            merged = self._merge_upper(cid, cluster_means[cid], tag)
            bus = self.cluster_buses[cid]
            bus.broadcast(0, merged, tag=tag)
            for member in members:
                msgs = bus.collect(self._local_id[member], tag=tag)
                if msgs:
                    apply(member, list(msgs[-1].payload))

    def _merge_upper(
        self, cid: int, own_mean: list[np.ndarray], tag: str
    ) -> list[np.ndarray]:
        """Cluster *cid*'s global estimate from its upper-tier inbox.

        Cluster means are weighted by their (static, globally known)
        cluster sizes.  The received means run through the
        :class:`~repro.federated.faults.ReceiveFilter` — corrupted
        payloads quarantined, stale ones discounted or rejected, and the
        whole merge skipped (own mean kept) when the neighbour quorum was
        not heard.
        """
        upper = self.upper_bus
        recv = ReceiveFilter(
            upper,
            self.faults,
            own_mean,
            len(self.upper_topology.neighbors(cid)),
        ).admit(upper.collect(cid, tag=tag))
        if not recv.accept():
            return [w.copy() for w in own_mean]
        discounts = staleness_weights(
            recv.ages, self.faults.staleness_horizon, self.faults.staleness_decay
        )
        weights = [float(self.cluster_sizes[cid])] + [
            self.cluster_sizes[src] * float(d) for src, d in zip(recv.srcs, discounts)
        ]
        return average_weights([list(own_mean), *recv.payloads], weights)

    def _advance_round(self) -> None:
        """Round boundary on every bus (tier 0 stamps ages for the cache;
        on a fault fabric tier 1 drives churn/traces/self-healing)."""
        for bus in self.cluster_buses:
            bus.advance_round()
        self.upper_bus.advance_round()

    # ------------------------------------------------------------------
    # accounting
    @property
    def n_tx_params(self) -> int:
        """Total transmitted parameters across both tiers."""
        return self.upper_bus.stats.n_tx_params + sum(
            bus.stats.n_tx_params for bus in self.cluster_buses
        )

    @property
    def n_quorum_skips(self) -> int:
        return self.upper_bus.stats.n_quorum_skips

    @property
    def monitor(self):
        """The upper tier's self-healing monitor (``None`` when off)."""
        return getattr(self.upper_bus, "monitor", None)

    def stats_by_tier(self) -> dict[str, TransportStats]:
        """``{"tier0": summed cluster-LAN stats, "tier1": upper stats}``."""
        return {
            "tier0": TransportStats.total([b.stats for b in self.cluster_buses]),
            "tier1": self.upper_bus.stats,
        }

    def stats_by_cluster(self) -> dict[int, TransportStats]:
        return {cid: bus.stats for cid, bus in enumerate(self.cluster_buses)}

    def record_telemetry(self, telemetry: Telemetry, prefix: str = "hier") -> None:
        """Mirror the per-tier / per-cluster split into gauges.

        The scale benchmark and the CI smoke floor read these gauges —
        not ad-hoc counters — so the exported accounting is the
        accounting that gets asserted on.
        """
        tel = ensure_telemetry(telemetry)
        if not tel:
            return
        tel.gauge(f"{prefix}.n_clusters", self.n_clusters)
        tel.gauge(f"{prefix}.n_members", self.n_members)
        tel.gauge(f"{prefix}.round", self.round)
        tel.record_tiers(self.stats_by_tier(), prefix=prefix)
        tel.record_tiers(
            {
                f"cluster.{cid}": stats
                for cid, stats in self.stats_by_cluster().items()
            },
            prefix=prefix,
        )
        tel.record_links(self.upper_bus.stats, prefix=f"{prefix}.tier1")
        if self.monitor is not None:
            tel.record_selfheal(self.monitor, prefix=f"{prefix}.selfheal")

    # ------------------------------------------------------------------
    # Persistence
    def state_dict(self) -> dict:
        return {
            "round": self.round,
            "cluster_buses": [bus.state_dict() for bus in self.cluster_buses],
            "upper_bus": self.upper_bus.state_dict(),
            "aggregators": [agg.state_dict() for agg in self.aggregators],
        }

    def load_state_dict(self, state: dict) -> None:
        if len(state["cluster_buses"]) != self.n_clusters or len(
            state["aggregators"]
        ) != self.n_clusters:
            raise ValueError(
                "checkpoint cluster count does not match this hierarchy "
                f"({len(state['aggregators'])} vs {self.n_clusters})"
            )
        self.round = int(state["round"])
        for bus, bus_state in zip(self.cluster_buses, state["cluster_buses"]):
            bus.load_state_dict(bus_state)
        self.upper_bus.load_state_dict(state["upper_bus"])
        for agg, agg_state in zip(self.aggregators, state["aggregators"]):
            agg.load_state_dict(agg_state)


# ----------------------------------------------------------------------
# Large-N segmented execution


def _drift_update(
    weights: np.ndarray, lo: int, hi: int, round_index: int, seed: int
) -> None:
    """The scale model's local training step for member rows [lo, hi).

    A pure elementwise function of ``(seed, round, member id, column)``
    — elementwise ufuncs are bitwise-stable under any row chunking, so
    one call over all rows equals any split of them into row ranges.
    """
    dim = weights.shape[1]
    ids = np.arange(lo, hi, dtype=np.float64)[:, None]
    cols = np.arange(dim, dtype=np.float64)[None, :]
    phase = ids * 0.7 + cols * 0.31 + float(round_index) * 1.3 + float(seed) * 0.017
    block = weights[lo:hi]
    block *= 0.99
    block += 0.01 * np.sin(phase)


class SegmentedScaleRunner:
    """Drive the hierarchy at large N as checkpoint-resumable segments.

    Each member is a small ``dim``-vector "model": the local step is the
    deterministic :func:`_drift_update`, the share round is the real
    :class:`HierarchicalFederation` γ-path (real buses, real
    aggregators, real participation sampling), so the communication
    counters measured here are exactly what a full DQN run would pay —
    with the payload size as the one free parameter.

    ``run`` checkpoints every ``segment_rounds`` rounds into a
    :class:`~repro.persist.CheckpointStore` whose meta carries a config
    digest; :meth:`resume` refuses state from a different geometry, and
    a resumed run is bit-identical to an uninterrupted one.
    """

    def __init__(
        self,
        n_members: int,
        config: HierarchyConfig,
        dim: int = 16,
        seed: int = 0,
        faults: FaultConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.n_members = int(n_members)
        self.dim = int(dim)
        self.seed = int(seed)
        self.telemetry = ensure_telemetry(telemetry)
        self.hier = HierarchicalFederation(n_members, config, faults=faults)
        # Deterministic non-uniform start so aggregation has work to do.
        init = np.random.default_rng(hash_seed(self.seed, "scale-init"))
        self.weights = 0.1 * init.standard_normal((self.n_members, self.dim))
        self.rounds_done = 0

    # ------------------------------------------------------------------
    def _local_step(self, round_index: int) -> None:
        _drift_update(self.weights, 0, self.n_members, round_index, self.seed)

    def _share(self) -> dict:
        weights = self.weights

        def get(member: int) -> list[np.ndarray]:
            return [weights[member].copy()]

        def apply(member: int, merged: list[np.ndarray]) -> None:
            weights[member] = merged[0]

        summary = self.hier.share_round([("scale", get, apply)])
        tel = self.telemetry
        if tel:
            tel.event("hier.round", **summary)
            self.hier.record_telemetry(tel)
        return summary

    def run_round(self) -> dict:
        """One round: the local step over all members, then the γ share round."""
        self._local_step(self.rounds_done)
        summary = self._share()
        self.rounds_done += 1
        return summary

    def run(
        self,
        n_rounds: int,
        store=None,
        segment_rounds: int = 8,
        stop_after_round: int | None = None,
    ) -> dict:
        """Run until ``rounds_done == n_rounds``, segment-checkpointed.

        With *store*, complete state is saved every ``segment_rounds``
        rounds (and at the end); ``stop_after_round`` force-checkpoints
        and raises :class:`~repro.persist.TrainingInterrupted` once that
        round completes, simulating a crash between segments.
        """
        if segment_rounds < 1:
            raise ValueError("segment_rounds must be >= 1")
        from repro.persist import TrainingInterrupted

        while self.rounds_done < n_rounds:
            self.run_round()
            stop_here = (
                stop_after_round is not None
                and self.rounds_done >= stop_after_round
            )
            if store is not None and (
                self.rounds_done % segment_rounds == 0
                or self.rounds_done == n_rounds
                or stop_here
            ):
                store.save(
                    self.rounds_done,
                    self.state_dict(),
                    meta={
                        "config_sha256": self.config_digest(),
                        "rounds_done": self.rounds_done,
                    },
                )
            if stop_here:
                raise TrainingInterrupted(self.rounds_done)
        return self.summary()

    def summary(self) -> dict:
        """JSON-ready run summary (counters come from the tier stats)."""
        tiers = self.hier.stats_by_tier()
        return {
            "n_members": self.n_members,
            "n_clusters": self.hier.n_clusters,
            "dim": self.dim,
            "rounds": self.rounds_done,
            "weight_checksum": float(np.abs(self.weights).sum()),
            "tiers": {name: stats.as_dict() for name, stats in tiers.items()},
        }

    # ------------------------------------------------------------------
    # Persistence
    def config_digest(self) -> str:
        from repro.persist import json_digest

        return json_digest(
            {
                "n_members": self.n_members,
                "dim": self.dim,
                "seed": self.seed,
                "hierarchy": config_to_dict(self.hier.config),
            }
        )

    def state_dict(self) -> dict:
        return {
            "rounds_done": self.rounds_done,
            "weights": self.weights.copy(),
            "hier": self.hier.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        weights = np.asarray(state["weights"], dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise ValueError(
                f"checkpoint weights {weights.shape} do not match this "
                f"runner {self.weights.shape}"
            )
        self.rounds_done = int(state["rounds_done"])
        self.weights[...] = weights
        self.hier.load_state_dict(state["hier"])

    def resume(self, store, step: int | None = None) -> dict:
        """Load a segment checkpoint (default latest), digest-guarded."""
        from repro.persist import CheckpointError

        state, manifest = store.load(step=step)
        recorded = manifest.get("meta", {}).get("config_sha256")
        if recorded is not None and recorded != self.config_digest():
            raise CheckpointError(
                "scale checkpoint was written under a different geometry "
                f"(digest {recorded[:12]}… vs {self.config_digest()[:12]}…)"
            )
        self.load_state_dict(state)
        return manifest
