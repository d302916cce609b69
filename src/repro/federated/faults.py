"""Fault injection for the federated fabric.

The paper measures everything over a perfectly reliable residential LAN;
real decentralized deployments face packet loss, offline residences,
late deliveries and stragglers.  :class:`FaultyBus` is a drop-in
:class:`~repro.federated.transport.MessageBus` that injects a seeded,
deterministic fault process described by a
:class:`~repro.config.FaultConfig`:

- per-link message **drops** with bounded **retransmission** (retries and
  final losses are counted in ``TransportStats`` so communication-
  overhead numbers stay honest);
- payload **corruption** (NaN injection or truncation — receivers must
  validate; see :func:`payload_matches`);
- **delayed** deliveries that land 1..k broadcast rounds late (the bus
  holds them and releases them at ``advance_round``);
- agent **churn** (crash/recovery schedules, plus permanently crashed
  agents) and **stragglers** that sit out broadcast rounds.

Two extensions ride on top of the i.i.d. model:

- **trace-driven faults** (``FaultConfig.trace``): per-link drop/corrupt
  rates come from the active episode of a replayable
  :class:`~repro.federated.traces.FaultTrace` instead of the global
  rates, with the trace cursor checkpointed so resume-under-trace is
  bit-identical;
- **self-healing** (``FaultConfig.selfheal``): a
  :class:`~repro.federated.selfheal.LinkHealthMonitor` watches per-link
  loss and reroutes broadcasts around persistently lossy links through a
  :class:`~repro.federated.selfheal.TopologyOverlay`.

Every random decision comes from one private generator seeded from
``FaultConfig.seed``, independent of the model/data RNG streams: the same
fault seed replays the identical fault schedule, and fault injection
never perturbs training randomness.

The receiver-side policies (validation, staleness, quorum) are
:class:`ReceiveFilter`, built on the staleness weighting in
:mod:`repro.federated.aggregation`.  Every share round runs them —
:meth:`repro.federated.dfl.DFLTrainer._broadcast_and_aggregate`,
:meth:`repro.core.pfdrl.PFDRLTrainer._share_round` and the hierarchy's
upper tier — over whatever bus :func:`make_bus` returned.  There is one
round path: zero faults means the plain bus, on which every agent is
online and every payload is fresh.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import FaultConfig
from repro.federated.aggregation import staleness_weights
from repro.federated.selfheal import LinkHealthMonitor, TopologyOverlay, link_key
from repro.federated.topology import Topology
from repro.federated.traces import FaultTrace, FaultTraceGenerator
from repro.federated.transport import Message, MessageBus, message_from_state, message_state
from repro.rng import generator_state, hash_seed, restore_generator

__all__ = ["FaultyBus", "make_bus", "payload_matches", "ReceiveFilter"]

#: Control-plane probe transmissions sent per round on each *disabled*
#: link so the health monitor can observe recovery (probes are tiny and
#: are not charged to the parameter counters).
PROBES_PER_ROUND = 4


def make_bus(topology: Topology, faults: FaultConfig | None) -> MessageBus:
    """A transport for *topology*: plain bus unless faults are active.

    The one place that decides whether the fabric is faulty.  The plain
    :class:`MessageBus` loses nothing and answers every liveness hook
    with "online, sending, nobody recovered", so the share rounds run
    the same code over it as over a :class:`FaultyBus`.
    """
    if faults is not None and faults.active:
        return FaultyBus(topology, faults)
    return MessageBus(topology)


def payload_matches(
    payload: Sequence[np.ndarray], reference: Sequence[np.ndarray]
) -> bool:
    """Defensive check: *payload* has the reference shapes and is finite.

    The first line of defense against corrupted messages — a payload that
    fails this must never reach :func:`~repro.nn.serialization.average_weights`.
    """
    if len(payload) != len(reference):
        return False
    for arr, ref in zip(payload, reference):
        arr = np.asarray(arr)
        if arr.shape != np.asarray(ref).shape:
            return False
        if not np.issubdtype(arr.dtype, np.number):
            return False
        if not np.all(np.isfinite(arr)):
            return False
    return True


class FaultyBus(MessageBus):
    """A :class:`MessageBus` with a seeded fault process on every link.

    The interface is unchanged; additionally the bus tracks per-agent
    liveness (:meth:`is_online`), per-round straggler decisions
    (:meth:`sends_this_round`), and releases delayed messages when the
    trainer calls :meth:`advance_round` after each broadcast event.
    """

    def __init__(
        self,
        topology: Topology,
        faults: FaultConfig,
        trace: FaultTrace | None = None,
    ) -> None:
        super().__init__(topology)
        self.faults = faults
        self._rng = np.random.default_rng(hash_seed(faults.seed, "faulty-bus"))
        # Trace-driven mode: per-link rates come from the active episode
        # of a replayable trace (generated here from the config unless an
        # explicit — e.g. file-loaded — trace is supplied).
        if trace is None and faults.trace is not None:
            trace = FaultTraceGenerator(topology, faults.trace).generate()
        self.trace = trace.validate(topology) if trace is not None else None
        self._trace_cursor = 0
        self._active_episodes: dict[tuple[int, int], object] = {}
        # Self-healing: EWMA link-health monitor driving a routing overlay.
        if faults.selfheal:
            self.overlay: TopologyOverlay | None = TopologyOverlay(topology)
            self.monitor: LinkHealthMonitor | None = LinkHealthMonitor(
                faults, self.overlay
            )
        else:
            self.overlay = None
            self.monitor = None
        n = topology.n_agents
        self._permanently_down = {a for a in faults.crashed_agents if a < n}
        self._online = [a not in self._permanently_down for a in range(n)]
        n_stragglers = int(round(faults.straggler_fraction * n))
        if n_stragglers:
            self._stragglers = set(
                self._rng.choice(n, size=n_stragglers, replace=False).tolist()
            )
        else:
            self._stragglers = set()
        #: delivery round -> messages held back by the delay process.
        self._delayed: dict[int, list[Message]] = {}
        self._sitting_out: set[int] = set()
        #: Agents that flipped offline -> online since the last call to
        #: :meth:`drain_recovered` (the recovery mode's restore queue).
        self._recovered: list[int] = []
        self._draw_straggler_round()
        self._advance_trace()

    # ------------------------------------------------------------------
    # liveness / stragglers
    def is_online(self, agent: int) -> bool:
        """Whether *agent* is currently connected to the fabric."""
        return self._online[agent]

    def online_agents(self) -> list[int]:
        return [a for a, up in enumerate(self._online) if up]

    def sends_this_round(self, agent: int) -> bool:
        """Online and not a straggler sitting out this broadcast round."""
        return self._online[agent] and agent not in self._sitting_out

    def _draw_straggler_round(self) -> None:
        self._sitting_out = {
            a
            for a in sorted(self._stragglers)
            if self._rng.random() < self.faults.straggler_skip_prob
        }

    def _apply_churn(self) -> None:
        f = self.faults
        if f.crash_rate <= 0 and not any(
            not up and a not in self._permanently_down
            for a, up in enumerate(self._online)
        ):
            return
        for a in range(self.topology.n_agents):
            if a in self._permanently_down:
                continue
            if self._online[a]:
                if f.crash_rate > 0 and self._rng.random() < f.crash_rate:
                    self._online[a] = False
                    # A crashing agent loses its unread mailbox.
                    self.stats.n_dropped += len(self._mailboxes[a])
                    self._mailboxes[a] = []
            elif self._rng.random() < f.recovery_rate:
                self._online[a] = True
                self._recovered.append(a)

    # ------------------------------------------------------------------
    # link model: where per-link rates come from
    def _link_rates(self, u: int, v: int) -> tuple[float, float]:
        """(drop_rate, corrupt_rate) for the physical link ``u — v``.

        Trace mode: the active episode's rates (clean links are lossless).
        Otherwise: the global i.i.d. rates from the config.
        """
        if self.trace is not None:
            episode = self._active_episodes.get(link_key(u, v))
            if episode is None:
                return 0.0, 0.0
            return episode.loss_rate, episode.corrupt_rate
        return self.faults.drop_rate, self.faults.corrupt_rate

    def _advance_trace(self) -> None:
        """Move the trace cursor to ``self.round``, updating active episodes."""
        if self.trace is None:
            return
        self._active_episodes = {
            k: e for k, e in self._active_episodes.items() if e.end_round > self.round
        }
        episodes = self.trace.episodes
        while (
            self._trace_cursor < len(episodes)
            and episodes[self._trace_cursor].round <= self.round
        ):
            episode = episodes[self._trace_cursor]
            if episode.end_round > self.round:
                self._active_episodes[episode.link] = episode
            self._trace_cursor += 1

    def _route(self, src: int, dst: int) -> list[int]:
        """Physical hops for a delivery ``src -> dst`` (direct without overlay)."""
        if self.overlay is None:
            return [src, dst]
        route = self.overlay.route(src, dst)
        return route if route is not None else [src, dst]

    def _traverse_hop(self, u: int, v: int, n_params: int) -> bool:
        """One lossy hop with bounded ack/retransmit; ``True`` on delivery.

        Each failed attempt is retried up to ``max_retries`` times; every
        retry is a real (re-)transmission, charged to ``n_tx_params`` on
        top of ``n_retransmits``.  All transmissions and losses are
        attributed to the directed link and fed to the health monitor.
        """
        drop_rate, _ = self._link_rates(u, v)
        f = self.faults
        retries = 0
        delivered_ok = True
        while drop_rate > 0 and self._rng.random() < drop_rate:
            if retries >= f.max_retries:
                delivered_ok = False
                break
            retries += 1
        if retries:
            self.stats.n_retransmits += retries
            self.stats.n_tx_params += retries * n_params
        transmissions = retries + 1
        losses = retries + (0 if delivered_ok else 1)
        self.stats.record_link(
            u,
            v,
            attempts=transmissions,
            retransmits=retries,
            dropped=0 if delivered_ok else 1,
            delivered=1 if delivered_ok else 0,
        )
        if self.monitor is not None:
            self.monitor.observe(u, v, transmissions, losses)
        return delivered_ok

    # ------------------------------------------------------------------
    # transport overrides
    def _sender_on_air(self, src: int) -> bool:
        """A crashed sender's radio never keys up."""
        return self._online[src]

    def _route_neighbors(self, src: int) -> list[int]:
        """Overlay-aware receiver set (base neighbours when not self-healing)."""
        if self.overlay is not None:
            return self.overlay.neighbors(src)
        return self.topology.neighbors(src)

    def send(
        self,
        src: int,
        dst: int,
        payload: Sequence[np.ndarray],
        tag: str = "",
        _count_tx: bool = True,
        _copy: bool = True,
    ) -> None:
        msg = self._make_message(src, dst, payload, tag, copy=_copy)
        f = self.faults
        if not self._online[src]:
            # A crashed sender transmits nothing; the suppressed delivery
            # is tallied so loss accounting stays honest under churn.
            self.stats.n_sender_offline += 1
            return
        if not self._online[dst]:
            self.stats.n_dropped += 1
            # Attributed to the link for completeness, but NOT fed to the
            # health monitor: a crashed receiver is not a lossy link.
            self.stats.record_link(src, dst, attempts=1, dropped=1)
            return
        route = self._route(src, dst)
        if len(route) > 2:
            # Detour around a disabled link: every relay re-transmits the
            # payload, so the extra hops are charged as unicast sends.
            if any(not self._online[relay] for relay in route[1:-1]):
                self.stats.n_dropped += 1
                return
            self.stats.n_tx_params += (len(route) - 2) * msg.n_params
            if self.monitor is not None:
                self.monitor.count_reroute()
        delivered_ok = True
        for u, v in zip(route, route[1:]):
            if not self._traverse_hop(u, v, msg.n_params):
                delivered_ok = False
                break
        if not delivered_ok:
            self.stats.n_dropped += 1
            return
        corrupt_rate = 1.0
        for u, v in zip(route, route[1:]):
            corrupt_rate *= 1.0 - self._link_rates(u, v)[1]
        corrupt_rate = 1.0 - corrupt_rate
        if corrupt_rate > 0 and self._rng.random() < corrupt_rate:
            msg = Message(
                src=msg.src,
                dst=msg.dst,
                tag=msg.tag,
                payload=self._corrupt(msg.payload),
                round=msg.round,
            )
            self.stats.n_corrupted += 1
        if f.delay_rate > 0 and self._rng.random() < f.delay_rate:
            lag = 1 + int(self._rng.integers(f.max_delay_rounds))
            self._delayed.setdefault(self.round + lag, []).append(msg)
            self.stats.n_delayed += 1
            # The transmission happened now even though delivery is late.
            if _count_tx:
                self.stats.n_tx_params += msg.n_params
            return
        self._deliver(msg, count_tx=_count_tx)

    def _corrupt(self, payload: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Damage a payload so that it is *detectably* invalid.

        Two failure shapes seen on real links: bit rot inside an array
        (modelled as NaN poisoning) and a truncated frame (an array loses
        its tail, changing its shape).
        """
        arrays = [a.copy() for a in payload]
        idx = int(self._rng.integers(len(arrays)))
        victim = arrays[idx]
        if self._rng.random() < 0.5 or victim.size <= 1:
            flat = victim.reshape(-1)
            k = max(1, flat.size // 8)
            flat[self._rng.integers(flat.size, size=k)] = np.nan
        else:
            arrays[idx] = victim.reshape(-1)[: victim.size - 1]
        return tuple(arrays)

    def drain_recovered(self) -> list[int]:
        """Agents that came back online since the last drain, in order.

        The recovery mode (``FaultConfig.recover_from_snapshot``) calls
        this after every ``advance_round`` to know whose in-memory state
        must be replaced by its last durable snapshot.
        """
        out, self._recovered = self._recovered, []
        return out

    def _probe_disabled_links(self) -> None:
        """Probe each disabled link so the monitor can observe recovery.

        Rerouting removes all payload traffic from a disabled link, which
        would freeze its loss estimate forever; a few control-plane
        probes per round keep the estimate live so the link is restored
        once its trace episode ends.
        """
        for u, v in self.overlay.disabled_links:
            drop_rate, _ = self._link_rates(u, v)
            lost = sum(
                1 for _ in range(PROBES_PER_ROUND) if self._rng.random() < drop_rate
            )
            self.monitor.observe(u, v, PROBES_PER_ROUND, lost)

    def advance_round(self) -> None:
        """Round boundary: apply churn, then release due delayed messages.

        Churn first: an agent that goes down during the round misses the
        late deliveries landing at its boundary.  Afterwards the trace
        cursor moves to the new round and the health monitor folds the
        finished round's observations into its estimates (probing
        disabled links first so recovery is detectable).
        """
        super().advance_round()
        self._apply_churn()
        for msg in self._delayed.pop(self.round, []):
            if self._online[msg.dst]:
                # tx was charged at send time; delivery counters now.
                self._deliver(msg, count_tx=False)
            else:
                self.stats.n_dropped += 1
        self._draw_straggler_round()
        self._advance_trace()
        if self.monitor is not None:
            self._probe_disabled_links()
            self.monitor.finish_round()

    # ------------------------------------------------------------------
    # Persistence
    def state_dict(self) -> dict:
        """Superclass state plus churn RNG, liveness sets, delay queue,
        trace cursor (guarded by the trace digest) and self-heal state."""
        state = super().state_dict()
        state.update(
            {
                "rng": generator_state(self._rng),
                "online": list(self._online),
                "stragglers": sorted(self._stragglers),
                "sitting_out": sorted(self._sitting_out),
                "recovered": list(self._recovered),
                "delayed": {
                    str(due): [message_state(m) for m in msgs]
                    for due, msgs in self._delayed.items()
                },
            }
        )
        if self.trace is not None:
            state["trace_cursor"] = self._trace_cursor
            state["trace_digest"] = self.trace.digest()
        if self.monitor is not None:
            state["overlay"] = self.overlay.state_dict()
            state["monitor"] = self.monitor.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        super().load_state_dict(state)
        restore_generator(self._rng, state["rng"])
        online = [bool(x) for x in state["online"]]
        if len(online) != len(self._online):
            raise ValueError("online vector does not match this topology")
        self._online = online
        self._stragglers = {int(a) for a in state["stragglers"]}
        self._sitting_out = {int(a) for a in state["sitting_out"]}
        self._recovered = [int(a) for a in state["recovered"]]
        self._delayed = {
            int(due): [message_from_state(m) for m in msgs]
            for due, msgs in state["delayed"].items()
        }
        if self.trace is not None:
            if "trace_digest" not in state:
                raise ValueError("checkpoint was written without a fault trace")
            if state["trace_digest"] != self.trace.digest():
                raise ValueError(
                    "checkpoint was written under a different fault trace; "
                    "resuming it here would silently diverge"
                )
            self._trace_cursor = int(state["trace_cursor"])
            self._active_episodes = dict(self.trace.active_at(self.round))
        elif "trace_digest" in state:
            raise ValueError("checkpoint expects a fault trace but none is configured")
        if self.monitor is not None:
            self.overlay.load_state_dict(state["overlay"])
            self.monitor.load_state_dict(state["monitor"])


class ReceiveFilter:
    """Receiver-side policy: validate, age-gate and quorum-gate payloads.

    One instance per (agent, aggregation round).  Feed it the collected
    messages via :meth:`admit`; it quarantines corrupted payloads,
    rejects payloads older than the staleness horizon, and computes the
    staleness-discounted client weights for the survivors.  ``accept``
    then answers the quorum question.  All rejections are tallied on the
    shared :class:`~repro.federated.transport.TransportStats`.
    """

    def __init__(
        self,
        bus: MessageBus,
        faults: FaultConfig,
        reference: Sequence[np.ndarray],
        n_expected: int,
    ) -> None:
        self.bus = bus
        self.faults = faults
        self.reference = reference
        self.n_expected = int(n_expected)
        self.payloads: list[list[np.ndarray]] = []
        self.ages: list[int] = []
        #: Sender id of each admitted payload (aligned with ``payloads``)
        #: — lets consumers weight survivors per sender, e.g. the
        #: hierarchical upper tier weighting cluster means by size.
        self.srcs: list[int] = []

    def admit(self, messages: Sequence[Message]) -> "ReceiveFilter":
        for msg in messages:
            if not payload_matches(msg.payload, self.reference):
                self.bus.stats.n_quarantined += 1
                continue
            age = max(0, self.bus.round - msg.round)
            if age > self.faults.staleness_horizon:
                self.bus.stats.n_stale_rejected += 1
                continue
            self.payloads.append(list(msg.payload))
            self.ages.append(age)
            self.srcs.append(msg.src)
        return self

    def accept(self) -> bool:
        """Quorum check: heard from enough neighbours to aggregate?

        Counts a quorum skip on the shared stats when the round is
        gated, so call exactly once per (agent, device, round).
        """
        needed = self.faults.quorum_fraction * self.n_expected
        if not self.payloads:
            if needed > 0:
                self.bus.stats.n_quorum_skips += 1
            return False
        if len(self.payloads) < needed:
            self.bus.stats.n_quorum_skips += 1
            return False
        return True

    def client_weights(self, n_local: int = 1) -> np.ndarray:
        """Staleness-discounted weights for [local x n_local, *payloads]."""
        discounts = staleness_weights(
            self.ages, self.faults.staleness_horizon, self.faults.staleness_decay
        )
        return np.concatenate([np.ones(n_local), discounts])
