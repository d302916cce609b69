"""Simulated message transport with cost accounting.

The real system broadcasts model parameters over a residential LAN; the
algorithms only need (a) delivery of weight arrays between agents and
(b) an account of what crossed the wire.  ``MessageBus`` provides both:
synchronous per-agent mailboxes plus cumulative message / parameter /
byte counters, which back the paper's communication-overhead arguments
(PFDRL broadcasts fewer parameters than FRL because only α of 8 layers
travel — Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.federated.topology import Topology

__all__ = [
    "Message",
    "TransportStats",
    "MessageBus",
    "message_state",
    "message_from_state",
]

BYTES_PER_PARAM = 8  # float64 on the wire


def _freeze_payload(payload: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One immutable deep copy of *payload*.

    The copy decouples the message from later sender-side mutation; the
    read-only flag lets a broadcast share a single frozen tuple across
    all recipients (any accidental in-place write raises instead of
    corrupting sibling deliveries).
    """
    out = []
    for a in payload:
        arr = np.array(a, dtype=np.float64, copy=True)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class Message:
    """One delivered parameter payload.

    ``round`` stamps the broadcast round the payload was *sent* in
    (``bus.round`` at send time) so receivers can age-gate stale weights;
    on the fault-free bus every payload is collected in the round it was
    sent, so its age is always 0.
    """

    src: int
    dst: int
    tag: str
    payload: tuple[np.ndarray, ...]
    round: int = 0

    @property
    def n_params(self) -> int:
        return sum(int(a.size) for a in self.payload)

    @property
    def nbytes(self) -> int:
        return self.n_params * BYTES_PER_PARAM


def message_state(msg: Message) -> dict:
    """A :class:`Message` as a checkpointable state tree."""
    return {
        "src": msg.src,
        "dst": msg.dst,
        "tag": msg.tag,
        "round": msg.round,
        "payload": [a.copy() for a in msg.payload],
    }


def message_from_state(state: dict) -> Message:
    """Rebuild a :class:`Message` from :func:`message_state` output."""
    return Message(
        src=int(state["src"]),
        dst=int(state["dst"]),
        tag=str(state["tag"]),
        payload=tuple(np.asarray(a, dtype=np.float64) for a in state["payload"]),
        round=int(state["round"]),
    )


@dataclass
class TransportStats:
    """Cumulative transport counters.

    ``n_params`` counts *deliveries* (each receiver's copy); on a shared
    broadcast medium (residential LAN/WiFi — the paper's setting) one
    radio transmission reaches every neighbour, so ``n_tx_params``
    additionally counts each payload once per transmission, which is the
    fair wire-cost metric for the time-overhead comparison (Fig. 14).
    """

    n_messages: int = 0
    n_params: int = 0
    n_bytes: int = 0
    n_tx_params: int = 0
    per_agent_sent: dict[int, int] = field(default_factory=dict)
    per_tag_params: dict[str, int] = field(default_factory=dict)
    #: Fault-fabric counters — retries after a lost delivery, deliveries
    #: lost for good, deliveries that arrived late, payloads corrupted in
    #: flight, receiver-side quarantines (invalid payload detected),
    #: stale payloads rejected by the aggregation horizon, and
    #: aggregation rounds skipped for quorum.  On a reliable link all
    #: stay 0 but the quarantines, which also count a sender's own
    #: non-finite weights.
    n_retransmits: int = 0
    n_dropped: int = 0
    n_delayed: int = 0
    n_corrupted: int = 0
    n_quarantined: int = 0
    n_stale_rejected: int = 0
    n_quorum_skips: int = 0
    #: Snapshot restores performed by the recovery mode (an agent coming
    #: back from crash churn reloading its last durable checkpoint).
    n_restores: int = 0
    #: Deliveries suppressed because the *sender* was offline (the radio
    #: never keyed up — distinct from ``n_dropped``, which counts losses
    #: of transmissions that did happen).
    n_sender_offline: int = 0
    #: Per-link delivery accounting, keyed by directed ``(src, dst)``:
    #: delivery attempts, link-level retransmissions, final losses and
    #: successful deliveries.  Populated by the fault fabric so loss is
    #: attributable to *links* rather than agents; stays empty on the
    #: reliable bus.
    per_link: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        """Scalar counters as one flat dict (the telemetry export view).

        Per-agent / per-tag breakdowns are deliberately excluded — they
        are unbounded in size; the registry mirrors the scalar totals.
        """
        return {
            "n_messages": self.n_messages,
            "n_params": self.n_params,
            "n_bytes": self.n_bytes,
            "n_tx_params": self.n_tx_params,
            "n_retransmits": self.n_retransmits,
            "n_dropped": self.n_dropped,
            "n_delayed": self.n_delayed,
            "n_corrupted": self.n_corrupted,
            "n_quarantined": self.n_quarantined,
            "n_stale_rejected": self.n_stale_rejected,
            "n_quorum_skips": self.n_quorum_skips,
            "n_restores": self.n_restores,
            "n_sender_offline": self.n_sender_offline,
        }

    def delivery_ratio(self) -> float:
        """Fraction of intended deliveries that actually arrived.

        Successes over successes plus final losses plus deliveries the
        offline sender never transmitted; 1.0 when nothing was attempted.
        """
        attempted = self.n_messages + self.n_dropped + self.n_sender_offline
        if attempted == 0:
            return 1.0
        return self.n_messages / attempted

    def record_link(
        self,
        src: int,
        dst: int,
        *,
        attempts: int = 0,
        retransmits: int = 0,
        dropped: int = 0,
        delivered: int = 0,
    ) -> None:
        """Attribute delivery outcomes to the directed link ``src -> dst``."""
        link = self.per_link.get((src, dst))
        if link is None:
            link = self.per_link[(src, dst)] = {
                "attempts": 0,
                "retransmits": 0,
                "dropped": 0,
                "delivered": 0,
            }
        link["attempts"] += attempts
        link["retransmits"] += retransmits
        link["dropped"] += dropped
        link["delivered"] += delivered

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree: every scalar
        counter plus the per-agent / per-tag / per-link breakdowns."""
        return {
            **self.as_dict(),
            "per_agent_sent": {str(k): v for k, v in self.per_agent_sent.items()},
            "per_tag_params": dict(self.per_tag_params),
            "per_link": {
                f"{src}->{dst}": dict(counters)
                for (src, dst), counters in self.per_link.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        for name in self.as_dict():
            setattr(self, name, int(state.get(name, 0)))
        self.per_agent_sent = {int(k): int(v) for k, v in state["per_agent_sent"].items()}
        self.per_tag_params = {k: int(v) for k, v in state["per_tag_params"].items()}
        self.per_link = {}
        for key, counters in state.get("per_link", {}).items():
            src, dst = key.split("->")
            self.per_link[(int(src), int(dst))] = {
                k: int(v) for k, v in counters.items()
            }

    def add(self, other: "TransportStats") -> "TransportStats":
        """Fold *other*'s counters into this one (returns ``self``).

        Used by the hierarchical federation to aggregate the per-cluster
        tier-0 buses into one tier total; per-agent / per-tag / per-link
        breakdowns are merged key-wise.
        """
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        for agent, n in other.per_agent_sent.items():
            self.per_agent_sent[agent] = self.per_agent_sent.get(agent, 0) + n
        for tag, n in other.per_tag_params.items():
            self.per_tag_params[tag] = self.per_tag_params.get(tag, 0) + n
        for (src, dst), counters in other.per_link.items():
            self.record_link(src, dst, **counters)
        return self

    @classmethod
    def total(cls, stats: "Sequence[TransportStats]") -> "TransportStats":
        """A fresh :class:`TransportStats` summing every entry of *stats*."""
        out = cls()
        for s in stats:
            out.add(s)
        return out

    def record(self, msg: Message, count_tx: bool = True) -> None:
        self.n_messages += 1
        self.n_params += msg.n_params
        self.n_bytes += msg.nbytes
        if count_tx:
            self.n_tx_params += msg.n_params
        self.per_agent_sent[msg.src] = self.per_agent_sent.get(msg.src, 0) + 1
        self.per_tag_params[msg.tag] = self.per_tag_params.get(msg.tag, 0) + msg.n_params


class MessageBus:
    """Synchronous mailbox transport over a :class:`Topology`.

    ``broadcast`` copies the payload into each neighbour's mailbox (a real
    radio/LAN broadcast is still one receive per neighbour, which is what
    the cost model should count).  ``collect`` drains an agent's mailbox.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.stats = TransportStats()
        #: Broadcast-round counter: advanced by the trainers after every
        #: broadcast event; stamps outgoing messages for staleness checks.
        self.round = 0
        self._mailboxes: dict[int, list[Message]] = {
            a: [] for a in range(topology.n_agents)
        }

    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: Sequence[np.ndarray],
        tag: str = "",
        _count_tx: bool = True,
        _copy: bool = True,
    ) -> None:
        """Point-to-point delivery (must follow a topology edge).

        ``_copy=False`` is the broadcast fast path: the caller already
        froze the payload with :func:`_freeze_payload` and every
        recipient shares the same immutable arrays.
        """
        msg = self._make_message(src, dst, payload, tag, copy=_copy)
        self._deliver(msg, count_tx=_count_tx)

    def _make_message(
        self,
        src: int,
        dst: int,
        payload: Sequence[np.ndarray],
        tag: str,
        copy: bool = True,
    ) -> Message:
        """Validate endpoints and freeze the payload into a Message."""
        if dst not in self._mailboxes:
            raise KeyError(f"unknown agent {dst}")
        if dst not in self.topology.neighbors(src):
            raise ValueError(f"no link {src} -> {dst} in topology {self.topology.name!r}")
        return Message(
            src=src,
            dst=dst,
            tag=tag,
            payload=_freeze_payload(payload) if copy else tuple(payload),
            round=self.round,
        )

    def _deliver(self, msg: Message, count_tx: bool = True) -> None:
        """Place *msg* in its destination mailbox and account for it."""
        self._mailboxes[msg.dst].append(msg)
        self.stats.record(msg, count_tx=count_tx)

    def _sender_on_air(self, src: int) -> bool:
        """Whether *src*'s radio actually transmits (hook for fault fabrics)."""
        return True

    def is_online(self, agent: int) -> bool:
        """Whether *agent* is connected to the fabric (always, here)."""
        return True

    def sends_this_round(self, agent: int) -> bool:
        """Whether *agent* broadcasts this round (no stragglers here)."""
        return True

    def drain_recovered(self) -> list[int]:
        """Agents back from a crash since the last drain (none here)."""
        return []

    def _route_neighbors(self, src: int) -> list[int]:
        """Broadcast receiver set for *src* (hook for routing overlays)."""
        return self.topology.neighbors(src)

    def broadcast(self, src: int, payload: Sequence[np.ndarray], tag: str = "") -> int:
        """Deliver to every neighbour of *src*; returns receiver count.

        Counts as ONE transmission in ``stats.n_tx_params`` (a shared-
        medium broadcast), while every neighbour still receives a copy.
        The transmission is charged up front, independent of per-link
        delivery outcomes — a radio broadcast costs the same whether or
        not any particular receiver hears it.  An agent with zero
        neighbours still transmits once (nobody is listening, but the
        radio cost is real and is accounted); only an offline sender
        (``_sender_on_air``) transmits nothing.
        """
        if self._sender_on_air(src):
            self.stats.n_tx_params += sum(int(np.asarray(a).size) for a in payload)
        neighbors = self._route_neighbors(src)
        # One defensive copy for the whole broadcast: messages are
        # immutable (the frozen arrays are read-only), so every
        # neighbour can share the same payload tuple.  The old
        # copy-per-recipient behaviour made a dense-mesh share round
        # O(agents x neighbours x model size) in memcpy alone.
        frozen = _freeze_payload(payload)
        for dst in neighbors:
            self.send(src, dst, frozen, tag=tag, _count_tx=False, _copy=False)
        return len(neighbors)

    def advance_round(self) -> None:
        """Mark the end of one broadcast event (round boundary)."""
        self.round += 1

    def collect(self, agent: int, tag: str | None = None) -> list[Message]:
        """Drain (and return) *agent*'s mailbox, optionally filtered by tag.

        Messages with other tags remain queued.
        """
        if agent not in self._mailboxes:
            raise KeyError(f"unknown agent {agent}")
        box = self._mailboxes[agent]
        if tag is None:
            out, self._mailboxes[agent] = box, []
            return out
        out = [m for m in box if m.tag == tag]
        self._mailboxes[agent] = [m for m in box if m.tag != tag]
        return out

    def pending(self, agent: int) -> int:
        if agent not in self._mailboxes:
            raise KeyError(f"unknown agent {agent}")
        return len(self._mailboxes[agent])

    # ------------------------------------------------------------------
    # Persistence
    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree: the round
        counter, cumulative stats and every queued mailbox."""
        return {
            "round": self.round,
            "stats": self.stats.state_dict(),
            "mailboxes": {
                str(agent): [message_state(m) for m in box]
                for agent, box in self._mailboxes.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self.round = int(state["round"])
        self.stats.load_state_dict(state["stats"])
        mailboxes = {int(k): v for k, v in state["mailboxes"].items()}
        if set(mailboxes) != set(self._mailboxes):
            raise ValueError("mailbox agent set does not match this topology")
        for agent, box in mailboxes.items():
            self._mailboxes[agent] = [message_from_state(m) for m in box]
