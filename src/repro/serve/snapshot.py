"""Immutable model snapshots loaded from the checkpoint store.

A :class:`ModelSnapshot` is the deployable unit of this repo: one
checkpoint (forecasters + DQN weights) rebound into a read-only
:class:`repro.rl.batch.StackedQNet` arena plus frozen per-residence
forecasters, verified against the serving configuration's digest.  It
answers "next-hour schedule" queries (:class:`ScheduleQuery` →
:class:`ScheduleAnswer`) for whole batches at once through the
vectorised greedy path, bit-identical to streaming the same readings
through an :class:`repro.core.OnlineController` built from the same
checkpoint:

- forecasts follow the *exact* controller refresh rule
  (:func:`repro.core.controller.forecast_block` — persistence until a
  full lag window exists, then one model prediction per horizon
  boundary), but stacked: every ``(query, horizon block)`` of one
  (residence, device) in a batch goes through one ``forecast_block``
  call, whose model rows are one
  :meth:`~repro.forecast.Forecaster.predict_rows` forward, each row
  bitwise a batch of one;
- actions come from one broadcast matmul over ``(M, T, state_dim)``
  stacked states followed by ``argmax`` — the repo's pinned
  gemm-argmax ≡ per-minute-argmax contract (see ``repro.rl.batch``);
- controlled power uses the training environment's pass-through
  semantics (:func:`repro.rl.env.apply_actions`), and withheld energy
  the controller's per-minute running sum.

Immutability is enforced, not advisory: every weight stack, every
member-parameter view and every forecaster array is marked
non-writeable, so an accidental in-place update (a stray ``set_weights``
or optimizer step against a serving snapshot) raises instead of
corrupting in-flight queries.  Hot-swap therefore never mutates — a new
checkpoint becomes a *new* snapshot and the engine repoints atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.config import DataConfig, PFDRLConfig
from repro.core.controller import (
    DeviceNominals,
    OnlineController,
    check_readings,
    forecast_block,
)
from repro.core.system import config_digest
# Imported but not called: perfbench's traced runs wrap this module name.
from repro.data.generator import generate_neighborhood  # noqa: F401
from repro.data.residence import make_profiles
from repro.federated.dfl import DFLClient
from repro.nn.serialization import set_weights
from repro.persist.checkpoint import CheckpointError
from repro.persist.store import CheckpointStore
from repro.rl.batch import StackedQNet
from repro.rl.env import apply_actions
from repro.rl.qnet import build_states, make_qnet

__all__ = [
    "ModelSnapshot",
    "ScheduleQuery",
    "ScheduleAnswer",
    "SnapshotError",
    "device_nominals",
]


class SnapshotError(RuntimeError):
    """A checkpoint cannot be served (wrong stage, unknown residence…)."""


def device_nominals(data: DataConfig) -> dict[int, dict[str, DeviceNominals]]:
    """Every residence's per-device nominal powers, in dataset device order.

    Equal to the ``on_kw``/``standby_kw`` of
    ``generate_neighborhood(data)``'s traces, which copy them from the
    same seeded :func:`~repro.data.residence.make_profiles` profiles, at
    the cost of drawing the profiles alone.
    """
    profiles = make_profiles(
        data.n_residences, data.device_types, data.heterogeneity, data.seed
    )
    return {
        p.residence_id: {
            dev: DeviceNominals(p.on_kw(dev), p.standby_kw(dev))
            for dev in p.device_types
        }
        for p in profiles
    }


@dataclass(frozen=True)
class ScheduleQuery:
    """One residence asks for its next-hour(s) schedule.

    ``readings`` maps every managed device to an aligned per-minute kW
    trace (what the hub metered); ``t0`` is the absolute minute-of-day
    phase of the first reading (the controller's calendar anchor).
    Queries are stateless: each one is answered exactly as a fresh
    :class:`~repro.core.OnlineController` streaming these readings from
    its first minute would act.
    """

    residence_id: int
    readings: Mapping[str, np.ndarray]
    t0: int = 0


@dataclass
class ScheduleAnswer:
    """Per-device minute schedule plus the bookkeeping a hub wants."""

    residence_id: int
    #: Per-device actions per minute (0 = off, 1 = standby, 2 = on).
    actions: dict[str, np.ndarray]
    #: The forecast trace the decisions were made against (kW).
    predicted_kw: dict[str, np.ndarray]
    #: The draw the schedule produces under pass-through semantics (kW).
    controlled_kw: dict[str, np.ndarray]
    #: Energy the schedule withholds vs the metered readings (kWh).
    saved_kwh: float
    #: Which snapshot answered (``ckpt-XXXXXXXX``) — hot-swap audit trail.
    generation: str
    #: Service latency stamped by the engine (0 when answered directly).
    latency_s: float = 0.0


@dataclass(frozen=True)
class _Residence:
    """One residence's serving-side view: frozen models + nominals."""

    forecasters: Mapping[str, object]
    nominals: Mapping[str, DeviceNominals]
    #: device (or ``"*"`` in residence scope) → row in the Q-net stack.
    rows: Mapping[str, int]


def _freeze_tree(obj, seen: set[int]) -> None:
    """Mark every ndarray reachable from *obj* read-only (best effort)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return
    if isinstance(obj, dict):
        for v in obj.values():
            _freeze_tree(v, seen)
        return
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _freeze_tree(v, seen)
        return
    if hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            _freeze_tree(v, seen)


class _GreedyAgent:
    """Greedy ``act()`` adapter over one frozen member Q-net.

    Computes exactly what :meth:`repro.rl.dqn.DQNAgent.act` computes in
    greedy mode (batch-of-1 forward, first-index argmax) — used for the
    per-request :class:`OnlineController` baseline and the equivalence
    tests.
    """

    __slots__ = ("qnet",)

    def __init__(self, qnet) -> None:
        self.qnet = qnet

    def act(self, state: np.ndarray, greedy: bool = True) -> int:
        q = self.qnet.forward(np.asarray(state, dtype=np.float64)[None, :])[0]
        return int(np.argmax(q))


class ModelSnapshot:
    """Read-only serving view over one checkpoint.

    Build with :meth:`load`; never construct incrementally.  All model
    arrays are frozen and the DQN weights of every (residence, slot)
    agent live as rows of one :class:`StackedQNet`, so a batch of
    queries across residences is one broadcast matmul.
    """

    def __init__(
        self,
        config: PFDRLConfig,
        step: int,
        residences: dict[int, _Residence],
        stack: StackedQNet,
        meta: dict,
    ) -> None:
        self.config = config
        self.step = int(step)
        self.generation = f"ckpt-{self.step:08d}"
        self.meta = dict(meta)
        self.minutes_per_day = int(config.data.minutes_per_day)
        self._residences = residences
        self.stack = stack

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        store: CheckpointStore,
        config: PFDRLConfig,
        step: int | None = None,
        *,
        forecast_mode: str = "decentralized",
        sharing: str = "personalized",
        verify: bool = True,
    ) -> "ModelSnapshot":
        """Load a checkpoint (default: latest) as a frozen snapshot.

        Refuses checkpoints written under a different configuration or
        pipeline variant (digest guard, same rule as resume) and
        checkpoints that predate the EMS training stage (nothing to
        serve yet).
        """
        state, manifest = store.load(step=step, verify=verify)
        meta = dict(manifest.get("meta", {}))
        recorded = meta.get("config_sha256")
        expected = config_digest(config, forecast_mode, sharing)
        if recorded is not None and recorded != expected:
            raise CheckpointError(
                "checkpoint was written under a different configuration "
                f"(digest {recorded[:12]}… vs {expected[:12]}…); serving it "
                "under this config would bind weights to the wrong homes"
            )
        if "dfl" not in state or "drl" not in state:
            raise SnapshotError(
                "checkpoint predates the EMS training stage — nothing to serve"
            )
        ckpt_step = int(meta.get("step", step if step is not None else -1))
        if ckpt_step < 0:
            ckpt_step = store.latest_step() or 0

        # Per-residence device nominals come from the seeded profiles the
        # dataset is generated from (a trace copies its on/standby levels
        # from its profile), in the dataset's device order — no minute
        # trace is generated.
        nominals_by_rid = device_nominals(config.data)
        clients_state = state["dfl"]["clients"]
        agents_state = state["drl"]["agents"]

        # Rebuild the agents' Q-nets in sorted key order and stack them.
        def _key(item):
            rid, slot = item.split("/", 1)
            return (int(rid), slot)

        qnets = []
        rows_by_key: dict[tuple[int, str], int] = {}
        for key in sorted(agents_state, key=_key):
            rid_s, slot = key.split("/", 1)
            qnet = make_qnet(config.dqn, rng=0)
            set_weights(qnet, [np.asarray(w) for w in agents_state[key]["qnet"]])
            rows_by_key[(int(rid_s), slot)] = len(qnets)
            qnets.append(qnet)
        stack = StackedQNet(qnets)

        residences: dict[int, _Residence] = {}
        for rid_s, client_state in clients_state.items():
            rid = int(rid_s)
            nominals = nominals_by_rid[rid]
            # The client only hosts the forecasters here; serving never
            # trains, so it needs no training series.
            client = DFLClient(
                rid,
                {dev: np.empty(0) for dev in nominals},
                config.forecast,
                minutes_per_day=config.data.minutes_per_day,
                seed=config.seed,
            )
            client.load_state_dict(client_state)
            rows = {
                slot: row
                for (r, slot), row in rows_by_key.items()
                if r == rid
            }
            residences[rid] = _Residence(
                forecasters=client.forecasters, nominals=nominals, rows=rows
            )

        snapshot = cls(config, ckpt_step, residences, stack, meta)
        snapshot._freeze()
        return snapshot

    def _freeze(self) -> None:
        """Make every model array read-only — snapshots never mutate."""
        for arr in self.stack._weights + self.stack._biases:
            arr.flags.writeable = False
        # Member parameter views were carved before the stacks froze, so
        # their writeable flags must drop explicitly.
        for qnet in self.stack.qnets:
            for p in qnet.parameters():
                p.data.flags.writeable = False
        seen: set[int] = set()
        for res in self._residences.values():
            for fc in res.forecasters.values():
                _freeze_tree(fc, seen)

    # ------------------------------------------------------------------
    def residences(self) -> tuple[int, ...]:
        return tuple(sorted(self._residences))

    def devices(self, residence_id: int) -> tuple[str, ...]:
        return tuple(self._residence(residence_id).forecasters)

    def _residence(self, residence_id: int) -> _Residence:
        try:
            return self._residences[int(residence_id)]
        except KeyError:
            raise SnapshotError(
                f"residence {residence_id} is not in this snapshot "
                f"(has {self.residences()})"
            ) from None

    def row_for(self, residence_id: int, device: str) -> int:
        """Stack row of the agent deciding for (residence, device)."""
        rows = self._residence(residence_id).rows
        if "*" in rows:  # residence scope: one agent for all devices
            return rows["*"]
        try:
            return rows[device]
        except KeyError:
            raise SnapshotError(
                f"no agent for device {device!r} of residence {residence_id}"
            ) from None

    # ------------------------------------------------------------------
    def controller(self, residence_id: int, t0: int = 0) -> OnlineController:
        """A fresh per-request :class:`OnlineController` on this snapshot.

        The serving engine's per-request baseline (and the equivalence
        oracle in tests): streams minutes through the frozen models one
        at a time.  Only available in residence agent scope — the
        controller interface drives one agent for all devices.
        """
        res = self._residence(residence_id)
        if "*" not in res.rows:
            raise SnapshotError(
                "per-request controllers need residence agent scope "
                "(one agent per home); this snapshot is device-scoped"
            )
        agent = _GreedyAgent(self.stack.qnets[res.rows["*"]])
        return OnlineController(
            forecasters=dict(res.forecasters),
            agent=agent,
            nominals=dict(res.nominals),
            minutes_per_day=self.minutes_per_day,
            t0=t0,
        )

    # ------------------------------------------------------------------
    def schedule(self, queries: list[ScheduleQuery]) -> list[ScheduleAnswer]:
        """Answer a batch of queries through the vectorised greedy path.

        Three steps:

        1. validate every query (known residence, exactly its devices,
           aligned 1-D readings of at least one minute, finite and
           non-negative — :func:`~repro.core.controller.check_readings`);
        2. forecast: gather every ``(query, horizon block)`` of one
           (residence, device) — the readings before the block, its
           minute offset and the query's ``t0`` — and make one
           :func:`~repro.core.controller.forecast_block` call per group,
           so each forecaster runs one stacked forward per batch, each
           row exactly as the per-minute controller's batch of one;
        3. decide: all per-minute Q evaluations across the batch collapse
           into one broadcast matmul per aligned trace length, then the
           shared action → draw rule.
        """
        # 1. Validate.
        homes: list[_Residence] = []
        readings: list[dict[str, np.ndarray]] = []
        for query in queries:
            res = self._residence(query.residence_id)
            if set(query.readings) != set(res.forecasters):
                raise ValueError(
                    f"query for residence {query.residence_id} must cover "
                    f"exactly {sorted(res.forecasters)}, got "
                    f"{sorted(query.readings)}"
                )
            lengths = {np.asarray(t).shape[0] for t in query.readings.values()}
            if len(lengths) != 1:
                raise ValueError("query readings must be aligned")
            (n_minutes,) = lengths
            if n_minutes < 1:
                raise ValueError("query readings must cover at least one minute")
            real_by_device = {}
            for device, trace in query.readings.items():
                real = np.asarray(trace, dtype=np.float64)
                if real.ndim != 1:
                    raise ValueError(f"reading for {device!r} must be 1-D")
                real_by_device[device] = real
            check_readings(real_by_device)
            homes.append(res)
            readings.append(real_by_device)

        # 2. Forecast: one forecast_block call per (residence, device),
        # over the rows (query idx, block start) of all its queries.
        rows_of: dict[tuple[int, str], list[tuple[int, int]]] = {}
        first_row: dict[tuple[int, str], int] = {}
        for qi, query in enumerate(queries):
            for device, real in readings[qi].items():
                rows = rows_of.setdefault((int(query.residence_id), device), [])
                first_row[qi, device] = len(rows)
                horizon = homes[qi].forecasters[device].horizon
                rows.extend((qi, lo) for lo in range(0, real.shape[0], horizon))
        blocks_of: dict[tuple[int, str], np.ndarray] = {}
        for (rid, device), rows in rows_of.items():
            res = self._residences[rid]
            blocks_of[rid, device], _ = forecast_block(
                res.forecasters[device],
                [readings[qi][device][:lo] for qi, lo in rows],
                res.nominals[device],
                [lo for _, lo in rows],
                self.minutes_per_day,
                t0=[queries[qi].t0 for qi, _ in rows],
            )

        # 3. Decide: states, one stacked forward + argmax per distinct
        # trace length, controlled draw.
        predicted: list[dict[str, np.ndarray]] = []
        # (trace length) -> list of (query idx, device, row, states)
        groups: dict[int, list[tuple[int, str, int, np.ndarray]]] = {}
        for qi, query in enumerate(queries):
            predicted.append({})
            for device, real in readings[qi].items():
                # A query's blocks are consecutive rows of its group, so
                # its forecast trace is the first n values from its first row.
                blocks = blocks_of[int(query.residence_id), device]
                first = first_row[qi, device]
                forecast = blocks[first:].reshape(-1)[: real.shape[0]].copy()
                predicted[qi][device] = forecast
                nom = homes[qi].nominals[device]
                states = build_states(forecast, real, nom.on_kw, nom.standby_kw, device)
                row = self.row_for(query.residence_id, device)
                groups.setdefault(real.shape[0], []).append((qi, device, row, states))

        actions_by_item: dict[tuple[int, str], np.ndarray] = {}
        for items in groups.values():
            stacked = np.stack([states for (_, _, _, states) in items])
            rows = np.asarray([row for (_, _, row, _) in items])
            q_values = self.stack.forward_batch(stacked, rows=rows)
            acts = q_values.argmax(axis=2).astype(np.int64)
            for (qi, device, _, _), a in zip(items, acts):
                actions_by_item[(qi, device)] = a

        answers: list[ScheduleAnswer] = []
        for qi, query in enumerate(queries):
            res = homes[qi]
            actions: dict[str, np.ndarray] = {}
            controlled_kw: dict[str, np.ndarray] = {}
            for device, real in readings[qi].items():
                a = actions_by_item[(qi, device)]
                actions[device] = a
                controlled_kw[device] = apply_actions(
                    a, real, res.nominals[device].standby_kw
                )
            # The controller's rule: per device a running sum of each
            # minute's withheld energy, then the devices in its order.
            withheld = np.stack(
                [readings[qi][d] - controlled_kw[d] for d in res.forecasters]
            )
            saved = 0.0
            for device_kwh in np.cumsum(withheld / 60.0, axis=1)[:, -1].tolist():
                saved += device_kwh
            answers.append(
                ScheduleAnswer(
                    residence_id=int(query.residence_id),
                    actions=actions,
                    predicted_kw=predicted[qi],
                    controlled_kw=controlled_kw,
                    saved_kwh=saved,
                    generation=self.generation,
                )
            )
        return answers
