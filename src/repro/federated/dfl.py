"""Algorithm 1 — Decentralized Federated Learning for load forecasting.

Each residence's agent holds one forecaster per device type.  Simulated
time advances day by day; within a day, local training happens on the
stream segments between broadcast events (period β), and at each event
every agent broadcasts each device model's weights to its topology
neighbours and averages what it received with its own (per device type).

Three sharing modes cover the paper's comparison column "Load
Forecasting" (Table 2):

- ``"decentralized"`` — the paper's DFL: full-mesh broadcast, local
  aggregation (no server).
- ``"centralized"``  — classic FL: star topology through a central hub
  (the cloud), with up/downlink accounting.
- ``"local"``        — no communication at all.
- ``"cloud"``        — the pre-FL baseline: raw windows are pooled at the
  hub, one global model per device type is trained there and pushed to
  every client (``data_bytes_uploaded`` records the privacy cost).

Features: the lag window of normalised power plus the target's
minute-of-day phase (see
:func:`repro.forecast.features.augment_time_features`).  Evaluation uses
the paper's next-hour energy accuracy
(:func:`repro.metrics.accuracy.horizon_energy_accuracy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import FaultConfig, FederationConfig, ForecastConfig
from repro.data.dataset import NeighborhoodDataset
from repro.federated.faults import ReceiveFilter, make_bus
from repro.federated.scheduler import BroadcastScheduler
from repro.federated.topology import make_topology
from repro.forecast import Forecaster, make_forecaster, make_windows, normalize_power
from repro.forecast.features import augment_time_features
from repro.metrics.accuracy import horizon_energy_accuracy
from repro.nn.serialization import average_weights
from repro.obs.telemetry import Telemetry, ensure_telemetry
from repro.rng import hash_seed

__all__ = ["DFLClient", "DFLTrainer", "DFLRoundResult"]


class DFLClient:
    """One residence's forecasting agent: a model per device type."""

    def __init__(
        self,
        residence_id: int,
        series: dict[str, np.ndarray],
        config: ForecastConfig,
        minutes_per_day: int = 1440,
        seed: int = 0,
    ) -> None:
        self.residence_id = residence_id
        self.series = {d: np.asarray(s, dtype=np.float64) for d, s in series.items()}
        self.config = config
        self.minutes_per_day = int(minutes_per_day)
        self.forecasters: dict[str, Forecaster] = {}
        #: Next stream minute whose window has not been consumed yet —
        #: lets arbitrarily short training segments accumulate until a
        #: full (window + horizon) span is available instead of being
        #: dropped (crucial for sub-hour broadcast periods).
        self._cursor: dict[str, int] = {}
        for device in self.series:
            kwargs: dict = {"n_extra": config.n_extra}
            if config.model != "lr":
                kwargs["seed"] = hash_seed(seed, "fc", residence_id, device)
            self.forecasters[device] = make_forecaster(
                config.model, config.window, config.horizon, **kwargs
            )
            self._cursor[device] = 0

    @property
    def device_types(self) -> tuple[str, ...]:
        return tuple(self.series)

    # ------------------------------------------------------------------
    def _features(
        self, series: np.ndarray, t0: int, stride: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Windows + targets + offsets with the configured featurisation."""
        cfg = self.config
        X, y, offsets = make_windows(
            series, cfg.window, cfg.horizon, stride=stride, return_offsets=True
        )
        if cfg.time_features and X.shape[0] > 0:
            X = augment_time_features(
                X, offsets, self.minutes_per_day, t0=t0, harmonics=cfg.time_harmonics
            )
        elif cfg.time_features:
            X = np.zeros((0, cfg.input_dim))
        return X, y, offsets

    def train_segment(self, device: str, start: int, stop: int) -> float:
        """Fit the device model on the stream up to minute *stop*.

        Consumes all windows whose targets start at or after the device's
        cursor (which may lag *start* when earlier segments were too short
        to form a window); the window lookback may reach before the
        cursor (history is known).  Returns NaN, leaving the cursor where
        it was, when still not enough data has accumulated.
        """
        series = self.series[device]
        stop = min(stop, series.shape[0])
        base = max(0, self._cursor[device] - self.config.window)
        X, y, offsets = self._features(
            series[base:stop], t0=base, stride=self.config.stride
        )
        if X.shape[0] == 0:
            return float("nan")
        self._cursor[device] = base + int(offsets[-1]) + self.config.stride
        return self.forecasters[device].fit(X, y)

    def state_dict(self) -> dict:
        """Full client state: per-device forecasters plus stream cursors."""
        return {
            "cursor": dict(self._cursor),
            "forecasters": {d: f.state_dict() for d, f in self.forecasters.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        cursor = state["cursor"]
        forecasters = state["forecasters"]
        if set(forecasters) != set(self.forecasters):
            raise ValueError(
                f"device set mismatch: snapshot has {sorted(forecasters)}, "
                f"client has {sorted(self.forecasters)}"
            )
        for device, fstate in forecasters.items():
            self.forecasters[device].load_state_dict(fstate)
        self._cursor = {d: int(cursor[d]) for d in self.forecasters}

    def get_weights(self, device: str) -> list[np.ndarray]:
        return self.forecasters[device].get_weights()

    def set_weights(self, device: str, weights: list[np.ndarray]) -> None:
        self.forecasters[device].set_weights(weights)

    def predict_series(
        self, device: str, series: np.ndarray, t0: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-overlapping next-horizon predictions over *series*.

        Returns ``(pred, real, offsets)`` with pred/real of shape
        ``(n, horizon)`` (normalised units, predictions clipped to >= 0).
        """
        X, y, offsets = self._features(
            np.asarray(series, dtype=np.float64), t0=t0, stride=self.config.horizon
        )
        if X.shape[0] == 0:
            h = self.config.horizon
            return np.zeros((0, h)), np.zeros((0, h)), offsets
        pred = np.clip(self.forecasters[device].predict(X), 0.0, None)
        return pred, y, offsets


@dataclass
class DFLRoundResult:
    """Outcome of one simulated day of DFL training."""

    day: int
    mean_train_loss: float
    n_broadcast_events: int
    n_messages: int
    n_params_sent: int
    per_device_loss: dict[str, float] = field(default_factory=dict)
    #: Cumulative fault-fabric observability (0 on a reliable link):
    #: aggregations skipped for lack of quorum and link-level retries.
    n_quorum_skipped: int = 0
    n_retransmits: int = 0


class DFLTrainer:
    """Drives Algorithm 1 over a :class:`NeighborhoodDataset`.

    Parameters
    ----------
    dataset:
        The *training* portion of the data (chronological split upstream).
    forecast_config / federation_config:
        Model and broadcast settings (β, topology).
    mode:
        ``"decentralized"`` | ``"centralized"`` | ``"local"`` | ``"cloud"``.
    compressor:
        Optional broadcast compressor (``repro.federated.compression``);
        decentralized-mode payloads pass through a compress/decompress
        round trip (simulating the wire) and ``compressed_bytes`` tracks
        the actual bytes transmitted.
    fault_config:
        Optional communication-fault model (``repro.config.FaultConfig``).
        Active faults apply to the decentralized broadcast path: lossy
        links with bounded retransmission, corruption (quarantined before
        averaging), delayed deliveries (staleness-discounted, rejected
        past the horizon), churn/stragglers, and quorum-gated rounds.
        ``None`` or an all-zero config gives the plain bus, over which
        the same round runs with every agent online and every payload
        fresh.
    """

    def __init__(
        self,
        dataset: NeighborhoodDataset,
        forecast_config: ForecastConfig | None = None,
        federation_config: FederationConfig | None = None,
        mode: str = "decentralized",
        seed: int = 0,
        compressor=None,
        fault_config: FaultConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if mode not in ("decentralized", "centralized", "local", "cloud"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dataset = dataset
        self.forecast_config = forecast_config or ForecastConfig()
        self.federation_config = federation_config or FederationConfig()
        self.mode = mode
        self.seed = seed

        self.clients = [
            DFLClient(
                res.residence_id,
                {
                    dev: normalize_power(trace.power_kw, trace.on_kw)
                    for dev, trace in res
                },
                self.forecast_config,
                minutes_per_day=dataset.minutes_per_day,
                seed=seed,
            )
            for res in dataset.residences
        ]
        n = len(self.clients)
        topo_name = (
            "star" if mode in ("centralized", "cloud") else self.federation_config.topology
        )
        self.topology = make_topology(topo_name if mode != "local" else "full", n)
        # Faults model the residential mesh; the centralized/cloud
        # baselines keep the paper's ideal uplink.
        self.fault_config = (
            fault_config
            if (fault_config is not None and fault_config.active and mode == "decentralized")
            else None
        )
        self.bus = make_bus(self.topology, self.fault_config)
        self.scheduler = BroadcastScheduler(
            self.federation_config.beta_hours, dataset.minutes_per_day
        )
        self._minutes_trained = 0
        self.compressor = compressor
        #: Bytes actually transmitted when a compressor is active.
        self.compressed_bytes = 0
        #: Raw feature bytes shipped to the hub (cloud mode's privacy cost).
        self.data_bytes_uploaded = 0
        self.telemetry = ensure_telemetry(telemetry)
        #: Recovery mode: each agent's last durable snapshot, replayed
        #: into the client when churn brings it back online (a reboot
        #: loses RAM).  ``None`` when the mode is off.
        self._agent_snapshots: dict[int, dict] | None = None
        if self.fault_config is not None and self.fault_config.recover_from_snapshot:
            self._agent_snapshots = {
                c.residence_id: c.state_dict() for c in self.clients
            }

    # ------------------------------------------------------------------
    @property
    def device_types(self) -> tuple[str, ...]:
        return self.dataset.device_types

    @property
    def minutes_trained(self) -> int:
        return self._minutes_trained

    def run_day(self) -> DFLRoundResult:
        """Train one more simulated day (local segments + broadcasts)."""
        mpd = self.dataset.minutes_per_day
        day = self._minutes_trained // mpd
        start = self._minutes_trained
        stop = min(start + mpd, self.dataset.n_minutes)
        if stop <= start:
            raise RuntimeError("dataset exhausted: no more days to train on")

        tel = self.telemetry
        day_t0 = tel.now()
        params_before = self.bus.stats.n_tx_params
        quorum_before = self.bus.stats.n_quorum_skips
        events = self.scheduler.events_in(start, stop).tolist()
        boundaries = [start, *events, stop]
        losses: dict[str, list[float]] = {d: [] for d in self.device_types}
        n_events = 0
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            if hi > lo:
                with tel.timer("dfl.local"):
                    if self.mode == "cloud":
                        for device in self.device_types:
                            loss = self._cloud_train_segment(device, lo, hi)
                            if np.isfinite(loss):
                                losses[device].append(loss)
                    else:
                        self._train_interval(lo, hi, losses)
            if hi in events:
                round_t0 = tel.now()
                round_params = self.bus.stats.n_tx_params
                round_quorum = self.bus.stats.n_quorum_skips
                with tel.timer("dfl.broadcast"):
                    self._broadcast_and_aggregate()
                tel.event(
                    "dfl.round",
                    day=day,
                    round=n_events,
                    params_tx=self.bus.stats.n_tx_params - round_params,
                    quorum_skips=self.bus.stats.n_quorum_skips - round_quorum,
                    seconds=tel.now() - round_t0,
                )
                n_events += 1

        self._minutes_trained = stop
        per_device = {
            d: (float(np.mean(v)) if v else float("nan")) for d, v in losses.items()
        }
        finite = [v for v in per_device.values() if np.isfinite(v)]
        result = DFLRoundResult(
            day=day,
            mean_train_loss=float(np.mean(finite)) if finite else float("nan"),
            n_broadcast_events=n_events,
            n_messages=self.bus.stats.n_messages,
            n_params_sent=self.bus.stats.n_params,
            per_device_loss=per_device,
            n_quorum_skipped=self.bus.stats.n_quorum_skips,
            n_retransmits=self.bus.stats.n_retransmits,
        )
        if tel:
            tel.event(
                "dfl.day",
                day=day,
                residences=len(self.clients),
                rounds=n_events,
                seconds=tel.now() - day_t0,
                params_tx=self.bus.stats.n_tx_params - params_before,
                quorum_skips=self.bus.stats.n_quorum_skips - quorum_before,
                loss=result.mean_train_loss,
            )
            tel.add_work(
                "dfl.broadcast",
                params_tx=self.bus.stats.n_tx_params - params_before,
            )
            tel.record_transport(self.bus.stats, prefix="dfl.transport")
            tel.record_links(self.bus.stats, prefix="dfl.transport")
            monitor = getattr(self.bus, "monitor", None)
            if monitor is not None:
                tel.record_selfheal(monitor, prefix="dfl.selfheal")
        return result

    def run(self, n_days: int) -> list[DFLRoundResult]:
        """Train *n_days* consecutive days, returning per-day results."""
        return [self.run_day() for _ in range(n_days)]

    # ------------------------------------------------------------------
    # Persistence
    def state(self) -> dict:
        """Complete trainer state as a checkpointable tree."""
        state: dict = {
            "minutes_trained": self._minutes_trained,
            "compressed_bytes": self.compressed_bytes,
            "data_bytes_uploaded": self.data_bytes_uploaded,
            "clients": {str(c.residence_id): c.state_dict() for c in self.clients},
            "bus": self.bus.state_dict(),
        }
        if self._agent_snapshots is not None:
            state["snapshots"] = {
                str(rid): snap for rid, snap in self._agent_snapshots.items()
            }
        return state

    def restore(self, state: dict) -> None:
        """Restore :meth:`state` output; continuing is bit-identical."""
        self._minutes_trained = int(state["minutes_trained"])
        self.compressed_bytes = int(state["compressed_bytes"])
        self.data_bytes_uploaded = int(state["data_bytes_uploaded"])
        clients = state["clients"]
        for client in self.clients:
            client.load_state_dict(clients[str(client.residence_id)])
        self.bus.load_state_dict(state["bus"])
        if "snapshots" in state and self._agent_snapshots is not None:
            self._agent_snapshots = {
                int(rid): snap for rid, snap in state["snapshots"].items()
            }

    # ------------------------------------------------------------------
    def _train_interval(
        self, lo: int, hi: int, losses: dict[str, list[float]]
    ) -> None:
        """Local fits for every (residence, device), in client order."""
        for client in self.clients:
            for device in client.device_types:
                loss = client.train_segment(device, lo, hi)
                if np.isfinite(loss):
                    losses[device].append(loss)

    # ------------------------------------------------------------------
    def _cloud_train_segment(self, device: str, lo: int, hi: int) -> float:
        """Cloud baseline: pool every client's raw windows at the hub.

        One global model (held by client 0's forecaster slot) trains on
        the concatenated windows and is copied to everyone.  The raw
        feature upload is tallied in ``data_bytes_uploaded`` — the privacy
        cost Table 2 marks with an ✗.
        """
        Xs, ys = [], []
        for client in self.clients:
            series = client.series[device]
            start = max(0, lo - self.forecast_config.window)
            chunk = series[start : min(hi, series.shape[0])]
            X, y, _ = client._features(chunk, t0=start, stride=self.forecast_config.stride)
            if X.shape[0]:
                Xs.append(X)
                ys.append(y)
                if client.residence_id != 0:
                    self.data_bytes_uploaded += (X.nbytes + y.nbytes)
        if not Xs:
            return float("nan")
        X_all = np.concatenate(Xs)
        y_all = np.concatenate(ys)
        hub = self.clients[0]
        loss = hub.forecasters[device].fit(X_all, y_all)
        weights = hub.get_weights(device)
        for client in self.clients[1:]:
            client.set_weights(device, weights)
        return loss

    def _broadcast_and_aggregate(self) -> None:
        """One broadcast event of the current sharing mode.

        Decentralized: agents on the air broadcast every device model
        (crashed agents and stragglers sitting out this round do not).
        Each online receiver quarantines invalid payloads, discounts or
        rejects stale ones, and averages per device type with its own
        model only when the quorum of expected neighbours was heard —
        otherwise it continues locally and the skip is counted.
        """
        if self.mode in ("local", "cloud"):
            return
        if self.mode == "centralized":
            self._central_round()
            return
        bus = self.bus
        faults = self.fault_config or FaultConfig()
        for client in self.clients:
            if not bus.sends_this_round(client.residence_id):
                continue
            for device in client.device_types:
                payload = client.get_weights(device)
                if self.compressor is not None:
                    wire = self.compressor.compress(payload)
                    self.compressed_bytes += wire.nbytes
                    payload = self.compressor.decompress(wire)
                bus.broadcast(client.residence_id, payload, tag=f"fc/{device}")
        for client in self.clients:
            rid = client.residence_id
            if not bus.is_online(rid):
                continue  # an offline agent aggregates nothing
            n_expected = len(self.topology.neighbors(rid))
            for device in client.device_types:
                local = client.get_weights(device)
                recv = ReceiveFilter(bus, faults, local, n_expected).admit(
                    bus.collect(rid, tag=f"fc/{device}")
                )
                if not recv.accept():
                    continue
                merged = average_weights(
                    [local, *recv.payloads],
                    client_weights=recv.client_weights(),
                )
                client.set_weights(device, merged)
        bus.advance_round()
        self._restore_recovered()

    def _restore_recovered(self) -> None:
        """Recovery mode: reload snapshots for agents back from a crash.

        An agent that just flipped offline -> online lost its RAM; its
        state reverts to the last snapshot taken while it was alive.
        Afterwards every currently-online agent re-snapshots (crashed
        agents keep their stale snapshot — that is the point).
        """
        if self._agent_snapshots is None:
            return
        bus = self.bus
        by_rid = {c.residence_id: c for c in self.clients}
        for rid in bus.drain_recovered():
            client = by_rid.get(rid)
            if client is None:
                continue
            client.load_state_dict(self._agent_snapshots[rid])
            bus.stats.n_restores += 1
            self.telemetry.count("dfl.recovery.restores")
        for rid, client in by_rid.items():
            if bus.is_online(rid):
                self._agent_snapshots[rid] = client.state_dict()

    def _central_round(self) -> None:
        """Classic FedAvg through agent 0 acting as the cloud hub."""
        hub = 0
        for device in self.device_types:
            all_weights = [c.get_weights(device) for c in self.clients]
            # Account for the uplink/downlink through the star topology:
            # every non-hub client sends up and receives down one model.
            for client in self.clients:
                if client.residence_id != hub:
                    self.bus.send(
                        client.residence_id, hub, client.get_weights(device),
                        tag=f"fc-up/{device}",
                    )
            merged = average_weights(all_weights)
            for client in self.clients:
                if client.residence_id != hub:
                    self.bus.send(hub, client.residence_id, merged, tag=f"fc-down/{device}")
                client.set_weights(device, merged)
            self.bus.collect(hub)
            for client in self.clients:
                self.bus.collect(client.residence_id)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        test_dataset: NeighborhoodDataset,
        test_start_minute: int | None = None,
        return_offsets: bool = False,
    ):
        """Per-(residence, device) next-hour energy accuracy on held-out data.

        ``test_start_minute`` anchors the test split's calendar phase
        (defaults to the minutes already consumed in training, i.e. the
        test data directly follows the train data).  With
        ``return_offsets=True`` also returns the target-start offsets
        (minute indices within the test split) for calendar bucketing.
        """
        t0 = self._minutes_trained if test_start_minute is None else test_start_minute
        acc: dict[tuple[int, str], np.ndarray] = {}
        offs: dict[tuple[int, str], np.ndarray] = {}
        floor = self.forecast_config.accuracy_floor
        for client, res in zip(self.clients, test_dataset.residences):
            for device, trace in res:
                series = normalize_power(trace.power_kw, trace.on_kw)
                pred, real, offsets = client.predict_series(device, series, t0=t0)
                if pred.shape[0] == 0:
                    continue
                acc[(client.residence_id, device)] = horizon_energy_accuracy(
                    pred, real, floor_fraction=floor, scale=1.0
                )
                offs[(client.residence_id, device)] = offsets
        if return_offsets:
            return acc, offs
        return acc

    def mean_accuracy(self, test_dataset: NeighborhoodDataset) -> float:
        """Grand mean accuracy over all residences/devices/samples."""
        acc = self.evaluate(test_dataset)
        if not acc:
            return float("nan")
        return float(np.mean([a.mean() for a in acc.values()]))
