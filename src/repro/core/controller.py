"""Online deployment controller — the trained system as it would run.

Training uses batched day streams; deployment is a minute loop: readings
arrive one minute at a time, the forecast refreshes at every horizon
boundary ("by default hourly", §3.1), and the DQN picks one action per
device per minute.  :class:`OnlineController` packages one residence's
trained forecasters + DQN agent behind exactly that loop:

>>> controller = OnlineController(forecasters, agent, nominals)  # doctest: +SKIP
>>> actions = controller.observe_minute({"tv": 0.012, "light": 0.0})  # doctest: +SKIP

Until a device has a full lag window of history, its forecast falls back
to persistence (the last reading), so the controller is usable from the
first minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.forecast import Forecaster, augment_time_features, normalize_power
from repro.rl.dqn import DQNAgent
from repro.rl.env import apply_actions
from repro.rl.qnet import build_state

__all__ = [
    "OnlineController",
    "DeviceNominals",
    "ControllerStats",
    "check_readings",
    "forecast_block",
]


@dataclass(frozen=True)
class DeviceNominals:
    """Per-device reference levels the controller needs."""

    on_kw: float
    standby_kw: float

    def __post_init__(self) -> None:
        if self.on_kw <= 0 or self.standby_kw < 0:
            raise ValueError("need on_kw > 0 and standby_kw >= 0")


def check_readings(readings: Mapping[str, object]) -> None:
    """The one reading rule of every deployment path.

    Readings are metered kW, per device a value or a trace: finite and
    non-negative.  NaN or inf would otherwise pass a ``< 0`` test and
    silently turn forecasts, actions and ``saved_kwh`` into NaN.  Shared
    by :meth:`OnlineController.observe_minute` (one minute of every
    device) and :meth:`repro.serve.ModelSnapshot.schedule` (one query's
    traces).  All devices are checked at once; only a failure looks for
    the first offending device to name it.
    """
    values = [np.ravel(np.asarray(v, dtype=np.float64)) for v in readings.values()]
    every = np.concatenate(values) if values else np.empty(0)
    if np.isfinite(every).all() and not (every < 0).any():
        return
    for device, v in zip(readings, values):
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite reading for {device!r}")
        if (v < 0).any():
            raise ValueError(f"negative reading for {device!r}")


def forecast_block(
    forecaster: Forecaster,
    histories,
    nominals: DeviceNominals,
    minutes_done,
    minutes_per_day: int,
    t0=0,
) -> tuple[np.ndarray, int]:
    """Horizon blocks of per-minute forecasts (kW), one per history.

    This is the exact refresh rule of the online minute loop, shared by
    :class:`OnlineController` (one history) and the batched serving path
    (:mod:`repro.serve`, every block of a batch for one residence's
    device) so both produce bit-identical forecasts.  Row ``i`` forecasts
    the block after ``histories[i]``, at ``minutes_done[i]`` minutes past
    ``t0[i]`` (the time-feature phase); ``minutes_done`` and ``t0`` are
    per-row sequences or scalars shared by every row.

    Until a full lag window exists a row falls back to persistence (the
    last reading, or the standby level before any reading).  The other
    rows go through one :meth:`~repro.forecast.Forecaster.predict_rows`
    call on their normalised windows, which predicts each row exactly as
    a batch of one.  Returns ``(blocks (M, horizon), n_model_rows)``.
    """
    n = len(histories)
    window = forecaster.window
    blocks = np.empty((n, forecaster.horizon))
    rows = []
    for i, history in enumerate(histories):
        if len(history) >= window:
            rows.append(i)
        else:
            blocks[i] = history[-1] if len(history) else nominals.standby_kw
    if not rows:
        return blocks, 0
    X = normalize_power(
        np.stack([np.asarray(histories[i][-window:]) for i in rows]), nominals.on_kw
    )
    if forecaster.n_extra:
        offsets = np.broadcast_to(minutes_done, (n,))[rows]
        phase0 = np.broadcast_to(t0, (n,))[rows]
        X = augment_time_features(
            X, offsets, minutes_per_day, t0=phase0, harmonics=forecaster.n_extra // 2
        )
    blocks[rows] = np.clip(forecaster.predict_rows(X), 0.0, None) * nominals.on_kw
    return blocks, len(rows)


@dataclass
class ControllerStats:
    """Cumulative deployment counters."""

    minutes: int = 0
    forecasts_made: int = 0
    actions: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0, 2: 0})
    #: Energy the controller withheld (kWh), per device.
    saved_kwh: dict[str, float] = field(default_factory=dict)


class OnlineController:
    """Streaming per-residence controller over trained components.

    Parameters
    ----------
    forecasters:
        Trained per-device forecasters (e.g. from a
        :class:`repro.federated.dfl.DFLClient` after DFL training).
    agent:
        Trained :class:`repro.rl.dqn.DQNAgent` (greedy at deployment).
    nominals:
        Per-device :class:`DeviceNominals`.
    minutes_per_day:
        Calendar length for the time features.
    t0:
        Absolute minute-of-deployment start (calendar phase).
    der:
        Optional DER meter (duck-typed; see
        :class:`repro.scenario.der.DERMeter`): after each minute's
        actions, the household's total controlled draw is netted through
        ``der.net(load_kw)`` — solar and battery between the home and
        the meter.  ``None`` (default) leaves the classic path
        untouched.
    """

    def __init__(
        self,
        forecasters: dict[str, Forecaster],
        agent: DQNAgent,
        nominals: dict[str, DeviceNominals],
        minutes_per_day: int = 1440,
        t0: int = 0,
        der=None,
    ) -> None:
        if set(forecasters) != set(nominals):
            raise ValueError("forecasters and nominals must cover the same devices")
        if not forecasters:
            raise ValueError("need at least one device")
        self.forecasters = forecasters
        self.agent = agent
        self.nominals = nominals
        self.minutes_per_day = int(minutes_per_day)
        self.t0 = int(t0)
        self.der = der
        #: Cumulative metered grid energy (kWh) — equals the controlled
        #: energy when no DER meter is attached.
        self.grid_kwh = 0.0
        self.stats = ControllerStats()
        self.stats.saved_kwh = {d: 0.0 for d in forecasters}

        self._history: dict[str, list[float]] = {d: [] for d in forecasters}
        self._pending_forecast: dict[str, np.ndarray] = {}
        self._forecast_pos: dict[str, int] = {d: 0 for d in forecasters}

    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[str, ...]:
        return tuple(self.forecasters)

    def _horizon(self, device: str) -> int:
        return self.forecasters[device].horizon

    def _maybe_refresh_forecast(self, device: str) -> None:
        """At horizon boundaries (and at start) predict the next block."""
        fc = self.forecasters[device]
        pos = self._forecast_pos[device]
        have = device in self._pending_forecast
        if have and pos < self._horizon(device):
            return
        blocks, n_model_rows = forecast_block(
            fc,
            [self._history[device]],
            self.nominals[device],
            self.stats.minutes,
            self.minutes_per_day,
            t0=self.t0,
        )
        self._pending_forecast[device] = blocks[0]
        self.stats.forecasts_made += n_model_rows
        self._forecast_pos[device] = 0

    # ------------------------------------------------------------------
    def observe_minute(self, readings: dict[str, float]) -> dict[str, int]:
        """Consume one minute of per-device readings; return actions.

        Actions follow the paper's encoding: 0 = off, 1 = standby,
        2 = on (pass through).
        """
        if set(readings) != set(self.forecasters):
            raise ValueError("readings must cover exactly the managed devices")
        actions: dict[str, int] = {}
        load_kw = 0.0
        check_readings(readings)
        for device, value in readings.items():
            self._maybe_refresh_forecast(device)
            nom = self.nominals[device]
            pred = float(self._pending_forecast[device][self._forecast_pos[device]])
            state = build_state(pred, value, nom.on_kw, nom.standby_kw, device=device)
            action = self.agent.act(state, greedy=True)
            actions[device] = action
            self.stats.actions[action] += 1

            # Controlled draw under the chosen action — the single
            # shared action -> draw rule (same as training and serving).
            controlled = float(
                apply_actions(
                    np.asarray([action]), np.asarray([value]), nom.standby_kw
                )[0]
            )
            self.stats.saved_kwh[device] += (value - controlled) / 60.0
            load_kw += controlled

            self._history[device].append(value)
            self._forecast_pos[device] += 1
        grid_kw = load_kw if self.der is None else self.der.net(load_kw)
        self.grid_kwh += grid_kw / 60.0
        self.stats.minutes += 1
        return actions

    def run_trace(self, traces: dict[str, np.ndarray]) -> list[dict[str, int]]:
        """Convenience: stream whole aligned traces minute by minute."""
        lengths = {np.asarray(t).shape[0] for t in traces.values()}
        if len(lengths) != 1:
            raise ValueError("traces must be aligned")
        (n,) = lengths
        return [
            self.observe_minute({d: float(np.asarray(t)[i]) for d, t in traces.items()})
            for i in range(n)
        ]
