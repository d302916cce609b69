"""Shared driver for the five comparison methods.

Each method is a (forecast_mode, sharing) pair fed to
:class:`repro.core.system.PFDRLSystem`, plus the Table 2 feature flags
used by the qualitative comparison bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import PFDRLConfig
from repro.core.pfdrl import EMSEvaluation, PFDRLDayResult
from repro.core.system import PFDRLSystem
from repro.data.dataset import NeighborhoodDataset
from repro.federated.dfl import DFLRoundResult
from repro.metrics.timing import Stopwatch

__all__ = ["MethodSpec", "MethodResult", "METHODS", "run_method", "method_table"]


@dataclass(frozen=True)
class MethodSpec:
    """One comparison method: pipeline wiring + Table 2 feature flags."""

    name: str
    forecast_mode: str
    sharing: str
    # Table 2 columns:
    local_area: bool
    data_privacy: bool
    small_batch_training: bool
    sharing_ems: bool
    personalization: bool
    reference: str = ""


METHODS: dict[str, MethodSpec] = {
    "local": MethodSpec(
        name="local", forecast_mode="local", sharing="none",
        local_area=True, data_privacy=True, small_batch_training=False,
        sharing_ems=False, personalization=True,
        reference="Xu & Jia 2020 [33]",
    ),
    "cloud": MethodSpec(
        name="cloud", forecast_mode="cloud", sharing="none",
        local_area=False, data_privacy=False, small_batch_training=True,
        sharing_ems=False, personalization=False,
        reference="Lu 2019 [20]",
    ),
    "fl": MethodSpec(
        name="fl", forecast_mode="centralized", sharing="none",
        local_area=False, data_privacy=False, small_batch_training=True,
        sharing_ems=False, personalization=False,
        reference="Taik & Cherkaoui 2020 [27]",
    ),
    "frl": MethodSpec(
        name="frl", forecast_mode="centralized", sharing="full",
        local_area=False, data_privacy=False, small_batch_training=True,
        sharing_ems=True, personalization=False,
        reference="Lee 2020 [18]",
    ),
    "pfdrl": MethodSpec(
        name="pfdrl", forecast_mode="decentralized", sharing="personalized",
        local_area=True, data_privacy=True, small_batch_training=True,
        sharing_ems=True, personalization=True,
        reference="this paper",
    ),
}


@dataclass
class MethodResult:
    """One method's full run on a shared workload."""

    spec: MethodSpec
    forecast_accuracy: float
    ems: EMSEvaluation
    dfl_history: list[DFLRoundResult] = field(default_factory=list)
    drl_history: list[PFDRLDayResult] = field(default_factory=list)
    #: Per-day EMS snapshots (saved standby fraction after each train day),
    #: filled when ``track_convergence`` is on — the Fig. 9 series.
    convergence: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    test_seconds: float = 0.0
    params_broadcast: int = 0
    data_bytes_uploaded: int = 0

    @property
    def saved_standby_fraction(self) -> float:
        return self.ems.saved_standby_fraction

    @property
    def saved_kwh_per_client(self) -> float:
        return float(np.mean(self.ems.saved_standby_kwh))


def run_method(
    name: str,
    config: PFDRLConfig,
    dataset: NeighborhoodDataset | None = None,
    track_convergence: bool = False,
) -> MethodResult:
    """Run one comparison method end to end on *dataset*.

    With ``track_convergence`` the EMS training runs day by day and the
    held-out saved-standby fraction is recorded after each day — the
    series plotted in Fig. 9.
    """
    try:
        spec = METHODS[name]
    except KeyError:
        known = ", ".join(sorted(METHODS))
        raise KeyError(f"unknown method {name!r}; known: {known}") from None

    system = PFDRLSystem(
        config,
        dataset=dataset,
        forecast_mode=spec.forecast_mode,
        sharing=spec.sharing,
    )
    sw = Stopwatch()
    with sw.measure("train"):
        dfl_history = system.run_forecasting()
        if track_convergence:
            drl_history, convergence = _run_ems_tracked(system)
        else:
            drl_history = system.run_energy_management()
            convergence = []
    with sw.measure("test"):
        accuracy, ems = system.evaluate()

    assert system.dfl is not None and system.drl is not None
    return MethodResult(
        spec=spec,
        forecast_accuracy=accuracy,
        ems=ems,
        dfl_history=dfl_history,
        drl_history=drl_history,
        convergence=convergence,
        train_seconds=sw.total("train"),
        test_seconds=sw.total("test"),
        params_broadcast=(
            system.dfl.bus.stats.n_tx_params
            + system.drl.params_broadcast_total
        ),
        data_bytes_uploaded=system.dfl.data_bytes_uploaded,
    )


def _run_ems_tracked(system: PFDRLSystem) -> tuple[list[PFDRLDayResult], list[float]]:
    """EMS training with a held-out evaluation after every simulated day."""
    from repro.core.pfdrl import PFDRLTrainer
    from repro.core.streams import build_streams

    assert system.dfl is not None
    train_streams = build_streams(system.train_data, system.dfl, t0=0)
    system.drl = PFDRLTrainer(
        train_streams,
        dqn_config=system.config.dqn,
        federation_config=system.config.federation,
        sharing=system.sharing,
        seed=system.config.seed,
        n_workers=system.config.ems_workers,
    )
    test_streams = build_streams(
        system.test_data,
        system.dfl,
        t0=system.n_train_days * system.dataset.minutes_per_day,
    )
    history: list[PFDRLDayResult] = []
    convergence: list[float] = []
    for _ in range(max(1, system.config.episodes)):
        system.drl.rewind()
        for _day in range(system.n_train_days):
            history.append(system.drl.run_day())
            # Evaluate what would be deployed at this point (the share
            # round is part of the training dynamics anyway).
            system.drl.finalize()
            convergence.append(system.drl.evaluate(test_streams).saved_standby_fraction)
    return history, convergence


def method_table() -> str:
    """Render Table 2 (the qualitative feature matrix) as text."""
    cols = [
        ("Method", lambda s: s.name.upper()),
        ("LoadForecast", lambda s: s.forecast_mode),
        ("EMS", lambda s: s.sharing),
        ("LocalArea", lambda s: "yes" if s.local_area else "no"),
        ("DataPrivacy", lambda s: "yes" if s.data_privacy else "no"),
        ("SmallBatch", lambda s: "yes" if s.small_batch_training else "no"),
        ("SharingEMS", lambda s: "yes" if s.sharing_ems else "no"),
        ("Personalized", lambda s: "yes" if s.personalization else "no"),
    ]
    rows = [[header for header, _ in cols]]
    for spec in METHODS.values():
        rows.append([fmt(spec) for _, fmt in cols])
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
