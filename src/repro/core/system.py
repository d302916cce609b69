"""End-to-end PFDRL pipeline — the library's main entry point.

>>> from repro import PFDRLConfig, DataConfig
>>> from repro.core import PFDRLSystem
>>> cfg = PFDRLConfig(data=DataConfig(n_residences=3, n_days=3, minutes_per_day=240))
>>> result = PFDRLSystem(cfg).run()          # doctest: +SKIP
>>> 0.0 <= result.ems.saved_standby_fraction <= 1.0   # doctest: +SKIP
True

Pipeline: generate the neighbourhood → chronological train/test split →
DFL load-forecast training (Algorithm 1) → build (predicted, real)
streams → PFDRL energy-management training (Algorithm 2) → greedy
evaluation on the held-out split.

Checkpoint / resume
-------------------
Both training stages advance one simulated day at a time and offer a
day-granular checkpoint hook: pass a
:class:`repro.persist.CheckpointStore` to :meth:`PFDRLSystem.run` (or
drive :meth:`state` / :meth:`restore` yourself) and the complete run
state — forecasters, DQN agents, optimizers, replay buffers, RNG
streams, bus counters and mailboxes, histories, telemetry — is snapshot
after every ``checkpoint_every``-th day.  Restoring a checkpoint and
continuing is **bit-identical** to the uninterrupted run: the same
``SystemResult`` and the same journal (modulo wall-clock fields).  The
dataset itself is *not* stored — it is regenerated deterministically
from the config, and a config digest in the checkpoint meta guards
against resuming under a different configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.config import PFDRLConfig, config_to_dict
from repro.core.pfdrl import EMSEvaluation, PFDRLDayResult, PFDRLTrainer
from repro.core.streams import build_streams
from repro.data.dataset import NeighborhoodDataset
from repro.data.generator import generate_neighborhood
from repro.federated.dfl import DFLRoundResult, DFLTrainer
from repro.obs.telemetry import Telemetry, ensure_telemetry
from repro.persist import (
    CheckpointError,
    CheckpointStore,
    TrainingInterrupted,
    json_digest,
)

__all__ = ["PFDRLSystem", "SystemResult", "config_digest"]


def config_digest(
    config: PFDRLConfig, forecast_mode: str = "decentralized",
    sharing: str = "personalized",
) -> str:
    """SHA-256 over the config + pipeline variant.

    Written into every checkpoint's manifest meta (``config_sha256``)
    and checked on resume and on serving-snapshot load, so state from
    one configuration can never be silently rebound to another.
    """
    return json_digest(
        {
            "config": config_to_dict(config),
            "forecast_mode": forecast_mode,
            "sharing": sharing,
        }
    )


@dataclass
class SystemResult:
    """Everything a full pipeline run produces."""

    forecast_accuracy: float
    ems: EMSEvaluation
    dfl_history: list[DFLRoundResult] = field(default_factory=list)
    drl_history: list[PFDRLDayResult] = field(default_factory=list)
    n_train_days: int = 0
    n_test_days: int = 0
    #: Scenario-pack savings summary (None unless ``config.scenario``).
    scenario: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready view (numpy arrays become lists) — used by the CLI
        ``--result-json`` export and the CI resume-equivalence diff."""
        ems = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in asdict(self.ems).items()
        }
        out = {
            "forecast_accuracy": self.forecast_accuracy,
            "ems": ems,
            "dfl_history": [asdict(r) for r in self.dfl_history],
            "drl_history": [asdict(r) for r in self.drl_history],
            "n_train_days": self.n_train_days,
            "n_test_days": self.n_test_days,
        }
        # Only present on scenario runs so the default-path JSON stays
        # byte-identical to the pre-scenario exports.
        if self.scenario is not None:
            out["scenario"] = self.scenario
        return out


class PFDRLSystem:
    """Composable end-to-end runner.

    Parameters
    ----------
    config:
        Full system configuration.
    dataset:
        Optional pre-generated dataset (defaults to generating one from
        ``config.data``) — lets experiments share one workload across
        method variants.
    forecast_mode / sharing:
        Override the federation styles (used by the baseline pipelines):
        forecast_mode ∈ {decentralized, centralized, local},
        sharing ∈ {personalized, full, none}.
    telemetry:
        Optional :class:`repro.obs.Telemetry` registry.  Threaded into
        both trainers; the system additionally emits one
        ``system.phase`` event per pipeline stage (forecast / ems /
        evaluate) with its wall-clock seconds.  ``None`` (default) runs
        through the shared no-op object — zero overhead, bit-identical.
    """

    def __init__(
        self,
        config: PFDRLConfig | None = None,
        dataset: NeighborhoodDataset | None = None,
        forecast_mode: str = "decentralized",
        sharing: str = "personalized",
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or PFDRLConfig()
        self.dataset = dataset or generate_neighborhood(self.config.data)
        self.forecast_mode = forecast_mode
        self.sharing = sharing
        self.telemetry = ensure_telemetry(telemetry)

        total_days = int(self.dataset.n_days)
        self.n_train_days = max(1, int(round(total_days * self.config.data.train_fraction)))
        self.n_train_days = min(self.n_train_days, total_days - 1) if total_days > 1 else 1
        self.n_test_days = max(0, total_days - self.n_train_days)

        self.train_data = self.dataset.slice_days(0, self.n_train_days)
        self.test_data = (
            self.dataset.slice_days(self.n_train_days, total_days)
            if self.n_test_days
            else self.train_data
        )
        self.dfl: DFLTrainer | None = None
        self.drl: PFDRLTrainer | None = None

        # -- resumable progress ----------------------------------------
        self._dfl_history: list[DFLRoundResult] = []
        self._drl_history: list[PFDRLDayResult] = []
        self._dfl_days_done = 0
        self._forecast_done = False
        self._ems_days_done = 0
        self._ems_done = False
        # -- checkpoint hooks (armed by run()) -------------------------
        self._store: CheckpointStore | None = None
        self._ckpt_every = 1
        self._stop_after: int | None = None

    # ------------------------------------------------------------------
    def _make_dfl(self) -> DFLTrainer:
        return DFLTrainer(
            self.train_data,
            forecast_config=self.config.forecast,
            federation_config=self.config.federation,
            mode=self.forecast_mode,
            seed=self.config.seed,
            fault_config=self.config.faults,
            telemetry=self.telemetry,
        )

    def _make_drl(self) -> PFDRLTrainer:
        assert self.dfl is not None
        train_streams = build_streams(self.train_data, self.dfl, t0=0)
        return PFDRLTrainer(
            train_streams,
            dqn_config=self.config.dqn,
            federation_config=self.config.federation,
            sharing=self.sharing,
            seed=self.config.seed,
            fault_config=self.config.faults,
            telemetry=self.telemetry,
            n_workers=self.config.ems_workers,
        )

    # ------------------------------------------------------------------
    def run_forecasting(self) -> list[DFLRoundResult]:
        """Stage 1: train the DFL load forecasters day by day.

        Resumable: on a restored system only the remaining days run;
        when the stage already completed this is a no-op returning the
        recorded history.
        """
        tel = self.telemetry
        t0 = tel.now()
        if self.dfl is None:
            self.dfl = self._make_dfl()
        with tel.timer("system.forecast"):
            while self._dfl_days_done < self.n_train_days:
                self._dfl_history.append(self.dfl.run_day())
                self._dfl_days_done += 1
                self._checkpoint_maybe(self._dfl_days_done)
        if not self._forecast_done:
            self._forecast_done = True
            tel.event(
                "system.phase",
                phase="forecast",
                days=self.n_train_days,
                seconds=tel.now() - t0,
            )
        return list(self._dfl_history)

    def run_energy_management(self) -> list[PFDRLDayResult]:
        """Stage 2: train the PFDRL agents over the training streams.

        Resumable at day granularity across episodes; the terminal
        :meth:`PFDRLTrainer.finalize` round runs exactly once, after the
        last training day.
        """
        if self.dfl is None:
            raise RuntimeError("run_forecasting() first")
        tel = self.telemetry
        t0 = tel.now()
        if self.drl is None:
            self.drl = self._make_drl()
        n_episodes = max(1, self.config.episodes)
        total = n_episodes * self.n_train_days
        with tel.timer("system.ems"):
            while self._ems_days_done < total:
                if self._ems_days_done % self.n_train_days == 0:
                    self.drl.rewind()
                self._drl_history.append(self.drl.run_day())
                self._ems_days_done += 1
                self._checkpoint_maybe(self.n_train_days + self._ems_days_done)
            if not self._ems_done:
                self.drl.finalize()  # deploy the shared model before evaluation
                self._ems_done = True
                tel.event(
                    "system.phase",
                    phase="ems",
                    days=total,
                    seconds=tel.now() - t0,
                )
        return list(self._drl_history)

    def evaluate(self) -> tuple[float, EMSEvaluation]:
        """Stage 3: held-out forecast accuracy + greedy EMS evaluation."""
        if self.dfl is None or self.drl is None:
            raise RuntimeError("run the training stages first")
        tel = self.telemetry
        t0 = tel.now()
        with tel.timer("system.evaluate"):
            accuracy = self.dfl.mean_accuracy(self.test_data)
            test_streams = build_streams(
                self.test_data, self.dfl, t0=self.n_train_days * self.dataset.minutes_per_day
            )
            ems = self.drl.evaluate(test_streams)
        tel.event(
            "system.phase",
            phase="evaluate",
            days=self.n_test_days,
            seconds=tel.now() - t0,
        )
        return accuracy, ems

    def run(
        self,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        stop_after_step: int | None = None,
    ) -> SystemResult:
        """All three stages; returns the consolidated result.

        Parameters
        ----------
        checkpoint_store:
            When given, snapshot complete run state after every
            ``checkpoint_every``-th training day (steps 1..n_train_days
            cover the forecast stage, later steps the EMS days).
        resume:
            Restore the store's latest checkpoint (if any) before
            running; only the remaining work executes.
        stop_after_step:
            Testing/CI hook: force-checkpoint and raise
            :class:`~repro.persist.TrainingInterrupted` once this step
            completes — simulating a crash at an arbitrary day.
        """
        self._store = checkpoint_store
        self._ckpt_every = max(1, int(checkpoint_every))
        self._stop_after = stop_after_step
        if resume:
            if checkpoint_store is None:
                raise ValueError("resume=True needs a checkpoint_store")
            if checkpoint_store.latest_step() is not None:
                self.resume_from(checkpoint_store)
        try:
            dfl_history = self.run_forecasting()
            drl_history = self.run_energy_management()
            accuracy, ems = self.evaluate()
            # Final deployable checkpoint: unlike the per-day snapshots
            # (taken *before* the terminal share round), this one holds
            # exactly the weights the evaluation measured — what the
            # serving layer (repro.serve) should load.
            if self._store is not None:
                total = self.n_train_days * (1 + max(1, self.config.episodes))
                self._store.save(
                    total + 1,
                    self.state(),
                    meta={
                        "config_sha256": self.config_digest(),
                        "dfl_days_done": self._dfl_days_done,
                        "ems_days_done": self._ems_days_done,
                        "final": True,
                    },
                )
        finally:
            # Shut the EMS trainer's persistent worker pool down even
            # when a stage raises (including the scheduled
            # TrainingInterrupted stop) — no orphaned children, and the
            # mirror holds the final agent state either way.
            if self.drl is not None:
                self.drl.close()
        scenario = None
        if self.config.scenario is not None:
            # Lazy import: the scenario pack is opt-in and must not load
            # (or cost anything) on the default path.
            from repro.scenario import summarize_system_savings

            scenario = summarize_system_savings(self.config, ems.saved_kw)
        return SystemResult(
            forecast_accuracy=accuracy,
            ems=ems,
            dfl_history=dfl_history,
            drl_history=drl_history,
            n_train_days=self.n_train_days,
            n_test_days=self.n_test_days,
            scenario=scenario,
        )

    # ------------------------------------------------------------------
    # Persistence
    def config_digest(self) -> str:
        """SHA-256 over the config + pipeline variant — resume guard."""
        return config_digest(self.config, self.forecast_mode, self.sharing)

    def state(self) -> dict:
        """Complete system state as a checkpointable tree."""
        state: dict = {
            "progress": {
                "dfl_days_done": self._dfl_days_done,
                "forecast_done": self._forecast_done,
                "ems_days_done": self._ems_days_done,
                "ems_done": self._ems_done,
            },
            "dfl_history": [asdict(r) for r in self._dfl_history],
            "drl_history": [asdict(r) for r in self._drl_history],
            "telemetry": self.telemetry.state_dict(),
        }
        if self.dfl is not None:
            state["dfl"] = self.dfl.state()
        if self.drl is not None:
            state["drl"] = self.drl.state()
        return state

    def restore(self, state: dict) -> None:
        """Restore :meth:`state` output; continuing is bit-identical."""
        prog = state["progress"]
        self._dfl_days_done = int(prog["dfl_days_done"])
        self._forecast_done = bool(prog["forecast_done"])
        self._ems_days_done = int(prog["ems_days_done"])
        self._ems_done = bool(prog["ems_done"])
        self._dfl_history = [DFLRoundResult(**d) for d in state["dfl_history"]]
        self._drl_history = [PFDRLDayResult(**d) for d in state["drl_history"]]
        if "dfl" in state:
            if self.dfl is None:
                self.dfl = self._make_dfl()
            self.dfl.restore(state["dfl"])
        if "drl" in state:
            # Streams derive from the (just restored) forecaster state,
            # so the trainer must be rebuilt after the DFL restore.
            if self.drl is None:
                self.drl = self._make_drl()
            self.drl.restore(state["drl"])
        if state.get("telemetry"):
            self.telemetry.load_state_dict(state["telemetry"])

    def resume_from(self, store: CheckpointStore, step: int | None = None) -> dict:
        """Load a checkpoint (default: latest) into this system.

        Refuses checkpoints written under a different configuration or
        pipeline variant.  Returns the checkpoint manifest.
        """
        state, manifest = store.load(step=step)
        recorded = manifest.get("meta", {}).get("config_sha256")
        if recorded is not None and recorded != self.config_digest():
            raise CheckpointError(
                "checkpoint was written under a different configuration "
                f"(digest {recorded[:12]}… vs {self.config_digest()[:12]}…); "
                "resuming would silently mix incompatible run state"
            )
        self.restore(state)
        return manifest

    def _checkpoint_maybe(self, step: int) -> None:
        """Snapshot on the cadence; honour the scheduled-stop hook."""
        stop_here = self._stop_after is not None and step >= self._stop_after
        if self._store is not None and (step % self._ckpt_every == 0 or stop_here):
            self._store.save(
                step,
                self.state(),
                meta={
                    "config_sha256": self.config_digest(),
                    "dfl_days_done": self._dfl_days_done,
                    "ems_days_done": self._ems_days_done,
                },
            )
        if stop_here:
            raise TrainingInterrupted(step)
