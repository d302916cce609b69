"""Crash-resume equivalence: the headline guarantee of ``repro.persist``.

Interrupt a run at an arbitrary day, restore the checkpoint into a fresh
process-equivalent object graph, continue — and land on bit-identical
results: the same trainer states, the same ``SystemResult``, the same
journal (modulo wall-clock fields).  Also covers the fault-fabric
recovery mode where churned agents reboot from their last snapshot.
"""

import math
import zipfile

import numpy as np
import pytest

from repro.config import (
    DataConfig,
    DQNConfig,
    FaultConfig,
    ForecastConfig,
    PFDRLConfig,
    TraceConfig,
)
from repro.core import PFDRLSystem
from repro.core.streams import build_streams
from repro.federated.dfl import DFLTrainer
from repro.obs import RunJournal, Telemetry
from repro.persist import (
    CheckpointError,
    CheckpointStore,
    TrainingInterrupted,
    flatten_state,
    unflatten_state,
)


def deep_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (
            a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    return a == b


def through_codec(state):
    arrays, values = flatten_state(state)
    return unflatten_state(arrays, values)


def make_config(faults=None, seed=0):
    return PFDRLConfig(
        data=DataConfig(n_residences=3, n_days=4, minutes_per_day=240, seed=5),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(hidden_width=16),
        episodes=2,
        seed=seed,
        faults=faults,
    )


def make_dfl(config):
    from repro.data.generator import generate_neighborhood

    dataset = generate_neighborhood(config.data)
    return dataset, DFLTrainer(
        dataset,
        forecast_config=config.forecast,
        federation_config=config.federation,
        seed=config.seed,
        fault_config=config.faults,
    )


class TestTrainerResume:
    def test_dfl_trainer_resume_bit_identical(self):
        config = make_config()
        _, full = make_dfl(config)
        full.run(3)

        _, part = make_dfl(config)
        part.run(2)
        snap = through_codec(part.state())
        _, resumed = make_dfl(config)
        resumed.restore(snap)
        resumed.run(1)

        assert deep_equal(resumed.state(), full.state())

    def test_pfdrl_trainer_resume_bit_identical(self):
        from repro.core.pfdrl import PFDRLTrainer

        config = make_config()

        def make_drl():
            dataset, dfl = make_dfl(config)
            dfl.run(3)
            streams = build_streams(dataset.slice_days(0, 3), dfl, t0=0)
            return PFDRLTrainer(
                streams,
                dqn_config=config.dqn,
                federation_config=config.federation,
                seed=config.seed,
            )

        full = make_drl()
        for _ in range(3):
            full.run_day()

        part = make_drl()
        part.run_day()
        snap = through_codec(part.state())
        resumed = make_drl()
        resumed.restore(snap)
        for _ in range(2):
            resumed.run_day()

        assert deep_equal(resumed.state(), full.state())


class TestHierarchyResume:
    """Two-tier federation state rides the trainer checkpoint: resumed
    runs must replay the same participant samples, staleness ages, and
    merged weights bit-for-bit."""

    @staticmethod
    def make_hier_config(participation=0.5, faults=None, seed=0):
        from repro.config import FederationConfig, HierarchyConfig

        return PFDRLConfig(
            data=DataConfig(n_residences=4, n_days=4, minutes_per_day=240, seed=5),
            forecast=ForecastConfig(model="lr", window=10, horizon=10),
            dqn=DQNConfig(hidden_width=16),
            federation=FederationConfig(
                hierarchy=HierarchyConfig(
                    cluster_size=2,
                    upper_topology="ring",
                    participation=participation,
                    seed=seed,
                )
            ),
            episodes=2,
            seed=seed,
            faults=faults,
        )

    @classmethod
    def make_hier_drl(cls, config, telemetry=None):
        from repro.core.pfdrl import PFDRLTrainer

        dataset, dfl = make_dfl(config)
        dfl.run(3)
        streams = build_streams(dataset.slice_days(0, 3), dfl, t0=0)
        return PFDRLTrainer(
            streams,
            dqn_config=config.dqn,
            federation_config=config.federation,
            seed=config.seed,
            fault_config=config.faults,
            telemetry=telemetry,
        )

    def test_hierarchical_trainer_resume_bit_identical(self):
        config = self.make_hier_config()

        full = self.make_hier_drl(config)
        for _ in range(3):
            full.run_day()

        part = self.make_hier_drl(config)
        part.run_day()
        snap = through_codec(part.state())
        resumed = self.make_hier_drl(config)
        resumed.restore(snap)
        for _ in range(2):
            resumed.run_day()

        assert deep_equal(resumed.state(), full.state())

    def test_hierarchy_flat_bus_carries_no_traffic(self):
        trainer = self.make_hier_drl(self.make_hier_config())
        trainer.run_day()
        assert trainer.hierarchy is not None
        assert trainer.bus.stats.n_messages == 0
        tiers = trainer.hierarchy.stats_by_tier()
        assert tiers["tier0"].n_messages > 0

    @staticmethod
    def participation_events(telemetry):
        return [
            {k: v for k, v in e.items() if k in ("round", "participants")}
            for e in telemetry.journal.events
            if e.get("kind") == "pfdrl.hier.round"
        ]

    def test_participation_sets_replay_across_resume(self):
        """Same seed + same trace ⇒ identical sampled participant sets,
        whether the run is fresh or resumed mid-way from a checkpoint."""
        config = self.make_hier_config(participation=0.5)

        full_tel = Telemetry(journal=RunJournal())
        full = self.make_hier_drl(config, telemetry=full_tel)
        for _ in range(3):
            full.run_day()
        reference = self.participation_events(full_tel)
        assert reference, "expected hier round events in the journal"
        import json

        for event in reference:
            for members in json.loads(event["participants"]).values():
                assert 1 <= len(members) <= 2  # participation=0.5 of 2-clusters

        part_tel = Telemetry(journal=RunJournal())
        part = self.make_hier_drl(config, telemetry=part_tel)
        part.run_day()
        snap = through_codec(part.state())

        resumed_tel = Telemetry(journal=RunJournal())
        resumed = self.make_hier_drl(config, telemetry=resumed_tel)
        resumed.restore(snap)
        for _ in range(2):
            resumed.run_day()

        replayed = self.participation_events(part_tel) + self.participation_events(
            resumed_tel
        )
        assert replayed == reference

    def test_participation_sets_replay_under_faults(self):
        config = self.make_hier_config(
            participation=0.5,
            faults=FaultConfig(drop_rate=0.3, crash_rate=0.2, recovery_rate=0.5, seed=3),
        )

        full_tel = Telemetry(journal=RunJournal())
        full = self.make_hier_drl(config, telemetry=full_tel)
        for _ in range(3):
            full.run_day()
        reference = self.participation_events(full_tel)

        part_tel = Telemetry(journal=RunJournal())
        part = self.make_hier_drl(config, telemetry=part_tel)
        part.run_day()
        snap = through_codec(part.state())
        resumed_tel = Telemetry(journal=RunJournal())
        resumed = self.make_hier_drl(config, telemetry=resumed_tel)
        resumed.restore(snap)
        for _ in range(2):
            resumed.run_day()

        replayed = self.participation_events(part_tel) + self.participation_events(
            resumed_tel
        )
        assert replayed == reference
        assert deep_equal(resumed.state(), full.state())


class TestSystemResume:
    @pytest.mark.parametrize("stop_after", [2, 5])
    def test_interrupt_resume_matches_uninterrupted(self, tmp_path, stop_after):
        full = PFDRLSystem(make_config()).run()

        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted) as exc_info:
            PFDRLSystem(make_config()).run(
                checkpoint_store=store, stop_after_step=stop_after
            )
        assert exc_info.value.step == stop_after
        assert store.latest_step() == stop_after

        resumed = PFDRLSystem(make_config()).run(
            checkpoint_store=store, resume=True
        )
        assert deep_equal(full.to_dict(), resumed.to_dict())

    def test_journal_identical_modulo_wallclock(self, tmp_path):
        j_full = RunJournal()
        full = PFDRLSystem(
            make_config(), telemetry=Telemetry(journal=j_full)
        ).run()

        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(
                make_config(), telemetry=Telemetry(journal=RunJournal())
            ).run(checkpoint_store=store, stop_after_step=4)
        j_res = RunJournal()
        resumed = PFDRLSystem(
            make_config(), telemetry=Telemetry(journal=j_res)
        ).run(checkpoint_store=store, resume=True)

        assert deep_equal(full.to_dict(), resumed.to_dict())
        assert j_full.deterministic_view() == j_res.deterministic_view()

    def test_config_digest_guard(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config(seed=0)).run(
                checkpoint_store=store, stop_after_step=2
            )
        with pytest.raises(CheckpointError):
            PFDRLSystem(make_config(seed=1)).resume_from(store)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ValueError):
            PFDRLSystem(make_config()).run(resume=True)

    def test_resume_on_empty_store_runs_from_scratch(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        full = PFDRLSystem(make_config()).run()
        resumed = PFDRLSystem(make_config()).run(
            checkpoint_store=store, resume=True
        )
        assert deep_equal(full.to_dict(), resumed.to_dict())
        assert store.latest_step() is not None  # checkpoints were written


class TestFaultyResume:
    def test_faulty_run_resume_bit_identical(self, tmp_path):
        faults = FaultConfig(crash_rate=0.2, recovery_rate=0.6, seed=11)
        full = PFDRLSystem(make_config(faults)).run()

        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config(faults)).run(
                checkpoint_store=store, stop_after_step=5
            )
        resumed = PFDRLSystem(make_config(faults)).run(
            checkpoint_store=store, resume=True
        )
        assert deep_equal(full.to_dict(), resumed.to_dict())

    def test_recovery_mode_counts_restores(self):
        faults = FaultConfig(
            crash_rate=0.3,
            recovery_rate=0.7,
            recover_from_snapshot=True,
            seed=11,
        )
        telemetry = Telemetry()
        PFDRLSystem(make_config(faults), telemetry=telemetry).run()
        n_restores = telemetry.counters.get(
            "dfl.recovery.restores", 0
        ) + telemetry.counters.get("pfdrl.recovery.restores", 0)
        assert n_restores >= 1
        # TransportStats mirrors the count into the transport gauges.
        gauges = [
            v
            for k, v in telemetry.gauges.items()
            if k.endswith(".n_restores")
        ]
        assert gauges and max(gauges) >= 1

    def test_recovery_mode_resume_bit_identical(self, tmp_path):
        faults = FaultConfig(
            crash_rate=0.3,
            recovery_rate=0.7,
            recover_from_snapshot=True,
            seed=11,
        )
        full = PFDRLSystem(make_config(faults)).run()

        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config(faults)).run(
                checkpoint_store=store, stop_after_step=4
            )
        resumed = PFDRLSystem(make_config(faults)).run(
            checkpoint_store=store, resume=True
        )
        assert deep_equal(full.to_dict(), resumed.to_dict())


class TestTraceResume:
    """Resume-under-trace: the replayed fault schedule must survive the
    checkpoint boundary bit-identically, self-healing state included."""

    def trace_faults(self, selfheal=False):
        return FaultConfig(
            trace=TraceConfig(
                mttf_rounds=4.0,
                repair_rounds=3.0,
                loss_rate_min=0.5,
                loss_rate_max=0.9,
                n_rounds=32,
                seed=3,
            ),
            selfheal=selfheal,
            seed=11,
        )

    @pytest.mark.parametrize("selfheal", [False, True])
    def test_trace_resume_bit_identical(self, tmp_path, selfheal):
        faults = self.trace_faults(selfheal)
        full = PFDRLSystem(make_config(faults)).run()

        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config(faults)).run(
                checkpoint_store=store, stop_after_step=4
            )
        resumed = PFDRLSystem(make_config(faults)).run(
            checkpoint_store=store, resume=True
        )
        assert deep_equal(full.to_dict(), resumed.to_dict())

    def test_trace_run_differs_from_fault_free(self):
        clean = PFDRLSystem(make_config()).run()
        traced = PFDRLSystem(make_config(self.trace_faults())).run()
        assert not deep_equal(clean.to_dict(), traced.to_dict())

    def test_different_trace_seed_refused_at_resume(self, tmp_path):
        import dataclasses

        faults = self.trace_faults()
        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config(faults)).run(
                checkpoint_store=store, stop_after_step=4
            )
        other = dataclasses.replace(
            faults, trace=dataclasses.replace(faults.trace, seed=4)
        )
        # The config digest covers the nested TraceConfig, so the resume
        # guard refuses before the trace digest is even consulted.
        with pytest.raises(CheckpointError):
            PFDRLSystem(make_config(other)).resume_from(store)


def recompress(ckpt_dir):
    """Rewrite a checkpoint's arrays deflated, as ``np.savez_compressed``
    wrote every checkpoint before arrays were stored uncompressed."""
    path = ckpt_dir / "arrays.npz"
    with np.load(path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}


class TestArrayStorageCompat:
    def test_arrays_are_stored_uncompressed(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config()).run(checkpoint_store=store, stop_after_step=1)
        with zipfile.ZipFile(tmp_path / "ckpt-00000001" / "arrays.npz") as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_deflated_checkpoint_loads_verifies_and_resumes(self, tmp_path):
        full = PFDRLSystem(make_config()).run()
        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config()).run(checkpoint_store=store, stop_after_step=4)
        stored_state, _ = store.load(4)
        recompress(tmp_path / "ckpt-00000004")

        deflated_state, _ = store.load(4, verify=True)
        assert deep_equal(deflated_state, stored_state)
        resumed = PFDRLSystem(make_config()).run(checkpoint_store=store, resume=True)
        assert deep_equal(full.to_dict(), resumed.to_dict())

    def test_corrupted_stored_member_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        with pytest.raises(TrainingInterrupted):
            PFDRLSystem(make_config()).run(checkpoint_store=store, stop_after_step=1)
        path = tmp_path / "ckpt-00000001" / "arrays.npz"
        with zipfile.ZipFile(path) as zf:
            info = max(zf.infolist(), key=lambda i: i.file_size)
            # Local header (30 bytes + name + extra) precedes the member.
            zf.fp.seek(info.header_offset + 26)
            name_len, extra_len = np.frombuffer(zf.fp.read(4), dtype="<u2")
        data_at = info.header_offset + 30 + int(name_len) + int(extra_len)
        raw = bytearray(path.read_bytes())
        raw[data_at + info.file_size - 8] ^= 0xFF  # a byte of the array data
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            store.load(1)
