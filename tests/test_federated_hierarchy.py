"""Tests for the two-tier hierarchical federation (repro.federated.hierarchy).

Contracts pinned here:

- cluster assignment is contiguous, covers every member, and never
  leaves a stranded singleton;
- participation sampling is a pure function of (seed, round, cluster) —
  deterministic, fraction-respecting, and replayed identically after a
  checkpoint resume;
- the aggregator's upload cache applies the PR-1 staleness semantics
  (geometric discount, horizon eviction);
- a single cluster at full participation is aggregate-equivalent to the
  flat FedAvg mean, while multi-cluster message counts stay strictly
  below the flat mesh;
- upper-tier faults (traces, churn, self-healing) compose unchanged, and
  a lossless active upper tier merges exactly like the plain bus;
- state round-trips bitwise: resumed runs equal uninterrupted ones.
"""

import numpy as np
import pytest

from repro.config import FaultConfig, HierarchyConfig, TraceConfig
from repro.federated.hierarchy import (
    ClusterAggregator,
    HierarchicalFederation,
    ParticipationSampler,
    SegmentedScaleRunner,
    assign_clusters,
)
from repro.federated.topology import make_topology
from repro.federated.transport import MessageBus
from repro.persist import CheckpointError, CheckpointStore, TrainingInterrupted


class TestAssignClusters:
    def test_contiguous_cover(self):
        clusters = assign_clusters(10, 3)
        assert clusters == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
        assert sorted(m for c in clusters for m in c) == list(range(10))

    def test_exact_division(self):
        assert assign_clusters(8, 4) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_singleton_tail_absorbed(self):
        clusters = assign_clusters(9, 4)
        assert clusters == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]

    def test_single_cluster(self):
        assert assign_clusters(3, 10) == [[0, 1, 2]]

    def test_invalid(self):
        with pytest.raises(ValueError):
            assign_clusters(0, 4)
        with pytest.raises(ValueError):
            assign_clusters(4, 0)


class TestParticipationSampler:
    def make(self, participation=0.5, min_participants=1, seed=7):
        cfg = HierarchyConfig(
            cluster_size=4,
            participation=participation,
            min_participants=min_participants,
            seed=seed,
        )
        return ParticipationSampler(cfg, assign_clusters(16, 4))

    def test_pure_function_of_round(self):
        s = self.make()
        assert s.sample(3) == s.sample(3)
        fresh = self.make()
        assert fresh.sample(3) == s.sample(3)

    def test_rounds_differ(self):
        s = self.make()
        samples = [s.sample(r) for r in range(8)]
        assert len({tuple(tuple(v) for v in smp.values()) for smp in samples}) > 1

    def test_fraction_respected(self):
        s = self.make(participation=0.5)
        for r in range(5):
            for cid, members in s.sample(r).items():
                assert len(members) == 2
                assert set(members) <= set(s.clusters[cid])

    def test_full_participation_everyone(self):
        s = self.make(participation=1.0)
        assert s.sample(0) == {cid: c for cid, c in enumerate(s.clusters)}

    def test_min_participants_floor(self):
        s = self.make(participation=0.01, min_participants=2)
        for cid, members in s.sample(0).items():
            assert len(members) == 2

    def test_seed_changes_sets(self):
        a = [self.make(seed=1).sample(r) for r in range(6)]
        b = [self.make(seed=2).sample(r) for r in range(6)]
        assert a != b


class TestClusterAggregator:
    def submit(self, agg, member, value, rnd):
        agg.submit("w", member, [np.full(3, float(value))], rnd)

    def test_cached_mean_uniform_when_fresh(self):
        agg = ClusterAggregator(0, [0, 1, 2])
        for m in range(3):
            self.submit(agg, m, m, rnd=0)
        mean = agg.cached_mean("w", 0, horizon=2, decay=0.5)
        np.testing.assert_allclose(mean[0], np.full(3, 1.0))

    def test_stale_upload_discounted(self):
        agg = ClusterAggregator(0, [0, 1])
        self.submit(agg, 0, 0.0, rnd=0)  # will be 1 round old
        self.submit(agg, 1, 1.0, rnd=1)  # fresh
        mean = agg.cached_mean("w", 1, horizon=2, decay=0.5)
        # weights 0.5 (age 1) and 1.0 (age 0), normalized: (0.5*0 + 1*1)/1.5
        np.testing.assert_allclose(mean[0], np.full(3, 1.0 / 1.5))

    def test_horizon_evicts(self):
        agg = ClusterAggregator(0, [0, 1])
        self.submit(agg, 0, 5.0, rnd=0)
        self.submit(agg, 1, 1.0, rnd=9)
        mean = agg.cached_mean("w", 9, horizon=2, decay=0.5)
        np.testing.assert_allclose(mean[0], np.full(3, 1.0))
        assert agg.contributing("w", 9, horizon=2) == [1]

    def test_no_live_uploads_raises(self):
        agg = ClusterAggregator(0, [0])
        self.submit(agg, 0, 1.0, rnd=0)
        with pytest.raises(RuntimeError):
            agg.cached_mean("w", 10, horizon=2, decay=0.5)

    def test_foreign_member_rejected(self):
        agg = ClusterAggregator(0, [0, 1])
        with pytest.raises(KeyError):
            self.submit(agg, 5, 1.0, rnd=0)

    def test_state_round_trip(self):
        agg = ClusterAggregator(2, [4, 5], tier=0)
        self.submit(agg, 4, 3.0, rnd=1)
        agg.cached_mean("w", 1, horizon=2, decay=0.5)
        clone = ClusterAggregator(2, [4, 5], tier=0)
        clone.load_state_dict(agg.state_dict())
        np.testing.assert_array_equal(
            clone.cached_mean("w", 2, horizon=2, decay=0.5)[0],
            agg.cached_mean("w", 2, horizon=2, decay=0.5)[0],
        )


def run_rounds(runner, n):
    return [runner.run_round() for _ in range(n)]


class TestHierarchicalFederation:
    def test_single_cluster_full_participation_is_flat_mean(self):
        """One cluster + everyone uploading == the flat FedAvg mean."""
        cfg = HierarchyConfig(cluster_size=8, participation=1.0)
        hier = HierarchicalFederation(8, cfg)
        weights = np.arange(8, dtype=np.float64).reshape(8, 1)
        applied = {}
        hier.share_round(
            [(
                "w",
                lambda m: [weights[m].copy()],
                lambda m, p: applied.__setitem__(m, p[0].copy()),
            )]
        )
        expected = weights.mean(axis=0)
        for m in range(8):
            np.testing.assert_allclose(applied[m], expected)

    def test_messages_below_flat_mesh(self):
        n = 32
        cfg = HierarchyConfig(cluster_size=8, upper_topology="ring")
        runner = SegmentedScaleRunner(n, cfg, dim=4, seed=0)
        run_rounds(runner, 3)
        tiers = runner.hier.stats_by_tier()
        hier_msgs = tiers["tier0"].n_messages + tiers["tier1"].n_messages

        flat = MessageBus(make_topology("full", n))
        for _ in range(3):
            for i in range(n):
                flat.broadcast(i, [np.zeros(4)], tag="w")
            for i in range(n):
                flat.collect(i, tag="w")
            flat.advance_round()
        assert hier_msgs < flat.stats.n_messages

    def test_stats_by_tier_totals(self):
        cfg = HierarchyConfig(cluster_size=4)
        runner = SegmentedScaleRunner(8, cfg, dim=4, seed=1)
        run_rounds(runner, 2)
        tiers = runner.hier.stats_by_tier()
        by_cluster = runner.hier.stats_by_cluster()
        assert tiers["tier0"].n_messages == sum(
            s.n_messages for s in by_cluster.values()
        )
        assert runner.hier.n_tx_params == (
            tiers["tier0"].n_tx_params + tiers["tier1"].n_tx_params
        )

    def test_state_round_trip_bit_identical(self):
        cfg = HierarchyConfig(cluster_size=4, participation=0.5, seed=3)
        full = SegmentedScaleRunner(16, cfg, dim=4, seed=3)
        run_rounds(full, 8)

        part = SegmentedScaleRunner(16, cfg, dim=4, seed=3)
        run_rounds(part, 4)
        snap = part.state_dict()
        resumed = SegmentedScaleRunner(16, cfg, dim=4, seed=3)
        resumed.load_state_dict(snap)
        tail = run_rounds(resumed, 4)

        np.testing.assert_array_equal(resumed.weights, full.weights)
        assert [s["participants"] for s in tail] == [
            s["participants"] for s in run_rounds_reference(cfg, 8)[4:]
        ]

    def test_cluster_count_guard(self):
        cfg = HierarchyConfig(cluster_size=4)
        a = HierarchicalFederation(16, cfg)
        b = HierarchicalFederation(8, cfg)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())


def run_rounds_reference(cfg, n, n_members=16, dim=4, seed=3):
    runner = SegmentedScaleRunner(n_members, cfg, dim=dim, seed=seed)
    return run_rounds(runner, n)


class TestUpperTierZeroFaults:
    """A lossless active upper tier merges exactly like the plain bus."""

    @pytest.mark.parametrize("upper", ["ring", "full"])
    def test_weights_and_tier1_stats_identical(self, upper):
        cfg = HierarchyConfig(
            cluster_size=4, upper_topology=upper, participation=0.5, seed=4
        )
        plain = SegmentedScaleRunner(24, cfg, dim=4, seed=4, faults=None)
        lossless = SegmentedScaleRunner(
            24, cfg, dim=4, seed=4, faults=FaultConfig(quorum_fraction=0.5)
        )
        start = plain.weights.copy()
        assert run_rounds(plain, 6) == run_rounds(lossless, 6)
        assert not np.array_equal(plain.weights, start)
        np.testing.assert_array_equal(plain.weights, lossless.weights)

        a = plain.hier.stats_by_tier()
        b = lossless.hier.stats_by_tier()
        assert a["tier0"] == b["tier0"]
        s, t = a["tier1"], b["tier1"]
        assert (s.n_messages, s.n_params, s.n_bytes, s.n_tx_params) == (
            t.n_messages, t.n_params, t.n_bytes, t.n_tx_params,
        )
        assert t.n_quorum_skips == t.n_dropped == t.n_quarantined == 0


class TestUpperTierFaults:
    def faults(self, **kw):
        kw.setdefault("seed", 11)
        return FaultConfig(**kw)

    def test_drops_and_quorum_on_upper_tier_only(self):
        cfg = HierarchyConfig(cluster_size=4, upper_topology="ring")
        runner = SegmentedScaleRunner(
            32, cfg, dim=4, seed=1,
            faults=self.faults(drop_rate=0.5, max_retries=0, quorum_fraction=0.9),
        )
        run_rounds(runner, 6)
        tiers = runner.hier.stats_by_tier()
        assert tiers["tier1"].n_dropped > 0
        assert tiers["tier0"].n_dropped == 0  # cluster LANs stay reliable
        assert runner.hier.n_quorum_skips > 0

    def test_quorum_failure_keeps_own_mean(self):
        """With nearly every upper-tier delivery dropped and a quorum gate,
        each cluster must fall back to its own mean — never crash or zero
        out."""
        cfg = HierarchyConfig(cluster_size=4, upper_topology="ring")
        runner = SegmentedScaleRunner(
            16, cfg, dim=4, seed=2,
            faults=self.faults(drop_rate=0.95, max_retries=0, quorum_fraction=0.99),
        )
        run_rounds(runner, 3)
        assert np.isfinite(runner.weights).all()
        assert runner.hier.n_quorum_skips > 0

    def test_trace_and_selfheal_compose(self):
        """A severe replayed trace on the aggregator tier must drive the
        self-healing monitor exactly as it would on a flat fabric."""
        cfg = HierarchyConfig(cluster_size=4, upper_topology="ring")
        trace = TraceConfig(
            n_rounds=24, mttf_rounds=8.0, repair_rounds=8.0,
            loss_rate_min=0.8, loss_rate_max=0.95, seed=5,
        )
        runner = SegmentedScaleRunner(
            32, cfg, dim=4, seed=5,
            faults=self.faults(trace=trace, selfheal=True, max_retries=0),
        )
        run_rounds(runner, 20)
        assert runner.hier.monitor is not None
        assert runner.hier.stats_by_tier()["tier1"].n_dropped > 0
        assert np.isfinite(runner.weights).all()

    def test_faulty_resume_bit_identical(self, tmp_path):
        cfg = HierarchyConfig(cluster_size=4, participation=0.5, seed=9)
        faults = self.faults(drop_rate=0.3, crash_rate=0.2, recovery_rate=0.5)
        full = SegmentedScaleRunner(16, cfg, dim=4, seed=9, faults=faults)
        run_rounds(full, 10)

        store = CheckpointStore(tmp_path / "segments")
        first = SegmentedScaleRunner(16, cfg, dim=4, seed=9, faults=faults)
        with pytest.raises(TrainingInterrupted):
            first.run(10, store=store, segment_rounds=3, stop_after_round=4)
        second = SegmentedScaleRunner(16, cfg, dim=4, seed=9, faults=faults)
        second.resume(store)
        assert second.rounds_done == 4
        second.run(10, store=store, segment_rounds=3)
        np.testing.assert_array_equal(second.weights, full.weights)


class TestSegmentedScaleRunner:
    def test_local_step_equals_any_row_chunking(self):
        """One local step over all rows equals the step over row ranges."""
        from repro.federated.hierarchy import _drift_update

        cfg = HierarchyConfig(cluster_size=8, participation=0.5, seed=4)
        runner = SegmentedScaleRunner(64, cfg, dim=4, seed=4)
        chunked = runner.weights.copy()
        for round_index in range(4):
            runner._local_step(round_index)
            for lo, hi in [(0, 16), (16, 17), (17, 40), (40, 64)]:
                _drift_update(chunked, lo, hi, round_index, runner.seed)
            np.testing.assert_array_equal(runner.weights, chunked)

    def test_digest_guard_refuses_other_geometry(self, tmp_path):
        store = CheckpointStore(tmp_path / "segments")
        a = SegmentedScaleRunner(
            16, HierarchyConfig(cluster_size=4, seed=0), dim=4, seed=0
        )
        a.run(2, store=store, segment_rounds=1)
        b = SegmentedScaleRunner(
            16, HierarchyConfig(cluster_size=8, seed=0), dim=4, seed=0
        )
        with pytest.raises(CheckpointError):
            b.resume(store)

    def test_summary_is_json_ready(self):
        import json

        cfg = HierarchyConfig(cluster_size=4)
        runner = SegmentedScaleRunner(8, cfg, dim=4, seed=0)
        run_rounds(runner, 2)
        json.dumps(runner.summary())
        json.dumps(run_rounds(runner, 1))


class TestHierarchyConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(cluster_size=0),
            dict(upper_topology="mesh"),
            dict(upper_hub=-1),
            dict(participation=0.0),
            dict(participation=1.5),
            dict(min_participants=0),
            dict(staleness_horizon=-1),
            dict(staleness_decay=0.0),
            dict(staleness_decay=1.5),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            HierarchyConfig(**kw)

    def test_defaults_valid(self):
        HierarchyConfig()
