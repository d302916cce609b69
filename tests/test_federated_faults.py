"""Tests for the fault-injection fabric and fault-tolerant aggregation.

Covers the fault model's contract: deterministic seeding, zero-fault
bit-identity with the reliable implementation, delayed-delivery ordering,
quorum skip-and-continue, stale-payload rejection, corrupted-payload
quarantine (on the plain bus too), and end-to-end survival of a lossy
run with churn.
"""

import numpy as np
import pytest

from repro.config import DataConfig, DQNConfig, FaultConfig, FederationConfig, ForecastConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import build_streams
from repro.data import generate_neighborhood
from repro.federated import (
    FaultyBus,
    MessageBus,
    ReceiveFilter,
    make_bus,
    make_topology,
    payload_matches,
    staleness_weights,
)
from repro.federated.dfl import DFLTrainer
from repro.federated.transport import Message
from repro.nn.serialization import average_weights, weights_allclose


@pytest.fixture(scope="module")
def dataset():
    return generate_neighborhood(
        n_residences=5, n_days=2, minutes_per_day=240,
        device_types=("tv", "light"), seed=3,
    )


FC = ForecastConfig(model="lr", window=10, horizon=10)
FED = FederationConfig(beta_hours=6.0, gamma_hours=6.0)


def run_dfl(dataset, faults=None, n_days=2, seed=0):
    tr = DFLTrainer(dataset, FC, FED, seed=seed, fault_config=faults)
    results = tr.run(n_days)
    return tr, results


def all_weights(tr):
    return [c.get_weights(d) for c in tr.clients for d in c.device_types]


class TestFaultConfig:
    def test_defaults_inactive(self):
        assert not FaultConfig().active

    def test_any_fault_activates(self):
        assert FaultConfig(drop_rate=0.1).active
        assert FaultConfig(crashed_agents=(0,)).active
        assert FaultConfig(quorum_fraction=0.5).active
        assert FaultConfig(straggler_fraction=0.3).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.0)  # retransmission could never succeed
        with pytest.raises(ValueError):
            FaultConfig(staleness_decay=0.0)
        with pytest.raises(ValueError):
            FaultConfig(max_delay_rounds=0)
        with pytest.raises(ValueError):
            FaultConfig(crashed_agents=(-1,))


class TestMakeBus:
    def test_inactive_gives_plain_bus(self):
        topo = make_topology("full", 3)
        assert type(make_bus(topo, None)) is MessageBus
        assert type(make_bus(topo, FaultConfig())) is MessageBus

    def test_active_gives_faulty_bus(self):
        topo = make_topology("full", 3)
        assert isinstance(make_bus(topo, FaultConfig(drop_rate=0.2)), FaultyBus)


class TestZeroFaultRegression:
    """All fault rates zero => bit-identical to the reliable path."""

    def test_dfl_weights_and_stats_identical(self, dataset):
        base, _ = run_dfl(dataset, faults=None)
        zero, _ = run_dfl(dataset, faults=FaultConfig())
        # Active config but a lossless fabric: the quorum is always met
        # and every payload is fresh, so the merge is the same mean.
        lossless, _ = run_dfl(
            dataset, faults=FaultConfig(quorum_fraction=0.5, staleness_horizon=1)
        )
        for wa, wb, wc in zip(all_weights(base), all_weights(zero), all_weights(lossless)):
            assert all(np.array_equal(x, y) for x, y in zip(wa, wb))
            assert all(np.array_equal(x, y) for x, y in zip(wa, wc))
        assert base.bus.stats == zero.bus.stats
        s, t = base.bus.stats, lossless.bus.stats
        assert (s.n_messages, s.n_params, s.n_bytes, s.n_tx_params) == (
            t.n_messages, t.n_params, t.n_bytes, t.n_tx_params,
        )
        assert t.n_retransmits == t.n_dropped == t.n_quorum_skips == 0

    def test_pfdrl_weights_identical(self, dataset):
        streams = build_streams(dataset)
        cfg = DQNConfig(hidden_width=10, epsilon_decay_steps=200,
                        batch_size=8, memory_capacity=200, learn_every=2)

        def train(faults):
            tr = PFDRLTrainer(streams, cfg, FED, seed=0, fault_config=faults)
            tr.run(2)
            tr.finalize()
            return tr

        base = train(None)
        lossless = train(FaultConfig(quorum_fraction=0.5))
        for a, b in zip(base.agents, lossless.agents):
            assert weights_allclose(a.get_weights(), b.get_weights(), rtol=0, atol=0)
        assert lossless.bus.stats.n_quorum_skips == 0


class TestReliableMeshQuarantine:
    """The plain bus runs the same receive policy: a non-finite payload
    is quarantined, never averaged into a neighbour."""

    def test_plain_bus_liveness_hooks(self):
        bus = MessageBus(make_topology("full", 3))
        assert bus.is_online(0) and bus.sends_this_round(2)
        assert bus.drain_recovered() == []

    def test_dfl_nan_payload_quarantined(self, dataset):
        tr = DFLTrainer(dataset, FC, FED, seed=0)
        assert type(tr.bus) is MessageBus
        sick = tr.clients[0]
        for device in sick.device_types:
            sick.set_weights(
                device, [np.full_like(w, np.nan) for w in sick.get_weights(device)]
            )
        tr._broadcast_and_aggregate()
        for client in tr.clients[1:]:
            for device in client.device_types:
                assert all(np.isfinite(w).all() for w in client.get_weights(device))
        n_neighbours = len(tr.topology.neighbors(0))
        assert tr.bus.stats.n_quarantined == n_neighbours * len(sick.device_types)

    def test_pfdrl_nan_payload_quarantined(self, dataset):
        cfg = DQNConfig(hidden_width=10, batch_size=8, memory_capacity=200)
        tr = PFDRLTrainer(build_streams(dataset), cfg, FED, seed=0)
        assert type(tr.bus) is MessageBus
        sick = tr.agents[0]
        sick.set_weights([np.full_like(w, np.nan) for w in sick.get_weights()])
        tr._share_round()
        for agent in tr.agents[1:]:
            assert all(np.isfinite(w).all() for w in agent.get_weights())
        assert tr.bus.stats.n_quarantined == len(tr.topology.neighbors(0))


class TestDeterministicSeeding:
    def test_same_seed_identical_run(self, dataset):
        faults = FaultConfig(
            drop_rate=0.2, corrupt_rate=0.05, delay_rate=0.1,
            crash_rate=0.05, straggler_fraction=0.2,
            quorum_fraction=0.5, seed=11,
        )
        a, res_a = run_dfl(dataset, faults)
        b, res_b = run_dfl(dataset, faults)
        assert a.bus.stats == b.bus.stats
        assert res_a[-1].n_quorum_skipped == res_b[-1].n_quorum_skipped
        for wa, wb in zip(all_weights(a), all_weights(b)):
            assert all(np.array_equal(x, y) for x, y in zip(wa, wb))

    def test_different_seed_different_faults(self, dataset):
        a, _ = run_dfl(dataset, FaultConfig(drop_rate=0.3, seed=1))
        b, _ = run_dfl(dataset, FaultConfig(drop_rate=0.3, seed=2))
        assert a.bus.stats != b.bus.stats

    def test_fault_rng_independent_of_model_rng(self, dataset):
        """Fault injection must not perturb training randomness: the same
        fault seed with different model seeds drops the same deliveries."""
        faults = FaultConfig(drop_rate=0.25, seed=5)
        a, _ = run_dfl(dataset, faults, seed=0)
        b, _ = run_dfl(dataset, faults, seed=1)
        assert a.bus.stats.n_dropped == b.bus.stats.n_dropped
        assert a.bus.stats.n_retransmits == b.bus.stats.n_retransmits


class TestDelayedDelivery:
    def test_delayed_messages_land_late_in_order(self):
        bus = FaultyBus(
            make_topology("full", 2),
            FaultConfig(delay_rate=1.0, max_delay_rounds=1, seed=0),
        )
        bus.send(0, 1, [np.full(3, 1.0)], tag="w")
        bus.send(0, 1, [np.full(3, 2.0)], tag="w")
        assert bus.pending(1) == 0  # held back, not delivered
        assert bus.stats.n_delayed == 2
        bus.advance_round()
        msgs = bus.collect(1, tag="w")
        assert [float(m.payload[0][0]) for m in msgs] == [1.0, 2.0]  # FIFO
        # Stamped with the round they were SENT in, one behind delivery.
        assert all(m.round == 0 for m in msgs)
        assert bus.round == 1

    def test_delayed_message_to_crashed_agent_is_lost(self):
        bus = FaultyBus(
            make_topology("full", 2),
            FaultConfig(delay_rate=1.0, max_delay_rounds=1,
                        crash_rate=1.0, recovery_rate=0.0, seed=0),
        )
        bus.send(0, 1, [np.ones(2)])
        bus.advance_round()  # both agents crash; the held message dies
        assert bus.stats.n_dropped == 1
        assert bus.pending(1) == 0


class TestQuorumGate:
    def test_skip_and_continue(self, dataset):
        # Everyone but agent 0 permanently offline: 0 can never reach a
        # 50% quorum of its 4 neighbours, so it must keep its local model.
        faults = FaultConfig(crashed_agents=(1, 2, 3, 4), quorum_fraction=0.5)
        tr, results = run_dfl(dataset, faults)
        assert results[-1].n_quorum_skipped > 0
        assert tr.bus.stats.n_quorum_skips == results[-1].n_quorum_skipped

        # The survivor's weights match a local-only run: skipped rounds
        # fall back to purely local training.
        local = DFLTrainer(dataset, FC, FED, mode="local", seed=0)
        local.run(2)
        for dev in ("tv", "light"):
            assert all(
                np.array_equal(x, y)
                for x, y in zip(tr.clients[0].get_weights(dev),
                                local.clients[0].get_weights(dev))
            )

    def test_quorum_met_aggregates(self, dataset):
        # One of four neighbours down, quorum 0.5 => rounds still merge.
        faults = FaultConfig(crashed_agents=(4,), quorum_fraction=0.5)
        tr, results = run_dfl(dataset, faults)
        assert results[-1].n_quorum_skipped == 0


class TestStaleRejection:
    def test_receive_filter_rejects_old_payloads(self):
        topo = make_topology("full", 2)
        bus = FaultyBus(topo, FaultConfig(quorum_fraction=0.0, staleness_horizon=1))
        ref = [np.zeros((2, 2)), np.zeros(3)]
        fresh = Message(0, 1, "w", (np.ones((2, 2)), np.ones(3)), round=3)
        stale = Message(0, 1, "w", (np.ones((2, 2)), np.ones(3)), round=0)
        bus.round = 3
        recv = ReceiveFilter(bus, bus.faults, ref, n_expected=1)
        recv.admit([fresh, stale])
        assert len(recv.payloads) == 1
        assert bus.stats.n_stale_rejected == 1
        # Fresh payload keeps full weight next to the local model.
        assert np.allclose(recv.client_weights(), [1.0, 1.0])

    def test_staleness_weights_discount_and_reject(self):
        w = staleness_weights([0, 1, 2, 3], horizon=2, decay=0.5)
        assert np.allclose(w, [1.0, 0.5, 0.25, 0.0])
        with pytest.raises(ValueError):
            staleness_weights([-1], horizon=2)
        with pytest.raises(ValueError):
            staleness_weights([0], horizon=2, decay=0.0)

    def test_discounted_aggregation_pulls_less(self):
        local = [np.zeros(4)]
        peer = [np.ones(4)]
        fresh = average_weights([local, peer], client_weights=[1.0, 1.0])
        discounted = average_weights([local, peer], client_weights=[1.0, 0.5])
        assert fresh[0][0] == pytest.approx(0.5)
        assert discounted[0][0] == pytest.approx(1.0 / 3.0)


class TestCorruptionQuarantine:
    def test_payload_matches(self):
        ref = [np.zeros((2, 2)), np.zeros(3)]
        assert payload_matches([np.ones((2, 2)), np.ones(3)], ref)
        assert not payload_matches([np.ones((2, 2))], ref)  # missing array
        assert not payload_matches([np.ones((2, 2)), np.ones(2)], ref)  # truncated
        bad = [np.ones((2, 2)), np.array([1.0, np.nan, 0.0])]
        assert not payload_matches(bad, ref)  # NaN poisoned

    def test_corrupted_payloads_never_poison_the_average(self, dataset):
        faults = FaultConfig(corrupt_rate=1.0, seed=0)
        tr, _ = run_dfl(dataset, faults)
        assert tr.bus.stats.n_corrupted > 0
        assert tr.bus.stats.n_quarantined == tr.bus.stats.n_corrupted
        for ws in all_weights(tr):
            for w in ws:
                assert np.all(np.isfinite(w))

    def test_corruption_is_detectable(self):
        bus = FaultyBus(make_topology("full", 2), FaultConfig(corrupt_rate=1.0, seed=4))
        ref = [np.zeros((3, 3)), np.zeros(5)]
        for _ in range(10):
            bus.send(0, 1, ref, tag="w")
        for msg in bus.collect(1, tag="w"):
            assert not payload_matches(msg.payload, ref)


class TestChurnAndStragglers:
    def test_crashed_agent_off_the_air(self, dataset):
        faults = FaultConfig(crashed_agents=(2,), quorum_fraction=0.0)
        tr, _ = run_dfl(dataset, faults)
        bus = tr.bus
        assert not bus.is_online(2)
        assert bus.online_agents() == [0, 1, 3, 4]
        # Nobody ever heard from agent 2.
        assert 2 not in bus.stats.per_agent_sent

    def test_churn_recovers(self):
        bus = FaultyBus(
            make_topology("full", 4),
            FaultConfig(crash_rate=1.0, recovery_rate=1.0, seed=0),
        )
        bus.advance_round()  # everyone crashes
        assert bus.online_agents() == []
        bus.advance_round()  # everyone recovers
        assert bus.online_agents() == [0, 1, 2, 3]

    def test_stragglers_skip_sending_rounds(self):
        bus = FaultyBus(
            make_topology("full", 4),
            FaultConfig(straggler_fraction=0.5, straggler_skip_prob=1.0, seed=0),
        )
        skipping = [a for a in range(4) if not bus.sends_this_round(a)]
        assert len(skipping) == 2  # half the cohort designated stragglers
        assert all(bus.is_online(a) for a in range(4))  # they still listen


class TestLossyEndToEnd:
    def test_twenty_percent_drop_one_crash_completes(self, dataset):
        """The ISSUE's acceptance scenario."""
        faults = FaultConfig(
            drop_rate=0.2, crashed_agents=(1,), quorum_fraction=0.5, seed=9,
        )
        tr, results = run_dfl(dataset, faults)
        assert np.isfinite(results[-1].mean_train_loss)
        acc = tr.mean_accuracy(dataset)
        assert np.isfinite(acc) and 0.0 <= acc <= 1.0
        stats = tr.bus.stats
        assert stats.n_retransmits > 0  # observable, not silent
        assert stats.n_dropped > 0
        assert results[-1].n_retransmits == stats.n_retransmits

    def test_pfdrl_gamma_path_survives_faults(self, dataset):
        streams = build_streams(dataset)
        cfg = DQNConfig(hidden_width=10, epsilon_decay_steps=200,
                        batch_size=8, memory_capacity=200, learn_every=3)
        faults = FaultConfig(
            drop_rate=0.3, crashed_agents=(1,), corrupt_rate=0.1,
            delay_rate=0.2, quorum_fraction=0.75, seed=2,
        )
        tr = PFDRLTrainer(streams, cfg, FED, seed=0, fault_config=faults)
        results = tr.run(2)
        tr.finalize()
        assert results[-1].n_quorum_skipped > 0
        for agent in tr.agents:
            for w in agent.get_weights():
                assert np.all(np.isfinite(w))

    def test_faults_ignored_outside_decentralized_paths(self, dataset):
        faults = FaultConfig(drop_rate=0.5, seed=0)
        central = DFLTrainer(dataset, FC, FED, mode="centralized",
                             seed=0, fault_config=faults)
        assert type(central.bus) is MessageBus
        streams = build_streams(dataset)
        frl = PFDRLTrainer(streams, DQNConfig(hidden_width=10), FED,
                           sharing="full", seed=0, fault_config=faults)
        assert type(frl.bus) is MessageBus


class TestTransportSatellites:
    def test_pending_unknown_agent_raises(self):
        bus = MessageBus(make_topology("full", 2))
        with pytest.raises(KeyError):
            bus.pending(9)

    def test_zero_neighbor_broadcast_records_transmission(self):
        bus = MessageBus(make_topology("full", 1))
        assert bus.broadcast(0, [np.zeros(7)]) == 0
        # No deliveries, but the radio transmission itself is accounted.
        assert bus.stats.n_messages == 0
        assert bus.stats.n_tx_params == 7


class TestAverageWeightsValidation:
    def test_shape_mismatch_descriptive(self):
        with pytest.raises(ValueError, match="client 1"):
            average_weights([[np.zeros((2, 2))], [np.zeros((2, 3))]])

    def test_length_mismatch_descriptive(self):
        with pytest.raises(ValueError, match="length"):
            average_weights([[np.zeros(2)], [np.zeros(2), np.zeros(2)]])

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            average_weights([[np.array(["a", "b"])], [np.array(["c", "d"])]])
