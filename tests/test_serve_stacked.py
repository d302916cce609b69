"""Stacked forecasting in the serving path, checked against the controller.

``ModelSnapshot.schedule`` gathers every ``(query, horizon block)`` of a
batch and runs one ``forecast_block`` per (residence, device).  These
tests pin that this is only a faster way of computing the same answers:

- a generated (``hypothesis``, derandomized) equivalence test: every
  answer equals a fresh ``snapshot.controller(rid, t0)`` streaming the
  same readings minute by minute, bit for bit — actions, the forecasts
  decided against, the controlled draw and ``saved_kwh``;
- the load path's nominals equal the regenerated neighbourhood's;
- both paths reject non-finite readings with the same rule.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.controller as ctrl_mod
from repro.__main__ import build_parser, pipeline_config
from repro.config import DataConfig, DQNConfig, ForecastConfig, PFDRLConfig
from repro.core import PFDRLSystem
from repro.core.controller import DeviceNominals, OnlineController, forecast_block
from repro.data.generator import generate_neighborhood
from repro.forecast import FORECASTERS, LinearRegressionForecaster, LSTMForecaster
from repro.persist import CheckpointStore
from repro.serve import ModelSnapshot, ScheduleQuery
from repro.serve.snapshot import device_nominals

WINDOW, HORIZON = 8, 5
MPD = 120


def small_lstm(n_layers):
    """A registry factory for a small, quickly trained LSTM forecaster."""

    def factory(window, horizon, **kwargs):
        return LSTMForecaster(
            window, horizon, hidden_size=6, epochs=1, n_layers=n_layers, **kwargs
        )

    return factory


#: model kind -> registry factory (None: a built-in model).
MODELS = {
    "lstm1": small_lstm(1),
    "lstm2": small_lstm(2),
    "lr": None,
}


def config(model: str) -> PFDRLConfig:
    return PFDRLConfig(
        data=DataConfig(
            n_residences=3, n_days=2, minutes_per_day=MPD,
            device_types=("tv", "light"), heterogeneity=0.6, seed=5,
        ),
        forecast=ForecastConfig(model=model, window=WINDOW, horizon=HORIZON),
        dqn=DQNConfig(
            hidden_width=8, batch_size=8, memory_capacity=200,
            learn_every=4, reward_scale=1 / 30,
        ),
        episodes=1,
        seed=5,
    )


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """One trained, checkpointed and loaded snapshot per model kind."""
    out = {}
    registered = []
    try:
        for kind, factory in MODELS.items():
            model = kind
            if factory is not None:
                model = f"test_serve_stacked_{kind}"
                FORECASTERS[model] = factory
                registered.append(model)
            cfg = config(model)
            store = CheckpointStore(str(tmp_path_factory.mktemp(kind)), keep_last=1)
            PFDRLSystem(cfg).run(checkpoint_store=store)
            out[kind] = ModelSnapshot.load(store, cfg)
        yield out
    finally:
        for model in registered:
            del FORECASTERS[model]


def controller_run(snapshot, query):
    """Stream *query* through a fresh controller, recording what it used.

    Returns per-device actions, the forecast each minute's decision was
    made against and the controlled draw, read off the controller's own
    calls to the shared state and action -> draw rules, plus its
    ``saved_kwh`` total.
    """
    ctrl = snapshot.controller(query.residence_id, t0=query.t0)
    devices = list(query.readings)
    predicted = {d: [] for d in devices}
    controlled = {d: [] for d in devices}
    current = []
    shared_build_state = ctrl_mod.build_state
    shared_apply_actions = ctrl_mod.apply_actions

    def build_state(pred, value, on_kw, standby_kw, device):
        predicted[device].append(pred)
        current.append(device)
        return shared_build_state(pred, value, on_kw, standby_kw, device=device)

    def apply_actions(actions, real_kw, standby_kw):
        out = shared_apply_actions(actions, real_kw, standby_kw)
        controlled[current.pop()].append(float(out[0]))
        return out

    with mock.patch.object(ctrl_mod, "build_state", build_state), \
            mock.patch.object(ctrl_mod, "apply_actions", apply_actions):
        steps = ctrl.run_trace(dict(query.readings))
    actions = {d: np.asarray([s[d] for s in steps]) for d in devices}
    saved = sum(ctrl.stats.saved_kwh.values())
    return actions, predicted, controlled, saved


@st.composite
def batches(draw, snapshot):
    """A batch of 1-6 queries: residences mixed and repeated, every trace
    length from 1 to window + 3 horizons + 4 (so shorter than one lag
    window, and not a multiple of the horizon), any calendar phase."""
    rids = snapshot.residences()
    n = draw(st.integers(1, 6))
    queries = []
    for _ in range(n):
        rid = draw(st.sampled_from(rids))
        n_minutes = draw(st.integers(1, WINDOW + 3 * HORIZON + 4))
        t0 = draw(st.integers(0, MPD - 1))
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        readings = {}
        for device, nom in snapshot._residence(rid).nominals.items():
            level = rng.choice([0.0, nom.standby_kw, nom.on_kw], size=n_minutes)
            readings[device] = level * rng.uniform(0.8, 1.2, size=n_minutes)
        queries.append(ScheduleQuery(residence_id=rid, readings=readings, t0=t0))
    return queries


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_schedule_equals_controller_bitwise(snapshots, kind, data):
    snapshot = snapshots[kind]
    queries = data.draw(batches(snapshot))
    answers = snapshot.schedule(queries)
    assert len(answers) == len(queries)
    for query, answer in zip(queries, answers):
        actions, predicted, controlled, saved = controller_run(snapshot, query)
        for device in query.readings:
            assert np.array_equal(answer.actions[device], actions[device])
            assert np.array_equal(answer.predicted_kw[device], predicted[device])
            assert np.array_equal(answer.controlled_kw[device], controlled[device])
        assert answer.saved_kwh == saved


def test_model_rows_are_stacked(snapshots):
    """A batch makes one forecast_block call per (residence, device),
    and the model-backed rows are the blocks with a full lag window."""
    snapshot = snapshots["lstm1"]
    rid = snapshot.residences()[0]
    nominals = snapshot._residence(rid).nominals
    n_minutes = WINDOW + 3 * HORIZON + 2
    queries = [
        ScheduleQuery(
            residence_id=rid,
            readings={d: np.full(n_minutes, nom.standby_kw) for d, nom in nominals.items()},
            t0=t0,
        )
        for t0 in (0, 7, 33)
    ]
    calls = []
    real = ctrl_mod.forecast_block

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out[1])
        return out

    with mock.patch("repro.serve.snapshot.forecast_block", spy):
        snapshot.schedule(queries)
    blocks = range(0, n_minutes, HORIZON)
    per_query = sum(1 for lo in blocks if lo >= WINDOW)
    assert len(calls) == len(nominals)
    assert all(type(n) is int and n == 3 * per_query for n in calls)


class TestForecastBlock:
    def make(self):
        fc = LinearRegressionForecaster(4, 3, n_extra=2)
        fc.W[:] = np.linspace(-1.0, 1.0, fc.W.size).reshape(fc.W.shape)
        return fc, DeviceNominals(on_kw=0.5, standby_kw=0.02)

    def test_rows_equal_single_history_calls(self):
        fc, nom = self.make()
        rng = np.random.default_rng(0)
        histories = [rng.uniform(0, 0.5, size=n) for n in (0, 2, 4, 7, 11)]
        done = np.asarray([0, 2, 4, 7, 11])
        t0 = np.asarray([5, 0, 100, 239, 17])
        blocks, n_model = forecast_block(fc, histories, nom, done, 240, t0=t0)
        assert blocks.shape == (5, 3)
        assert type(n_model) is int and n_model == 3
        for i, history in enumerate(histories):
            one, used = forecast_block(fc, [history], nom, int(done[i]), 240, t0=int(t0[i]))
            assert np.array_equal(one[0], blocks[i])
            assert used == int(len(history) >= 4)

    def test_persistence_rows(self):
        fc, nom = self.make()
        blocks, n_model = forecast_block(fc, [[], [0.3, 0.1]], nom, 0, 240)
        assert n_model == 0
        assert np.array_equal(blocks, [[0.02] * 3, [0.1] * 3])


class TestDeviceNominals:
    @pytest.mark.parametrize(
        "data",
        [
            pipeline_config(build_parser().parse_args(["train", "--model", "lstm"])).data,
            DataConfig(
                n_residences=5, n_days=1, minutes_per_day=60,
                device_types=("tv", "light", "fridge", "computer"),
                heterogeneity=1.0, seed=3,
            ),
        ],
        ids=["cli", "heterogeneity-1"],
    )
    def test_equal_to_regenerated_neighbourhood(self, data):
        derived = device_nominals(data)
        dataset = generate_neighborhood(data)
        assert sorted(derived) == list(range(data.n_residences))
        for rid in range(data.n_residences):
            traces = dict(dataset[rid])
            assert list(derived[rid]) == list(traces)  # device order kept
            for device, trace in traces.items():
                assert derived[rid][device] == DeviceNominals(trace.on_kw, trace.standby_kw)


class TestNonFiniteReadings:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_controller_rejects(self, bad):
        fc = LinearRegressionForecaster(4, 2)
        ctrl = OnlineController(
            {"tv": fc, "light": fc.clone()},
            agent=None,
            nominals={"tv": DeviceNominals(0.1, 0.01), "light": DeviceNominals(0.05, 0.0)},
        )
        with pytest.raises(ValueError, match="non-finite reading for 'light'"):
            ctrl.observe_minute({"tv": 0.01, "light": bad})
        # Nothing of the rejected minute was consumed.
        assert ctrl.stats.minutes == 0 and ctrl.stats.saved_kwh["tv"] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_schedule_rejects(self, snapshots, bad):
        snapshot = snapshots["lr"]
        rid = snapshot.residences()[0]
        readings = {d: np.full(12, 0.01) for d in snapshot.devices(rid)}
        readings["light"][5] = bad
        with pytest.raises(ValueError, match="non-finite reading for 'light'"):
            snapshot.schedule([ScheduleQuery(residence_id=rid, readings=readings)])
