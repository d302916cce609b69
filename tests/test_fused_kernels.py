"""Generated bitwise checks for the fused training kernels.

- the fused flat-arena :class:`StackedAdam` step equals N serial
  ``Adam.step`` calls, over full and subset rows, with clipping off, on
  and triggered, from step counts up to 1e4;
- the one-call :func:`repro.nn.activations.sigmoid` equals the classic
  masked piecewise form on special values and strided gate slices;
- the LSTM's one-call gathered gates equal the per-gate reference,
  forward and backward;
- training leaves no dead activations behind: forecaster fits drop
  their last batch's caches and greedy evaluation keeps none.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DQNConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import build_streams
from repro.data import generate_neighborhood
from repro.forecast.lstm_forecaster import LSTMForecaster
from repro.nn import LSTM, Adam
from repro.nn.activations import ReLU, sigmoid
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.nn.optim import StackedAdam, flat_spans


def masked_sigmoid(x):
    """The classic piecewise form the one-call sigmoid replaces."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
shapes_st = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 24), st.integers(1, 24)),
    ),
    min_size=1,
    max_size=6,
)


class TestFusedAdam:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shapes=shapes_st,
        n=st.integers(1, 4),
        clip=st.sampled_from([None, 1e6, 0.5]),
        t0=st.sampled_from([0, 1, 37, 9_999]),
        subset=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_serial_steps(self, shapes, n, clip, t0, subset, seed):
        rng = np.random.default_rng(seed)
        spans = flat_spans(shapes)
        width = spans[-1][1]

        def build():
            rng_b = np.random.default_rng(seed + 1)
            params, opts = [], []
            for _ in range(n):
                ps = [Parameter(rng_b.normal(size=s)) for s in shapes]
                opt = Adam(ps, lr=0.01, clip_norm=clip)
                for m, v in zip(opt._m, opt._v):
                    m[...] = rng_b.normal(size=m.shape) * 0.1
                    v[...] = rng_b.random(size=v.shape) * 0.1
                opt._t = t0
                params.append(ps)
                opts.append(opt)
            return params, opts

        serial_params, serial_opts = build()
        fused_params, fused_opts = build()
        flat = np.empty((n, width))
        for i, ps in enumerate(fused_params):
            for (lo, hi), p in zip(spans, ps):
                flat[i, lo:hi] = p.data.ravel()
        stacked = StackedAdam(fused_opts)

        for _ in range(3):
            if subset and n > 1:
                rows = np.sort(rng.choice(n, size=rng.integers(1, n), replace=False))
            else:
                rows = None
            picked = np.arange(n) if rows is None else rows
            # Gradient scales span clip-triggering and tiny norms.
            grads = rng.normal(size=(len(picked), width)) * 10.0 ** rng.integers(-3, 3)
            for k, i in enumerate(picked):
                for (lo, hi), p in zip(spans, serial_params[i]):
                    p.grad[...] = grads[k, lo:hi].reshape(p.shape)
                serial_opts[i].step()
            stacked.step(flat, grads, rows=rows)

        stacked.sync_out()
        for i in range(n):
            assert serial_opts[i]._t == fused_opts[i]._t
            for (lo, hi), ps, pm, pv, fm, fv in zip(
                spans, serial_params[i], serial_opts[i]._m, serial_opts[i]._v,
                fused_opts[i]._m, fused_opts[i]._v,
            ):
                assert same_bits(ps.data.ravel(), flat[i, lo:hi])
                assert same_bits(pm, fm)
                assert same_bits(pv, fv)

    def test_clip_triggers_in_the_sampled_range(self):
        """The 0.5 clip norm above really clips at these gradient scales."""
        p = Parameter(np.zeros(4))
        p.grad[...] = 1.0
        opt = Adam([p], lr=0.01, clip_norm=0.5)
        opt.step()
        assert abs(p.data[0]) == pytest.approx(0.01)

    def test_members_bound_to_the_moment_arena(self):
        opts = [Adam([Parameter(np.zeros((2, 3))), Parameter(np.zeros(3))]) for _ in range(2)]
        stacked = StackedAdam(opts)
        opts[1]._m[0][...] = 7.0  # a member's in-place write lands in the arena
        assert (stacked._m[1, :6] == 7.0).all() and (stacked._m[0] == 0.0).all()


# ----------------------------------------------------------------------
SPECIAL = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 40.0, -40.0, 745.0, -745.0,
     746.0, -746.0, 709.8, -709.8, np.inf, -np.inf, np.nan, 1.0, -1.0],
)


class TestOneCallSigmoid:
    def test_special_values(self):
        with np.errstate(all="ignore"):
            new, ref = sigmoid(SPECIAL), masked_sigmoid(SPECIAL)
        nan = np.isnan(SPECIAL)
        # NaN stays NaN (its sign bit carries no meaning); every other
        # value, ±0 and the saturated tails included, is bit-identical.
        assert np.isnan(new[nan]).all() and np.isnan(ref[nan]).all()
        assert same_bits(new[~nan], ref[~nan])

    def test_random_values(self):
        x = np.random.default_rng(0).normal(size=100_000) * 20.0
        assert same_bits(sigmoid(x), masked_sigmoid(x))

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 33),
        h=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
        seed=st.integers(0, 2**16),
    )
    def test_whole_block_equals_strided_gate_slices(self, b, h, scale, seed):
        z = np.random.default_rng(seed).normal(size=(b, 4 * h)) * scale
        s = sigmoid(z)
        for lo in (0, h, 3 * h):  # the i, f and o gate slices
            gate = z[:, lo:lo + h]
            assert same_bits(s[:, lo:lo + h], masked_sigmoid(gate))


# ----------------------------------------------------------------------
def reference_lstm(layer, x, grad_out):
    """Per-gate forward/backward of one LSTM layer (last hidden state out)."""
    B, T, _ = x.shape
    H = layer.hidden_size
    Wx, Wh, b = layer.Wx.data, layer.Wh.data, layer.b.data
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        z = x[:, t, :] @ Wx + h @ Wh + b
        i = masked_sigmoid(z[:, :H])
        f = masked_sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = masked_sigmoid(z[:, 3 * H:])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h_prev, h = h, o * tc
        steps.append((i, f, g, o, c_prev, tc, h_prev))
    dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    dx = np.zeros_like(x)
    dh_next, dc_next = grad_out.copy(), np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o, c_prev, tc, h_prev = steps[t]
        dh = dh_next + 0.0
        do = dh * tc
        dc = dh * o * (1.0 - tc**2) + dc_next
        di, df, dg = dc * g, dc * c_prev, dc * i
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)],
            axis=1,
        )
        dWx += x[:, t, :].T @ dz
        dWh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ Wx.T
        dh_next = dz @ Wh.T
    return h, dx, (dWx, dWh, db)


class TestLSTMMatchesPerGateReference:
    @settings(max_examples=25, deadline=None)
    @given(
        b=st.integers(1, 8),
        t=st.integers(1, 6),
        f=st.integers(1, 5),
        h=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_forward_and_backward_bitwise(self, b, t, f, h, seed):
        rng = np.random.default_rng(seed)
        layer = LSTM(f, h, rng=seed)
        x = rng.normal(size=(b, t, f)) * 3.0
        grad_out = rng.normal(size=(b, h))
        h_ref, dx_ref, grads_ref = reference_lstm(layer, x, grad_out)
        layer.zero_grad()
        out = layer.forward(x)
        dx = layer.backward(grad_out)
        assert same_bits(out, h_ref)
        assert same_bits(dx, dx_ref)
        for p, ref in zip(layer.parameters(), grads_ref):
            assert same_bits(p.grad, ref)


# ----------------------------------------------------------------------
class TestDeadTrainingStateReleased:
    def test_forecaster_fit_drops_caches(self):
        rng = np.random.default_rng(0)
        fc = LSTMForecaster(window=6, horizon=3, hidden_size=5, epochs=2, n_extra=2)
        fc.fit(rng.random((40, 8)), rng.random((40, 3)))
        for layer in fc.model.layers:
            assert layer._cache is None
        assert fc.model.head._x is None

    def test_evaluate_keeps_no_qnet_activations(self):
        ds = generate_neighborhood(
            n_residences=2, n_days=2, minutes_per_day=120,
            device_types=("tv", "light"), seed=3,
        )
        tr = PFDRLTrainer(
            build_streams(ds),
            dqn_config=DQNConfig(hidden_width=8, batch_size=8, memory_capacity=100),
            seed=0,
        )
        tr.run_day()
        tr.evaluate()
        for agent in tr.agents:
            for net in (agent.qnet, agent.target):
                for layer in net.net:
                    if isinstance(layer, Linear):
                        assert layer._x is None
                    elif isinstance(layer, ReLU):
                        assert layer._mask is None
