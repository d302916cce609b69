"""Batched execution of the EMS training and evaluation loops.

The trainer's inner loop is the repo's hottest path: every simulated
minute does one Q-net forward per (residence, device) pair, each a
batch-of-1 matrix product, and every learn trigger runs a full
per-agent forward/backward/Adam step.  This module batches both halves
while keeping the per-agent semantics intact; it is the trainer's only
training engine (the serial ``run_episode`` loop survives as a test
oracle):

- :class:`StackedQNet` — a zero-copy flat *parameter arena* over N
  same-architecture Q-networks: one ``(N, P)`` buffer, a row per
  network in parameter order.  All weight mutations in this codebase
  are in-place (``Adam.step`` subtracts into ``Parameter.data``,
  ``set_weights`` assigns with ``[...]``), so each agent's parameters
  are rebound once to views of its row (per-layer ``(N, in, out)``
  stacks are views too): the arena is always current and one
  broadcast ``matmul`` per layer evaluates every agent at once.  With an ``allocator`` the
  stacks live in a :class:`repro.parallel.shm.SharedArena`, so forked
  workers and the parent share the same physical weight pages;
  :meth:`StackedQNet.view` slices a contiguous row range for a worker's
  shard without copying anything.
- :class:`StackedLearner` — the batched learn step.  Replay rings, Adam
  moments, and counters are stacked the same way, so one wave of
  transitions becomes one stacked push + one stacked
  forward/backward into a flat ``(K, P)`` gradient + one fused
  :class:`repro.nn.optim.StackedAdam` step for every triggered agent.
- :class:`BatchedEpisodeEngine` — wave-major episode stepping over many
  (agent, env) pairs: occurrence *wave* k holds the k-th pair of each
  agent and runs its whole horizon before wave k + 1, so each agent
  sees its episodes in serial order and each batched replay/learn op
  touches each agent row at most once.  States do not depend on
  actions, so each wave's states, modes and readings are stacked once;
  per minute there is one forward, one argmax and one ``reward_vector``
  call.  Policy ε draws and replay RNG draws stay per-agent and in
  per-agent order.
- :func:`greedy_rollout` / :func:`schedule_rollout` — matrix-only
  greedy evaluation rollouts.

Bitwise-identity contract (verified by ``tests/test_rl_batch.py``):
``np.matmul`` over stacked operands ``(M, B, d) @ (M, d, h)`` computes
each item exactly as the serial ``(B, d) @ (d, h)`` product — and the
same holds for the transposed backward products, ``sum``-reductions
along the batch axis, and the stacked Adam update — so batched training
reproduces the serial loop bit-for-bit in both agent scopes.  A single
large gemm ``(T, d) @ (d, h)`` — used by greedy *evaluation* — is not
row-bitwise-stable in general, but greedy evaluation only consumes
``argmax`` of the Q-rows and Table-1 rewards are exact integers, so the
resulting ``EMSEvaluation`` arrays match the per-step rollout
bit-for-bit (asserted in tests and ``benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import StackedAdam, flat_spans
from repro.rl.dqn import DQNAgent
from repro.rl.env import DeviceEnv, apply_actions
from repro.rl.qnet import build_states
from repro.rl.replay import ReplayBuffer
from repro.rl.reward import reward_vector

__all__ = [
    "StackedQNet",
    "StackedLearner",
    "BatchedEpisodeEngine",
    "greedy_rollout",
    "schedule_rollout",
]


class StackedQNet:
    """Flat parameter arena + broadcast-batched forward over N Q-networks.

    All member networks must share one architecture.  The arena is one
    ``(N, P)`` buffer: row ``i`` holds network ``i``'s parameters end to
    end in parameter order (``W0, b0, W1, b1, ...``), so the α shared
    base layers are a column prefix.  Per-layer ``(N, fan_in, fan_out)``
    weight and ``(N, fan_out)`` bias stacks are views of it, and each
    network's ``Parameter.data`` is rebound (in place, value-preserving)
    to a view of its row, so later in-place updates — optimizer steps,
    federated ``set_weights`` — write straight through to the arena with
    no copying or syncing.

    ``allocator`` (e.g. ``SharedArena.alloc``) places the arena in
    caller-provided memory, one call per stack; the default is a
    private heap array.
    """

    def __init__(self, qnets: list, allocator=None) -> None:
        if not qnets:
            raise ValueError("need at least one network to stack")
        ref = qnets[0]
        for qn in qnets[1:]:
            if (
                qn.in_dim != ref.in_dim
                or qn.out_dim != ref.out_dim
                or qn.hidden_sizes != ref.hidden_sizes
            ):
                raise ValueError("all stacked networks must share one architecture")
        self.qnets = list(qnets)
        self.in_dim = int(ref.in_dim)
        self.out_dim = int(ref.out_dim)
        self._shapes = [p.data.shape for p in ref.parameters()]
        #: ``(lo, hi)`` column span of each parameter in a flat row.
        self.spans = flat_spans(self._shapes)
        shape = (len(qnets), self.spans[-1][1])
        self._flat = np.empty(shape) if allocator is None else allocator(shape)
        for i, qn in enumerate(qnets):
            for p, view in zip(qn.parameters(), self._unflatten(self._flat[i])):
                view[...] = p.data
                p.data = view
        self._bind()

    @property
    def n(self) -> int:
        return len(self.qnets)

    @classmethod
    def required_shape(cls, qnet, n: int) -> tuple[int, int]:
        """Arena shape of an *n*-network stack of *qnet*'s architecture."""
        return (n, sum(p.data.size for p in qnet.parameters()))

    @classmethod
    def view(cls, parent: "StackedQNet", lo: int, hi: int) -> "StackedQNet":
        """Zero-copy row-slice view over members ``lo:hi`` of *parent*.

        The members stay bound to the parent's arena (the view shares
        memory), so training through the view writes straight into the
        parent arena — this is how forked shard workers train on the
        shared weight pages.
        """
        if not 0 <= lo < hi <= parent.n:
            raise ValueError(f"invalid view range [{lo}, {hi}) of {parent.n}")
        sub = object.__new__(cls)
        sub.qnets = parent.qnets[lo:hi]
        sub.in_dim = parent.in_dim
        sub.out_dim = parent.out_dim
        sub._shapes = parent._shapes
        sub.spans = parent.spans
        sub._flat = parent._flat[lo:hi]
        sub._bind()
        return sub

    def _unflatten(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of *flat* (one row, or ``(K, P)`` rows)."""
        lead = flat.shape[:-1]
        return [
            flat[..., lo:hi].reshape(lead + shape)
            for (lo, hi), shape in zip(self.spans, self._shapes)
        ]

    def _bind(self) -> None:
        self._views = self._unflatten(self._flat)
        #: (N, fan_in, fan_out) weight and (N, fan_out) bias per layer.
        self._weights = self._views[0::2]
        self._biases = self._views[1::2]

    def _layers(self, rows: np.ndarray | None) -> list[np.ndarray]:
        """Alternating weight / bias stacks of the selected rows: one
        gather of the flat arena instead of one per tensor."""
        if rows is None:
            return self._views
        return self._unflatten(self._flat[rows])

    def forward(self, states: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Per-network forward: row ``i`` of *states* through network ``i``.

        ``rows`` selects which stacked network evaluates each state
        (defaults to ``0..n-1``, requiring ``states.shape[0] == n``).
        Uses broadcast ``matmul`` of ``(M, 1, d) @ (M, d, h)`` so each
        item is computed exactly as the serial batch-of-1 product.
        """
        h = np.asarray(states, dtype=np.float64)[:, None, :]
        return self._forward(h, self._layers(rows))[:, 0, :]

    def forward_batch(self, states: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Mini-batch inference forward (the serving call):
        ``states[k]`` (shape ``(B, d)``) through network ``rows[k]``
        (default ``0..n-1``), one broadcast matmul per layer.  Keeps
        nothing for a backward pass; training uses :meth:`forward_train`.
        """
        return self._forward(np.asarray(states, dtype=np.float64), self._layers(rows))

    def forward_train(
        self, states: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple]:
        """The learn step's forward: :meth:`forward_batch` that also
        returns the per-layer inputs and ReLU masks :meth:`backward_batch`
        needs — exactly what the serial ``Linear`` / ``ReLU`` modules
        cache.  Returns ``(q, cache)``.
        """
        views = self._layers(rows)
        xs: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        h = self._forward(np.asarray(states, dtype=np.float64), views, xs, masks)
        return h, (xs, masks, views[0::2])

    @staticmethod
    def _forward(
        h: np.ndarray,
        views: list[np.ndarray],
        xs: list | None = None,
        masks: list | None = None,
    ) -> np.ndarray:
        """The one forward loop over alternating weight / bias *views*;
        appends each layer's input to *xs* and each ReLU mask to *masks*
        when given."""
        last = len(views) // 2 - 1
        for j in range(last + 1):
            if xs is not None:
                xs.append(h)
            h = np.matmul(h, views[2 * j])
            h += views[2 * j + 1][:, None, :]
            if j < last:
                mask = h > 0
                if masks is not None:
                    masks.append(mask)
                h = np.where(mask, h, 0.0)  # ReLU, as in nn.activations
        return h

    def backward_batch(self, grad: np.ndarray, cache: tuple) -> np.ndarray:
        """Backprop *grad* through a :meth:`forward_train` pass.

        Returns the flat ``(K, P)`` gradient of the rows the forward ran
        on, in the arena's layout.  Each row's products mirror the
        serial ``Linear.backward`` exactly: ``dW = x.T @ g``,
        ``db = g.sum(axis=0)``, ``dx = g @ W.T`` (broadcast over the
        stacked axis via ``swapaxes`` views), and the ReLU masks gate
        the flowing gradient just like ``ReLU.backward``.
        """
        xs, masks, sel_w = cache
        dflat = np.empty((grad.shape[0], self._flat.shape[1]))
        dviews = self._unflatten(dflat)
        g = grad
        for j in reversed(range(len(sel_w))):
            np.matmul(xs[j].swapaxes(1, 2), g, out=dviews[2 * j])
            np.add.reduce(g, axis=1, out=dviews[2 * j + 1])
            if j > 0:
                g = np.matmul(g, sel_w[j].swapaxes(1, 2))
                g = np.where(masks[j - 1], g, 0.0)
        return dflat


class _StackedReplay:
    """Ring-buffer arena over N member :class:`ReplayBuffer`\\ s.

    Member arrays are rebound (value-preserving) to row views of
    stacked ``(N, capacity, ...)`` tensors, so per-member pushes and
    checkpoint loads stay in sync with the stack.  The scalar cursors
    (``_head`` / ``_size``) live in int arrays while the engine is
    stepping; :meth:`sync_in` / :meth:`sync_out` bridge them to the
    members at chunk boundaries.
    """

    def __init__(self, buffers: list[ReplayBuffer]) -> None:
        ref = buffers[0]
        for buf in buffers[1:]:
            if buf.capacity != ref.capacity or buf.state_dim != ref.state_dim:
                raise ValueError("all stacked replay buffers must share one shape")
        self.buffers = list(buffers)
        self.capacity = ref.capacity
        self._states = np.stack([b._states for b in buffers])
        self._actions = np.stack([b._actions for b in buffers])
        self._rewards = np.stack([b._rewards for b in buffers])
        self._next_states = np.stack([b._next_states for b in buffers])
        self._dones = np.stack([b._dones for b in buffers])
        for i, buf in enumerate(buffers):
            buf._states = self._states[i]
            buf._actions = self._actions[i]
            buf._rewards = self._rewards[i]
            buf._next_states = self._next_states[i]
            buf._dones = self._dones[i]
        self._heads = np.array([b._head for b in buffers], dtype=np.int64)
        self._sizes = np.array([b._size for b in buffers], dtype=np.int64)

    @classmethod
    def view(cls, parent: "_StackedReplay", lo: int, hi: int) -> "_StackedReplay":
        sub = object.__new__(cls)
        sub.buffers = parent.buffers[lo:hi]
        sub.capacity = parent.capacity
        sub._states = parent._states[lo:hi]
        sub._actions = parent._actions[lo:hi]
        sub._rewards = parent._rewards[lo:hi]
        sub._next_states = parent._next_states[lo:hi]
        sub._dones = parent._dones[lo:hi]
        sub._heads = parent._heads[lo:hi]
        sub._sizes = parent._sizes[lo:hi]
        return sub

    def sync_in(self) -> None:
        for i, buf in enumerate(self.buffers):
            self._heads[i] = buf._head
            self._sizes[i] = buf._size

    def sync_out(self) -> None:
        for i, buf in enumerate(self.buffers):
            buf._head = int(self._heads[i])
            buf._size = int(self._sizes[i])

    def push_rows(
        self,
        rows: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Vectorised ``push`` for unique member *rows*.

        Inputs come straight from the policy/env step, so the serial
        ``push`` validation (shape, action range) is already satisfied.
        """
        heads = self._heads[rows]
        self._states[rows, heads] = states
        self._actions[rows, heads] = actions
        self._rewards[rows, heads] = rewards
        self._next_states[rows, heads] = next_states
        self._dones[rows, heads] = dones
        self._heads[rows] = (heads + 1) % self.capacity
        self._sizes[rows] = np.minimum(self._sizes[rows] + 1, self.capacity)

    def sample_rows(
        self, rows: np.ndarray, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One uniform batch per member row, each from its own RNG.

        The index draw per row is the member's exact serial call
        (``rng.choice(size, batch, replace=False)``), so per-agent RNG
        streams stay identical to serial training.
        """
        idx = np.empty((len(rows), batch_size), dtype=np.int64)
        for k, i in enumerate(rows):
            idx[k] = self.buffers[i]._rng.choice(
                int(self._sizes[i]), size=batch_size, replace=False
            )
        sel = np.asarray(rows)[:, None]
        return (
            self._states[sel, idx],
            self._actions[sel, idx],
            self._rewards[sel, idx],
            self._next_states[sel, idx],
            self._dones[sel, idx],
        )


class StackedLearner:
    """Batched DQN learn step over the members of one share slot.

    Owns the stacked replay rings, the :class:`StackedAdam` moment
    arena, and int-array mirrors of the members' counters
    (``learn_steps`` / ``sgd_steps`` / ``_observed``).  One
    :meth:`observe_rows` call replaces a wave of per-agent
    ``DQNAgent.observe`` calls: a stacked replay push, a vectorised
    learn-trigger check, and — for the triggered rows — a single
    stacked forward/backward/Adam step whose per-row arithmetic is
    bit-identical to the serial ``DQNAgent.learn_step``.
    """

    def __init__(
        self, agents: list[DQNAgent], qstack: StackedQNet, tstack: StackedQNet
    ) -> None:
        ref = agents[0].config
        for agent in agents[1:]:
            if agent.config != ref:
                raise ValueError("all stacked agents must share one DQNConfig")
        self.agents = list(agents)
        self.config = ref
        self.qstack = qstack
        self.tstack = tstack
        self.replay = _StackedReplay([a.replay for a in agents])
        self.optim = StackedAdam([a.optimizer for a in agents])
        self._learn_steps = np.array([a.learn_steps for a in agents], dtype=np.int64)
        self._sgd_steps = np.array([a.sgd_steps for a in agents], dtype=np.int64)
        self._observed = np.array([a._observed for a in agents], dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.agents)

    @classmethod
    def view(
        cls,
        parent: "StackedLearner",
        lo: int,
        hi: int,
        qstack: StackedQNet,
        tstack: StackedQNet,
    ) -> "StackedLearner":
        """Row-slice view for a shard worker (members ``lo:hi``)."""
        sub = object.__new__(cls)
        sub.agents = parent.agents[lo:hi]
        sub.config = parent.config
        sub.qstack = qstack
        sub.tstack = tstack
        sub.replay = _StackedReplay.view(parent.replay, lo, hi)
        sub.optim = StackedAdam.view(parent.optim, lo, hi)
        sub._learn_steps = parent._learn_steps[lo:hi]
        sub._sgd_steps = parent._sgd_steps[lo:hi]
        sub._observed = parent._observed[lo:hi]
        return sub

    def sync_in(self) -> None:
        """Pull member-side state (counters may have been restored)."""
        self.replay.sync_in()
        self.optim.sync_in()
        for i, agent in enumerate(self.agents):
            self._learn_steps[i] = agent.learn_steps
            self._sgd_steps[i] = agent.sgd_steps
            self._observed[i] = agent._observed

    def sync_out(self) -> None:
        """Write stacked counters back so member state_dicts are exact."""
        self.replay.sync_out()
        self.optim.sync_out()
        for i, agent in enumerate(self.agents):
            agent.learn_steps = int(self._learn_steps[i])
            agent.sgd_steps = int(self._sgd_steps[i])
            agent._observed = int(self._observed[i])

    def observe_rows(
        self,
        rows: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Store one transition per (unique) row, then learn where due.

        The trigger is the serial one — a full batch banked and every
        ``learn_every``-th observation — evaluated per row.
        """
        cfg = self.config
        self.replay.push_rows(rows, states, actions, rewards, next_states, dones)
        self._observed[rows] += 1
        due = (self.replay._sizes[rows] >= cfg.batch_size) & (
            self._observed[rows] % cfg.learn_every == 0
        )
        if due.any():
            self.learn_rows(rows[due])

    def learn_rows(self, rows: np.ndarray) -> None:
        """One stacked mini-batch TD update for the given member rows."""
        cfg = self.config
        batch = cfg.batch_size
        s, a, r, s2, done = self.replay.sample_rows(rows, batch)
        sel = None if len(rows) == self.n else rows
        q_next = self.tstack._forward(s2, self.tstack._layers(sel))
        if cfg.double_q:
            best = self.qstack._forward(s2, self.qstack._layers(sel)).argmax(axis=2)
            next_vals = np.take_along_axis(q_next, best[..., None], axis=2)[..., 0]
        else:
            next_vals = q_next.max(axis=2)
        target_vals = r * cfg.reward_scale + cfg.discount * next_vals * (~done)

        q, cache = self.qstack.forward_train(s, rows=sel)
        at = (np.arange(len(rows))[:, None], np.arange(batch), a)
        chosen = q[at]
        # Huber gradient, exactly as nn.losses.HuberLoss (n = batch).
        diff = chosen - target_vals
        quad = np.abs(diff) <= cfg.huber_delta
        dchosen = np.where(quad, diff, cfg.huber_delta * np.sign(diff)) / batch
        grad = np.zeros_like(q)
        grad[at] = dchosen
        dflat = self.qstack.backward_batch(grad, cache)
        self.optim.step(self.qstack._flat, dflat, rows=sel)

        self._learn_steps[rows] += 1
        self._sgd_steps[rows] += 1
        sync = rows[self._learn_steps[rows] % cfg.target_replace_iter == 0]
        if len(sync):
            self.tstack._flat[sync] = self.qstack._flat[sync]


class BatchedEpisodeEngine:
    """Batched episode stepping for a set of DQN agents.

    Construction groups the agents exactly as the trainer's federation
    share groups do — one :class:`StackedQNet` per slot (``"*"`` in
    residence scope, one per device type in device scope) for both the
    online and target networks, plus one :class:`StackedLearner` per
    slot.  The arena views stay bound for the trainer's lifetime, so
    share rounds and checkpoint restores (both in-place) need no
    re-sync.  ``allocator`` places the weight stacks
    in shared memory for the persistent-pool training path;
    :meth:`shard_view` then gives each forked worker a zero-copy slice.
    """

    def __init__(
        self,
        share_groups: list[list[tuple[int, str]]],
        agents: dict[tuple[int, str], DQNAgent],
        allocator=None,
    ) -> None:
        self._agents = agents
        self._stacks: dict[str, StackedQNet] = {}
        self._targets: dict[str, StackedQNet] = {}
        self._learners: dict[str, StackedLearner] = {}
        self._groups: dict[str, list[tuple[int, str]]] = {}
        self._row: dict[tuple[int, str], int] = {}
        for group in share_groups:
            slot = group[0][1]
            members = [agents[key] for key in group]
            qstack = StackedQNet([m.qnet for m in members], allocator=allocator)
            tstack = StackedQNet([m.target for m in members], allocator=allocator)
            self._stacks[slot] = qstack
            self._targets[slot] = tstack
            self._learners[slot] = StackedLearner(members, qstack, tstack)
            self._groups[slot] = list(group)
            for i, key in enumerate(group):
                self._row[key] = i

    def shard_view(self, residence_ids) -> "BatchedEpisodeEngine":
        """Zero-copy sub-engine over a contiguous residence shard.

        Used inside forked pool workers: the worker's stacks are row
        slices of the parent's (shared-arena) stacks, so the worker
        trains directly on the shared weight pages, while its replay /
        optimizer / counter arrays are copy-on-write private slices.
        The shard must be contiguous in each group's sorted key order
        (the trainer shards rid-sorted streams into chunks, which
        guarantees it).
        """
        rids = set(residence_ids)
        sub = object.__new__(BatchedEpisodeEngine)
        sub._agents = {k: v for k, v in self._agents.items() if k[0] in rids}
        sub._stacks = {}
        sub._targets = {}
        sub._learners = {}
        sub._groups = {}
        sub._row = {}
        for slot, group in self._groups.items():
            rows = [i for i, key in enumerate(group) if key[0] in rids]
            if not rows:
                continue
            lo, hi = rows[0], rows[-1] + 1
            if rows != list(range(lo, hi)):
                raise ValueError(
                    "shard residences must be contiguous within each share group"
                )
            sub._stacks[slot] = StackedQNet.view(self._stacks[slot], lo, hi)
            sub._targets[slot] = StackedQNet.view(self._targets[slot], lo, hi)
            sub._learners[slot] = StackedLearner.view(
                self._learners[slot], lo, hi, sub._stacks[slot], sub._targets[slot]
            )
            subgroup = group[lo:hi]
            sub._groups[slot] = subgroup
            for i, key in enumerate(subgroup):
                sub._row[key] = i
        return sub

    def run_chunk(
        self, pairs: list[tuple[tuple[int, str], DeviceEnv]]
    ) -> tuple[list[float], list[float]]:
        """Step every (agent key, env) pair through one chunk, wave-major.

        All envs must share one horizon (aligned streams guarantee it).
        A slot's pairs are grouped into occurrence waves (wave k holds
        the k-th pair of each agent), and each wave runs its whole
        horizon minute by minute before the next wave starts: one
        stacked forward over the wave's rows, one stacked replay push
        and learn step per minute.  So every agent sees its pairs'
        episodes one after another in pair order — exactly the serial
        ``run_episode`` loop — and each stacked op touches each agent
        row at most once.  Returns (episode rewards, optimal rewards)
        in pair order, matching the serial loop's bookkeeping order.
        """
        if not pairs:
            return [], []
        horizon = pairs[0][1].horizon
        # (slot, occurrence) -> pair indices; wave (slot, k) is created
        # before (slot, k + 1), so running waves in insertion order keeps
        # each agent's pairs in pair order.
        waves: dict[tuple[str, int], list[int]] = {}
        seen: dict[tuple[int, str], int] = {}
        for idx, (key, env) in enumerate(pairs):
            if env.horizon != horizon:
                raise ValueError("all envs in a batched chunk must share one horizon")
            w = seen.get(key, 0)
            seen[key] = w + 1
            waves.setdefault((key[1], w), []).append(idx)
        for learner in self._learners.values():
            learner.sync_in()
        totals = [0.0] * len(pairs)
        for (slot, _), idxs in waves.items():
            # Agents are independent within a wave, so sort by row: a
            # full wave is then rows 0..n-1, which the stacks' and the
            # learner's all-rows path (rows=None) assumes.
            idxs.sort(key=lambda i: self._row[pairs[i][0]])
            rows = np.array([self._row[pairs[i][0]] for i in idxs], dtype=np.int64)
            stack = self._stacks[slot]
            learner = self._learners[slot]
            sel = None if len(rows) == stack.n else rows
            envs = [pairs[i][1] for i in idxs]
            explore = [self._agents[pairs[i][0]].policy.explore for i in idxs]
            # States do not depend on actions, so the wave's precomputed
            # state matrices, modes and readings stack once, minute-major.
            states = np.stack([env._states for env in envs], axis=1)
            modes = np.stack([env.ground_truth_mode for env in envs], axis=1)
            real = np.stack([env.real_kw for env in envs], axis=1)
            standby = np.array([env.standby_kw for env in envs])
            actions = np.empty((horizon, len(idxs)), dtype=np.int64)
            wave_total = np.zeros(len(idxs))
            not_done = np.zeros(len(idxs), dtype=bool)
            for t in range(horizon):
                a = actions[t]
                a[:] = stack.forward(states[t], rows=sel).argmax(axis=1)
                # Only the ε draws stay per agent, in the serial order.
                for bj, draw in enumerate(explore):
                    action = draw()
                    if action is not None:
                        a[bj] = action
                r = reward_vector(modes[t], a)
                wave_total += r
                if t + 1 < horizon:
                    learner.observe_rows(rows, states[t], a, r, states[t + 1], not_done)
                else:  # DeviceEnv.step's terminal transition
                    learner.observe_rows(
                        rows, states[t], a, r, np.zeros_like(states[t]), ~not_done
                    )
            controlled = apply_actions(actions, real, standby)
            for bj, env in enumerate(envs):
                env._t = horizon
                env.controlled_kw = controlled[:, bj].copy()
                totals[idxs[bj]] = float(wave_total[bj])
        for learner in self._learners.values():
            learner.sync_out()
        optima = [env.max_episode_reward() for _, env in pairs]
        return totals, optima


def greedy_rollout(qnet, dev_stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix-only greedy rollout over one device's full stream.

    Replaces the per-minute act/step loop of ``evaluate_episode`` for
    greedy (no-learning) evaluation: one forward over the whole
    ``(T, state_dim)`` state matrix, one argmax, and vectorised
    controlled-power / reward materialisation with the exact
    :class:`repro.rl.env.DeviceEnv` pass-through semantics.

    Returns ``(actions, controlled_kw, rewards)`` per minute.
    """
    states = build_states(
        dev_stream.predicted_kw,
        dev_stream.real_kw,
        dev_stream.on_kw,
        dev_stream.standby_kw,
        dev_stream.device,
    )
    actions = qnet.forward(states, cache=False).argmax(axis=1).astype(np.int64)
    controlled = apply_actions(actions, dev_stream.real_kw, dev_stream.standby_kw)
    rewards = reward_vector(dev_stream.mode, actions)
    return actions, controlled, rewards


def schedule_rollout(qnet, envs) -> list[np.ndarray]:
    """Greedy lockstep rollout over many schedulable-task episodes.

    All *envs* (:class:`repro.rl.env.ScheduleEnv`) belong to *one*
    agent, so each simulated minute does a single stacked forward over
    the still-active episodes instead of one batch-of-1 forward per
    episode.  Unlike :func:`greedy_rollout`, the scheduling states are
    action-dependent (remaining runtime, deadline slack), so the
    rollout steps minute-major through the envs — which also lets each
    env enforce its forced-run deadline override.

    Returns each episode's per-minute controlled-power trace (NaN-free).
    """
    states = [env.reset() for env in envs]
    active = [i for i, env in enumerate(envs) if env.horizon > 0]
    while active:
        q = qnet.forward(np.stack([states[i] for i in active]), cache=False)
        actions = q.argmax(axis=1)
        still = []
        for i, action in zip(active, actions):
            step = envs[i].step(int(action))
            states[i] = step.state
            if not step.done:
                still.append(i)
        active = still
    return [np.nan_to_num(env.controlled_kw) for env in envs]

