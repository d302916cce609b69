"""Persistent, routed worker pool over forked processes.

A stateless executor pool cannot route a task to a *specific* worker,
so it cannot host workers that own long-lived state (agents, replay
buffers, engine views).  This module provides that primitive: N
long-lived child processes, each built from a *factory* callable and
addressed by index over a private pipe.

Key properties:

- **Fork start method.**  Workers are forked, so the factory closure —
  and anything it references, including the whole trainer object graph
  and any :class:`repro.parallel.shm.SharedArena` arrays — is inherited
  by memory, never pickled.  Regular heap state is copy-on-write
  (worker-private after first write); arena arrays stay truly shared.
- **Routed calls.**  ``submit(i, cmd, payload)`` / ``result(i)`` talk to
  worker *i* only; ``call_all`` pipelines one command to every worker
  and gathers in index order so workers run concurrently.
- **Error transparency.**  A worker exception is shipped back as a
  formatted traceback and re-raised in the parent as
  :class:`WorkerError`; the pool force-closes so no zombie children
  linger.  A worker that dies outright (killed, segfault) surfaces as
  ``WorkerError`` too.
- **Deterministic shutdown.**  ``close()`` (also via context manager)
  sends a stop sentinel, joins with a timeout, and terminates
  stragglers.  Idempotent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Any, Callable

__all__ = ["WorkerPool", "WorkerError", "fork_available"]

#: Handler protocol: ``handler(cmd, payload) -> result``.
Handler = Callable[[str, Any], Any]


class WorkerError(RuntimeError):
    """A worker raised (message carries the child traceback) or died."""


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (Linux/macOS CPython)."""
    return "fork" in mp.get_all_start_methods()


def _worker_main(conn, factory: Callable[[], Handler]) -> None:
    """Child entry: build the handler, then serve the command loop."""
    try:
        handler = factory()
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ok", os.getpid()))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        if msg is None:
            break
        cmd, payload = msg
        try:
            conn.send(("ok", handler(cmd, payload)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class WorkerPool:
    """N persistent forked workers, each built by one factory callable.

    Construction forks immediately and waits for every worker's ready
    handshake (so factory failures surface here, not on first call).
    """

    def __init__(self, factories: list[Callable[[], Handler]]) -> None:
        if not factories:
            raise ValueError("need at least one worker factory")
        if not fork_available():
            raise WorkerError("WorkerPool requires the fork start method")
        ctx = mp.get_context("fork")
        self._procs: list[mp.Process] = []
        self._conns = []
        self._pending: list[bool] = []
        self._closed = False
        try:
            for factory in factories:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, factory), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                self._pending.append(False)
            self._pids = [self._recv(i) for i in range(len(self._procs))]
        except BaseException:
            self.close(force=True)
            raise

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def pids(self) -> list[int]:
        """Child PIDs, as reported by each worker's ready handshake."""
        return list(self._pids)

    def alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._procs)

    # ------------------------------------------------------------------
    def _recv(self, idx: int):
        try:
            status, value = self._conns[idx].recv()
        except (EOFError, OSError) as exc:
            self.close(force=True)
            raise WorkerError(
                f"worker {idx} died without replying ({exc.__class__.__name__})"
            ) from exc
        if status != "ok":
            self.close(force=True)
            raise WorkerError(f"worker {idx} raised:\n{value}")
        return value

    def submit(self, idx: int, cmd: str, payload: Any = None) -> None:
        """Send one command to worker *idx* without waiting."""
        if self._closed:
            raise WorkerError("pool is closed")
        if self._pending[idx]:
            raise WorkerError(f"worker {idx} already has a pending command")
        try:
            self._conns[idx].send((cmd, payload))
        except (BrokenPipeError, OSError) as exc:
            self.close(force=True)
            raise WorkerError(f"worker {idx} pipe is broken") from exc
        self._pending[idx] = True

    def result(self, idx: int):
        """Block for worker *idx*'s reply to its pending command."""
        if not self._pending[idx]:
            raise WorkerError(f"worker {idx} has no pending command")
        self._pending[idx] = False
        return self._recv(idx)

    def call(self, idx: int, cmd: str, payload: Any = None):
        """Synchronous round-trip to one worker."""
        self.submit(idx, cmd, payload)
        return self.result(idx)

    def call_all(self, cmd: str, payloads: list[Any] | None = None) -> list:
        """Pipeline *cmd* to every worker, gather replies in index order.

        ``payloads`` is per-worker (length ``n_workers``) or ``None`` to
        send ``None`` to each.  All sends go out before any receive, so
        the workers execute concurrently.
        """
        if payloads is None:
            payloads = [None] * self.n_workers
        if len(payloads) != self.n_workers:
            raise ValueError(
                f"got {len(payloads)} payloads for {self.n_workers} workers"
            )
        for idx, payload in enumerate(payloads):
            self.submit(idx, cmd, payload)
        return [self.result(idx) for idx in range(self.n_workers)]

    # ------------------------------------------------------------------
    def close(self, force: bool = False, join_timeout: float = 5.0) -> None:
        """Stop every worker; idempotent.  ``force`` skips the sentinel."""
        if self._closed:
            return
        self._closed = True
        for conn, proc in zip(self._conns, self._procs):
            if not force and proc.is_alive():
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            if proc.is_alive():
                proc.join(0.0 if force else join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(join_timeout)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(force=True)
        except Exception:
            pass
