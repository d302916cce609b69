"""Spans around the program's public calls, recorded from outside.

:class:`Tracer` replaces a module attribute or a class attribute with a
timing wrapper and puts the original back on :meth:`Tracer.remove`.
Nothing under ``src`` is edited.  Each span holds its name, start, end,
parent span (per thread), thread name and, while serving, the id of
the query it worked for.  Spans stay in memory until :meth:`write`.

The same mechanism times the few slices the untraced runs need
(checkpoint saves, serving batches); those wrappers fire at most a few
hundred times per second and cost nothing measurable.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

START, END, PARENT, THREAD, QID, EXTRA = 1, 2, 3, 4, 5, 6


class Tracer:
    def __init__(self) -> None:
        #: ``[name, start, end, parent_record | None, thread, qid, extra]``
        self.spans: list[list] = []
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: id(readings array) -> query id, registered by the workload so
        #: per-(query, device) calls can be attributed to their query.
        self.qid_of_array: dict[int, int] = {}
        #: While set, wrapped calls run untimed (the workload's checks).
        self.paused = False

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, qid_arg: int | None = None,
             on_return=None) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        ``qid_arg`` names the positional argument whose array (or the
        array it is a view of) identifies the query; ``on_return(rec,
        args, result)`` may store extra figures in ``rec[EXTRA]``.
        """
        if isinstance(owner, type) and attr in owner.__dict__:
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans = self.spans
        tls = self._tls
        clock = time.perf_counter
        qid_of_array = self.qid_of_array

        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.thread = threading.current_thread().name
            qid = None
            if qid_arg is not None:
                arr = args[qid_arg]
                base = getattr(arr, "base", None)
                qid = qid_of_array.get(id(arr if base is None else base))
            rec = [name, clock(), 0.0, stack[-1] if stack else None,
                   tls.thread, qid, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    @contextmanager
    def pause(self):
        """Run the body without recording spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def remove(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of *name* spans minus the time their children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            parent = s[PARENT]
            if parent is not None and parent[0] == name:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + s[END] - s[START]
        return sum(
            s[END] - s[START] - child_time.get(id(s), 0.0)
            for s in self.spans if s[0] == name
        )

    def top_level(self, thread: str, lo: float, hi: float) -> list[list]:
        """Spans without a parent on *thread* that lie inside [lo, hi]."""
        return [
            s for s in self.spans
            if s[PARENT] is None and s[THREAD] == thread
            and s[START] >= lo and s[END] <= hi
        ]

    def write(self, path: Path, t0: float) -> int:
        """Write the spans as JSON lines (times in s from *t0*)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = s[PARENT]
                fh.write(json.dumps({
                    "id": i,
                    "name": s[0],
                    "start": round(s[START] - t0, 7),
                    "end": round(s[END] - t0, 7),
                    "parent": None if parent is None else index[id(parent)],
                    "thread": s[THREAD],
                    "qid": s[QID],
                }) + "\n")
        return len(self.spans)
