"""Span-based structured tracing for the synthesis pipeline.

One module-global tracer (:data:`TRACER`) is either the no-op
:class:`_NullTracer` (the default -- ``TRACER.enabled`` is ``False`` and
every instrumentation site is a single attribute check) or a real
:class:`Tracer` writing JSON-lines events.  Instrumented code never holds
a tracer reference across calls; it re-reads ``trace.TRACER`` so
:func:`enable`/:func:`disable`/:func:`reset_after_fork` rebinds take
effect everywhere at once.

Event model
-----------

Timestamps are ``time.perf_counter_ns()`` -- CLOCK_MONOTONIC-backed, so
events recorded in forked worker processes are directly comparable with
the parent's.  Span ids are ``"<worker>:<seq>"`` strings: ``seq`` is a
per-tracer counter and ``worker`` a per-process tag (``"0"`` in the
parent, ``"w<pid>"`` in pool workers), so ids never collide across
processes and merged traces stay deterministic given a deterministic
merge order.  A span is written as one *complete* event at exit (``ts`` +
``dur``); instants (:meth:`Tracer.event`) carry only ``ts``.

The JSONL file starts with a schema-versioned header line::

    {"kind": "header", "schema": 1, "clock": "perf_counter_ns", ...}

followed by one JSON object per event::

    {"kind": "span",  "name": ..., "id": ..., "parent": ..., "worker": ...,
     "ts": <ns>, "dur": <ns>, "attrs": {...}}
    {"kind": "event", "name": ..., "parent": ..., "worker": ...,
     "ts": <ns>, "attrs": {...}}

Parallel workers run a *collecting* tracer (``path=None``) per sweep cell
and ship ``export()``-ed events back inside the cell's result; the parent
:meth:`Tracer.absorb`-s them in the sweep's deterministic cell order,
re-parenting each cell's root events onto the parent's current span.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Bump when the JSONL event schema changes shape.
TRACE_SCHEMA_VERSION = 1


class Span:
    """Handle for an open span; a context manager that writes on exit."""

    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start_ns")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        span_id: str,
        parent: Optional[str],
        start_ns: int,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = span_id
        self.parent = parent
        self.start_ns = start_ns

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.finish(self)


class _NullSpan:
    """Inert span so ``with TRACER.span(...)`` also works while disabled."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """Disabled tracer: ``enabled`` is False and every method is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass

    def absorb(self, events: Optional[List[dict]]) -> None:
        pass

    def export(self) -> List[dict]:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL = _NullTracer()

#: The process-wide tracer.  Instrumented code reads this through the
#: module (``trace.TRACER``) so rebinding reaches every site.
TRACER: Any = NULL


class Tracer:
    """Live tracer writing JSONL to ``path``, or collecting when ``None``."""

    enabled = True

    def __init__(self, path: Optional[str] = None, worker: str = "0") -> None:
        self.path = path
        self.worker = worker
        self._seq = 0
        self._stack: List[Span] = []
        self._buffer: List[dict] = []
        self._file = None  # lazily opened so fork never inherits an open sink
        self._wrote_header = False

    # ------------------------------------------------------------------ spans

    def _next_id(self) -> str:
        self._seq += 1
        return f"{self.worker}:{self._seq}"

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as a context manager (written at exit)."""

        return self.begin(name, **attrs)

    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self, name, attrs, self._next_id(), parent, time.perf_counter_ns())
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        end_ns = time.perf_counter_ns()
        # Pop through the stack to stay balanced even if an inner span
        # escaped (e.g. an exception skipped its finish).
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "id": span.id,
                "parent": span.parent,
                "worker": self.worker,
                "ts": span.start_ns,
                "dur": end_ns - span.start_ns,
                "attrs": span.attrs,
            }
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event parented to the current span."""

        self._emit(
            {
                "kind": "event",
                "name": name,
                "parent": self._stack[-1].id if self._stack else None,
                "worker": self.worker,
                "ts": time.perf_counter_ns(),
                "attrs": attrs,
            }
        )

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the innermost open span (no-op at top level)."""

        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # ------------------------------------------------------------ merge/export

    def absorb(self, events: Optional[List[dict]]) -> None:
        """Merge a worker's exported events into this tracer's stream.

        Events whose ``parent`` is ``None`` (the worker task's roots) are
        re-parented onto the currently open span, so a merged trace nests
        worker work under the parent-side span that consumed its result.
        Worker-internal parent links and ids are preserved; ids cannot
        collide because they carry the worker tag.
        """

        if not events:
            return
        parent_id = self._stack[-1].id if self._stack else None
        for event in events:
            if event.get("parent") is None:
                event = dict(event)
                event["parent"] = parent_id
            self._emit(event)

    def export(self) -> List[dict]:
        """Drain buffered events (collecting mode: ``path is None``)."""

        events, self._buffer = self._buffer, []
        return events

    # ------------------------------------------------------------------- sink

    def _emit(self, event: dict) -> None:
        self._buffer.append(event)
        if self.path is not None and len(self._buffer) >= 256:
            self.flush()

    def header(self) -> dict:
        return {
            "kind": "header",
            "schema": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter_ns",
            "worker": self.worker,
            "pid": os.getpid(),
        }

    def flush(self) -> None:
        if self.path is None:
            return
        if self._file is None:
            self._file = open(self.path, "w")
        if not self._wrote_header:
            self._file.write(json.dumps(self.header()) + "\n")
            self._wrote_header = True
        if self._buffer:
            self._file.write(
                "".join(json.dumps(event) + "\n" for event in self._buffer)
            )
            self._buffer = []
        # Flush eagerly: a later fork must never inherit buffered bytes it
        # would duplicate into the file at child exit.
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------- module API


def enable(path: str, worker: str = "0") -> Tracer:
    """Install a file-backed tracer as the process tracer."""

    global TRACER
    tracer = Tracer(path, worker=worker)
    tracer.flush()  # create the file + header immediately
    TRACER = tracer
    return tracer


def start_collecting(worker: str) -> Tracer:
    """Install a buffering tracer (no file); drain with ``export()``."""

    global TRACER
    tracer = Tracer(None, worker=worker)
    TRACER = tracer
    return tracer


def disable() -> None:
    """Close the current tracer (if any) and restore the no-op tracer."""

    global TRACER
    tracer, TRACER = TRACER, NULL
    tracer.close()


def reset_after_fork() -> None:
    """Drop any inherited tracer without touching its (parent's) file.

    Called from pool worker initializers: the child must not close or
    flush a file object it inherited from the parent.
    """

    global TRACER
    TRACER = NULL
