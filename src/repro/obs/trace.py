"""Span tracing for the synthesis pipeline, applied from the outside.

The engine carries no tracing code.  :data:`SPANS` names, for every span,
the engine entry point it times -- a module-level function or a
``Class.method`` -- plus two small attrs functions: one over the call's
bound arguments (by parameter name), one over its result.  :func:`install`
replaces each entry point with a span-writing wrapper in its defining
module, in every loaded ``repro`` module that bound it by name (``from ...
import``) and on every subclass that overrides the method;
:func:`uninstall` puts the original objects back.  Nothing is installed
while no tracer is live, so disabled tracing costs nothing: every entry
point *is* the engine's own function.

:func:`enable` starts a file-backed tracer and installs the wrappers, and
:func:`disable` uninstalls them and closes the file; a
:class:`~repro.synth.session.SynthesisSession` whose config carries a
``trace_path`` does both around its lifetime.  Parallel workers tracing a
sweep cell run a *collecting* tracer (:func:`start_collecting`, no file)
and ship the ``export()``-ed events back inside the cell's result; the
parent :meth:`Tracer.absorb`-s them in the sweep's deterministic cell
order, re-parenting each cell's root spans onto the parent's open
``sweep.cell`` span.

Event model
-----------

Timestamps are ``time.perf_counter_ns()`` -- CLOCK_MONOTONIC-backed, so
spans recorded in forked worker processes are directly comparable with
the parent's.  Span ids are ``"<worker>:<seq>"`` strings: ``seq`` is a
per-tracer counter and ``worker`` a per-process tag (``"0"`` in the
parent, ``"w<pid>"`` in pool workers), so ids never collide across
processes and merged traces stay deterministic given a deterministic
merge order.  A span is written as one *complete* event at exit (``ts`` +
``dur``), also when the call raised (it then carries only its
argument attrs).

The JSONL file starts with a schema-versioned header line::

    {"kind": "header", "schema": 1, "clock": "perf_counter_ns", ...}

followed by one JSON object per span::

    {"kind": "span",  "name": ..., "id": ..., "parent": ..., "worker": ...,
     "ts": <ns>, "dur": <ns>, "attrs": {...}}

Schema 1 also admits instant events (``"kind": "event"``, no ``dur``),
which :mod:`repro.obs.tool` still reads; the engine emits none.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Bump when the JSONL event schema changes shape.
TRACE_SCHEMA_VERSION = 1

#: Attrs of a span from the call's bound arguments, by parameter name.
CallAttrs = Optional[Callable[[Mapping[str, Any]], Dict[str, Any]]]
#: Attrs of a span from the call's result.
ReturnAttrs = Optional[Callable[[Any], Dict[str, Any]]]


def _cell_attrs(args: Mapping[str, Any]) -> Dict[str, Any]:
    benchmark = args["benchmark"]
    return {
        "label": benchmark.id if benchmark is not None else "<ad-hoc>",
        "variant": args["variant"],
        "warm": args["warm"],
    }


def _attr(module: str, name: str) -> Any:
    # The guard lookups' miss sentinels, read late: importing the engine
    # here would be circular.
    return getattr(sys.modules[module], name)


#: (span name, module, "function" or "Class.method", call attrs, return
#: attrs).  A span name may time several entry points.
SPANS: Tuple[Tuple[str, str, str, CallAttrs, ReturnAttrs], ...] = (
    (
        "session.run", "repro.synth.session", "SynthesisSession.run", None,
        lambda result: {"problem": result.problem.name, "success": result.success},
    ),
    (
        "session.sweep", "repro.synth.session", "SynthesisSession.sweep",
        lambda a: {"warm": a["warm"]}, lambda entries: {"cells": len(entries)},
    ),
    ("sweep.cell", "repro.synth.session", "SynthesisSession._run_cell", _cell_attrs, None),
    ("sweep.cell", "repro.synth.session", "_collect_cell", _cell_attrs, None),
    ("phase.setup", "repro.synth.session", "SynthesisSession._setup", None, None),
    (
        "phase.specs", "repro.synth.synthesizer", "_solve_specs",
        lambda a: {"specs": len(a["problem"].specs)}, None,
    ),
    (
        "phase.merge", "repro.synth.merge", "Merger.merge",
        lambda a: {"solutions": len(a["solutions"])}, None,
    ),
    (
        "search.spec", "repro.synth.search", "generate_for_spec",
        lambda a: {"spec": a["spec"].name},
        lambda expr: {"found": expr is not None},
    ),
    (
        "search.guard", "repro.synth.search", "generate_guard",
        lambda a: {
            "positive": len(a["positive_specs"]),
            "negative": len(a["negative_specs"]),
        },
        lambda expr: {"found": expr is not None},
    ),
    (
        "eval.spec", "repro.synth.goal", "evaluate_spec",
        lambda a: {"spec": a["spec"].name},
        lambda outcome: {"ok": outcome.ok, "passed": outcome.passed_asserts},
    ),
    (
        "eval.guard", "repro.synth.goal", "evaluate_guard",
        lambda a: {"spec": a["spec"].name, "expect": a["expect"]},
        lambda accepted: {"accepted": accepted},
    ),
    (
        "cache.lookup", "repro.synth.cache", "SynthCache.lookup_spec",
        lambda a: {"kind": "spec"}, lambda outcome: {"hit": outcome is not None},
    ),
    (
        "cache.lookup", "repro.synth.cache", "SynthCache.lookup_guard",
        lambda a: {"kind": "guard"},
        lambda truth: {"hit": truth is not _attr("repro.synth.cache", "MISSING")},
    ),
    (
        "store.lookup", "repro.synth.store", "SpecOutcomeStore.load_spec",
        lambda a: {"kind": "spec"}, lambda outcome: {"hit": outcome is not None},
    ),
    (
        "store.lookup", "repro.synth.store", "SpecOutcomeStore.load_guard",
        lambda a: {"kind": "guard"},
        lambda truth: {"hit": truth is not _attr("repro.synth.store", "STORE_MISS")},
    ),
)


class Tracer:
    """Live tracer writing JSONL to ``path``, or collecting when ``None``.

    An open span is the event dict it will be written as; :meth:`finish`
    stamps its duration and emits it.
    """

    def __init__(self, path: Optional[str] = None, worker: str = "0") -> None:
        self.path = path
        self.worker = worker
        self._seq = 0
        self._stack: List[dict] = []
        self._buffer: List[dict] = []
        self._file = None  # lazily opened so fork never inherits an open sink
        self._wrote_header = False

    # ------------------------------------------------------------------ spans

    @property
    def current(self) -> Optional[dict]:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **attrs: Any) -> dict:
        self._seq += 1
        span = {
            "kind": "span",
            "name": name,
            "id": f"{self.worker}:{self._seq}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "worker": self.worker,
            "ts": time.perf_counter_ns(),
            "dur": 0,
            "attrs": attrs,
        }
        self._stack.append(span)
        return span

    def finish(self, span: dict) -> None:
        span["dur"] = time.perf_counter_ns() - span["ts"]
        # Pop through the stack to stay balanced even if an inner span
        # escaped (e.g. an exception skipped its finish).
        while self._stack:
            if self._stack.pop() is span:
                break
        self._emit(span)

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
        parent_id = self._stack[-1]["id"] if self._stack else None
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


#: ``TRACER``'s value while tracing is off.
NULL = None

#: The process-wide tracer, or :data:`NULL`.  The wrappers read it through
#: the module at every call, so rebinding reaches them all at once.
TRACER: Optional[Tracer] = NULL


# ---------------------------------------------------------------- wrappers

#: Installed wrappers: (class, or ``None`` for a module-level function,
#: attribute, original, wrapper).
_INSTALLED: List[Tuple[Optional[type], str, Any, Any]] = []


def _wrap(fn: Callable[..., Any], name: str, on_call: CallAttrs,
          on_return: ReturnAttrs) -> Callable[..., Any]:
    parameters = inspect.signature(fn).parameters
    names = tuple(parameters)
    defaults = {
        name: p.default for name, p in parameters.items() if p.default is not p.empty
    }

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer = TRACER
        if tracer is None:
            return fn(*args, **kwargs)
        attrs: Dict[str, Any] = {}
        if on_call is not None:
            # Bound by hand: ``Signature.bind`` costs more than the span.
            bound = dict(defaults)
            bound.update(zip(names, args))
            bound.update(kwargs)
            attrs = on_call(bound)
        span = tracer.begin(name, **attrs)
        try:
            result = fn(*args, **kwargs)
            if on_return is not None:
                span["attrs"].update(on_return(result))
            return result
        finally:
            tracer.finish(span)

    return traced


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _entries() -> List[Tuple[Optional[type], str, Any, Tuple]]:
    """Every table entry point as (class or ``None``, attribute, the object
    its defining module or class holds now, table row); a method is listed
    once per subclass that overrides it."""

    found = []
    for row in SPANS:
        module = importlib.import_module(row[1])
        if "." not in row[2]:
            found.append((None, row[2], getattr(module, row[2]), row))
            continue
        class_name, method = row[2].split(".")
        pending = [getattr(module, class_name)]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if method in vars(cls):
                found.append((cls, method, vars(cls)[method], row))
    return found


def _swap(forward: bool) -> None:
    modules = _repro_modules()
    for cls, attr, original, wrapper in _INSTALLED:
        old, new = (original, wrapper) if forward else (wrapper, original)
        for owner in [cls] if cls is not None else modules:
            if vars(owner).get(attr) is old:
                setattr(owner, attr, new)


def install() -> None:
    """Wrap every :data:`SPANS` entry point (a no-op when installed)."""

    if _INSTALLED:
        return
    for cls, attr, original, (name, _, _, on_call, on_return) in _entries():
        _INSTALLED.append(
            (cls, attr, original, _wrap(original, name, on_call, on_return))
        )
    _swap(forward=True)


def uninstall() -> None:
    """Put every original entry point back, also where a module imported
    while the wrappers were installed bound one by name."""

    _swap(forward=False)
    _INSTALLED.clear()


def entry_points() -> Dict[Tuple[str, str], Any]:
    """Where each entry point is bound right now: ``(owner, attribute) ->
    object``, over its defining class and overriding subclasses, or over
    every ``repro`` module that holds the function (or its wrapper) by
    name.  With no tracer live every value is the engine's own object."""

    bound: Dict[Tuple[str, str], Any] = {}
    modules = _repro_modules()
    for cls, attr, obj, _ in _entries():
        if cls is not None:
            bound[f"{cls.__module__}.{cls.__qualname__}", attr] = obj
            continue
        for module in modules:
            value = vars(module).get(attr)
            if getattr(value, "__qualname__", None) == obj.__qualname__:
                bound[module.__name__, attr] = value
    return bound


# ---------------------------------------------------------------- module API


def enable(path: str, worker: str = "0") -> Optional[Tracer]:
    """Start a file-backed process tracer and install the wrappers.

    Returns ``None`` -- and changes nothing -- when a tracer is already
    live: the caller's spans then nest into that tracer's stream.
    """

    global TRACER
    if TRACER is not None:
        return None
    tracer = Tracer(path, worker=worker)
    tracer.flush()  # create the file + header immediately
    TRACER = tracer
    install()
    return tracer


def start_collecting(worker: str) -> Tracer:
    """Install a buffering tracer (no file); drain with ``export()``."""

    global TRACER
    tracer = Tracer(None, worker=worker)
    TRACER = tracer
    install()
    return tracer


def disable() -> None:
    """Uninstall the wrappers and close the current tracer (if any)."""

    global TRACER
    tracer, TRACER = TRACER, NULL
    uninstall()
    if tracer is not None:
        tracer.close()


def reset_after_fork() -> None:
    """Drop any inherited tracer and wrappers without touching the
    (parent's) trace file.

    Called from pool worker initializers: the child must not close or
    flush a file object it inherited from the parent.
    """

    global TRACER
    TRACER = NULL
    uninstall()
