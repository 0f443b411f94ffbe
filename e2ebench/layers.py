"""Outside-in layer timing for a traced pass.

:class:`LayerTracer` wraps the public functions of each engine layer and
measures each layer's *self time*: a call's duration minus the time spent in
wrapped child calls.  Garbage-collection pauses (via ``gc.callbacks``) are a
layer of their own and are taken out of the self time of the call they
interrupt.  The pass pushes one ``session`` root frame around each goal's
timed window, so everything not attributed to a named layer is ``session``
self time and ``coverage = 1 - session share``.

A function is wrapped in its defining module *and* in every loaded
``repro`` module that bound it by name (``repro.synth.search`` imports
``expand_typed_hole`` with ``from ... import``; patching only
``repro.synth.enumerate`` would time nothing).  Methods are wrapped on the
class and on every subclass that overrides them.

A layer called from inside itself (directly or through other layers) counts
one call, at the outermost entry; its nested time still goes to its own
self time.  Frames and totals stay in memory; :meth:`LayerTracer.report`
returns them when the pass ends.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: layer -> ((module, function or "Class.method" names), ...).
LAYERS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "search.spec": (("repro.synth.search", ("generate_for_spec",)),),
    "search.guard": (("repro.synth.search", ("generate_guard",)),),
    "merge": (("repro.synth.merge", ("Merger.merge",)),),
    "enumerate.typed": (("repro.synth.enumerate", ("expand_typed_hole",)),),
    "enumerate.effect": (
        ("repro.synth.effect_guided", ("expand_effect_hole", "insert_effect_hole")),
    ),
    "typecheck": (("repro.typesys.typecheck", ("check_expr",)),),
    "analysis": (
        ("repro.analysis.footprint", ("footprint", "infer", "writers_for_effect")),
        (
            "repro.analysis.prune",
            (
                "StaticPruner.key_for",
                "StaticPruner.outcome_for",
                "StaticPruner.record",
                "StaticPruner.write_pure",
            ),
        ),
    ),
    "eval": (
        ("repro.synth.goal", ("evaluate_spec", "evaluate_guard", "evaluate_all_specs")),
    ),
    "interp": (("repro.interp.interpreter", ("Interpreter.call_program",)),),
    "restore": (("repro.synth.state", ("StateManager.begin",)),),
    "orm": (
        (
            "repro.activerecord.database",
            (
                "Database.query",
                "Database.match_ids",
                "Database.count",
                "Database.exists",
                "Database.bulk_insert",
            ),
        ),
    ),
    "cache": (
        (
            "repro.synth.cache",
            (
                "SynthCache.lookup_spec",
                "SynthCache.store_spec",
                "SynthCache.lookup_guard",
                "SynthCache.store_guard",
            ),
        ),
    ),
    "store": (
        (
            "repro.synth.store",
            (
                "SpecOutcomeStore.load_spec",
                "SpecOutcomeStore.save_spec",
                "SpecOutcomeStore.load_guard",
                "SpecOutcomeStore.save_guard",
                "SpecOutcomeStore.flush",
            ),
        ),
    ),
}

#: Layers whose wrapped functions return candidate lists; their lengths feed
#: ``search.push_ratio``.
_CANDIDATE_LAYERS = ("enumerate.typed", "enumerate.effect")

#: Every reported layer name, in report order.
REPORTED_LAYERS = tuple(LAYERS) + ("gc", "session")


class _Layer:
    __slots__ = ("self_s", "calls", "depth", "candidates")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.depth = 0
        self.candidates = 0


class LayerTracer:
    """Self-time accounting over wrapped layer entry points."""

    def __init__(self) -> None:
        self._layers = {name: _Layer() for name in REPORTED_LAYERS}
        #: Open frames: [start, time covered by child frames].
        self._stack: List[List[float]] = []
        self._gc_start = 0.0
        self._gc_generations = [0, 0, 0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn: Callable[..., Any], layer_name: str) -> Callable[..., Any]:
        layer = self._layers[layer_name]
        stack = self._stack
        clock = time.perf_counter
        count_candidates = layer_name in _CANDIDATE_LAYERS

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            outer = layer.depth == 0
            layer.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                layer.depth -= 1
                stack.pop()
                duration = clock() - frame[0]
                layer.self_s += duration - frame[1]
                if outer:
                    layer.calls += 1
                stack[-1][1] += duration
            if count_candidates and isinstance(result, list):
                layer.candidates += len(result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer entry point and hook GC pauses."""

        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for layer_name, targets in LAYERS.items():
            for module_name, names in targets:
                module = sys.modules[module_name]
                for name in names:
                    if "." in name:
                        class_name, method = name.split(".")
                        self._wrap_method(getattr(module, class_name), method, layer_name)
                        continue
                    original = getattr(module, name)
                    wrapper = self._wrap(original, layer_name)
                    for other in modules:
                        if other.__dict__.get(name) is original:
                            self._patch(other, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap_method(self, cls: type, method: str, layer_name: str) -> None:
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if method in klass.__dict__:
                self._patch(klass, method, self._wrap(klass.__dict__[method], layer_name))

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ frames

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        layer = self._layers["gc"]
        layer.self_s += pause
        layer.calls += 1
        self._gc_generations[info["generation"]] += 1
        self._stack[-1][1] += pause

    def enter_root(self) -> None:
        """Open the ``session`` frame around one goal's timed window."""

        self._stack.append([time.perf_counter(), 0.0])

    def exit_root(self) -> None:
        frame = self._stack.pop()
        session = self._layers["session"]
        session.self_s += time.perf_counter() - frame[0] - frame[1]
        session.calls += 1

    def report(self) -> Dict[str, Any]:
        return {
            "layers": {
                name: {"self_s": self._layers[name].self_s,
                       "calls": self._layers[name].calls}
                for name in REPORTED_LAYERS
            },
            "candidates": sum(self._layers[n].candidates for n in _CANDIDATE_LAYERS),
            "gc_collections": list(self._gc_generations),
        }
