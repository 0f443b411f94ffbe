"""The compiled evaluation backend: AST nodes closed into Python closures.

Candidate evaluation is the serial hot path of the synthesis loop.  This
backend compiles each subtree once per lexical *scope* into a chain of
Python closures (``node -> fn(frame, rt) -> value``) and caches the closures
on the node itself (its ``"compiled"`` memo table, keyed by scope; see
:func:`repro.lang.ast.node_memo`).  ``replace_at`` shares every subtree off
the path to a filled hole, so a subtree compiled while evaluating one
candidate is already compiled when a later candidate contains it under the
same binders.

Environments are flat positional frames resolved by :mod:`repro.lang.resolve`:
the scope is the tuple of binder names from the frame base upward (parameters
first, then enclosing ``let`` binders), variable access compiles to a baked
list index (``frame[i]``), and ``let`` appends to / truncates the shared
frame instead of copying a dict.  The invariant both backends maintain is
``len(frame) == len(scope)`` at every node entry; a frame is created fresh
per outermost evaluation and abandoned wholesale when an error propagates
out, so no unwinding bookkeeping is needed on the hot path.  The tree walker
resolves names by scanning the frame instead of baking slots, so the
backend differential tests catch a wrong precomputed slot.

The closures are purely *structural*: method dispatch still happens at run
time against the receiver's class through the shared evaluation context
(:class:`~repro.interp.interpreter.Interpreter`), so one compiled closure is
valid under every class table, effect precision and interpreter instance.
Each method-call closure additionally carries a small per-callsite dispatch
cache keyed by the class table's mutation-aware ``generation`` token, which
skips the superclass-chain walk and signature resolution on the (overwhelmingly
monomorphic) hot path; the generation changes whenever the table is mutated,
so the cache can never serve a stale resolution.

Effect logging, call-budget charging and hole rejection flow through the same
context methods as the tree walker, keeping the two backends observably
identical.  A pickled node carries no memo, so closures never cross the
process boundary in the parallel subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.lang import ast as A
from repro.lang import values as V
from repro.lang.resolve import slot_of
from repro.lang.values import ClassValue, HashValue, Symbol
from repro.interp.backend import EvalBackend
from repro.interp.effect_log import _ACTIVE_LOGS
from repro.interp.errors import (
    CallBudgetExceeded,
    NoMethodError,
    SynRuntimeError,
    UnboundVariableError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.interp.interpreter import Interpreter

#: A compiled subtree: ``fn(frame, rt) -> value``.
CompiledFn = Callable[[List[Any], "Interpreter"], Any]

#: A lexical scope: binder names from the frame base upward.
Scope = Tuple[str, ...]

#: Per-callsite dispatch caches are cleared beyond this many entries; real
#: callsites are monomorphic (one receiver class under one class table), so
#: the bound only triggers for pathological table churn.
_DISPATCH_CACHE_LIMIT = 32


class CompiledBackend(EvalBackend):
    """Evaluate by compiling each unique (subtree, scope) once into closures."""

    name = "compiled"

    def run(
        self, rt: "Interpreter", expr: A.Node, scope: Scope, frame: List[Any]
    ) -> Any:
        fn = A.node_memo(expr, "compiled").get(scope)
        if fn is None:
            fn = compile_node(expr, scope)
        return fn(frame, rt)


def compile_node(node: A.Node, scope: Scope = ()) -> CompiledFn:
    """The compiled closure for ``node`` under ``scope``, memoized on demand."""

    fn = A.node_memo(node, "compiled").get(scope)
    if fn is None:
        fn = _compile(node, scope)
        A.memo_put(node, "compiled", scope, fn)
    return fn


def is_compiled(node: A.Node, scope: "Scope | None" = None) -> bool:
    """Whether ``node`` carries a compiled closure (tests/benches).

    With the default ``scope=None`` any memoized scope counts; pass a scope
    tuple to ask about one layout specifically.
    """

    memo = A.node_memo(node, "compiled")
    return bool(memo) if scope is None else scope in memo


# ---------------------------------------------------------------------------
# Per-node compilers
# ---------------------------------------------------------------------------


def _compile(node: A.Node, scope: Scope) -> CompiledFn:
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        # Mirror the tree walker: unknown nodes fail at evaluation time.
        def run_unknown(frame: List[Any], rt: "Interpreter") -> Any:
            raise SynRuntimeError(f"cannot evaluate {node!r}")

        return run_unknown
    return compiler(node, scope)


def _compile_const_value(value: Any) -> CompiledFn:
    def run(frame: List[Any], rt: "Interpreter") -> Any:
        return value

    return run


def _compile_nil(node: A.NilLit, scope: Scope) -> CompiledFn:
    return _compile_const_value(None)


def _compile_bool(node: A.BoolLit, scope: Scope) -> CompiledFn:
    return _compile_const_value(node.value)


def _compile_int(node: A.IntLit, scope: Scope) -> CompiledFn:
    return _compile_const_value(node.value)


def _compile_str(node: A.StrLit, scope: Scope) -> CompiledFn:
    return _compile_const_value(node.value)


def _compile_sym(node: A.SymLit, scope: Scope) -> CompiledFn:
    # Symbols are interned; resolve once at compile time.
    return _compile_const_value(Symbol(node.name))


def _compile_const_ref(node: A.ConstRef, scope: Scope) -> CompiledFn:
    name = node.name
    # Per-callsite constant cache keyed by the class-table generation token
    # (globally unique per table instance and bumped on mutation, like the
    # dispatch caches below), so the pyclass lookup runs once per table
    # state instead of once per evaluation.
    cache: List[Any] = [None, None]

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        generation = rt.class_table._generation
        if cache[0] == generation:
            return cache[1]
        value = rt._const(name)
        cache[0] = generation
        cache[1] = value
        return value

    return run


def _compile_var(node: A.Var, scope: Scope) -> CompiledFn:
    name = node.name
    index = slot_of(scope, name)
    if index is None:
        # An untaken branch may reference an unbound name, exactly as in the
        # tree walker; the error fires only if evaluation reaches it.
        def run_unbound(frame: List[Any], rt: "Interpreter") -> Any:
            raise UnboundVariableError(name)

        return run_unbound

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        return frame[index]

    return run


def _compile_hole(node: A.Node, scope: Scope) -> CompiledFn:
    # Compiling a hole is fine (an untaken branch may contain one, exactly as
    # in the tree walker); *evaluating* it is the error.
    def run(frame: List[Any], rt: "Interpreter") -> Any:
        raise SynRuntimeError("cannot evaluate an expression containing holes")

    return run


def _compile_seq(node: A.Seq, scope: Scope) -> CompiledFn:
    first = compile_node(node.first, scope)
    second = compile_node(node.second, scope)

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        first(frame, rt)
        return second(frame, rt)

    return run


def _compile_let(node: A.Let, scope: Scope) -> CompiledFn:
    value_fn = compile_node(node.value, scope)
    body_fn = compile_node(node.body, scope + (node.var,))

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        frame.append(value_fn(frame, rt))
        result = body_fn(frame, rt)
        frame.pop()
        return result

    return run


def _compile_hash(node: A.HashLit, scope: Scope) -> CompiledFn:
    # Symbol keys are interned once at compile time.
    pairs: Tuple[Tuple[Symbol, CompiledFn], ...] = tuple(
        (Symbol(key), compile_node(value, scope)) for key, value in node.entries
    )

    from_owned = HashValue.from_owned

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        # The comprehension dict is fresh, so hand it over without the
        # defensive copy ``HashValue(...)`` would make.
        return from_owned({key: fn(frame, rt) for key, fn in pairs})

    return run


def _compile_if(node: A.If, scope: Scope) -> CompiledFn:
    cond = compile_node(node.cond, scope)
    then_fn = compile_node(node.then_branch, scope)
    else_fn = compile_node(node.else_branch, scope)

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        # Inlined truthy(): only nil and false are falsy.
        value = cond(frame, rt)
        if value is not None and value is not False:
            return then_fn(frame, rt)
        return else_fn(frame, rt)

    return run


def _compile_not(node: A.Not, scope: Scope) -> CompiledFn:
    inner = compile_node(node.expr, scope)

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        value = inner(frame, rt)
        return value is None or value is False

    return run


def _compile_or(node: A.Or, scope: Scope) -> CompiledFn:
    left_fn = compile_node(node.left, scope)
    right_fn = compile_node(node.right, scope)

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        left = left_fn(frame, rt)
        if left is not None and left is not False:
            return left
        return right_fn(frame, rt)

    return run


def _compile_method_def(node: A.MethodDef, scope: Scope) -> CompiledFn:
    return compile_node(node.body, scope)


def _compile_const_receiver_call(node: A.MethodCall, scope: Scope) -> Optional[CompiledFn]:
    """Fused compile of ``Const.method(...)`` callsites.

    Registry programs overwhelmingly start with a class-method call on a
    named constant (``Issue.find_by(...)``, ``Post.create(...)``).  For a
    fixed class table the constant lookup *and* the dispatch resolution are
    both determined by the callsite alone, so one generation-keyed slot
    caches the receiver and the resolved entry together -- the hot path does
    a single token compare instead of const cache + type switch + dispatch
    dict probe.  Evaluation order matches the generic closures: the receiver
    resolves before the arguments (unknown-constant errors first), dispatch
    resolves after them (argument errors beat NoMethodError).
    """

    rname = node.receiver.name
    name = node.name
    arg_fns = tuple(compile_node(arg, scope) for arg in node.args)
    logs_get = _ACTIVE_LOGS.get
    # [generation, receiver, impl, read effect, write effect, sig]
    cache: List[Any] = [None, None, None, None, None, None]

    def fill(rt: "Interpreter", receiver: Any) -> None:
        table = rt.class_table
        cls_name = V.class_name_of_value(receiver)
        singleton = V.is_class_value(receiver)
        sig = rt._lookup(cls_name, name, singleton)
        if sig is None:
            raise NoMethodError(cls_name, name)
        resolved = table.resolve(sig, _receiver_type(receiver, cls_name, singleton))
        effects = resolved.effects
        cache[0] = table._generation
        cache[1] = receiver
        cache[2] = sig.impl
        cache[3] = effects.read
        cache[4] = effects.write
        cache[5] = sig

    if not arg_fns:

        def run(frame: List[Any], rt: "Interpreter") -> Any:
            rt._calls += 1
            if rt._calls > rt.max_calls:
                raise CallBudgetExceeded(rt.max_calls)
            generation = rt.class_table._generation
            if cache[0] == generation:
                receiver = cache[1]
            else:
                receiver = rt._const(rname)
                fill(rt, receiver)
            for log in logs_get():
                log.record(cache[3], cache[4])
            impl = cache[2]
            if impl is None:
                raise SynRuntimeError(
                    f"method {cache[5].qualified_name} has no implementation"
                )
            try:
                return impl(rt, receiver)
            except (SynRuntimeError, NoMethodError):
                raise
            except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
                raise SynRuntimeError(
                    f"error calling {cache[5].qualified_name}: {exc}"
                ) from exc

        return run

    if len(arg_fns) == 1:
        arg0_fn = arg_fns[0]

        def run(frame: List[Any], rt: "Interpreter") -> Any:
            rt._calls += 1
            if rt._calls > rt.max_calls:
                raise CallBudgetExceeded(rt.max_calls)
            generation = rt.class_table._generation
            if cache[0] == generation:
                receiver = cache[1]
                arg0 = arg0_fn(frame, rt)
            else:
                receiver = rt._const(rname)
                arg0 = arg0_fn(frame, rt)
                fill(rt, receiver)
            for log in logs_get():
                log.record(cache[3], cache[4])
            impl = cache[2]
            if impl is None:
                raise SynRuntimeError(
                    f"method {cache[5].qualified_name} has no implementation"
                )
            try:
                return impl(rt, receiver, arg0)
            except (SynRuntimeError, NoMethodError):
                raise
            except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
                raise SynRuntimeError(
                    f"error calling {cache[5].qualified_name}: {exc}"
                ) from exc

        return run

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        rt._calls += 1
        if rt._calls > rt.max_calls:
            raise CallBudgetExceeded(rt.max_calls)
        generation = rt.class_table._generation
        if cache[0] == generation:
            receiver = cache[1]
            args = [fn(frame, rt) for fn in arg_fns]
        else:
            receiver = rt._const(rname)
            args = [fn(frame, rt) for fn in arg_fns]
            fill(rt, receiver)
        for log in logs_get():
            log.record(cache[3], cache[4])
        impl = cache[2]
        if impl is None:
            raise SynRuntimeError(
                f"method {cache[5].qualified_name} has no implementation"
            )
        try:
            return impl(rt, receiver, *args)
        except (SynRuntimeError, NoMethodError):
            raise
        except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
            raise SynRuntimeError(
                f"error calling {cache[5].qualified_name}: {exc}"
            ) from exc

    return run


def _compile_call(node: A.MethodCall, scope: Scope) -> CompiledFn:
    if type(node.receiver) is A.ConstRef:
        fn = _compile_const_receiver_call(node, scope)
        if fn is not None:
            return fn
    recv_fn = compile_node(node.receiver, scope)
    arg_fns = tuple(compile_node(arg, scope) for arg in node.args)
    name = node.name
    # Per-callsite monomorphic dispatch cache, keyed by the receiver's
    # *runtime class* -- the Python type for instances (every model gets its
    # own class, builtins map one-to-one), the class object itself for
    # singleton receivers, the wrapped name for ClassValues.  Entries carry
    # the class-table generation they were resolved under; the token is
    # bumped on every table mutation and is globally unique per table
    # instance, so a hit can never be stale and never crosses class tables
    # or effect precisions.  Each entry is ``(generation, impl, read effect,
    # write effect, sig)`` -- everything the hot path needs, pre-extracted.
    dispatch_cache: Dict[Any, Tuple[int, Any, Any, Any, Any]] = {}
    class_name_of_value = V.class_name_of_value
    is_class_value = V.is_class_value
    logs_get = _ACTIVE_LOGS.get

    def resolve(receiver: Any, rt: "Interpreter", key: Any) -> Tuple[int, Any, Any, Any, Any]:
        # Miss path: full superclass-chain lookup and signature resolution,
        # cached under ``key`` for the current table generation.
        table = rt.class_table
        cls_name = class_name_of_value(receiver)
        singleton = is_class_value(receiver)
        sig = rt._lookup(cls_name, name, singleton)
        if sig is None:
            raise NoMethodError(cls_name, name)
        resolved = table.resolve(sig, _receiver_type(receiver, cls_name, singleton))
        if len(dispatch_cache) >= _DISPATCH_CACHE_LIMIT:
            dispatch_cache.clear()
        effects = resolved.effects
        entry = (table._generation, sig.impl, effects.read, effects.write, sig)
        dispatch_cache[key] = entry
        return entry

    # The hot-path body is written out once per arity (0, 1, n) so the
    # common 0/1-argument calls skip the args-list allocation and star
    # unpacking.  Keep the three bodies in lockstep when editing: the
    # receiver is evaluated before the arguments, the arguments before
    # dispatch (argument errors must beat NoMethodError, matching the tree
    # walker), and hash/bool receivers bypass the cache via
    # ``rt.call_method`` (per-value comp types / TrueClass-FalseClass split).
    if not arg_fns:

        def run(frame: List[Any], rt: "Interpreter") -> Any:
            # Inlined rt.charge_call() (the hottest line of synthesis).
            rt._calls += 1
            if rt._calls > rt.max_calls:
                raise CallBudgetExceeded(rt.max_calls)
            receiver = recv_fn(frame, rt)
            rcls = type(receiver)
            if rcls is HashValue or rcls is bool:
                return rt.call_method(receiver, name, [])
            if rcls is ClassValue:
                key: Any = receiver.name
            elif isinstance(receiver, type):
                key = receiver
            else:
                key = rcls
            entry = dispatch_cache.get(key)
            if entry is None or entry[0] != rt.class_table._generation:
                entry = resolve(receiver, rt, key)
            gen, impl, eff_read, eff_write, sig = entry
            for log in logs_get():
                log.record(eff_read, eff_write)
            if impl is None:
                raise SynRuntimeError(
                    f"method {sig.qualified_name} has no implementation"
                )
            try:
                return impl(rt, receiver)
            except (SynRuntimeError, NoMethodError):
                raise
            except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
                raise SynRuntimeError(
                    f"error calling {sig.qualified_name}: {exc}"
                ) from exc

        return run

    if len(arg_fns) == 1:
        arg0_fn = arg_fns[0]

        def run(frame: List[Any], rt: "Interpreter") -> Any:
            rt._calls += 1
            if rt._calls > rt.max_calls:
                raise CallBudgetExceeded(rt.max_calls)
            receiver = recv_fn(frame, rt)
            arg0 = arg0_fn(frame, rt)
            rcls = type(receiver)
            if rcls is HashValue or rcls is bool:
                return rt.call_method(receiver, name, [arg0])
            if rcls is ClassValue:
                key: Any = receiver.name
            elif isinstance(receiver, type):
                key = receiver
            else:
                key = rcls
            entry = dispatch_cache.get(key)
            if entry is None or entry[0] != rt.class_table._generation:
                entry = resolve(receiver, rt, key)
            gen, impl, eff_read, eff_write, sig = entry
            for log in logs_get():
                log.record(eff_read, eff_write)
            if impl is None:
                raise SynRuntimeError(
                    f"method {sig.qualified_name} has no implementation"
                )
            try:
                return impl(rt, receiver, arg0)
            except (SynRuntimeError, NoMethodError):
                raise
            except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
                raise SynRuntimeError(
                    f"error calling {sig.qualified_name}: {exc}"
                ) from exc

        return run

    def run(frame: List[Any], rt: "Interpreter") -> Any:
        rt._calls += 1
        if rt._calls > rt.max_calls:
            raise CallBudgetExceeded(rt.max_calls)
        receiver = recv_fn(frame, rt)
        args = [fn(frame, rt) for fn in arg_fns]
        rcls = type(receiver)
        if rcls is HashValue or rcls is bool:
            return rt.call_method(receiver, name, args)
        if rcls is ClassValue:
            key: Any = receiver.name
        elif isinstance(receiver, type):
            key = receiver
        else:
            key = rcls
        entry = dispatch_cache.get(key)
        if entry is None or entry[0] != rt.class_table._generation:
            entry = resolve(receiver, rt, key)
        gen, impl, eff_read, eff_write, sig = entry
        for log in logs_get():
            log.record(eff_read, eff_write)
        if impl is None:
            raise SynRuntimeError(
                f"method {sig.qualified_name} has no implementation"
            )
        try:
            return impl(rt, receiver, *args)
        except (SynRuntimeError, NoMethodError):
            raise
        except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
            raise SynRuntimeError(
                f"error calling {sig.qualified_name}: {exc}"
            ) from exc

    return run


def _receiver_type(receiver: Any, cls_name: str, singleton: bool):
    from repro.lang import types as T

    if singleton:
        return T.SingletonClassType(cls_name)
    return T.ClassType(cls_name)


_COMPILERS: Dict[type, Callable[[Any, Scope], CompiledFn]] = {
    A.NilLit: _compile_nil,
    A.BoolLit: _compile_bool,
    A.IntLit: _compile_int,
    A.StrLit: _compile_str,
    A.SymLit: _compile_sym,
    A.ConstRef: _compile_const_ref,
    A.Var: _compile_var,
    A.TypedHole: _compile_hole,
    A.EffectHole: _compile_hole,
    A.Seq: _compile_seq,
    A.Let: _compile_let,
    A.HashLit: _compile_hash,
    A.MethodCall: _compile_call,
    A.If: _compile_if,
    A.Not: _compile_not,
    A.Or: _compile_or,
    A.MethodDef: _compile_method_def,
}
