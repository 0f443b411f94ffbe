"""Differential tests: the tree and compiled backends are observably identical.

Every check runs the same expression (or the same spec evaluation) through
``backend="tree"`` and ``backend="compiled"`` and compares the full
observable outcome: returned values, captured effect logs, call counters and
raised error types/messages -- including hole rejection and call-budget
exhaustion.  The inputs are the 19 registry benchmarks plus a seeded stream
of generated expressions, so the two backends are diffed over both the real
substrate libraries and adversarial expression shapes (unbound variables,
unknown methods, holes in taken and untaken branches, ...).
"""

from __future__ import annotations

import random

import pytest

from repro.benchmarks import all_benchmarks
from repro.interp import Interpreter, effect_capture
from repro.interp.errors import CallBudgetExceeded
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import Effect
from repro.lang import values as V
from repro.lang.pretty import pretty
from repro.synth.goal import evaluate_spec
from repro.typesys.class_table import MethodSig

BACKENDS = ("tree", "compiled")


# ---------------------------------------------------------------------------
# Outcome fingerprinting
# ---------------------------------------------------------------------------


def _canon(value):
    """A deterministic, address-free fingerprint of a runtime value."""

    if value is None or isinstance(value, (bool, int, str, V.Symbol)):
        return repr(value)
    if isinstance(value, V.HashValue):
        return ("hash", tuple(sorted((repr(k), _canon(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canon(item) for item in value))
    # Model records / class values: class name is stable, object repr is not.
    return ("obj", V.class_name_of_value(value))


def _observe(backend, class_table, expr, env, max_calls=100_000):
    """Evaluate once and fingerprint everything observable about the run."""

    interp = Interpreter(class_table, max_calls=max_calls, backend=backend)
    with effect_capture() as log:
        try:
            result = ("value", _canon(interp.eval(expr, dict(env))))
        except Exception as exc:  # noqa: BLE001 - error identity is the point
            result = ("error", type(exc).__name__, str(exc))
    return (
        result,
        str(log.read),
        str(log.write),
        log.calls,
        interp.calls_charged,
    )


def _assert_backends_agree(class_table, expr, env, max_calls=100_000):
    tree = _observe("tree", class_table, expr, env, max_calls)
    compiled = _observe("compiled", class_table, expr, env, max_calls)
    assert tree == compiled, f"backends diverge on {expr!r}:\n{tree}\n{compiled}"
    return tree


# ---------------------------------------------------------------------------
# Seeded generated expressions
# ---------------------------------------------------------------------------


_METHOD_NAMES = ("first", "title", "where", "count", "+", "-", "[]", "frobnicate")


def _gen_expr(rng: random.Random, depth: int) -> A.Node:
    """A random expression over the ORM fixture's vocabulary.

    Intentionally includes ill-formed choices (unbound variables, unknown
    constants/methods, holes) so error behavior is diffed too.  Only
    read-only methods are drawn, keeping the shared database identical
    across the two backend runs.
    """

    leaves = [
        lambda: A.NIL,
        lambda: A.TRUE,
        lambda: A.FALSE,
        lambda: A.IntLit(rng.randrange(-3, 7)),
        lambda: A.StrLit(rng.choice(["hw", "Hello", ""])),
        lambda: A.SymLit(rng.choice(["title", "slug", "missing"])),
        lambda: A.Var(rng.choice(["p", "n", "s", "h", "v", "zz"])),
        lambda: A.ConstRef(rng.choice(["Post", "Ghost"])),
        lambda: A.TypedHole(T.STRING),
    ]
    if depth <= 0:
        return rng.choice(leaves[:-1])()  # holes only via the weighted pick
    roll = rng.random()
    sub = lambda: _gen_expr(rng, depth - 1)  # noqa: E731
    if roll < 0.30:
        return rng.choice(leaves)()
    if roll < 0.40:
        return A.Seq(sub(), sub())
    if roll < 0.50:
        return A.Let("v", sub(), sub())
    if roll < 0.60:
        return A.If(sub(), sub(), sub())
    if roll < 0.66:
        return A.Not(sub())
    if roll < 0.72:
        return A.Or(sub(), sub())
    if roll < 0.78:
        return A.hash_lit(title=sub())
    name = rng.choice(_METHOD_NAMES)
    args = tuple(sub() for _ in range(rng.randrange(0, 2)))
    return A.call(sub(), name, *args)


def test_seeded_generated_expressions_identical(orm_class_table, post_model):
    post_model.create(author="a", title="Hello", slug="hw")
    env = {
        "p": post_model.first(),
        "n": 5,
        "s": "hw",
        "h": V.HashValue.of(title="Hello"),
    }
    rng = random.Random(0x5EED)
    outcomes = set()
    for _ in range(200):
        expr = _gen_expr(rng, depth=3)
        outcomes.add(_assert_backends_agree(orm_class_table, expr, env)[0][0])
    # The stream must actually exercise both success and failure paths.
    assert outcomes == {"value", "error"}


def test_generated_expressions_identical_under_tight_budget(
    orm_class_table, post_model
):
    post_model.create(author="a", title="Hello", slug="hw")
    env = {"p": post_model.first(), "n": 5, "s": "hw", "h": V.HashValue.of()}
    rng = random.Random(0xB06E7)
    saw_budget_error = False
    for _ in range(150):
        expr = _gen_expr(rng, depth=4)
        outcome = _assert_backends_agree(orm_class_table, expr, env, max_calls=2)
        if outcome[0][:2] == ("error", "CallBudgetExceeded"):
            saw_budget_error = True
    assert saw_budget_error


# ---------------------------------------------------------------------------
# Holes and budgets (the explicitly required error classes)
# ---------------------------------------------------------------------------


def test_hole_evaluation_raises_identically(orm_class_table):
    _assert_backends_agree(orm_class_table, A.TypedHole(T.STRING), {})
    _assert_backends_agree(orm_class_table, A.EffectHole(Effect.of("Post")), {})
    # A hole inside a compound expression fails from both backends too.
    expr = A.Seq(A.IntLit(1), A.TypedHole(T.INT))
    outcome = _assert_backends_agree(orm_class_table, expr, {})
    assert outcome[0][:2] == ("error", "SynRuntimeError")


def test_hole_in_untaken_branch_is_not_evaluated(orm_class_table):
    expr = A.If(A.TRUE, A.IntLit(7), A.TypedHole(T.INT))
    outcome = _assert_backends_agree(orm_class_table, expr, {})
    assert outcome[0] == ("value", "7")


def test_budget_exhaustion_identical(orm_class_table):
    expr = A.IntLit(0)
    for _ in range(4):
        expr = A.call(expr, "+", A.IntLit(1))
    outcome = _assert_backends_agree(orm_class_table, expr, {}, max_calls=2)
    assert outcome[0][:2] == ("error", "CallBudgetExceeded")


@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_eval_shares_one_call_budget(orm_class_table, backend):
    """Regression: re-entrant ``eval`` must not reset the outer call budget.

    ``reenter``'s implementation re-enters the interpreter; historically each
    ``eval`` entry wiped ``_calls``, so the outer chain never exhausted its
    budget no matter how long it ran.
    """

    reenter_body = A.call(A.IntLit(1), "+", A.IntLit(1))
    orm_class_table.add_method(
        MethodSig(
            owner="Integer",
            name="reenter",
            arg_types=(),
            ret_type=T.INT,
            impl=lambda interp, recv: interp.eval(reenter_body),
        )
    )
    interp = Interpreter(orm_class_table, max_calls=3, backend=backend)
    # Each reenter call charges itself plus one nested "+": 3 chained calls
    # charge 6 > 3, which the pre-fix accounting never noticed.
    expr = A.IntLit(1)
    for _ in range(3):
        expr = A.call(expr, "reenter")
    with pytest.raises(CallBudgetExceeded):
        interp.eval(expr)

    # Within budget the charges still accumulate across nesting levels.
    roomy = Interpreter(orm_class_table, max_calls=100, backend=backend)
    assert roomy.eval(A.call(A.IntLit(1), "reenter")) == 2
    assert roomy.calls_charged == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_budget_resets_between_outermost_evals(orm_class_table, backend):
    interp = Interpreter(orm_class_table, max_calls=2, backend=backend)
    expr = A.call(A.call(A.IntLit(1), "+", A.IntLit(1)), "+", A.IntLit(1))
    assert interp.eval(expr) == 3
    assert interp.calls_charged == 2
    assert interp.eval(expr) == 3  # fresh outermost entry, fresh budget


# ---------------------------------------------------------------------------
# All 19 registry benchmarks
# ---------------------------------------------------------------------------


def _spec_candidates(problem):
    """Deterministic candidate programs over the benchmark's own vocabulary."""

    bodies = [A.NIL, A.IntLit(1)]
    bodies.extend(A.Var(param) for param in problem.params)
    calls = 0
    for resolved in problem.class_table.resolved_synthesis_methods():
        if resolved.arg_types or calls >= 4:
            continue
        sig = resolved.sig
        if sig.singleton:
            receiver = A.ConstRef(sig.owner)
        else:
            match = next(
                (
                    param
                    for param, ptype in zip(problem.params, problem.arg_types)
                    if isinstance(ptype, T.ClassType) and ptype.name == sig.owner
                ),
                None,
            )
            if match is None:
                continue
            receiver = A.Var(match)
        bodies.append(A.call(receiver, sig.name))
        calls += 1
    return [problem.make_program(body) for body in bodies]


def _outcome_fingerprint(outcome):
    failure = outcome.failure
    return (
        outcome.ok,
        outcome.passed_asserts,
        type(outcome.error).__name__ if outcome.error is not None else None,
        str(outcome.error) if outcome.error is not None else None,
        (str(failure.read_effect), str(failure.write_effect))
        if failure is not None
        else None,
        _canon(outcome.value),
    )


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.id)
def test_registry_benchmark_evaluations_identical(bench):
    problem = bench.build()
    for program in _spec_candidates(problem):
        for spec in problem.specs:
            per_backend = {
                backend: _outcome_fingerprint(
                    evaluate_spec(problem, program, spec, backend=backend)
                )
                for backend in BACKENDS
            }
            assert per_backend["tree"] == per_backend["compiled"], (
                f"{bench.id}/{spec.name}: backends diverge on "
                f"{pretty(program.body)}:\n{per_backend}"
            )


# ---------------------------------------------------------------------------
# Shadowing and capture (the slot-assignment battery)
# ---------------------------------------------------------------------------
#
# Every case here is a binding-structure trap for a compile-time slot
# assigner: shadowed parameters, rebinding in nested lets, sibling lets that
# reuse a name at the same depth, a let value referencing the name it is
# about to shadow, and shadowing confined to one branch of an If.  A wrong
# baked frame index resolves to the wrong binding; the dynamic innermost-
# first scan of the tree walker is the ground truth the compiled backend
# must match value-for-value.


def _let(name, value, body):
    return A.Let(name, value, body)


_SHADOWING_CASES = [
    # Parameter shadowed by a let: the body must see the inner binding.
    _let("p", A.IntLit(1), A.Var("p")),
    # ... and the let *value* must still see the outer one.
    _let("p", A.call(A.Var("n"), "+", A.IntLit(1)), A.Var("p")),
    # Rebinding chain: each let shadows the previous same-named binder.
    _let("v", A.IntLit(1), _let("v", A.call(A.Var("v"), "+", A.IntLit(10)), A.Var("v"))),
    # Triple rebinding, innermost wins.
    _let(
        "v",
        A.IntLit(1),
        _let("v", A.IntLit(2), _let("v", A.IntLit(3), A.Var("v"))),
    ),
    # Sibling lets at the same depth: the second must not see the first's
    # frame slot as stale state (frames pop between siblings).
    A.Seq(
        _let("v", A.IntLit(7), A.Var("v")),
        _let("v", A.StrLit("x"), A.Var("v")),
    ),
    # A shadowing let confined to the then-branch; the else-branch still
    # resolves the parameter.
    A.If(
        A.Var("flag"),
        _let("n", A.IntLit(100), A.Var("n")),
        A.Var("n"),
    ),
    # The let value reads the binder it is about to shadow (no self-capture).
    _let("n", A.call(A.Var("n"), "+", A.Var("n")), A.Var("n")),
    # Shadowing inside a hash literal entry.
    _let("n", A.IntLit(5), A.hash_lit(title=A.Var("n"), slug=A.Var("s"))),
    # Escape after pop: the inner let's frame slot must not leak into the
    # outer expression once its body ends.
    A.Seq(_let("zz", A.IntLit(9), A.Var("zz")), A.Var("n")),
    # An unbound name at a slot position that *was* bound in a sibling.
    A.Seq(_let("w", A.IntLit(1), A.Var("w")), A.Var("w")),
    # Method-call receiver and args each under their own shadow.
    _let(
        "n",
        A.IntLit(2),
        A.call(A.Var("n"), "+", _let("n", A.IntLit(40), A.Var("n"))),
    ),
    # Or short-circuit with a shadowed binder in the untaken right side.
    _let("v", A.TRUE, A.Or(A.Var("v"), _let("v", A.NIL, A.Var("v")))),
]


@pytest.mark.parametrize("expr", _SHADOWING_CASES, ids=lambda e: pretty(e)[:60])
def test_shadowing_battery_backends_identical(orm_class_table, post_model, expr):
    post_model.create(author="a", title="Hello", slug="hw")
    env = {"p": post_model.first(), "n": 5, "s": "hw", "flag": True}
    _assert_backends_agree(orm_class_table, expr, env)


def test_shadowing_battery_values(orm_class_table):
    """Spot-check the actual values, not just tree/compiled agreement."""

    env = {"n": 5, "flag": False}
    interp = Interpreter(orm_class_table, backend="compiled")
    assert interp.eval(_SHADOWING_CASES[1], dict(env)) == 6
    assert interp.eval(_SHADOWING_CASES[2], {"n": 0}) == 11
    assert interp.eval(_SHADOWING_CASES[3], {}) == 3
    assert interp.eval(_SHADOWING_CASES[5], dict(env)) == 5
    assert interp.eval(_SHADOWING_CASES[6], dict(env)) == 10


@pytest.mark.parametrize("backend", BACKENDS)
def test_deep_shadowing_tower_resolves_innermost(orm_class_table, backend):
    """A 30-deep rebinding tower: every level shadows the same name."""

    expr = A.Var("v")
    for depth in range(30, 0, -1):
        expr = A.Let("v", A.IntLit(depth), expr)
    interp = Interpreter(orm_class_table, backend=backend)
    assert interp.eval(expr, {"v": -1}) == 30
