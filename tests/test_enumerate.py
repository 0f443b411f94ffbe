"""Tests for the enumerator's production index (repro.synth.enumerate).

The index must be invisible: every typed-hole expansion returns exactly the
candidates, in exactly the order, that re-filtering every constant and every
resolved signature on each expansion produces.  A class-table mutation must
reach the next expansion.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import pytest

from repro.apps.blog import build_blog_app
from repro.benchmarks import get_benchmark
from repro.lang import ast as A
from repro.lang import types as T
from repro.synth import SynthConfig, SynthesisSession, define
from repro.synth import search
from repro.synth.enumerate import (
    env_at_hole,
    expand_typed_hole,
    hash_access_candidates,
    hash_candidates,
    productions,
    variable_candidates,
)
from repro.typesys.class_table import MethodSig
from repro.typesys.typecheck import SynTypeError, check_expr


def _reference_expansion(expr, site, problem, config) -> List[A.Node]:
    """``expand_typed_hole`` without the index: every constant and every
    resolved signature is filtered with ``ct.is_subtype`` on each call, and
    every replacement node is built fresh."""

    ct = problem.class_table
    hole = site.hole
    use_types = config.use_types

    def fits(actual: T.Type) -> bool:
        return not use_types or ct.is_subtype(actual, hole.type)

    replacements: List[Tuple[A.Node, object]] = []
    for expr_const, const_type in problem.constant_exprs():
        if fits(const_type):
            replacements.append((expr_const, const_type))
    for member in T.union_members(hole.type):
        if isinstance(member, T.SymbolType):
            replacements.append((A.SymLit(member.name), member))
        elif isinstance(member, T.SingletonClassType):
            replacements.append((A.ConstRef(member.name), member))
    env = env_at_hole(expr, site, problem)
    replacements += variable_candidates(hole, env, problem, config)
    replacements += hash_access_candidates(hole, env, problem, config)
    replacements += hash_candidates(hole, problem, config)
    for resolved in ct.resolved_synthesis_methods():
        if fits(resolved.ret_type):
            template = A.MethodCall(
                A.TypedHole(resolved.sig.receiver_type),
                resolved.sig.name,
                tuple(A.TypedHole(t) for t in resolved.arg_types),
            )
            replacements.append((template, resolved.ret_type))

    results: List[A.Node] = []
    seen = set()
    for replacement, replacement_type in replacements:
        candidate = A.replace_at(expr, site.path, replacement)
        if candidate in seen:
            continue
        seen.add(candidate)
        if (
            use_types
            and config.narrow_types
            and replacement_type is not None
            and replacement_type != hole.type
        ):
            try:
                check_expr(candidate, dict(problem.param_env), ct)
            except SynTypeError:
                continue
        results.append(candidate)
    return results


def _recorded_expansions(benchmark_id, monkeypatch):
    """Every typed-hole expansion a synthesis of ``benchmark_id`` performs."""

    recorded = []

    def recording(expr, site, problem, config):
        recorded.append((expr, site, problem, config))
        return expand_typed_hole(expr, site, problem, config)

    monkeypatch.setattr(search, "expand_typed_hole", recording)
    benchmark = get_benchmark(benchmark_id)
    with SynthesisSession(benchmark.make_config(SynthConfig(timeout_s=60))) as session:
        result = session.run(benchmark.build())
    monkeypatch.undo()
    assert result.success
    return recorded


@pytest.mark.parametrize("benchmark_id", ["S6", "A1", "A9"])
def test_index_matches_brute_force_filtering(benchmark_id, monkeypatch):
    recorded = _recorded_expansions(benchmark_id, monkeypatch)
    assert recorded
    for use_types in (True, False):
        for expr, site, problem, config in recorded:
            config = replace(config, use_types=use_types)
            got = [str(c) for c in expand_typed_hole(expr, site, problem, config)]
            want = [str(c) for c in _reference_expansion(expr, site, problem, config)]
            assert got == want, (str(expr), use_types)


def _user_problem():
    app = build_blog_app()
    return define(
        "find_user",
        "(Str) -> User",
        consts=[True, False, app.models["User"]],
        class_table=app.class_table,
        reset=app.reset,
    )


def _root_expansion(problem) -> List[str]:
    root = A.TypedHole(T.ClassType("User"))
    candidates = expand_typed_hole(root, A.first_hole(root), problem, SynthConfig())
    return [str(c) for c in candidates]


@pytest.mark.parametrize("hole_type", [T.ClassType("User"), T.BOOL])
def test_index_hands_out_the_same_nodes(hole_type):
    problem = _user_problem()
    constants, calls = productions(hole_type, problem, True)
    assert constants or calls
    again_constants, again_calls = productions(hole_type, problem, True)
    assert all(a is b for (a, _), (b, _) in zip(constants, again_constants))
    assert all(a is b for (a, _), (b, _) in zip(calls, again_calls))


def test_class_table_mutations_reach_the_next_expansion():
    problem = _user_problem()
    ct = problem.class_table
    newest = "(□:Class<User>).newest"
    assert newest not in _root_expansion(problem)

    ct.add_method(MethodSig("User", "newest", (), T.ClassType("User"), singleton=True))
    assert newest in _root_expansion(problem)

    ct.remove_method("User", "newest", singleton=True)
    assert newest not in _root_expansion(problem)


def test_new_constants_reach_the_next_expansion():
    problem = _user_problem()
    root = A.TypedHole(T.BOOL)
    site = A.first_hole(root)
    assert A.TRUE in expand_typed_hole(root, site, problem, SynthConfig())
    problem.constants = (False,)
    after = expand_typed_hole(root, site, problem, SynthConfig())
    assert A.TRUE not in after and A.FALSE in after
