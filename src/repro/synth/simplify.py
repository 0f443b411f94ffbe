"""Post-synthesis cleanup of solution expressions.

Effect-guided synthesis leaves behind two kinds of clutter the paper's
figures do not show: ``nil`` statements produced by rule S-EffNil when an
effect hole turned out to be unnecessary, and ``let`` bindings whose variable
is never used.  Both are removed by a small, effect-preserving rewriter: only
*pure* discarded expressions are dropped, so the cleaned program is
observationally equivalent to the synthesized one (it is re-validated against
all specs by the merge step anyway).
"""

from __future__ import annotations

from repro.lang import ast as A


def _is_pure_value(expr: A.Node) -> bool:
    """Expressions that can be discarded without changing behaviour."""

    return isinstance(
        expr,
        (A.NilLit, A.BoolLit, A.IntLit, A.StrLit, A.SymLit, A.Var, A.ConstRef),
    )


def simplify(expr: A.Node) -> A.Node:
    """Recursively remove discarded pure statements and dead ``let`` binders."""

    if isinstance(expr, A.Seq):
        first = simplify(expr.first)
        second = simplify(expr.second)
        if _is_pure_value(first):
            return second
        return A.Seq(first, second)
    if isinstance(expr, A.Let):
        value = simplify(expr.value)
        body = simplify(expr.body)
        if expr.var not in A.free_vars(body):
            if _is_pure_value(value):
                return body
            return A.Seq(value, body)
        return A.Let(expr.var, value, body)
    if isinstance(expr, A.If):
        return A.If(
            simplify(expr.cond), simplify(expr.then_branch), simplify(expr.else_branch)
        )
    if isinstance(expr, A.Not):
        inner = simplify(expr.expr)
        if isinstance(inner, A.Not):
            return inner.expr
        return A.Not(inner)
    if isinstance(expr, A.Or):
        return A.Or(simplify(expr.left), simplify(expr.right))
    if isinstance(expr, A.MethodCall):
        return A.MethodCall(
            simplify(expr.receiver), expr.name, tuple(simplify(a) for a in expr.args)
        )
    if isinstance(expr, A.HashLit):
        return A.HashLit(tuple((k, simplify(v)) for k, v in expr.entries))
    if isinstance(expr, A.MethodDef):
        return A.MethodDef(expr.name, expr.params, simplify(expr.body))
    return expr
