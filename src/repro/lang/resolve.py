"""Name resolution for lambda-syn: resolved bindings, computed once per node.

Anything derivable from binding structure alone is computed once per node:
free variables at construction (:mod:`repro.lang.ast`), alpha keys lazily
in the node's memo slot.  ``replace_at`` shares every subtree off the path
to a filled hole, so those results carry over from candidate to candidate.
This module is the resolution pass.  Its products:

* :func:`free_var_tuple` -- the node's free variables as a sorted tuple,
  the canonical ordering every env-keyed memo in the engine keys by
  (``typecheck.check_expr``'s incremental memo and, through its shared
  ``_memo_key``, the footprint memo of :mod:`repro.analysis.footprint`).
* :func:`slot_of` -- compile-time slot assignment: the frame index a name
  resolves to under a lexical *scope* (the tuple of binder names from the
  frame base upward, parameters first, then enclosing ``let`` binders).
  Both evaluation backends run on flat positional frames whose layout is
  exactly this scope, so ``slot_of`` is the whole story of variable access:
  the compiled backend bakes the returned index into a closure
  (``frame[i]``), the tree walker performs the same innermost-first scan
  dynamically.
* :func:`alpha_key` -- a canonical De Bruijn-style key: two expressions get
  equal keys iff they are alpha-equivalent (identical up to consistent
  renaming of ``let``-bound and parameter names, with free variables still
  compared by name).  The :class:`~repro.analysis.prune.StaticPruner` keys
  its normal-form outcome memo by it so renamed lets share entries, and
  :class:`~repro.synth.cache.SynthCache` uses it for in-memory spec-outcome
  keys.

``alpha_key`` is memoized *per context* in a compound node's ``"alpha"``
memo table (a leaf's key is computed directly): the key of a subtree
depends on its position only through the De Bruijn distances of its free
variables, so the table is keyed by that distance tuple.  A pickled node carries no memo, so alpha keys never cross
the process boundary in the parallel subsystem and are recomputed
(deterministically) on the far side.

The tree walker never consults :func:`slot_of` -- it scans the frame
innermost-first on its own -- so the tree-vs-compiled differential tests are
the oracle for a wrong baked slot.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.lang import ast as A


# ---------------------------------------------------------------------------
# Free-variable tuples
# ---------------------------------------------------------------------------


def free_var_tuple(node: A.Node) -> Tuple[str, ...]:
    """The free variables of ``node``, sorted, as a tuple.

    The same construction-time fact as :func:`repro.lang.ast.free_vars`:
    every memo that keys on "the bindings of the node's free variables"
    iterates this tuple, so keys agree across the typechecker, the
    footprint analysis and the caches.
    """

    return node._fv


# ---------------------------------------------------------------------------
# Slot assignment
# ---------------------------------------------------------------------------


def slot_of(scope: Tuple[str, ...], name: str) -> Optional[int]:
    """The frame slot ``name`` resolves to under ``scope``, or ``None``.

    ``scope`` lists binder names from the frame base upward (parameters
    first, then enclosing ``let`` binders, innermost last); shadowing
    therefore resolves to the *highest* index, exactly the binding the
    innermost-first dynamic scan of the tree walker finds.  Both backends
    maintain the invariant that at every node entry ``len(frame) ==
    len(scope)``, so the returned index is valid for the lifetime of the
    enclosing evaluation.
    """

    for i in range(len(scope) - 1, -1, -1):
        if scope[i] == name:
            return i
    return None


# ---------------------------------------------------------------------------
# Alpha keys
# ---------------------------------------------------------------------------


def alpha_key(node: A.Node, scope: Tuple[str, ...] = ()) -> Hashable:
    """A canonical key equal for exactly the alpha-equivalent expressions.

    Bound variables (``let`` binders, ``MethodDef`` parameters) are replaced
    by De Bruijn distances, so ``let a = e in a`` and ``let b = e in b`` key
    identically; *free* variables keep their names, so ``arg0`` and ``arg1``
    stay distinct.  ``scope`` names the binders already in force outside
    ``node`` (outermost first) -- callers keying whole candidates pass the
    default empty scope.
    """

    return _alpha(node, scope)


def _alpha(node: A.Node, bound: Tuple[str, ...]) -> Hashable:
    if node._count == 1:
        # A leaf's key costs O(1); memoizing it would store the leaf in its
        # own memo (a reference cycle) for nothing.
        return _alpha_structural(node, bound)
    # The key depends on ``bound`` only through the De Bruijn distances of
    # the node's free variables (every deeper lookup crosses a statically
    # known number of binders), so that distance tuple is a sound memo
    # context: same distances, same key.
    fvt = node._fv
    context = tuple(_debruijn(bound, name) for name in fvt) if fvt else ()
    key = A.node_memo(node, "alpha").get(context)
    if key is None:
        key = _alpha_structural(node, bound)
        A.memo_put(node, "alpha", context, key)
    return key


def _debruijn(bound: Tuple[str, ...], name: str) -> Optional[int]:
    """Distance to the innermost binder of ``name``, or ``None`` if free."""

    for i in range(len(bound) - 1, -1, -1):
        if bound[i] == name:
            return len(bound) - 1 - i
    return None


def _alpha_structural(node: A.Node, bound: Tuple[str, ...]) -> Hashable:
    if isinstance(node, A.Var):
        index = _debruijn(bound, node.name)
        if index is None:
            return ("fv", node.name)
        return index
    if isinstance(node, A.Let):
        return (
            "let",
            _alpha(node.value, bound),
            _alpha(node.body, bound + (node.var,)),
        )
    if isinstance(node, A.MethodDef):
        return (
            "def",
            node.name,
            len(node.params),
            _alpha(node.body, bound + node.params),
        )
    if isinstance(node, A.Seq):
        return ("seq", _alpha(node.first, bound), _alpha(node.second, bound))
    if isinstance(node, A.MethodCall):
        return (
            "call",
            node.name,
            _alpha(node.receiver, bound),
        ) + tuple(_alpha(arg, bound) for arg in node.args)
    if isinstance(node, A.HashLit):
        return (
            "hash",
            tuple((key, _alpha(value, bound)) for key, value in node.entries),
        )
    if isinstance(node, A.If):
        return (
            "if",
            _alpha(node.cond, bound),
            _alpha(node.then_branch, bound),
            _alpha(node.else_branch, bound),
        )
    if isinstance(node, A.Not):
        return ("not", _alpha(node.expr, bound))
    if isinstance(node, A.Or):
        return ("or", _alpha(node.left, bound), _alpha(node.right, bound))
    # Leaves (literals, constants, holes) are immutable with structural
    # equality; the node itself is its own canonical key.
    return node


__all__ = [
    "alpha_key",
    "free_var_tuple",
    "slot_of",
]
