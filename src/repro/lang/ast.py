"""Abstract syntax of lambda-syn expressions and programs.

Grammar (Figure 3 of the paper), extended with the implementation-level forms
that Section 4 relies on (hash literals, symbol/string/integer constants and
class-constant references):

.. code-block:: text

   e ::= nil | true | false | <int> | <str> | :<sym> | <Const>
       | x | e; e | e.m(e, ...) | {k: e, ...}
       | if b then e else e | let x = e in e
       | [] : tau          (typed hole)
       | <> : eps          (effect hole)
   b ::= e | !b | b or b

Nodes are ``__slots__`` objects with structural equality.  Each constructor
computes, once, the facts the search consults on every candidate: the
structural hash, :func:`node_count`, :func:`has_holes` and
:func:`free_vars`.  Those facts are only valid because no field is ever
assigned after construction; derived programs are rebuilt with
:func:`replace_at`.  Results that depend on a context or are computed
lazily (the left-most hole, typing and footprint memos, alpha keys,
compiled closures) live in one per-node memo slot reached through
:func:`node_memo` and :func:`memo_put`.

Two utilities matter for synthesis:

* :func:`first_hole` finds the left-most hole and reports the *path* to it
  plus the ``let`` bindings in scope at that position, so the enumerator can
  extend the type environment correctly (rule T-Let).
* :func:`replace_at` rebuilds the expression with a replacement spliced in at
  a path, leaving every other node shared -- so the memos of every subtree
  off the path to the hole carry over to the new candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.lang.effects import Effect
from repro.lang.types import Type

#: Bound on each consumer's per-node memo table: storing into a full table
#: clears it first.  Real searches see a handful of contexts per subtree
#: (class-table generations, free-variable typings, binder layouts), so the
#: bound only triggers on pathological use.
MEMO_LIMIT = 64

_NO_MEMO: Mapping[Hashable, Any] = MappingProxyType({})


def _union(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """The sorted union of two sorted name tuples."""

    if not b or a == b:
        return a
    if not a:
        return b
    return tuple(sorted({*a, *b}))


class Node:
    """Base class for all AST nodes.

    Subclasses list their fields in ``_fields`` (constructor order) and set
    the structural facts through :meth:`_derive`.  Leaf nodes have no
    children; compound nodes override :meth:`children`.  Equality and
    hashing are structural over ``_fields``; pickling sends only the fields,
    so the receiving side recomputes the facts and starts with no memos.
    """

    __slots__ = ("_hash", "_count", "_holes", "_fv", "_memo")
    _fields: Tuple[str, ...] = ()

    def _derive(
        self,
        fields: Tuple,
        kids: Tuple["Node", ...] = (),
        holes: bool = False,
        fv: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Compute the construction-time facts from the fields and children.

        ``holes`` marks the node itself as a hole; ``fv`` overrides the union
        of the children's free variables (binders and variable leaves).
        """

        self._hash = hash(fields)
        count = 1
        union: Tuple[str, ...] = ()
        for kid in kids:
            count += kid._count
            holes = holes or kid._holes
            union = _union(union, kid._fv)
        self._count = count
        self._holes = holes
        self._fv = union if fv is None else fv
        self._memo = None

    def children(self) -> Tuple[Tuple["Step", "Node"], ...]:
        """``(step, child)`` pairs in evaluation order (empty for leaves)."""

        return ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:  # type: ignore[attr-defined]
            return False
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[type, Tuple]:
        return (self.__class__, tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({args})"

    def __str__(self) -> str:
        from repro.lang.pretty import pretty

        return pretty(self)


@dataclass(frozen=True)
class Step:
    """One step of a path: an attribute name plus an optional tuple index."""

    attr: str
    index: Optional[int] = None


Path = Tuple[Step, ...]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class NilLit(Node):
    """The literal ``nil``."""

    __slots__ = ()

    def __init__(self) -> None:
        self._derive(())


class BoolLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value
        self._derive((value,))


class IntLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value
        self._derive((value,))


class StrLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value
        self._derive((value,))


class SymLit(Node):
    """A symbol literal ``:name``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._derive((name,))


class ConstRef(Node):
    """A reference to a class constant such as ``Post``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._derive((name,))


class Var(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._derive((name,), fv=(name,))


# ---------------------------------------------------------------------------
# Holes
# ---------------------------------------------------------------------------


class TypedHole(Node):
    """A typed hole ``[]:tau`` to be filled by an expression of type ``tau``."""

    __slots__ = _fields = ("type",)

    def __init__(self, type: Type) -> None:
        self.type = type
        self._derive((type,), holes=True)


class EffectHole(Node):
    """An effect hole ``<>:eps`` to be filled by code with write effect ``eps``."""

    __slots__ = _fields = ("effect",)

    def __init__(self, effect: Effect) -> None:
        self.effect = effect
        self._derive((effect,), holes=True)


# ---------------------------------------------------------------------------
# Compound expressions
# ---------------------------------------------------------------------------


class Seq(Node):
    """Sequencing ``first; second``; evaluates to ``second``."""

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: Node, second: Node) -> None:
        self.first = first
        self.second = second
        self._derive((first, second), (first, second))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return ((Step("first"), self.first), (Step("second"), self.second))


class Let(Node):
    """``let var = value in body``."""

    __slots__ = _fields = ("var", "value", "body")

    def __init__(self, var: str, value: Node, body: Node) -> None:
        self.var = var
        self.value = value
        self.body = body
        body_fv = body._fv
        if var in body_fv:
            body_fv = tuple(name for name in body_fv if name != var)
        self._derive((var, value, body), (value, body), fv=_union(value._fv, body_fv))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return ((Step("value"), self.value), (Step("body"), self.body))


class MethodCall(Node):
    """A method call ``receiver.name(args...)``."""

    __slots__ = _fields = ("receiver", "name", "args")

    def __init__(self, receiver: Node, name: str, args: Tuple[Node, ...] = ()) -> None:
        self.receiver = receiver
        self.name = name
        self.args = args
        self._derive((receiver, name, args), (receiver,) + args)

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        pairs = [(Step("receiver"), self.receiver)]
        pairs.extend((Step("args", i), arg) for i, arg in enumerate(self.args))
        return tuple(pairs)


class HashLit(Node):
    """A hash literal ``{key: value, ...}`` with symbol keys."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Tuple[Tuple[str, Node], ...] = ()) -> None:
        self.entries = entries
        self._derive((entries,), tuple(value for _, value in entries))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return tuple(
            (Step("entries", i), value) for i, (_, value) in enumerate(self.entries)
        )


class If(Node):
    """``if cond then then_branch else else_branch``."""

    __slots__ = _fields = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: Node, then_branch: Node, else_branch: Node) -> None:
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch
        kids = (cond, then_branch, else_branch)
        self._derive(kids, kids)

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return (
            (Step("cond"), self.cond),
            (Step("then_branch"), self.then_branch),
            (Step("else_branch"), self.else_branch),
        )


class Not(Node):
    """Guard negation ``!b``."""

    __slots__ = _fields = ("expr",)

    def __init__(self, expr: Node) -> None:
        self.expr = expr
        self._derive((expr,), (expr,))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return ((Step("expr"), self.expr),)


class Or(Node):
    """Guard disjunction ``b1 or b2``."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Node, right: Node) -> None:
        self.left = left
        self.right = right
        self._derive((left, right), (left, right))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return ((Step("left"), self.left), (Step("right"), self.right))


class MethodDef(Node):
    """A synthesized program ``def name(params...) = body``.

    Its free variables are the body's: the parameters are frame bindings
    supplied by the caller, so they stay free in the body's tuple.
    """

    __slots__ = _fields = ("name", "params", "body")

    def __init__(self, name: str, params: Tuple[str, ...], body: Node) -> None:
        self.name = name
        self.params = params
        self.body = body
        self._derive((name, params, body), (body,))

    def children(self) -> Tuple[Tuple[Step, Node], ...]:
        return ((Step("body"), self.body),)


# ---------------------------------------------------------------------------
# Generic traversal utilities
# ---------------------------------------------------------------------------


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all of its descendants in pre-order."""

    yield node
    for _, child in node.children():
        yield from walk(child)


def size(node: Node) -> int:
    """The program-size metric used to order the work list.

    Mirrors the paper's ``size`` function (Figure 12): leaves and binders
    count zero; each method call contributes one; sequences, lets, ifs and
    guard connectives contribute the sum of their parts.  We additionally
    count hash literal entries so that larger keyword hashes are explored
    after smaller ones.
    """

    if isinstance(node, MethodCall):
        return 1 + size(node.receiver) + sum(size(a) for a in node.args)
    if isinstance(node, Seq):
        return size(node.first) + size(node.second)
    if isinstance(node, Let):
        return size(node.value) + size(node.body)
    if isinstance(node, If):
        return size(node.cond) + size(node.then_branch) + size(node.else_branch)
    if isinstance(node, Not):
        return size(node.expr)
    if isinstance(node, Or):
        return size(node.left) + size(node.right)
    if isinstance(node, HashLit):
        return len(node.entries) + sum(size(v) for _, v in node.entries)
    if isinstance(node, MethodDef):
        return size(node.body)
    return 0


def node_count(node: Node) -> int:
    """Number of AST nodes, the "Meth Size" metric reported in Table 1."""

    return node._count


def count_holes(node: Node) -> int:
    return sum(1 for n in walk(node) if isinstance(n, (TypedHole, EffectHole)))


def has_holes(node: Node) -> bool:
    """Negation of the paper's ``evaluable`` predicate (Figure 12)."""

    return node._holes


def count_paths(node: Node) -> int:
    """Number of control-flow paths through an expression (Table 1, # Paths)."""

    if isinstance(node, If):
        return count_paths(node.then_branch) + count_paths(node.else_branch)
    if isinstance(node, Seq):
        return count_paths(node.first) * count_paths(node.second)
    if isinstance(node, Let):
        return count_paths(node.value) * count_paths(node.body)
    if isinstance(node, MethodDef):
        return count_paths(node.body)
    return 1


def free_vars(node: Node) -> Tuple[str, ...]:
    """The free variables of an expression, sorted and deduplicated.

    A ``let`` binder is free in its value position but bound in its body.
    Every memo keyed by "the bindings of the node's free variables" iterates
    this tuple, so keys agree across the typechecker, the footprint analysis
    and the caches.
    """

    return node._fv


# ---------------------------------------------------------------------------
# Per-node memos
# ---------------------------------------------------------------------------


def node_memo(node: Node, kind: str) -> Mapping[Hashable, Any]:
    """The ``kind`` consumer's memo table on ``node`` (empty when unset).

    The table is for reading; entries are added with :func:`memo_put`.
    Consumers name themselves with ``kind`` (``"type"``, ``"footprint"``,
    ``"alpha"``, ``"compiled"``, ``"first_hole"``) and each keeps its own
    table under the shared :data:`MEMO_LIMIT` bound.
    """

    tables = node._memo
    if tables is None:
        return _NO_MEMO
    return tables.get(kind, _NO_MEMO)


def memo_put(node: Node, kind: str, key: Hashable, value: Any) -> None:
    """Record ``value`` under ``key`` in ``node``'s ``kind`` memo table.

    A table already holding :data:`MEMO_LIMIT` entries is cleared first.
    """

    tables = node._memo
    if tables is None:
        tables = node._memo = {}
    table = tables.get(kind)
    if table is None:
        tables[kind] = {key: value}
        return
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = value


# ---------------------------------------------------------------------------
# Hole location and replacement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoleSite:
    """A located hole: the hole node, its path, and the binders in scope.

    ``bindings`` lists the enclosing ``let`` binders from outermost to
    innermost as ``(name, value_expression)`` pairs; the enumerator
    typechecks the value expressions to extend the type environment at the
    hole (rule T-Let).
    """

    hole: Union[TypedHole, EffectHole]
    path: Path
    bindings: Tuple[Tuple[str, Node], ...] = ()


def iter_holes(node: Node) -> Iterator[HoleSite]:
    """Yield every hole in left-to-right evaluation order."""

    yield from _iter_holes(node, (), ())


def _iter_holes(
    node: Node, path: Path, bindings: Tuple[Tuple[str, Node], ...]
) -> Iterator[HoleSite]:
    if isinstance(node, (TypedHole, EffectHole)):
        yield HoleSite(node, path, bindings)
        return
    if isinstance(node, Let):
        yield from _iter_holes(node.value, path + (Step("value"),), bindings)
        yield from _iter_holes(
            node.body, path + (Step("body"),), bindings + ((node.var, node.value),)
        )
        return
    for step, child in node.children():
        yield from _iter_holes(child, path + (step,), bindings)


def first_hole(node: Node) -> Optional[HoleSite]:
    """The left-most hole of ``node``, or ``None`` if the node is evaluable.

    Memoized per node (its ``"first_hole"`` table holds one entry, under
    the key ``None``): the search consults it on every expansion.
    """

    if not node._holes:
        return None
    site = node_memo(node, "first_hole").get(None)
    if site is None:
        site = next(iter_holes(node))
        memo_put(node, "first_hole", None, site)
    return site


def replace_at(node: Node, path: Path, replacement: Node) -> Node:
    """Rebuild ``node`` with ``replacement`` spliced in at ``path``."""

    if not path:
        return replacement
    step, rest = path[0], path[1:]
    value = getattr(node, step.attr)
    if step.index is None:
        new_value: object = replace_at(value, rest, replacement)
    else:
        items = list(value)
        item = items[step.index]
        if isinstance(item, Node):
            items[step.index] = replace_at(item, rest, replacement)
        else:
            # Hash entry: (key, value-node).
            key, sub = item
            items[step.index] = (key, replace_at(sub, rest, replacement))
        new_value = tuple(items)
    return node.__class__(
        *[new_value if f == step.attr else getattr(node, f) for f in node._fields]
    )


def fill_first_hole(node: Node, replacement: Node) -> Node:
    """Replace the left-most hole of ``node`` with ``replacement``."""

    site = first_hole(node)
    if site is None:
        raise ValueError("expression has no holes")
    return replace_at(node, site.path, replacement)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

NIL = NilLit()
TRUE = BoolLit(True)
FALSE = BoolLit(False)


def seq(*exprs: Node) -> Node:
    """Right-nest a sequence of expressions; a single expression is returned
    unchanged."""

    if not exprs:
        raise ValueError("seq() requires at least one expression")
    result = exprs[-1]
    for e in reversed(exprs[:-1]):
        result = Seq(e, result)
    return result


def call(receiver: Node, name: str, *args: Node) -> MethodCall:
    return MethodCall(receiver, name, tuple(args))


def hash_lit(**entries: Node) -> HashLit:
    return HashLit(tuple(entries.items()))


def fresh_name(prefix: str, taken: Sequence[str]) -> str:
    """Generate ``t0``, ``t1``, ... style names avoiding ``taken``."""

    taken_set = set(taken)
    i = 0
    while f"{prefix}{i}" in taken_set:
        i += 1
    return f"{prefix}{i}"


def bound_names(node: Node) -> List[str]:
    """All names bound by ``let`` anywhere in the expression."""

    return [n.var for n in walk(node) if isinstance(n, Let)]
