"""Abstract syntax for the linear let-calculus.

Types split into positive types (Bool and tensors of positives), arrow types
(positive input, arbitrary result), and mixed tensors (positive left, arbitrary
right); a tensor is positive exactly when its right component is. Variables
carry their type inline, Church-style, so a term determines its typing without
a context; a global consistency pass rejects one name used at two types.

Types and variables are hash-consed: there is one object per type and one per
(name, type), kept in a module table, so they are compared with `is` and
hashed by identity, in C. A type stores its web size and positivity when it
is built. They are immutable, and copies and unpickling return the same
object.

Terms are expressions: variables, matrix applications M(x...), arrow-variable
applications f x..., pairs, lambdas over positive patterns, and lets binding a
pattern. A let-term is the special shape "p1 = e1; ...; pn = en in out" used by
factor extraction and rewriting: a flat tuple of definitions, which typing,
scoping and every traversal walk directly, never as a nested let chain.
Its typings also give each factor's variable set (`factor_scopes`), which
ordering and factor extraction share.

Linearity discipline: positive variables may be shared, arrow variables are
linear. Binary typing rules require the free arrow variables of their premises
to be disjoint, and a let binding an arrow variable requires that variable free
in its body.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from itertools import islice
from types import GeneratorType
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ApplicationMismatch,
    ArrowSharing,
    InconsistentVariableTypes,
    InvalidPattern,
    NonPositiveLamParam,
    NotCanonicalized,
    PatternTypeMismatch,
    TypeCheckError,
    UnusedArrowBinder,
)


# ---------------------------------------------------------------- types and variables


_TABLE: dict[tuple, "Ty | Variable"] = {}
"""Every type and variable built so far, keyed by its class and children (a
variable by its name and type). The children are themselves entries, so a key
hashes and compares by identity, in C."""


class _Interned:
    """A hash-consed node: a constructor returns the one object with its
    fields, so `==` and `hash` are the identity's (object's own). Fields
    cannot be assigned; copies and unpickling go through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _store(key: tuple, node: _Interned, **fields) -> _Interned:
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    _TABLE[key] = node
    return node


class Ty(_Interned):
    """Base class of types; each stores its web size and positivity."""

    __slots__ = ("is_positive", "_web_size")


class Bool(Ty):
    __slots__ = ()

    def __new__(cls) -> "Bool":
        return BOOL


BOOL = _store((Bool,), object.__new__(Bool), is_positive=True, _web_size=2)


class Tensor(Ty):
    """Tensor with a positive left component; positive iff the right one is."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Ty, right: Ty) -> "Tensor":
        key = (cls, left, right)
        t = _TABLE.get(key)
        if t is None:
            if not left.is_positive:
                raise TypeCheckError("tensor left component must be positive")
            t = _store(
                key, object.__new__(cls), left=left, right=right,
                is_positive=right.is_positive, _web_size=left._web_size * right._web_size,
            )
        return t


class Arrow(Ty):
    """Linear function type with a positive input."""

    __slots__ = ("input", "result")
    _fields = ("input", "result")

    def __new__(cls, input: Ty, result: Ty) -> "Arrow":
        key = (cls, input, result)
        t = _TABLE.get(key)
        if t is None:
            if not input.is_positive:
                raise TypeCheckError("arrow input type must be positive")
            t = _store(
                key, object.__new__(cls), input=input, result=result,
                is_positive=False, _web_size=input._web_size * result._web_size,
            )
        return t


def web_size(t: Ty) -> int:
    """Number of web elements of a type: 2 for Bool, product for both pairs
    and arrows. The type stores it when it is built."""
    if isinstance(t, Ty):
        return t._web_size
    raise TypeError(f"not a type: {t!r}")


def type_str(t: Ty) -> str:
    """Concrete syntax for a type, reparsable by the frontend. Right
    components are read in a loop; only left components recurse."""
    opened = []
    while isinstance(t, (Tensor, Arrow)):
        op, left, t = ("*", t.left, t.right) if isinstance(t, Tensor) else ("-o", t.input, t.result)
        opened.append(f"({type_str(left)} {op} ")
    if not isinstance(t, Bool):
        raise TypeError(f"not a type: {t!r}")
    return "".join(opened) + "Bool" + ")" * len(opened)


class Variable(_Interned):
    """A named variable; its type must be positive or an arrow. `web` is its web size."""

    __slots__ = ("name", "ty", "is_arrow", "web")
    _fields = ("name", "ty")

    def __new__(cls, name: str, ty: Ty) -> "Variable":
        key = (name, ty)
        v = _TABLE.get(key)
        if v is None:
            is_arrow = isinstance(ty, Arrow)
            if not (ty.is_positive or is_arrow):
                raise TypeCheckError(f"variable {name} has mixed-tensor type {type_str(ty)}")
            v = _store(key, object.__new__(cls), name=name, ty=ty, is_arrow=is_arrow, web=ty._web_size)
        return v


# ---------------------------------------------------------------- patterns


class Pattern:
    """A tree of pairwise-distinct variables."""


@dataclass(frozen=True)
class PLeaf(Pattern):
    var: Variable

    _width = 1

    @property
    def _names(self) -> dict[str, int]:
        return {self.var.name: 0}


@dataclass(frozen=True, eq=False)
class PPair(Pattern):
    """A pair of patterns with no name in common.

    `_names` maps its leaves' names to their places in the dict, and
    `_width` is their count: the pair's names are the entries placed below
    `_width`. A pair takes over its wider part's dict and adds the other
    part's names, so that building a pattern costs about one dict entry per
    leaf, not one per leaf and level; when that dict has already grown past
    the part's own names, it copies them first. `==` (`_paired`) and `hash`
    are structural and read the right spine in a loop."""

    left: Pattern
    right: Pattern

    def __eq__(self, other: object) -> bool:
        pairs = _paired(self, other) if isinstance(other, PPair) else None
        return pairs is not None and all(x is y for x, y in pairs)

    def __hash__(self) -> int:
        return hash(pattern_vars(self))

    def __post_init__(self) -> None:
        small, large = self.left, self.right
        if small._width > large._width:
            small, large = large, small
        n = large._width
        names = large._names
        if len(names) != n:
            names = dict(islice(names.items(), n))
        added = (small.var.name,) if isinstance(small, PLeaf) else tuple(islice(small._names, small._width))
        repeated = names.keys() & added
        if repeated:
            raise InvalidPattern(f"pattern repeats {sorted(repeated)}")
        names.update(zip(added, range(n, n + len(added))))
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_width", len(names))


def _holds(p: Pattern, name: str) -> bool:
    """Whether a leaf of `p` has the name, in constant time."""
    return p._names.get(name, p._width) < p._width


def pattern_vars(p: Pattern) -> tuple[Variable, ...]:
    """Pattern variables, left to right. Like the other pattern helpers, it
    reads the right spine in a loop and recurses only into left parts."""
    if isinstance(p, PLeaf):
        return (p.var,)
    out: list[Variable] = []
    while isinstance(p, PPair):
        out += pattern_vars(p.left)
        p = p.right
    return (*out, p.var)


def pattern_fv(p: Pattern) -> frozenset[Variable]:
    return frozenset(pattern_vars(p))


def pattern_type(p: Pattern) -> Ty:
    """Type of a pattern; rejects arrow variables in pair-left position."""
    lefts: list[Ty] = []
    while isinstance(p, PPair):
        lefts.append(pattern_type(p.left))
        if not lefts[-1].is_positive:
            raise InvalidPattern("arrow variable must be rightmost in a pattern")
        p = p.right
    t = p.var.ty
    for lt in reversed(lefts):
        t = Tensor(lt, t)
    return t


def pattern_split(p: Pattern) -> tuple[Variable | None, Pattern | None]:
    """Split off the arrow variable: returns (arrow or None, positive residual or None)."""
    arrows = [v for v in pattern_vars(p) if v.is_arrow]
    if not arrows:
        return None, p
    if len(arrows) > 1:
        raise InvalidPattern("pattern holds more than one arrow variable")
    return arrows[0], pattern_remove(p, arrows[0])


def pattern_remove(p: Pattern, v: Variable) -> Pattern | None:
    """Remove one variable, collapsing emptied pairs; None when nothing
    remains. It walks down to the variable's leaf in a loop and rebuilds the
    pairs on the way back up."""
    path: list[tuple[PPair, bool]] = []  # each pair passed, and whether v is left
    q = p
    while isinstance(q, PPair):
        left = _holds(q.left, v.name)
        if not (left or _holds(q.right, v.name)):
            return p
        path.append((q, left))
        q = q.left if left else q.right
    if q.var is not v:
        return p
    out: Pattern | None = None
    for pair, left in reversed(path):
        rest = pair.right if left else pair.left
        if out is None:
            out = rest
        else:
            out = PPair(out, rest) if left else PPair(rest, out)
    return out


def nest_vars(vs: Iterable[Variable]) -> Pattern:
    """Right-nested pattern over the given variables (must be nonempty)."""
    vs = list(vs)
    if not vs:
        raise InvalidPattern("cannot build an empty pattern")
    p: Pattern = PLeaf(vs[-1])
    for v in reversed(vs[:-1]):
        p = PPair(PLeaf(v), p)
    return p


# ---------------------------------------------------------------- stochastic matrices


TOL = 1e-9
"""The one tolerance of every numeric comparison: a stochastic row's sum
against one, absolutely, and the routes' answers and tables against each
other at their scale (`within_tol`)."""


@np.errstate(invalid="ignore")  # inf - inf is NaN, which fails below
def within_tol(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have one shape and max |a - b| <= TOL * max(1,
    max |a|, max |b|), the scale worked out only when the absolute bound
    fails; a NaN or inf fails. The ufunc's reductions: `np.max`'s Python
    layer weighs on small tables."""
    if a.shape != b.shape:
        return False
    diff = np.maximum.reduce(np.abs(a - b), axis=None, initial=0.0)
    return bool(diff <= TOL or diff <= TOL * np.maximum.reduce(np.abs([a, b]), axis=None) < np.inf)


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A named nonnegative table from a product of positive slots to a positive type.

    Rows enumerate the joint slot web left-major; columns enumerate the output
    web. `stochastic` is computed from the entries: every row sums to one
    within `TOL`.
    """

    name: str
    slots: tuple[Ty, ...]
    out: Ty
    entries: np.ndarray
    stochastic: bool = field(init=False)

    def __post_init__(self) -> None:
        rows = 1
        for s in self.slots:
            if not s.is_positive:
                raise TypeCheckError(f"matrix {self.name}: slot {type_str(s)} not positive")
            rows *= web_size(s)
        if not self.out.is_positive:
            raise TypeCheckError(f"matrix {self.name}: output {type_str(self.out)} not positive")
        arr = np.asarray(self.entries, dtype=float)
        if arr is self.entries and arr.flags.writeable:
            arr = arr.copy()  # freeze a copy, not the caller's array
        width = web_size(self.out)
        if arr.shape != (rows, width):
            raise TypeCheckError(f"matrix {self.name}: table shape {arr.shape} != ({rows}, {width})")
        # The ufuncs' own reductions, without the Python layer of the ndarray
        # methods, which weighs on a table of a few entries.
        flat = arr.reshape(-1)
        lo, hi = np.minimum.reduce(flat), np.maximum.reduce(flat)
        if not (lo >= 0.0 and hi < np.inf):  # NaN fails both
            if not np.isfinite(arr).all():
                raise TypeCheckError(f"matrix {self.name}: non-finite entry")
            raise TypeCheckError(f"matrix {self.name}: negative entry")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        if hi < 1e300 / width:  # no row can sum past the largest float
            sums = np.add.reduce(arr, axis=1).tolist()
        else:
            with np.errstate(over="ignore"):  # a row summing past 1e308 is not stochastic
                sums = np.add.reduce(arr, axis=1).tolist()
        # abs(s - 1) is largest at the smallest or at the largest row sum.
        object.__setattr__(self, "stochastic", max(abs(min(sums) - 1.0), abs(max(sums) - 1.0)) <= TOL)


# ---------------------------------------------------------------- expressions


class Expr:
    """Base class of expressions.

    `_typing` is the node's (type, free variables, free arrow variables),
    stored by `_check` the first time it succeeds. Nodes are immutable and
    their typing needs no context, so a term built on top of checked nodes
    costs only its new nodes to type."""

    _typing = None


@dataclass(frozen=True)
class Var(Expr):
    var: Variable


@dataclass(frozen=True)
class MatApp(Expr):
    matrix: StochasticMatrix
    args: tuple[Variable, ...]


@dataclass(frozen=True)
class ArrowApp(Expr):
    fn: Variable
    args: Pattern


@dataclass(frozen=True)
class Pair(Expr):
    fst: Expr
    snd: Expr


@dataclass(frozen=True)
class Lam(Expr):
    param: Pattern
    body: Expr


@dataclass(frozen=True)
class Let(Expr):
    binder: Pattern
    bound: Expr
    body: Expr


def pattern_to_expr(p: Pattern) -> Expr:
    lefts: list[Expr] = []
    while isinstance(p, PPair):
        lefts.append(pattern_to_expr(p.left))
        p = p.right
    e: Expr = Var(p.var)
    for left in reversed(lefts):
        e = Pair(left, e)
    return e


@dataclass(frozen=True)
class LetTerm:
    """A chain of definitions ending in an output pattern.

    `_typings` caches the typings of all its suffixes, the output alone first
    (see `let_typings`), and `_names` its name census, every variable name it
    mentions. Both are set together, once the whole term has typechecked, or
    not at all. `_minted` is the k of the last `g__k` minted into the census
    on the way to this term (`fresh_name`), 0 when none is known: every
    `g__j` with j <= k is in the census. `_scopes` caches `factor_scopes`,
    once it has succeeded, and `_size` its `size`, once computed."""

    defs: tuple[tuple[Pattern, Expr], ...]
    output: Pattern

    _typings = None
    _names = None
    _minted = 0
    _scopes = None
    _size = None

    @property
    def is_positive(self) -> bool:
        return all(not v.is_arrow for v in pattern_vars(self.output))

    def defined_vars(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for binder, _ in self.defs:
            out.update(pattern_vars(binder))
        return frozenset(out)


Term = Expr | LetTerm


# ---------------------------------------------------------------- free variables


def free_vars(t: Term) -> frozenset[Variable]:
    """Free variables, read off the term's typing (`let_typings` for a
    let-term, `_check` for an expression); raises the TypeCheckError of an
    ill-typed term."""
    if isinstance(t, LetTerm):
        return let_typings(t)[-1][1]
    return _check(t)[1]


# ---------------------------------------------------------------- size


def size(t: Term) -> int:
    """Syntactic size: one per variable occurrence, binders and arrow heads
    included, and one per matrix application; the count of `occurrences`.
    A let-term keeps its size (`LetTerm._size`)."""
    if isinstance(t, LetTerm) and t._size is None:
        object.__setattr__(t, "_size", sum(1 for _ in occurrences(t)))
    return t._size if isinstance(t, LetTerm) else sum(1 for _ in occurrences(t))


# ---------------------------------------------------------------- walks


def walk(root, visit: Callable):
    """`visit(root)`, with every generator it makes driven to its end.

    A visit returns a node's result, or a generator that yields the child
    nodes it needs, is sent each child's result (itself `visit(child)`), and
    returns the node's result. The open generators wait on one explicit
    stack, so nesting depth is not bounded by Python's recursion limit."""
    stack, result = [], visit(root)
    while True:
        if type(result) is GeneratorType:
            stack.append(result)
            result = None
        elif not stack:
            return result
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            result = visit(child)


def occurrences(t: Term) -> Iterator[Variable | StochasticMatrix]:
    """Every variable occurrence, binders included, and every matrix
    occurrence, in source order: a let or definition yields its binder, then
    its bound expression, then its body. A lazy stream rather than a fold, so
    it keeps its own explicit stack, not `walk`'s: nesting depth is not
    bounded by Python's recursion limit."""
    stack = [t]
    while stack:
        e = stack.pop()
        if isinstance(e, (PLeaf, Var)):
            yield e.var
        elif isinstance(e, PPair):
            stack += (e.right, e.left)
        elif isinstance(e, MatApp):
            yield e.matrix
            yield from e.args
        elif isinstance(e, Pair):
            stack += (e.snd, e.fst)
        elif isinstance(e, Let):
            stack += (e.body, e.bound, e.binder)
        elif isinstance(e, ArrowApp):
            yield e.fn
            stack.append(e.args)
        elif isinstance(e, Lam):
            stack += (e.body, e.param)
        elif isinstance(e, LetTerm):
            stack.append(e.output)
            for binder, bound in reversed(e.defs):
                stack += (bound, binder)
        else:
            raise TypeError(f"not a term: {e!r}")


def _collect_types(t: Term) -> frozenset[str]:
    """Reject one variable name used at two types; returns the names used."""
    seen: dict[str, Ty] = {}
    for v in occurrences(t):
        if isinstance(v, Variable):
            old = seen.setdefault(v.name, v.ty)
            if old is not v.ty:
                raise InconsistentVariableTypes(
                    f"variable {v.name} used at {type_str(old)} and {type_str(v.ty)}"
                )
    return frozenset(seen)


# ---------------------------------------------------------------- type checking


Typing = tuple[Ty, frozenset[Variable], frozenset[Variable]]


def _check(e: Expr) -> Typing:
    """Returns (type, free variables, free arrow variables), and keeps them
    on the node and each subexpression (`Expr._typing`), in one `walk`."""
    return getattr(e, "_typing", None) or walk(e, _typing)


def _typing(e: Expr):
    """`_check`'s visit: a typing, or a generator typing a pair, lambda or let."""
    typing = getattr(e, "_typing", None)
    if typing is not None:
        return typing
    if isinstance(e, Var):
        fv = frozenset((e.var,))
        typing = e.var.ty, fv, (fv if e.var.is_arrow else frozenset())
    elif isinstance(e, MatApp):
        if len(set(e.args)) != len(e.args):
            raise InvalidPattern(f"matrix {e.matrix.name} applied to repeated variables")
        if len(e.args) != len(e.matrix.slots):
            raise ApplicationMismatch(
                f"matrix {e.matrix.name} expects {len(e.matrix.slots)} arguments, got {len(e.args)}"
            )
        for v, s in zip(e.args, e.matrix.slots):
            if v.ty is not s:
                raise ApplicationMismatch(
                    f"matrix {e.matrix.name}: argument {v.name} has type "
                    f"{type_str(v.ty)}, slot wants {type_str(s)}"
                )
        typing = e.matrix.out, frozenset(e.args), frozenset()
    elif isinstance(e, ArrowApp):
        if not e.fn.is_arrow:
            raise ApplicationMismatch(f"{e.fn.name} applied but not arrow-typed")
        at = pattern_type(e.args)
        if not at.is_positive:
            raise ApplicationMismatch("application argument pattern must be positive")
        assert isinstance(e.fn.ty, Arrow)
        if at is not e.fn.ty.input:
            raise ApplicationMismatch(
                f"{e.fn.name} wants {type_str(e.fn.ty.input)}, argument has {type_str(at)}"
            )
        typing = e.fn.ty.result, pattern_fv(e.args) | {e.fn}, frozenset((e.fn,))
    elif isinstance(e, (Pair, Lam, Let)):
        return _typed(e)
    else:
        raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_typing", typing)
    return typing


def _typed(e: Pair | Lam | Let):
    if isinstance(e, Pair):
        t1, fv1, fa1 = yield e.fst
        t2, fv2, fa2 = yield e.snd
        if not t1.is_positive:
            raise TypeCheckError("first pair component must have positive type")
        if fa1 & fa2:
            raise ArrowSharing(f"arrow variables shared across a pair: {sorted(v.name for v in fa1 & fa2)}")
        typing = Tensor(t1, t2), fv1 | fv2, fa1 | fa2
    elif isinstance(e, Lam):
        pt = pattern_type(e.param)
        if not pt.is_positive:
            raise NonPositiveLamParam("lambda parameter pattern must be positive")
        bt, fv, fa = yield e.body
        pv = pattern_fv(e.param)
        typing = Arrow(pt, bt), fv - pv, fa - pv
    else:
        typing = _bind(e.binder, (yield e.bound), (yield e.body))
    object.__setattr__(e, "_typing", typing)
    return typing


def _bind(binder: Pattern, bound: Typing, body: Typing) -> Typing:
    """The typing of `let binder = e in k` from the typings of e and k."""
    bt, bfv, bfa = bound
    pt = pattern_type(binder)
    if pt is not bt:
        raise PatternTypeMismatch(
            f"binder has type {type_str(pt)}, bound expression has {type_str(bt)}"
        )
    yt, yfv, yfa = body
    if bfa & yfa:
        raise ArrowSharing(
            f"arrow variables shared across a let: {sorted(v.name for v in bfa & yfa)}"
        )
    pv = pattern_fv(binder)
    for v in pv:
        if v.is_arrow and v not in yfa:
            raise UnusedArrowBinder(f"bound arrow variable {v.name} unused in body")
    return yt, bfv | (yfv - pv), bfa | (yfa - pv)


def typecheck(t: Term) -> Ty:
    """Type of a term; raises a TypeCheckError subclass on failure."""
    if not isinstance(t, LetTerm):
        _collect_types(t)
        return _check(t)[0]
    return let_typings(t)[-1][0]


def let_typings(t: LetTerm) -> list[Typing]:
    """The typings of all suffixes of `t`, the output alone first: entry
    len(t.defs) - i is that of definitions i.. and the output. The first call
    runs the consistency pass and folds the definitions from the back, one
    `_bind` each, then caches the typings and the name census together; when
    either raises, nothing is cached."""
    typings = t._typings
    if typings is None:
        names = _collect_types(t)
        typings = [_check(pattern_to_expr(t.output))]
        for binder, bound in reversed(t.defs):
            typings.append(_bind(binder, _check(bound), typings[-1]))
        object.__setattr__(t, "_typings", typings)
        object.__setattr__(t, "_names", names)
    return typings


class Definitions:
    """A typed let-term's definitions as one mutable array, which
    `replace_defs` rewrites in place: `defs`, the suffix typings as
    `let_typings` lists them, the census `names` and `minted` as on
    `LetTerm`, and `edits`, those made since its owner last cleared them,
    each (position, old definitions, new ones, the name minted or None)."""

    def __init__(self, t: LetTerm):
        self.typings = list(let_typings(t))
        self.defs, self.output, self.names, self.minted, self.edits = list(t.defs), t.output, t._names, t._minted, []

    def apply(self, edit: tuple) -> None:
        """Make an edit and log it, typing its new definitions by `_bind` on
        the tail's typing. When the typing at its position changes, so do
        those above it, and the whole array is typed again (`let_typings`)."""
        position, old, new, minted = edit
        at = len(self.defs) - position  # typings[at] is the suffix from `position`
        typings = [self.typings[at - len(old)]]
        for binder, bound in reversed(new):
            typings.append(_bind(binder, _check(bound), typings[-1]))
        same = typings[-1] == self.typings[at]
        self.defs[position : position + len(old)] = new
        self.typings[at - len(old) + 1 : at + 1] = typings[1:]
        if minted is not None:
            self.names, self.minted = self.names | {minted}, int(minted.rpartition("__")[2])
        self.edits.append(edit)
        if not same:
            self.typings = let_typings(LetTerm(tuple(self.defs), self.output))

    def term(self) -> LetTerm:
        """The let-term the array holds, with its typings and census cached."""
        t = LetTerm(tuple(self.defs), self.output)
        vars(t).update(_typings=self.typings[:], _names=self.names, _minted=self.minted)
        return t


def replace_defs(d: Definitions | LetTerm, position: int, width: int, mid: tuple, minted: str | None = None):
    """The definitions position .. position + width - 1 of the array `d`
    replaced by `mid` in place and typed at the cost of `mid`'s new nodes
    (`Definitions.apply`, which raises the typing errors of the new
    definitions), and `d`; for a let-term `d`, a new let-term.

    Precondition: every name `mid` mentions is one the replaced definitions
    mention, or `minted`, a name `base__k` from `fresh_name`, fresh for `d`'s
    census. So each name is still at one type, with no second consistency
    pass, and the census gains `minted`, with k as its `minted`."""
    if isinstance(d, LetTerm):
        return replace_defs(Definitions(d), position, width, mid, minted).term()
    d.apply((position, tuple(d.defs[position : position + width]), mid, minted))
    return d


# ---------------------------------------------------------------- factor scopes


def factor_scopes(t: LetTerm) -> list[tuple[frozenset[Variable], tuple[int, ...]]]:
    """The variable set of each factor of `t`, with the definitions folded
    into it, read off the typings alone, in `factors.factors_of`'s order. A
    definition's scope is its bound's free variables and its binder's; the
    output's variables make one more, of no definition. From the back, a
    definition binding an arrow the output does not mention folds into the
    one scope holding that arrow, by union less the arrow, and the result
    moves to the front. Raises `NotCanonicalized` when a binder variable is
    bound twice or shadows a free variable. The term keeps the result, which
    its callers share and do not change."""
    if t._scopes is not None:
        return t._scopes
    free = {v.name for v in let_typings(t)[-1][1]}
    binders = [pattern_vars(binder) for binder, _ in t.defs]
    seen: set[str] = set()
    for pv in binders:
        for v in pv:
            if v.name in seen:
                raise NotCanonicalized(f"binder variable {v.name} bound twice")
            if v.name in free:
                raise NotCanonicalized(f"binder variable {v.name} shadows a free variable")
            seen.add(v.name)
    object.__setattr__(t, "_scopes", fold_scopes(t.defs, pattern_fv(t.output)))
    return t._scopes


def fold_scopes(
    defs: Sequence[tuple[Pattern, Expr]], out: frozenset[Variable]
) -> list[tuple[frozenset[Variable], tuple[int, ...]]]:
    """`factor_scopes` of the definitions `defs` in order, typed, with
    output variables `out`, less the binder checks: also the scopes of a
    run of definitions that holds every consumer of an arrow it binds."""
    scopes = [(out, ())]  # the front last
    for i in range(len(defs) - 1, -1, -1):
        binder, bound = defs[i]
        pv = pattern_vars(binder)
        scope, folded = _check(bound)[1].union(pv), (i,)
        arrow = pv[-1]  # a binder's arrow is its last variable
        if arrow.is_arrow and arrow not in out:
            hit = [j for j, (held, _) in enumerate(scopes) if arrow in held]
            if len(hit) != 1:
                raise NotCanonicalized(f"arrow variable {arrow.name} consumed by {len(hit)} factors")
            held, more = scopes.pop(hit[0])
            scope, folded = (scope | held) - {arrow}, more + folded
        scopes.append((scope, folded))
    return scopes[::-1]


# ---------------------------------------------------------------- renaming


def fresh_name(base: str, used: Container[str], start: int = 1) -> str:
    """`base__k` with the smallest k from `start` on whose name is not in
    `used`: the smallest of all when every `base__j` below `start` is used."""
    k = start
    while f"{base}__{k}" in used:
        k += 1
    return f"{base}__{k}"


class FreshNames:
    """Deterministic fresh-name supply: base__k with the smallest free k."""

    def __init__(self, used: Iterable[str] = ()):  # noqa: D107
        self.used = set(used)

    def fresh(self, base: str) -> str:
        name = fresh_name(base, self.used)
        self.used.add(name)
        return name


def collect_names(t: Term) -> set[str]:
    """All variable names occurring in a term, free or bound."""
    return {v.name for v in occurrences(t) if isinstance(v, Variable)}


def collect_matrices(t: Term) -> list[StochasticMatrix]:
    """All distinct matrices applied in a term, in first-use order."""
    seen: dict[str, StochasticMatrix] = {}
    for m in occurrences(t):
        if isinstance(m, StochasticMatrix):
            seen.setdefault(m.name, m)
    return list(seen.values())


def _map_pattern(p: Pattern, env: dict[str, Variable]) -> Pattern:
    """`p` with each leaf renamed by `env`; the right spine is read in a loop."""
    lefts: list[Pattern] = []
    while isinstance(p, PPair):
        lefts.append(_map_pattern(p.left, env))
        p = p.right
    out: Pattern = PLeaf(env.get(p.var.name, p.var))
    for left in reversed(lefts):
        out = PPair(left, out)
    return out


# ---------------------------------------------------------------- alpha equivalence


def _paired(p: Pattern, q: Pattern) -> list[tuple[Variable, Variable]] | None:
    """The variables of two patterns of one shape, paired left to right;
    None when the shapes differ."""
    pairs: list[tuple[Variable, Variable]] = []
    while isinstance(p, PPair) and isinstance(q, PPair):
        left = _paired(p.left, q.left)
        if left is None:
            return None
        pairs += left
        p, q = p.right, q.right
    if isinstance(p, PLeaf) and isinstance(q, PLeaf):
        return pairs + [(p.var, q.var)]
    return None


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables; a
    let-term never equals a plain expression.

    One `walk` over the pairs of nodes. The name maps `l2r` and `r2l` pair
    the binders in scope, and a free name maps to itself; a `Let` or `Lam`
    binds, walks its body and rolls the maps back from an undo log, so a
    binder costs one log entry rather than a copy of the maps."""
    l2r: dict[str, str] = {}
    r2l: dict[str, str] = {}
    log: list[tuple[str, str, str, str]] = []

    def match(x: Variable, y: Variable) -> bool:
        return x.ty is y.ty and l2r.get(x.name, x.name) == y.name and r2l.get(y.name, y.name) == x.name

    def use(p: Pattern, q: Pattern) -> bool:
        pairs = _paired(p, q)
        return pairs is not None and all(match(x, y) for x, y in pairs)

    def bind(p: Pattern, q: Pattern) -> bool:
        pairs = _paired(p, q)
        if pairs is None or any(x.ty is not y.ty for x, y in pairs):
            return False
        for x, y in pairs:
            log.append((x.name, l2r.get(x.name, x.name), y.name, r2l.get(y.name, y.name)))
            l2r[x.name], r2l[y.name] = y.name, x.name
        return True

    def inner(x, y):
        if isinstance(x, Pair):
            return (yield x.fst, y.fst) and (yield x.snd, y.snd)
        if isinstance(x, LetTerm):
            # Each binder scopes over everything after it, so the
            # definitions open no scope of their own.
            if len(x.defs) != len(y.defs):
                return False
            for (pa, ea), (pb, eb) in zip(x.defs, y.defs):
                if not ((yield ea, eb) and bind(pa, pb)):
                    return False
            return use(x.output, y.output)
        mark = len(log)
        if isinstance(x, Let):
            same = (yield x.bound, y.bound) and bind(x.binder, y.binder) and (yield x.body, y.body)
        else:
            same = bind(x.param, y.param) and (yield x.body, y.body)
        while len(log) > mark:
            x_name, x_old, y_name, y_old = log.pop()
            l2r[x_name], r2l[y_name] = x_old, y_old
        return same

    def visit(pair: tuple):
        x, y = pair
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            return match(x.var, y.var)
        if isinstance(x, MatApp):
            return (
                x.matrix.name == y.matrix.name
                and len(x.args) == len(y.args)
                and all(match(u, w) for u, w in zip(x.args, y.args))
            )
        if isinstance(x, ArrowApp):
            return match(x.fn, y.fn) and use(x.args, y.args)
        return isinstance(x, (Pair, Lam, Let, LetTerm)) and inner(x, y)

    return walk((a, b), visit)
