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

Linearity discipline: positive variables may be shared, arrow variables are
linear. Binary typing rules require the free arrow variables of their premises
to be disjoint, and a let binding an arrow variable requires that variable free
in its body.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Container, Iterable, Iterator

import numpy as np

from .errors import (
    ApplicationMismatch,
    ArrowSharing,
    InconsistentVariableTypes,
    InvalidPattern,
    NonPositiveLamParam,
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
    """Concrete syntax for a type, reparsable by the frontend."""
    if isinstance(t, Bool):
        return "Bool"
    if isinstance(t, Tensor):
        return f"({type_str(t.left)} * {type_str(t.right)})"
    if isinstance(t, Arrow):
        return f"({type_str(t.input)} -o {type_str(t.result)})"
    raise TypeError(f"not a type: {t!r}")


class Variable(_Interned):
    """A named variable; its type must be positive or an arrow."""

    __slots__ = ("name", "ty", "is_arrow")
    _fields = ("name", "ty")

    def __new__(cls, name: str, ty: Ty) -> "Variable":
        key = (name, ty)
        v = _TABLE.get(key)
        if v is None:
            is_arrow = isinstance(ty, Arrow)
            if not (ty.is_positive or is_arrow):
                raise TypeCheckError(f"variable {name} has mixed-tensor type {type_str(ty)}")
            v = _store(key, object.__new__(cls), name=name, ty=ty, is_arrow=is_arrow)
        return v


# ---------------------------------------------------------------- patterns


class Pattern:
    """A tree of pairwise-distinct variables."""


@dataclass(frozen=True)
class PLeaf(Pattern):
    var: Variable


@dataclass(frozen=True)
class PPair(Pattern):
    left: Pattern
    right: Pattern

    def __post_init__(self) -> None:
        lnames = {v.name for v in pattern_vars(self.left)}
        rnames = {v.name for v in pattern_vars(self.right)}
        if lnames & rnames:
            raise InvalidPattern(f"pattern repeats {sorted(lnames & rnames)}")


def pattern_vars(p: Pattern) -> tuple[Variable, ...]:
    """Pattern variables, left to right."""
    if isinstance(p, PLeaf):
        return (p.var,)
    assert isinstance(p, PPair)
    return pattern_vars(p.left) + pattern_vars(p.right)


def pattern_fv(p: Pattern) -> frozenset[Variable]:
    return frozenset(pattern_vars(p))


def pattern_type(p: Pattern) -> Ty:
    """Type of a pattern; rejects arrow variables in pair-left position."""
    if isinstance(p, PLeaf):
        return p.var.ty
    assert isinstance(p, PPair)
    lt = pattern_type(p.left)
    if not lt.is_positive:
        raise InvalidPattern("arrow variable must be rightmost in a pattern")
    return Tensor(lt, pattern_type(p.right))


def pattern_split(p: Pattern) -> tuple[Variable | None, Pattern | None]:
    """Split off the arrow variable: returns (arrow or None, positive residual or None)."""
    arrows = [v for v in pattern_vars(p) if v.is_arrow]
    if not arrows:
        return None, p
    if len(arrows) > 1:
        raise InvalidPattern("pattern holds more than one arrow variable")
    return arrows[0], pattern_remove(p, arrows[0])


def pattern_remove(p: Pattern, v: Variable) -> Pattern | None:
    """Remove one variable, collapsing emptied pairs; None when nothing remains."""
    if isinstance(p, PLeaf):
        return None if p.var == v else p
    assert isinstance(p, PPair)
    if v in pattern_fv(p.left):
        left = pattern_remove(p.left, v)
        return p.right if left is None else PPair(left, p.right)
    if v in pattern_fv(p.right):
        right = pattern_remove(p.right, v)
        return p.left if right is None else PPair(p.left, right)
    return p


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
against one, and the routes' answers against each other."""


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
        for s in self.slots:
            if not s.is_positive:
                raise TypeCheckError(f"matrix {self.name}: slot {type_str(s)} not positive")
        if not self.out.is_positive:
            raise TypeCheckError(f"matrix {self.name}: output {type_str(self.out)} not positive")
        rows = 1
        for s in self.slots:
            rows *= web_size(s)
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (rows, web_size(self.out)):
            raise TypeCheckError(
                f"matrix {self.name}: table shape {arr.shape} != ({rows}, {web_size(self.out)})"
            )
        if not np.isfinite(arr).all():
            raise TypeCheckError(f"matrix {self.name}: non-finite entry")
        if (arr < 0).any():
            raise TypeCheckError(f"matrix {self.name}: negative entry")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        with np.errstate(over="ignore"):  # a row summing past 1e308 is not stochastic
            sums = arr.sum(axis=1)
        object.__setattr__(self, "stochastic", bool(np.abs(sums - 1.0).max() <= TOL))


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
    if isinstance(p, PLeaf):
        return Var(p.var)
    assert isinstance(p, PPair)
    return Pair(pattern_to_expr(p.left), pattern_to_expr(p.right))


@dataclass(frozen=True)
class LetTerm:
    """A chain of definitions ending in an output pattern.

    `_typings` caches the typings of all its suffixes, the output alone first
    (see `let_typings`), and `_names` its name census, every variable name it
    mentions. Both are set together, once the whole term has typechecked, or
    not at all."""

    defs: tuple[tuple[Pattern, Expr], ...]
    output: Pattern

    _typings = None
    _names = None

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


def pattern_size(p: Pattern) -> int:
    return len(pattern_vars(p))


def size(t: Term) -> int:
    """Syntactic size: one per variable occurrence, one per application head.
    The walk keeps an explicit stack, so nesting depth is not bounded by
    Python's recursion limit."""
    total = 0
    stack = [t]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            total += 1
        elif isinstance(e, Pair):
            stack += (e.fst, e.snd)
        elif isinstance(e, Let):
            total += pattern_size(e.binder)
            stack += (e.bound, e.body)
        elif isinstance(e, MatApp):
            total += 1 + len(e.args)
        elif isinstance(e, ArrowApp):
            total += 1 + pattern_size(e.args)
        elif isinstance(e, Lam):
            total += pattern_size(e.param)
            stack.append(e.body)
        elif isinstance(e, LetTerm):
            total += pattern_size(e.output)
            for binder, bound in e.defs:
                total += pattern_size(binder)
                stack.append(bound)
        else:
            raise TypeError(f"not a term: {e!r}")
    return total


# ---------------------------------------------------------------- occurrences


def occurrences(t: Term) -> Iterator[Variable | StochasticMatrix]:
    """Every variable occurrence, binders included, and every matrix
    occurrence, in source order: a let or definition yields its binder, then
    its bound expression, then its body. The walk keeps an explicit stack, so
    nesting depth is not bounded by Python's recursion limit."""
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
    on the node (`Expr._typing`)."""
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
    elif isinstance(e, Pair):
        t1, fv1, fa1 = _check(e.fst)
        t2, fv2, fa2 = _check(e.snd)
        if not t1.is_positive:
            raise TypeCheckError("first pair component must have positive type")
        if fa1 & fa2:
            raise ArrowSharing(f"arrow variables shared across a pair: {sorted(v.name for v in fa1 & fa2)}")
        typing = Tensor(t1, t2), fv1 | fv2, fa1 | fa2
    elif isinstance(e, Lam):
        pt = pattern_type(e.param)
        if not pt.is_positive:
            raise NonPositiveLamParam("lambda parameter pattern must be positive")
        bt, fv, fa = _check(e.body)
        pv = pattern_fv(e.param)
        typing = Arrow(pt, bt), fv - pv, fa - pv
    elif isinstance(e, Let):
        typing = _bind(e.binder, _check(e.bound), _check(e.body))
    else:
        raise TypeError(f"not an expression: {e!r}")
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


def replace_defs(
    t: LetTerm,
    position: int,
    width: int,
    mid: tuple[tuple[Pattern, Expr], ...],
    minted: str | None = None,
) -> LetTerm:
    """`t` with definitions position .. position + width - 1 replaced by `mid`,
    typed at the cost of `mid`'s new nodes.

    Precondition: every name `mid` mentions is one the replaced definitions
    mention, or `minted`, a name fresh for `t`'s census. So the new term's
    names are `t`'s and `minted`, each still at one type: it needs no second
    consistency pass, and its census is `t`'s plus `minted`.

    `_bind` folds over `mid` from the typing of the unchanged tail, raising
    the typing errors of the new definitions. When the typing at `position`
    comes out unchanged, so do those above it, which are functions of it, and
    the new term caches all its typings; otherwise it caches none."""
    typings = let_typings(t)
    n = len(t.defs)
    end = position + width
    new = LetTerm(t.defs[:position] + mid + t.defs[end:], t.output)
    kept = typings[: n - end + 1]
    for binder, bound in reversed(mid):
        kept.append(_bind(binder, _check(bound), kept[-1]))
    if kept[-1] == typings[n - position]:
        object.__setattr__(new, "_typings", kept + typings[n - position + 1 :])
        object.__setattr__(new, "_names", t._names if minted is None else t._names | {minted})
    return new


# ---------------------------------------------------------------- renaming


def fresh_name(base: str, used: Container[str]) -> str:
    """`base__k` with the smallest k whose name is not in `used`."""
    k = 1
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
    if isinstance(p, PLeaf):
        return PLeaf(env.get(p.var.name, p.var))
    assert isinstance(p, PPair)
    return PPair(_map_pattern(p.left, env), _map_pattern(p.right, env))


# ---------------------------------------------------------------- alpha equivalence


_EXPR, _BIND, _USE, _UNDO = range(4)
"""The jobs of `alpha_eq`'s walk: compare two expressions; bind two binder
patterns to each other; match two patterns of used variables; and close a
scope, undoing the bindings made since it opened."""


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables; a
    let-term never equals a plain expression.

    One walk with an explicit stack of jobs, so nesting depth is not bounded
    by Python's recursion limit. The name maps `l2r` and `r2l` pair the
    binders in scope; a closing scope restores them from an undo log, so a
    binder costs one log entry rather than a copy of the maps."""
    if isinstance(a, LetTerm) != isinstance(b, LetTerm):
        return False
    l2r: dict[str, str] = {}
    r2l: dict[str, str] = {}
    log: list[tuple[dict[str, str], str, str | None]] = []
    stack: list[tuple[int, object, object]] = []
    if isinstance(a, LetTerm):
        if len(a.defs) != len(b.defs):
            return False
        # Each binder scopes over everything after it, so the definitions
        # open no scope of their own.
        stack.append((_USE, a.output, b.output))
        for (pa, ea), (pb, eb) in zip(reversed(a.defs), reversed(b.defs)):
            stack += ((_BIND, pa, pb), (_EXPR, ea, eb))
    else:
        stack.append((_EXPR, a, b))

    def match(x: Variable, y: Variable) -> bool:
        if x.ty is not y.ty:
            return False
        if x.name in l2r or y.name in r2l:
            return l2r.get(x.name) == y.name and r2l.get(y.name) == x.name
        return x.name == y.name

    while stack:
        job, x, y = stack.pop()
        if job == _UNDO:
            while len(log) > x:
                names, name, old = log.pop()
                if old is None:
                    del names[name]
                else:
                    names[name] = old
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, PLeaf):
            if job == _USE:
                if not match(x.var, y.var):
                    return False
            elif x.var.ty is not y.var.ty:
                return False
            else:
                xn, yn = x.var.name, y.var.name
                log += ((l2r, xn, l2r.get(xn)), (r2l, yn, r2l.get(yn)))
                l2r[xn], r2l[yn] = yn, xn
        elif isinstance(x, PPair):
            stack += ((job, x.right, y.right), (job, x.left, y.left))
        elif isinstance(x, Var):
            if not match(x.var, y.var):
                return False
        elif isinstance(x, MatApp):
            if not (
                x.matrix.name == y.matrix.name
                and len(x.args) == len(y.args)
                and all(match(u, w) for u, w in zip(x.args, y.args))
            ):
                return False
        elif isinstance(x, ArrowApp):
            if not match(x.fn, y.fn):
                return False
            stack.append((_USE, x.args, y.args))
        elif isinstance(x, Pair):
            stack += ((_EXPR, x.snd, y.snd), (_EXPR, x.fst, y.fst))
        elif isinstance(x, Lam):
            stack += ((_UNDO, len(log), None), (_EXPR, x.body, y.body), (_BIND, x.param, y.param))
        elif isinstance(x, Let):
            stack += (
                (_UNDO, len(log), None),
                (_EXPR, x.body, y.body),
                (_BIND, x.binder, y.binder),
                (_EXPR, x.bound, y.bound),
            )
        else:
            return False
    return True
