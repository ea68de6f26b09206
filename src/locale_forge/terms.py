"""Terms and relation schemas over generator domains.

Concrete terms are joins of finite meets of generators in canonical form.
Schematic terms add rational parameters with side conditions, and
Z-indexed families of meets (used by the shift operators on the symbolic
interval domains); grid instantiation turns them into concrete terms.  A
family without parameters is a clause of a schema with no parameters.

Generators are carried everywhere as their canonical string encodings; the
owning domain gives them meaning.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Union

from .rationals import ExtRat, rat, emax, emin
from .records import Record


class TermError(Exception):
    pass


# ---------------------------------------------------------------------------
# endpoint expressions (shared by patterns and schema conditions)


class EAtom(Record):
    """``param + k`` or ``const + k``, optionally plus the family index."""

    __slots__ = ("param", "const", "with_index", "offset")

    def __init__(
        self, param: Optional[str] = None, const: ExtRat = rat(0), with_index: bool = False, offset: int = 0
    ):
        init = object.__setattr__
        init(self, "param", param)
        init(self, "const", const)
        init(self, "with_index", with_index)
        init(self, "offset", offset)

    def free_params(self) -> frozenset[str]:
        return frozenset() if self.param is None else frozenset([self.param])

    def atoms(self) -> tuple["EAtom", ...]:
        return (self,)

    def evaluate(self, env: dict[str, ExtRat], n: Optional[int] = None) -> ExtRat:
        base = env[self.param] if self.param is not None else self.const
        if self.with_index:
            if n is None:
                raise TermError("family index not bound")
            return base + (self.offset + n)
        return base + self.offset if self.offset else base

    def compiled(self) -> Callable[[dict[str, ExtRat], Optional[int]], ExtRat]:
        """``evaluate`` as a function of ``(env, n)``; a parameter without
        shift reads the environment directly, and a constant without the
        index is its value."""
        if self.with_index or (self.param is not None and self.offset):
            return self.evaluate
        if self.param is not None:
            name = self.param
            return lambda env, n: env[name]
        value = self.const + self.offset
        return lambda env, n: value

    def __str__(self) -> str:
        base = self.param if self.param is not None else str(self.const)
        out = base
        if self.with_index:
            out += "+n"
        if self.offset > 0:
            out += f"+{self.offset}"
        elif self.offset < 0:
            out += f"-{-self.offset}"
        return out


class EOp(Record):
    """Pointwise max (``v``) or min (``^``) of two endpoint expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "EExpr", right: "EExpr"):
        init = object.__setattr__
        init(self, "op", op)  # "max" | "min"
        init(self, "left", left)
        init(self, "right", right)

    def free_params(self) -> frozenset[str]:
        return self.left.free_params() | self.right.free_params()

    def atoms(self) -> tuple[EAtom, ...]:
        return self.left.atoms() + self.right.atoms()

    def evaluate(self, env: dict[str, ExtRat], n: Optional[int] = None) -> ExtRat:
        l, r = self.left.evaluate(env, n), self.right.evaluate(env, n)
        return emax(l, r) if self.op == "max" else emin(l, r)

    def compiled(self) -> Callable[[dict[str, ExtRat], Optional[int]], ExtRat]:
        """``evaluate`` as a function of ``(env, n)``."""
        left, right = self.left.compiled(), self.right.compiled()
        pick = emax if self.op == "max" else emin
        return lambda env, n: pick(left(env, n), right(env, n))

    def __str__(self) -> str:
        def wrap(e: "EExpr") -> str:
            if isinstance(e, EOp) or (isinstance(e, EAtom) and (e.with_index or e.offset)):
                return f"({e})"
            return str(e)

        sym = "v" if self.op == "max" else "^"
        return f"{wrap(self.left)} {sym} {wrap(self.right)}"


EExpr = Union[EAtom, EOp]


def eparam(name: str, offset: int = 0, with_index: bool = False) -> EAtom:
    return EAtom(param=name, offset=offset, with_index=with_index)


def econst(x, offset: int = 0, with_index: bool = False) -> EAtom:
    return EAtom(const=rat(x), offset=offset, with_index=with_index)


# ---------------------------------------------------------------------------
# side conditions

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}
# the operators of a condition
COND_OPS = (*_COMPARE, "pairneq")


class Cond(Record):
    """A single comparison, or a pair-disequality ``(a,b) != (c,d)``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: tuple[EExpr, ...], right: tuple[EExpr, ...]):
        init = object.__setattr__
        init(self, "op", op)  # one of < <= = != > >= pairneq
        init(self, "left", left)
        init(self, "right", right)

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for e in self.left + self.right:
            out |= e.free_params()
        return out

    def holds(self, env: dict[str, ExtRat], n: Optional[int] = None) -> bool:
        return self.compiled()(env, n)

    def compiled(self) -> Callable[[dict[str, ExtRat], Optional[int]], bool]:
        """The condition as one function of ``(env, n)``, built once so that
        each test is a direct comparison of two ``ExtRat``s: the operator
        and the endpoint getters are bound here, and two parameters without
        shift are read straight from the environment.  A pair-disequality
        evaluates every endpoint before comparing, as its tuple form does."""
        if self.op == "pairneq":
            lefts = [e.compiled() for e in self.left]
            rights = [e.compiled() for e in self.right]
            return lambda env, n: [f(env, n) for f in lefts] != [f(env, n) for f in rights]
        compare = _COMPARE[self.op]
        l, r = self.left[0], self.right[0]
        if _plain_param(l) and _plain_param(r):
            a, b = l.param, r.param
            return lambda env, n: compare(env[a], env[b])
        left, right = l.compiled(), r.compiled()
        return lambda env, n: compare(left(env, n), right(env, n))

    def __str__(self) -> str:
        if self.op == "pairneq":
            l = ", ".join(str(e) for e in self.left)
            r = ", ".join(str(e) for e in self.right)
            return f"({l}) != ({r})"
        return f"{self.left[0]} {self.op} {self.right[0]}"


def _plain_param(e: EExpr) -> bool:
    return isinstance(e, EAtom) and e.param is not None and not e.offset and not e.with_index


def cmp_cond(left: EExpr, op: str, right: EExpr) -> Cond:
    return Cond(op, (left,), (right,))


# ---------------------------------------------------------------------------
# generator patterns


class GenPattern(Record):
    """A parametric generator, e.g. ``OI(p v (p'+n), q)``.

    ``ctor`` names the owning domain's constructor.
    """

    __slots__ = ("ctor", "args", "tags")

    def __init__(self, ctor: str, args: tuple[EExpr, ...] = (), tags: tuple[str, ...] = ()):
        init = object.__setattr__
        init(self, "ctor", ctor)
        init(self, "args", args)
        init(self, "tags", tags)

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for e in self.args:
            out |= e.free_params()
        return out

    def tagged(self, tag: str) -> "GenPattern":
        return GenPattern(self.ctor, self.args, (tag,) + self.tags)

    def __str__(self) -> str:
        core = f"{self.ctor}({', '.join(str(a) for a in self.args)})"
        for t in self.tags:
            core = f"{t} {core}"
        return core


# ---------------------------------------------------------------------------
# concrete terms


class Meet(Record):
    """A finite meet of generators; the empty meet is the term 1."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[str, ...]):
        object.__setattr__(self, "gens", gens)

    # the hottest records: compared and hashed without the generic key
    def __eq__(self, other):
        return self.gens == other.gens if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.gens,))

    def __str__(self) -> str:
        if not self.gens:
            return "1"
        return " ^ ".join(self.gens)


class Term(Record):
    """Canonical join of meets; the empty join is the term 0."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple[Meet, ...]):
        object.__setattr__(self, "clauses", clauses)

    def __eq__(self, other):
        return self.clauses == other.clauses if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.clauses,))

    def __str__(self) -> str:
        if not self.clauses:
            return "0"
        return " v ".join(str(c) for c in self.clauses)


TERM_ZERO = Term(())
TERM_ONE = Term((Meet(()),))


def gen_term(key: str) -> Term:
    return Term((Meet((key,)),))


def join_of(keys: Iterable[str]) -> Term:
    return Term(tuple(Meet((k,)) for k in keys))


def normal_form(raw: tuple[tuple[str, ...], ...], domain, fold_meets: bool = True) -> tuple[tuple, Term]:
    """The canonical form of the join of the meets ``raw``, each a tuple
    of generator keys, as such a tuple and as a ``Term``: duplicates
    removed, clauses in canonical order, and meets folded through the
    domain's meet operation when it has one.

    ``fold_meets=False`` keeps generator meets formal; preframe-style
    presentations need this, since there the frame meet of two generators
    is not a generator operation.  Raises on foreign generators.
    Idempotent either way.  Results are memoized in ``domain.memo``, the
    domain object's own memo, under ``(raw, fold_meets)`` and, since the
    form is idempotent, under ``(form, fold_meets)`` too, so each ``Term``
    is built once per form.  Keys are tuples of strings, which hash in C.
    """
    memo = domain.memo
    out = memo.get((raw, fold_meets))
    if out is not None:
        return out
    meets: set[tuple[str, ...]] = set()
    for gens in raw:
        gens = list(dict.fromkeys(gens))
        for g in gens:
            if not domain.contains(g):
                raise TermError(f"generator {g!r} does not belong to domain {domain.name!r}")
        if fold_meets and domain.has_meet and gens:
            acc = gens[0]
            for g in gens[1:]:
                acc = domain.meet(acc, g)
            gens = [acc]
        meets.add(tuple(sorted(gens)))
    # a clause equal to 1 absorbs the whole join
    form = ((),) if () in meets else tuple(sorted(meets))
    out = memo.get((form, fold_meets))
    if out is None:
        out = memo[(form, fold_meets)] = form, Term(tuple([Meet(gens) for gens in form]))
    memo[(raw, fold_meets)] = out
    return out


def normalize(raw: Term, domain, fold_meets: bool = True) -> Term:
    """``normal_form`` of a term, as a term."""
    return normal_form(tuple([c.gens for c in raw.clauses]), domain, fold_meets)[1]


# ---------------------------------------------------------------------------
# schematic terms (relation schemas)


class SchemaClause(Record):
    """One join clause of a schematic term.

    ``bound`` rational parameters (with conditions) and/or an integer index
    may be bound by the clause; the meet body is a tuple of patterns.
    """

    __slots__ = ("meet", "bound", "conds", "int_var", "directed")

    def __init__(
        self,
        meet: tuple[GenPattern, ...],
        bound: tuple[str, ...] = (),
        conds: tuple[Cond, ...] = (),
        int_var: Optional[str] = None,
        directed: bool = False,
    ):
        init = object.__setattr__
        init(self, "meet", meet)
        init(self, "bound", bound)
        init(self, "conds", conds)
        init(self, "int_var", int_var)
        init(self, "directed", directed)

    def __str__(self) -> str:
        body = " ^ ".join(str(p) for p in self.meet) if self.meet else "1"
        if not self.bound and self.int_var is None:
            return body
        head = "dirsup" if self.directed else "bigvee"
        if self.int_var is not None:
            binder = f"{self.int_var} in Z"
        else:
            binder = "(" + ", ".join(self.bound) + ")" if len(self.bound) > 1 else self.bound[0]
        cond = " where " + " & ".join(str(c) for c in self.conds) if self.conds else ""
        return f"{head} {binder}{cond} . {body}"


class SchemaTerm(Record):
    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple[SchemaClause, ...]):
        object.__setattr__(self, "clauses", clauses)

    def __str__(self) -> str:
        if not self.clauses:
            return "0"
        return " v ".join(str(c) for c in self.clauses)


def rename_expr(e: EExpr, mapping: dict[str, str], pin: dict[str, ExtRat]) -> EExpr:
    """Rename parameters and/or pin some of them to constants."""
    if isinstance(e, EOp):
        return EOp(e.op, rename_expr(e.left, mapping, pin), rename_expr(e.right, mapping, pin))
    if e.param is None:
        return e
    name = mapping.get(e.param, e.param)
    if name in pin:
        return EAtom(None, pin[name], e.with_index, e.offset)
    if e.param in pin:
        return EAtom(None, pin[e.param], e.with_index, e.offset)
    return EAtom(name, e.const, e.with_index, e.offset)


def rename_pattern(p: GenPattern, mapping: dict[str, str], pin: dict[str, ExtRat]) -> GenPattern:
    return GenPattern(p.ctor, tuple(rename_expr(a, mapping, pin) for a in p.args), p.tags)


def rename_cond(c: Cond, mapping: dict[str, str], pin: dict[str, ExtRat]) -> Cond:
    return Cond(
        c.op,
        tuple(rename_expr(e, mapping, pin) for e in c.left),
        tuple(rename_expr(e, mapping, pin) for e in c.right),
    )


def rename_clause(cl: SchemaClause, mapping: dict[str, str], pin: dict[str, ExtRat]) -> SchemaClause:
    return SchemaClause(
        tuple(rename_pattern(p, mapping, pin) for p in cl.meet),
        cl.bound,
        tuple(rename_cond(c, mapping, pin) for c in cl.conds),
        cl.int_var,
        cl.directed,
    )
