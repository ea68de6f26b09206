"""Builtin symbolic generator domains and the two circle derivations.

* ``interval-R``: rational open intervals OI(p,q), p in Q u {-inf},
  q in Q u {+inf}; a meet-semilattice under intersection with all empty
  intervals collapsed to one canonical bottom OI().
* ``interval-01``: complements CC(p,q) of closed rational subintervals of
  [0,1]; a join-semilattice under CC(p,q) v CC(p',q') = CC(p v p', q ^ q')
  with bottom CC(0,1).  Pairs with p > q are kept as formal generators
  (they are forced to 1 by a relation, not by the domain).

The two interval domains are one body, ``_EndpointDomain``, on endpoint
pairs: its order, intersection, membership, sort order and bounds serve
both, and each subclass holds only its data.  Every interval has one
spelling, the one ``key`` writes: ``contains`` refuses any other, such as
``OI(0,2/2)`` for ``OI(0,1)`` or ``CC(0,2/4)`` for ``CC(0,1/2)``.

The circle is derived twice: as an open quotient of the reals by the shift
action, and as a proper quotient of [0,1] gluing the endpoints.  The
counterexample of gluing N along its successor map is checked on the keys
N(), N(<=k) and N(all) of the opens of N by their ranks alone, with no
generator domain.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .generators import DOMAIN_REGISTRY, DomainError, GeneratorDomain
from .lattice import OperatorReport, QuotientMode
from .presentation import (
    Presentation,
    PresentationKind,
    Relation,
    RelationSchema,
)
from .rationals import NEG_INF, POS_INF, ExtRat, emax, emin, parse_extrat, rat
from .terms import (
    Cond,
    EAtom,
    EExpr,
    EOp,
    GenPattern,
    SchemaClause,
    SchemaTerm,
    TermError,
    TERM_ONE,
    TERM_ZERO,
    cmp_cond,
    econst,
    eparam,
    gen_term,
)
from .transform import (
    QuotientSpec,
    SchematicCase,
    TransformedPresentation,
    present_open,
    present_proper,
)


# ---------------------------------------------------------------------------
# endpoint expression simplification


def _expr_range(e: EExpr, lo: ExtRat, hi: ExtRat) -> tuple[ExtRat, ExtRat]:
    if isinstance(e, EOp):
        l1, h1 = _expr_range(e.left, lo, hi)
        l2, h2 = _expr_range(e.right, lo, hi)
        if e.op == "max":
            return emax(l1, l2), emax(h1, h2)
        return emin(l1, l2), emin(h1, h2)
    if e.with_index:
        return NEG_INF, POS_INF
    if e.param is None:
        v = e.const + e.offset
        return v, v
    if e.offset:
        return NEG_INF, POS_INF
    return lo, hi


def _simplify_expr(e: EExpr, lo: ExtRat, hi: ExtRat) -> EExpr:
    """Prune max/min branches that the parameter range makes redundant."""
    if not isinstance(e, EOp):
        if e.param is None and e.offset and not e.with_index:
            return EAtom(None, e.const + e.offset)
        return e
    a = _simplify_expr(e.left, lo, hi)
    b = _simplify_expr(e.right, lo, hi)
    la, ha = _expr_range(a, lo, hi)
    lb, hb = _expr_range(b, lo, hi)
    if ha <= lb:  # a never exceeds b
        return b if e.op == "max" else a
    if hb <= la:
        return a if e.op == "max" else b
    return EOp(e.op, a, b)


# ---------------------------------------------------------------------------
# generator keys with two endpoints


class _EndpointDomain(GeneratorDomain):
    """Generators ``ctor(p,q)`` written with two endpoints in ``[LO, HI]``,
    ordered by inclusion of intervals under their one binary operation,
    intersection: the greater left endpoint with the lesser right one.
    OI(p,q) <= OI(p',q') when [p,q] lies in [p',q'], and CC(p,q) <=
    CC(p',q') when [p',q'] lies in [p,q], which is the first order on the
    pairs (q,p) (``SWAP``).  The key without endpoints (``EMPTY``), where a
    domain has one, is the interval inside all and absorbs intersection;
    ``key`` collapses every empty interval to it."""

    pattern_params = ("p", "q")
    LO: ExtRat
    HI: ExtRat
    noun: str  # what a key is, in error messages
    TOP: str
    BOTTOM: str
    EMPTY: Optional[str] = None  # the one key without endpoints, if any
    SWAP = False  # whether the order reads the pairs (q, p)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key_re = re.compile(rf"{cls.ctor}\(([^,]+),([^,)]+)\)")

    def key(self, lo: ExtRat, hi: ExtRat) -> str:
        if self.EMPTY is not None and not lo < hi:
            return self.EMPTY
        return f"{self.ctor}({lo},{hi})"

    def key_endpoints(self, key: str) -> Optional[tuple[ExtRat, ExtRat]]:
        """The two endpoints written in ``key``, parsed once per domain
        object and kept in its memo under the key itself.  A malformed key
        raises on every call and is never memoized."""
        memo = self.memo
        out = memo.get(key)
        if out is None:
            if key == self.EMPTY:
                return None
            m = self._key_re.fullmatch(key)
            if not m:
                raise TermError(f"not {self.noun} generator: {key!r}")
            out = memo[key] = parse_extrat(m.group(1)), parse_extrat(m.group(2))
        return out

    def contains(self, key: str) -> bool:
        try:
            eps = self.key_endpoints(key)
        except (TermError, ValueError):
            return False
        return eps is None or (self._in_range(eps[0]) and self._in_range(eps[1]) and self.key(*eps) == key)

    def leq(self, a: str, b: str) -> bool:
        if a == self.EMPTY:
            return True
        if b == self.EMPTY:
            return False
        (la, ha), (lb, hb) = self.key_endpoints(a), self.key_endpoints(b)
        if self.SWAP:
            (la, ha), (lb, hb) = (ha, la), (hb, lb)
        return lb <= la and ha <= hb

    def up_masks(self, keys: Sequence[str]) -> list[int]:
        """The order on ``keys`` read off their endpoints, each key parsed
        once and each endpoint replaced by its rank among them all: ``leq``
        on the ranks."""
        pairs = [self.key_endpoints(k) for k in keys]
        if self.SWAP:
            pairs = [pair[::-1] for pair in pairs]
        rank = {v: r for r, v in enumerate(sorted({v for pair in pairs if pair for v in pair}))}
        ends = [(rank[pair[0]], rank[pair[1]]) if pair else (len(rank), -1) for pair in pairs]
        return [sum(1 << j for j, (lo2, hi2) in enumerate(ends) if lo2 <= lo and hi <= hi2) for lo, hi in ends]

    def _intersect(self, a: str, b: str) -> str:
        if self.EMPTY in (a, b):
            return self.EMPTY
        (la, ha), (lb, hb) = self.key_endpoints(a), self.key_endpoints(b)
        return self.key(emax(la, lb), emin(ha, hb))

    def top(self) -> Optional[str]:
        return self.TOP

    def bottom(self) -> Optional[str]:
        return self.BOTTOM

    def sort_key(self, key: str):
        if key == self.EMPTY:
            return (0,)
        return (1, *self.key_endpoints(key))

    def _in_range(self, x: ExtRat) -> bool:
        return self.LO <= x <= self.HI

    def pattern(self, p, q) -> GenPattern:
        """The pattern ``ctor(p,q)``; an endpoint that is a number becomes
        a constant."""
        to_expr = lambda x: x if isinstance(x, (EAtom, EOp)) else econst(rat(x))
        return GenPattern(self.ctor, (to_expr(p), to_expr(q)))

    def generic_pattern(self) -> GenPattern:
        return self.pattern(eparam("p"), eparam("q"))

    def instantiate_pattern(self, pat: GenPattern, env, n: Optional[int] = None) -> str:
        if pat.tags or pat.ctor != self.ctor or len(pat.args) != 2:
            raise TermError(f"not {self.noun} pattern: {pat}")
        p, q = pat.args[0].evaluate(env, n), pat.args[1].evaluate(env, n)
        if not (self._in_range(p) and self._in_range(q)):
            raise TermError(f"endpoints {p},{q} outside [{self.LO},{self.HI}]")
        return self.key(p, q)

    def _intersect_patterns(self, a: GenPattern, b: GenPattern) -> GenPattern:
        lo = _simplify_expr(EOp("max", a.args[0], b.args[0]), self.LO, self.HI)
        hi = _simplify_expr(EOp("min", a.args[1], b.args[1]), self.LO, self.HI)
        return GenPattern(self.ctor, (lo, hi))

    def grid_values(self, grid: Sequence[ExtRat]) -> list[ExtRat]:
        vals = sorted({rat(v) for v in grid} | {self.LO, self.HI})
        for v in vals:
            if not self._in_range(v):
                raise DomainError(f"{self.name} grid value {v} outside [{self.LO},{self.HI}]")
        return vals


# ---------------------------------------------------------------------------
# interval-R


class OpenIntervalDomain(_EndpointDomain):
    """Rational open intervals under intersection."""

    name = "interval-R"
    has_meet = True
    ctor = "OI"
    noun = "an interval"
    LO, HI = NEG_INF, POS_INF
    TOP = "OI(-inf,+inf)"
    BOTTOM = EMPTY = "OI()"
    meet = _EndpointDomain._intersect
    meet_patterns = _EndpointDomain._intersect_patterns


# ---------------------------------------------------------------------------
# interval-01


class ClosedComplementDomain(_EndpointDomain):
    """Complements of closed rational subintervals of [0,1]."""

    name = "interval-01"
    has_join = True
    ctor = "CC"
    noun = "a closed-complement"
    LO, HI = rat(0), rat(1)
    TOP, BOTTOM = "CC(1,0)", "CC(0,1)"
    SWAP = True
    join = _EndpointDomain._intersect
    join_patterns = _EndpointDomain._intersect_patterns


DOMAIN_REGISTRY["interval-R"] = OpenIntervalDomain
DOMAIN_REGISTRY["interval-01"] = ClosedComplementDomain


# ---------------------------------------------------------------------------
# the real line and its circle quotient (open route)


def real_presentation() -> Presentation:
    """The frame of reals over interval generators, in meet-stable form:
    the top interval is the unit, bounded joins of overlapping intervals
    concatenate, and every interval is the join of its strict
    subintervals.

    Empty intervals all meet to the domain bottom ``OI()``, which is still
    a generator that no relation here equates with 0.  Evaluated on the
    grid {0,1} without the refinement schema, the frame keeps ``OI()`` as
    an atom and has 14 elements, not the 13 open sets of the grid
    topology; adding ``OI() = 0`` gives the 13.  That relation is not
    emitted because the circle presentations and their goldens are built
    from this one."""
    dom = OpenIntervalDomain()
    p, q, p2, q2 = eparam("p"), eparam("q"), eparam("p'"), eparam("q'")
    oi = dom.pattern
    top_rel = Relation(gen_term("OI(-inf,+inf)"), TERM_ONE)
    join_rule = RelationSchema(
        ("p", "q", "p'", "q'"),
        (cmp_cond(p, "<=", p2), cmp_cond(p2, "<", q), cmp_cond(q, "<=", q2)),
        SchemaTerm((SchemaClause((oi(p, q),)), SchemaClause((oi(p2, q2),)))),
        SchemaTerm((SchemaClause((oi(p, q2),)),)),
    )
    refinement = RelationSchema(
        ("p", "q"),
        (),
        SchemaTerm((SchemaClause((oi(p, q),)),)),
        SchemaTerm(
            (
                SchemaClause(
                    (oi(p2, q2),),
                    bound=("p'", "q'"),
                    conds=(cmp_cond(p, "<", p2), cmp_cond(p2, "<", q2), cmp_cond(q2, "<", q)),
                ),
            )
        ),
    )
    return Presentation(PresentationKind.SUP, dom, (top_rel, join_rule, refinement))


def circle_open_spec() -> QuotientSpec:
    """The closure operator of the integer shift action, restricted to
    generators: OI(p,q) goes to the join over n of OI(p+n, q+n)."""
    dom = OpenIntervalDomain()
    body = dom.pattern(EAtom("p", with_index=True), EAtom("q", with_index=True))
    case = SchematicCase(
        (), (), SchemaTerm((SchemaClause((body,), int_var="n"),))
    )
    return QuotientSpec(QuotientMode.OPEN, dom, (), (case,))


def circle_open_presentation() -> TransformedPresentation:
    """The circle as the open quotient of the reals by the shift action."""
    out = present_open(real_presentation(), circle_open_spec())
    assert len(out.relations) == 4, "circle presentation should display four relation families"
    return out


# ---------------------------------------------------------------------------
# the unit interval and its circle quotient (proper route)


def unit_interval_presentation() -> Presentation:
    """The frame of [0,1] over closed-complement generators, in join-stable
    form: overlapping complements meet to the spanning one, complements of
    empty intervals are the unit, and every generator is the directed join
    of its strict approximations."""
    dom = ClosedComplementDomain()
    p, q, p2, q2 = eparam("p"), eparam("q"), eparam("p'"), eparam("q'")
    cc = dom.pattern
    one = rat(1)
    zero = rat(0)
    bottom_rel = Relation(gen_term("CC(0,1)"), TERM_ZERO)
    meet_rule = RelationSchema(
        ("p", "q", "p'", "q'"),
        (cmp_cond(p, "<=", p2), cmp_cond(p2, "<=", q), cmp_cond(q, "<=", q2)),
        SchemaTerm((SchemaClause((cc(p, q), cc(p2, q2))),)),
        SchemaTerm((SchemaClause((cc(p, q2),)),)),
    )
    unit_rule = RelationSchema(
        ("p", "q"),
        (cmp_cond(p, ">", q),),
        SchemaTerm((SchemaClause((cc(p, q),)),)),
        SchemaTerm((SchemaClause(()),)),
    )
    approx_hi = RelationSchema(
        ("p", "q"),
        (cmp_cond(p, "<", econst(one)), cmp_cond(q, "<", econst(one))),
        SchemaTerm((SchemaClause((cc(p, q),)),)),
        SchemaTerm(
            (
                SchemaClause(
                    (cc(p, q2),),
                    bound=("q'",),
                    conds=(cmp_cond(q2, ">", q),),
                    directed=True,
                ),
            )
        ),
    )
    approx_lo = RelationSchema(
        ("p", "q"),
        (cmp_cond(p, ">", econst(zero)), cmp_cond(q, ">", econst(zero))),
        SchemaTerm((SchemaClause((cc(p, q),)),)),
        SchemaTerm(
            (
                SchemaClause(
                    (cc(p2, q),),
                    bound=("p'",),
                    conds=(cmp_cond(p2, "<", p),),
                    directed=True,
                ),
            )
        ),
    )
    return Presentation(
        PresentationKind.PREFRAME, dom, (bottom_rel, meet_rule, unit_rule, approx_hi, approx_lo)
    )


def circle_proper_spec() -> QuotientSpec:
    """The interior operator of the endpoint gluing, by cases on where the
    complemented closed interval touches the boundary: intervals touching
    an endpoint absorb the opposite one."""
    dom = ClosedComplementDomain()
    cc = dom.pattern
    p, q = eparam("p"), eparam("q")
    one, zero = rat(1), rat(0)
    cases = (
        SchematicCase(
            (),
            (cmp_cond(p, ">", econst(zero)), cmp_cond(q, "<", econst(one))),
            SchemaTerm((SchemaClause((cc(p, q),)),)),
        ),
        SchematicCase(
            (("p", zero),),
            (cmp_cond(q, "<", econst(one)),),
            SchemaTerm((SchemaClause((cc(zero, q), cc(one, one))),)),
        ),
        SchematicCase(
            (("q", one),),
            (cmp_cond(p, ">", econst(zero)),),
            SchemaTerm((SchemaClause((cc(p, one), cc(zero, zero))),)),
        ),
        SchematicCase(
            (("p", zero), ("q", one)),
            (),
            SchemaTerm((SchemaClause((cc(zero, one),)),)),
        ),
    )
    return QuotientSpec(QuotientMode.PROPER, dom, (), cases)


def _circle_proper_display_spec() -> QuotientSpec:
    """The case split re-cut to match the displayed relation list: the two
    endpoint cases are stated without their interior-side restriction
    (valid because the boundary instances hold as well), absorbing the
    doubly-degenerate case."""
    spec = circle_proper_spec()
    interior, at_zero, at_one, _ = spec.cases
    ends = tuple(SchematicCase(case.pin, (), case.term) for case in (at_zero, at_one))
    return QuotientSpec(spec.mode, spec.domain, (), (interior,) + ends)


def circle_proper_presentation(simplify: bool = False) -> TransformedPresentation:
    """The circle as the proper quotient of [0,1] gluing the endpoints.

    Raw mode shows the unit relation, the three pair-relation cases and
    the transported interval relations; simplify mode extends the interior
    pair case to everything except the two mixed boundary configurations
    and merges the residual endpoint cases into a single rule."""
    out = present_proper(unit_interval_presentation(), _circle_proper_display_spec())
    assert len(out.relations) == 8
    if not simplify:
        return out
    rels = list(out.relations)
    p, q, p2, q2 = eparam("p"), eparam("q"), eparam("p'"), eparam("q'")
    zero, one = econst(rat(0)), econst(rat(1))
    cc = ClosedComplementDomain().pattern
    box = lambda pat: pat.tagged("box")
    extended = RelationSchema(
        ("p", "q", "p'", "q'"),
        (
            Cond("pairneq", (p2, q), (zero, one)),
            Cond("pairneq", (p, q2), (zero, one)),
        ),
        rels[1].lhs,
        rels[1].rhs,
        "=",
    )
    merged = RelationSchema(
        ("q", "p'"),
        (),
        SchemaTerm((SchemaClause((box(cc(rat(0), q)),)), SchemaClause((box(cc(p2, rat(1))),)))),
        SchemaTerm(
            (
                SchemaClause(
                    (box(cc(p2, q)), box(cc(rat(0), rat(0))), box(cc(rat(1), rat(1))))
                ),
            )
        ),
    )
    new_rels = (rels[0], extended, merged) + tuple(rels[4:])
    return TransformedPresentation(out.kind, out.domain, new_rels, out.provenance)


# ---------------------------------------------------------------------------
# the natural numbers counterexample


def _nat_rank(key: str):
    """The place of an open of N, under the reverse order topology, in its
    chain N() < N(<=0) < N(<=1) < ... < N(all): every open is empty, a
    finite initial segment, or all."""
    if key == "N()":
        return -1
    if key == "N(all)":
        return float("inf")
    m = re.fullmatch(r"N\(<=(\d+)\)", key)
    if not m:
        raise TermError(f"not an open of N: {key!r}")
    return int(m.group(1))


def successor_pullback(key: str) -> str:
    """Inverse image of an open under the successor map: initial segments
    shrink by one."""
    if key in ("N()", "N(all)"):
        return key
    k = _nat_rank(key)
    return "N()" if k == 0 else f"N(<={k - 1})"


def point_map_right_adjoint(key: str) -> str:
    """Direct image under the unique map to the point, read on 2 = {0,1}:
    an open maps to 1 exactly when it is everything."""
    return "1" if key == "N(all)" else "0"


def nat_reverse_counterexample() -> OperatorReport:
    """Symbolic verification that gluing N along the successor map yields
    the terminal locale whose quotient map cannot be semi-proper.

    Checks, by case analysis on the three-constructor normal form:
    the coinserter carrier {u : u <= s*(u)} is exactly {N(), N(all)},
    and the right adjoint of the point map sends the directed family
    N(<=0) <= N(<=1) <= ... to 0 while sending its join N(all) to 1.
    """
    seg = [f"N(<={k})" for k in range(64)]
    leq = lambda a, b: _nat_rank(a) <= _nat_rank(b)
    witnesses = []
    # successor pullback sanity on the sampled chain and symbolically at 0
    if successor_pullback(seg[0]) != "N()":
        witnesses.append(("successor-pullback-at-0", (seg[0],)))
    for k in range(1, 64):
        if successor_pullback(seg[k]) != seg[k - 1]:
            witnesses.append(("successor-pullback", (seg[k],)))
    # coinserter membership by constructor case
    members = []
    for key in ("N()", "N(all)"):
        if leq(key, successor_pullback(key)):
            members.append(key)
        else:
            witnesses.append(("coinserter-extremes", (key,)))
    # a segment N(<=k) never satisfies u <= s*(u): s*(u) = N(<=k-1) < u
    for u in seg:
        if leq(u, successor_pullback(u)):
            witnesses.append(("coinserter-segment", (u,)))
    # Scott-continuity failure of the point map's right adjoint
    # the join of the segments is N(all): no segment bounds all of them
    images = {point_map_right_adjoint(u) for u in seg}
    scott_fails = images == {"0"} and point_map_right_adjoint("N(all)") == "1"
    if not scott_fails:
        witnesses.append(("scott-continuity-should-fail", ("N(all)",)))
    verdict = not witnesses and len(members) == 2
    notes = (
        "coinserter carrier: N() < N(all)  (size 2, the terminal locale)",
        "s*(N(<=k)) = N(<=k-1), s*(N(<=0)) = N()",
        "witness family: N(<=0) <= N(<=1) <= ... with join N(all); "
        "right adjoint sends every member to 0 but the join to 1",
    )
    if verdict:
        return OperatorReport(
            True,
            (("scott-continuity-failure", ("N(<=k), k in N", "N(all)")),),
            notes,
        )
    return OperatorReport(False, tuple(witnesses), notes)
