"""Line-oriented text format for presentations and quotient specs.

Sketch:

    domain interval-R | interval-01
           | tagged dia <domain>
           | finite { gens a, b; leq a <= b; meet a b = a; ops meet }
    kind sup | preframe | dcpo | plain
    include standard
    rel OI(-inf,+inf) = 1
    rel (a ^ 1) v 0 <= join(a, b)
    schema (p, q, p', q') where p <= p' & p' < q & q <= q'
        : OI(p, q) v OI(p', q') = OI(p, q')
    schema () : OI(0, 1) <= bigvee n in Z . OI(0+n, 1+n)
    quotient open
    image a = a v b

Rationals are ``p/q`` or integers, infinities ``-inf``/``+inf``; the
tags render as ``dia``/``box``/``boxtimes``.  A schema pattern is always
the domain's constructor on endpoints, so a finite domain takes no
schemas.  A newline is a blank, except that a ``-`` continues a dashed
name (``interval-R``, ``semi-open``) only on the line where the name so
far ends.  Parse errors carry line, column and the expected token set.
``print_presentation`` emits the canonical form, and parsing it back
yields an equal object.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .generators import (
    QUOTIENT_TAGS,
    FiniteGeneratorDomain,
    GeneratorDomain,
    TaggedDomain,
    builtin_domain,
    finite_domain,
    tagged_domain,
)
from .lattice import FinitePoset, QuotientMode, _bits, maximal
from .presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    RelationSchema,
)
from .rationals import ExtRat, NEG_INF, POS_INF, parse_extrat
from .records import Record
from .terms import (
    Cond,
    EAtom,
    EExpr,
    EOp,
    GenPattern,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    normalize,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: Sequence[str], found: str):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"line {line}, col {col}: expected {' or '.join(self.expected)}, found {found!r}"
        )


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9_']*(?:\.[A-Za-z0-9_'][A-Za-z0-9_']*)*)
  | (?P<op><=|>=|!=|[{}(),;:=<>^+\-.&])
    """,
    re.VERBOSE,
)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        init = object.__setattr__
        init(self, "kind", kind)  # name | number | op | eof
        init(self, "text", text)
        init(self, "line", line)
        init(self, "col", col)


def tokenize(source: str) -> list[Token]:
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(line, col, ("a token",), source[pos])
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment", "nl"):
            out.append(Token(kind, text, line, col))
        if kind == "nl":
            line += 1
            col = 1
        else:
            col += len(text)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.i = 0

    # -- token plumbing ---------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, tok: Token, *expected: str):
        raise ParseError(tok.line, tok.col, expected, tok.text or "end of input")

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            self.fail(t, repr(text))
        return t

    def expect_name(self, what: str = "a name") -> Token:
        t = self.next()
        if t.kind != "name":
            self.fail(t, what)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- rationals ----------------------------------------------------------
    def parse_rat(self) -> ExtRat:
        t = self.next()
        sign = 1
        if t.text in ("-", "+"):
            sign = -1 if t.text == "-" else 1
            t = self.next()
        if t.kind == "name" and t.text in ("inf", "oo"):
            return NEG_INF if sign < 0 else POS_INF
        if t.kind != "number":
            self.fail(t, "a rational or inf")
        v = parse_extrat(t.text)
        return ExtRat(0, -v.value) if sign < 0 else v

    def parse_dashed_name(self, first: Token) -> str:
        name = first.text
        while self.peek().text == "-" and self.peek().line == self.toks[self.i - 1].line:
            self.next()
            part = self.next()
            if part.kind not in ("name", "number"):
                self.fail(part, "a name after '-'")
            name += "-" + part.text
        return name

    # -- domains ------------------------------------------------------------
    def parse_domain(self) -> GeneratorDomain:
        t = self.next()
        if t.kind == "name" and self.peek().text == "-" and self.peek().line == t.line:
            make = builtin_domain(self.parse_dashed_name(t))
            if make is None:
                self.fail(t, "a builtin domain name")
            return make()
        if t.text == "tagged":
            tag = self.expect_name(f"a tag ({'/'.join(QUOTIENT_TAGS)})").text
            return tagged_domain(tag, self.parse_domain())
        if t.text == "finite":
            return self.parse_finite_block()
        make = builtin_domain(t.text) if t.kind == "name" else None
        if make is not None:
            return make()
        self.fail(t, "a domain (interval-R, interval-01, tagged, finite)")

    def parse_finite_block(self) -> FiniteGeneratorDomain:
        self.expect("{")
        gens: list[str] = []
        leqs: list[tuple[str, str]] = []
        decls: list[tuple[str, str, str, str]] = []
        tops: list[str] = []
        bottoms: list[str] = []
        ops: Optional[set[str]] = None
        while not self.at("}"):
            t = self.next()
            if t.text == "gens":
                gens.append(self.expect_name().text)
                while self.at(","):
                    self.next()
                    gens.append(self.expect_name().text)
            elif t.text == "leq":
                a = self.expect_name().text
                self.expect("<=")
                b = self.expect_name().text
                leqs.append((a, b))
            elif t.text in ("meet", "join"):
                a = self.expect_name().text
                b = self.expect_name().text
                self.expect("=")
                c = self.expect_name().text
                decls.append((t.text, a, b, c))
            elif t.text == "top":
                tops.append(self.expect_name().text)
            elif t.text == "bottom":
                bottoms.append(self.expect_name().text)
            elif t.text == "ops":
                ops = set()
                while self.peek().text in ("meet", "join", "poset"):
                    ops.add(self.next().text)
            else:
                self.fail(t, "gens", "leq", "meet", "join", "top", "bottom", "ops", "'}'")
            if self.at(";"):
                self.next()
        self.expect("}")
        idx = {g: i for i, g in enumerate(gens)}
        for a, b in leqs:
            for x in (a, b):
                if x not in idx:
                    raise PresentationError(f"leq references unknown generator {x!r}")
        poset = FinitePoset.from_pairs(gens, [(idx[a], idx[b]) for a, b in leqs])
        use_meet = use_join = None
        if ops is not None:
            use_meet = "meet" in ops
            use_join = "join" in ops
        dom = finite_domain(poset, use_meet, use_join, decls)
        for x in tops:
            if dom.top() != x:
                raise PresentationError(f"declared top {x!r} is not the greatest element")
        for x in bottoms:
            if dom.bottom() != x:
                raise PresentationError(f"declared bottom {x!r} is not the least element")
        return dom

    # -- endpoint expressions -------------------------------------------------
    def parse_pexpr(self, params: set[str], int_var: Optional[str]) -> EExpr:
        left = self.parse_pterm(params, int_var)
        while self.peek().text in ("v", "^"):
            op = "max" if self.next().text == "v" else "min"
            right = self.parse_pterm(params, int_var)
            left = EOp(op, left, right)
        return left

    def parse_pterm(self, params: set[str], int_var: Optional[str]) -> EExpr:
        t = self.peek()
        if t.text == "(":
            self.next()
            e = self.parse_pexpr(params, int_var)
            self.expect(")")
            return self.parse_psuffix(e, params, int_var)
        if t.kind == "name" and t.text in params:
            self.next()
            return self.parse_psuffix(EAtom(param=t.text), params, int_var)
        if t.kind == "name" and int_var is not None and t.text == int_var:
            self.next()
            return self.parse_psuffix(EAtom(None, parse_extrat("0"), True, 0), params, int_var)
        e = EAtom(None, self.parse_rat())
        return self.parse_psuffix(e, params, int_var)

    def parse_psuffix(self, e: EExpr, params: set[str], int_var: Optional[str]) -> EExpr:
        while self.peek().text in ("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            t = self.next()
            if t.kind == "number":
                k = int(t.text)
                if not isinstance(e, EAtom):
                    self.fail(t, "offset on a simple endpoint")
                e = EAtom(e.param, e.const, e.with_index, e.offset + sign * k)
            elif t.kind == "name" and int_var is not None and t.text == int_var:
                if sign < 0:
                    self.fail(t, "the family index may only be added")
                if not isinstance(e, EAtom) or e.with_index:
                    self.fail(t, "offset on a simple endpoint")
                e = EAtom(e.param, e.const, True, e.offset)
            else:
                self.fail(t, "an integer offset or the family index")
        return e

    # -- conditions ------------------------------------------------------------
    _CMP = ("<=", "<", "=", "!=", ">=", ">")

    def parse_conds(self, params: set[str], int_var: Optional[str] = None) -> tuple[Cond, ...]:
        out = [self.parse_cond(params, int_var)]
        while self.at("&"):
            self.next()
            out.append(self.parse_cond(params, int_var))
        return tuple(out)

    def parse_cond(self, params: set[str], int_var: Optional[str]) -> Cond:
        if self.at("("):
            # possibly a pair disequality
            save = self.i
            self.next()
            first = self.parse_pexpr(params, int_var)
            if self.at(","):
                self.next()
                second = self.parse_pexpr(params, int_var)
                self.expect(")")
                self.expect("!=")
                self.expect("(")
                r1 = self.parse_pexpr(params, int_var)
                self.expect(",")
                r2 = self.parse_pexpr(params, int_var)
                self.expect(")")
                return Cond("pairneq", (first, second), (r1, r2))
            self.i = save
        left = self.parse_pexpr(params, int_var)
        t = self.next()
        if t.text not in self._CMP:
            self.fail(t, *self._CMP)
        right = self.parse_pexpr(params, int_var)
        return Cond(t.text, (left,), (right,))

    # -- concrete terms -----------------------------------------------------
    def parse_term(self, domain: GeneratorDomain) -> Term:
        clauses = self.parse_mterm(domain)
        while self.at("v"):
            self.next()
            clauses = clauses + self.parse_mterm(domain)
        return normalize(Term(tuple(clauses)), domain)

    def parse_mterm(self, domain: GeneratorDomain) -> tuple:
        left = self.parse_atom(domain)
        while self.at("^"):
            self.next()
            right = self.parse_atom(domain)
            left = tuple(Meet(a.gens + b.gens) for a in left for b in right)
        return tuple(left)

    def parse_atom(self, domain: GeneratorDomain) -> tuple:
        """Returns a tuple of clauses (a sub-term in join normal form)."""
        t = self.peek()
        if t.text == "0":
            self.next()
            return ()
        if t.text == "1":
            self.next()
            return (Meet(()),)
        if t.text == "(":
            self.next()
            inner = self.parse_mterm(domain)
            while self.at("v"):
                self.next()
                inner = inner + self.parse_mterm(domain)
            self.expect(")")
            return inner
        if t.text in ("join", "meet") and self.toks[self.i + 1].text == "(":
            fn = self.next().text
            self.expect("(")
            args = [self.parse_term(domain)]
            while self.at(","):
                self.next()
                args.append(self.parse_term(domain))
            self.expect(")")
            if fn == "join":
                out = ()
                for a in args:
                    out = out + a.clauses
                return out
            out = (Meet(()),)
            for a in args:
                out = tuple(Meet(x.gens + y.gens) for x in out for y in a.clauses)
            return out
        key = self.parse_generator_key(domain)
        return (Meet((key,)),)

    def parse_generator_key(self, domain: GeneratorDomain) -> str:
        t = self.next()
        if t.kind != "name":
            self.fail(t, "a generator")
        if t.text in QUOTIENT_TAGS:
            if not isinstance(domain, TaggedDomain) or domain.tag != t.text:
                self.fail(t, "a generator of the current domain")
            inner = self.parse_generator_key(domain.parent)
            return domain.wrap(inner)
        if self.at("(") and domain.ctor == t.text:
            self.next()
            if self.at(")"):  # the canonical empty interval
                self.next()
                key = f"{t.text}()"
            else:
                a = self.parse_rat()
                self.expect(",")
                b = self.parse_rat()
                self.expect(")")
                key = f"{t.text}({a},{b})"
            if not domain.contains(key):
                self.fail(t, "a generator inside the domain")
            return key
        if not domain.contains(t.text):
            self.fail(t, "a generator of the domain")
        return t.text

    # -- schematic terms --------------------------------------------------------
    def parse_sterm(self, domain: GeneratorDomain, params: set[str]) -> SchemaTerm:
        clauses = list(self.parse_sclause(domain, params))
        while self.at("v"):
            self.next()
            clauses.extend(self.parse_sclause(domain, params))
        return SchemaTerm(tuple(clauses))

    def parse_sclause(self, domain: GeneratorDomain, params: set[str]) -> tuple[SchemaClause, ...]:
        t = self.peek()
        if t.text in ("bigvee", "dirsup"):
            directed = t.text == "dirsup"
            self.next()
            int_var = None
            bound: tuple[str, ...] = ()
            if self.at("("):
                self.next()
                names = [self.expect_name().text]
                while self.at(","):
                    self.next()
                    names.append(self.expect_name().text)
                self.expect(")")
                bound = tuple(names)
            else:
                name = self.expect_name().text
                if self.at("in"):
                    self.next()
                    self.expect("Z")
                    int_var = name
                else:
                    bound = (name,)
            scope = params | set(bound)
            conds: tuple[Cond, ...] = ()
            if self.at("where"):
                self.next()
                conds = self.parse_conds(scope, int_var)
            self.expect(".")
            meets = [self.parse_spattern(domain, scope, int_var)]
            while self.at("^"):
                self.next()
                meets.append(self.parse_spattern(domain, scope, int_var))
            return (SchemaClause(tuple(meets), bound, conds, int_var, directed),)
        if t.text == "0":
            self.next()
            return ()
        if t.text == "1":
            self.next()
            return (SchemaClause(()),)
        meets = [self.parse_spattern(domain, params, None)]
        while self.at("^"):
            self.next()
            meets.append(self.parse_spattern(domain, params, None))
        return (SchemaClause(tuple(meets)),)

    def parse_spattern(self, domain: GeneratorDomain, params: set[str], int_var: Optional[str]) -> GenPattern:
        t = self.next()
        if t.kind != "name":
            self.fail(t, "a generator pattern")
        if t.text in QUOTIENT_TAGS:
            if not isinstance(domain, TaggedDomain) or domain.tag != t.text:
                self.fail(t, "a pattern of the current domain")
            inner = self.parse_spattern(domain.parent, params, int_var)
            return inner.tagged(t.text)
        if self.at("(") and domain.ctor == t.text:
            self.next()
            args = [self.parse_pexpr(params, int_var)]
            while self.at(","):
                self.next()
                args.append(self.parse_pexpr(params, int_var))
            self.expect(")")
            return GenPattern(t.text, tuple(args))
        self.fail(t, "a generator pattern of the domain")

    # -- top level ------------------------------------------------------------
    def parse_document(self):
        domain: Optional[GeneratorDomain] = None
        kind = PresentationKind.PLAIN
        relations: list = []
        quotient_mode: Optional[QuotientMode] = None
        images: list[tuple[str, Term]] = []
        include_standard = False
        while self.peek().kind != "eof":
            t = self.next()
            if t.text == "domain":
                domain = self.parse_domain()
            elif t.text == "kind":
                k = self.expect_name("sup, preframe, dcpo or plain")
                try:
                    kind = PresentationKind(k.text)
                except ValueError:
                    self.fail(k, "sup", "preframe", "dcpo", "plain")
            elif t.text == "include":
                self.expect("standard")
                include_standard = True
            elif t.text == "rel":
                if domain is None:
                    self.fail(t, "a 'domain' line before relations")
                lhs = self.parse_term(domain)
                op_t = self.next()
                if op_t.text not in ("=", "<="):
                    self.fail(op_t, "'='", "'<='")
                rhs = self.parse_term(domain)
                relations.append(Relation(lhs, rhs, op_t.text))
            elif t.text == "schema":
                if domain is None:
                    self.fail(t, "a 'domain' line before schemas")
                if domain.finite:
                    # a finite domain has no parameters to instantiate
                    self.fail(t, "'rel' (a finite domain takes no schemas)")
                self.expect("(")
                params = [] if self.at(")") else [self.expect_name().text]
                while self.at(","):
                    self.next()
                    params.append(self.expect_name().text)
                self.expect(")")
                conds: tuple[Cond, ...] = ()
                if self.at("where"):
                    self.next()
                    conds = self.parse_conds(set(params))
                self.expect(":")
                lhs = self.parse_sterm(domain, set(params))
                op_t = self.next()
                if op_t.text not in ("=", "<="):
                    self.fail(op_t, "'='", "'<='")
                rhs = self.parse_sterm(domain, set(params))
                relations.append(RelationSchema(tuple(params), conds, lhs, rhs, op_t.text))
            elif t.text == "quotient":
                m = self.expect_name("a quotient mode")
                mode_text = self.parse_dashed_name(m)
                try:
                    quotient_mode = QuotientMode.parse(mode_text)
                except ValueError:
                    self.fail(m, *(x.cli_name for x in QuotientMode))
            elif t.text == "image":
                if domain is None:
                    self.fail(t, "a 'domain' line before images")
                g = self.parse_generator_key(domain)
                self.expect("=")
                images.append((g, self.parse_term(domain)))
            else:
                self.fail(t, "domain", "kind", "include", "rel", "schema", "quotient", "image")
        if domain is None:
            raise ParseError(1, 1, ("a 'domain' line",), "end of input")
        if include_standard:
            relations = list(_standard_relations(domain, kind)) + relations
        if quotient_mode is not None:
            from .transform import QuotientSpec

            return QuotientSpec(quotient_mode, domain, tuple(images))
        return Presentation(kind, domain, tuple(relations))


def _standard_relations(domain: GeneratorDomain, kind: PresentationKind):
    from . import intervals

    if domain.descriptor() == {"type": "interval-R"} and kind == PresentationKind.SUP:
        return intervals.real_presentation().relations
    if domain.descriptor() == {"type": "interval-01"} and kind == PresentationKind.PREFRAME:
        return intervals.unit_interval_presentation().relations
    raise PresentationError(
        "include standard needs interval-R with kind sup or interval-01 with kind preframe"
    )


def parse(source: str):
    """Parse a presentation or quotient spec from text."""
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# printing


_NAME_OK = re.compile(r"[A-Za-z][A-Za-z0-9_']*(?:\.[A-Za-z0-9_'][A-Za-z0-9_']*)*\Z")
_RESERVED = {
    "v", "domain", "kind", "rel", "schema", "where", "include", "quotient",
    "image", "finite", "gens", "leq", "meet", "join", "top", "bottom", "ops",
    "tagged", "bigvee", "dirsup", "in", "Z", "standard", "inf", "oo",
    "OI", "CC", *QUOTIENT_TAGS,
}


def _check_printable(label: str):
    if not _NAME_OK.match(label) or label in _RESERVED:
        raise PresentationError(
            f"generator label {label!r} has no text form; serialize to JSON instead"
        )


def _print_domain(domain: GeneratorDomain) -> str:
    desc = domain.descriptor()
    if desc["type"] == "tagged":
        return f"tagged {desc['tag']} {_print_domain(domain.parent)}"
    if desc["type"] != "finite" and builtin_domain(desc["type"]) is not None:
        return desc["type"]
    poset = domain.poset
    for e in poset.elements:
        _check_printable(e)
    items = ["gens " + ", ".join(poset.elements)]
    down = poset.down
    for j, e in enumerate(poset.elements):
        # the lower covers of e: the maximal elements strictly below it
        for i in _bits(maximal(down[j] ^ (1 << j), down)):
            items.append(f"leq {poset.elements[i]} <= {e}")
    ops = [x for x, on in (("meet", domain.has_meet), ("join", domain.has_join)) if on]
    items.append("ops " + (" ".join(ops) if ops else "poset"))
    return "finite { " + "; ".join(items) + " }"


def print_presentation(p: Presentation) -> str:
    lines = [f"domain {_print_domain(p.domain)}", f"kind {p.kind.value}"]
    lines += [f"rel {r}" if isinstance(r, Relation) else str(r) for r in p.relations]
    return "\n".join(lines) + "\n"


def print_spec(spec) -> str:
    lines = [f"domain {_print_domain(spec.domain)}", f"quotient {spec.mode.cli_name}"]
    for g, t in spec.image:
        lines.append(f"image {g} = {t}")
    if spec.cases:
        raise PresentationError("schematic specs have no text form; use JSON")
    return "\n".join(lines) + "\n"
