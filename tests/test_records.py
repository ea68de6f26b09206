"""The package's records keep the semantics of frozen dataclasses: equality
only within one class over the compared fields, the hash of the tuple of
those fields, a repr of them by name, and no assignment after construction.
``SuiteResult`` is the one mutable record."""

import copy
import pickle

import pytest

from locale_forge.dsl import Token
from locale_forge.evaluate import PresentedObject
from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.lattice import (
    FiniteLattice,
    FinitePoset,
    ModeInfo,
    MonotoneMap,
    OperatorReport,
    QuotientFamily,
    QuotientMode,
    Role,
    subset_lattice,
)
from locale_forge.presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    RelationSchema,
    StabilityReport,
    StabilityVerdict,
)
from locale_forge.suites import SuiteResult
from locale_forge.terms import (
    Cond,
    EAtom,
    EOp,
    GenPattern,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    eparam,
    gen_term,
)
from locale_forge.transform import Provenance, QuotientSpec, SchematicCase, TransformedPresentation

POSET = FinitePoset.from_pairs(["0", "1"], [(0, 1)])
CHAIN = FiniteLattice.from_poset(POSET)
DOMAIN = FiniteGeneratorDomain(POSET)
P, Q = eparam("p"), eparam("q")
PATTERN = GenPattern("OI", (P, Q))
CLAUSE = SchemaClause((PATTERN,), ("p", "q"), (Cond("<", (P,), (Q,)),))
SCHEMA_TERM = SchemaTerm((CLAUSE,))
FAMILY = QuotientFamily("open", "dia", Role.CLOSURE_OP, ("meet",))
VERDICT = StabilityVerdict(0, "syntacticPass")

# each record class, the arguments of one instance, and the fields its
# equality and hash read
RECORDS = [
    (EAtom, ("p", EAtom().const, True, 1), ("param", "const", "with_index", "offset")),
    (EOp, ("max", P, Q), ("op", "left", "right")),
    (Cond, ("<", (P,), (Q,)), ("op", "left", "right")),
    (GenPattern, ("OI", (P, Q), ("dia",)), ("ctor", "args", "tags")),
    (Meet, (("0", "1"),), ("gens",)),
    (Term, ((Meet(("0",)),),), ("clauses",)),
    (SchemaClause, ((PATTERN,), ("p", "q"), (), None, True), ("meet", "bound", "conds", "int_var", "directed")),
    (SchemaTerm, ((CLAUSE,),), ("clauses",)),
    (FinitePoset, (("0", "1"), (3, 2)), ("elements", "up")),
    (FiniteLattice, (POSET, True, 1, 0), ("poset", "distributive", "top", "bottom")),
    (MonotoneMap, (CHAIN, CHAIN, (0, 1)), ("source", "target", "table")),
    (OperatorReport, (False, (("idempotent", ("0",)),), ("a note",)), ("verdict", "witnesses", "notes")),
    (QuotientFamily, ("open", "dia", Role.CLOSURE_OP, ("meet",)), ("name", "tag", "role", "ops")),
    (ModeInfo, (FAMILY, True, ("idempotent",)), ("family", "semi", "laws")),
    (Relation, (gen_term("0"), gen_term("1"), "<="), ("lhs", "rhs", "op")),
    (RelationSchema, (("p", "q"), (), SCHEMA_TERM, SCHEMA_TERM), ("params", "conds", "lhs", "rhs", "op")),
    (Presentation, (PresentationKind.SUP, DOMAIN, ()), ("kind", "domain", "relations")),
    (StabilityVerdict, (1, "fail", "0", None), ("relation_index", "verdict", "witness_generator", "missing")),
    (StabilityReport, ((VERDICT,), "oracle-allowed"), ("verdicts", "policy")),
    (SchematicCase, ((), (), SCHEMA_TERM), ("pin", "conds", "term")),
    (QuotientSpec, (QuotientMode.OPEN, DOMAIN, (("0", gen_term("0")),)), ("mode", "domain", "image", "cases")),
    (Provenance, ("0" * 16, "open", ()), ("parent_hash", "mode", "image")),
    (
        TransformedPresentation,
        (PresentationKind.PLAIN, DOMAIN, (), Provenance("0" * 16, "open", ())),
        ("kind", "domain", "relations", "provenance"),
    ),
    (
        PresentedObject,
        ("frame", CHAIN, {"0": 0}, DOMAIN, True, len),
        ("category", "carrier", "interp", "domain", "fold", "side_value"),
    ),
    (Token, ("name", "a", 1, 2), ("kind", "text", "line", "col")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_equality_and_hash_read_the_compared_fields_of_one_class(cls, args, fields):
    x, y = cls(*args), cls(*args)
    assert x == y and not x != y
    twin = type(cls.__name__, (cls,), {})(*args)
    assert x != twin and twin != x
    key = tuple(getattr(x, name) for name in fields)
    if cls is PresentedObject:  # its interpretation is a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(key)


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, args, fields):
    x = cls(*args)
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(x, fields[0]))
    with pytest.raises(AttributeError):
        delattr(x, fields[-1])
    assert getattr(x, fields[0]) is args[0]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_pickle_and_copy_rebuild_an_equal_record(cls, args, fields):
    x = cls(*args)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls
        assert all(getattr(y, name) == getattr(x, name) for name in fields)


def test_a_lattice_held_as_downsets_is_the_record_of_its_order():
    """``of_downsets`` gives the record ``subset_lattice`` builds from the
    same masks and labels; pickle and copy rebuild it from its order."""
    held, built = FiniteLattice.of_downsets(POSET.down, [0, 1, 3], str), subset_lattice([0, 1, 3], str)
    for y in (held, pickle.loads(pickle.dumps(held)), copy.copy(held), copy.deepcopy(held)):
        assert type(y) is FiniteLattice
        assert y == built and hash(y) == hash(built) and repr(y) == repr(built)
        assert (y.poset, y.elements, y.top, y.bottom) == (built.poset, ("0", "1", "3"), 2, 0)


def test_the_repr_names_the_shown_fields():
    assert repr(Meet(("a",))) == "Meet(gens=('a',))"
    assert repr(POSET) == "FinitePoset(elements=('0', '1'), up=(3, 2))"
    assert repr(Relation(gen_term("0"), gen_term("1"))) == (
        "Relation(lhs=Term(clauses=(Meet(gens=('0',)),)), rhs=Term(clauses=(Meet(gens=('1',)),)), op='=')"
    )
    shown = repr(PresentedObject("frame", CHAIN, {}, DOMAIN, True, len))
    assert shown.startswith("PresentedObject(category='frame', carrier=FiniteLattice(poset=")
    assert shown.endswith(f", interp={{}}, domain={DOMAIN!r})")


def test_a_poset_compares_its_elements_and_order_only():
    assert FinitePoset(("0", "1"), (3, 2), (1, 3)) == POSET
    assert POSET.by_down == {1: 0, 3: 1} and POSET.by_up == {3: 0, 2: 1}


def test_a_quotient_never_equals_its_parent_presentation():
    parent = Presentation(PresentationKind.SUP, DOMAIN, ())
    quotient = TransformedPresentation(PresentationKind.SUP, DOMAIN, ())
    assert parent != quotient and quotient != parent
    assert quotient.provenance is None
    assert parent.memo is parent.memo and quotient.memo is not parent.memo


def test_construction_checks_keep_their_text():
    t = gen_term("0")
    with pytest.raises(PresentationError, match=r"^bad relation operator '<'$"):
        Relation(t, t, "<")
    with pytest.raises(PresentationError, match=r"^schema parameter 'r' occurs in neither side$"):
        RelationSchema(("p", "q", "r"), (), SCHEMA_TERM, SCHEMA_TERM)


def test_suite_results_are_mutable_unhashable_and_own_their_failures():
    a, b = SuiteResult("x"), SuiteResult("x")
    assert a == b
    a.record(0, False, "why")
    assert a.failures == ["instance 0: why"] and b.failures == []
    assert a != b and (a.total, a.passed) == (1, 0)
    assert repr(b) == "SuiteResult(name='x', total=0, passed=0, failures=[])"
    with pytest.raises(TypeError):
        hash(a)
