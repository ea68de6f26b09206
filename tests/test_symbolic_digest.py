"""A pinned digest of the symbolic layer on seeded finite presentations:
the relations ``saturate`` returns, ``check_kind``'s reports under both
policies (witnesses and missing relations included) and the output of
``present`` with its provenance, for every quotient mode.

The pinned value was taken before stability instances and the finite pair
relations moved from generator strings to generator indices, so any change
in what the symbolic layer computes shows here.  It moved once since, when
``check_kind``'s oracle came to read sides and to vouch for nothing where
the kind's evaluation raises: 92 oracle reports that raised
``EvaluationError`` now give a report (81) or the domain's own error (11),
and no report changed.  It moved again when the oracle came to vouch for
nothing over a domain without the kind's structure, as under the syntactic
policy: 20 of the 1830 records changed, all ``check`` records of raw
presentations over such domains.  In 15 the oracle report's
``oraclePass`` verdicts became the syntactic report's failures; in 5
(seeds 16, 20, 25, 26 and 33, dcpo over a domain without joins) the oracle
policy raised "finite domain is not join-closed" where the syntactic one
gave a report, and now gives that report too."""

import hashlib
import random

from locale_forge.evaluate import (
    EVALUATORS,
    EvaluationError,
    eval_dcpo,
    eval_frame,
    eval_preframe,
    eval_suplattice,
    verify_coverage,
)
from locale_forge.generators import DomainError, FiniteGeneratorDomain, domain_from_descriptor
from locale_forge.lattice import FiniteLattice, QuotientMode
from locale_forge.presentation import (
    Presentation,
    PresentationKind,
    Relation,
    check_kind,
    instance_kernel,
    relation_sides,
    saturate,
)
from locale_forge.suites import (
    _RAND_BY_KIND,
    rand_distributive_domain,
    rand_join_semilattice_domain,
    rand_meet_semilattice_domain,
    rand_poset,
    rand_quotient_operator,
)
from locale_forge.terms import Meet, Term
from locale_forge.transform import identity_spec, present, spec_from_operator

from conftest import assert_held_as_its_subset_lattice

KINDS = (PresentationKind.SUP, PresentationKind.PREFRAME, PresentationKind.DCPO)


def rand_term(rng: random.Random, gens) -> Term:
    """A join of up to two meets of up to two generators, unnormalised."""
    clauses = (rng.sample(gens, min(rng.randint(0, 2), len(gens))) for _ in range(rng.randint(0, 2)))
    return Term(tuple(Meet(tuple(c)) for c in clauses))


def raw_relations(rng: random.Random):
    """Random relations over one domain of each flavour: meet- and
    join-semilattices, a distributive lattice and a bare poset."""
    for domain in (
        rand_meet_semilattice_domain(rng),
        rand_join_semilattice_domain(rng),
        rand_distributive_domain(rng),
        FiniteGeneratorDomain(rand_poset(rng, rng.randint(1, 3))),
    ):
        gens = domain.enumerate_gens()
        rels = []
        for _ in range(rng.randint(1, 3)):
            rels.append(Relation(rand_term(rng, gens), rand_term(rng, gens), rng.choice(("=", "<="))))
        yield domain, tuple(rels)


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))


def report_record(p: Presentation):
    out = []
    for oracle in (True, False):
        rep, err = attempt(check_kind, p, oracle=oracle)
        if err:
            out.append(err)
            continue
        out.append(
            (rep.policy,)
            + tuple((v.relation_index, v.verdict, v.witness_generator, str(v.missing)) for v in rep.verdicts)
        )
    return out


def present_record(p: Presentation, spec):
    out, err = attempt(present, p, spec)
    if err:
        return err
    prov = out.provenance
    return (str(out.kind), [str(r) for r in out.relations], prov.parent_hash, prov.mode, prov.image)


def symbolic_records(seed: int):
    rng = random.Random(seed)
    for domain, rels in raw_relations(rng):
        for kind in KINDS:
            raw = Presentation(kind, domain, rels)
            yield "check", kind.value, report_record(raw)
            sat, err = attempt(saturate, raw, kind)
            if err:
                yield "saturate", kind.value, err
                continue
            yield "saturate", kind.value, sat.domain.descriptor(), [str(r) for r in sat.relations]
            if len(sat.relations) > 1:
                # one relation short of saturated: some instances are now
                # derivable only, or missing
                k = rng.randrange(len(sat.relations))
                cut = Presentation(kind, sat.domain, sat.relations[:k] + sat.relations[k + 1:])
                yield "check-cut", kind.value, report_record(cut)
    for kind, draw in _RAND_BY_KIND.items():
        p = draw(rng)
        parent = eval_frame(p)
        for mode in QuotientMode:
            if mode.info.family.ops != kind.ops:
                continue
            e = rand_quotient_operator(rng, parent.carrier, mode)
            yield "present", mode.value, present_record(p, spec_from_operator(parent, e, mode))
            yield "identity", mode.value, present_record(p, identity_spec(p.domain, mode))


class TestSymbolicDigest:
    PINNED = (1830, "50ce51d85820c45c4a0a0171cb28a3647def312234448437222e9f78be8e3e77")

    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        count = 0
        for seed in range(40):
            for record in symbolic_records(seed):
                h.update(repr(record).encode())
                count += 1
        assert (count, h.hexdigest()) == self.PINNED


class TestHandOff:
    """``saturate`` hands its sides and its stability instances to the
    ``check_kind`` that follows; a copy over a fresh domain object has
    neither, and must get the same reports."""

    def test_handoff_digest_matches_a_fresh_domain(self):
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            for domain, rels in raw_relations(rng):
                for kind in KINDS:
                    sat, err = attempt(saturate, Presentation(kind, domain, rels), kind)
                    if err:
                        continue
                    fresh = Presentation(kind, domain_from_descriptor(sat.domain.descriptor()), sat.relations)
                    assert ("sides", False) in sat.memo and not fresh.memo
                    for oracle in (True, False):
                        assert check_kind(sat, oracle=oracle) == check_kind(fresh, oracle=oracle)
                    checked += 1
        assert checked > 100


def repeating(rels):
    """The relations with the first generator of every clause and the first
    clause of every side written twice."""

    def twice(t: Term) -> Term:
        clauses = tuple(Meet(c.gens + c.gens[:1]) for c in t.clauses)
        return Term(clauses + clauses[:1])

    return tuple(Relation(twice(r.lhs), twice(r.rhs), r.op) for r in rels)


def raw_presentations(seeds):
    """Each kind over the ``raw_relations`` of each seed, as drawn and with
    repeated generators and clauses."""
    for seed in seeds:
        for domain, rels in raw_relations(random.Random(seed)):
            for kind in KINDS:
                for written in (rels, repeating(rels)):
                    yield Presentation(kind, domain, written)


def evaluation(evaluate, p):
    """The carrier, ``interp`` and relation side values of one evaluation,
    or the error it raised."""
    obj, err = attempt(evaluate, p)
    if err:
        return err
    values = [(obj.term_value(r.lhs), obj.term_value(r.rhs)) for r in p.concrete_relations()]
    return obj.carrier_poset, sorted(obj.interp.items()), values


# whether each evaluator reads a presentation's sides with meets folded
READS = {
    eval_frame: lambda p: p.kind.folds_meets and p.domain.meet_semilattice,
    eval_suplattice: lambda p: True,
    eval_preframe: lambda p: False,
    eval_dcpo: lambda p: True,
}


class TestDownsetCarrier:
    def test_eval_frame_carriers_are_held_as_their_subset_lattices(self, monkeypatch):
        """Every carrier ``eval_frame`` builds over the digest's seeds
        answers, equals and hashes as the lattice of its order."""
        held = []
        inner = FiniteLattice.of_downsets
        spy = lambda *args: held.append(args) or inner(*args)
        monkeypatch.setattr(FiniteLattice, "of_downsets", staticmethod(spy))
        for p in raw_presentations(range(40)):
            attempt(eval_frame, p)
        monkeypatch.undo()
        assert len(held) > 100 and max(len(masks) for _, masks, _ in held) > 8
        for args in held:
            assert_held_as_its_subset_lattice(*args)


class TestOneReading:
    """Every evaluator and ``check_kind``'s oracle read a relation as its
    sides (``relation_sides``), and nothing else."""

    def test_a_relation_and_its_sides_evaluate_alike(self):
        """Each evaluator gives a raw presentation the carrier, ``interp``
        and relation values it gives the relations rebuilt from the sides it
        reads.  And a presentation that passes its kind check over a domain
        with the kind's structure, raw or saturated, passes
        ``verify_coverage`` wherever both evaluators return: a kind
        evaluator that folded meets the frame keeps formal would fail."""
        returned = covered = 0
        for raw in raw_presentations(range(40)):
            kernel = instance_kernel(raw.domain)
            for evaluate, fold in READS.items():
                sides = relation_sides(raw, fold(raw))
                normal = Presentation(raw.kind, raw.domain, tuple(kernel.relation(*s) for s in sides))
                got = evaluation(evaluate, raw)
                assert got == evaluation(evaluate, normal), (evaluate.__name__, [str(r) for r in raw.relations])
                returned += not isinstance(got[0], str)
            for p in (raw, attempt(saturate, raw, raw.kind)[0]):
                if p is None or not getattr(p.domain, p.kind.structure[0]):
                    continue
                report, err = attempt(check_kind, p)
                if err or not report.ok or any(attempt(f, p)[1] for f in (eval_frame, EVALUATORS[p.kind])):
                    continue
                assert verify_coverage(p).verdict, [str(r) for r in p.relations]
                covered += 1
        assert returned > 2000 and covered > 1000

    def test_the_oracle_fails_only_what_the_syntax_fails(self):
        """Where the syntactic check reports, the oracle raises no
        ``EvaluationError``, and each relation it fails the syntax fails
        too; an evaluation that raises vouches for nothing."""
        compared = derived = 0
        for p in raw_presentations(range(40)):
            sat, err = attempt(saturate, p, p.kind)
            cuts = [] if err else [
                Presentation(p.kind, sat.domain, sat.relations[:k] + sat.relations[k + 1:])
                for k in range(0, len(sat.relations), 3)
            ]
            for q in [p] + cuts:
                syntactic, err = attempt(check_kind, q, oracle=False)
                if err:
                    continue
                try:
                    report = check_kind(q, oracle=True)
                except EvaluationError as exc:
                    raise AssertionError(f"the oracle raised where the syntax reports: {exc}") from exc
                except DomainError:
                    continue  # a later instance needs an operation the domain lacks
                for v, w in zip(report.verdicts, syntactic.verdicts):
                    assert v.verdict != "fail" or w.verdict == "fail"
                    derived += v.verdict == "oraclePass"
                compared += 1
        assert compared > 1000 and derived > 100
