"""A pinned digest of the symbolic layer on seeded finite presentations:
the relations ``saturate`` returns, ``check_kind``'s reports under both
policies (witnesses and missing relations included) and the output of
``present`` with its provenance, for every quotient mode.

The pinned value was taken before stability instances and the finite pair
relations moved from generator strings to generator indices, so any change
in what the symbolic layer computes shows here."""

import hashlib
import random

from locale_forge.evaluate import eval_frame
from locale_forge.generators import FiniteGeneratorDomain, domain_from_descriptor
from locale_forge.lattice import QuotientMode
from locale_forge.presentation import Presentation, PresentationKind, Relation, check_kind, saturate
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
    PINNED = (1830, "c9bce5d16d4631ab2640f5c45bdd2d4edf2b87be1e898e2301c0501fc530b540")

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
