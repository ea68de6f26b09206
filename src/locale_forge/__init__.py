"""locale-forge: presentations of frames and their locale quotients.

The package turns a presentation of a frame by generators and relations
into a presentation of an open, proper or triquotient quotient (and their
semi variants) by mechanical rewriting of the relation schema, and checks
every transformation against a brute-force finite oracle: the presented
frame of the output must be order isomorphic to the fixed points of the
quotient operator on the presented frame of the input.
"""

from .lattice import (
    FiniteLattice,
    FinitePoset,
    MonotoneMap,
    OperatorReport,
    QuotientMode,
    Role,
    check_quotient_operator,
    check_reflexive_section,
    classify_open,
    classify_proper,
    coequaliser_closure,
    coinserter_transitivity_check,
    downsets,
    fixed_points,
    interior_from_pair,
    kleene_closure,
    left_adjoint,
    poset_isomorphism,
    prefixed_subframe,
    right_adjoint,
)
from .generators import FiniteGeneratorDomain, GeneratorDomain, TaggedDomain
from .terms import GenPattern, Meet, Term, normalize
from .presentation import (
    Presentation,
    PresentationKind,
    Relation,
    RelationSchema,
    StabilityReport,
    check_kind,
    instantiate_schemas,
    saturate,
)
from .evaluate import (
    PresentedObject,
    eval_dcpo,
    eval_frame,
    eval_preframe,
    eval_suplattice,
    verify_coverage,
)
from .transform import (
    QuotientSpec,
    SchematicCase,
    TransformedPresentation,
    derive_spec_from_coinserter,
    identity_spec,
    present,
    present_open,
    present_proper,
    present_semi_open,
    present_semi_proper,
    present_semi_triquotient,
    present_triquotient,
    spec_from_operator,
)
from .intervals import (
    ClosedComplementDomain,
    NatReverseDomain,
    OpenIntervalDomain,
    circle_open_presentation,
    circle_open_spec,
    circle_proper_presentation,
    circle_proper_spec,
    expand_family_meet,
    nat_reverse_counterexample,
    real_presentation,
    unit_interval_presentation,
)
from .dsl import ParseError, parse, print_presentation, print_spec

__version__ = "0.1.0"
