"""locale-forge: presentations of frames and their locale quotients.

The package turns a presentation of a frame by generators and relations
into a presentation of an open, proper or triquotient quotient (and their
semi variants) by mechanical rewriting of the relation schema, and checks
every transformation against a brute-force finite oracle: the presented
frame of the output must be order isomorphic to the fixed points of the
quotient operator on the presented frame of the input.

The root is lazy: ``import locale_forge`` loads no submodule.  Each name
below, and each submodule, is imported on first use (PEP 562), so a
process compiles and runs only the modules it reaches.
"""

import importlib

# each re-exported name, and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "FiniteLattice",
            "FinitePoset",
            "MonotoneMap",
            "OperatorReport",
            "QuotientMode",
            "Role",
            "check_quotient_operator",
            "classify_open",
            "classify_proper",
            "coequaliser_closure",
            "downsets",
            "fixed_points",
            "interior_from_pair",
            "kleene_closure",
            "left_adjoint",
            "poset_isomorphism",
            "right_adjoint",
        ),
        "lattice",
    ),
    **dict.fromkeys(("FiniteGeneratorDomain", "GeneratorDomain", "TaggedDomain"), "generators"),
    **dict.fromkeys(("GenPattern", "Meet", "Term", "normalize"), "terms"),
    **dict.fromkeys(
        (
            "Presentation",
            "PresentationKind",
            "Relation",
            "RelationSchema",
            "StabilityReport",
            "check_kind",
            "instantiate_schemas",
            "saturate",
        ),
        "presentation",
    ),
    **dict.fromkeys(
        (
            "PresentedObject",
            "eval_dcpo",
            "eval_frame",
            "eval_preframe",
            "eval_suplattice",
            "verify_coverage",
        ),
        "evaluate",
    ),
    **dict.fromkeys(
        (
            "QuotientSpec",
            "SchematicCase",
            "TransformedPresentation",
            "derive_spec_from_coinserter",
            "identity_spec",
            "present",
            "present_open",
            "present_proper",
            "present_semi_open",
            "present_semi_proper",
            "present_semi_triquotient",
            "present_triquotient",
            "spec_from_operator",
        ),
        "transform",
    ),
    **dict.fromkeys(
        (
            "ClosedComplementDomain",
            "OpenIntervalDomain",
            "circle_open_presentation",
            "circle_open_spec",
            "circle_proper_presentation",
            "circle_proper_spec",
            "nat_reverse_counterexample",
            "real_presentation",
            "unit_interval_presentation",
        ),
        "intervals",
    ),
    **dict.fromkeys(("ParseError", "parse", "print_presentation", "print_spec"), "dsl"),
}

_SUBMODULES = frozenset(
    (
        "cli",
        "dsl",
        "evaluate",
        "generators",
        "intervals",
        "lattice",
        "presentation",
        "rationals",
        "records",
        "serialize",
        "suites",
        "terms",
        "transform",
    )
)

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Nothing is cached here: the submodule's binding is the one answer, also
    # while a caller has patched it.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
