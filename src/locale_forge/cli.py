"""Command-line driver.

Verbs:

* ``check``      stability report for a presentation file
* ``eval``       evaluate a presentation to a finite structure
* ``transform``  apply a quotient spec to a presentation
* ``verify``     run the randomized coverage / oracle-equivalence suites
* ``example``    emit a built-in golden artifact
* ``derive``     read a quotient spec off finite coinserter data

Exit codes: 0 success, 1 check/verify failure, 2 usage or input error,
3 internal invariant violation.  Output is deterministic for identical
inputs; the default suite seed can be overridden with LOCALE_FORGE_SEED.

Each verb imports the modules it uses inside its own function, and only
on the branch that needs them: ``dsl`` for text input and output,
``serialize`` for JSON, ``suites`` for ``verify``, ``intervals`` for the
circle and nat examples.  Module level imports only what every verb
loads anyway (``presentation`` and the modules under it), so a process
started from source compiles no module its verb never calls.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from typing import Optional

from .generators import DomainError, UnknownDomainError
from .lattice import (
    LatticeError,
    MonotoneMap,
    QuotientMode,
    as_frame_hom,
    fixed_points,
    kleene_closure,
    poset_isomorphism,
)
from .presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    check_kind,
    on_grid,
)
from .rationals import parse_extrat
from .terms import TermError

# the kinds with a discipline of their own, each with its own evaluator
# (``evaluate.EVALUATORS``)
_DISCIPLINED_KINDS = [k for k in PresentationKind if k.ops]
_MODE_NAMES = [m.cli_name for m in QuotientMode]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's own errors raise ``UsageError``, so ``main`` reports them
    as the ``input`` diagnostic, as it does every other usage error."""

    def error(self, message: str):
        raise UsageError(message)


def _parse_grid(text):
    if text is None:
        return None
    try:
        grid = [parse_extrat(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not grid:
        raise UsageError("empty instantiation grid")
    return grid


@contextmanager
def _document(path: str):
    """Reading the JSON document at ``path``: a missing key, a value of the
    wrong shape or a domain of unknown type (as in a text file) is an input
    error."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UsageError(f"malformed document {path}: {what}") from None
    except UnknownDomainError as exc:
        raise UsageError(str(exc)) from None


def _load(path: str, kind: type):
    """The presentation or quotient spec (``kind``) in the file at ``path``;
    a file holding the other one is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if path.endswith(".json"):
        from . import serialize

        doc = json.loads(source)
        with _document(path):
            if "mode" in doc:
                out = serialize.spec_from_jsonable(doc)
            else:
                out = serialize.presentation_from_jsonable(doc)
    else:
        from .dsl import ParseError, parse

        try:
            out = parse(source)
        except ParseError as exc:
            raise UsageError(str(exc)) from None
    if not isinstance(out, kind):
        raise UsageError(f"{path} holds a {type(out).__name__}, not a {kind.__name__}")
    return out


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_presentation(p: Presentation, fmt: str) -> None:
    if fmt == "json":
        from .serialize import presentation_to_jsonable

        _emit_json(presentation_to_jsonable(p))
    else:
        from .dsl import print_presentation

        sys.stdout.write(print_presentation(p))


# ---------------------------------------------------------------------------
# verbs


def _presentation_on(args) -> tuple[Presentation, Optional[list]]:
    """The presentation in ``args.input`` and the grid of ``args.grid``.  A
    finite presentation without schemas is read as it is (``on_grid``), so
    a grid given for it is an input mistake."""
    p = _load(args.input, Presentation)
    grid = _parse_grid(args.grid)
    if grid is not None and p.domain.finite and not p.schematic:
        raise UsageError("--grid given for a finite presentation without schemas, which has nothing to instantiate")
    return p, grid


def cmd_check(args) -> int:
    p, grid = _presentation_on(args)
    report = check_kind(p, grid=grid, oracle=not args.no_oracle)
    if args.format == "json":
        from .serialize import stability_to_jsonable

        _emit_json(stability_to_jsonable(report))
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    from .evaluate import EVALUATORS, eval_frame

    p = on_grid(*_presentation_on(args), "eval")
    if args.category == "frame":
        obj = eval_frame(p)
    else:
        obj = EVALUATORS[PresentationKind(args.category)](p)
    if args.format == "json":
        from .serialize import presented_to_jsonable

        _emit_json(presented_to_jsonable(obj))
    else:
        sys.stdout.write(f"{obj.category} carrier with {obj.carrier.n} elements\n")
        for e in obj.carrier.elements:
            sys.stdout.write(f"  {e}\n")
    return 0


def cmd_transform(args) -> int:
    from .transform import QuotientSpec, TransformError, present

    p = _load(args.input, Presentation)
    spec = _load(args.spec, QuotientSpec)
    if args.mode:
        mode = QuotientMode.parse(args.mode)
        if mode is not spec.mode:
            raise TransformError(
                f"spec mode {spec.mode.value} does not match transformer {mode.value}"
            )
    _emit_presentation(present(p, spec, check=not args.no_check), args.format)
    return 0


def cmd_verify(args) -> int:
    if args.mode and not args.oracle:
        raise UsageError("--mode applies only to --oracle")
    if args.kind and not args.coverage:
        raise UsageError("--kind applies only to --coverage")
    from . import suites

    seed = args.seed
    if seed is None:
        text = os.environ.get("LOCALE_FORGE_SEED")
        try:
            seed = suites.DEFAULT_SEED if text is None else int(text)
        except ValueError:
            raise UsageError(f"LOCALE_FORGE_SEED is not an integer: {text!r}") from None
    results = []
    if args.coverage:
        kinds = [PresentationKind(args.kind)] if args.kind else _DISCIPLINED_KINDS
        for kind in kinds:
            results.append(suites.suite_coverage(kind, seed, args.count))
    elif args.oracle:
        if args.mode == "cross":
            results.append(suites.suite_cross_mode(seed, args.count))
        elif args.mode:
            results.append(
                suites.suite_oracle_equivalence(QuotientMode.parse(args.mode), seed, args.count)
            )
        else:
            for mode in QuotientMode:
                results.append(suites.suite_oracle_equivalence(mode, seed, args.count))
            results.append(suites.suite_cross_mode(seed, args.count))
    else:
        results.append(suites.suite_kleene(seed, args.count))
    ok = all(r.ok for r in results)
    if args.format == "json":
        _emit_json(
            [
                {
                    "suite": r.name,
                    "total": r.total,
                    "passed": r.passed,
                    "failures": r.failures,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            sys.stdout.write(r.summary() + "\n")
    return 0 if ok else 1


def _z2_swap_artifact():
    """The two-point discrete locale glued by its swap: the derived spec
    identifies the atoms and the quotient presents the one-point locale.
    The document holds the objects themselves, which ``example z2-swap``
    turns into JSON only for JSON output."""
    from .evaluate import eval_frame
    from .generators import FiniteGeneratorDomain
    from .lattice import FinitePoset
    from .presentation import Relation
    from .terms import TERM_ZERO, gen_term, join_of
    from .transform import derive_spec_from_coinserter, present

    # labels must have a text form: "top" is a reserved word of the DSL
    poset = FinitePoset.from_pairs(["bot", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    domain = FiniteGeneratorDomain(poset, use_meet=True, use_join=False)
    parent = Presentation(
        PresentationKind.SUP,
        domain,
        (Relation(join_of(["a", "b"]), gen_term("t")), Relation(gen_term("bot"), TERM_ZERO)),
    )
    frame = eval_frame(parent)
    X = frame.carrier
    swap_lab = {"bot": "bot", "a": "b", "b": "a", "t": "t"}
    idx = {e: i for i, e in enumerate(X.elements)}
    swap = as_frame_hom(MonotoneMap(X, X, tuple(idx[swap_lab[e]] for e in X.elements)))
    ident = as_frame_hom(MonotoneMap(X, X, tuple(range(X.n))))
    spec = derive_spec_from_coinserter(frame, ident, swap, QuotientMode.OPEN, coequaliser=True)
    out = present(parent, spec)
    quotient = eval_frame(out)
    closure = kleene_closure(MonotoneMap(X, X, swap.table))
    sub, retr = fixed_points(closure)
    pinned = [
        (quotient.interp[out.domain.wrap(g)], retr(frame.interp[g])) for g in frame.interp
    ]
    iso = poset_isomorphism(quotient.carrier.poset, sub.poset, pinned)
    return {
        "parent": parent,
        "derivedSpec": spec,
        "transformed": out,
        "parentFrame": frame,
        "quotientFrame": quotient,
        "fixedPoints": sub,
        "quotientIsTwoChain": quotient.carrier.n == 2,
        "matchesFixedPoints": iso is not None,
    }, spec, out, quotient


def cmd_example(args) -> int:
    name = args.name
    if args.simplify and name != "circle-proper":
        raise UsageError("--simplify applies only to the circle-proper example")
    if name in ("circle-open", "circle-proper"):
        from . import intervals

        if name == "circle-open":
            out = intervals.circle_open_presentation()
        else:
            out = intervals.circle_proper_presentation(simplify=args.simplify)
        _emit_presentation(out, args.format)
        return 0
    if name == "z2-swap":
        doc, spec, out, quotient = _z2_swap_artifact()
        if args.format == "json":
            from . import serialize

            # the entries not named here are JSON already
            to_json = {
                "parent": serialize.presentation_to_jsonable,
                "derivedSpec": serialize.spec_to_jsonable,
                "transformed": serialize.presentation_to_jsonable,
                "parentFrame": serialize.presented_to_jsonable,
                "quotientFrame": serialize.presented_to_jsonable,
                "fixedPoints": serialize.lattice_to_jsonable,
            }
            _emit_json({k: to_json[k](v) if k in to_json else v for k, v in doc.items()})
        else:
            from .dsl import print_presentation, print_spec

            sys.stdout.write("derived quotient spec:\n")
            sys.stdout.write(print_spec(spec))
            sys.stdout.write("\ntransformed presentation:\n")
            sys.stdout.write(print_presentation(out))
            sys.stdout.write(
                f"\nquotient frame: {quotient.carrier.n} elements "
                f"({', '.join(quotient.carrier.elements)})\n"
            )
        return 0
    if name == "nat-reverse":
        from .intervals import nat_reverse_counterexample

        rep = nat_reverse_counterexample()
        if args.format == "json":
            from .serialize import report_to_jsonable

            _emit_json(report_to_jsonable(rep))
        else:
            verdict = "established" if rep.verdict else "FAILED"
            sys.stdout.write(f"gluing N along successor: counterexample {verdict}\n")
            for n in rep.notes:
                sys.stdout.write(f"  {n}\n")
        return 0 if rep.verdict else 1
    raise UsageError(f"unknown example {name!r}")


def cmd_derive(args) -> int:
    from . import serialize
    from .evaluate import eval_frame
    from .transform import derive_spec_from_coinserter

    with open(args.input, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    with _document(args.input):
        parent = serialize.presentation_from_jsonable(bundle["parent"])
    frame = eval_frame(parent)
    X = frame.carrier
    with _document(args.input):
        target = serialize.lattice_from_jsonable(bundle["target"])
    t_idx = {e: i for i, e in enumerate(target.elements)}
    x_idx = {e: i for i, e in enumerate(X.elements)}

    def read_map(key: str) -> MonotoneMap:
        table = [None] * X.n
        with _document(args.input):
            for src_label, dst_label in bundle[key].items():
                if src_label not in x_idx:
                    raise UsageError(
                        f"malformed document {args.input}: {key} maps {src_label!r}, "
                        "which is not an element of the parent"
                    )
                if dst_label not in t_idx:
                    raise UsageError(
                        f"malformed document {args.input}: {key} sends {src_label!r} to {dst_label!r}, "
                        "which is not an element of the target"
                    )
                table[x_idx[src_label]] = t_idx[dst_label]
        if None in table:
            missing = X.elements[table.index(None)]
            raise UsageError(f"malformed document {args.input}: {key} gives no image of the parent element {missing!r}")
        return as_frame_hom(MonotoneMap(X, target, tuple(table)))

    fstar = read_map("fstar")
    gstar = read_map("gstar")
    mode = QuotientMode.parse(args.mode)
    spec = derive_spec_from_coinserter(frame, fstar, gstar, mode, coequaliser=args.coequaliser)
    if args.format == "json":
        _emit_json(serialize.spec_to_jsonable(spec))
    else:
        from .dsl import print_spec

        sys.stdout.write(print_spec(spec))
    return 0


# ---------------------------------------------------------------------------


def _mode_name(text: str) -> str:
    """``--mode``: a mode's JSON spelling (``semiOpen``) reads as its
    command-line name; any other text is left to argparse's ``choices``."""
    try:
        return QuotientMode.parse(text).cli_name
    except ValueError:
        return text


def _suite_count(text: str) -> int:
    """``verify --count``: a suite that runs no instance passes vacuously,
    so fewer than one is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="locale-forge",
        description="frame presentations and their open/proper/triquotient locale quotients",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("check", help="stability report for a presentation")
    sp.add_argument("input")
    sp.add_argument("--grid", help="comma-separated rationals for schema instantiation")
    sp.add_argument("--no-oracle", action="store_true", help="syntactic verdicts only")
    add_common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("eval", help="evaluate a presentation")
    sp.add_argument("input")
    sp.add_argument("--grid")
    sp.add_argument("--category", choices=["frame", *(k.value for k in _DISCIPLINED_KINDS)], default="frame")
    add_common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("transform", help="apply a quotient spec")
    sp.add_argument("input")
    sp.add_argument("--spec", required=True)
    sp.add_argument(
        "--mode", type=_mode_name, choices=_MODE_NAMES, help="the spec's mode; any other mode is an error"
    )
    sp.add_argument("--no-check", action="store_true")
    add_common(sp)
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("verify", help="run randomized verification suites")
    suite = sp.add_mutually_exclusive_group(required=True)
    for flag in ("--coverage", "--oracle", "--kleene"):
        suite.add_argument(flag, action="store_true")
    sp.add_argument("--kind", choices=[k.value for k in _DISCIPLINED_KINDS])
    sp.add_argument(
        "--mode", type=_mode_name, choices=[*_MODE_NAMES, "cross"], help="quotient mode, or 'cross'"
    )
    sp.add_argument("--seed", type=int)
    sp.add_argument("--count", type=_suite_count, default=100)
    add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("example", help="emit a built-in golden artifact")
    sp.add_argument("name", choices=["circle-open", "circle-proper", "z2-swap", "nat-reverse"])
    sp.add_argument("--simplify", action="store_true", help="circle-proper only")
    add_common(sp)
    sp.set_defaults(fn=cmd_example)

    sp = sub.add_parser("derive", help="quotient spec from finite coinserter data")
    sp.add_argument("input", help="JSON bundle with parent, target, fstar, gstar")
    sp.add_argument("--mode", type=_mode_name, choices=_MODE_NAMES, required=True)
    sp.add_argument("--coequaliser", action="store_true")
    add_common(sp)
    sp.set_defaults(fn=cmd_derive)
    return ap


def _error_doc(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "detail": str(exc)}, sort_keys=True)


# a grid whose first point is negative: -3, -1/2, -.5, -inf, -oo
_NEGATIVE_GRID = re.compile(r"-(\d|\.\d|inf|oo)")


def _attach_grid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--grid -1/2,1`` as ``--grid=-1/2,1``: argparse takes a
    value that starts with ``-`` for an option unless it is a bare number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and _NEGATIVE_GRID.match(arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_grid_values(sys.argv[1:] if argv is None else list(argv)))
        return args.fn(args)
    except SystemExit as exc:
        # only --help exits from the parser: its errors raise UsageError
        return exc.code
    except (UsageError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(_error_doc("input", exc) + "\n")
        return 2
    # TransformError is a PresentationError
    except (PresentationError, DomainError, TermError, LatticeError, ValueError) as exc:
        sys.stderr.write(_error_doc("module", exc) + "\n")
        return 2
    except Exception as exc:  # pragma: no cover - invariant violations
        sys.stderr.write(_error_doc("internal", exc) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
