"""Command line interface.

Subcommands: ``koszul`` (emit a Koszul complex problem file), ``star``
(run the transform and write the output), ``verify`` (re-check a written
output file), ``colon`` / ``saturate`` (run the oracles), ``iterate``
(run the round-by-round driver), ``info`` (print ranks and twists).

Exit codes: 0 success and all checks pass; 1 a verification check failed,
and nothing else; 2 a precondition or validation failed (a computation
that reaches a degree the packed monomials cannot hold included); 3 I/O or
parse error (an exponent or variable degree in the input that they cannot
hold included); 4 internal error: any other ``StarTransError``, which the
engine's guarantees rule out (a bug, not bad input).  ``main`` alone maps
an exception to its exit code, by kind, wherever it is raised.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .complexes import check_complex, koszul, validate_sop
from .errors import (
    IterationLimit,
    MonomialOverflow,
    NotASop,
    ParseError,
    PreconditionFailed,
    StarTransError,
    ValidationError,
)
from .fields import field_from_spec
from .instances import random_instance
from .modules import colon, ideal_gb
from .poly import NAME_PATTERN, PolyRing, format_polynomial
from .problemfile import (
    ProblemFile,
    _parse_unchecked,
    emit_problem,
    emit_star,
    parse_problem,
    problem_to_jsonable,
    star_from_problem,
)
from .transform import star_transform
from .verify import saturate as saturate_op
from .verify import star_iteration_driver, verify_star

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and argparse looks up ``sys.stderr`` when it prints."""
    parser = argparse.ArgumentParser(
        prog="startrans",
        description="Exact transforms of acyclic complexes of graded free "
        "modules, with Groebner-basis verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--input", help="problem file (JSON)")
        if output:
            p.add_argument("--output", help="output file (JSON)")
        p.add_argument(
            "--field",
            help="override the coefficient field: rational | p:<prime>",
        )

    p = sub.add_parser("koszul", help="emit a Koszul-complex problem file")
    common(p)
    p.add_argument(
        "--generators",
        help="comma-separated polynomials to build the complex from "
        "(default: the file's sop)",
    )
    p.add_argument(
        "--seed", type=int, help="generate a random corpus instance instead"
    )

    p = sub.add_parser("star", help="run the transform and write the output")
    common(p)
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-parse the written file and verify it again",
    )

    p = sub.add_parser("verify", help="re-check a written output file")
    common(p, output=False)

    p = sub.add_parser("colon", help="colon module oracle")
    common(p)
    p.add_argument("--module", help="comma-separated ideal generators")
    p.add_argument("--ideal", help="comma-separated colon ideal generators")

    p = sub.add_parser("saturate", help="iterated colon until stable")
    common(p)
    p.add_argument("--module", help="comma-separated ideal generators")
    p.add_argument("--ideal", help="comma-separated saturation ideal")
    p.add_argument("--max-iter", type=int, default=32)

    p = sub.add_parser("iterate", help="run the iteration driver")
    common(p)
    p.add_argument("--max-iter", type=int, default=2, help="number of rounds")

    p = sub.add_parser("info", help="print ranks and twists")
    common(p, output=False)
    return parser


def _load(args):
    if not args.input:
        raise ParseError("--input is required")
    field = field_from_spec(args.field) if args.field else None
    return parse_problem(args.input, field)


def _standalone_ring(args, texts):
    names = sorted(set(re.findall(NAME_PATTERN, " ".join(texts))))
    if not names:
        raise ParseError("no variables found in the given polynomials")
    field = field_from_spec(args.field or "rational")
    return PolyRing(field, tuple(names))


def _print_generators(gb, output=None):
    gens = [format_polynomial(v.coords[0]) for v in gb.gb]
    text = ", ".join(gens) if gens else "0"
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump({"generators": gens}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {output}")


def _cmd_koszul(args):
    """Write the Koszul complex of a seeded random instance (``--seed``),
    or of ``--generators`` or else the parameters of the ``--input`` file.
    ``--seed`` with either of the others is a usage error, and so are
    generators that do not match the file's parameters in number: the
    problem file pairs the complex with those parameters, and its length
    must equal their number."""
    if args.seed is not None and (args.input or args.generators):
        raise ValidationError(
            "--seed generates its own instance; it takes no --input or --generators"
        )
    if args.seed is not None:
        field = field_from_spec(args.field) if args.field else None
        name, comp, sop = random_instance(args.seed, field=field)
        ring = comp.ring
        pf = ProblemFile(
            ring,
            tuple(format_polynomial(g) for g in sop.gens),
            comp,
        )
        print(f"generated instance {name}")
    else:
        base = _load(args)
        sop = validate_sop(base.ring, base.sop_polys())
        if args.generators:
            gens = [base.ring.parse(t) for t in args.generators.split(",")]
            if len(gens) != sop.n:
                raise ValidationError(
                    f"{len(gens)} generators give a complex of length "
                    f"{len(gens)}, but the file has {sop.n} parameters"
                )
            complex_sop = validate_sop(base.ring, gens)
        else:
            complex_sop = sop
        comp = koszul(complex_sop)
        pf = ProblemFile(base.ring, base.sop_texts, comp)
    if args.output:
        emit_problem(pf, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(problem_to_jsonable(pf), indent=1))
    return EXIT_OK


def _cmd_star(args):
    """Run the transform, print its report and write the output file.

    ``--verify`` (a usage error without ``--output``) reads the written
    file back (``_round_trip``) and prints the round-trip report.
    """
    if args.verify and not args.output:
        raise ValidationError(
            "--verify parses the written file back, so it needs --output"
        )
    pf = _load(args)
    sop = validate_sop(pf.ring, pf.sop_polys())
    result = star_transform(pf.complex, sop)
    for line in result.report.lines():
        print(line)
    if args.output:
        emit_star(result.star, result.report, args.output, pf, pf.complex)
        print(f"wrote {args.output}")
        if args.verify:
            report2 = _round_trip(args.output, pf, sop, result)
            print("round-trip verification:")
            for line in report2.lines():
                print(line)
            if not report2.overall:
                return EXIT_CHECKS_FAILED
    return EXIT_OK if result.report.overall else EXIT_CHECKS_FAILED


def _round_trip(path, pf, sop, result):
    """The report on the file ``star`` wrote at ``path``.

    The file is read back once, without the structural scans of its
    complexes (``_parse_unchecked``); an error reading it propagates, as
    ``parse_problem`` would raise it too.  When the file equals the objects
    this call validated and certified (``_reads_back``), their kept
    verdicts stand: an output that is not a complex is rejected as
    ``parse_problem`` rejects it, and the report is the one the build
    computed on those same objects (its lines carry no timings).  When
    anything differs, it goes through ``parse_problem`` and is validated
    and verified from scratch (``_verify_file``).
    """
    reparsed = _parse_unchecked(path)
    out = result.star.complex
    if _reads_back(reparsed, pf, sop, out):
        defect = check_complex(out)
        if defect is not None:
            raise ValidationError(f"not a valid complex: {defect.message}")
        return result.report
    return _verify_file(parse_problem(path))


def _reads_back(reparsed, pf, sop, out):
    """True iff a parsed output file equals what it was written from: the
    ring and its quotient (``PolyRing`` equality leaves the quotient out),
    the parameters, the source complex (whose labels are not written) and
    the output complex with its labels."""
    source = reparsed.source_complex
    return (
        reparsed.ring == pf.ring
        and reparsed.ring.quotient == pf.ring.quotient
        and reparsed.sop_polys() == sop.gens
        and source is not None
        and source.modules == pf.complex.modules
        and source.maps == pf.complex.maps
        and reparsed.complex == out
    )


def _verify_file(pf):
    """The report on a parsed output file, verified from scratch against
    its source complex, which it must have."""
    if pf.source_complex is None:
        raise ValidationError(
            "file has no source_complex block; nothing to verify against"
        )
    star = star_from_problem(pf)
    sop = validate_sop(pf.ring, pf.sop_polys())
    return verify_star(pf.source_complex, sop, star)


def _cmd_verify(args):
    report = _verify_file(_load(args))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.overall else EXIT_CHECKS_FAILED


def _colon_inputs(args):
    """Im phi_1 and the parameters of the ``--input`` file, or ``--module``
    and ``--ideal``, which go together and never with ``--input``."""
    standalone = (args.module is not None, args.ideal is not None)
    if any(standalone) and (args.input or not all(standalone)):
        raise ValidationError("--module and --ideal go together, and without --input")
    if all(standalone):
        texts = args.module.split(",") + args.ideal.split(",")
        ring = _standalone_ring(args, texts)
        module_gb = ideal_gb(ring, [ring.parse(t) for t in args.module.split(",")])
        ideal = [ring.parse(t) for t in args.ideal.split(",")]
        return module_gb, ideal
    pf = _load(args)
    module_gb = pf.complex.image_gb(1)
    return module_gb, list(pf.sop_polys())


def _cmd_colon(args):
    module_gb, ideal = _colon_inputs(args)
    result = colon(module_gb, ideal)
    _print_generators(result, args.output)
    return EXIT_OK


def _cmd_saturate(args):
    module_gb, ideal = _colon_inputs(args)
    result, updates = saturate_op(module_gb, ideal, args.max_iter)
    _print_generators(result, args.output)
    print(f"stable after {updates} update(s)")
    return EXIT_OK


def _cmd_iterate(args):
    pf = _load(args)
    sop = validate_sop(pf.ring, pf.sop_polys())
    driver = star_iteration_driver(pf.complex, sop, args.max_iter)
    ok = True
    for rnd in driver.rounds:
        report = rnd.result.report
        ok = ok and report.overall and rnd.matches
        ranks = [m.rank for m in rnd.result.star.complex.modules]
        print(
            f"round {rnd.index}: ranks {ranks}, oracle match "
            f"{'yes' if rnd.matches else 'NO'}, checks "
            f"{'pass' if report.overall else 'FAIL'}"
        )
        if args.output:
            path = f"{args.output}.round{rnd.index}.json"
            emit_star(
                rnd.result.star, report, path, pf, rnd.result.input_complex
            )
            print(f"  wrote {path}")
    print(f"stop: {driver.stop_reason}")
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def _cmd_info(args):
    pf = _load(args)
    comp = pf.complex
    print(f"field: {pf.ring.field.name}")
    vars_ = ", ".join(
        f"{n} (degree {w})" for n, w in zip(pf.ring.names, pf.ring.weights)
    )
    print(f"variables: {vars_}")
    if pf.ring.quotient:
        print(
            "quotient: "
            + ", ".join(format_polynomial(g) for g in pf.ring.quotient)
        )
    print(f"sop: {', '.join(pf.sop_texts)}")
    print(f"length: {comp.length} (effective {comp.effective_length()})")
    for p, m in enumerate(comp.modules):
        twists = ", ".join(str(-t) for t in m.twists)
        print(f"  F_{p}: rank {m.rank}, twists [{twists}]")
    if comp.labels is not None:
        for p, position in enumerate(comp.labels):
            kinds = {}
            for item in position:
                kinds[item[0]] = kinds.get(item[0], 0) + 1
            summary = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
            print(f"  labels at {p}: {summary or 'none'}")
    if pf.report is not None:
        print(f"report: {'pass' if pf.report.overall else 'FAIL'}")
    return EXIT_OK


_COMMANDS = {
    "koszul": _cmd_koszul,
    "star": _cmd_star,
    "verify": _cmd_verify,
    "colon": _cmd_colon,
    "saturate": _cmd_saturate,
    "iterate": _cmd_iterate,
    "info": _cmd_info,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        ValidationError, PreconditionFailed, NotASop, IterationLimit, MonomialOverflow
    ) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StarTransError as exc:  # no input error reaches here: a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash, not "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
