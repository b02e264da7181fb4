"""JSON problem files: parsing, validation, and emission.

A problem file fixes the field, the weighted variables, an optional
quotient ideal, the parameter list, and the complex (twists per module in
R(a) notation, maps row-major as polynomial strings).  Output files add a
``labels`` block naming each basis element of the output complex, the
verification ``report``, and the ``source_complex`` the transform was run
on, so they can be re-verified standalone.  The labels are parsed onto the
complex (``FreeComplex.labels``), which is the only place they are kept.

A field override reads every polynomial of the file, from its own text,
over the given field instead of the file's; the file's field block must
still be well formed.  The parameter strings are re-canonicalized over the
field they were read in, so parse-then-emit is byte-identical with or
without an override.

Each distinct polynomial string of a file is parsed once: one table per
parse maps its text to the parsed polynomial, which every block that
repeats the string shares (a ``Polynomial`` is immutable).

Twist sign convention: the file stores R(a)-style twists (EX-A's F_1 is
R(-2)^2, written [-2, -2]); internally a basis element of R(a) has degree
-a, which is what GradedFreeModule.twists records.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .complexes import FreeComplex, check_complex
from .errors import MonomialOverflow, ParseError, ValidationError
from .fields import field_from_spec
from .modules import GradedFreeModule
from .poly import PolyMatrix, PolyRing, Polynomial, _kept, format_polynomial
from .transform import StarComplex
from .verify import VerificationReport


@dataclass
class ProblemFile:
    ring: PolyRing
    sop_texts: tuple
    complex: FreeComplex
    report: VerificationReport = None
    source_complex: FreeComplex = None

    def sop_polys(self):
        """The parsed parameters, kept (``_kept``); a parsed file keeps the
        tuple its parse made."""
        return _kept(
            self, "_sop_polys", lambda pf: tuple(map(pf.ring.parse, pf.sop_texts))
        )


def _require(data, key, kind, where):
    if key not in data:
        raise ParseError(f"missing {key!r} in {where}")
    val = data[key]
    if kind is not None and not isinstance(val, kind):
        raise ParseError(f"{key!r} in {where} has the wrong type")
    return val


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_poly(ring, text, where, parsed):
    """Parse the polynomial string at JSON path ``where``, or read it from
    ``parsed``, the file's table of the texts parsed so far; a malformed
    string is never entered, so it fails at its first path."""
    if not isinstance(text, str):
        raise ParseError(f"{where} must be a polynomial string")
    poly = parsed.get(text)
    if poly is None:
        try:
            poly = parsed[text] = ring.parse(text)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    return poly


def _parse_field(data):
    spec = _require(data, "field", dict, "problem file")
    ftype = _require(spec, "type", str, "field block")
    if ftype == "rational":
        return field_from_spec("rational")
    if ftype == "prime":
        p = _require(spec, "p", int, "field block")
        return field_from_spec(f"p:{p}")
    raise ParseError(f"unknown field type {ftype!r}")


def _parse_ring(data, field, parsed):
    """The ring of the file, over ``field`` when one is given; the file's
    own field block is parsed either way, so a malformed one is an error.
    The quotient generators go into ``parsed`` over the ring with the
    quotient, so every entry of the table lies in the returned ring."""
    file_field = _parse_field(data)
    if field is None:
        field = file_field
    variables = _require(data, "variables", list, "problem file")
    names = []
    weights = []
    for k, v in enumerate(variables):
        if not isinstance(v, dict):
            raise ParseError(f"variable {k} must be an object")
        names.append(_require(v, "name", str, f"variable {k}"))
        degree = v.get("degree", 1)
        if not _is_int(degree) or degree < 1:
            raise ParseError(f"variables[{k}].degree must be a positive integer")
        weights.append(degree)
    try:
        ring = PolyRing(field, tuple(names), tuple(weights))
    except (ValueError, MonomialOverflow) as exc:
        raise ParseError(f"variables: {exc}") from None
    quotient = data.get("quotient")
    if quotient:
        if not isinstance(quotient, list):
            raise ParseError("quotient must be a list of polynomial strings")
        gens = tuple(
            _parse_poly(ring, t, f"quotient[{k}]", parsed)
            for k, t in enumerate(quotient)
        )
        for k, g in enumerate(gens):
            if g.homogeneous_degree() is None:
                raise ValidationError(f"quotient generator {k} is not homogeneous")
        ring = ring.with_quotient(gens)
        for text, poly in parsed.items():
            parsed[text] = Polynomial(ring, poly.terms)
    return ring


def _parse_complex(ring, data, parsed, where="complex"):
    twists_block = _require(data, "twists", list, where)
    maps_block = _require(data, "maps", list, where)
    if not twists_block:
        raise ValidationError(f"{where}.twists must list at least one module")
    modules = []
    for k, tw in enumerate(twists_block):
        if not isinstance(tw, list):
            raise ParseError(f"{where}.twists[{k}] must be a list of integers")
        for i, t in enumerate(tw):
            if not _is_int(t):
                raise ParseError(f"{where}.twists[{k}][{i}] must be an integer")
        # file stores R(a) twists; internal degree of the generator is -a
        modules.append(
            GradedFreeModule(ring, len(tw), tuple(-t for t in tw))
        )
    if len(maps_block) != len(modules) - 1:
        raise ValidationError(
            f"{where}: expected {len(modules) - 1} maps for "
            f"{len(modules)} modules, got {len(maps_block)}"
        )
    maps = []
    for k, rows in enumerate(maps_block):
        target = modules[k]
        source = modules[k + 1]
        if not isinstance(rows, list) or len(rows) != target.rank:
            raise ValidationError(
                f"{where}.maps[{k}] must have {target.rank} rows"
            )
        entries = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != source.rank:
                raise ValidationError(
                    f"{where}.maps[{k}][{i}] must have {source.rank} entries"
                )
            entries.append(
                [
                    _parse_poly(ring, s, f"{where}.maps[{k}][{i}][{j}]", parsed)
                    for j, s in enumerate(row)
                ]
            )
        maps.append(PolyMatrix(ring, entries, target.rank, source.rank))
    return FreeComplex(ring, tuple(modules), tuple(maps))


# the entries after a label's kind: "i" an integer, "s" a list of integers
_LABEL_SHAPES = {"bracket": "is", "angle": "i", "star": "ii"}


def _parse_label(item, where):
    kind = item[0] if isinstance(item, list) and item else None
    shape = _LABEL_SHAPES.get(kind) if isinstance(kind, str) else None
    if shape is None:
        raise ParseError(
            f"{where} must be a label [kind, ...] of kind bracket, angle or star"
        )
    entries = item[1:]
    if len(entries) != len(shape) or not all(
        _is_int(x) if s == "i" else isinstance(x, list) and all(map(_is_int, x))
        for s, x in zip(shape, entries)
    ):
        raise ParseError(f"{where}: malformed {kind} label")
    return (kind,) + tuple(tuple(x) if isinstance(x, list) else x for x in entries)


def _parse_labels(block, modules):
    """One label per basis element of each module, or None without a block."""
    if block is None:
        return None
    if not isinstance(block, list) or not all(isinstance(p, list) for p in block):
        raise ParseError("labels must be a list of lists")
    if len(block) != len(modules):
        raise ValidationError("labels block must cover every module")
    for p, (position, module) in enumerate(zip(block, modules)):
        if len(position) != module.rank:
            raise ValidationError(
                f"labels[{p}] has {len(position)} labels for the "
                f"{module.rank} basis elements of F_{p}"
            )
    return tuple(
        tuple(
            _parse_label(item, f"labels[{p}][{k}]")
            for k, item in enumerate(position)
        )
        for p, position in enumerate(block)
    )


def parse_problem(path, field=None):
    """Read and fully validate a problem (or output) file, over ``field``
    instead of the file's own field when one is given."""
    return _problem_from_jsonable(_read_json(path), field, check=True)


def _parse_unchecked(path):
    """``parse_problem`` without the structural scans of the complex and
    the source complex (``check_complex``), for a file that is compared
    with objects already checked; anything else it rejects, it rejects as
    ``parse_problem`` would, though a file with several faults may name
    another one first."""
    return _problem_from_jsonable(_read_json(path), None, check=False)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # int() refuses a literal beyond the int/str limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: a number has more than {limit} digits") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def _problem_from_jsonable(data, field, check):
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    parsed = {}
    ring = _parse_ring(data, field, parsed)
    sop_texts = tuple(_require(data, "sop", list, "problem file"))
    sop_polys = tuple(
        _parse_poly(ring, t, f"sop[{k}]", parsed) for k, t in enumerate(sop_texts)
    )
    complex_block = _require(data, "complex", dict, "problem file")
    comp = _parse_complex(ring, complex_block, parsed)
    labels = _parse_labels(data.get("labels"), comp.modules)
    if labels is not None:
        comp = FreeComplex(ring, comp.modules, comp.maps, labels)
    if len(sop_texts) != comp.length:
        raise ValidationError(
            f"complex length {comp.length} does not match the "
            f"{len(sop_texts)} parameters"
        )
    defect = check_complex(comp) if check else None
    if defect is not None:
        raise ValidationError(f"not a valid complex: {defect.message}")
    report = None
    if "report" in data:
        report = VerificationReport.from_jsonable(data["report"])
    source = None
    if "source_complex" in data:
        source_block = _require(data, "source_complex", dict, "problem file")
        source = _parse_complex(ring, source_block, parsed, "source_complex")
        if source.length != comp.length:
            raise ValidationError("source_complex and complex differ in length")
        sdefect = check_complex(source) if check else None
        if sdefect is not None:
            raise ValidationError(
                f"source_complex is not a valid complex: {sdefect.message}"
            )
    # re-canonicalize each sop string so round trips are bit-identical
    sop_texts = tuple(format_polynomial(p) for p in sop_polys)
    pf = ProblemFile(ring, sop_texts, comp, report, source)
    pf._sop_polys = sop_polys
    return pf


def _field_jsonable(field):
    if field.name == "rational":
        return {"type": "rational"}
    return {"type": "prime", "p": field.p}


def _complex_jsonable(comp):
    twists = [[-t for t in m.twists] for m in comp.modules]
    maps = [
        [[format_polynomial(e) for e in row] for row in m.entries]
        for m in comp.maps
    ]
    return {"twists": twists, "maps": maps}


def _labels_jsonable(labels):
    """Each label as [kind, field, ...] (``_LABEL_SHAPES``), a subset field
    as a list."""
    return [
        [[list(x) if isinstance(x, tuple) else x for x in item] for item in position]
        for position in labels
    ]


def problem_to_jsonable(pf):
    data = {
        "field": _field_jsonable(pf.ring.field),
        "variables": [
            {"name": n, "degree": w}
            for n, w in zip(pf.ring.names, pf.ring.weights)
        ],
    }
    if pf.ring.quotient:
        data["quotient"] = [format_polynomial(g) for g in pf.ring.quotient]
    data["sop"] = list(pf.sop_texts)
    data["complex"] = _complex_jsonable(pf.complex)
    if pf.complex.labels is not None:
        data["labels"] = _labels_jsonable(pf.complex.labels)
    if pf.report is not None:
        data["report"] = pf.report.to_jsonable()
    if pf.source_complex is not None:
        data["source_complex"] = _complex_jsonable(pf.source_complex)
    return data


def emit_problem(pf, path):
    text = json.dumps(problem_to_jsonable(pf), indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def emit_star(star, report, path, base, input_complex):
    """Write an output complex with labels, report and source complex.

    ``base`` supplies the ring and parameter strings; the written file
    re-parses to the identical structure (idempotent round trip).
    """
    pf = ProblemFile(
        base.ring, base.sop_texts, star.complex, report, input_complex
    )
    emit_problem(pf, path)
    return pf


def star_from_problem(pf):
    """Rebuild a StarComplex from a parsed output file; its pairs come
    from the labels block, which ``StarComplex`` requires."""
    top_rank = (
        pf.source_complex.top_rank() if pf.source_complex is not None else 0
    )
    return StarComplex(pf.complex, top_rank)
