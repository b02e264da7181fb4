import argparse
import json
import os
import sys

import pytest
from hypothesis import given, settings
from reference import eagon_northcott, generic_pfaffian, hilbert_burch
from test_certificate import koszul_problems

from startrans import (
    DimensionMismatch,
    InternalError,
    MonomialOverflow,
    NotInModule,
    ParseError,
    PrimeField,
    RationalField,
    ValidationError,
    koszul,
    parse_problem,
    star_transform,
    validate_sop,
)
from startrans import FreeComplex, PolyMatrix, StarComplex
from startrans import cli, complexes, modules, poly, transform, verify
from startrans.cli import main
from startrans.instances import square_ideal_instance, vanishing_top_instance
from startrans.poly import format_polynomial
from startrans.problemfile import (
    ProblemFile,
    emit_problem,
    emit_star,
    problem_to_jsonable,
    star_from_problem,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "exa.json")


@pytest.fixture
def exa_problem():
    return parse_problem(FIXTURE)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def exa_data():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


needs_a_digit_limit = pytest.mark.skipif(
    sys.get_int_max_str_digits() == 0, reason="no int/str digit limit"
)


# -- parsing -----------------------------------------------------------------


def test_parse_exa_fixture(exa_problem):
    assert len(exa_problem.sop_texts) == 2
    assert exa_problem.complex.length == 2
    assert [m.rank for m in exa_problem.complex.modules] == [1, 2, 1]
    # file twists are R(a) style; internal twists are generator degrees
    assert exa_problem.complex.module(1).twists == (2, 2)
    assert exa_problem.complex.module(2).twists == (4,)


def test_parse_malformed_polynomial(tmp_path):
    data = exa_data()
    data["sop"] = ["x^", "y"]
    path = write_json(tmp_path, "bad.json", data)
    with pytest.raises(ParseError):
        parse_problem(path)


def test_parse_inconsistent_row_count(tmp_path):
    data = exa_data()
    data["complex"]["maps"][0] = [["x^2", "y^2"], ["x", "y"]]
    path = write_json(tmp_path, "bad.json", data)
    with pytest.raises(ValidationError):
        parse_problem(path)


def test_parse_length_mismatch(tmp_path):
    data = exa_data()
    data["sop"] = ["x", "y", "x+y"]
    path = write_json(tmp_path, "bad.json", data)
    with pytest.raises(ValidationError):
        parse_problem(path)


def test_parse_non_complex(tmp_path):
    data = exa_data()
    data["complex"]["maps"][1] = [["y^2"], ["x^2"]]  # composition nonzero
    path = write_json(tmp_path, "bad.json", data)
    with pytest.raises(ValidationError):
        parse_problem(path)


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_problem("/nonexistent/problem.json")


def test_parse_reads_each_distinct_polynomial_once(monkeypatch, tmp_path):
    # 11 strings, 5 distinct: the quotient's x^2 recurs in both complexes
    data = exa_data()
    data["quotient"] = ["x^2"]
    data["source_complex"] = data["complex"]
    texts = []
    real_parse = poly.parse_polynomial

    def parse_polynomial(ring, text):
        texts.append(text)
        return real_parse(ring, text)

    monkeypatch.setattr(poly, "parse_polynomial", parse_polynomial)
    pf = parse_problem(write_json(tmp_path, "repeats.json", data))
    assert sorted(texts) == ["-y^2", "x", "x^2", "y", "y^2"]
    monkeypatch.undo()
    for comp in (pf.complex, pf.source_complex):
        assert comp.maps == tuple(
            PolyMatrix(pf.ring, [[pf.ring.parse(t) for t in row] for row in rows])
            for rows in data["complex"]["maps"]
        )
        assert all(e.ring is pf.ring for m in comp.maps for row in m.entries for e in row)


def test_star_verify_parses_the_parameters_once_per_read(monkeypatch, tmp_path):
    # the input and the read-back each parse every distinct string once, and
    # ``sop_polys()`` hands out the parse's own tuple
    texts = []
    real_parse = poly.parse_polynomial

    def parse_polynomial(ring, text):
        texts.append(text)
        return real_parse(ring, text)

    monkeypatch.setattr(poly, "parse_polynomial", parse_polynomial)
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out, "--verify"]) == 0
    assert len(texts) == 13
    assert texts.count("x") == texts.count("y") == 2
    pf = parse_problem(out)
    assert pf.sop_polys() is pf.sop_polys()


def _quotient_vanishing_top_data():
    # Q[x,y,z]/(z^2), with the Koszul complex of x, y: its top vanishes
    data = exa_data()
    data["variables"].append({"name": "z", "degree": 1})
    data["quotient"] = ["z^2"]
    data["complex"] = {
        "twists": [[0], [-1, -1], [-2]],
        "maps": [[["x", "y"]], [["-y"], ["x"]]],
    }
    return data


@pytest.mark.parametrize("command", ["star", "iterate"])
def test_each_parameter_system_is_decided_regular_once(
    monkeypatch, tmp_path, command
):
    # depth_positive, quotient_assumption and colon_equality all read the
    # regularity verdict; the series comparison behind it, which starts
    # from HS(R/J), runs once per parameter system
    deciding, decided = [], []
    real_is_regular = complexes.SopData.is_regular
    real_ring_series = complexes.ring_series

    def is_regular(sop):
        deciding.append(sop)
        try:
            return real_is_regular(sop)
        finally:
            deciding.pop()

    def ring_series(ring):
        if deciding:
            decided.append(deciding[-1])
        return real_ring_series(ring)

    monkeypatch.setattr(complexes.SopData, "is_regular", is_regular)
    monkeypatch.setattr(complexes, "ring_series", ring_series)
    if command == "star":
        path = write_json(tmp_path, "q.json", _quotient_vanishing_top_data())
        argv = ["star", "--input", path, "--output", str(tmp_path / "o.json")]
        argv.append("--verify")
    else:
        argv = ["iterate", "--input", FIXTURE, "--max-iter", "3"]
    assert main(argv) == 0
    assert decided
    assert len({id(sop) for sop in decided}) == len(decided)


def test_parse_repeated_malformed_polynomial_names_its_first_path(tmp_path):
    data = exa_data()
    data["complex"]["maps"][0] = [["x^", "x^"]]
    path = write_json(tmp_path, "bad.json", data)
    with pytest.raises(ParseError, match=r"^complex\.maps\[0\]\[0\]\[0\]: "):
        parse_problem(path)


# -- emit / round trip ---------------------------------------------------------


def _as_problem(comp, sop):
    texts = tuple(format_polynomial(g) for g in sop.gens)
    return ProblemFile(comp.ring, texts, comp)


def _pfaffian_round_one():
    comp, sop = generic_pfaffian(PrimeField(32003), 0)
    return _as_problem(star_transform(comp, sop).star.complex, sop)


@pytest.mark.parametrize(
    "make, selected",
    [
        (lambda: parse_problem(FIXTURE), ()),
        (lambda: _as_problem(*square_ideal_instance()), ((0, 1), (0, 2), (1, 1))),
        (_pfaffian_round_one, ((0, 2), (0, 3), (1, 3))),
    ],
    ids=["exa", "square-ideal", "pfaffian-round-1"],
)
def test_emit_star_round_trip(tmp_path, make, selected):
    problem = make()
    sop = validate_sop(problem.ring, problem.sop_polys())
    result = star_transform(problem.complex, sop)
    assert result.star.selected_pairs == selected
    kinds = {label[0] for position in result.star.labels for label in position}
    assert kinds == {"angle", "bracket", "star"}
    out = str(tmp_path / "out.star.json")
    emit_star(result.star, result.report, out, problem, problem.complex)

    reparsed = parse_problem(out)
    star = star_from_problem(reparsed)
    assert star.complex.modules == result.star.complex.modules
    assert star.complex.maps == result.star.complex.maps
    assert star.labels == result.star.labels
    assert star.star_pairs == result.star.star_pairs
    assert star.retained_basis == result.star.retained_basis
    assert star.selected_pairs == result.star.selected_pairs
    # both sides build the same record: the output complex and the top rank
    assert star == result.star

    # byte-identical second emission
    out2 = str(tmp_path / "out.star2.json")
    emit_star(star, reparsed.report, out2, reparsed, reparsed.source_complex)
    with open(out) as fh1, open(out2) as fh2:
        assert fh1.read() == fh2.read()


@settings(max_examples=30, deadline=None)
@given(problem=koszul_problems())
def test_drawn_outputs_read_back_equal_and_re_emit_byte_for_byte(
    tmp_path_factory, problem
):
    # weighted and R/J rings included: the file reads back to the objects it
    # was written from, which is what lets ``star --verify`` reuse them
    _assert_reads_back_and_re_emits(tmp_path_factory.mktemp("drawn"), *problem)


DETERMINANTAL = {
    "hilbert_burch_t2": lambda field: hilbert_burch(field, 2, 0),
    "hilbert_burch_t3": lambda field: hilbert_burch(field, 3, 0),
    "eagon_northcott": lambda field: eagon_northcott(field, 0),
}
DETERMINANTAL_FIELDS = {"p32003": PrimeField(32003), "Q": RationalField()}


@pytest.mark.parametrize("field", sorted(DETERMINANTAL_FIELDS))
@pytest.mark.parametrize("name", sorted(DETERMINANTAL))
def test_determinantal_outputs_read_back_equal_and_re_emit_byte_for_byte(
    tmp_path, name, field
):
    # ranks no Koszul input reaches, and no unit entries
    comp, sop = DETERMINANTAL[name](DETERMINANTAL_FIELDS[field])
    _assert_reads_back_and_re_emits(tmp_path, name, comp, sop)


def _assert_reads_back_and_re_emits(folder, name, comp, sop):
    base = _as_problem(comp, sop)
    result = star_transform(comp, sop)
    out = folder / "out.star.json"
    emit_star(result.star, result.report, str(out), base, comp)
    reparsed = parse_problem(str(out))
    assert cli._reads_back(reparsed, base, sop, result.star.complex), name
    again = folder / "again.star.json"
    emit_problem(reparsed, str(again))
    assert again.read_bytes() == out.read_bytes(), name


def test_emitted_labels_exa(tmp_path, exa_problem):
    sop = validate_sop(exa_problem.ring, exa_problem.sop_polys())
    result = star_transform(exa_problem.complex, sop)
    out = str(tmp_path / "exa.star.json")
    emit_star(result.star, result.report, out, exa_problem, exa_problem.complex)
    with open(out) as fh:
        data = json.load(fh)
    assert ["bracket", 0, []] in data["labels"][1]
    angles = [item for item in data["labels"][1] if item[0] == "angle"]
    assert len(angles) == 2
    stars = data["labels"][2]
    assert stars == [["star", 0, 1], ["star", 0, 2]]


def test_report_block_names(tmp_path, exa_problem):
    from reference import FIXED_CHECKS

    sop = validate_sop(exa_problem.ring, exa_problem.sop_polys())
    result = star_transform(exa_problem.complex, sop)
    out = str(tmp_path / "exa.star.json")
    emit_star(result.star, result.report, out, exa_problem, exa_problem.complex)
    with open(out) as fh:
        data = json.load(fh)
    names = [c["name"] for c in data["report"]["checks"]]
    assert list(FIXED_CHECKS) == names[: len(FIXED_CHECKS)]


def test_problem_emit_parse_identity(tmp_path, exa_problem):
    out = str(tmp_path / "copy.json")
    emit_problem(exa_problem, out)
    again = parse_problem(out)
    assert problem_to_jsonable(again) == problem_to_jsonable(exa_problem)


# -- CLI subcommands -------------------------------------------------------------


def test_cli_star_verify_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "exa.star.json")
    code = main(["star", "--input", FIXTURE, "--output", out, "--verify"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS overall" in printed
    assert os.path.exists(out)


def test_cli_star_verify_needs_an_output(tmp_path, capsys):
    assert main(["star", "--input", FIXTURE, "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: --verify parses the written file back, "
        "so it needs --output\n"
    )


EXA_REPORT = """PASS composition_zero
PASS homogeneity
PASS acyclicity
PASS colon_equality  (Im of the first output map against the colon oracle)
PASS top_minimality
PASS rank_accounting
PASS colon_quotient_count  (dim (M:Q)/M = 1, expected 1)
"""
DEPTH_LINE = (
    "PASS depth_positive  "
    "(top module vanished; colon by the irrelevant ideal is stable)\n"
)


def _vanishing_top_file(tmp_path):
    comp, sop = vanishing_top_instance()
    pf = ProblemFile(
        comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp
    )
    path = str(tmp_path / "vanishing_top.json")
    emit_problem(pf, path)
    return path


@pytest.mark.parametrize(
    "problem, report",
    [
        (lambda tmp_path: FIXTURE, EXA_REPORT),
        (_vanishing_top_file, EXA_REPORT + DEPTH_LINE),
    ],
    ids=["exa", "vanishing-top"],
)
def test_cli_star_verify_prints_both_reports_in_full(
    tmp_path, capsys, problem, report
):
    out = str(tmp_path / "o.star.json")
    argv = ["star", "--input", problem(tmp_path), "--output", out, "--verify"]
    assert main(argv) == 0
    report += "PASS overall\n"
    assert capsys.readouterr().out == (
        f"{report}wrote {out}\nround-trip verification:\n{report}"
    )


def _zero_top_map(data):
    maps = data["complex"]["maps"]
    maps[-1] = [["0"] * len(row) for row in maps[-1]]


def _swap_angle_labels(data):
    position = data["labels"][1]
    position[1], position[2] = position[2], position[1]


def _add_quotient(data):
    data["quotient"] = ["x^3*y^3"]


@pytest.mark.parametrize(
    "tamper, code, line",
    [
        (_zero_top_map, 1, "FAIL acyclicity"),
        (_swap_angle_labels, 0, "PASS overall"),
        (_add_quotient, 1, "FAIL quotient_assumption"),
    ],
    ids=["top-map-zeroed", "labels-swapped", "quotient-added"],
)
def test_cli_star_verify_checks_a_file_that_reads_back_different_from_scratch(
    monkeypatch, tmp_path, capsys, tamper, code, line
):
    # a file that does not read back equal to the certified objects is
    # validated and verified as parsed, not through the kept verdicts
    out = str(tmp_path / "exa.star.json")
    real_emit, real_parse = cli.emit_star, cli.parse_problem
    parsed = []

    def emit_tampered(*args):
        pf = real_emit(*args)
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        tamper(data)
        write_json(tmp_path, "exa.star.json", data)
        return pf

    def parse(path, field=None):
        pf = real_parse(path, field)
        if path == out:
            parsed.append(pf)
        return pf

    validations, verified = [], []
    real_validate, real_verify = cli.validate_sop, cli.verify_star

    def validate(*args):
        validations.append(args)
        return real_validate(*args)

    def verify_star(comp, sop, star):
        verified.append((comp, sop, star))
        return real_verify(comp, sop, star)

    monkeypatch.setattr(cli, "emit_star", emit_tampered)
    monkeypatch.setattr(cli, "parse_problem", parse)
    monkeypatch.setattr(cli, "validate_sop", validate)
    monkeypatch.setattr(cli, "verify_star", verify_star)
    assert main(["star", "--input", FIXTURE, "--output", out, "--verify"]) == code
    [reparsed] = parsed
    assert len(validations) == 2 and validations[1][0] is reparsed.ring
    [(comp, sop, star)] = verified
    assert comp is reparsed.source_complex and star.complex is reparsed.complex
    round_trip = capsys.readouterr().out.split("round-trip verification:\n")[1]
    assert any(shown.startswith(line) for shown in round_trip.splitlines())


def test_cli_star_verify_refuses_a_read_back_without_source_complex(
    monkeypatch, tmp_path, capsys
):
    # the round trip verifies such a file as ``verify`` does: a
    # precondition error, not a crash
    real_emit = cli.emit_star

    def emit_without_source(star, report, path, base, input_complex):
        return real_emit(star, report, path, base, None)

    monkeypatch.setattr(cli, "emit_star", emit_without_source)
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out, "--verify"]) == 2
    assert capsys.readouterr().err == (
        "precondition violated: file has no source_complex block; "
        "nothing to verify against\n"
    )


def test_cli_star_verify_reports_a_read_back_that_does_not_parse(
    monkeypatch, tmp_path, capsys
):
    # the written file is read back once; a parse error there exits as
    # ``verify`` would on the same file, without a traceback
    def emit_empty(star, report, path, base, input_complex):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{}")

    monkeypatch.setattr(cli, "emit_star", emit_empty)
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out, "--verify"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


def test_cli_star_verify_rejects_an_output_that_is_not_a_complex(
    monkeypatch, tmp_path, capsys
):
    # the written file reads back equal to the built output, which a
    # corrupted build left no complex: the round trip still rejects it
    real_star_transform = cli.star_transform

    def corrupted(comp, sop):
        result = real_star_transform(comp, sop)
        out = result.star.complex
        first = [list(row) for row in out.phi(1).entries]
        first[0][0] = -first[0][0]
        maps = (PolyMatrix(out.ring, first),) + out.maps[1:]
        result.star = StarComplex(
            FreeComplex(out.ring, out.modules, maps, out.labels),
            result.star.input_top_rank,
        )
        return result

    monkeypatch.setattr(cli, "star_transform", corrupted)
    out = str(tmp_path / "o.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out, "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{EXA_REPORT}PASS overall\nwrote {out}\n"
    assert captured.err == (
        "precondition violated: not a valid complex: "
        "(phi_1 phi_2) has nonzero entry (0,0)\n"
    )


def test_cli_star_precondition_exit_two(tmp_path, capsys):
    data = exa_data()
    data["complex"] = {
        "twists": [[0], [-1, 0], [0]],
        "maps": [[["x", "0"]], [["0"], ["1"]]],
    }
    path = write_json(tmp_path, "const.json", data)
    code = main(["star", "--input", path, "--output", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Q*F_(n-1)" in err


def test_cli_parse_error_exit_three(tmp_path, capsys):
    data = exa_data()
    data["sop"] = ["x^", "y"]
    path = write_json(tmp_path, "bad.json", data)
    code = main(["star", "--input", path, "--output", str(tmp_path / "o.json")])
    assert code == 3


def test_cli_a_crash_outside_the_package_errors_exits_four(monkeypatch, capsys):
    # exit 1 means a check failed; a crash must not pose as one
    def crash(args):
        raise KeyError("lost")

    monkeypatch.setitem(cli._COMMANDS, "info", crash)
    assert main(["info", "--input", FIXTURE]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: KeyError: 'lost'\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", ["5", "null", "true"])
@pytest.mark.parametrize(
    "command", ["koszul", "star", "verify", "colon", "saturate", "iterate", "info"]
)
def test_cli_problem_file_that_is_not_an_object_exits_three(
    tmp_path, capsys, text, command
):
    path = tmp_path / "notobj.json"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "parse error: problem file must be a JSON object\n"
    assert captured.out == ""


def test_cli_validation_error_exit_two(tmp_path, capsys):
    data = exa_data()
    data["complex"]["maps"][0] = [["x^2", "y^2"], ["x", "y"]]
    path = write_json(tmp_path, "bad.json", data)
    code = main(["star", "--input", path, "--output", str(tmp_path / "o.json")])
    assert code == 2


def test_cli_verify_subcommand(tmp_path, capsys):
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 0
    capsys.readouterr()
    code = main(["verify", "--input", out])
    assert code == 0
    assert "PASS overall" in capsys.readouterr().out


def _exa_over_the_prime_denominator(data):
    # a denominator divisible by the certificate's prime: the Q route only
    p = complexes.MODULAR_PRIME
    data["complex"]["maps"][1] = [[f"-3/{p}*y^2"], [f"3/{p}*x^2"]]


def _unlucky_koszul(data):
    # Koszul(P*x + y, y): exact over Q, not mod P
    f = f"{complexes.MODULAR_PRIME}*x + y"
    data["complex"] = {
        "twists": [[0], [-1, -1], [-2]],
        "maps": [[[f, "y"]], [["-y"], [f]]],
    }


@pytest.mark.parametrize("edit", [_exa_over_the_prime_denominator, _unlucky_koszul])
def test_cli_star_and_verify_past_the_modular_prime(edit, tmp_path, capsys):
    data = exa_data()
    edit(data)
    path = write_json(tmp_path, "in.json", data)
    out = str(tmp_path / "in.star.json")
    assert main(["star", "--input", path, "--output", out, "--verify"]) == 0
    assert main(["verify", "--input", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS overall") == 3 and "FAIL" not in printed


def test_cli_verify_detects_tampering(tmp_path, capsys):
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 0
    with open(out) as fh:
        data = json.load(fh)
    data["complex"]["maps"][1][0][0] = "x^5"
    tampered = write_json(tmp_path, "tampered.json", data)
    capsys.readouterr()
    # the tampered entry breaks homogeneity, so the file fails validation
    code = main(["verify", "--input", tampered])
    assert code == 2


def test_cli_verify_fails_checks_on_zeroed_top(tmp_path, capsys):
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 0
    with open(out) as fh:
        data = json.load(fh)
    # a well-formed but wrong output: zero top map still parses as a
    # complex but is no longer acyclic
    data["complex"]["maps"][1] = [["0", "0"], ["0", "0"], ["0", "0"]]
    tampered = write_json(tmp_path, "tampered.json", data)
    capsys.readouterr()
    code = main(["verify", "--input", tampered])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def exa_star_data(tmp_path):
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 0
    with open(out) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "tamper, block",
    [
        (lambda labels: labels[0].clear(), "labels[0]"),
        (lambda labels: labels[2].clear(), "labels[2]"),
        (lambda labels: labels[2].append(["star", 0, 3]), "labels[2]"),
    ],
    ids=["position-0-dropped", "top-emptied", "star-label-added"],
)
def test_cli_verify_rejects_a_label_count_off_the_rank(
    tmp_path, capsys, tamper, block
):
    data = exa_star_data(tmp_path)
    tamper(data["labels"])
    tampered = write_json(tmp_path, "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "--input", tampered]) == 2
    assert f"precondition violated: {block} has" in capsys.readouterr().err


def test_cli_verify_names_the_star_label_count_when_the_top_rank_is_off(
    tmp_path, capsys
):
    data = exa_star_data(tmp_path)
    # the right number of top labels, but one of them is not a star label
    data["labels"][2][1] = ["angle", 0]
    tampered = write_json(tmp_path, "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "--input", tampered]) == 1
    assert "FAIL rank_accounting  (rank at 2: 2 != 1 (1 star labels))" in (
        capsys.readouterr().out
    )


def test_cli_verify_rejects_a_source_complex_of_another_length(tmp_path, capsys):
    # the source complex has one map per parameter, as the output has
    data = exa_star_data(tmp_path)
    source = data["source_complex"]
    source["twists"].append([])
    source["maps"].append([[]])
    tampered = write_json(tmp_path, "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "--input", tampered]) == 2
    assert capsys.readouterr().err == (
        "precondition violated: source_complex and complex differ in length\n"
    )


@pytest.mark.parametrize("block", ["complex", "source_complex"])
def test_cli_a_complex_without_modules_is_a_precondition(tmp_path, capsys, block):
    data = exa_star_data(tmp_path)
    data[block] = {"twists": [], "maps": []}
    path = write_json(tmp_path, "empty.json", data)
    capsys.readouterr()
    assert main(["info", "--input", path]) == 2
    assert capsys.readouterr().err == (
        f"precondition violated: {block}.twists must list at least one module\n"
    )


def test_cli_star_degenerate_zero_top(tmp_path, capsys):
    data = exa_data()
    data["complex"] = {
        "twists": [[0], [-1]],
        "maps": [[["x"]]],
    }
    # pad with an explicit rank-zero top module
    data["complex"]["twists"].append([])
    data["complex"]["maps"].append([[]])
    path = write_json(tmp_path, "degenerate.json", data)
    out = str(tmp_path / "degenerate.star.json")
    code = main(["star", "--input", path, "--output", out, "--verify"])
    assert code == 0
    pf = parse_problem(out)
    assert [m.rank for m in pf.complex.modules] == [1, 1, 0]


def test_cli_colon_standalone(capsys):
    code = main(["colon", "--module", "x^2,y^2", "--ideal", "x,y"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x^2, x*y, y^2"


def test_cli_colon_ignores_whitespace_after_a_generator(capsys):
    assert main(["colon", "--module", "x^2 ,x*y", "--ideal", "x,y"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x\n"
    assert captured.err == ""


def test_cli_colon_from_problem(capsys):
    code = main(["colon", "--input", FIXTURE])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x^2, x*y, y^2"


def test_cli_saturate(capsys):
    code = main(["saturate", "--module", "x^2,x*y", "--ideal", "x,y"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].strip() == "x"


@pytest.mark.parametrize("command", ["colon", "saturate"])
def test_cli_colon_output_file_holds_the_printed_generators(command, tmp_path, capsys):
    out = tmp_path / "gens.json"
    argv = [command, "--module", "x^2,x*y", "--ideal", "x,y", "--output", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["x", f"wrote {out}"]
    assert json.loads(out.read_text()) == {"generators": ["x"]}


@pytest.mark.parametrize("command", ["colon", "saturate"])
def test_cli_colon_of_constants_is_a_parse_error(command, capsys):
    assert main([command, "--module", "2", "--ideal", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "parse error: no variables found in the given polynomials\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["colon", "saturate"])
@pytest.mark.parametrize(
    "extra",
    [
        ["--module", "x"],
        ["--ideal", "x"],
        ["--input", FIXTURE, "--module", "x^5"],
        ["--input", FIXTURE, "--ideal", "x"],
        ["--input", FIXTURE, "--module", "x^2", "--ideal", "x"],
    ],
)
def test_cli_colon_inputs_come_from_one_source(command, extra, capsys):
    # half of --module/--ideal, or either with --input, is refused before
    # any work, not answered for the file's module or ideal
    assert main([command] + extra) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err
    assert "--module and --ideal" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["colon", "--module", "x^2,y", "--ideal", "0"],
        ["saturate", "--module", "x^2", "--ideal", "0"],
        ["colon", "--module", "x^2,y", "--ideal", "0,x-x"],
    ],
)
def test_cli_colon_by_the_zero_ideal_is_a_precondition(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err
    assert "zero ideal" in captured.err
    assert captured.out == ""


def test_cli_overflowing_exponent_is_a_parse_error(capsys):
    assert main(["colon", "--module", "x^4294967296", "--ideal", "x"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and "does not fit" in captured.err
    assert captured.out == ""


def test_cli_overflowing_computation_is_a_precondition(capsys):
    # both inputs fit, but their S-pair x^20000*y^20000 does not
    assert main(["colon", "--module", "x^20000", "--ideal", "y^20000"]) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err and "does not fit" in captured.err


@pytest.mark.parametrize("command", ["colon", "saturate"])
def test_cli_colon_of_an_inhomogeneous_module_is_a_precondition(command, capsys):
    assert main([command, "--module", "x^2+y", "--ideal", "x"]) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err and "homogeneous" in captured.err
    assert captured.out == ""


def test_cli_colon_internal_error_exits_four(monkeypatch, capsys):
    real = modules._eliminate

    def with_a_false_element(top_twists, stacked_gens, lower):
        part = real(top_twists, stacked_gens, lower)
        return modules.buchberger(lower, list(part.gb) + [lower.basis_vector(0)])

    monkeypatch.setattr(modules, "_eliminate", with_a_false_element)
    assert main(["colon", "--module", "x^2", "--ideal", "x"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "q*g in M" in captured.err
    assert captured.out == ""


def test_cli_star_internal_error_exits_four(monkeypatch, tmp_path, capsys):
    real_buchberger = transform.buchberger

    def with_doubled_rows(ambient, gens, **kwargs):
        gb = real_buchberger(ambient, gens, **kwargs)
        table = gb.row_table
        for k in gb.row_ids:
            table.built[k] = tuple(c + c for c in table.row(k))
        return gb

    # every witness of the chain map's descent recombines to twice its goal
    monkeypatch.setattr(transform, "buchberger", with_doubled_rows)
    out = str(tmp_path / "out.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "witness recombination failed" in captured.err
    assert not os.path.exists(out)


def test_cli_internal_error_inside_a_verify_check_exits_four(
    monkeypatch, tmp_path, capsys
):
    def broken_certificate(*args):
        raise InternalError("certificate invariant broken (internal)")

    monkeypatch.setattr(verify, "_colon_certificate", broken_certificate)
    out = str(tmp_path / "out.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "certificate invariant broken" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (NotInModule("vector has nonzero normal form"), 4, "internal error: "),
        (MonomialOverflow("degree does not fit"), 2, "precondition violated: "),
    ],
    ids=["engine-error", "overflow"],
)
def test_cli_error_inside_a_check_maps_by_kind(
    monkeypatch, tmp_path, capsys, error, code, prefix
):
    # a check returns a verdict; an exception raised inside one is not a
    # failed check (exit 1) but exits as its kind does anywhere else
    def broken(out):
        raise error

    monkeypatch.setattr(verify, "_top_minimality", broken)
    out = str(tmp_path / "out.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and str(error) in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


def test_cli_star_failed_descent_lift_exits_four(monkeypatch, tmp_path, capsys):
    # the certified preconditions make every descent lift solvable, so a
    # failed one is a bug, not a failed check
    class Unliftable:
        def __init__(self, ambient):
            self.ambient = ambient

        def lift(self, v):
            raise NotInModule("vector has nonzero normal form")

    monkeypatch.setattr(
        transform, "buchberger", lambda ambient, gens: Unliftable(ambient)
    )
    out = str(tmp_path / "out.json")
    assert main(["star", "--input", FIXTURE, "--output", out]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "descent has no lift" in captured.err
    assert not os.path.exists(out)


def test_cli_engine_error_outside_the_checks_exits_four(monkeypatch, capsys):
    # exit 1 means only that a check failed; an engine error that no input
    # causes is internal
    def mismatched(comp, sop):
        raise DimensionMismatch("2 coordinates for a module of rank 3")

    monkeypatch.setattr(cli, "star_transform", mismatched)
    assert main(["star", "--input", FIXTURE]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: 2 coordinates for a module of rank 3\n"
    assert captured.out == ""


def test_cli_saturate_negative_count_is_usage_error(capsys):
    code = main(
        ["saturate", "--module", "x^2,x*y", "--ideal", "x,y", "--max-iter", "-1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "-1" in err and "non-negative" in err
    assert "did not stabilize" not in err


def test_cli_iterate(tmp_path, capsys):
    code = main(["iterate", "--input", FIXTURE, "--max-iter", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "round 1" in out and "round 2" in out
    assert "oracle match yes" in out


def test_cli_iterate_round_one_precondition_matches_star(tmp_path, capsys):
    # round 1's containment is decided by star's own decomposition, so
    # iterate fails as star does on the same file
    data = exa_data()
    data["sop"] = ["x^3", "y^3"]
    path = write_json(tmp_path, "exa3.json", data)
    assert main(["star", "--input", path]) == 2
    star_err = capsys.readouterr().err
    assert "Im phi_n is not contained in Q*F_(n-1)" in star_err
    assert main(["iterate", "--input", path, "--max-iter", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == star_err
    assert captured.out == ""


@pytest.mark.parametrize("seed", [2030, 2031])
def test_cli_iterate_stops_when_a_later_round_is_not_contained(
    seed, tmp_path, capsys
):
    path = str(tmp_path / f"r{seed}.json")
    assert main(["koszul", "--seed", str(seed), "--output", path]) == 0
    capsys.readouterr()
    assert main(["iterate", "--input", path, "--max-iter", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("round 1: ") and "oracle match yes" in lines[0]
    assert lines[1:] == ["stop: precondition failed before round 2"]


def _koszul_seed_2031(tmp_path):
    path = str(tmp_path / "r2031.json")
    assert main(["koszul", "--seed", "2031", "--output", path]) == 0
    return path


@pytest.mark.parametrize(
    "problem, rounds",
    [(lambda tmp_path: FIXTURE, 3), (_koszul_seed_2031, 1)],
    ids=["exa", "koszul-seed-2031"],
)
def test_cli_iterate_output_writes_one_verified_file_per_round(
    tmp_path, capsys, problem, rounds
):
    # each round file verifies on its own, and its source complex is the
    # complex of the round before it (the input's for round 1); a run that
    # stops before round 2 writes round 1 only
    path = problem(tmp_path)
    stem = str(tmp_path / "it")
    assert main(["iterate", "--input", path, "--max-iter", "3", "--output", stem]) == 0
    written = sorted(p.name for p in tmp_path.glob("it.round*.json"))
    assert written == [f"it.round{k}.json" for k in range(1, rounds + 1)]
    with open(path) as fh:
        previous = json.load(fh)["complex"]
    for k in range(1, rounds + 1):
        round_file = f"{stem}.round{k}.json"
        assert main(["verify", "--input", round_file]) == 0
        with open(round_file) as fh:
            data = json.load(fh)
        assert data["source_complex"] == previous
        previous = data["complex"]


def test_cli_iterate_negative_rounds_is_usage_error(capsys):
    code = main(["iterate", "--input", FIXTURE, "--max-iter", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "stop:" not in captured.out
    assert "non-negative" in captured.err


def test_cli_info(capsys):
    code = main(["info", "--input", FIXTURE])
    assert code == 0
    out = capsys.readouterr().out
    assert "length: 2" in out
    assert "F_2: rank 1" in out


def test_cli_info_prints_the_quotient(tmp_path, capsys):
    path = write_json(tmp_path, "q.json", _quotient_vanishing_top_data())
    assert main(["info", "--input", path]) == 0
    assert "quotient: z^2" in capsys.readouterr().out.splitlines()


def test_cli_koszul_of_the_file_parameters_to_stdout(tmp_path, capsys):
    # neither --generators nor --output: the Koszul complex of the file's
    # parameters, printed as a problem file
    assert main(["koszul", "--input", FIXTURE]) == 0
    path = tmp_path / "k.json"
    path.write_text(capsys.readouterr().out)
    pf = parse_problem(str(path))
    assert [m.rank for m in pf.complex.modules] == [1, 2, 1]
    assert pf.complex == koszul(validate_sop(pf.ring, pf.sop_polys()))


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--input", FIXTURE],
        ["koszul", "--input", FIXTURE],
        ["colon", "--input", FIXTURE],
        ["iterate", "--input", FIXTURE],
    ],
    ids=["star", "koszul", "colon", "iterate"],
)
def test_cli_output_under_a_missing_directory_is_an_io_error(tmp_path, capsys, argv):
    out = tmp_path / "no" / "such" / "x.json"
    assert main(argv + ["--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_koszul_generators(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    code = main(
        [
            "koszul",
            "--input",
            FIXTURE,
            "--generators",
            "x^2,y^2",
            "--output",
            out,
        ]
    )
    assert code == 0
    pf = parse_problem(out)
    assert [m.rank for m in pf.complex.modules] == [1, 2, 1]
    assert pf.complex.phi(2).column(0)[0] == pf.ring.parse("-y^2")
    for argv in (["info", "--input", out], ["star", "--input", out]):
        assert main(argv) == 0


@pytest.mark.parametrize("generators", ["x^2,y^2,x*y", "x^2"])
def test_cli_koszul_generator_count_must_match_the_parameters(
    tmp_path, capsys, generators
):
    # the file pairs the complex with the two parameters of exa.json, so a
    # complex of another length would be rejected by every later command
    out = tmp_path / "gen.json"
    argv = ["koszul", "--input", FIXTURE, "--generators", generators]
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err
    assert "2 parameters" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", [["--input", FIXTURE], ["--generators", "x^2,y^2"]]
)
def test_cli_koszul_seed_takes_no_input_or_generators(tmp_path, capsys, extra):
    out = tmp_path / "rand.json"
    assert main(["koszul", "--seed", "11", "--output", str(out)] + extra) == 2
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err and "--seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_koszul_seed(tmp_path, capsys):
    out = str(tmp_path / "rand.json")
    code = main(["koszul", "--seed", "11", "--output", out])
    assert code == 0
    pf = parse_problem(out)
    sop = validate_sop(pf.ring, pf.sop_polys())
    result = star_transform(pf.complex, sop)
    assert result.report.overall


def test_cli_field_override(tmp_path, capsys):
    out = str(tmp_path / "exa32003.star.json")
    code = main(
        ["star", "--input", FIXTURE, "--field", "p:32003", "--output", out]
    )
    assert code == 0
    pf = parse_problem(out)
    assert pf.ring.field.name == "p:32003"


def _zero_seconds(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for check in data["report"]["checks"]:
        check["seconds"] = 0.0
    return data


def test_cli_field_override_reads_the_text_not_the_reduced_file(tmp_path, capsys):
    # over p:7, -y^2 reduces to 6*y^2; the override must read "-y^2" over Q
    data = exa_data()
    data["field"] = {"type": "prime", "p": 7}
    p7 = write_json(tmp_path, "exa_p7.json", data)
    over_q = str(tmp_path / "over_q.json")
    plain = str(tmp_path / "plain.json")
    args = ["star", "--input", p7, "--field", "rational", "--output", over_q]
    assert main(args + ["--verify"]) == 0
    assert main(["star", "--input", FIXTURE, "--output", plain]) == 0
    assert _zero_seconds(over_q) == _zero_seconds(plain)


def test_cli_field_override_canonicalizes_the_sop_over_the_new_field(tmp_path):
    data = exa_data()
    data["sop"] = ["x", "1/2*y"]
    half = write_json(tmp_path, "half.json", data)
    out = str(tmp_path / "half_p5.json")
    assert main(["star", "--input", half, "--field", "p:5", "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert json.loads(text)["sop"] == ["x", "3*y"]
    again = str(tmp_path / "again.json")
    emit_problem(parse_problem(out), again)
    with open(again, encoding="utf-8") as fh:
        assert fh.read() == text


def test_cli_field_override_reads_the_text_over_the_override_only(tmp_path, capsys):
    # 1/2 has no image over the file's p:2, but the override reads the
    # text over Q alone, so the file parses
    data = exa_data()
    data["field"] = {"type": "prime", "p": 2}
    data["sop"] = ["x", "1/2*y"]
    path = write_json(tmp_path, "half_p2.json", data)
    assert main(["info", "--input", path]) == 3
    assert main(["info", "--input", path, "--field", "rational"]) == 0
    assert "sop: x, 1/2*y" in capsys.readouterr().out


def test_cli_field_override_does_not_undo_residues(tmp_path, capsys):
    # a file written over p:7 stores -y^2 as 6*y^2; read over Q that text is
    # another map, so the complex no longer composes to zero
    p7 = str(tmp_path / "r7p.json")
    assert main(["koszul", "--seed", "7", "--field", "p:7", "--output", p7]) == 0
    with open(p7, encoding="utf-8") as fh:
        assert "6*y^2" in fh.read()
    out = str(tmp_path / "r7p.star.json")
    args = ["star", "--input", p7, "--field", "rational", "--output", out]
    assert main(args) == 2
    assert "not a valid complex" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_large_prime_field(capsys):
    assert main(["info", "--input", FIXTURE, "--field", "p:2305843009213693951"]) == 0
    assert main(["info", "--input", FIXTURE, "--field", "p:2305843009213693953"]) == 3
    assert "not prime" in capsys.readouterr().err


def _set_degree(d):
    d["variables"][0]["degree"] = "a"


def _set_map_entry(d):
    d["complex"]["maps"][0][0][1] = 5


def _set_labels(d):
    d["labels"] = [[["angle", 0]], [["angle", 0], ["angle"]], [["angle", 0]]]


def _set_half(d):
    d["sop"] = ["1/2*x", "y"]


def _set_field_p4(d):
    d["field"] = {"type": "prime", "p": 4}


def _set_duplicate_name(d):
    d["variables"][1]["name"] = "x"


def _set_report(d):
    d["report"] = 5


def _set_source_int(d):
    d["source_complex"] = 3


def _set_bool_twist(d):
    d["complex"]["twists"][0] = [False]


def _set_overflowing_exponent(d):
    d["sop"][0] = "x^4294967296"


def _set_long_coefficient(d):
    d["sop"][0] = "1" + "0" * sys.get_int_max_str_digits() + "*x"


def _set_overflowing_degree(d):
    d["variables"][0]["degree"] = 2**40


def _set_checks_object(d):
    d["report"] = {"overall": True, "checks": {"name": "homogeneity"}}


def _set_check_list(d):
    d["report"] = {"overall": True, "checks": [["homogeneity", True]]}


def _set_seconds_past_every_float(d):
    d["report"] = {
        "overall": True,
        "checks": [{"name": "homogeneity", "pass": True, "seconds": 10**400}],
    }


def _set_seconds_just_below_2_to_1024(d):
    # passes a bound of 2**1024, but float() of it overflows
    d["report"] = {"overall": True, "checks": [_passing_check(2**1024 - 2**970)]}


def _set_seconds_nan(d):
    d["report"] = {
        "overall": True,
        "checks": [{"name": "homogeneity", "pass": True, "seconds": float("nan")}],
    }


def _passing_check(seconds=0.0):
    return {"name": "homogeneity", "pass": True, "detail": "", "seconds": seconds}


def _set_checks_empty(d):
    d["report"] = {"overall": True, "checks": []}


def _set_overall_false(d):
    d["report"] = {"overall": False, "checks": [_passing_check()]}


def _set_overall_missing(d):
    d["report"] = {"checks": [_passing_check()]}


def _set_seconds_negative(d):
    d["report"] = {"overall": True, "checks": [_passing_check(-5)]}


def _set_field_complex(d):
    d["field"] = {"type": "complex"}


def _set_quotient_string(d):
    d["quotient"] = "x^2"


def _set_twists_int(d):
    d["complex"]["twists"][0] = 0


def _set_labels_of_ints(d):
    d["labels"] = [5]


def _set_check_name_int(d):
    d["report"] = {"overall": True, "checks": [dict(_passing_check(), name=5)]}


def _set_check_detail_int(d):
    d["report"] = {"overall": True, "checks": [dict(_passing_check(), detail=5)]}


def _set_report_pass_string(d):
    d["report"] = {
        "overall": True,
        "checks": [
            {"name": "composition_zero", "pass": "false", "detail": "", "seconds": 0.0}
        ],
    }


@pytest.mark.parametrize(
    "command, mutate, extra, path",
    [
        ("star", _set_degree, [], "variables[0].degree"),
        ("info", _set_map_entry, [], "complex.maps[0][0][1]"),
        ("info", _set_labels, [], "labels[1][1]"),
        ("star", _set_half, ["--field", "p:2"], "sop[0]"),
        ("info", _set_field_p4, ["--field", "rational"], "'p:4'"),
        ("info", _set_duplicate_name, [], "variables"),
        ("verify", _set_report, [], "report"),
        ("info", _set_source_int, [], "source_complex"),
        ("info", _set_bool_twist, [], "complex.twists[0][0]"),
        ("info", _set_report_pass_string, [], "report.checks[0].pass"),
        ("info", _set_checks_object, [], "report.checks must be a list"),
        ("verify", _set_check_list, [], "report.checks[0] must be an object"),
        ("info", _set_seconds_past_every_float, [], "report.checks[0].seconds"),
        ("info", _set_seconds_just_below_2_to_1024, [], "report.checks[0].seconds"),
        ("info", _set_seconds_nan, [], "report.checks[0].seconds"),
        ("info", _set_checks_empty, [], "report.checks must not be empty"),
        ("info", _set_overall_false, [], "report.overall does not match"),
        ("info", _set_overall_missing, [], "report.overall must be true or false"),
        ("info", _set_seconds_negative, [], "report.checks[0].seconds"),
        ("star", _set_overflowing_exponent, [], "sop[0]"),
        ("info", _set_overflowing_degree, [], "variables"),
        ("info", _set_field_complex, [], "unknown field type 'complex'"),
        ("info", _set_quotient_string, [], "quotient must be a list"),
        ("info", _set_twists_int, [], "complex.twists[0] must be a list"),
        ("info", _set_labels_of_ints, [], "labels must be a list of lists"),
        ("info", _set_check_name_int, [], "report.checks[0].name"),
        ("info", _set_check_detail_int, [], "report.checks[0].detail"),
        pytest.param(
            "info", _set_long_coefficient, [], "sop[0]", marks=needs_a_digit_limit
        ),
    ],
    ids=[
        "degree-string",
        "map-entry-int",
        "label-short",
        "denominator-mod-p",
        "file-field-under-override",
        "duplicate-variable",
        "report-not-object",
        "source-complex-int",
        "twist-bool",
        "report-pass-string",
        "checks-not-a-list",
        "check-not-an-object",
        "seconds-overflow",
        "seconds-overflow-below-2-to-1024",
        "seconds-nan",
        "checks-empty",
        "overall-false-over-passing-checks",
        "overall-missing",
        "seconds-negative",
        "exponent-overflow",
        "degree-overflow",
        "field-type-unknown",
        "quotient-string",
        "twists-int",
        "labels-of-ints",
        "check-name-int",
        "check-detail-int",
        "coefficient-past-the-digit-limit",
    ],
)
def test_cli_malformed_file_is_parse_error(
    tmp_path, capsys, command, mutate, extra, path
):
    data = exa_data()
    mutate(data)
    bad = write_json(tmp_path, "bad.json", data)
    args = [command, "--input", bad] + extra
    if command == "star":
        args += ["--output", str(tmp_path / "o.json")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and path in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{", "{path} is not valid JSON: "),
        (b"\xff", "{path} is not valid JSON: "),
        pytest.param(
            b"[1" + b"0" * sys.get_int_max_str_digits() + b"]",
            "{path}: a number has more than {limit} digits\n",
            marks=needs_a_digit_limit,
        ),
        (b"[" * 100_000 + b"]" * 100_000, "{path}: JSON nested too deeply\n"),
    ],
    ids=["cut", "not-utf-8", "number-past-the-digit-limit", "nested-too-deeply"],
)
def test_cli_a_file_that_is_not_json_exits_three(tmp_path, capsys, content, message):
    # a number past the digit limit is valid JSON: the message names the
    # limit instead of advice a command-line user cannot follow
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["info", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    expected = message.format(path=path, limit=sys.get_int_max_str_digits())
    assert captured.err.startswith("parse error: " + expected)
    assert "set_int_max_str_digits" not in captured.err
    assert captured.out == ""


@needs_a_digit_limit
def test_cli_an_output_coefficient_past_the_int_str_limit_is_a_precondition(
    tmp_path, capsys
):
    # each input coefficient has fewer digits than the limit, and the
    # output's products of two of them have more
    c = "7" + "3" * (3 * sys.get_int_max_str_digits() // 5)
    data = exa_data()
    data["complex"]["maps"] = [
        [[f"-{c}*{e[1:]}" if e[0] == "-" else f"{c}*{e}" for e in row] for row in m]
        for m in data["complex"]["maps"]
    ]
    path = write_json(tmp_path, "scaled.json", data)
    out = tmp_path / "scaled.star.json"
    argv = ["star", "--input", path, "--output", str(out), "--verify"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "precondition violated: a coefficient has more than "
        f"{sys.get_int_max_str_digits()} digits, the int/str conversion limit\n"
    )
    assert not out.exists()


def _set_inhomogeneous_quotient(d):
    d["quotient"] = ["x^2 + y"]


def _set_labels_one_position(d):
    d["labels"] = [[["angle", 0]]]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_inhomogeneous_quotient, "quotient generator 0 is not homogeneous"),
        (_set_labels_one_position, "labels block must cover every module"),
    ],
    ids=["quotient-inhomogeneous", "labels-one-position"],
)
def test_cli_malformed_file_is_a_precondition(tmp_path, capsys, mutate, message):
    data = exa_data()
    mutate(data)
    bad = write_json(tmp_path, "bad.json", data)
    assert main(["info", "--input", bad]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"precondition violated: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "rows, path",
    [
        ([["x^2", "y^2"], ["x", "y"]], "complex.maps[0] must have 1 rows"),
        ([["x^2"]], "complex.maps[0][0] must have 2 entries"),
    ],
    ids=["row-count", "row-length"],
)
def test_cli_map_shape_error_names_the_json_path(tmp_path, capsys, rows, path):
    data = exa_data()
    data["complex"]["maps"][0] = rows
    bad = write_json(tmp_path, "bad.json", data)
    assert main(["info", "--input", bad]) == 2
    assert path in capsys.readouterr().err


def test_cli_missing_input(capsys):
    code = main(["star"])
    assert code == 3


# -- parser ------------------------------------------------------------------


def test_cli_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        assert main(["info", "--input", FIXTURE]) == 0
        after_first = len(built)
        assert main(["info", "--input", FIXTURE]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("startrans") == 1
    assert len(built) == after_first


def test_cli_usage_error_after_a_successful_call(capsys):
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as fresh:
        main(["star", "--bogus"])
    fresh_err = capsys.readouterr().err
    assert main(["info", "--input", FIXTURE]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as again:
        main(["star", "--bogus"])
    assert fresh.value.code == again.value.code == 2
    assert capsys.readouterr().err == fresh_err
    assert "unrecognized arguments: --bogus" in fresh_err
