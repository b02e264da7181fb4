import os
import random
import sys
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    FIXED_CHECKS,
    all_match,
    eagon_northcott,
    generic_pfaffian,
    hilbert_burch,
    image_complex,
    padded_zero_top_instance,
    pullback,
    random_linear_form,
)

from startrans import (
    FreeComplex,
    GradedFreeModule,
    IterationLimit,
    PolyMatrix,
    PolyRing,
    PreconditionFailed,
    PrimeField,
    RationalField,
    StarComplex,
    StarTransError,
    SubmoduleGB,
    ValidationError,
    buchberger,
    colon,
    colon_quotient_count,
    depth_positive_check,
    koszul,
    saturate,
    star_iteration_driver,
    star_transform,
    submodule_equal,
    validate_sop,
    verify_star,
)
from startrans import complexes, modules, verify
from startrans.cli import main
from startrans.instances import (
    complete_intersection_instance,
    corpus,
    exa_instance,
    vanishing_top_instance,
)


@pytest.fixture
def ring():
    return PolyRing(RationalField(), ("x", "y"))


@pytest.fixture
def R1(ring):
    return GradedFreeModule(ring, 1, (0,))


def ideal(R1, *texts):
    return buchberger(R1, [R1.vector((R1.ring.parse(t),)) for t in texts])


# -- verify_star ---------------------------------------------------------


def test_verify_passes_on_exa():
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    report = verify_star(comp, sop, res.star)
    assert report.overall
    assert list(FIXED_CHECKS) == report.names()[: len(FIXED_CHECKS)]


def test_verify_fails_on_unit_entry():
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    star = res.star
    out = star.complex
    ring = comp.ring
    # replace one entry of the top map by a nonzero scalar
    entries = [list(row) for row in out.phi(2).entries]
    entries[0][0] = ring.one()
    bad_map = PolyMatrix(ring, entries)
    bad = FreeComplex(
        ring, out.modules, (out.phi(1), bad_map), out.labels
    )
    tampered = StarComplex(bad, star.input_top_rank)
    report = verify_star(comp, sop, tampered)
    assert not report.overall
    failed = {c.name for c in report.checks if not c.passed}
    assert "top_minimality" in failed


def test_star_complex_refuses_an_unlabelled_complex():
    # the pairs are read from the labels; without them verify_star would
    # fail outside any report check
    comp, sop = exa_instance()
    with pytest.raises(ValidationError, match="complex has no labels"):
        StarComplex(comp, comp.top_rank())


def test_a_forged_rank_fails_rank_accounting_naming_the_position_and_ranks():
    # one more basis vector at position 1 of an n = 3 output, with a zero
    # column of phi_1 and a zero row of phi_2: still a homogeneous complex
    comp, sop = complete_intersection_instance((2, 2, 2))
    out = star_transform(comp, sop, with_report=False).star
    ring, f1 = out.complex.ring, out.complex.module(1)
    phi1, phi2 = out.complex.phi(1), out.complex.phi(2)
    rank, zero = f1.rank + 1, ring.zero()
    forged = FreeComplex(
        ring,
        out.complex.modules[:1]
        + (GradedFreeModule(ring, rank, f1.twists + f1.twists[:1]),)
        + out.complex.modules[2:],
        (
            PolyMatrix(ring, [[*row, zero] for row in phi1.entries], 1, rank),
            PolyMatrix(ring, [*phi2.entries, [zero] * phi2.ncols], rank, phi2.ncols),
        )
        + out.complex.maps[2:],
        out.complex.labels,
    )
    star = StarComplex(forged, out.input_top_rank, out.witness)
    checks = {c.name: c for c in verify_star(comp, sop, star).checks}
    assert f1.rank == 4
    assert not checks["rank_accounting"].passed
    assert checks["rank_accounting"].detail == "rank at 1: 5 != 4"


def test_verify_star_fails_an_output_whose_maps_do_not_compose():
    comp, sop = exa_instance()
    star = star_transform(comp, sop, with_report=False).star
    out = star.complex
    ring = out.ring
    phi1 = out.phi(1)
    wide = PolyMatrix(ring, [list(phi1.entries[0]) + [ring.zero()]])
    bad = FreeComplex(ring, out.modules, (wide,) + out.maps[1:], out.labels)
    report = verify_star(comp, sop, StarComplex(bad, star.input_top_rank))
    checks = {c.name: c for c in report.checks}
    assert not checks["composition_zero"].passed
    assert not checks["homogeneity"].passed
    assert checks["colon_equality"].detail == "not a complex"


def test_verify_fails_on_sign_tamper():
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    star = res.star
    out = star.complex
    ring = comp.ring
    entries = [list(row) for row in out.phi(2).entries]
    entries[0][0] = -entries[0][0]
    bad_map = PolyMatrix(ring, entries)
    bad = FreeComplex(ring, out.modules, (out.phi(1), bad_map), out.labels)
    tampered = StarComplex(bad, star.input_top_rank)
    report = verify_star(comp, sop, tampered)
    assert not report.overall
    failed = {c.name for c in report.checks if not c.passed}
    assert failed & {"composition_zero", "acyclicity"}
    if "composition_zero" in failed:
        acyclicity = next(c for c in report.checks if c.name == "acyclicity")
        assert not acyclicity.passed and acyclicity.detail == "not a complex"


def test_report_lines_format():
    comp, sop = exa_instance()
    res = star_transform(comp, sop)
    lines = res.report.lines()
    assert lines[-1] == "PASS overall"
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_report_json_round_trip():
    from startrans import VerificationReport

    comp, sop = exa_instance()
    res = star_transform(comp, sop)
    data = res.report.to_jsonable()
    back = VerificationReport.from_jsonable(data)
    assert back.overall == res.report.overall
    assert back.names() == res.report.names()


# -- quotient dimension count ----------------------------------------------


def count(m_gb, sop, rank_top):
    return colon_quotient_count(
        m_gb.series(), colon(m_gb, sop.gens).series(), sop, rank_top
    )


def test_count_exa():
    comp, sop = exa_instance()
    assert count(comp.image_gb(), sop, comp.top_rank()) == (
        True, "dim (M:Q)/M = 1, expected 1"
    )


def test_count_zero_top():
    comp, sop = padded_zero_top_instance()
    assert count(comp.image_gb(), sop, 0) == (True, "dim (M:Q)/M = 0, expected 0")


def test_count_complete_intersection():
    comp, sop = complete_intersection_instance((2, 2, 2))
    assert sop.colength == 1
    assert count(comp.image_gb(), sop, 1) == (True, "dim (M:Q)/M = 1, expected 1")


def test_count_detects_wrong_rank():
    comp, sop = exa_instance()
    assert count(comp.image_gb(), sop, 5) == (
        False, "dim (M:Q)/M = 1, expected 5"
    )


def test_count_stable_colon(R1, ring):
    # M = (x) against Q = (x, y): (M : Q) = M, so the count is 0 = 0
    m = ideal(R1, "x")
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    assert count(m, sop, 0) == (True, "dim (M:Q)/M = 0, expected 0")


def test_count_non_polynomial_difference(R1, ring):
    # a broken upstream precondition: "parameters" that are not a sop make
    # (M:Q)/M infinite-dimensional; the verdict is a failure, not an
    # exception
    from startrans.complexes import SopData

    fake_sop = SopData(ring, (ring.var(0),), (1,))
    m = ideal(R1, "x^2")
    passed, detail = colon_quotient_count(
        m.series(), colon(m, fake_sop.gens).series(), fake_sop, 1
    )
    assert not passed
    assert "is not a polynomial" in detail


def test_colon_count_check_fails_on_a_non_polynomial_difference():
    # N = 0 is not M : Q, and HS(F_0/M) - HS(F_0/N) is an infinite series:
    # the check's verdict is a failure, not an exception
    comp, sop = exa_instance()
    zero = image_complex(comp.module(0), [])
    passed, detail = verify._colon_count(comp, sop, zero)
    assert not passed and "is not a polynomial" in detail


# -- depth ----------------------------------------------------------------


def test_depth_positive_principal(R1):
    assert depth_positive_check(ideal(R1, "x"))


def test_depth_zero_for_socle(R1):
    assert not depth_positive_check(ideal(R1, "x^2", "x*y", "y^2"))


def test_depth_zero_for_irrelevant_ideal(R1):
    assert not depth_positive_check(ideal(R1, "x", "y"))


def _over_z_squared(*texts):
    """The ideal of ``texts`` in Q[x,y,z]/(z^2)."""
    base = PolyRing(RationalField(), ("x", "y", "z"))
    ring = base.with_quotient([base.parse("z^2")])
    return ideal(GradedFreeModule(ring, 1, (0,)), *texts)


@pytest.mark.parametrize(
    "make, positive, settled",
    [
        (lambda R1: ideal(R1, "x^2"), True, True),
        (lambda R1: ideal(R1, "x*y"), True, False),
        (lambda R1: ideal(R1, "x^2", "x*y"), False, False),
        (lambda R1: ideal(R1, "x", "y"), False, False),
        (lambda R1: _over_z_squared("x"), True, True),
        (lambda R1: _over_z_squared("x", "y"), False, False),
    ],
    ids=["x2", "xy", "x2-xy", "x-y", "quotient-x", "quotient-x-y"],
)
def test_depth_probe_agrees_with_the_colon_by_all_variables(
    monkeypatch, R1, make, positive, settled
):
    # the probe stops at the first variable x with M : x = M and otherwise
    # intersects the per-variable colons; either way its verdict is that of
    # comparing M with the colon by the whole irrelevant ideal
    m = make(R1)
    ring = m.ambient.ring
    variables = [ring.var(i) for i in range(ring.nvars)]
    assert submodule_equal(colon(m, variables), m) == positive
    intersections = _count_calls(monkeypatch, modules.intersect)
    assert depth_positive_check(m) == positive
    assert (intersections == []) == settled


def test_depth_flag_consistent_with_fast_path():
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop)
    assert res.star.top_rank() == 0
    assert depth_positive_check(res.star.complex.image_gb())
    assert any(
        c.name == "depth_positive" and c.passed for c in res.report.checks
    )


# -- saturate ---------------------------------------------------------------


def test_saturate_m_primary_to_unit(R1, ring):
    m_vars = [ring.var(0), ring.var(1)]
    sat, updates = saturate(ideal(R1, "x^2", "x*y", "y^2"), m_vars)
    assert submodule_equal(sat, ideal(R1, "1"))
    assert updates == 2


def test_saturate_strips_primary_component(R1, ring):
    m_vars = [ring.var(0), ring.var(1)]
    sat, updates = saturate(ideal(R1, "x^2", "x*y"), m_vars)
    assert submodule_equal(sat, ideal(R1, "x"))
    assert updates == 1


def test_saturate_already_stable(R1, ring):
    m_vars = [ring.var(0), ring.var(1)]
    sat, updates = saturate(ideal(R1, "x"), m_vars)
    assert updates == 0
    assert submodule_equal(sat, ideal(R1, "x"))


def test_saturate_idempotent(R1, ring):
    m_vars = [ring.var(0), ring.var(1)]
    once, _ = saturate(ideal(R1, "x^3", "x*y^2"), m_vars)
    twice, updates = saturate(once, m_vars)
    assert updates == 0
    assert submodule_equal(once, twice)


def test_saturate_iteration_limit(R1, ring):
    with pytest.raises(IterationLimit):
        saturate(ideal(R1, "x^2", "x*y", "y^2"), [ring.var(0), ring.var(1)], 1)


def test_colon_contains_module(R1, ring):
    m = ideal(R1, "x^3", "x*y", "y^2")
    c = colon(m, [ring.var(0), ring.var(1)])
    for g in m.gb:
        assert c.contains(g)


# -- iteration driver ----------------------------------------------------------


@cache
def pullback_bases():
    """(name, complex): the round-1 outputs of the corpus over Q, p:32003
    and p:7 whose input and output tops are both nonzero."""
    bases = []
    for field in (None, PrimeField(32003), PrimeField(7)):
        for name, comp, sop in corpus(field=field):
            star = star_transform(comp, sop, with_report=False).star
            if comp.top_rank() and star.top_rank():
                bases.append((f"{name}/{field}", star.complex))
    return bases


def pulled_back(base, rng, hypersurface=False):
    """(input, sop): ``base`` carried along y_i -> q_i * g_i, with q_i a
    random linear form and g_i a product of 2 w_i - 1 more, w_i the weight
    of y_i, all drawn from ``rng``; or None when q or the q_i * g_i are not
    a system of parameters.  The target is k[y..] with every weight one,
    or with ``hypersurface`` the Cohen-Macaulay ring k[u, y..]/(h) of the
    same dimension, h = l_1 l_2 + l_3 l_4 for random linear forms l_k."""
    names = ("u",) * hypersurface + base.ring.names
    ring = PolyRing(base.ring.field, names)
    if hypersurface:
        h = [random_linear_form(rng, ring) for _ in range(4)]
        ring = ring.with_quotient([h[0] * h[1] + h[2] * h[3]])
    params = [random_linear_form(rng, ring) for _ in base.ring.names]
    forms = []
    for q, w in zip(params, base.ring.weights):
        for _ in range(2 * w - 1):
            q = q * random_linear_form(rng, ring)
        forms.append(q)
    try:
        sop = validate_sop(ring, params)
        validate_sop(ring, forms)
    except StarTransError:
        return None
    return pullback(base, ring, forms), sop


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.data())
def test_pulled_back_outputs_iterate_certified(data):
    # y_i -> q_i * l_i carries a certified output to a new acyclic input
    # whose top map lies in (q) F_(n-1), with parameters q
    name, base = data.draw(st.sampled_from(pullback_bases()))
    drawn = pulled_back(base, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    assume(drawn is not None)
    driver = star_iteration_driver(*drawn, 3)
    assert all(r.result.report.overall for r in driver.rounds), name
    assert driver.rounds and all_match(driver), name


@cache
def weighted_base():
    """(name, complex): the round-1 output of K(x^2, y^2) over Q[x, y]
    weighted (1, 2), parameters x, y."""
    ring = PolyRing(RationalField(), ("x", "y"), (1, 2))
    comp = koszul(validate_sop(ring, [ring.parse("x^2"), ring.parse("y^2")]))
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    return "weighted (1, 2)/Q", star_transform(comp, sop, with_report=False).star.complex


def _route(cert):
    return cert.ok, cert.failed_position, cert.detail, cert.series


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.data())
def test_outputs_pulled_back_into_hypersurface_rings_iterate_certified(data):
    # the paper's setting is a Cohen-Macaulay ring; over Q the certificate
    # runs mod P once J's reduction keeps HS(R/J), and on every round's
    # input and output the mod-P certificate is the one over Q.  That is
    # compared over three variables: over four, the certificate over Q
    # alone takes more than 10 s on most of these complexes
    bases = st.one_of(st.just(weighted_base()), st.sampled_from(pullback_bases()))
    name, base = data.draw(bases)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    drawn = pulled_back(base, rng, hypersurface=True)
    assume(drawn is not None)
    driver = star_iteration_driver(*drawn, 2)
    assert all(r.result.report.overall for r in driver.rounds), name
    assert driver.rounds and all_match(driver), name
    if base.ring.field.p is None:
        assert complexes._modular(drawn[0].ring), name
    if base.ring.field.p is None and base.ring.nvars == 2:
        for c in [drawn[0]] + [r.result.star.complex for r in driver.rounds]:
            mod_p = complexes._series_certificate(c, complexes._MODULAR_FIELD)
            assert _route(mod_p) == _route(complexes._series_certificate(c)), name


EN_FIELDS = {"Q": RationalField(), "p32003": PrimeField(32003), "p7": PrimeField(7)}


@pytest.mark.parametrize("field", sorted(EN_FIELDS))
def test_driver_on_eagon_northcott_resolutions(field):
    # ranks [1, 6, 8, 3] in, and rounds no Koszul or Pfaffian input reaches
    comp, sop = eagon_northcott(EN_FIELDS[field], seed=0)
    driver = star_iteration_driver(comp, sop, 3)
    assert driver.stop_reason == "completed"
    assert all(rnd.result.report.overall for rnd in driver.rounds)
    assert all_match(driver)
    ranks = [
        [m.rank for m in rnd.result.star.complex.modules] for rnd in driver.rounds
    ]
    assert ranks == [[1, 9, 17, 9], [1, 18, 27, 10], [1, 28, 33, 6]]


@pytest.mark.parametrize("field", ["Q", "p32003"])
@pytest.mark.parametrize("t", [2, 3])
def test_driver_on_hilbert_burch_resolutions(field, t):
    # ranks [1, t+1, t] in; each round after the first lowers both nonzero
    # ranks by one
    comp, sop = hilbert_burch(EN_FIELDS[field], t, seed=t)
    driver = star_iteration_driver(comp, sop, 3)
    assert driver.stop_reason == "completed"
    assert all(rnd.result.report.overall for rnd in driver.rounds)
    assert all_match(driver)
    ranks = [
        [m.rank for m in rnd.result.star.complex.modules] for rnd in driver.rounds
    ]
    assert ranks == [[1, 2 * t + 1 - k, 2 * t - k] for k in range(3)]


@pytest.mark.parametrize("seed", [0, 1])
def test_pulled_back_pfaffian_outputs_iterate_certified(seed):
    # the round-1 output of a Pfaffian resolution, not a Koszul complex,
    # carried to a new input whose top map lies in (q) F_(n-1)
    comp, sop = generic_pfaffian(PrimeField(32003), seed)
    base = star_transform(comp, sop, with_report=False).star.complex
    rng = random.Random(100 + seed)
    drawn = next(filter(None, (pulled_back(base, rng) for _ in range(5))))
    driver = star_iteration_driver(*drawn, 3)
    assert driver.stop_reason == "completed"
    assert all(rnd.result.report.overall for rnd in driver.rounds)
    assert all_match(driver)


def test_driver_exa_two_rounds():
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 2)
    assert len(driver.rounds) == 2
    assert all_match(driver)
    ring = comp.ring
    R1 = GradedFreeModule(ring, 1, (0,))
    expected_round2 = buchberger(
        R1, [R1.vector((ring.var(0),)), R1.vector((ring.var(1),))]
    )
    assert submodule_equal(
        driver.rounds[1].result.star.complex.image_gb(), expected_round2
    )
    assert driver.rounds[1].result.report.overall
    # round-1 output top map entries lie in Q, which let round 2 run
    round1 = driver.rounds[0].result.star.complex
    from startrans import check_qf_containment

    assert check_qf_containment(round1, sop)


@pytest.mark.parametrize("seed", [0, 1])
def test_driver_on_pfaffian_resolutions(seed):
    # a resolution that is not a Koszul complex; from round 2 on the top
    # map has several columns, so the selection's pivot order shows
    comp, sop = generic_pfaffian(PrimeField(32003), seed)
    driver = star_iteration_driver(comp, sop, 4)
    assert driver.stop_reason == "completed"
    assert all(rnd.result.report.overall for rnd in driver.rounds)
    assert all_match(driver)
    ranks = [
        [m.rank for m in rnd.result.star.complex.modules] for rnd in driver.rounds
    ]
    assert ranks == [[1, 6, 8, 3], [1, 9, 14, 6], [1, 15, 24, 10], [1, 25, 34, 10]]


def test_driver_stops_on_vanished_top():
    comp, sop = vanishing_top_instance()
    driver = star_iteration_driver(comp, sop, 5)
    assert len(driver.rounds) == 1
    assert "vanished" in driver.stop_reason


def test_driver_zero_rounds():
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 0)
    assert driver.rounds == []
    assert driver.final_complex is comp


def test_driver_precondition_round_one():
    ring = PolyRing(RationalField(), ("x", "y"))
    x = ring.var(0)
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 2, (1, 0)),
        GradedFreeModule(ring, 1, (0,)),
    )
    maps = (
        PolyMatrix(ring, [[x, ring.zero()]]),
        PolyMatrix(ring, [[ring.zero()], [ring.one()]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed):
        star_iteration_driver(comp, sop, 1)


def test_driver_matches_iterated_oracle():
    comp, sop = complete_intersection_instance((2, 2, 2))
    driver = star_iteration_driver(comp, sop, 2)
    assert all_match(driver)
    oracle = comp.image_gb()
    for rnd in driver.rounds:
        oracle = colon(oracle, sop.gens)
        assert submodule_equal(rnd.result.star.complex.image_gb(), oracle)


def test_driver_match_chains_from_the_round_reports(monkeypatch, capsys):
    # round 1's colon_equality fails; round 2's own check passes, but a
    # match needs every earlier round to have matched.  Round 1's
    # certificate is handed N = M, which it must reject on its own.
    real = verify._colon_certificate
    calls = []

    def forge_first(comp, sop, out, witness):
        calls.append(comp)
        return real(comp, sop, comp if len(calls) == 1 else out, witness)

    monkeypatch.setattr(verify, "_colon_certificate", forge_first)
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 2)
    colon_checks = [
        next(c for c in rnd.result.report.checks if c.name == "colon_equality")
        for rnd in driver.rounds
    ]
    assert [c.passed for c in colon_checks] == [False, True]
    assert "Tor bound" in colon_checks[0].detail
    assert [rnd.matches for rnd in driver.rounds] == [False, False]
    assert not all_match(driver)

    calls.clear()
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "exa.json")
    assert main(["iterate", "--input", fixture, "--max-iter", "2"]) == 1
    assert "round 2: ranks [1, 2, 1], oracle match NO" in capsys.readouterr().out


# -- each fact computed once ---------------------------------------------------


def _count_calls(monkeypatch, fn):
    """Wrap every binding of ``fn`` in the loaded startrans modules; returns
    the list of argument tuples of the calls made."""
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    for name, mod in list(sys.modules.items()):
        if name == "startrans" or name.startswith("startrans."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def _lifts_through(monkeypatch, gb):
    """Record the first coordinate of every vector lifted through ``gb``."""
    lifted = []
    real_lift = SubmoduleGB.lift

    def lift(self, v):
        if self is gb:
            lifted.append(v.coords[0])
        return real_lift(self, v)

    monkeypatch.setattr(SubmoduleGB, "lift", lift)
    return lifted


def test_driver_computes_no_colon_by_the_parameters(monkeypatch):
    calls = _count_calls(monkeypatch, colon)
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 2)
    assert len(driver.rounds) == 2 and all_match(driver)
    assert [a for a in calls if tuple(a[1]) == sop.gens] == []


def test_verify_star_runs_no_colon_when_the_output_image_fails(monkeypatch):
    # no check reads the output's basis: the colon certificate and the
    # count read N through its columns and series, and depth_positive reads
    # the acyclicity and regularity verdicts
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop, with_report=False)
    assert res.star.top_rank() == 0
    out = res.star.complex
    real = complexes.FreeComplex.image_gb

    def image_gb(self):
        if self is out:
            raise RuntimeError("image basis unavailable")
        return real(self)

    monkeypatch.setattr(complexes.FreeComplex, "image_gb", image_gb)
    calls = _count_calls(monkeypatch, colon)
    report = verify_star(comp, sop, res.star)
    assert calls == []
    assert report.overall
    assert report.names() == list(FIXED_CHECKS) + ["depth_positive"]


def test_vanishing_top_with_a_failed_acyclicity_fails_depth_positive():
    # phi_1 zeroed: still a complex with a zero top, but F_1 is its own
    # kernel.  The colon probe passes on N = 0 (F_0 itself has positive
    # depth); the report's verdict follows the failed acyclicity check.
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop, with_report=False)
    out = res.star.complex
    phi1 = out.phi(1)
    zero = PolyMatrix(out.ring, [[out.ring.zero()] * phi1.ncols], 1, phi1.ncols)
    bad = FreeComplex(out.ring, out.modules, (zero,) + out.maps[1:], out.labels)
    star = StarComplex(bad, res.star.input_top_rank, res.star.witness)
    assert star.top_rank() == 0 and phi1.ncols > 0
    checks = {c.name: c for c in verify_star(comp, sop, star).checks}
    assert checks["composition_zero"].passed and checks["homogeneity"].passed
    assert not checks["acyclicity"].passed
    assert not checks["depth_positive"].passed
    assert checks["depth_positive"].detail == (
        "top module vanished; colon by the irrelevant ideal is stable"
    )
    assert depth_positive_check(bad.image_gb())


def _vanishing_outputs():
    """Every output with a zero top among the corpus instances over Q and
    over p:7, each iterated up to 5 rounds, and Koszul(x, y) over
    Q[x, y, z]/(z^2) with parameters (x, y)."""
    for field in (None, PrimeField(7)):
        for name, comp, sop in corpus(field=field):
            driver = star_iteration_driver(comp, sop, 5)
            for rnd in driver.rounds:
                if rnd.result.star.top_rank() == 0:
                    yield f"{name}/{field}/{rnd.index}", rnd.result
    base = PolyRing(RationalField(), ("x", "y", "z"))
    ring = base.with_quotient([base.parse("z^2")])
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    yield "quotient", star_transform(koszul(sop), sop)


def test_depth_positive_verdict_equals_the_colon_probe():
    seen = 0
    for label, result in _vanishing_outputs():
        checks = {c.name: c for c in result.report.checks}
        assert checks["depth_positive"].passed == depth_positive_check(
            result.star.complex.image_gb()
        ), label
        seen += 1
    assert seen == 43  # 42 corpus outputs and the quotient case


def test_verify_star_reads_the_output_map_inside_the_checks_only():
    # phi_1 of the output gets one extra row, so its columns are not
    # vectors of F_0: homogeneity finds the shape defect, every check that
    # reads the map fails as "not a complex" without reading it, and the
    # report is still returned
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    out = res.star.complex
    phi1 = out.phi(1)
    extra = [list(row) for row in phi1.entries] + [[out.ring.zero()] * phi1.ncols]
    bad = FreeComplex(
        out.ring,
        out.modules,
        (PolyMatrix(out.ring, extra, phi1.nrows + 1, phi1.ncols),) + out.maps[1:],
        out.labels,
    )
    star = StarComplex(bad, res.star.input_top_rank, res.star.witness)
    report = verify_star(comp, sop, star)
    checks = {c.name: c for c in report.checks}
    assert not checks["homogeneity"].passed
    for name in ("acyclicity", "colon_equality", "colon_quotient_count"):
        assert not checks[name].passed, name
        assert checks[name].detail == "not a complex", name
    assert not report.overall


def test_vanishing_top_builds_no_basis_of_the_input_image(monkeypatch):
    # the chain map's witnesses show Q*N <= M for every bracket column, so
    # the colon certificate makes no membership test in M, and
    # depth_positive reads verdicts: no basis of N, no colon, no intersection
    comp, sop = vanishing_top_instance()
    built = _count_calls(monkeypatch, complexes._image_gb)
    colons = _count_calls(monkeypatch, colon)
    intersections = _count_calls(monkeypatch, modules.intersect)
    res = star_transform(comp, sop)
    assert res.report.overall and res.star.top_rank() == 0
    assert "depth_positive" in res.report.names()
    assert built == [] and colons == [] and intersections == []


def test_input_certified_once_across_transform_and_verify(monkeypatch):
    calls = _count_calls(monkeypatch, complexes._hilbert_certificate)
    structure = _count_calls(monkeypatch, complexes.check_complex)
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    report = verify_star(comp, sop, res.star)
    assert report.overall
    assert [a for a in calls if a[0] is comp] == [(comp,)]
    assert [a for a in structure if a[0] is comp] == [(comp,)]


def test_driver_certifies_each_round_input_once(monkeypatch):
    # a round's input is the previous round's output, whose acyclicity the
    # previous report already certified
    calls = _count_calls(monkeypatch, complexes._hilbert_certificate)
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 2)
    assert all_match(driver)
    certified = [a[0] for a in calls]
    assert len(certified) == len({id(c) for c in certified}) == 3


def test_verify_star_checks_structure_once(monkeypatch):
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    out = res.star.complex
    # the report's structural checks keep their verdicts on the complex,
    # and the acyclicity check reads them back
    compositions = _count_calls(
        monkeypatch, complexes._first_nonzero_composite_entry
    )
    homogeneities = _count_calls(monkeypatch, complexes._first_inhomogeneous_entry)
    report = verify_star(comp, sop, res.star)
    assert report.overall
    assert [a for a in compositions if a[0] is out] == [(out,)]
    assert [a for a in homogeneities if a[0] is out] == [(out,)]


def test_star_transform_checks_containment_once(monkeypatch):
    # the decomposition lifts each nonzero top-map entry through the basis of
    # Q once, and that lift is the containment test: no separate pass runs
    calls = _count_calls(monkeypatch, complexes.check_qf_containment)
    comp, sop = exa_instance()
    lifted = _lifts_through(monkeypatch, sop.ideal_gb())
    result = star_transform(comp, sop)
    assert result.report.overall
    assert calls == []
    top = comp.phi(comp.length)
    entries = [e for row in top.entries for e in row if e.terms]
    assert entries and sorted(map(str, lifted)) == sorted(map(str, entries))


def test_driver_checks_containment_once_per_round(monkeypatch):
    # each round's decomposition is its containment test: every nonzero
    # top-map entry of each round's input is lifted through the basis of Q
    # once, and no separate containment pass runs
    calls = _count_calls(monkeypatch, complexes.check_qf_containment)
    comp, sop = exa_instance()
    lifted = _lifts_through(monkeypatch, sop.ideal_gb())
    driver = star_iteration_driver(comp, sop, 2)
    assert len(driver.rounds) == 2 and all_match(driver)
    assert calls == []
    inputs = [comp, driver.rounds[0].result.star.complex]
    entries = [
        e for c in inputs for row in c.phi(c.length).entries for e in row if e.terms
    ]
    assert len(entries) > 2
    assert sorted(map(str, lifted)) == sorted(map(str, entries))


def test_star_verify_round_trip_reuses_what_the_call_certified(
    monkeypatch, tmp_path, capsys
):
    # exa.json reads back equal to the objects the call certified, so the
    # round trip reads their kept verdicts and prints the build's report.
    # Each map is scanned once per complex the call checks: the parsed
    # input at load, and the built output in the build's verify_star; the
    # read-back copies are compared, not scanned
    compositions = _count_calls(
        monkeypatch, complexes._first_nonzero_composite_entry
    )
    homogeneity = _count_calls(monkeypatch, complexes._first_inhomogeneous_entry)
    verified = _count_calls(monkeypatch, verify.verify_star)
    certificates = _count_calls(monkeypatch, complexes._hilbert_certificate)
    validations = _count_calls(monkeypatch, complexes.validate_sop)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "exa.json")
    out = str(tmp_path / "exa.star.json")
    assert main(["star", "--input", fixture, "--output", out, "--verify"]) == 0
    assert capsys.readouterr().out.count("PASS overall") == 2
    assert len(compositions) == 2
    assert len(homogeneity) == 2
    assert len(verified) == 1
    assert len(certificates) == 2
    assert len(validations) == 1
