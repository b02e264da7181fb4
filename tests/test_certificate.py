"""The certificates of ``verify_star``: acyclicity and M : Q.

``colon_equality`` certifies that Im phi_1 of the output (N) is the colon
of Im phi_1 of the input (M) by the parameters, without computing that
colon: the input is acyclic, the parameters form a regular sequence,
Q*N <= M, and HS(F_0/M) - HS(F_0/N) = sum_j t^(a_j - s) HS(R/Q).  Here its
verdict is compared with the Groebner colon on generated instances, and
forged outputs and broken assumptions are rejected.  The acyclicity
certificate, which stops each image's Buchberger run at its Hilbert floor,
is compared with the one that reduces every image basis.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from reference import (
    DrawFailed,
    eagon_northcott,
    full_hilbert_certificate,
    generic_koszul,
    hilbert_burch,
    image_complex,
)
from startrans import (
    FreeComplex,
    GradedFreeModule,
    PolyMatrix,
    PolyRing,
    Polynomial,
    PrimeField,
    RationalField,
    StarComplex,
    StarTransError,
    buchberger,
    certify_acyclic,
    colon,
    instances,
    koszul,
    star_transform,
    submodule_equal,
    validate_sop,
    verify_star,
)
from startrans import complexes, modules, verify
from startrans.errors import InternalError
from startrans.instances import exa_instance
from startrans.modules import ring_series


def _ring(field, names, weights=None, quotient=()):
    ring = PolyRing(field, names, weights)
    return ring.with_quotient([ring.parse(t) for t in quotient]) if quotient else ring


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


# -- regularity: HS(R/Q) = prod (1 - t^d_i) HS(R) ---------------------------


@pytest.mark.parametrize(
    "names,weights,quotient,params,regular",
    [
        (("x", "y"), None, (), ("x", "y"), True),
        (("x", "y"), None, (), ("x^2", "x*y + y^2"), True),
        (("x", "y"), (1, 2), (), ("x^2", "y"), True),
        (("x", "y"), None, (), ("x", "y", "x + y"), False),
        (("x", "y", "z"), None, ("z^2",), ("x", "y"), True),
        (("x", "y", "z"), None, ("x*z", "z^2"), ("x", "y"), False),
    ],
)
def test_regular_sequence_identity(names, weights, quotient, params, regular):
    ring = _ring(RationalField(), names, weights, quotient)
    sop = validate_sop(ring, [ring.parse(t) for t in params])
    assert sop.is_regular() is regular


# -- forged outputs ---------------------------------------------------------


def test_output_equal_to_the_input_is_rejected_by_verify_star():
    comp, sop = exa_instance()
    res = star_transform(comp, sop, with_report=False)
    # the input complex carrying the output's labels, so the forged output
    # names the same pairs as the real one
    forged = StarComplex(
        FreeComplex(comp.ring, comp.modules, comp.maps, res.star.labels),
        comp.top_rank(),
    )
    check = _check(verify_star(comp, sop, forged), "colon_equality")
    assert not check.passed
    assert "Tor bound" in check.detail


def test_n_equal_to_m_is_rejected_on_the_corpus():
    rejected = 0
    for name, comp, sop in instances.corpus():
        passed, detail = verify._colon_certificate(comp, sop, comp, {})
        if comp.top_rank():
            assert not passed and "Tor bound" in detail, name
            rejected += 1
        else:
            assert passed, name
    assert rejected > 0


def test_an_element_outside_the_colon_is_rejected():
    # M = (x^2, y^2) and M : Q = (x^2, xy, y^2); x is not in M : Q
    comp, sop = exa_instance()
    ring = comp.ring
    m_gb = comp.image_gb()
    f0 = m_gb.ambient
    forged = image_complex(f0, list(m_gb.gb) + [f0.vector((ring.var(0),))])
    passed, detail = verify._colon_certificate(comp, sop, forged, {})
    assert not passed
    assert "not inside M : Q" in detail


def test_an_output_over_another_f0_is_rejected():
    comp, sop = exa_instance()
    other = GradedFreeModule(comp.ring, 2, (0, 0))
    passed, detail = verify._colon_certificate(comp, sop, image_complex(other, []), {})
    assert not passed
    assert "F_0" in detail


def test_a_genuine_colon_passes_the_certificate():
    comp, sop = exa_instance()
    m_gb = comp.image_gb()
    n_comp = image_complex(m_gb.ambient, colon(m_gb, sop.gens).generators)
    passed, _ = verify._colon_certificate(comp, sop, n_comp, {})
    assert passed


# -- Q*N <= M: membership tests only for generators not shared with M -------

# instance -> membership tests of ``verify_star``: one per parameter for the
# output's one bracket column; its angle columns are the input's phi_1
# columns, so they lie in M and take none
SHARED_WITH_M = {
    "exa": (exa_instance, 2),
    "generic_n3_q": (lambda: generic_koszul(RationalField(), 3, 2, 0), 3),
    "generic_n4_p": (lambda: generic_koszul(PrimeField(32003), 4, 1, 0), 4),
}


def _recording_contains(monkeypatch):
    tested = []
    real = modules.SubmoduleGB.contains

    def contains(self, v):
        tested.append(v)
        return real(self, v)

    monkeypatch.setattr(modules.SubmoduleGB, "contains", contains)
    return tested


@pytest.mark.parametrize("name", sorted(SHARED_WITH_M))
def test_generators_shared_with_m_take_no_membership_test(name, monkeypatch):
    # without the build's witness, every bracket column takes its tests
    make, expected = SHARED_WITH_M[name]
    comp, sop = make()
    star = replace(star_transform(comp, sop, with_report=False).star, witness={})
    tested = _recording_contains(monkeypatch)
    assert verify_star(comp, sop, star).overall
    assert len(tested) == expected
    shared = set(comp.image_gens(1))
    unshared = [g for g in star.complex.image_gens(1) if g not in shared]
    assert len(unshared) == comp.top_rank() == 1
    assert tested == [unshared[0].mul_poly(q) for q in sop.gens]


@pytest.mark.parametrize("name", sorted(SHARED_WITH_M))
def test_only_the_shared_generators_skip_the_membership_test(name, monkeypatch):
    # a nonunit multiple of an input column lies in M too, but is not one of
    # its generators: it is tested, and passes; a generator outside M : Q is
    # tested after the shared ones and rejected
    make, expected = SHARED_WITH_M[name]
    comp, sop = make()
    out = star_transform(comp, sop, with_report=False).star.complex
    m_gb = comp.image_gb()
    f0 = m_gb.ambient
    x = comp.ring.var(0)
    multiple = m_gb.generators[0].mul_poly(x)
    n_comp = image_complex(f0, out.image_gens(1) + [multiple])
    tested = _recording_contains(monkeypatch)
    assert verify._colon_certificate(comp, sop, n_comp, {}) == (
        True, "Im of the first output map against the colon oracle"
    )
    assert len(tested) == expected + len(sop.gens)
    assert tested[-len(sop.gens):] == [multiple.mul_poly(q) for q in sop.gens]

    forged = image_complex(f0, out.image_gens(1) + [f0.vector((x,))])
    assert verify._colon_certificate(comp, sop, forged, {}) == (
        False, "Im of the first output map is not inside M : Q"
    )


# -- Q*N <= M by the chain map's witness ---------------------------------------


def _colon_lines(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


@pytest.mark.parametrize("name", sorted(SHARED_WITH_M))
def test_the_witness_takes_no_membership_test(name, monkeypatch):
    make, _ = SHARED_WITH_M[name]
    comp, sop = make()
    star = star_transform(comp, sop, with_report=False).star
    assert sorted(star.witness) == [(0, i) for i in range(1, sop.n + 1)]
    tested = _recording_contains(monkeypatch)
    report = verify_star(comp, sop, star)
    assert report.overall
    assert tested == []
    assert _colon_lines(report) == _colon_lines(
        verify_star(comp, sop, replace(star, witness={}))
    )


def _tampered_witnesses(star, ring):
    """The star's witness with one entry changed, with one column dropped,
    and with W[(0, 1)] and W[(0, 2)] swapped."""
    w = star.witness
    first = w[(0, 1)]
    k = next(j for j, c in enumerate(first.coords) if c.terms)
    coords = list(first.coords)
    coords[k] = coords[k] + coords[k] * ring.var(0)
    changed = dict(w)
    changed[(0, 1)] = first.module.vector(coords)
    dropped = {key: v for key, v in w.items() if key != (0, 1)}
    swapped = dict(w)
    swapped[(0, 1)], swapped[(0, 2)] = w[(0, 2)], w[(0, 1)]
    return {"changed": changed, "dropped": dropped, "swapped": swapped}


@pytest.mark.parametrize("name", sorted(SHARED_WITH_M))
def test_a_tampered_witness_falls_back_to_membership(name, monkeypatch):
    # a W that fails phi_1 W = q g is a missed shortcut: that q*g takes the
    # membership test in M, and the report is the one without a witness
    make, _ = SHARED_WITH_M[name]
    comp, sop = make()
    star = star_transform(comp, sop, with_report=False).star
    expected = _colon_lines(verify_star(comp, sop, replace(star, witness={})))
    for how, witness in _tampered_witnesses(star, comp.ring).items():
        tested = _recording_contains(monkeypatch)
        report = verify_star(comp, sop, replace(star, witness=witness))
        assert _colon_lines(report) == expected, how
        assert len(tested) == (2 if how == "swapped" else 1), how


def test_a_witness_does_not_vouch_for_a_forged_column():
    # the output's bracket column replaced by x^2: the build's witness does
    # not show q*x^2 in M, and the forgery is rejected as without it
    comp, sop = exa_instance()
    star = star_transform(comp, sop, with_report=False).star
    out = star.complex
    ring = comp.ring
    phi1 = [list(row) for row in out.phi(1).entries]
    assert out.labels[1][0] == ("bracket", 0, ())
    phi1[0][0] = ring.parse("x^2")
    forged_map = PolyMatrix(ring, phi1, out.phi(1).nrows, out.phi(1).ncols)
    forged = replace(out, maps=(forged_map,) + out.maps[1:])
    with_w = verify_star(comp, sop, replace(star, complex=forged))
    without = verify_star(comp, sop, StarComplex(forged, star.input_top_rank))
    assert _colon_lines(with_w) == _colon_lines(without)
    check = _check(with_w, "colon_equality")
    assert not check.passed




def _exa_with_top_map(entries):
    comp, sop = exa_instance()
    ring = comp.ring
    top = PolyMatrix(ring, [[ring.parse(t) for t in row] for row in entries])
    return FreeComplex(ring, comp.modules, (comp.phi(1), top)), sop


@pytest.mark.parametrize(
    "entries,why",
    [
        # a complex, but the top map kills everything: not exact at F_1
        ((("0",), ("0",)), "kernel at position 1"),
        # a sign lost: phi_1 phi_2 = 2 x^2 y^2, not a complex at all
        ((("y^2",), ("x^2",)), "not a complex"),
    ],
)
def test_input_that_is_not_acyclic_fails_colon_equality(entries, why):
    comp, sop = exa_instance()
    star = star_transform(comp, sop, with_report=False).star
    bad, _ = _exa_with_top_map(entries)
    report = verify_star(bad, sop, star)
    check = _check(report, "colon_equality")
    assert not check.passed
    assert check.detail.startswith("input not acyclic: ")
    assert why in check.detail


def test_parameters_that_are_not_regular_fail_over_a_quotient():
    # over Q[x,y,z]/(xz, z^2), x is a zero-divisor, so (x, y) is a system of
    # parameters that is not a regular sequence; 0 -> R(-1) --y--> R is acyclic
    ring = _ring(RationalField(), ("x", "y", "z"), quotient=("x*z", "z^2"))
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (1,)),
        GradedFreeModule(ring, 0, ()),
    )
    maps = (
        PolyMatrix(ring, [[ring.var(1)]]),
        PolyMatrix(ring, [[]], nrows=1, ncols=0),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    result = star_transform(comp, sop)
    failed = {c.name: c.detail for c in result.report.checks if not c.passed}
    assert "regular sequence" in failed["colon_equality"]
    assert "regular sequence" in failed["quotient_assumption"]
    # the refusal is sound: here M : Q = (y, z) is larger than N = M = (y)
    m_gb = comp.image_gb()
    assert not submodule_equal(result.star.complex.image_gb(), colon(m_gb, sop.gens))


# -- the certificate agrees with the Groebner colon -------------------------

RINGS = {
    "p:7[x,y]": lambda: _ring(PrimeField(7), ("x", "y")),
    "Q[x,y]": lambda: _ring(RationalField(), ("x", "y")),
    "Q[x,y] weights (1,2)": lambda: _ring(RationalField(), ("x", "y"), (1, 2)),
    "p:7[x,y,z]": lambda: _ring(PrimeField(7), ("x", "y", "z")),
    "Q[x,y,z]/(z^2)": lambda: _ring(
        RationalField(), ("x", "y", "z"), quotient=("z^2",)
    ),
}


def form(draw, ring, degree, power_of=None):
    """A random homogeneous polynomial of the given weighted degree; it
    contains the pure power of variable ``power_of`` when there is one of
    that degree, which makes a random system of parameters likely."""
    monos = brute.monomials_of_degree(ring, degree)
    chosen = draw(
        st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)
    )
    if power_of is not None and degree % ring.weights[power_of] == 0:
        power = [0] * ring.nvars
        power[power_of] = degree // ring.weights[power_of]
        if tuple(power) not in chosen:
            chosen.append(tuple(power))
    return ring.from_terms(
        (m, ring.field.from_int(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))))
        for m in chosen
    )


@st.composite
def koszul_problems(draw, names=tuple(sorted(RINGS))):
    """(name, complex, sop): the Koszul complex of (q_i * f_i) and the
    parameters q_i, as in the benchmark's generic instances but small, over
    one of the rings ``names``."""
    name = draw(st.sampled_from(names))
    ring = RINGS[name]()
    n = 2 if ring.quotient else ring.nvars
    params, gens = [], []
    for i in range(n):
        d = ring.weights[i] * draw(st.integers(1, 2))
        q = form(draw, ring, d, power_of=i)
        params.append(q)
        gens.append(q * form(draw, ring, draw(st.integers(0, 1)), power_of=i))
    try:
        sop = validate_sop(ring, params)
        gen_sop = validate_sop(ring, gens)
    except StarTransError:
        assume(False)
    return name, koszul(gen_sop), sop


@settings(max_examples=25, deadline=None)
@given(koszul_problems(), st.data())
def test_certificate_agrees_with_the_groebner_colon(problem, data):
    name, comp, sop = problem
    out = star_transform(comp, sop, with_report=False).star.complex
    m_gb = comp.image_gb()
    n_gb = out.image_gb()
    oracle = colon(m_gb, sop.gens)
    f0 = m_gb.ambient
    # the output, the forgery N = M, and M or N with one basis element of
    # the other or one random form added
    extra = f0.vector((form(data.draw, comp.ring, data.draw(st.integers(1, 2))),))
    candidates = [
        n_gb,
        m_gb,
        buchberger(f0, list(m_gb.gb) + list(n_gb.gb[:1])),
        buchberger(f0, list(n_gb.gb) + [extra]),
    ]
    for k, cand in enumerate(candidates):
        verdict, detail = verify._colon_certificate(
            comp, sop, image_complex(f0, cand.generators), {}
        )
        assert verdict == submodule_equal(cand, oracle), (name, k, detail)
    assert submodule_equal(n_gb, oracle), name


# -- the acyclicity certificate agrees with the full one --------------------


def _verdict(cert):
    return cert.ok, cert.failed_position, cert.detail


def _tampers(comp, var):
    """For each map p: the complex with phi_p zeroed, and with phi_p times
    the variable ``var`` and the twists at positions >= p raised by its
    weight.  Both are still complexes."""
    ring = comp.ring
    x = ring.var(var)
    w = ring.weights[var]
    for p in range(1, comp.length + 1):
        m = comp.phi(p)
        zero = PolyMatrix(ring, [[ring.zero()] * m.ncols for _ in range(m.nrows)],
                          m.nrows, m.ncols)
        times = PolyMatrix(ring, [[e * x for e in row] for row in m.entries],
                           m.nrows, m.ncols)
        maps = list(comp.maps)
        maps[p - 1] = zero
        yield FreeComplex(ring, comp.modules, tuple(maps))
        maps[p - 1] = times
        modules = tuple(
            GradedFreeModule(ring, f.rank, tuple(t + w for t in f.twists))
            if k >= p else f
            for k, f in enumerate(comp.modules)
        )
        yield FreeComplex(ring, modules, tuple(maps))


def _floored_agrees_with_full(name, comp, sop, var):
    out = star_transform(comp, sop, with_report=False).star.complex
    cases = [comp, out, *_tampers(comp, var), *_tampers(out, var)]
    for k, c in enumerate(cases):
        # a copy of each, so neither certificate reads the other's bases
        expected = _verdict(full_hilbert_certificate(replace(c)))
        assert _verdict(certify_acyclic(c)) == expected, (name, k)


@settings(max_examples=25, deadline=None)
@given(koszul_problems(), st.data())
def test_floored_certificate_agrees_with_the_full_one(problem, data):
    name, comp, sop = problem
    var = data.draw(st.integers(0, comp.ring.nvars - 1))
    _floored_agrees_with_full(name, comp, sop, var)


HB_FIELDS = {"Q": RationalField(), "p32003": PrimeField(32003)}


@pytest.mark.parametrize("field", sorted(HB_FIELDS))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_floored_certificate_agrees_with_the_full_one_on_hilbert_burch(field, t):
    # ranks [1, t+1, t], which no Koszul or Pfaffian input gives
    comp, sop = hilbert_burch(HB_FIELDS[field], t, seed=t)
    assert [m.rank for m in comp.modules] == [1, t + 1, t]
    for var in range(comp.ring.nvars):
        _floored_agrees_with_full((field, t), comp, sop, var)


def test_floored_certificate_agrees_with_the_full_one_on_eagon_northcott():
    # ranks [1, 6, 8, 3]; over Q the prime-route test below reads the same
    # draw family against the reduced basis
    comp, sop = eagon_northcott(PrimeField(32003), seed=0)
    assert [m.rank for m in comp.modules] == [1, 6, 8, 3]
    _floored_agrees_with_full("eagon_northcott", comp, sop, 0)


def test_a_dependent_eagon_northcott_draw_is_reported():
    # over p:7, seed 1 draws dependent parameters: the draw fails, and no
    # other draw takes its place
    with pytest.raises(DrawFailed, match="seed 1"):
        eagon_northcott(PrimeField(7), seed=1)


def test_floored_certificate_divides_less(monkeypatch):
    # the output of a generic instance over a prime field: the lead terms
    # of the images above position 1 reach their floors before the pairs
    # run out, so the certificate divides less than the full one
    rng = random.Random(3)
    ring = PolyRing(PrimeField(32003), ("x", "y", "z"))

    def linear():
        return ring.from_terms(
            ((tuple(int(i == k) for i in range(3)),
              ring.field.from_int(rng.randint(1, 9))) for k in range(3))
        )

    params = [linear() for _ in range(3)]
    sop = validate_sop(ring, params)
    comp = koszul(validate_sop(ring, [q * linear() for q in params]))
    out = star_transform(comp, sop, with_report=False).star.complex
    calls = []
    real = modules._reduce

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "_reduce", counting)
    floored = _verdict(certify_acyclic(replace(out)))
    floored_calls = len(calls)
    calls.clear()
    full = _verdict(full_hilbert_certificate(replace(out)))
    assert floored == full == (True, -1, "")
    assert floored_calls < len(calls)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cokernel_series_equals_the_reduced_basis_series(name, data):
    # the floored loop divides S-vectors only down to their leads; under
    # the zero floor it runs every pair, under the certificate's floor and
    # the exact series it stops early, and the series is exact each time
    _, comp, _ = data.draw(koszul_problems((name,)))
    base = ring_series(comp.ring)
    n = comp.length
    exact = [
        buchberger(comp.module(p - 1), comp.image_gens(p)).series()
        for p in range(1, n + 1)
    ] + [base.twisted(comp.module(n).twists)]
    for p in range(1, n + 1):
        ambient = comp.module(p - 1)
        free = base.twisted(ambient.twists)
        floors = (free.sub(free), free.sub(exact[p]), exact[p - 1])
        for floor in floors:
            got = modules.cokernel_series(ambient, comp.image_gens(p), floor)
            assert got == exact[p - 1], (name, p, floor)


def test_only_the_floored_loop_divides_to_the_lead(monkeypatch):
    ring = RINGS["Q[x,y,z]/(z^2)"]()
    ambient = GradedFreeModule(ring, 1, (0,))
    gens = [ambient.vector((ring.parse(t),)) for t in ("x^2 + y*z", "x*y - z^2", "y^3")]
    zero = ring_series(ring).sub(ring_series(ring))
    flags = []
    real = modules._reduce

    def recording(*args, lead_only=False, **kwargs):
        flags.append(lead_only)
        return real(*args, lead_only=lead_only, **kwargs)

    monkeypatch.setattr(modules, "_reduce", recording)
    expected = buchberger(ambient, gens).series()
    assert flags and not any(flags)
    flags.clear()
    assert modules.cokernel_series(ambient, gens, zero) == expected
    assert flags and all(flags)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_a_floored_run_whose_generators_reach_the_floor_builds_no_pair(
    name, monkeypatch
):
    # the squares of the variables (and J's generators) are their own
    # initial ideal: the floored run returns before it forms any pair, so
    # every lcm it takes is one the series of those leads takes anyway
    ring = RINGS[name]()
    ambient = GradedFreeModule(ring, 1, (0,))
    gens = [ambient.vector((ring.var(i) * ring.var(i),)) for i in range(ring.nvars)]
    floor = buchberger(ambient, gens).series()
    working = gens + [ambient.vector((g,)) for g in ring.quotient]
    leads = [g.lead() for g in working if not g.is_zero()]
    calls = []
    real = PolyRing.mono_lcm

    def counting(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(PolyRing, "mono_lcm", counting)
    assert modules.cokernel_series(ambient, gens, floor) == floor
    in_run = len(calls)
    calls.clear()
    assert modules._LeadsSeries(ambient, leads).series() == floor
    assert in_run == len(calls)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_a_floor_above_the_series_is_an_internal_error(name):
    # HS(F) is above HS(F / <x, y>): the first pair degree finds fewer
    # standard monomials than the floor asks for
    ring = RINGS[name]()
    ambient = GradedFreeModule(ring, 1, (0,))
    gens = [ambient.vector((ring.var(0),)), ambient.vector((ring.var(1),))]
    with pytest.raises(InternalError, match="lead terms fell below the Hilbert floor"):
        modules.cokernel_series(ambient, gens, ring_series(ring))


# -- the certificate over Q through one prime ------------------------------------

Q_RINGS = tuple(name for name in sorted(RINGS) if name.startswith("Q"))
P = complexes.MODULAR_PRIME


def _route(cert):
    return cert.ok, cert.failed_position, cert.detail, cert.series


def _quotient_instance():
    ring = _ring(RationalField(), ("x", "y", "z"), quotient=("z^2",))
    comp = koszul(validate_sop(ring, [ring.parse("x^2"), ring.var(1)]))
    return comp, validate_sop(ring, [ring.var(0), ring.var(1)])


def _prime_agrees_with_q(name, comp, sop, var):
    # every ring here is lucky: the certificate runs mod P first
    assert complexes._modular(comp.ring), name
    out = star_transform(comp, sop, with_report=False).star.complex
    for k, c in enumerate([comp, out, *_tampers(comp, var), *_tampers(out, var)]):
        over_q = complexes._series_certificate(c)
        assert _route(complexes._hilbert_certificate(c)) == _route(over_q), (name, k)
        mod_p = complexes._series_certificate(c, complexes._MODULAR_FIELD)
        assert not mod_p.ok or _route(mod_p) == _route(over_q), (name, k)
        full = buchberger(c.module(0), c.image_gens(1)).series()
        assert over_q.series == full, (name, k)


@settings(max_examples=25, deadline=None)
@given(koszul_problems(Q_RINGS), st.data())
def test_prime_route_agrees_with_the_q_route(problem, data):
    # verdict, position, detail and HS(F_0 / Im phi_1), on inputs, outputs
    # and tampered copies, over polynomial rings and R/J alike
    name, comp, sop = problem
    var = data.draw(st.integers(0, comp.ring.nvars - 1))
    _prime_agrees_with_q(name, comp, sop, var)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_prime_route_agrees_with_the_q_route_on_hilbert_burch(t):
    comp, sop = hilbert_burch(RationalField(), t, seed=t)
    for var in range(comp.ring.nvars):
        _prime_agrees_with_q(t, comp, sop, var)


def test_prime_route_agrees_with_the_q_route_on_eagon_northcott():
    comp, sop = eagon_northcott(RationalField(), seed=1)
    _prime_agrees_with_q("eagon_northcott", comp, sop, 2)


def _recording_routes(monkeypatch):
    """(p of the field of the arithmetic, verdict) of every
    ``_series_certificate`` run that returns."""
    routes = []
    real = complexes._series_certificate

    def recording(comp, field=None):
        cert = real(comp, field)
        routes.append(((field or comp.ring.field).p, cert.ok))
        return cert

    monkeypatch.setattr(complexes, "_series_certificate", recording)
    return routes


def test_an_unlucky_prime_falls_back_to_q(monkeypatch):
    # (P*x + y, y) is a regular sequence over Q, but (y, y) mod P is not
    ring = PolyRing(RationalField(), ("x", "y"))
    comp = koszul(validate_sop(ring, [ring.parse(f"{P}*x + y"), ring.var(1)]))
    routes = _recording_routes(monkeypatch)
    cert = certify_acyclic(comp)
    assert routes == [(P, False), (None, True)]
    full = buchberger(comp.module(0), comp.image_gens(1)).series()
    assert cert.ok and cert.series == full


def test_a_prime_certificate_needs_no_q_run(monkeypatch):
    comp, _ = exa_instance()
    routes = _recording_routes(monkeypatch)
    cert = certify_acyclic(comp)
    assert routes == [(P, True)]
    assert cert.series == comp.image_gb().series()


def test_a_lucky_quotient_needs_no_q_run(monkeypatch):
    # Q[x,y,z]/(z^2): J mod P keeps HS(R/J), so one modular run certifies
    comp, _ = _quotient_instance()
    routes = _recording_routes(monkeypatch)
    cert = certify_acyclic(comp)
    assert routes == [(P, True)]
    assert cert.series == comp.image_gb().series()


def test_the_prime_route_inverts_each_denominator_once(monkeypatch):
    # denominators 3, 5 and 1: two inverses, and every coefficient the
    # keying gives is the field's a/b
    ring = PolyRing(RationalField(), ("x", "y"))
    texts = ("1/3*x + 2/3*y", "x - 1/5*y", "7*x - 3*y", "-4/5*x")
    comp = FreeComplex(
        ring,
        (GradedFreeModule(ring, 1, (0,)), GradedFreeModule(ring, 4, (1,) * 4)),
        (PolyMatrix(ring, [[ring.parse(t) for t in texts]]),),
    )
    inverted, keyed = [], []

    def counting_pow(base, exp, mod):
        inverted.append(base)
        return pow(base, exp, mod)

    real = modules._keyed_form

    def recording(field, key, c, tail):
        if field.p == P:
            keyed.append(dict([(key, c), *tail]))
        return real(field, key, c, tail)

    monkeypatch.setattr(modules, "pow", counting_pow, raising=False)
    monkeypatch.setattr(modules, "_keyed_form", recording)
    assert not certify_acyclic(comp).ok  # four columns in rank one
    assert sorted(inverted) == [3, 5]
    f = PrimeField(P)
    ambient = comp.module(0)
    for e, got in zip(comp.phi(1).entries[0], keyed):
        assert got == {
            modules.term_key(ambient, 0, m): f.from_fraction(c.numerator, c.denominator)
            for m, c in e.terms.items()
        }


def test_the_modular_run_builds_no_ring_module_polynomial_or_complex(monkeypatch):
    # the columns and the J-multiples are keyed straight from their terms,
    # mod P and over Q alike; only the once-per-ring luckiness run builds R^1
    comp, _ = _quotient_instance()
    assert complexes._modular(comp.ring)
    built = []
    for cls in (PolyRing, GradedFreeModule, Polynomial, PolyMatrix, FreeComplex):
        def counting(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert complexes._series_certificate(comp, complexes._MODULAR_FIELD).ok
    assert built == []
    assert complexes._series_certificate(comp).ok
    assert built == []


def test_a_denominator_divisible_by_the_prime_takes_the_q_route(monkeypatch):
    comp, sop = _exa_with_top_map(((f"-3/{P}*y^2",), (f"3/{P}*x^2",)))
    assert complexes._modular(comp.ring)
    routes = _recording_routes(monkeypatch)
    assert certify_acyclic(comp).ok
    assert routes == [(None, True)]
    assert star_transform(comp, sop).report.overall


def test_an_uncertified_prime_series_is_no_floor_over_q():
    # mod P the image of (P*x + y, y) is (y), whose quotient series lies
    # above the Q one: as a floor of the Q run it is an internal error
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    gens = [ambient.vector((ring.parse(f"{P}*x + y"),)), ambient.vector((ring.var(1),))]
    zero = ring_series(ring).sub(ring_series(ring))
    prime_series = modules.cokernel_series(ambient, gens, zero, PrimeField(P))
    assert prime_series != buchberger(ambient, gens).series()
    with pytest.raises(InternalError, match="lead terms fell below the Hilbert floor"):
        modules.cokernel_series(ambient, gens, prime_series)


def _unlucky_quotient_instance():
    """K(z^2, w^2) over Q[x,y,z,w]/J, J = (xy, P x^2 + y^2), parameters z, w:
    HS(R/J) has numerator 1 - 2t^2 + t^4, and J's reduction (xy, y^2) mod P
    has 1 - 2t^2 + t^3."""
    ring = _ring(RationalField(), ("x", "y", "z", "w"), quotient=("x*y", f"{P}*x^2 + y^2"))
    comp = koszul(validate_sop(ring, [ring.parse("z^2"), ring.parse("w^2")]))
    return comp, validate_sop(ring, [ring.var(2), ring.var(3)])


def test_an_unlucky_quotient_certifies_through_q(monkeypatch):
    comp, sop = _unlucky_quotient_instance()
    ring = comp.ring
    assert ring_series(ring).numer == {0: 1, 2: -2, 4: 1}
    ambient = GradedFreeModule(ring, 1, (0,))
    floor = ring_series(ring).sub(ring_series(ring))
    mod_p = modules.cokernel_series(ambient, (), floor, PrimeField(P))
    assert mod_p.numer == {0: 1, 2: -2, 3: 1}
    routes = _recording_routes(monkeypatch)
    assert certify_acyclic(comp).ok
    assert routes == [(None, True)]
    assert not complexes._modular(ring)
    assert star_transform(comp, sop).report.overall


def _denominator_quotient_instance():
    """``_unlucky_quotient_instance`` with J = (xy, x^2/P + y^2): J has no
    reduction mod P, so the luckiness run raises ZeroDivisionError and the
    ring is unlucky."""
    ring = _ring(
        RationalField(), ("x", "y", "z", "w"), quotient=("x*y", f"1/{P}*x^2 + y^2")
    )
    comp = koszul(validate_sop(ring, [ring.parse("z^2"), ring.parse("w^2")]))
    return comp, validate_sop(ring, [ring.var(2), ring.var(3)])


def test_a_quotient_with_the_prime_in_a_denominator_is_unlucky():
    comp, sop = _denominator_quotient_instance()
    assert not complexes._modular(comp.ring)
    assert star_transform(comp, sop).report.overall


@pytest.mark.parametrize(
    "make",
    [_unlucky_quotient_instance, _quotient_instance, _denominator_quotient_instance],
)
def test_the_luckiness_run_happens_once_per_ring(make, monkeypatch):
    # the floored run of J's generators mod P, with no other generator, is
    # made by the first certificate over the ring and kept on it
    comp, sop = make()
    real = complexes.cokernel_series
    calls = []

    def counting(ambient, gens, floor, field=None):
        if not gens:
            calls.append(field)
        return real(ambient, gens, floor, field)

    monkeypatch.setattr(complexes, "cokernel_series", counting)
    assert star_transform(comp, sop).report.overall
    assert calls == [complexes._MODULAR_FIELD]


@pytest.mark.parametrize("make", [exa_instance, _quotient_instance])
def test_each_basis_computes_its_series_once(make, monkeypatch):
    # every certificate reads HS(ambient/M) from the basis that owns it: the
    # acyclicity certificate, regularity, the Tor bound and the count
    comp, sop = make()
    real = modules._LeadsSeries
    seen = []

    def recording(ambient, leads):
        if isinstance(leads, tuple):  # a SubmoduleGB's leads, not a pair loop's
            seen.append(leads)
        return real(ambient, leads)

    monkeypatch.setattr(modules, "_LeadsSeries", recording)
    result = star_transform(comp, sop)
    assert result.report.overall
    assert verify_star(comp, sop, result.star).overall
    assert seen
    assert max(sum(1 for t in seen if t is leads) for leads in seen) == 1
    bases = {
        "M": comp.image_gb(),
        "N": result.star.complex.image_gb(),
        "Q": sop.ideal_gb(),
        "J": modules.quotient_ideal_gb(comp.ring),
    }
    for name, gb in bases.items():
        assert gb.series() == real(gb.ambient, gb.leads).series(), name
