"""Property tests of the colon M : Q against the Schreyer route and
against dense linear algebra.

``colon`` eliminates in a stacked module: one ``buchberger`` run over the
(q*e_k | e_k) and the (g | 0), g in the basis of M.  The oracle reduces
the relation module of [q*e_1 .. q*e_r | basis of M] from the Schreyer
relations of a reduced basis (``reference.schreyer_syzygies``), projects it
onto F0 and reduces again.  Both must give the same reduced basis, and its
graded pieces must match the dense colon of ``tests/brute.py`` in low
degrees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from reference import schreyer_intersect, schreyer_syzygies
from startrans import (
    GradedFreeModule,
    PolyRing,
    PrimeField,
    RationalField,
    StarTransError,
    ValidationError,
)
from startrans import modules
from startrans.modules import (
    buchberger,
    colon,
    intersect,
    submodule_equal,
    syzygies,
)

MAX_DEGREE = 5


def _quotient_ring():
    base = PolyRing(RationalField(), ("x", "y", "z"))
    return base.with_quotient([base.parse("z^2")])


def _prime_quotient_ring():
    base = PolyRing(PrimeField(7), ("x", "y", "z"))
    return base.with_quotient([base.parse("x*z"), base.parse("y^3")])


RINGS = {
    "p:7[x,y]": lambda: PolyRing(PrimeField(7), ("x", "y")),
    "Q[x,y]": lambda: PolyRing(RationalField(), ("x", "y")),
    "Q[x,y,z]/(z^2)": _quotient_ring,
    "Q[x,y] weights (1,2)": lambda: PolyRing(RationalField(), ("x", "y"), (1, 2)),
}

QUOTIENT_RINGS = {
    "Q[x,y,z]/(z^2)": _quotient_ring,
    "p:7[x,y,z]/(xz,y^3)": _prime_quotient_ring,
}


def old_colon(m_gb, q_polys):
    """The Schreyer route: reduce the relation module, project it, and
    intersect the parts by the relations of [a | b]."""
    ambient = m_gb.ambient
    m_gens = list(m_gb.gb) if m_gb.gb else list(m_gb.generators)
    result = None
    for q in q_polys:
        combined = [ambient.basis_vector(i).mul_poly(q) for i in range(ambient.rank)]
        projected = [
            ambient.vector(rel.coords[: ambient.rank])
            for rel in schreyer_syzygies(combined + m_gens, ambient)
        ]
        part = buchberger(ambient, [v for v in projected if not v.is_zero()])
        result = part if result is None else schreyer_intersect(result, part)
    return result


def homogeneous(draw, ring, degree):
    """A random nonzero homogeneous polynomial of the given (weighted)
    degree, or zero when the degree is negative."""
    monos = brute.monomials_of_degree(ring, degree)
    if not monos:
        return ring.zero()
    chosen = draw(
        st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)
    )
    terms = [
        (m, ring.field.from_int(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))))
        for m in chosen
    ]
    return ring.from_terms(terms)


@st.composite
def colon_problems(draw, rings=RINGS):
    name = draw(st.sampled_from(sorted(rings)))
    ring = rings[name]()
    rank = draw(st.integers(1, 2))
    twists = (0,) + tuple(draw(st.integers(0, 1)) for _ in range(rank - 1))
    ambient = GradedFreeModule(ring, rank, twists)
    m_gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        m_gens.append(
            ambient.vector(homogeneous(draw, ring, degree - t) for t in twists)
        )
    q_polys = [
        homogeneous(draw, ring, draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return name, ambient, m_gens, q_polys


def assert_matches_dense_colon(name, got, m_gens, q_polys, ambient):
    # over R/J the dense side works in R, on M + J*F0
    ring = ambient.ring
    dense_m = list(m_gens) + [
        ambient.basis_vector(i).mul_poly(g)
        for g in ring.quotient
        for i in range(ambient.rank)
    ]
    for d in range(MAX_DEGREE + 1):
        expected = brute.brute_colon_basis(dense_m, q_polys, ambient, d)
        assert brute.span_dimension(list(got.gb), ambient, d) == len(expected), (
            name,
            d,
        )
        assert brute.span_contained(list(got.gb), expected, ambient, d)


@settings(max_examples=40, deadline=None)
@given(colon_problems())
def test_colon_matches_old_route_and_dense_colon(problem):
    name, ambient, m_gens, q_polys = problem
    m_gb = buchberger(ambient, m_gens)

    got = colon(m_gb, q_polys)
    assert submodule_equal(got, old_colon(m_gb, q_polys)), name
    assert_matches_dense_colon(name, got, m_gens, q_polys, ambient)


@settings(max_examples=40, deadline=None)
@given(colon_problems(QUOTIENT_RINGS))
def test_colon_over_quotient_rings_matches_the_dense_colon(problem):
    # the stacked run adjoins the J-multiples of both blocks, so the colon is
    # the one over R/J, and the dense colon in R of M + J*F0 is the oracle
    name, ambient, m_gens, q_polys = problem
    got = colon(buchberger(ambient, m_gens), q_polys)
    assert_matches_dense_colon(name, got, m_gens, q_polys, ambient)


def test_colon_rejects_an_element_outside_the_colon(monkeypatch):
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    m_gb = buchberger(ambient, [ambient.vector((ring.parse("x^2"),))])
    real = modules._eliminate

    def with_a_false_element(top_twists, stacked_gens, lower):
        part = real(top_twists, stacked_gens, lower)
        return buchberger(lower, list(part.gb) + [lower.basis_vector(0)])

    monkeypatch.setattr(modules, "_eliminate", with_a_false_element)
    with pytest.raises(StarTransError, match=r"q\*g in M"):
        colon(m_gb, [ring.var(1)])


def test_colon_by_the_zero_ideal_is_a_validation_error():
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    m_gb = buchberger(ambient, [ambient.vector((ring.parse("x^2"),))])
    for q_polys in ([], [ring.zero()], [ring.zero(), ring.parse("x - x")]):
        with pytest.raises(ValidationError, match="zero ideal"):
            colon(m_gb, q_polys)


def test_elimination_rejects_an_inhomogeneous_generator():
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    x, y = ring.var(0), ring.var(1)
    homogeneous_gb = buchberger(ambient, [ambient.vector((x,))])
    inhomogeneous = ambient.vector((ring.parse("x^2 + y"),))
    inhomogeneous_gb = buchberger(ambient, [inhomogeneous])
    with pytest.raises(ValidationError, match="homogeneous"):
        colon(inhomogeneous_gb, [x])
    with pytest.raises(ValidationError, match="homogeneous"):
        colon(homogeneous_gb, [x + y * y])
    with pytest.raises(ValidationError, match="homogeneous"):
        intersect(homogeneous_gb, inhomogeneous_gb)
    with pytest.raises(ValidationError, match="homogeneous"):
        syzygies([ambient.vector((x,)), inhomogeneous])


@pytest.mark.parametrize("name", sorted(QUOTIENT_RINGS))
def test_syzygies_over_a_quotient_stack_one_generator_per_input(name, monkeypatch):
    # buchberger adjoins the J-multiples of both blocks itself, so syzygies
    # passes none of its own
    ring = QUOTIENT_RINGS[name]()
    ambient = GradedFreeModule(ring, 2, (0, 1))
    x, y, z = (ring.var(i) for i in range(3))
    gens = [
        ambient.vector((x * z, z)),
        ambient.vector((y * y, ring.zero())),
        ambient.vector((ring.zero(), x)),
    ]
    calls = []
    real = modules.buchberger

    def recording(amb, gens_in):
        gens_in = list(gens_in)
        calls.append((amb.rank, len(gens_in)))
        return real(amb, gens_in)

    monkeypatch.setattr(modules, "buchberger", recording)
    rels = syzygies(gens)
    # the other calls build the basis of J in R^1, once per ring
    stacked_rank = ambient.rank + len(gens)
    assert [n for rank, n in calls if rank == stacked_rank] == [len(gens)]
    assert rels == schreyer_syzygies(gens, ambient)
