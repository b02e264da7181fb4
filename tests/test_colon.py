"""Property tests of the colon M : Q against the route it replaced and
against dense linear algebra.

``colon`` projects the unreduced relation generators of
[q*e_1 .. q*e_r | basis of M] onto F0 and reduces once.  The oracle is the
route the engine used before: the reduced basis of the whole relation
module (``syzygies``), projected and reduced again.  Both must give the
same reduced basis, and its graded pieces must match the dense colon of
``tests/brute.py`` in low degrees.
"""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
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
}

QUOTIENT_RINGS = {
    "Q[x,y,z]/(z^2)": _quotient_ring,
    "p:7[x,y,z]/(xz,y^3)": _prime_quotient_ring,
}


def old_colon(m_gb, q_polys):
    """The previous route: reduce the syzygy module, then project."""
    ambient = m_gb.ambient
    m_gens = list(m_gb.gb) if m_gb.gb else list(m_gb.working_generators)
    result = None
    for q in q_polys:
        combined = [ambient.basis_vector(i).mul_poly(q) for i in range(ambient.rank)]
        projected = [
            ambient.vector(rel.coords[: ambient.rank])
            for rel in syzygies(combined + m_gens, ambient)
        ]
        part = buchberger(ambient, [v for v in projected if not v.is_zero()])
        result = part if result is None else intersect(result, part)
    return result


def homogeneous(draw, ring, degree):
    """A random nonzero homogeneous polynomial of the given degree, or zero
    when the degree is negative."""
    if degree < 0:
        return ring.zero()
    monos = []
    for combo in combinations_with_replacement(range(ring.nvars), degree):
        exps = [0] * ring.nvars
        for i in combo:
            exps[i] += 1
        monos.append(tuple(exps))
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
    # colon builds no (I - B*A) rows for the adjoined J-multiples: the basis
    # of M already spans J*F0, so the dense colon in R is the oracle
    name, ambient, m_gens, q_polys = problem
    got = colon(buchberger(ambient, m_gens), q_polys)
    assert_matches_dense_colon(name, got, m_gens, q_polys, ambient)


def test_colon_rejects_an_element_outside_the_colon(monkeypatch):
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    m_gb = buchberger(ambient, [ambient.vector((ring.parse("x^2"),))])
    real = modules._syzygy_generators

    def with_a_false_relation(gens, amb, ncols):
        syz_module, candidates = real(gens, amb, ncols)
        return syz_module, candidates + [syz_module.basis_vector(0)]

    monkeypatch.setattr(modules, "_syzygy_generators", with_a_false_relation)
    with pytest.raises(StarTransError, match=r"q\*g in M"):
        colon(m_gb, [ring.var(1)])


def test_colon_by_the_zero_ideal_is_a_validation_error():
    ring = PolyRing(RationalField(), ("x", "y"))
    ambient = GradedFreeModule(ring, 1, (0,))
    m_gb = buchberger(ambient, [ambient.vector((ring.parse("x^2"),))])
    for q_polys in ([], [ring.zero()], [ring.zero(), ring.parse("x - x")]):
        with pytest.raises(ValidationError, match="zero ideal"):
            colon(m_gb, q_polys)
