import random
import sys
import time
from operator import add, le, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    identity_matrix,
    is_zero_matrix,
    monomial_quotient_numerator,
    unpack,
    zero_matrix,
)
from startrans import (
    GradedFreeModule,
    IncompatibleField,
    MonomialOverflow,
    ParseError,
    PolyMatrix,
    PolyRing,
    PrimeField,
    RationalField,
    buchberger,
    format_polynomial,
)
from startrans.modules import (
    _LeadsSeries,
    _monomial_quotient_numerator,
    term_key,
)
from startrans.poly import MAX_DEGREE, block_matrix
from test_certificate import RINGS


@pytest.fixture
def ring():
    return PolyRing(RationalField(), ("x", "y"))


def rand_poly(rng, ring, max_deg=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = ring.field.from_fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((exps, c))
    return ring.from_terms(terms)


def test_product_difference_of_squares(ring):
    f = ring.parse("x+y") * ring.parse("x-y")
    assert f == ring.parse("x^2-y^2")


def test_multiply_by_zero(ring):
    f = ring.parse("x^3 - 2*y")
    assert (f * ring.zero()).is_zero()


def test_rational_coefficient_addition(ring):
    f = ring.parse("1/2*x") + ring.parse("1/2*x")
    assert f == ring.parse("x")


def test_ring_axioms_randomized(ring):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_mixed_rings_rejected(ring):
    other = PolyRing(RationalField(), ("x", "z"))
    with pytest.raises(IncompatibleField):
        ring.parse("x") + other.parse("x")
    with pytest.raises(IncompatibleField):
        ring.parse("x") * other.parse("z")
    m = PolyMatrix(ring, [[ring.parse("x")]])
    with pytest.raises(IncompatibleField):
        m @ PolyMatrix(other, [[other.parse("z")]])
    with pytest.raises(IncompatibleField):
        m.apply([other.parse("z")])


def order_compare(ring, exps1, exps2):
    """Compare monomials in the ring order: -1, 0 or 1 (a smaller
    ``mono_key`` is a larger monomial)."""
    k1, k2 = ring.mono_key(ring.pack(exps1)), ring.mono_key(ring.pack(exps2))
    return (k1 < k2) - (k1 > k2)


def tuple_degree(ring, exps):
    return sum(map(mul, ring.weights, exps))


def tuple_mono_key(ring, exps):
    """The ring order's key on exponent tuples, as it was before monomials
    were packed: (-degree, reversed exponents)."""
    return (-tuple_degree(ring, exps), tuple(exps)[::-1])


def tuple_term_key(module, pos, exps):
    """The module order's key on exponent tuples, as it was before monomials
    were packed: (-degree - twist, position, reversed exponents)."""
    neg_degree, rev = tuple_mono_key(module.ring, exps)
    return (neg_degree - module.twists[pos], pos, rev)


def test_order_compare_grevlex(ring):
    # equal degree: smaller exponent in the last variable wins
    assert order_compare(ring, (2, 1), (1, 2)) == 1
    assert order_compare(ring, (1, 1), (1, 1)) == 0
    assert order_compare(ring, (0, 0), (1, 0)) == -1


def test_order_total_on_random_triples(ring):
    rng = random.Random(11)
    monos = [
        tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(40)
    ]
    for a in monos[:10]:
        for b in monos[10:20]:
            ca = order_compare(ring, a, b)
            cb = order_compare(ring, b, a)
            assert ca == -cb  # antisymmetry / trichotomy
            for c in monos[20:25]:
                if order_compare(ring, a, b) >= 0 and order_compare(ring, b, c) >= 0:
                    assert order_compare(ring, a, c) >= 0


def test_homogeneous_degree(ring):
    assert ring.parse("x^2 + x*y").homogeneous_degree() == 2
    assert ring.parse("x^2 + x").homogeneous_degree() is None
    assert ring.zero().homogeneous_degree() is None


@pytest.mark.parametrize("name", sorted(RINGS))
def test_zero_and_non_homogeneous_input_have_no_degree(name):
    ring = RINGS[name]()
    x, y, zero = ring.var(0), ring.var(1), ring.zero()
    mixed = x * y + x
    module = GradedFreeModule(ring, 2, (0, 1))
    assert zero.homogeneous_degree() is None
    assert mixed.homogeneous_degree() is None
    assert module.vector((zero, zero)).homogeneous_degree() is None
    assert module.vector((mixed, zero)).homogeneous_degree() is None
    # homogeneous coordinates whose twisted degrees differ
    assert module.vector((x, x)).homogeneous_degree() is None
    assert module.vector((zero, x)).homogeneous_degree() == ring.weights[0] + 1


def test_weighted_homogeneous_degree():
    ring = PolyRing(RationalField(), ("x", "y"), (1, 2))
    assert ring.parse("x*y").homogeneous_degree() == 3
    assert ring.parse("x^2 + y").homogeneous_degree() == 2


def test_degree_multiplicative_on_homogeneous(ring):
    rng = random.Random(3)
    for _ in range(40):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        f = ring.from_terms(
            [
                (m, ring.field.from_int(rng.randint(1, 3)))
                for m in [(d1 - k, k) for k in range(d1 + 1)]
                if rng.random() < 0.7
            ]
        )
        g = ring.from_terms(
            [
                (m, ring.field.from_int(rng.randint(1, 3)))
                for m in [(d2 - k, k) for k in range(d2 + 1)]
                if rng.random() < 0.7
            ]
        )
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).homogeneous_degree() == d1 + d2


def test_parse_format_round_trip(ring):
    for text in ["-1/2*x^2*y + y^3", "x", "0", "3", "x^2 - y^2", "-x"]:
        p = ring.parse(text)
        assert ring.parse(format_polynomial(p)) == p
    # canonical output is stable under reparse
    p = ring.parse("y + x")
    assert format_polynomial(ring.parse(format_polynomial(p))) == format_polynomial(p)


def test_parse_errors(ring):
    for bad in [
        "x^", "x +", "2*", "z", "x^-1", "1/0", "", "   ", "*x", "x--y",
        "x$", "1/x", "(x)", "x*2", "x^2^3",
    ]:
        with pytest.raises(ParseError):
            ring.parse(bad)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("2x", "2*x"),
        ("2 x y", "2*x*y"),
        ("+x", "x"),
        ("1 / 2*x", "1/2*x"),
        ("x ^ 2", "x^2"),
        ("x ", "x"),
        (" x\t", "x"),
        ("x^2 - 3 y\n", "x^2 - 3*y"),
    ],
)
def test_parse_accepts_the_documented_spellings(ring, text, canonical):
    assert ring.parse(text) == ring.parse(canonical)


@pytest.mark.skipif(
    sys.get_int_max_str_digits() == 0, reason="no int/str digit limit"
)
@pytest.mark.parametrize("template", ["{}", "1/{}", "{}*x", "x^{}"])
def test_a_number_past_the_int_str_limit_is_a_parse_error(ring, template):
    big = "1" + "0" * sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match="digits"):
        ring.parse(template.format(big))


def test_prime_field_arithmetic():
    ring = PolyRing(PrimeField(7), ("x",))
    f = ring.parse("3*x") + ring.parse("5*x")
    assert f == ring.parse("x")
    assert ring.parse("1/3") == ring.parse("5")  # 3*5 = 15 = 1 mod 7


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(32004)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division():
    from startrans.fields import _is_prime

    assert all(_is_prime(n) == _trial_division_is_prime(n) for n in range(5000))
    # the smallest strong pseudoprimes to the first 1, 2, ..., 11 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not _is_prime(n)


def test_prime_field_large_prime_decided_fast():
    start = time.perf_counter()
    assert PrimeField(2305843009213693951).p == 2**61 - 1
    with pytest.raises(ValueError):
        PrimeField(2305843009213693953)  # 2^61 + 1, divisible by 3
    assert time.perf_counter() - start < 1.0


def test_prime_field_refuses_p_beyond_the_exact_test():
    with pytest.raises(ValueError, match="prime fields need p <"):
        PrimeField(2**89 - 1)


def _term_product(p, q):
    """p * q from its single-term products, through ``from_terms``."""
    ring, f = p.ring, p.ring.field
    return ring.from_terms(
        (unpack(ring, ring.mono_mul(m1, m2)), f.mul(c1, c2))
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )


def _term_sum(ring, polys):
    return ring.from_terms(
        (unpack(ring, m), c) for p in polys for m, c in p.terms.items()
    )


def _no_zero_coefficient(p):
    return not any(p.ring.field.is_zero(c) for c in p.terms.values())


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)])
def test_fused_products_equal_the_sum_of_term_products(field):
    ring = PolyRing(field, ("x", "y"))
    rng = random.Random(5)
    for _ in range(15):
        a = [[rand_poly(rng, ring) for _ in range(3)] for _ in range(2)]
        b = [[rand_poly(rng, ring) for _ in range(2)] for _ in range(3)]
        prod = PolyMatrix(ring, a) @ PolyMatrix(ring, b)
        for i in range(2):
            for j in range(2):
                expected = _term_sum(
                    ring, [_term_product(a[i][k], b[k][j]) for k in range(3)]
                )
                assert prod.entry(i, j) == expected
                assert _no_zero_coefficient(prod.entry(i, j))
                assert a[i][j] * b[j][i] == _term_product(a[i][j], b[j][i])
        coords = [row[0] for row in b]
        applied = PolyMatrix(ring, a).apply(coords)
        assert applied == prod.column(0)
        assert all(_no_zero_coefficient(p) for p in applied)


def test_fused_products_drop_cancelled_terms():
    q = PolyRing(RationalField(), ("x", "y"))
    f = q.parse("x+y") * q.parse("x-y")
    assert f.terms == q.parse("x^2 - y^2").terms
    p7 = PolyRing(PrimeField(7), ("x", "y"))
    g = p7.parse("x + 3*y") * p7.parse("x + 4*y")  # 7*x*y vanishes
    assert g.terms == p7.parse("x^2 + 5*y^2").terms
    for ring, row, col in (
        (q, ["x", "y"], ["y", "-x"]),
        (p7, ["x", "y"], ["6*y", "x"]),  # 6xy + xy = 7xy
    ):
        m = PolyMatrix(ring, [[ring.parse(t) for t in row]])
        v = [ring.parse(t) for t in col]
        assert (m @ PolyMatrix(ring, [[c] for c in v])).entry(0, 0).terms == {}
        assert m.apply(v)[0].terms == {}


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7), PrimeField(2)])
def test_a_sign_scales_without_a_product(field, monkeypatch):
    # by one the polynomial itself, by minus one its termwise negation
    ring = PolyRing(field, ("x", "y"))
    p = ring.parse("3*x^2 - 2*x*y + y^2")
    negated = ring.from_terms(
        (unpack(ring, m), field.neg(c)) for m, c in p.terms.items()
    )
    monkeypatch.setattr(type(field), "mul", None)
    assert p.scale(field.one) is p
    assert p.scale(field.neg(field.one)) == negated
    assert _no_zero_coefficient(negated)


def test_matrix_identity_and_product(ring):
    ident = identity_matrix(ring, 2)
    m = PolyMatrix(
        ring,
        [[ring.parse("x"), ring.parse("y")], [ring.zero(), ring.parse("x*y")]],
    )
    assert ident @ m == m
    assert m @ ident == m


def test_matrix_product_exa_composition(ring):
    phi1 = PolyMatrix(ring, [[ring.parse("x^2"), ring.parse("y^2")]])
    phi2 = PolyMatrix(ring, [[ring.parse("-y^2")], [ring.parse("x^2")]])
    prod = phi1 @ phi2
    assert prod.nrows == 1 and prod.ncols == 1
    assert is_zero_matrix(prod)


def test_matrix_associativity_randomized(ring):
    rng = random.Random(5)
    for _ in range(10):
        a = PolyMatrix(ring, [[rand_poly(rng, ring, 2, 2) for _ in range(2)] for _ in range(2)])
        b = PolyMatrix(ring, [[rand_poly(rng, ring, 2, 2) for _ in range(3)] for _ in range(2)])
        c = PolyMatrix(ring, [[rand_poly(rng, ring, 2, 2) for _ in range(2)] for _ in range(3)])
        assert (a @ b) @ c == a @ (b @ c)


def test_block_of_zero_matrices(ring):
    z = zero_matrix(ring, 2, 1)
    blk = block_matrix(ring, [[z, None], [None, z]], [2, 2], [1, 1])
    assert is_zero_matrix(blk)
    assert (blk.nrows, blk.ncols) == (4, 2)


def test_homogeneity_certificate(ring):
    m = PolyMatrix(ring, [[ring.parse("x^2"), ring.parse("y^2")]])
    assert m.check_homogeneous((0,), (2, 2)) is None
    assert m.check_homogeneous((0,), (2, 3)) == (0, 1)


# -- packed monomials --------------------------------------------------------


def test_s_vectors_that_overflow_raise():
    # the lcm of the two leads fits, but y times the tail at the lower
    # twist reaches degree MAX_DEGREE
    ring = PolyRing(PrimeField(7), ("x", "y"))
    d = MAX_DEGREE - 11
    module = GradedFreeModule(ring, 2, (0, -10))
    g1 = module.vector((ring.monomial((d, 0)), ring.monomial((0, d + 10))))
    g2 = module.vector((ring.monomial((d - 1, 1)), ring.zero()))
    with pytest.raises(MonomialOverflow):
        buchberger(module, [g1, g2])


def _quotient_ring():
    base = PolyRing(RationalField(), ("x", "y", "z"))
    return base.with_quotient([base.parse("z^2")])


PACKING_RINGS = [
    *(PolyRing(RationalField(), tuple(f"x{i}" for i in range(n))) for n in range(1, 7)),
    *(PolyRing(PrimeField(7), tuple(f"x{i}" for i in range(n))) for n in range(1, 7)),
    PolyRing(RationalField(), ("x", "y", "z"), (1, 2, 1)),
    _quotient_ring(),
]


@st.composite
def rings_with_exponents(draw, count):
    ring = draw(st.sampled_from(PACKING_RINGS))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE // 16))
    exps = st.tuples(*[exponent for _ in range(ring.nvars)])
    return ring, draw(st.lists(exps, min_size=count, max_size=count))


@settings(max_examples=200, deadline=None)
@given(rings_with_exponents(1))
def test_unpack_inverts_pack(problem):
    ring, [exps] = problem
    m = ring.pack(exps)
    assert unpack(ring, m) == exps
    assert ring.mono_degree(m) == tuple_degree(ring, exps)
    assert ring.pack(unpack(ring, m)) == m


@settings(max_examples=100, deadline=None)
@given(rings_with_exponents(12), st.data())
def test_packed_keys_sort_in_the_tuple_order(problem, data):
    ring, monos = problem
    by_tuple = sorted(monos, key=lambda e: tuple_mono_key(ring, e))
    assert sorted(monos, key=lambda e: ring.mono_key(ring.pack(e))) == by_tuple

    rank = data.draw(st.integers(1, 5))
    twists = tuple(data.draw(st.integers(-3, 3)) for _ in range(rank))
    module = GradedFreeModule(ring, rank, twists)
    terms = [(data.draw(st.integers(0, rank - 1)), e) for e in monos]
    by_tuple = sorted(terms, key=lambda t: tuple_term_key(module, *t))
    by_int = sorted(terms, key=lambda t: term_key(module, t[0], ring.pack(t[1])))
    assert by_int == by_tuple


@settings(max_examples=200, deadline=None)
@given(rings_with_exponents(2))
def test_packed_operations_agree_componentwise(problem):
    ring, (a, b) = problem
    pa, pb = ring.pack(a), ring.pack(b)
    assert unpack(ring, ring.mono_mul(pa, pb)) == tuple(map(add, a, b))
    assert unpack(ring, ring.mono_lcm(pa, pb)) == tuple(map(max, a, b))
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa), (a, a, pa, pa)):
        divides = all(map(le, x, y))
        assert ring.mono_divides(px, py) == divides
        if divides:  # the packed difference is the quotient monomial
            assert unpack(ring, py - px) == tuple(map(sub, y, x))
    lcm = ring.mono_lcm(pa, pb)
    assert ring.mono_divides(pa, lcm) and ring.mono_divides(pb, lcm)
    assert ring.mono_degree(lcm) == tuple_degree(ring, tuple(map(max, a, b)))
    colon = tuple(max(x - y, 0) for x, y in zip(a, b))
    assert unpack(ring, ring.mono_colon(pa, pb)) == colon
    assert ring.mono_degree(ring.mono_colon(pa, pb)) == tuple_degree(ring, colon)
    coprime = not any(x and y for x, y in zip(a, b))
    assert (not ring.mono_support(pa) & ring.mono_support(pb)) == coprime


def test_only_weighted_rings_read_the_fields_of_an_lcm(monkeypatch):
    # with unit weights the lcm's degree is one product; the (1, 2, 1) ring
    # weighs the fields it reads back
    reads = []
    real = PolyRing._fields

    def counting(self, m):
        reads.append(m)
        return real(self, m)

    monkeypatch.setattr(PolyRing, "_fields", counting)
    for ring in PACKING_RINGS:
        a = ring.pack(tuple(range(ring.nvars)))
        b = ring.pack(tuple(range(ring.nvars))[::-1])
        reads.clear()
        lcm = ring.mono_lcm(a, b)
        assert bool(reads) == (set(ring.weights) != {1}), ring
        exps = tuple(map(max, real(ring, a), real(ring, b)))[: ring.nvars]
        assert lcm == ring.pack(exps)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2)], ids=["unit", "weighted"])
def test_an_lcm_fits_or_overflows_past_the_sum_of_the_degrees(weights):
    # deg a + deg b >= MAX_DEGREE in both cases: the lcm (x^e) fits, and
    # the lcm of x^e with x^(e - 1) y reaches MAX_DEGREE
    ring = PolyRing(PrimeField(7), ("x", "y"), weights)
    e = MAX_DEGREE - weights[1]
    a, b = ring.pack((e, 0)), ring.pack((e - 1, 0))
    assert ring.mono_degree(a) + ring.mono_degree(b) >= MAX_DEGREE
    assert ring.mono_lcm(a, b) == ring.mono_lcm(b, a) == a
    c = ring.pack((e - 1, 1))
    assert ring.mono_degree(a) + ring.mono_degree(c) >= MAX_DEGREE
    for x, y in ((a, c), (c, a)):
        with pytest.raises(MonomialOverflow):
            ring.mono_lcm(x, y)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(rings_with_exponents), st.data())
def test_hilbert_numerators_on_packed_monomials_match_the_tuple_kernel(
    problem, data
):
    # the package's kernel reads packed leads only; one lead at a time
    # (``_LeadsSeries.add``) gives the same numerator as all at once
    ring, monos = problem
    expected = monomial_quotient_numerator(ring.weights, monos)
    packed = [ring.pack(e) for e in monos]
    assert _monomial_quotient_numerator(ring, packed) == expected
    module = GradedFreeModule(ring, 1, (0,))
    first = data.draw(st.integers(0, len(monos)))
    grown = _LeadsSeries(module, [(0, m, None) for m in packed[:first]])
    for m in packed[first:]:
        grown.add((0, m, None))
    assert grown.numerators == [expected]


@st.composite
def structured_leads(draw):
    """A ring and 10-30 exponent tuples that are pure powers (pairwise
    coprime once reduced to the minimal ones) or variable-disjoint: each
    supported on one of two complementary blocks of variables."""
    ring = draw(st.sampled_from([r for r in PACKING_RINGS if r.nvars >= 2]))
    n = ring.nvars
    count = draw(st.integers(10, 30))
    exponent = st.integers(1, 4)
    if draw(st.booleans()):
        variable = st.integers(0, n - 1)
        powers = st.tuples(variable, exponent)
        return ring, [
            tuple(e if i == v else 0 for i in range(n))
            for v, e in draw(st.lists(powers, min_size=count, max_size=count))
        ]
    cut = draw(st.integers(1, n - 1))
    blocks = (range(cut), range(cut, n))

    def lead(block):
        size = len(block)
        exps = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        return tuple(exps[i - block.start] if i in block else 0 for i in range(n))

    return ring, [lead(blocks[draw(st.integers(0, 1))]) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(structured_leads(), st.data())
def test_hilbert_numerators_of_coprime_and_disjoint_leads(problem, data):
    # the kernel skips the colon of a lead coprime to the leads before it;
    # all at once and one lead at a time agree with the tuple kernel
    ring, monos = problem
    expected = monomial_quotient_numerator(ring.weights, monos)
    packed = [ring.pack(e) for e in monos]
    assert _monomial_quotient_numerator(ring, packed) == expected
    module = GradedFreeModule(ring, 1, (0,))
    first = data.draw(st.integers(0, len(monos)))
    grown = _LeadsSeries(module, [(0, m, None) for m in packed[:first]])
    for m in packed[first:]:
        grown.add((0, m, None))
    assert grown.numerators == [expected]


def test_the_largest_degree_packs_and_the_next_overflows():
    ring = PolyRing(RationalField(), ("x", "y"), (1, 2))
    top = ring.pack((MAX_DEGREE - 1, 0))
    assert unpack(ring, top) == (MAX_DEGREE - 1, 0)
    assert unpack(ring, ring.pack((1, MAX_DEGREE // 2 - 1))) == (1, MAX_DEGREE // 2 - 1)
    for exps in ((MAX_DEGREE, 0), (0, MAX_DEGREE // 2), (2**32, 0)):
        with pytest.raises(MonomialOverflow):
            ring.pack(exps)
    with pytest.raises(MonomialOverflow):
        PolyRing(RationalField(), ("x",), (MAX_DEGREE,))


def test_products_that_overflow_raise_and_never_carry():
    ring = PolyRing(PrimeField(7), ("x", "y"))
    half = ring.monomial((MAX_DEGREE // 2, 0))
    y = ring.var(1)
    near = half * ring.monomial((MAX_DEGREE // 2 - 1, 0))
    assert unpack(ring, next(iter(near.terms))) == (MAX_DEGREE - 1, 0)
    with pytest.raises(MonomialOverflow):
        near * ring.var(0)
    with pytest.raises(MonomialOverflow):
        near * y
    with pytest.raises(MonomialOverflow):
        half * half
    with pytest.raises(MonomialOverflow):
        ring.mono_mul(ring.pack((MAX_DEGREE - 1, 0)), ring.pack((0, 1)))
    with pytest.raises(MonomialOverflow):
        PolyMatrix(ring, [[near]]) @ PolyMatrix(ring, [[y]])
    with pytest.raises(MonomialOverflow):
        PolyMatrix(ring, [[near]]).apply([y])


def test_parsing_an_exponent_that_overflows_is_a_parse_error():
    ring = PolyRing(RationalField(), ("x", "y"))
    for text in ("x^4294967296", f"x^{MAX_DEGREE}", f"x^{MAX_DEGREE - 1}*y"):
        with pytest.raises(ParseError, match="does not fit"):
            ring.parse(text)
    assert ring.parse(f"x^{MAX_DEGREE - 1}").homogeneous_degree() == MAX_DEGREE - 1
