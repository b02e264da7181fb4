"""Property tests of the coefficient kernel: the module division against
a linear-scan oracle, and the products against a per-term oracle.

The division oracle is the division the engine used before its heap and
its packed monomials: it works on exponent tuples (``reference.unpack``)
under the tuple key (-degree - twist, position, reversed exponents), and every
step it recomputes the key of every remaining term and reduces the largest
one by the first divisor whose lead divides it.  The engine must return the
same quotients and remainder, and both must satisfy the division identity.
The product oracle (``reference.termwise_products``) reduces at every
field operation, where the package reduces modulo p once per output term.

The fields run from p = 2 and 3, where most small integers vanish or
collide, to p = 2^61 - 1, where products of residues pass 2^62, and Q.
Over Q the scalars include large numerators and denominators (up to about
2^70) built from a few shared primes, so the kernel's lcm denominators and
its cross-cancelling gcds meet common factors.  Every stored coefficient
must be canonical (``_canonical``): polynomials compare by their term
dicts, and an unreduced residue or a ``Fraction`` not in lowest terms
compares unequal to its canonical value, so either would break equality
without any other sign.
"""

from collections import defaultdict
from fractions import Fraction
from math import gcd
from operator import add, le, mul, sub

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import add_vectors, termwise_products, unpack
from startrans import GradedFreeModule, PolyMatrix, PolyRing, PrimeField, RationalField
from startrans.modules import (
    _combine_rows,
    _decode,
    _keyed_form,
    _reduce,
    _RowTable,
    _s_vector,
    _term_of_key,
    _terms,
)
from startrans.poly import _add_product, _from_accumulator

FIELDS = [
    PrimeField(2),
    PrimeField(3),
    PrimeField(7),
    PrimeField(32003),
    PrimeField(2**61 - 1),
    RationalField(),
]


def _canonical(poly):
    """Every coefficient is a nonzero scalar in the field's one form: an
    int in 1..p-1 over a prime field, a ``Fraction`` in lowest terms with a
    positive denominator over Q."""
    p = poly.ring.field.p
    if p is None:
        return all(
            type(c) is Fraction
            and c.numerator
            and c.denominator > 0
            and gcd(c.numerator, c.denominator) == 1
            for c in poly.terms.values()
        )
    return all(type(c) is int and 0 < c < p for c in poly.terms.values())


def recorded_divide(vector, divisors, lead_only=False):
    """(quotients, remainder terms) of ``_reduce`` on ``vector`` by
    ``divisors``, recording its quotients: the recorded dict, which must
    hold only nonzero coefficients, turned into one quotient per divisor by
    ``_RowTable.combine`` over unit rows (entry k of sum c x^u unit row k
    is q_k)."""
    module = vector.module
    reducers = [(k, r) for k, r in enumerate(g.keyed() for g in divisors) if r]
    quots = defaultdict(dict)
    work = _terms(module, enumerate(vector.coords))
    terms = _reduce(module, work, reducers, quots, lead_only=lead_only)
    assert all(c for qd in quots.values() for c in qd.values())
    return unit_rows(module, len(divisors)).combine(module.ring.field.one, quots), terms


def unit_rows(module, width):
    """A ``_RowTable`` of ``width`` unit rows over the keys of ``module``,
    each built: row k's recipe is the generator index k."""
    table = _RowTable(module, width, range(width))
    for k in range(width):
        table.row(k)
    return table


def tuple_term_key(module, pos, exps):
    degree = sum(map(mul, module.ring.weights, exps))
    return (-degree - module.twists[pos], pos, exps[::-1])


def _max_term(module, work):
    best = None
    best_key = None
    for pos, terms in enumerate(work):
        for exps in terms:
            k = tuple_term_key(module, pos, exps)
            if best_key is None or k < best_key:
                best_key = k
                best = (pos, exps)
    return best


def _unpacked(p):
    return {unpack(p.ring, m): c for m, c in p.terms.items()}


def linear_scan_divide(vector, divisors):
    """Reference division: a full scan for the largest term on every step,
    on exponent tuples."""
    module = vector.module
    ring = module.ring
    f = ring.field
    work = [_unpacked(c) for c in vector.coords]
    tuple_divisors = [[_unpacked(c) for c in g.coords] for g in divisors]
    leads = []
    for g in tuple_divisors:
        top = _max_term(module, [dict(c) for c in g])
        leads.append(None if top is None else (*top, g[top[0]][top[1]]))
    rem = [{} for _ in range(module.rank)]
    quots = [{} for _ in divisors]

    def sub_term(target, exps, c):
        c0 = f.sub(target.get(exps, f.zero), c)
        if f.is_zero(c0):
            target.pop(exps, None)
        else:
            target[exps] = c0

    while True:
        top = _max_term(module, work)
        if top is None:
            break
        pos, exps = top
        coeff = work[pos][exps]
        for k, lead in enumerate(leads):
            if lead is None:
                continue
            gpos, gexps, gcoeff = lead
            if gpos == pos and all(map(le, gexps, exps)):
                u = tuple(map(sub, exps, gexps))
                q = f.div(coeff, gcoeff)
                for dpos, dterms in enumerate(tuple_divisors[k]):
                    for dexps, dc in dterms.items():
                        sub_term(work[dpos], tuple(map(add, dexps, u)), f.mul(q, dc))
                q0 = f.add(quots[k].get(u, f.zero), q)
                if f.is_zero(q0):
                    quots[k].pop(u, None)
                else:
                    quots[k][u] = q0
                break
        else:
            rem[pos][exps] = coeff
            del work[pos][exps]

    remainder = module.vector(ring.from_terms(r.items()) for r in rem)
    return [ring.from_terms(q.items()) for q in quots], remainder, leads


# Two variables and exponents up to 2 give few monomials, so reductions
# often land on terms already present.  Only such collisions make a wrong
# processing order visible: with the first-divisor rule fixed, the result
# differs only where a term already moved to the remainder comes back.
NAMES = ("x", "y")


@st.composite
def rings(draw):
    field = draw(st.sampled_from(FIELDS))
    weights = tuple(draw(st.integers(1, 2)) for _ in NAMES)
    return PolyRing(field, NAMES, weights)


# products of powers of primes that the draws share, up to about 2^70
_LARGE = st.builds(
    lambda a, b, c: 2**a * 3**b * 1000003**c,
    st.integers(0, 30), st.integers(0, 12), st.integers(0, 1),
)


def scalars(field):
    """Nonzero scalars: fractions whose denominator the field can invert,
    small or large with shared factors, read in the field, leaving out
    those that vanish there (over p = 2 and 3 many do)."""
    p = field.p
    fractions = st.builds(
        Fraction,
        st.one_of(st.integers(-6, 6), st.builds(mul, st.sampled_from([-1, 1]), _LARGE)),
        st.one_of(st.integers(1, 3), _LARGE),
    ).filter(lambda c: c and (p is None or c.denominator % p))
    return fractions.map(
        lambda c: field.from_fraction(c.numerator, c.denominator)
    ).filter(lambda c: not field.is_zero(c))


def polynomials(ring, max_terms):
    exps = st.tuples(*[st.integers(0, 2) for _ in range(ring.nvars)])
    return st.lists(
        st.tuples(exps, scalars(ring.field)), min_size=1, max_size=max_terms
    ).map(ring.from_terms)


@st.composite
def division_problems(draw):
    ring = draw(rings())
    rank = draw(st.integers(1, 3))
    twists = tuple(draw(st.integers(-2, 2)) for _ in range(rank))
    module = GradedFreeModule(ring, rank, twists)

    def vectors(max_terms):
        return st.lists(
            polynomials(ring, max_terms), min_size=rank, max_size=rank
        ).map(module.vector)

    vector = draw(vectors(5))
    divisors = draw(st.lists(vectors(3), min_size=1, max_size=4))
    return vector, divisors


@settings(max_examples=100, deadline=None)
@given(division_problems())
def test_division_matches_linear_scan_and_the_identity(problem):
    vector, divisors = problem
    module = vector.module
    ring = module.ring

    quots, terms = recorded_divide(vector, divisors)
    rem = module.vector(_decode(module, terms.items()))

    oracle_quots, oracle_rem, oracle_leads = linear_scan_divide(vector, divisors)
    leads = [g.lead() for g in divisors]
    assert [
        None if lead is None else (lead[0], unpack(ring, lead[1]), lead[2])
        for lead in leads
    ] == oracle_leads
    assert quots == oracle_quots
    assert rem == oracle_rem
    assert next(iter(terms), None) == min(terms, default=None)  # the lead first
    assert all(_canonical(c) for c in rem.coords)
    assert all(_canonical(q) for q in quots)

    recombined = rem
    for q, g in zip(quots, divisors):
        recombined = add_vectors(recombined, g.mul_poly(q))
    assert recombined == vector

    for pos, c in enumerate(rem.coords):
        for exps in _unpacked(c):
            assert not any(
                lead is not None
                and lead[0] == pos
                and all(map(le, lead[1], exps))
                for lead in oracle_leads
            )


@settings(max_examples=50, deadline=None)
@given(division_problems())
def test_division_to_the_lead_keeps_the_lead_and_the_identity(problem):
    # the floored pair loop stops at the remainder's lead (``_reduce`` with
    # ``lead_only``): the same lead as the full division, first among the
    # remainder's terms; the keyed form the loop builds from those terms is
    # the remainder's, and the quotients so far still recombine
    vector, divisors = problem
    module = vector.module
    rem = linear_scan_divide(vector, divisors)[1]
    quots, terms = recorded_divide(vector, divisors, lead_only=True)
    rem_lead = module.vector(_decode(module, terms.items()))
    assert rem_lead.lead() == rem.lead()
    if terms:
        (key, c), *tail = terms.items()
        assert (*_term_of_key(module, key), c) == rem.lead()
        *lead, tail, den = _keyed_form(module.ring.field, key, c, tail)
        *fresh_lead, fresh_tail, fresh_den = rem_lead.keyed()
        assert lead == fresh_lead and sorted(tail) == sorted(fresh_tail)
        assert den == fresh_den
    assert all(_canonical(c) for c in rem_lead.coords)
    recombined = rem_lead
    for q, g in zip(quots, divisors):
        recombined = add_vectors(recombined, g.mul_poly(q))
    assert recombined == vector


@st.composite
def product_problems(draw):
    """A ring, a 2x3 and a 3x2 matrix of polynomials (some entries zero)
    and a nonzero scalar."""
    ring = draw(rings())
    entries = st.one_of(st.just(ring.zero()), polynomials(ring, 4))

    def matrix(nrows, ncols):
        return PolyMatrix(
            ring, [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
        )

    return ring, matrix(2, 3), matrix(3, 2), draw(scalars(ring.field))


def _unpacked_canonical(p):
    assert _canonical(p)
    return _unpacked(p)


@settings(max_examples=60, deadline=None)
@given(product_problems())
def test_products_match_the_termwise_oracle(problem):
    ring, a, b, c = problem
    product = a @ b
    column = b.column(0)
    applied = a.apply(column)
    for i in range(a.nrows):
        row = a.entries[i]
        combined = _combine_rows(
            ring, [(e.terms, b.entries[k]) for k, e in enumerate(row) if e.terms], b.ncols
        )
        for j in range(b.ncols):
            expected = termwise_products(
                ring, [(e.terms, b.entry(k, j).terms) for k, e in enumerate(row)]
            )
            assert _unpacked_canonical(product.entry(i, j)) == expected
            assert _unpacked_canonical(combined[j]) == expected
            assert _unpacked_canonical(row[j] * b.entry(j, i)) == termwise_products(
                ring, [(row[j].terms, b.entry(j, i).terms)]
            )
        assert _unpacked_canonical(applied[i]) == termwise_products(
            ring, [(e.terms, x.terms) for e, x in zip(row, column)]
        )
        for e in row:
            assert _unpacked_canonical(e.scale(c)) == termwise_products(
                ring, [(e.terms, {0: c})]
            )


def test_a_q_sum_of_products_is_kept_over_the_lcm_of_its_denominators():
    # 1/4 x * 1/6 is 1/24 x and 1/6 x * 1/10 is 1/60 x: their sum waits as
    # 7/120 x, over lcm(24, 60), not as 84/1440 x over the product
    ring = PolyRing(RationalField(), NAMES)
    x = ring.var(0)
    acc = {}
    for a, b in ((Fraction(1, 4), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 10))):
        _add_product(acc, x.scale(a).terms, ring.constant(b).terms, ring)
    assert list(acc.values()) == [(7, 120)]
    assert _from_accumulator(ring, acc) == x.scale(Fraction(7, 120))


@settings(max_examples=50, deadline=None)
@given(division_problems())
def test_s_vectors_match_the_termwise_oracle(problem):
    # ``_s_vector`` builds c_i x^u_i g_i - c_j x^u_j g_j from the keyed
    # tails alone, and records the two terms it multiplied by, negated, as
    # ``_reduce`` records quotients
    vector, divisors = problem
    basis = [g for g in (vector, *divisors) if g.lead() is not None]
    leads = [g.lead() for g in basis]
    module = vector.module
    ring = module.ring
    f = ring.field
    units = unit_rows(module, len(basis))
    for j in range(len(basis)):
        for i in range(j):
            if leads[i][0] != leads[j][0]:
                continue
            lcm = ring.mono_lcm(leads[i][1], leads[j][1])
            quots = defaultdict(dict)
            work = _s_vector(
                module, [g.keyed() for g in basis], leads, i, j, lcm, quots=quots
            )
            assert sorted(quots) == [i, j]
            head = units.combine(f.neg(f.one), quots)
            head_i, head_j = head[i].terms, head[j].terms
            for (u, c), lead in ((*head_i.items(), leads[i]), (*head_j.items(), leads[j])):
                assert ring.mono_mul(u, lead[1]) == lcm
                assert f.mul(c, lead[2]) in (f.one, f.neg(f.one))
            got = {}
            for key, c in work.items():
                if f.p is not None:
                    c %= f.p
                if not f.is_zero(c):  # a term that cancelled stays, as a zero
                    pos, m = _term_of_key(module, key)
                    got[(pos, unpack(ring, m))] = c
            expected = {}
            for pos in range(module.rank):
                products = termwise_products(
                    ring,
                    [(basis[i].coords[pos].terms, head_i), (basis[j].coords[pos].terms, head_j)],
                )
                expected.update({(pos, e): c for e, c in products.items()})
            assert got == expected
