"""Property tests of the module division against a linear-scan oracle.

The oracle is the division the engine used before its heap and its packed
monomials: it works on exponent tuples (``ring.unpack``) under the tuple
key (-degree - twist, position, reversed exponents), and every step it
recomputes the key of every remaining term and reduces the largest one by
the first divisor whose lead divides it.  The engine must return the same
quotients and remainder, and both must satisfy the division identity.
"""

from fractions import Fraction
from operator import add, le, mul, sub

from hypothesis import given, settings
from hypothesis import strategies as st

from startrans import GradedFreeModule, PolyRing, PrimeField, RationalField
from startrans.modules import _divide


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
    return {p.ring.unpack(m): c for m, c in p.terms.items()}


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
    field = draw(st.sampled_from([PrimeField(7), RationalField()]))
    weights = tuple(draw(st.integers(1, 2)) for _ in NAMES)
    return PolyRing(field, NAMES, weights)


def polynomials(ring, max_terms):
    exps = st.tuples(*[st.integers(0, 2) for _ in range(ring.nvars)])
    coeffs = st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3)
    ).map(lambda c: ring.field.from_fraction(c.numerator, c.denominator))
    return st.lists(st.tuples(exps, coeffs), min_size=1, max_size=max_terms).map(
        ring.from_terms
    )


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
    ring = vector.module.ring

    quots, rem = _divide(vector, divisors, track=True)
    _, rem_untracked = _divide(vector, divisors, track=False)

    oracle_quots, oracle_rem, oracle_leads = linear_scan_divide(vector, divisors)
    leads = [g.lead() for g in divisors]
    assert [
        None if lead is None else (lead[0], ring.unpack(lead[1]), lead[2])
        for lead in leads
    ] == oracle_leads
    assert quots == oracle_quots
    assert rem == oracle_rem
    assert rem_untracked == rem

    recombined = rem
    for q, g in zip(quots, divisors):
        recombined = recombined + g.mul_poly(q)
    assert recombined == vector

    for pos, c in enumerate(rem.coords):
        for exps in _unpacked(c):
            assert not any(
                lead is not None
                and lead[0] == pos
                and all(map(le, lead[1], exps))
                for lead in oracle_leads
            )
