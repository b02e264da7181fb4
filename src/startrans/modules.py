"""Groebner bases for submodules of graded free modules.

The engine behind every membership test, witness, syzygy, colon,
intersection and Hilbert computation in the package.  Buchberger's
algorithm with the classical pair criteria and full tail reduction: one
pair loop (``_pair_loop``), then ``_reduce_basis``.  Every basis keeps a
row table (``_RowTable``) with the expression of each basis element in the
input generators; that expression is what makes witnesses canonical, and
``SubmoduleGB.lift`` needs it.  The run records each row as a recipe over
earlier rows, and a row is multiplied out only when a lift reaches it, so a
basis that nothing lifts through (the Koszul generators of a complex, Im
phi_1) costs no row products; a row is multiplied out by ``_combine_rows``,
one ``poly._sum_of_products`` per entry.
``cokernel_series`` runs the same pair loop against a known floor of the
quotient's Hilbert series and stops once the lead terms reach it, with no
reduced basis, no rows and each S-vector divided only down to its lead; the
acyclicity certificate reads every image of a complex that way.

Module terms are ordered degree first (twists included), then position
(lower basis index wins), then the ring's one monomial order; ``term_key``
is the one definition of that order, one int per term that also encodes
the term; a ``GradedFreeModule`` lays out its keys when it is built.
Division works on those keys: multiplying a term by x^u adds the key of
u, and a lead divides a term iff their difference sets no guard or
position bit.  It pops the working vector's terms largest first from a
min-heap of keys.  Vectors are immutable, so each caches its lead term,
the inverse of its lead coefficient and its keyed tail (over Q as int
numerators over the tail's lcm, ``_keyed_form``), and a
``SubmoduleGB`` keeps the leads of its basis and
owns the Hilbert series of its quotient, computed from those leads on first
use (``SubmoduleGB.series``); every certificate reads it there.  When
the ambient ring carries a quotient ideal J, submodule computations adjoin
J-multiples of the basis vectors, so results are correct over R/J.
Syzygies, colons and intersections all come from one ``buchberger`` run
in a stacked module (``_eliminate``): positions come first within a degree,
so on homogeneous input the basis vectors whose lead lies in the second
block span the eliminated submodule, and no row is read.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from math import gcd

from .errors import (
    DimensionMismatch,
    InternalError,
    MonomialOverflow,
    NotInModule,
    ValidationError,
)
from .fields import _fraction, _sum
from .poly import (
    MAX_DEGREE,
    Polynomial,
    PolyRing,
    _over_common_denominator,
    _sum_of_products,
    format_polynomial,
)


@dataclass(frozen=True)
class GradedFreeModule:
    """Free module with a degree (twist) per basis element.

    ``__post_init__`` also lays out ``term_key`` outside the dataclass
    fields: -degree - twist from bit ``_key_top`` up, the position below
    it, the exponent fields below that.
    """

    ring: PolyRing
    rank: int
    twists: tuple

    def __post_init__(self):
        if len(self.twists) != self.rank:
            raise DimensionMismatch("one twist per basis element required")
        ring, twists = self.ring, self.twists
        shift = ring._shift
        top = shift + (self.rank - 1).bit_length()
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(self, "_key_top", top)
        # per position, the key of the monomial 1 there
        setattr_(self, "_key_offsets", tuple(
            [(pos << shift) - (t << top) for pos, t in enumerate(twists)]
        ))
        # the guard bits of the exponent fields, and the position field
        setattr_(self, "_divides_mask", ring._guard | ((1 << top) - (1 << shift)))
        # a key below this one has a twisted degree d with d - min(twists)
        # >= MAX_DEGREE: a term of that twisted degree may not fit
        setattr_(self, "_key_floor", (1 - MAX_DEGREE - min(twists, default=0)) << top)

    def basis_vector(self, i):
        coords = [self.ring.zero()] * self.rank
        coords[i] = self.ring.one()
        return ModuleVector(self, tuple(coords))

    def vector(self, coords):
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate count must equal rank")
        return ModuleVector(self, coords)


def term_key(module, pos, m):
    """Sort key for module terms, the only definition of the module order:
    a larger term has a smaller key, so ascending sorts and the min-heap of
    the division put the largest term first.  It is the tuple
    (-degree - twist, position, reversed exponents) as one int: the ring's
    exponent fields of m (x_n .. x_1) in the low bits, the position above
    them, and -degree - twist, which may be negative, above that.  The key
    determines the term (``_term_of_key``), and the key of a term times x^u
    is the key of the term plus the key of u at position 0 without twist."""
    ring = module.ring
    shift = ring._shift
    return (
        module._key_offsets[pos]
        + (m & ((1 << shift) - 1))
        - ((m >> shift) << module._key_top)
    )


def _term_of_key(module, key):
    """(position, packed monomial) of a ``term_key``."""
    shift, top = module.ring._shift, module._key_top
    pos = (key >> shift) & ((1 << (top - shift)) - 1)
    degree = -(key >> top) - module.twists[pos]
    return pos, (degree << shift) | (key & ((1 << shift) - 1))


class ModuleVector:
    """Element of a graded free module; coordinates are polynomials.

    Vectors are immutable (no operation changes ``coords`` or the terms of
    a coordinate), so the lead term and the keyed form (``keyed``) are
    computed once and kept.
    """

    __slots__ = ("module", "coords", "_lead", "_keyed")

    def __init__(self, module, coords):
        self.module = module
        self.coords = tuple(coords)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def scale(self, c):
        return ModuleVector(self.module, tuple(a.scale(c) for a in self.coords))

    def mul_poly(self, p):
        return ModuleVector(self.module, tuple(a * p for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.module == other.module
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(tuple(frozenset(c.terms.items()) for c in self.coords))

    def lead(self):
        """Largest term as (position, packed monomial, coefficient); None
        if zero."""
        try:
            return self._lead
        except AttributeError:
            pass
        keyed = self.keyed()
        if keyed is None:
            self._lead = None
        else:
            pos, m = _term_of_key(self.module, keyed[0])
            self._lead = (pos, m, keyed[1])
        return self._lead

    def keyed(self):
        """The vector as a divisor: (lead key, lead coefficient, its
        inverse, tail, den), or None if zero (``_keyed_form``)."""
        try:
            return self._keyed
        except AttributeError:
            pass
        module = self.module
        terms = [
            (term_key(module, pos, m), c)
            for pos, p in enumerate(self.coords)
            for m, c in p.terms.items()
        ]
        if not terms:
            self._keyed = None
            return None
        key, c = min(terms)  # keys are distinct, so no coefficient is compared
        terms.remove((key, c))
        self._keyed = _keyed_form(module.ring.field, key, c, terms)
        return self._keyed

    def homogeneous_degree(self):
        """Common value of deg(coord) + twist over nonzero coords, or None
        when the vector is zero or not homogeneous."""
        degs = set()
        for pos, c in enumerate(self.coords):
            if c.is_zero():
                continue
            d = c.homogeneous_degree()
            if d is None:
                return None
            degs.add(d + self.module.twists[pos])
        if len(degs) == 1:
            return degs.pop()
        return None

    def __repr__(self):
        inner = ", ".join(format_polynomial(c) for c in self.coords)
        return f"({inner})"


def _keyed_form(field, key, c, tail):
    """The ``ModuleVector.keyed`` tuple of the vector whose lead term has
    key ``key`` and coefficient c, and whose other terms are the
    (``term_key``, coefficient) pairs ``tail``: (key, c, 1/c, tail, den),
    each tail coefficient a / den for the (key, a) pairs of the kept tail.
    Over a prime field den is 1 and a the coefficient; over Q den is the lcm
    of the tail's denominators and a an int numerator, so a product with
    the tail needs one gcd per term (``_divide``, ``_add_tail_multiple``)."""
    den = 1
    if field.p is None:
        den, tail = _over_common_denominator(tail)
    return key, c, field.invert(c), tail, den


# -- division ---------------------------------------------------------------


def _work(vector):
    """The terms of ``vector`` as the working dict of ``_divide``:
    {``term_key``: coefficient}."""
    module = vector.module
    return {
        term_key(module, pos, m): c
        for pos, poly in enumerate(vector.coords)
        for m, c in poly.terms.items()
    }


def _divide(module, work, divisors, track=False, lead_only=False, keyed=False):
    """Fully reduce the vector of ``module`` whose terms are the working
    dict ``work`` (``_work``, or an S-vector from ``_s_vector``; the dict is
    consumed) by ``divisors``; every remainder term is divisible by no
    divisor lead.  Returns (quotients, remainder), where vector = sum
    q_k*divisors[k] + remainder: with ``track`` the quotients are {k:
    {cofactor key: coefficient}} over the k with q_k nonzero, left for a
    caller that reads them to make polynomials (``_quotients``), and
    without it None.  With ``lead_only`` the division stops at the first
    term that no lead divides: that term is the remainder's lead, and the
    terms below it stay unreduced.  With ``keyed`` the remainder also gets
    its keyed form from the terms at hand (``_keyed_form``), for a
    remainder that joins a basis and so becomes a divisor (``_pair_loop``).

    The largest remaining term is reduced by the first divisor whose lead
    divides it, or else moved to the remainder.  The working vector is one
    dict on ``term_key``s, whose keys wait in a min-heap.  A lead with key
    L divides the term with key K iff K - L sets no guard or position bit,
    and then K - L is the key of the cofactor x^u, so the step adds
    -q * x^u times the divisor's tail (``ModuleVector.keyed``) by adding
    K - L to each tail key; the lead itself cancels the term exactly, and
    q is the term's coefficient times the kept inverse of the lead's.  A
    step only adds terms below the one it removes, so a popped term never
    returns and no key exceeds the twisted degree of the largest input
    term: one check at the start keeps every field in range.

    A term that cancels stays in the dict until it is popped, and is
    skipped then, so each key enters the heap once.  Over a prime field the
    working coefficients are plain int sums, reduced modulo p once, when
    their term is popped (delayed reduction, as in ``poly._add_product``).
    Over Q they stay normalized ``Fraction``s: the kept tail is int
    numerators a over one denominator (``_keyed_form``), so -q/den is put
    in lowest terms once per step (``_over_tail``), each -q * a / den then
    by dividing out one gcd, and it is added with one ``_sum``
    (``_add_tail_multiple``).  Delaying the normalization of this dict
    instead made the divisions slower.
    """
    ring = module.ring
    f = ring.field
    p = f.p
    fmul = f.mul
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = list(work)
    heapq.heapify(heap)
    if heap and heap[0] < module._key_floor:
        raise MonomialOverflow(
            "a division reaches a degree that does not fit a packed field"
        )
    reducers = [
        (k, r[0], r[2], r[3], r[4])
        for k, r in enumerate(g.keyed() for g in divisors)
        if r is not None
    ]
    mask = module._divides_mask
    get = work.get
    rem = {}
    quots = defaultdict(dict)  # divisor index -> {cofactor key: coefficient}

    while heap:
        key = heappop(heap)
        coeff = work.pop(key)
        if p is not None:
            coeff %= p
        if not coeff:  # zero in both fields' scalars (int, Fraction)
            continue
        for k, lead_key, inverse, tail, den in reducers:
            u = key - lead_key
            if u & mask:
                continue
            if p is not None:
                q = coeff * inverse % p
                minus_q = p - q
                for tkey, tc in tail:
                    m = tkey + u
                    old = get(m)
                    if old is None:
                        work[m] = minus_q * tc
                        heappush(heap, m)
                    else:
                        work[m] = old + minus_q * tc
            else:
                q = fmul(coeff, inverse)
                n, d = _over_tail(q, den)
                _add_tail_multiple(work, tail, u, -n, d, heap)
            if track:
                # keys are popped in strictly increasing order, so no
                # divisor takes the same cofactor twice
                quots[k][u] = q
            break
        else:
            rem[key] = coeff
            if lead_only:
                break

    if lead_only:
        # the unreduced terms below the lead, each reduced modulo p once
        # over a prime field, and dropped if zero
        for key, c in work.items():
            if p is not None:
                c %= p
            if c:
                rem[key] = c
    coords = [{} for _ in range(module.rank)]
    lead = None
    for key, c in rem.items():
        pos, m = _term_of_key(module, key)
        coords[pos][m] = c
        lead = lead or (pos, m, c)
    remainder = ModuleVector(module, tuple(Polynomial(ring, r) for r in coords))
    # the remainder's first term came out largest, so its lead and its keyed
    # form are known
    remainder._lead = lead
    if keyed:
        items = list(rem.items())
        remainder._keyed = _keyed_form(f, *items[0], items[1:]) if items else None
    return (quots if track else None), remainder


def _quotients(module, quots):
    """The quotients of a tracked ``_divide`` as (k, polynomial q_k) pairs."""
    ring = module.ring
    shift, top = ring._shift, module._key_top
    low = (1 << shift) - 1
    return [
        (k, Polynomial(ring, {(-(u >> top) << shift) | (u & low): q
                              for u, q in qd.items()}))
        for k, qd in sorted(quots.items())
    ]


def _over_tail(c, den):
    """c / den in lowest terms, as (numerator, denominator), for a normalized
    ``Fraction`` c: only the gcd of c's numerator and den cancels.  With a
    kept tail's den (``_keyed_form``), the product of this with a tail
    numerator a is in lowest terms once gcd(a, denominator) is divided
    out."""
    n = c._numerator
    g = gcd(n, den)
    return n // g, c._denominator * (den // g)


def _add_tail_multiple(work, tail, shift, n, d, heap=None):
    """Add n/d times the kept Q tail ``tail`` (``_keyed_form``; n/d from
    ``_over_tail``), each key shifted by ``shift``, into the working dict
    ``work`` of normalized ``Fraction`` values: each product is built in
    lowest terms by cross-cancelling one gcd, and each sum is one ``_sum``.
    A key new to ``work`` is pushed on ``heap`` when one is given."""
    get = work.get
    for k, a in tail:
        k += shift
        g = gcd(a, d)
        a, b = n * (a // g), d // g
        old = get(k)
        if old is None:
            work[k] = _fraction(a, b)
            if heap is not None:
                heapq.heappush(heap, k)
        else:
            work[k] = _sum(old._numerator, old._denominator, a, b)


def _combine_rows(ring, combo, width):
    """The entrywise sum of c * row over the (term dict c, row) pairs of
    ``combo``, each row a sequence of ``width`` polynomials; one
    ``_sum_of_products`` per entry, so no intermediate polynomial is built."""
    return [
        _sum_of_products(ring, [(c, row[t].terms) for c, row in combo])
        for t in range(width)
    ]


# -- Buchberger -------------------------------------------------------------


def _s_vector(basis, leads, i, j, lcm):
    """The S-vector c_i x^u_i basis[i] - c_j x^u_j basis[j], each c x^u
    taking a lead to the monic ``lcm``, as a working dict of ``_divide``,
    and its head ((i, {u_i: c_i}), (j, {u_j: -c_j})) for ``_row_recipe``.

    The two leads cancel, so the dict holds the two keyed tails
    (``ModuleVector.keyed``), each shifted by the key of the lcm term minus
    the key of its lead and scaled by the kept inverse of its lead
    coefficient.  Over a prime field the values are unreduced int sums, as
    ``_divide`` takes them; over Q they are normalized ``Fraction``s, each
    product built in lowest terms as in the division step
    (``_add_tail_multiple``).  A term that cancels stays, as a zero."""
    module = basis[i].module
    ring = module.ring
    f = ring.field
    p = f.p
    top = term_key(module, leads[i][0], lcm)
    key_i, _, ci, tail_i, den_i = basis[i].keyed()
    key_j, _, cj, tail_j, den_j = basis[j].keyed()
    shift_i, shift_j = top - key_i, top - key_j
    minus_cj = f.neg(cj)
    if p is not None:
        work = {k + shift_i: ci * c for k, c in tail_i}
        get = work.get
        for k, c in tail_j:
            k += shift_j
            work[k] = get(k, 0) + minus_cj * c
    else:
        work = {}
        _add_tail_multiple(work, tail_i, shift_i, *_over_tail(ci, den_i))
        _add_tail_multiple(work, tail_j, shift_j, *_over_tail(minus_cj, den_j))
    ui = ring.mono_div(lcm, leads[i][1])
    uj = ring.mono_div(lcm, leads[j][1])
    return work, ((i, {ui: ci}), (j, {uj: minus_cj}))


def _row_recipe(module, head, quots):
    """The ``_RowTable`` recipe of sum c*row k over (k, c) in ``head`` minus
    sum q_k*row k over the quotients ``quots`` of ``_divide``: with an
    S-vector's head and quotients, the expression of its remainder."""
    recipe = [(c, k) for k, c in head]
    return recipe + [((-q).terms, k) for k, q in _quotients(module, quots)]


class _RowTable:
    """The transformation rows of one Buchberger run, each multiplied out on
    first use.

    Row k expresses a vector of the run in the ``width`` working generators,
    as that many polynomials.  The row of a working generator is its unit
    vector, built at once (``unit``); every other row is a recipe, the
    (term dict c, earlier row index i) pairs of sum c * row i (``add``),
    from an S-vector's head and division quotients (``_pair_loop``) or from
    the interreduction quotients (``_reduce_basis``).  ``row`` multiplies a
    row out, after the rows it reads, and keeps each one; a basis that is
    never lifted through never multiplies out a row.  Each row is the same
    ``_combine_rows`` of the same rows in the same order as a row built at
    once, so it is the same polynomials.
    """

    __slots__ = ("ring", "width", "recipes", "built")

    def __init__(self, ring, width):
        self.ring = ring
        self.width = width
        self.recipes = []  # per row: its recipe, or None for a unit row
        self.built = []  # per row: its polynomials, or None until built

    def unit(self, j):
        """Append the row of working generator j."""
        row = [self.ring.zero()] * self.width
        row[j] = self.ring.one()
        self.recipes.append(None)
        self.built.append(tuple(row))

    def add(self, recipe):
        """Append a row given by its recipe, (term dict, row index) pairs,
        each index that of an earlier row; returns the new row's index."""
        self.recipes.append(recipe)
        self.built.append(None)
        return len(self.built) - 1

    def row(self, k):
        """Row k, multiplied out with every row it reads that is not yet
        built: dependencies first, from an explicit stack, so a long chain
        of recipes needs no recursion."""
        built, recipes = self.built, self.recipes
        stack = [k]
        while stack:
            top = stack[-1]
            if built[top] is not None:
                stack.pop()
                continue
            missing = [i for _, i in recipes[top] if built[i] is None]
            if missing:
                stack += missing
                continue
            combo = [(c, built[i]) for c, i in recipes[top]]
            built[top] = tuple(_combine_rows(self.ring, combo, self.width))
            stack.pop()
        return built[k]


class SubmoduleGB:
    """Generators of a submodule together with its reduced Groebner basis.

    Every basis keeps the row table of its run (``row_table``, a
    ``_RowTable``); row ``row_ids[k]`` of it expresses ``gb[k]`` as a
    combination of the working generator list (the input generators
    followed by any quotient-ideal multiples that were adjoined).  A row is
    a recipe until something reads it: ``lift`` multiplies out only the rows
    its quotients reach, so a basis that is never lifted through (Im phi_1
    of a complex) multiplies out none.  ``leads[k]`` is ``gb[k].lead()``.
    The basis owns the Hilbert series of ambient/M: ``series()`` computes
    it from the leads on first call and keeps it, so every certificate that
    reads it shares one computation.
    """

    __slots__ = (
        "ambient", "generators", "adjoined", "gb", "row_table", "row_ids",
        "leads", "_series",
    )

    def __init__(self, ambient, generators, adjoined, gb, row_table, row_ids):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.adjoined = tuple(adjoined)
        self.gb = tuple(gb)
        self.row_table = row_table
        self.row_ids = tuple(row_ids)
        self.leads = tuple(g.lead() for g in self.gb)
        self._series = None

    def series(self):
        """HS(ambient / M) (modulo J over R/J), from the leads; kept."""
        if self._series is None:
            self._series = _LeadsSeries(self.ambient, self.leads).series()
        return self._series

    @property
    def working_generators(self):
        return self.generators + self.adjoined

    def _check_ambient(self, v):
        # the identity test first: the common case compares no twists
        if v.module is not self.ambient and v.module != self.ambient:
            raise DimensionMismatch("vector outside the ambient module")

    def normal_form(self, v):
        self._check_ambient(v)
        _, r = _divide(v.module, _work(v), self.gb)
        return r

    def contains(self, v):
        return self.normal_form(v).is_zero()

    def lift(self, v):
        """Canonical witness over the *input* generators; NotInModule if
        the vector is outside the submodule.  Only the rows of the basis
        elements with a nonzero quotient are multiplied out, with the rows
        they read, and they are kept for later lifts."""
        self._check_ambient(v)
        quots, rem = _divide(v.module, _work(v), self.gb, track=True)
        if not rem.is_zero():
            raise NotInModule("vector has nonzero normal form")
        ring = self.ambient.ring
        working = self.working_generators
        row, ids = self.row_table.row, self.row_ids
        combo = [(q.terms, row(ids[k])) for k, q in _quotients(v.module, quots)]
        total = _combine_rows(ring, combo, len(working))
        check = _combine_rows(
            ring,
            [(c.terms, g.coords) for c, g in zip(total, working) if c.terms],
            self.ambient.rank,
        )
        if check != list(v.coords):
            raise InternalError("witness recombination failed (internal)")
        return tuple(total[: len(self.generators)])

    def __repr__(self):
        gens = "; ".join(repr(g) for g in self.gb)
        return f"SubmoduleGB[{len(self.gb)} elements: {gens}]"


def buchberger(ambient, gens):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    Deterministic: pairs are processed by (twisted lcm degree, i, j); the
    reduced basis is sorted by decreasing lead term.  The basis keeps the
    row table of the run, in which every row is only a recipe until a lift
    multiplies it out (``_RowTable``).  It is ``_pair_loop`` without a
    floor, then ``_reduce_basis``.
    """
    gens = tuple(gens)
    adjoined, basis, table, _ = _pair_loop(ambient, gens)
    return _reduce_basis(ambient, gens, adjoined, basis, table)


def cokernel_series(ambient, gens, floor):
    """HS(ambient / <gens>) (modulo J over R/J), given ``floor``, a series
    it is known to dominate degree by degree: ``_pair_loop`` with that
    floor, which stops as soon as the lead terms reach it.  No reduced
    basis is built."""
    return _pair_loop(ambient, tuple(gens), floor)[3]


def _pair_loop(ambient, gens, floor=None):
    """Buchberger's pair loop over ``gens`` and the adjoined J-multiples:
    the coprime and chain criteria, then each S-vector divided by the basis
    so far.  Returns (adjoined, basis, table, series); the basis is a
    Groebner basis, not reduced.  Without a floor, row k of ``table``
    expresses basis[k] (``_RowTable``): a generator's row is its unit
    vector, and a remainder's row is recorded as the recipe of its
    S-vector's head and quotients (``_row_recipe``), not multiplied out.
    With a floor nothing is lifted through the result, so ``table`` is
    None and the divisions keep no quotients.

    ``series`` is None without a floor.  With a floor F, a series that
    HS(ambient / in(M)) is known to dominate in every degree (M the span of
    ``gens``), the lead terms L of the basis so far give
    HS(ambient / L) >= HS(ambient / in(M)) >= F (Traverso, "Hilbert
    functions and the Buchberger algorithm", JSC 22 (1996)).  If the
    generators' leads already give S = HS(ambient / L) == F, it returns F
    before building any pair.  The generators are homogeneous and pairs
    come out in increasing degree, so at the first pair of each degree d
    the loop computes S once: S == F means HS(ambient / M) = F, and the loop stops and returns
    F; S_d == F_d means L_d = in(M)_d, so every pair of degree d would
    reduce to zero and is marked done unprocessed; S_d < F_d contradicts
    the floor and raises InternalError.  Each nonzero remainder of degree d
    adds one monomial to L_d, so once S_d - F_d remainders are in, the rest
    of degree d is skipped too.  If the pairs run out first the basis is a
    Groebner basis and the series comes from its leads, so ``series`` is
    HS(ambient / M) either way.  Only the leads are read, so with a floor an
    S-vector is divided only until its lead is divisible by no basis lead
    (``_divide`` with ``lead_only``), and its tail stays unreduced: that
    lead is still a new monomial of in(M), which is all the argument uses.
    Without a floor every remainder is reduced fully: its row becomes a
    lift witness, and its reduced tail makes less work for later pairs and
    for ``_reduce_basis``.  The series of L is kept one numerator per
    position (``_LeadsSeries``), each new lead updating its own.
    """
    ring = ambient.ring
    for g in gens:
        if g.module != ambient:
            raise DimensionMismatch("generator outside the ambient module")
    adjoined = tuple(  # the J-multiples of the basis vectors
        ambient.basis_vector(i).mul_poly(g)
        for g in ring.quotient
        for i in range(ambient.rank)
    )
    working = gens + adjoined

    floored = floor is not None
    basis = []
    table = None if floored else _RowTable(ring, len(working))
    leads = []
    for j, g in enumerate(working):
        if g.is_zero():
            continue
        basis.append(g)
        leads.append(g.lead())
        if not floored:
            table.unit(j)

    if floored:
        lead_series = _LeadsSeries(ambient, leads)
        if not lead_series.series().sub(floor).numer:
            return adjoined, basis, table, floor

    rank_one = ambient.rank == 1

    def pair(i, j):
        lcm = ring.mono_lcm(leads[i][1], leads[j][1])
        return (ring.mono_degree(lcm) + ambient.twists[leads[i][0]], i, j, lcm)

    # a min-heap of (degree, i, j, lcm); every pair is pushed once and the
    # keys (degree, i, j) are unique, so pairs come out in increasing key
    # order
    pairs = []
    for i in range(len(basis)):
        for j in range(i):
            if leads[i][0] == leads[j][0]:
                pairs.append(pair(j, i))
    heapq.heapify(pairs)
    done = set()
    degree = None
    excess = 0  # S_d - F_d: the nonzero remainders degree d can still add

    while pairs:
        d, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if floored:
            if d != degree:
                degree = d
                gap = lead_series.series().sub(floor)
                if not gap.numer:
                    return adjoined, basis, table, floor
                excess = gap.expand(d).get(d, 0)
                if excess < 0:
                    raise InternalError(
                        f"lead terms fell below the Hilbert floor in degree {d} "
                        "(internal)"
                    )
            if not excess:
                continue
        li, lj = leads[i], leads[j]
        if rank_one and li[1] + lj[1] == lcm:
            continue  # coprime leads; valid only for ideals
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or leads[k][0] != li[0]:
                continue
            if ring.mono_divides(leads[k][1], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    chained = True
                    break
        if chained:
            continue
        s, head = _s_vector(basis, leads, i, j, lcm)
        quots, rem = _divide(
            ambient, s, basis, track=not floored, lead_only=floored, keyed=True
        )
        if rem.is_zero():
            continue
        excess -= 1
        new_index = len(basis)
        if not floored:
            table.add(_row_recipe(ambient, head, quots))
        basis.append(rem)
        leads.append(rem.lead())
        if floored:
            lead_series.add(leads[new_index])
        for k in range(new_index):
            if leads[k][0] == leads[new_index][0]:
                heapq.heappush(pairs, pair(k, new_index))

    series = lead_series.series() if floored else None
    return adjoined, basis, table, series


def _reduce_basis(ambient, gens, adjoined, basis, table):
    """Interreduce ``basis`` into the reduced basis.  The minimal leads
    are kept smallest first, so the reduced basis, largest lead first, is
    that list reversed.  The row of each reduced element is appended to
    the row table of the run (``_pair_loop``) as the recipe inv * (row of
    basis[idx] - sum q * row of others[k] over the quotient pairs (k, q)),
    not multiplied out, and the basis keeps the table."""
    f = ambient.ring.field
    mask = ambient._divides_mask
    keys = [g.keyed()[0] for g in basis]
    # smallest lead first; reverse=True keeps equal leads in basis order
    order = sorted(range(len(basis)), key=keys.__getitem__, reverse=True)
    kept = []
    for idx in order:
        # a lead that a kept lead divides (see ``_divide``) is redundant
        if all((keys[idx] - keys[k]) & mask for k in kept):
            kept.append(idx)

    # no kept lead divides another, so each remainder keeps its lead and is
    # never zero
    final = []
    final_rows = []
    for idx in kept:
        others = [k for k in kept if k != idx]
        quots, rem = _divide(
            ambient, _work(basis[idx]), [basis[k] for k in others], track=True
        )
        pos, m, c = rem.lead()
        inv = f.invert(c)
        monic = rem.scale(inv)
        monic._lead = (pos, m, f.one)  # scaling keeps the lead monomial
        final.append(monic)
        recipe = [({0: inv}, idx)]
        for k, q in _quotients(ambient, quots):
            recipe.append((q.scale(f.neg(inv)).terms, others[k]))
        final_rows.append(table.add(recipe))
    return SubmoduleGB(ambient, gens, adjoined, final[::-1], table, final_rows[::-1])


# -- public operations -------------------------------------------------------


def normal_form(v, gb):
    """Remainder of v on division by the reduced basis; v minus the result
    lies in the submodule."""
    return gb.normal_form(v)


def lift_witness(v, gens, ambient=None, gb=None):
    """Coefficients c with v = sum c_i gens_i, canonical via the reduced
    basis; raises NotInModule when v is outside the span."""
    if ambient is None:
        if not gens:
            raise DimensionMismatch("ambient required for empty generator list")
        ambient = gens[0].module
    if gb is None:
        gb = buchberger(ambient, gens)
    return gb.lift(v)


def _eliminate(top_twists, stacked_gens, lower):
    """Reduced basis of the part of ``lower`` that the span of
    ``stacked_gens`` meets, each generator a coordinate tuple in T + lower,
    T the free module with twists ``top_twists``.

    One ``buchberger`` run in T + lower.  Within a degree T's positions come
    first (``term_key``), so a homogeneous vector whose lead lies in
    ``lower`` is zero on T: the reduced basis vectors with such a lead, cut
    to ``lower``, are the reduced basis of the span's intersection with 0 +
    lower (Eisenbud, *Commutative Algebra*, §15.10).  Over R/J the run
    adjoins J-multiples of both blocks, so the result is the one over R/J.
    The basis is its own generator list, each row a unit row.  A generator
    that is not homogeneous raises ValidationError.
    """
    top = len(top_twists)
    stacked = GradedFreeModule(
        lower.ring, top + lower.rank, tuple(top_twists) + tuple(lower.twists)
    )
    gens = [stacked.vector(coords) for coords in stacked_gens]
    if any(g.homogeneous_degree() is None and not g.is_zero() for g in gens):
        raise ValidationError(
            "colons, intersections and syzygies need homogeneous generators"
        )
    kept = [
        lower.vector(g.coords[top:])
        for g in buchberger(stacked, gens).gb
        if g.lead()[0] >= top
    ]
    table = _RowTable(lower.ring, len(kept))
    for k in range(len(kept)):
        table.unit(k)
    return SubmoduleGB(lower, kept, (), kept, table, range(len(kept)))


def syzygies(gens, ambient=None):
    """Reduced basis of the relation module {c : sum c_i gens_i = 0}
    (modulo the quotient ideal, if any).

    It lives in a fresh free module S of rank len(gens) whose twists are the
    generator degrees (0 for a zero generator).  sum c_i (g_i | e_i) is zero
    on ``ambient`` exactly when c is a relation, so the relation module is
    the elimination (``_eliminate``) of the (g_i | e_i) in ambient + S.
    Each element is checked to annihilate ``gens``.
    """
    gens = tuple(gens)
    if ambient is None:
        if not gens:
            raise DimensionMismatch("ambient required for empty generator list")
        ambient = gens[0].module
    for g in gens:
        if g.module != ambient:
            raise DimensionMismatch("generator outside the ambient module")
    ring = ambient.ring
    twists = tuple(g.homogeneous_degree() or 0 for g in gens)
    syz_module = GradedFreeModule(ring, len(gens), twists)
    stacked = [
        g.coords + syz_module.basis_vector(i).coords for i, g in enumerate(gens)
    ]
    result = _eliminate(ambient.twists, stacked, syz_module).gb
    for s in result:
        combo = [(c.terms, g.coords) for c, g in zip(s.coords, gens) if c.terms]
        acc = _combine_rows(ring, combo, ambient.rank)
        if any(not reduce_mod_quotient(ring, c).is_zero() for c in acc):
            raise InternalError("syzygy failed to annihilate (internal)")
    return list(result)


def submodule_equal(a, b):
    """True iff the two submodules coincide (reduced bases identical)."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("submodules of different ambient modules")
    if len(a.gb) != len(b.gb):
        return False
    return all(x == y for x, y in zip(a.gb, b.gb))


def colon(m_gb, q_polys):
    """Generators of {f in F0 : q f in M for all q in Q}, as a SubmoduleGB.

    sum c_k (q*e_k | e_k) + sum d_g (g | 0), g over the basis of M, is zero
    on the first block exactly when q*c lies in M, so M : q is the
    elimination (``_eliminate``) of those vectors in F0(deg q) + F0, which is
    F0 + F0(-deg q) shifted, in the same order.  Each element g of M : q is
    checked to satisfy q*g in M, and the parts are intersected.  A Q with no
    nonzero generator raises ValidationError, as does an inhomogeneous q or
    basis element of M.
    """
    ambient = m_gb.ambient
    q_polys = [q for q in q_polys if not q.is_zero()]
    if not q_polys:
        raise ValidationError("colon by the zero ideal: every generator is zero")
    units = [ambient.basis_vector(i).coords for i in range(ambient.rank)]
    zero = (ambient.ring.zero(),) * ambient.rank
    result = None
    for q in q_polys:
        d = q.homogeneous_degree() or 0
        stacked = [tuple(c * q for c in e) + e for e in units]
        stacked += [g.coords + zero for g in m_gb.gb]
        part = _eliminate(tuple(t - d for t in ambient.twists), stacked, ambient)
        for g in part.gb:
            if not m_gb.contains(g.mul_poly(q)):
                raise InternalError("colon element fails q*g in M (internal)")
        result = part if result is None else intersect(result, part)
    return result


def intersect(a, b):
    """Intersection of two submodules by elimination.

    sum c_i (g_i | g_i) + sum d_j (h_j | 0), over the bases g of a and h of
    b, is zero on the first block exactly when sum c_i g_i = -sum d_j h_j,
    which then lies in both; so the intersection is the elimination
    (``_eliminate``) of those vectors in F + F (Eisenbud, *Commutative
    Algebra*, §15.10).  Over R/J it is the intersection in R/J.  A basis
    element that is not homogeneous raises ValidationError.
    """
    if a.ambient != b.ambient:
        raise DimensionMismatch("intersection requires a common ambient module")
    ambient = a.ambient
    zero = (ambient.ring.zero(),) * ambient.rank
    stacked = [g.coords + g.coords for g in a.gb]
    stacked += [h.coords + zero for h in b.gb]
    return _eliminate(ambient.twists, stacked, ambient)


# -- Hilbert series ----------------------------------------------------------


@dataclass(frozen=True)
class HilbertSeries:
    """Exact rational series: numerator over prod_i (1 - t^{w_i})."""

    numer: tuple
    weights: tuple

    @staticmethod
    def from_dict(coeffs, weights):
        items = tuple(sorted((d, c) for d, c in coeffs.items() if c != 0))
        return HilbertSeries(items, tuple(weights))

    def numer_dict(self):
        return dict(self.numer)

    def twisted(self, shifts):
        """The sum of t^k times the series over k in ``shifts``: the series
        of a free module with those twists, when this one is HS(R)."""
        out = {}
        for k in shifts:
            for d, c in self.numer:
                out[d + k] = out.get(d + k, 0) + c
        return HilbertSeries.from_dict(out, self.weights)

    def sub(self, other):
        if self.weights != other.weights:
            raise DimensionMismatch("series over different denominators")
        out = self.numer_dict()
        for d, c in other.numer:
            out[d] = out.get(d, 0) - c
        return HilbertSeries.from_dict(out, self.weights)

    def as_polynomial(self):
        """Coefficient dict if the series is a (Laurent) polynomial, else None."""
        cur = self.numer_dict()
        for w in self.weights:
            cur = _divide_by_one_minus_tw(cur, w)
            if cur is None:
                return None
        return cur

    def dimension(self):
        """Total k-dimension when finite, else None."""
        p = self.as_polynomial()
        if p is None:
            return None
        return sum(p.values())

    def expand(self, upto):
        """Hilbert function values by degree, for degrees <= upto."""
        if not self.numer:
            return {}
        lo = min(d for d, _ in self.numer)
        cur = self.numer_dict()
        for w in self.weights:
            nxt = {}
            for d in range(lo, upto + 1):
                nxt[d] = cur.get(d, 0) + nxt.get(d - w, 0)
            cur = nxt
        return {d: c for d, c in cur.items() if c}


def _divide_by_one_minus_tw(coeffs, w):
    """Exact division of a Laurent polynomial by (1 - t^w); None if inexact."""
    if not coeffs:
        return {}
    lo = min(coeffs)
    hi = max(coeffs)
    q = {}
    for d in range(lo, hi + 1):
        c = coeffs.get(d, 0) + q.get(d - w, 0)
        if c:
            q[d] = c
    for d in range(hi - w + 1, hi + 1):
        if q.get(d, 0) != 0:
            return None
    return {d: c for d, c in q.items() if c and d <= hi - w}


def _interreduce_monomials(ring, gens):
    """The minimal ones of the packed monomials ``gens``, ascending; a
    divisor has a smaller degree, the top field, so it sorts first."""
    divides = ring.mono_divides
    out = []
    for g in sorted(set(gens)):
        if not any(divides(h, g) for h in out):
            out.append(g)
    return out


def _monomial_quotient_numerator(ring, gens):
    """Numerator of the Hilbert series of R/(gens) over prod (1 - t^w),
    for packed monomials ``gens``."""
    gens = _interreduce_monomials(ring, gens)
    if not gens:
        return {0: 1}
    if not gens[0]:  # the monomial 1 packs to 0 and sorts first
        return {}
    rest = gens[:-1]
    return _adjoin_numerator(
        ring, _monomial_quotient_numerator(ring, rest), rest, gens[-1]
    )


def _adjoin_numerator(ring, base, gens, pivot):
    """The numerator of R/(gens, pivot) from ``base``, that of R/(gens):
    0 -> R/(gens : pivot)(-deg pivot) -> R/(gens) -> R/(gens, pivot) -> 0
    is exact, and g : pivot = lcm(g, pivot) / pivot."""
    lcm = ring.mono_lcm
    tail = _monomial_quotient_numerator(ring, [lcm(g, pivot) - pivot for g in gens])
    d = ring.mono_degree(pivot)
    out = dict(base)
    for deg, c in tail.items():
        out[deg + d] = out.get(deg + d, 0) - c
    return {deg: c for deg, c in out.items() if c}


@dataclass(frozen=True)
class HilbertData:
    series: HilbertSeries
    dimension: object  # int when finite, None when infinite


class _LeadsSeries:
    """HS(ambient / L) for a growing monomial submodule L, spanned by
    ``leads`` ((position, monomial, coefficient) triples, as
    ``ModuleVector.lead`` gives them), kept as one numerator per position:
    ``add`` updates only the position of the new lead, by one
    ``_adjoin_numerator``."""

    __slots__ = ("ambient", "monos", "numerators")

    def __init__(self, ambient, leads):
        self.ambient = ambient
        self.monos = [[] for _ in range(ambient.rank)]
        for pos, m, _ in leads:
            self.monos[pos].append(m)
        self.numerators = [
            _monomial_quotient_numerator(ambient.ring, ms) for ms in self.monos
        ]

    def add(self, lead):
        """Adjoin the lead (position, monomial, coefficient) to L."""
        pos, m, _ = lead
        self.numerators[pos] = _adjoin_numerator(
            self.ambient.ring, self.numerators[pos], self.monos[pos], m
        )
        self.monos[pos].append(m)

    def series(self):
        total = {}
        for numer, shift in zip(self.numerators, self.ambient.twists):
            for d, c in numer.items():
                total[d + shift] = total.get(d + shift, 0) + c
        return HilbertSeries.from_dict(total, self.ambient.ring.weights)


def hilbert_data(m_gb):
    """Hilbert series and total dimension of ambient/M, from lead terms."""
    series = m_gb.series()
    return HilbertData(series, series.dimension())


# -- the ring R/J --------------------------------------------------------------


def ideal_gb(ring, polys):
    """Reduced basis of the ideal of ``polys`` inside R^1, J adjoined over
    R/J."""
    ambient = GradedFreeModule(ring, 1, (0,))
    return buchberger(ambient, [ambient.vector((p,)) for p in polys])


def quotient_ideal_gb(ring):
    """Reduced basis of the quotient ideal J inside R^1 (empty when the ring
    has no quotient), built once per ring and kept on it."""
    try:
        return ring._quotient_gb
    except AttributeError:
        pass
    ring._quotient_gb = ideal_gb(ring, ())
    return ring._quotient_gb


def reduce_mod_quotient(ring, p):
    """Normal form of the polynomial p modulo J; p itself without a quotient."""
    if not ring.quotient or p.is_zero():
        return p
    gb = quotient_ideal_gb(ring)
    return gb.normal_form(gb.ambient.vector((p,))).coords[0]


def ring_series(ring):
    """HS(R/J), the series of the ring's kept basis of J.  A free module
    with twists a_j has series ``ring_series(ring).twisted(a_j)``, so no
    module needs its own basis."""
    return quotient_ideal_gb(ring).series()
