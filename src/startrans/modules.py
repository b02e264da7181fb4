"""Groebner bases for submodules of graded free modules.

The engine behind every membership test, witness, syzygy, colon,
intersection and Hilbert computation in the package.  Buchberger's
algorithm with the classical pair criteria and full tail reduction: one
pair loop (``_pair_loop``), then ``_reduce_basis``.  Every basis keeps a
row table (``_RowTable``) with the expression of each basis element in the
input generators, which ``SubmoduleGB.lift`` reads its witnesses off.
Those witnesses are deterministic but not canonical: they depend on the
history of the pair loop that built the basis, which the run keeps as
recipes: a generator's index, or the division's quotient dicts {row index:
{key shift: c}}.  A lift builds only the rows it reaches, so a basis that
nothing lifts through (the Koszul generators of a complex, Im phi_1)
builds no row, not even a unit row.
``cokernel_series`` runs the same pair loop against a known floor of the
quotient's Hilbert series and stops once the lead terms reach it: no rows,
each S-vector divided only down to its lead, and the Hilbert numerators of
the leads updated lead by lead, a lead coprime to those before it at its
position without a colon.  The acyclicity certificate reads every image of
a complex that way.

Module terms are ordered degree first (twists included), then position
(lower basis index wins), then the ring's one monomial order; ``term_key``
is the one definition of that order, one int per term that also encodes
the term; a ``GradedFreeModule`` lays out its keys when it is built.  A
run works on keyed terms end to end: each generator is keyed once into a
term dict (``_terms``), a pair loop holds only term dicts, leads and keyed
forms (the lead, the inverse of its coefficient and the tail, over Q as
int numerators over the tail's lcm, ``_keyed_form``), and the reduced
basis is decoded once, at the end.  Division works on the keys:
multiplying a term by x^u adds the key of u, and a lead divides a term iff
their difference sets no guard or position bit; it pops the terms largest
first from a min-heap of keys.  Vectors are immutable, so each caches its
lead and keyed form, and a ``SubmoduleGB`` keeps the leads of its basis,
the one divisor list every division by it reads (``reducers``), and the
Hilbert series of its quotient, computed from those leads on first use
(``SubmoduleGB.series``); every certificate reads it there.  When
the ambient ring carries a quotient ideal J, a pair loop adjoins the keyed
J-multiples e_i * g (no vector), so results are correct over R/J.
Syzygies, colons and intersections all come from one ``buchberger`` run
in a stacked module (``_eliminate``): positions come first within a degree,
so on homogeneous input the basis vectors whose lead lies in the second
block span the eliminated submodule, and no row is read.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
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
    _kept,
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


def _decode(module, terms):
    """The coordinates of the (``term_key``, coefficient) pairs ``terms``."""
    coords = [{} for _ in range(module.rank)]
    for key, c in terms:
        pos, m = _term_of_key(module, key)
        coords[pos][m] = c
    return tuple(Polynomial(module.ring, t) for t in coords)


class ModuleVector:
    """Element of a graded free module; coordinates are polynomials.

    Vectors are immutable (no operation changes ``coords`` or the terms of
    a coordinate), so the lead term and the keyed form (``keyed``) are
    computed once and kept.  They sit on the hot path of every division,
    so they keep their values in slots inline, not through ``_kept``.
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
            keyed = self.keyed()
            self._lead = keyed and (*_term_of_key(self.module, keyed[0]), keyed[1])
            return self._lead

    def keyed(self):
        """The vector as a divisor: (lead key, lead coefficient, its
        inverse, tail, den), or None if zero (``_keyed_form``)."""
        try:
            return self._keyed
        except AttributeError:
            terms = _terms(self.module, enumerate(self.coords))
            self._keyed = _keyed_work(self.module.ring.field, terms)
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


def _terms(module, coords):
    """The working dict {``term_key``: coefficient} of the vector of
    ``module`` with the (position, polynomial) pairs ``coords``."""
    return {
        term_key(module, pos, m): c
        for pos, poly in coords
        for m, c in poly.terms.items()
    }


def _modular_terms(module, field, inverses, coords):
    """``_terms`` over the prime ``field`` of the vector over Q with the
    (position, polynomial) pairs ``coords``, zeros there dropped: a/b is
    a * b^-1 mod p, each b inverted once (kept in ``inverses``), and a b
    that p divides raises ZeroDivisionError."""
    p = field.p
    terms = {}
    for pos, poly in coords:
        for m, c in poly.terms.items():
            d = c._denominator
            inverse = inverses.get(d)
            if inverse is None:
                if not d % p:
                    raise ZeroDivisionError(f"{p} divides a denominator")
                inverse = inverses[d] = pow(d, -1, p)
            c = c._numerator * inverse % p
            if c:
                terms[term_key(module, pos, m)] = c
    return terms


def _keyed_work(field, work):
    """``_keyed_form`` of the term dict ``work`` (``_terms``; left intact),
    its smallest key the lead; None if it is empty."""
    key = min(work, default=None)
    return None if key is None else _keyed_form(
        field, key, work[key], [t for t in work.items() if t[0] != key]
    )


def _keyed_form(field, key, c, tail):
    """The ``ModuleVector.keyed`` tuple of the vector whose lead term has
    key ``key`` and coefficient c, and whose other terms are the
    (``term_key``, coefficient) pairs ``tail``: (key, c, 1/c, tail, den),
    each tail coefficient a / den for the (key, a) pairs of the kept tail.
    Over a prime field den is 1 and a the coefficient; over Q den is the lcm
    of the tail's denominators and a an int numerator, so a product with
    the tail needs one gcd per term (``_over_tail``, ``_add_tail_multiple``)."""
    den = 1
    if field.p is None:
        den, tail = _over_common_denominator(tail)
    return key, c, field.invert(c), tail, den


# -- division ---------------------------------------------------------------


def _reduce(module, work, reducers, quots=None, lead_only=False, field=None):
    """The division of the working dict ``work`` (consumed) by the (index,
    keyed form) pairs ``reducers`` of the nonzero divisors: the remainder
    terms {``term_key``: coefficient}, the lead first, and each quotient
    q x^u on divisor k recorded as ``quots[k][u] = q`` (u a key shift) in
    the dict of dicts ``quots``, if one is given.  No remainder term is
    divisible by a divisor lead; with ``lead_only`` the division stops at
    the first term that none divides, the lead, and the terms below it stay
    unreduced.

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
    instead made the divisions slower.  A ``field`` replaces the ring's.
    """
    f = field or module.ring.field
    p = f.p
    fmul = f.mul
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = list(work)
    heapq.heapify(heap)
    if heap and heap[0] < module._key_floor:
        raise MonomialOverflow(
            "a division reaches a degree that does not fit a packed field"
        )
    mask = module._divides_mask
    get = work.get
    rem = {}

    while heap:
        key = heappop(heap)
        coeff = work.pop(key)
        if p is not None:
            coeff %= p
        if not coeff:  # zero in both fields' scalars (int, Fraction)
            continue
        for k, (lead_key, _, inverse, tail, den) in reducers:
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
            if quots is not None:
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
    return rem


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


def _s_vector(module, forms, leads, i, j, lcm, field=None, quots=None):
    """The S-vector c_i x^u_i g_i - c_j x^u_j g_j of the vectors g_i, g_j
    of ``module`` with keyed forms ``forms[i]``, ``forms[j]``
    (``ModuleVector.keyed``) and leads ``leads[i]``, ``leads[j]``, each
    c x^u taking a lead to the monic ``lcm``, as a working dict of
    ``_reduce``.  A dict of dicts ``quots`` gets the negated head in the
    format of ``_reduce``'s quotients: ``quots[i][u_i] = -c_i`` and
    ``quots[j][u_j] = c_j``.

    The two leads cancel, so the dict holds the two keyed tails, each
    shifted by the key of the lcm term minus the key of its lead (the key
    shift u) and scaled by the kept inverse of its lead coefficient.  Over
    a prime field the values are unreduced int sums, as ``_reduce`` takes
    them; over Q they are normalized ``Fraction``s, each product built in
    lowest terms as in the division step (``_add_tail_multiple``).  A term
    that cancels stays, as a zero.  A ``field`` replaces the ring's."""
    f = field or module.ring.field
    p = f.p
    top = term_key(module, leads[i][0], lcm)
    key_i, _, ci, tail_i, den_i = forms[i]
    key_j, _, cj, tail_j, den_j = forms[j]
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
    if quots is not None:
        quots[i][shift_i] = f.neg(ci)
        quots[j][shift_j] = cj
    return work


class _RowTable:
    """The transformation rows of one Buchberger run, each multiplied out on
    first use.

    Row k expresses a vector of the run in the ``width`` working generators,
    as that many polynomials.  Its recipe is a generator index j for the
    unit vector e_j, or (s, {earlier row i: {key shift u: c}}) for
    s * sum c x^u row i, the keys those of ``module``: an S-vector's
    remainder is s = -1 over its negated head and quotients
    (``_pair_loop``), an interreduced element s = -1/c over {idx: {0: -1}}
    and its quotients (``_reduce_basis``).  ``row`` multiplies a row out,
    after the rows it reads, and keeps each one; ``combine`` is the one
    place a quotient dict becomes polynomials.
    """

    __slots__ = ("module", "width", "recipes", "built")

    def __init__(self, module, width, recipes=()):
        self.module = module
        self.width = width
        self.recipes = list(recipes)  # per row: a generator index or (s, quots)
        self.built = [None] * len(self.recipes)  # per row: its polynomials

    def add(self, recipe):
        """Append a row with ``recipe``: a generator index j, or (s, {i: {u:
        c}}) over earlier rows i; returns the new row's index."""
        self.recipes.append(recipe)
        self.built.append(None)
        return len(self.built) - 1

    def combine(self, scale, quots):
        """The ``width`` polynomials of scale * sum c x^u row i over {i: {u:
        c}} ``quots``, every row i built; each key shift u is decoded."""
        ring, top = self.module.ring, self.module._key_top
        shift, mul = ring._shift, ring.field.mul
        low = (1 << shift) - 1
        return _combine_rows(ring, [
            ({(-(u >> top) << shift) | (u & low): mul(scale, c) for u, c in qd.items()},
             self.built[i])
            for i, qd in quots.items()
        ], self.width)

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
            recipe = recipes[top]
            if type(recipe) is int:  # the unit vector of generator j
                ring = self.module.ring
                unit = [ring.zero()] * self.width
                unit[recipe] = ring.one()
                built[top] = tuple(unit)
            else:
                missing = [i for i in recipe[1] if built[i] is None]
                if missing:
                    stack += missing
                    continue
                built[top] = tuple(self.combine(*recipe))
            stack.pop()
        return built[k]


class SubmoduleGB:
    """Generators of a submodule together with its reduced Groebner basis.

    Every basis keeps the row table of its run (``row_table``, a
    ``_RowTable``); row ``row_ids[k]`` of it expresses ``gb[k]`` as a
    combination of the working generators: the input generators, then over
    R/J the J-multiples e_i * g, g in J and i < rank, in that order.  A row
    is a recipe until something reads it: ``lift`` divides with the row ids
    as divisor indices and multiplies out only the rows its quotients
    reach, so a basis that is never lifted through (Im phi_1 of a complex)
    multiplies out none.  ``leads[k]`` is ``gb[k].lead()``, and
    ``reducers``, the (row id, ``gb[k].keyed()``) pairs, is the one divisor
    list of ``normal_form``, ``contains`` and ``lift``.
    The basis owns the Hilbert series of ambient/M: ``series()`` computes
    it from the leads on first call and keeps it (``_kept``), so every
    certificate that reads it shares one computation.
    """

    __slots__ = (
        "ambient", "generators", "gb", "row_table", "row_ids", "reducers",
        "leads", "__dict__",
    )

    def __init__(self, ambient, generators, gb, row_table, row_ids):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.gb = tuple(gb)
        self.row_table = row_table
        self.row_ids = tuple(row_ids)
        self.reducers = [(k, g.keyed()) for k, g in zip(self.row_ids, self.gb)]
        self.leads = tuple(g.lead() for g in self.gb)

    def series(self):
        """HS(ambient / M) (modulo J over R/J), from the leads; kept."""
        return _kept(
            self, "_series", lambda gb: _LeadsSeries(gb.ambient, gb.leads).series()
        )

    def _remainder(self, v, quots=None, lead_only=False):
        """``_reduce`` of the terms of v by the basis, v in the ambient."""
        module = v.module
        # the identity test first: the common case compares no twists
        if module is not self.ambient and module != self.ambient:
            raise DimensionMismatch("vector outside the ambient module")
        work = _terms(module, enumerate(v.coords))
        return _reduce(module, work, self.reducers, quots, lead_only)

    def normal_form(self, v):
        """The remainder of v on full division by the basis."""
        return ModuleVector(v.module, _decode(v.module, self._remainder(v).items()))

    def contains(self, v):
        """Whether v is in the submodule; the division stops at a nonzero lead."""
        return not self._remainder(v, lead_only=True)

    def lift(self, v):
        """A witness over the *input* generators, deterministic but not
        canonical (it depends on the pair loop's history); NotInModule if
        the vector is outside the submodule.  Only the rows of the basis
        elements with a nonzero quotient are multiplied out, with the rows
        they read, and they are kept for later lifts.  The recombination
        check adds c * g at position i for each J-multiple e_i * g."""
        quots = defaultdict(dict)  # row id -> {key shift: quotient}
        if self._remainder(v, quots):
            raise NotInModule("vector has nonzero normal form")
        ring, table = self.ambient.ring, self.row_table
        for k in quots:
            table.row(k)
        total = table.combine(ring.field.one, quots)
        n, rank = len(self.generators), self.ambient.rank
        combo = zip(total, self.generators)
        check = _combine_rows(
            ring, [(c.terms, g.coords) for c, g in combo if c.terms], rank
        )
        for k, c in enumerate(total[n:]):  # the J-multiples, g-major
            if c.terms:
                g, i = divmod(k, rank)
                check[i] = check[i] + c * ring.quotient[g]
        if check != list(v.coords):
            raise InternalError("witness recombination failed (internal)")
        return tuple(total[:n])

    def __repr__(self):
        gens = "; ".join(repr(g) for g in self.gb)
        return f"SubmoduleGB[{len(self.gb)} elements: {gens}]"


def buchberger(ambient, gens):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    Deterministic: pairs are processed by (twisted lcm degree, i, j); the
    reduced basis is sorted by decreasing lead term.  The basis keeps the
    row table of the run, in which every row is only its recipe until a
    lift multiplies it out (``_RowTable``).  It is ``_pair_loop`` without a
    floor, then ``_reduce_basis``; no vector is built but the reduced basis.
    """
    gens = tuple(gens)
    return _reduce_basis(ambient, gens, *_pair_loop(ambient, gens)[:3])


def cokernel_series(ambient, gens, floor, field=None):
    """HS(ambient / <gens>) (modulo J over R/J), given ``floor``, a series
    it is known to dominate degree by degree: ``_pair_loop`` with that
    floor, which stops as soon as the lead terms reach it.  No reduced
    basis is built.  A prime ``field`` reduces ``gens`` and J over Q mod p."""
    return _pair_loop(ambient, tuple(gens), floor, field)[3]


def _pair_loop(ambient, gens, floor=None, field=None):
    """Buchberger's pair loop over ``gens`` and the J-multiples e_i * g:
    the coprime and chain criteria, then each S-vector divided by the basis
    so far.  It holds only term dicts, leads and keyed forms: each
    generator and J-multiple is keyed once (``_terms``), and no vector or
    polynomial is built.  Returns (terms, forms, table, series), ``forms``
    the keyed forms of a Groebner basis, not reduced.  Without a floor
    ``terms`` are the basis's working dicts, each remainder reduced fully,
    and row k of ``table`` expresses basis element k (``_RowTable``): a
    generator's recipe is its index, a remainder's the quotient dict its
    S-vector's head starts and its division fills.  With a floor nothing is
    lifted through the result: ``terms`` and ``table`` are None, and no
    head or quotient is recorded.

    ``series`` is None without a floor.  With a floor F, a series that
    HS(ambient / in(M)) is known to dominate in every degree (M the span of
    ``gens``), the lead terms L of the basis so far give
    HS(ambient / L) >= HS(ambient / in(M)) >= F (Traverso, "Hilbert
    functions and the Buchberger algorithm", JSC 22 (1996)).  The
    numerator of S - F is kept, each new lead adding its change: once it is
    zero, HS(ambient / M) = F and the loop returns F, before it builds any
    pair if the generators' leads already give S == F.  The generators are
    homogeneous and pairs come out in increasing degree.  At the first pair
    of each degree d, S_d == F_d means L_d = in(M)_d, so every pair of
    degree d would reduce to zero and is marked done unprocessed; S_d < F_d
    contradicts the floor and raises InternalError.  Each nonzero remainder
    of degree d adds one monomial to L_d, so once S_d - F_d remainders are
    in, the rest of degree d is skipped too.  If the pairs run out first
    the basis is a Groebner basis and the series comes from its leads, so
    ``series`` is HS(ambient / M) either way.  Only the leads are read, so
    with a floor an S-vector is divided only until its lead is divisible by
    no basis lead (``_reduce`` with ``lead_only``), and its tail stays
    unreduced: that lead is still a new monomial of in(M), which is all the
    argument uses.  The series of L is kept one numerator per position
    (``_LeadsSeries``).  A floored run over Q may take a prime ``field``:
    the generators and J-multiples are then keyed mod p (``_modular_terms``
    in place of ``_terms``) and the arithmetic is mod p.
    """
    ring = ambient.ring
    for g in gens:
        if g.module != ambient:
            raise DimensionMismatch("generator outside the ambient module")
    if field is None:
        field, key = ring.field, partial(_terms, ambient)
    else:
        key = partial(_modular_terms, ambient, field, {1: 1})
    working = [key(enumerate(g.coords)) for g in gens]
    working += [key([(i, g)])  # the J-multiples
                for g in ring.quotient for i in range(ambient.rank)]

    floored = floor is not None
    terms = None if floored else []  # the working dicts of the basis
    table = None if floored else _RowTable(ambient, len(working))
    leads = []
    forms = []  # the keyed forms of the basis
    at = defaultdict(list)  # position -> the (index, lead monomial) there
    for j, work in enumerate(working):
        form = _keyed_work(field, work)
        if form is None:
            continue
        lead = (*_term_of_key(ambient, form[0]), form[1])
        at[lead[0]].append((len(leads), lead[1]))
        leads.append(lead)
        forms.append(form)
        if not floored:
            terms.append(work)
            table.add(j)
    reducers = list(enumerate(forms))  # as ``_reduce`` reads them

    if floored:
        lead_series = _LeadsSeries(ambient, leads)
        gap = dict(lead_series.series().sub(floor).numer)  # of S - F, kept
        if not gap:
            return terms, forms, table, floor

    rank_one = ambient.rank == 1
    guard, shift, lcm_of = ring._guard, ring._shift, ring.mono_lcm

    def pair(i, j):
        lcm = lcm_of(leads[i][1], leads[j][1])
        return ((lcm >> shift) + ambient.twists[leads[i][0]], i, j, lcm)

    # a min-heap of (degree, i, j, lcm); every pair is pushed once and the
    # keys (degree, i, j) are unique, so pairs come out in increasing key
    # order
    pairs = [
        pair(j, i)
        for same in at.values()
        for n, (i, _) in enumerate(same)
        for j, _ in same[:n]
    ]
    heapq.heapify(pairs)
    done = defaultdict(set)  # index -> the indices it has formed a pair with
    degree = None
    excess = 0  # S_d - F_d: the nonzero remainders degree d can still add

    while pairs:
        d, i, j, lcm = heapq.heappop(pairs)
        done[i].add(j)
        done[j].add(i)
        if floored:
            if d != degree:
                degree = d
                excess = _hilbert_value(gap, ring.weights, d)
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
        if any(not (lcm - m) & guard and k in done[i] and k in done[j]
               for k, m in at[li[0]]):
            continue  # the chain criterion (k is neither i nor j)
        quots = None if floored else defaultdict(dict)
        s = _s_vector(ambient, forms, leads, i, j, lcm, field, quots)
        rem = _reduce(ambient, s, reducers, quots, lead_only=floored, field=field)
        if not rem:
            continue
        excess -= 1
        new_index = len(leads)
        # the remainder's first term came out largest: its lead
        (key, c), *tail = rem.items()
        lead = (*_term_of_key(ambient, key), c)
        form = _keyed_form(field, key, c, tail)
        leads.append(lead)
        forms.append(form)
        reducers.append((new_index, form))
        if floored:
            _add_into(gap, lead_series.add(lead))
            if not gap:
                return terms, forms, table, floor
        else:
            table.add((field.neg(field.one), quots))
            terms.append(rem)
        same = at[lead[0]]
        for k, _ in same:
            heapq.heappush(pairs, pair(k, new_index))
        same.append((new_index, lead[1]))

    series = lead_series.series() if floored else None
    return terms, forms, table, series


def _reduce_basis(ambient, gens, terms, forms, table):
    """Interreduce the basis of a full ``_pair_loop`` run, given by its
    working dicts ``terms`` (consumed) and keyed forms ``forms``, into the
    reduced basis.  The minimal leads are kept smallest first, so the
    reduced basis, largest lead first, is that list reversed.  Each reduced
    element inv * (g_idx - sum q x^u g_k) gets the row -inv * (-row idx +
    sum q x^u row k) in the run's table, not multiplied out: the quotient
    dict of its division with {idx: {0: -1}}.  It is made monic on its
    keys and decoded once, its lead and keyed form set, so no reduced
    element is keyed again.  The basis keeps the table."""
    f = ambient.ring.field
    mask = ambient._divides_mask
    keys = [form[0] for form in forms]
    # smallest lead first; reverse=True keeps equal leads in basis order
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    kept = []
    for idx in order:
        # a lead that a kept lead divides (see ``_reduce``) is redundant
        if all((keys[idx] - keys[k]) & mask for k in kept):
            kept.append(idx)

    # no kept lead divides another, so each remainder keeps its lead and is
    # never zero
    final, final_rows = [], []
    for idx in kept:
        quots = defaultdict(dict)
        quots[idx][0] = f.neg(f.one)
        rem = _reduce(ambient, terms[idx],
                      [(k, forms[k]) for k in kept if k != idx], quots)
        (key, c), *tail = rem.items()  # the lead came out first
        inv = f.invert(c)
        tail = [(k, f.mul(inv, a)) for k, a in tail]
        monic = ModuleVector(ambient, _decode(ambient, [(key, f.one), *tail]))
        monic._lead = (*_term_of_key(ambient, key), f.one)
        monic._keyed = _keyed_form(f, key, f.one, tail)
        final.append(monic)
        final_rows.append(table.add((f.neg(inv), quots)))
    return SubmoduleGB(ambient, gens, final[::-1], table, final_rows[::-1])


# -- public operations -------------------------------------------------------


def normal_form(v, gb):
    """Remainder of v on division by the reduced basis; v minus the result
    lies in the submodule."""
    return gb.normal_form(v)


def lift_witness(v, gens, ambient=None, gb=None):
    """Coefficients c with v = sum c_i gens_i, read off the reduced basis's
    rows (deterministic, not canonical: ``SubmoduleGB.lift``); raises
    NotInModule when v is outside the span."""
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
    The basis is its own generator list, row k the unit row of generator
    k.  A generator that is not homogeneous raises ValidationError.
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
    rows = range(len(kept))
    return SubmoduleGB(lower, kept, kept, _RowTable(lower, len(kept), rows), rows)


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

    numer: dict  # {degree: c}, no zero c
    weights: tuple

    @staticmethod
    def from_dict(coeffs, weights):
        return HilbertSeries({d: c for d, c in coeffs.items() if c}, tuple(weights))

    def twisted(self, shifts):
        """The sum of t^k times the series over k in ``shifts``: the series
        of a free module with those twists, when this one is HS(R)."""
        out = {}
        for k in shifts:
            for d, c in self.numer.items():
                out[d + k] = out.get(d + k, 0) + c
        return HilbertSeries.from_dict(out, self.weights)

    def sub(self, other):
        if self.weights != other.weights:
            raise DimensionMismatch("series over different denominators")
        out = dict(self.numer)
        for d, c in other.numer.items():
            out[d] = out.get(d, 0) - c
        return HilbertSeries.from_dict(out, self.weights)

    def as_polynomial(self):
        """Coefficient dict if the series is a (Laurent) polynomial, else None."""
        cur = dict(self.numer)
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


def _hilbert_value(numer, weights, d):
    """The coefficient of t^d in ``numer`` ({degree: c}) over prod
    (1 - t^w): the sum over its terms c t^k of c times the number of
    monomials of degree d - k."""
    top = d - min(numer)
    counts = [1] + [0] * top  # counts[e]: the monomials of degree e
    for w in weights:
        for e in range(w, top + 1):
            counts[e] += counts[e - w]
    return sum(c * counts[d - k] for k, c in numer.items() if k <= d)


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


def _monomial_quotient_numerator(ring, gens):
    """Numerator of the Hilbert series of R/(gens) over prod (1 - t^w),
    for packed monomials ``gens``: the minimal generators adjoined one at a
    time, smallest first (``_adjoin_numerator``).  A divisor has a smaller
    degree, the top field, so it sorts first."""
    divides = ring.mono_divides
    minimal = []
    for g in sorted(set(gens)):
        if not any(divides(h, g) for h in minimal):
            minimal.append(g)
    if minimal and not minimal[0]:  # the monomial 1 packs to 0 and sorts first
        return {}
    numer, support = {0: 1}, 0
    for k, g in enumerate(minimal):
        _add_into(numer, _adjoin_numerator(ring, numer, minimal[:k], support, g))
        support |= ring.mono_support(g)
    return numer


def _adjoin_numerator(ring, base, gens, support, pivot):
    """What adjoining ``pivot`` adds to ``base``, the numerator of
    R/(gens), given ``support``, the union of the gens' ``mono_support``s:
    0 -> R/(gens : pivot)(-deg pivot) -> R/(gens) -> R/(gens, pivot) -> 0
    is exact, and gens : pivot is spanned by the ``mono_colon``s, or is
    gens, with numerator ``base``, for a pivot coprime to them all."""
    if ring.mono_support(pivot) & support:
        colon = ring.mono_colon
        tail = _monomial_quotient_numerator(ring, [colon(g, pivot) for g in gens])
    else:
        tail = base
    d = ring.mono_degree(pivot)
    return {deg + d: -c for deg, c in tail.items()}


def _add_into(numer, delta):
    """Add the numerator ``delta`` into ``numer``, in place, without zeros."""
    for deg, c in delta.items():
        c += numer.pop(deg, 0)
        if c:
            numer[deg] = c


@dataclass(frozen=True)
class HilbertData:
    series: HilbertSeries
    dimension: object  # int when finite, None when infinite


class _LeadsSeries:
    """HS(ambient / L) for a growing monomial submodule L, spanned by
    ``leads`` ((position, monomial, coefficient) triples, as
    ``ModuleVector.lead`` gives them), kept as one numerator and one union
    of supports per position: ``add`` updates only the position of the new
    lead, by one ``_adjoin_numerator``."""

    __slots__ = ("ambient", "monos", "supports", "numerators")

    def __init__(self, ambient, leads):
        ring = ambient.ring
        self.ambient = ambient
        self.monos = [[] for _ in range(ambient.rank)]
        self.supports = [0] * ambient.rank
        for pos, m, _ in leads:
            self.monos[pos].append(m)
            self.supports[pos] |= ring.mono_support(m)
        self.numerators = [
            _monomial_quotient_numerator(ring, ms) for ms in self.monos
        ]

    def add(self, lead):
        """Adjoin the lead (position, monomial, coefficient) to L; returns
        the change of the numerator of HS(ambient / L), {degree: c}."""
        pos, m, _ = lead
        ring = self.ambient.ring
        numer = self.numerators[pos]
        delta = _adjoin_numerator(ring, numer, self.monos[pos], self.supports[pos], m)
        _add_into(numer, delta)
        self.monos[pos].append(m)
        self.supports[pos] |= ring.mono_support(m)
        return {d + self.ambient.twists[pos]: c for d, c in delta.items()}

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
    has no quotient), built once per ring and kept on it (``_kept``)."""
    return _kept(ring, "_quotient_gb", lambda ring: ideal_gb(ring, ()))


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
