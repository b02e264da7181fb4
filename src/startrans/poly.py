"""Sparse exact multivariate polynomials over a weighted-graded ring.

A polynomial is an immutable wrapper around a ``{monomial: coefficient}``
dict with no zero coefficients.  The ring fixes the coefficient field, the
variable names and their (positive integer) weights.  There is one monomial
order, graded reverse lexicographic (graded by weighted degree, declared
variable order); ``PolyRing.mono_key`` is its one definition.

Each monomial is one int (Monagan and Pearce, "Sparse polynomial division
using a heap", JSC 46 (2011)): the weighted degree in the top field, then
the exponents of x_n .. x_1, each field ``FIELD_BITS`` wide, its top bit a
guard kept clear.  Multiplying monomials adds their ints, dividing
subtracts them, and b is divisible by a iff b - a sets no guard bit (a
field that goes negative borrows through its guard).  Every exponent is at
most the degree, so a degree below 2^(FIELD_BITS - 1) keeps every field in
range: each product checks the sum of the two largest degrees once, and a
monomial that does not fit raises ``MonomialOverflow``, never carries into
the next field.  ``PolyRing.pack`` converts from exponent tuples, and
``monomial``, ``from_terms`` and the parser take tuples; only ``mono_lcm``
and the printer read the fields back (``PolyRing._fields``).

Every product is one kernel, ``_sum_of_products``: ``*``, ``PolyMatrix``'s
``@`` and ``apply``, and the row recombination of ``modules`` all add their
term products into one accumulator per output entry (``_add_product``) and
normalize it once (``_from_accumulator``).  ``+`` and ``-`` share one term
merge, and ``block_matrix`` is the one matrix assembler.
"""

from __future__ import annotations

import re
import sys
from array import array
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, IncompatibleField, MonomialOverflow, ParseError
from .fields import _fraction

FIELD_BITS = 16
MAX_DEGREE = 1 << (FIELD_BITS - 1)  # the first degree that does not fit
_FIELD_MASK = (1 << FIELD_BITS) - 1
_FIELD_FORMAT = "H"  # the array code of one field, unsigned FIELD_BITS bits


class PolyRing:
    """A weighted-graded polynomial ring over an exact field.

    ``quotient`` optionally carries the generators of a homogeneous ideal J;
    submodule computations then work modulo J by adjoining J-multiples of
    the basis vectors.  Rings compare equal on (field, names, weights) so
    that polynomials created before a quotient was attached stay usable.
    The basis of J is built once per ring and kept in ``_quotient_gb``
    (``modules.quotient_ideal_gb``); it owns the Hilbert series of R/J.
    ``_shift`` is the bit offset of the degree field, ``_limit`` the
    smallest packed monomial whose degree does not fit, ``_guard`` the
    guard bits of the exponent fields and ``_nbytes`` the byte length of a
    packed monomial.
    """

    __slots__ = (
        "field", "names", "weights", "quotient", "_index", "_quotient_gb",
        "_shift", "_limit", "_guard", "_nbytes",
    )

    def __init__(self, field, names, weights=None, quotient=()):
        names = tuple(names)
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise ValueError("one weight per variable required")
        if any(w < 1 for w in weights):
            raise ValueError("variable weights must be positive integers")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if any(w >= MAX_DEGREE for w in weights):
            raise MonomialOverflow(
                f"variable weights must be below 2^{FIELD_BITS - 1}"
            )
        self.field = field
        self.names = names
        self.weights = weights
        self.quotient = tuple(quotient)
        self._index = {n: i for i, n in enumerate(names)}
        self._shift = FIELD_BITS * len(names)
        self._limit = MAX_DEGREE << self._shift
        self._guard = sum(
            1 << (k + FIELD_BITS - 1) for k in range(0, self._shift, FIELD_BITS)
        )
        self._nbytes = (self._shift + FIELD_BITS) // 8

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.weights == other.weights
        )

    def __repr__(self):
        vars_ = ", ".join(self.names)
        return f"PolyRing({self.field.name}; {vars_}; weights={self.weights})"

    def with_quotient(self, gens):
        return PolyRing(self.field, self.names, self.weights, tuple(gens))

    # monomial helpers -------------------------------------------------

    def pack(self, exps):
        """The packed monomial x^exps; MonomialOverflow if its weighted
        degree reaches ``MAX_DEGREE``."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise DimensionMismatch(
                f"{len(exps)} exponents for {self.nvars} variables"
            )
        degree = sum(map(mul, self.weights, exps))
        if degree >= MAX_DEGREE:
            raise _overflow(degree)
        try:
            fields = array(_FIELD_FORMAT, exps + (degree,))
        except OverflowError:  # an unsigned field rejects a negative exponent
            raise ValueError("exponents must be nonnegative") from None
        return int.from_bytes(fields.tobytes(), sys.byteorder)

    def _fields(self, m):
        """The fields of m, x_1 first and the degree last, read through its
        bytes (the inverse of ``pack``)."""
        fields = array(_FIELD_FORMAT)
        fields.frombytes(m.to_bytes(self._nbytes, sys.byteorder))
        return fields

    def mono_degree(self, m):
        return m >> self._shift

    def mono_key(self, m):
        """Sort key realizing the ring order, (-degree, reversed exponents)
        as one int: the degree field complemented, x_n .. x_1 below it.  A
        larger monomial has a smaller key, so ascending sorts and min-heaps
        put the largest monomial first."""
        return m ^ (_FIELD_MASK << self._shift)

    def mono_mul(self, a, b):
        m = a + b
        if m >= self._limit:
            raise _overflow(m >> self._shift)
        return m

    def mono_divides(self, a, b):
        return not (b - a) & self._guard

    def mono_div(self, a, b):
        return a - b

    def mono_lcm(self, a, b):
        """The least common multiple, field by field: (a | guard) - b
        borrows within no field, and keeps a field's guard bit iff its
        exponent in a is at least the one in b."""
        guard = self._guard
        low = (1 << self._shift) - 1
        a, b = a & low, b & low
        a_wins = ((a | guard) - b) & guard
        a_wins -= a_wins >> (FIELD_BITS - 1)  # those fields' value bits
        m = (a & a_wins) | (b & ~a_wins)
        degree = sum(map(mul, self.weights, self._fields(m)))
        if degree >= MAX_DEGREE:
            raise _overflow(degree)
        return (degree << self._shift) | m

    # constructors ------------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {0: c})

    def var(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {self.pack(exps): self.field.one})

    def monomial(self, exps, coeff=None):
        coeff = self.field.one if coeff is None else coeff
        if self.field.is_zero(coeff):
            return self.zero()
        return Polynomial(self, {self.pack(exps): coeff})

    def from_terms(self, terms):
        """The polynomial sum of c * x^exps over (exponent tuple, c) pairs."""
        acc = {}
        f = self.field
        for exps, c in terms:
            m = self.pack(exps)
            c0 = f.add(acc.get(m, f.zero), c)
            if f.is_zero(c0):
                acc.pop(m, None)
            else:
                acc[m] = c0
        return Polynomial(self, acc)

    def parse(self, text):
        return parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps packed monomials to
    nonzero field scalars."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._merge(other, self.ring.field.add)

    def __sub__(self, other):
        return self._merge(other, self.ring.field.sub)

    def _merge(self, other, op):
        """The polynomial with coefficients op(own, other's) term by term,
        op the field's ``add`` or ``sub`` (a missing term reads as zero)."""
        _require_compatible(self.ring, other.ring)
        zero = self.ring.field.zero
        res = dict(self.terms)
        for m, c in other.terms.items():
            c0 = op(res.get(m, zero), c)
            if c0:
                res[m] = c0
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        _require_compatible(self.ring, other.ring)
        return _sum_of_products(self.ring, ((self.terms, other.terms),))

    def scale(self, c):
        """c times the polynomial.  Every sign of a boundary map comes
        through here, so a scalar of one returns the polynomial itself and
        minus one negates it without a product."""
        f = self.ring.field
        if not c:
            return self.ring.zero()
        p = f.p
        if p is not None:  # a product of two nonzero residues is nonzero
            if c == 1:
                return self
            if c == p - 1:
                return Polynomial(self.ring, {m: p - v for m, v in self.terms.items()})
            return Polynomial(self.ring, {m: c * v % p for m, v in self.terms.items()})
        if c._denominator == 1 and c._numerator in (1, -1):
            return self if c._numerator == 1 else -self
        return Polynomial(self.ring, {m: f.mul(c, v) for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def sorted_terms(self):
        """Terms in decreasing ring order."""
        return sorted(self.terms.items(), key=lambda t: self.ring.mono_key(t[0]))

    def constant_coeff(self):
        return self.terms.get(0, self.ring.field.zero)

    def homogeneous_degree(self):
        """Common weighted degree of all terms, or None when the polynomial
        is zero or not homogeneous."""
        shift = self.ring._shift
        degs = {m >> shift for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        return f"<{format_polynomial(self)}>"

    def __str__(self):
        return format_polynomial(self)


def _require_compatible(ring, other):
    if ring != other:
        raise IncompatibleField(f"operands over {ring!r} and {other!r}")


def _overflow(degree):
    return MonomialOverflow(
        f"a monomial of degree {degree} does not fit a packed field "
        f"(degrees must stay below 2^{FIELD_BITS - 1})"
    )


def _sum_of_products(ring, pairs):
    """The polynomial sum of t1 * t2 over the (term dict, term dict) pairs
    ``pairs`` of ``ring``: one ``_add_product`` accumulator for the whole
    sum, normalized once.  Every product in the package comes through here
    (``Polynomial.__mul__``, ``PolyMatrix.__matmul__`` and ``apply``,
    ``modules._combine_rows``)."""
    acc = {}
    for terms1, terms2 in pairs:
        if terms1 and terms2:
            _add_product(acc, terms1, terms2, ring)
    return _from_accumulator(ring, acc)


def _add_product(acc, terms1, terms2, ring):
    """Add the product of two nonempty term dicts of ``ring`` into the
    accumulator dict ``acc``, which only ``_from_accumulator`` reads, so a
    sum of products allocates no intermediate polynomial.  The product is
    taken on ints and normalized once per output term by
    ``_from_accumulator`` (delayed reduction, Monagan and Pearce, JSC 46
    (2011)); coefficients that cancel stay in place as zeros.

    Over a prime field (``field.p`` set) the accumulator holds plain int
    sums of c1 * c2, reduced modulo p once per output term.  Over Q each
    factor is written as int numerators over the lcm of its denominators,
    so the whole product has the one denominator d1 * d2 and its numerators
    are int sums; the accumulator holds (numerator, denominator) per output
    term, and a term that already has another denominator is brought to the
    lcm of the two, never their product.  The two largest monomials have
    the largest degrees, so if their product fits, every product does: one
    ``mono_mul`` checks the whole loop."""
    ring.mono_mul(max(terms1), max(terms2))
    field = ring.field
    get = acc.get
    if field.p is not None:
        for m1, c1 in terms1.items():
            for m2, c2 in terms2.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        return
    d1, nums1 = _over_common_denominator(terms1.items())
    d2, nums2 = _over_common_denominator(terms2.items())
    d = d1 * d2
    sums = {}
    sget = sums.get
    for m1, n1 in nums1:
        for m2, n2 in nums2:
            m = m1 + m2
            sums[m] = sget(m, 0) + n1 * n2
    for m, n in sums.items():
        old = get(m)
        if old is None:
            acc[m] = (n, d)
        elif old[1] == d:
            acc[m] = (old[0] + n, d)
        else:
            n0, d0 = old
            g = gcd(d0, d)
            acc[m] = (n0 * (d // g) + n * (d0 // g), d0 // g * d)


def _over_common_denominator(terms):
    """(D, [(m, n)]) for (m, c) pairs with rational c: D the lcm of the
    denominators, and each c = n / D."""
    den = lcm(*[c._denominator for _, c in terms])
    if den == 1:
        return 1, [(m, c._numerator) for m, c in terms]
    return den, [(m, c._numerator * (den // c._denominator)) for m, c in terms]


def _from_accumulator(ring, acc):
    """The polynomial of an ``_add_product`` accumulator, the zeros dropped:
    each coefficient reduced modulo p over a prime field, and over Q each
    (numerator, denominator) brought to lowest terms by one gcd."""
    p = ring.field.p
    if p is not None:
        return Polynomial(ring, {m: r for m, c in acc.items() if (r := c % p)})
    terms = {}
    for m, (n, d) in acc.items():
        if n:
            g = gcd(n, d)
            terms[m] = _fraction(n // g, d // g)
    return Polynomial(ring, terms)


# -- text syntax ---------------------------------------------------------
#
#   poly  :=  [sign] term { ('+'|'-') term }
#   term  :=  coeff [['*'] mono]  |  mono
#   coeff :=  INT [ '/' INT ]
#   mono  :=  NAME ['^' INT] { '*' NAME ['^' INT] }
#
# Whitespace is ignored everywhere.

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


def parse_polynomial(ring, text):
    """Parse the textual polynomial syntax into a Polynomial."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial")
    f = ring.field
    terms = []
    i = 0
    n = len(toks)

    def fail(msg):
        raise ParseError(f"{msg} in polynomial {text!r}")

    while i < n:
        sign = 1
        if toks[i] == ("op", "+"):
            i += 1
        elif toks[i] == ("op", "-"):
            sign = -1
            i += 1
        if i >= n:
            fail("dangling sign")
        coeff = None
        if toks[i][0] == "int":
            num = toks[i][1]
            i += 1
            den = 1
            if i < n and toks[i] == ("op", "/"):
                i += 1
                if i >= n or toks[i][0] != "int":
                    fail("bad fraction")
                den = toks[i][1]
                i += 1
            try:
                coeff = f.from_fraction(sign * num, den)
            except ZeroDivisionError:
                fail(f"denominator {den} is zero in the field")
            if i < n and toks[i] == ("op", "*"):
                i += 1
                if i >= n or toks[i][0] != "name":
                    fail("expected variable after '*'")
        elif toks[i][0] == "name":
            coeff = f.from_int(sign)
        else:
            fail(f"unexpected token {toks[i][1]!r}")
        exps = [0] * ring.nvars
        while i < n and toks[i][0] == "name":
            name = toks[i][1]
            if name not in ring._index:
                fail(f"unknown variable {name!r}")
            i += 1
            e = 1
            if i < n and toks[i] == ("op", "^"):
                i += 1
                if i >= n or toks[i][0] != "int":
                    fail("bad exponent")
                e = toks[i][1]
                i += 1
            exps[ring._index[name]] += e
            if i < n and toks[i] == ("op", "*"):
                nxt = toks[i + 1] if i + 1 < n else None
                if nxt is not None and nxt[0] == "name":
                    i += 1
                    continue
                fail("expected variable after '*'")
        terms.append((tuple(exps), coeff))
        if i < n and toks[i][0] == "op" and toks[i][1] in "+-":
            continue
        if i < n:
            fail(f"unexpected token {toks[i][1]!r}")
    try:
        return ring.from_terms(terms)
    except MonomialOverflow as exc:
        fail(str(exc))


def format_polynomial(p):
    """Canonical text form: terms in decreasing order, exactpoly syntax."""
    ring = p.ring
    f = ring.field
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for name, e in zip(ring.names, ring._fields(m)):  # stops before the degree
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        neg = c < 0  # prime-field residues are canonical, never negative
        mag = f.neg(c) if neg else c
        if not mono:
            body = f.to_str(mag)
        elif mag == f.one:
            body = mono
        else:
            body = f"{f.to_str(mag)}*{mono}"
        parts.append((neg, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# -- matrices ------------------------------------------------------------


class PolyMatrix:
    """Dense matrix of polynomials; rows index the target, columns the
    source (columns are images of source basis vectors)."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, entries, nrows=None, ncols=None):
        entries = tuple(tuple(row) for row in entries)
        if nrows is None:
            nrows = len(entries)
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        if len(entries) != nrows or any(len(row) != ncols for row in entries):
            raise DimensionMismatch(
                f"entries do not form a {nrows}x{ncols} matrix"
            )
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    def entry(self, i, j):
        return self.entries[i][j]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def scale(self, c):
        return PolyMatrix(
            self.ring,
            [[e.scale(c) for e in row] for row in self.entries],
            self.nrows,
            self.ncols,
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        _require_compatible(self.ring, other.ring)
        columns = [other.column(j) for j in range(other.ncols)]
        return PolyMatrix(
            self.ring,
            [[self._row_product(row, col) for col in columns] for row in self.entries],
            self.nrows,
            other.ncols,
        )

    def apply(self, coords):
        """Matrix-vector product; ``coords`` is a sequence of polynomials."""
        if len(coords) != self.ncols:
            raise DimensionMismatch("vector length does not match columns")
        for c in coords:
            _require_compatible(self.ring, c.ring)
        return tuple(self._row_product(row, coords) for row in self.entries)

    def _row_product(self, row, col):
        """sum_k row[k] * col[k] for two sequences of polynomials."""
        return _sum_of_products(
            self.ring, [(e.terms, c.terms) for e, c in zip(row, col)]
        )

    def check_homogeneous(self, target_degs, source_degs):
        """Verify entry (i, j) is zero or homogeneous of degree
        ``source_degs[j] - target_degs[i]``; returns the first offender as
        (i, j) or None."""
        if len(target_degs) != self.nrows or len(source_degs) != self.ncols:
            raise DimensionMismatch("degree vectors do not match matrix shape")
        for i in range(self.nrows):
            for j in range(self.ncols):
                e = self.entries[i][j]
                if e.is_zero():
                    continue
                if e.homogeneous_degree() != source_degs[j] - target_degs[i]:
                    return (i, j)
        return None

    def __repr__(self):
        rows = "; ".join(
            ", ".join(format_polynomial(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{self.nrows}x{self.ncols}]({rows})"


def block_matrix(ring, blocks, row_dims, col_dims):
    """Assemble a block matrix; ``blocks[i][j]`` is a PolyMatrix or None for
    a zero block, with shapes prescribed by row_dims x col_dims."""
    out_rows = []
    for bi, rdim in enumerate(row_dims):
        rows = [[] for _ in range(rdim)]
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is None:
                z = ring.zero()
                for r in rows:
                    r.extend([z] * cdim)
            else:
                if blk.nrows != rdim or blk.ncols != cdim:
                    raise DimensionMismatch(
                        f"block ({bi},{bj}) is {blk.nrows}x{blk.ncols}, "
                        f"expected {rdim}x{cdim}"
                    )
                for r, src in zip(rows, blk.entries):
                    r.extend(src)
        out_rows.extend(rows)
    total_cols = sum(col_dims)
    return PolyMatrix(ring, out_rows, sum(row_dims), total_cols)
