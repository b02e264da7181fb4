"""Graded free complexes: Koszul construction, validation, exactness
certification by Hilbert series, and the decomposition of the top map over
a parameter ideal.

Index subsets of {1..n} are kept as sorted 1-indexed tuples throughout; the
boundary of a Koszul basis element e_S is
``sum over i in S of (-1)^(number of j in S below i) * x_i * e_(S minus i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .errors import NotASop, NotInModule, PreconditionFailed, ValidationError
from .fields import PrimeField
from .modules import (
    GradedFreeModule,
    buchberger,
    cokernel_series,
    ideal_gb,
    reduce_mod_quotient,
    ring_series,
)
from .poly import Polynomial, PolyMatrix, PolyRing

# The prime of the modular acyclicity certificate over Q (``_hilbert_certificate``)
MODULAR_PRIME = 2**31 - 1
_MODULAR_FIELD = PrimeField(MODULAR_PRIME)


def subsets(n, p):
    """All p-element subsets of {1..n} as sorted tuples, in lex order."""
    return [tuple(c) for c in combinations(range(1, n + 1), p)]


def count_below(i, subset):
    """Number of indices in the subset strictly below i."""
    return sum(1 for j in subset if j < i)


def offset_sum(subset):
    """Sum of (i - 1) over the subset; 0 for the empty subset."""
    return sum(i - 1 for i in subset)


def complement(subset, n):
    inside = set(subset)
    return tuple(i for i in range(1, n + 1) if i not in inside)


def co_singleton(i, n):
    """The subset {1..n} minus {i}."""
    return tuple(j for j in range(1, n + 1) if j != i)


def sign_scalar(field_obj, exponent):
    return field_obj.one if exponent % 2 == 0 else field_obj.neg(field_obj.one)


def _kept(obj, key, compute):
    """``compute(obj)``, worked out on first use and kept on the frozen
    ``obj`` outside its dataclass fields (so equality is that of the
    fields alone).  What it keeps is a function of those fields, so every
    later call reads the kept value."""
    kept = obj.__dict__
    if key not in kept:
        object.__setattr__(obj, key, compute(obj))
    return kept[key]


@dataclass(frozen=True)
class SopData:
    """A homogeneous system of parameters; ``validate_sop`` validates it.

    ``ideal_gb()`` builds the basis of the parameter ideal on first use and
    keeps it outside the dataclass fields (so equality is that of the
    fields alone).  ``colength`` and ``is_regular()`` are derived
    from that basis's Hilbert series, and the ``is_regular()`` verdict is
    kept the same way.
    """

    ring: object
    gens: tuple
    degrees: tuple

    @property
    def n(self):
        return len(self.gens)

    @property
    def colength(self):
        """dim_k R/Q, or None when it is infinite."""
        return self.ideal_gb().series().dimension()

    def ideal_gb(self):
        return _kept(self, "_ideal_gb", lambda sop: ideal_gb(sop.ring, sop.gens))

    def is_regular(self):
        """True iff the parameters form a regular sequence on R.

        That holds iff HS(R/Q) = prod_i (1 - t^(d_i)) * HS(R) (Stanley,
        "Hilbert functions of graded algebras", 1978; Bruns & Herzog,
        ch. 4, via Serre's chi_1).  Over a polynomial ring it fails
        only when there are more parameters than variables; over R/J it is
        the Cohen-Macaulay property the transform relies on.  Decided on
        first use and kept (``_kept``).
        """

        def decide(sop):
            expected = ring_series(sop.ring)
            for d in sop.degrees:
                expected = expected.sub(expected.twisted((d,)))
            return sop.ideal_gb().series() == expected

        return _kept(self, "_regular", decide)


def validate_sop(ring, polys):
    """Check the given elements cut out a finite-colength ideal.

    Raises ValidationError on structurally bad input and NotASop (carrying
    the infinite Hilbert series) when the colength is infinite.  The
    returned ``SopData`` keeps the basis built here, and its ``colength``
    is read from that basis.
    """
    polys = tuple(polys)
    if len(polys) < 2:
        raise ValidationError("a system of parameters needs at least 2 elements")
    degrees = []
    for k, p in enumerate(polys):
        d = p.homogeneous_degree()
        if d is None or d <= 0:
            raise ValidationError(
                f"parameter {k + 1} must be homogeneous of positive degree"
            )
        degrees.append(d)
    sop = SopData(ring, polys, tuple(degrees))
    if sop.colength is None:
        raise NotASop(
            "parameters do not span a finite-colength ideal",
            series=sop.ideal_gb().series(),
        )
    return sop


@dataclass(frozen=True)
class FreeComplex:
    """Sequence F_0 .. F_n of graded free modules with boundary maps;
    ``maps[p-1]`` sends F_p to F_(p-1), columns being images of the source
    basis.  ``labels`` is None or names each basis element of an output
    complex by its provenance: ``("bracket", lam, S)`` for a tensor element
    v_lam (x) e_S, ``("angle", u)`` for a basis element of the input, and
    ``("star", mu, j)`` for a new top basis element."""

    ring: object
    modules: tuple
    maps: tuple
    labels: tuple = None

    @property
    def length(self):
        return len(self.modules) - 1

    def module(self, p):
        return self.modules[p]

    def phi(self, p):
        """The boundary map F_p -> F_(p-1), for 1 <= p <= length."""
        return self.maps[p - 1]

    def top_rank(self):
        return self.modules[-1].rank

    def image_gens(self, p):
        """The columns of phi_p as vectors of F_(p-1)."""
        target = self.modules[p - 1]
        m = self.phi(p)
        return [target.vector(m.column(j)) for j in range(m.ncols)]

    def image_gb(self, p):
        """Reduced Groebner basis of M = Im phi_1 inside F_0; ``p`` must be
        1.

        Built on first use and kept outside the dataclass fields, like
        ``SopData.ideal_gb``.  The certificates read only Hilbert series,
        which the acyclicity certificate keeps (``AcyclicityCertificate``),
        so the basis is built only where something reads its elements: the
        colon and saturation commands and a membership test of the colon
        certificate that no witness settled.  It is read
        through its leads, membership and normal forms, never lifted
        through, so none of its rows is multiplied out.
        """
        if p != 1:
            raise ValueError("only Im phi_1 has a kept basis")
        return _kept(self, "_m_gb", _image_gb)

    def effective_length(self):
        top = self.length
        while top > 0 and self.modules[top].rank == 0:
            top -= 1
        return top


def _image_gb(comp):
    return buchberger(comp.modules[0], comp.image_gens(1))


@dataclass(frozen=True)
class ComplexDefect:
    kind: str  # "shape" | "homogeneity" | "composition"
    position: int
    row: int = -1
    col: int = -1
    message: str = ""


def homogeneity_defect(comp):
    """First map of the wrong shape or non-homogeneous entry of any
    boundary map, or None; kept on the complex (``_kept``)."""
    return _kept(comp, "_homogeneity", _first_inhomogeneous_entry)


def _first_inhomogeneous_entry(comp):
    for p in range(1, comp.length + 1):
        m = comp.phi(p)
        src = comp.module(p)
        tgt = comp.module(p - 1)
        if m.nrows != tgt.rank or m.ncols != src.rank:
            return ComplexDefect(
                "shape", p, message=f"map {p} is {m.nrows}x{m.ncols}, expected "
                f"{tgt.rank}x{src.rank}"
            )
        bad = m.check_homogeneous(tgt.twists, src.twists)
        if bad is not None:
            return ComplexDefect(
                "homogeneity", p, bad[0], bad[1],
                f"entry ({bad[0]},{bad[1]}) of map {p} is not homogeneous of "
                "the degree forced by the twists",
            )
    return None


def composition_defect(comp):
    """First entry of a composite phi_(p-1) phi_p that is nonzero in the
    ring (modulo its quotient ideal, if any), or None; kept on the complex
    (``_kept``), so each composite is multiplied out once per complex."""
    return _kept(comp, "_composition", _first_nonzero_composite_entry)


def _first_nonzero_composite_entry(comp):
    for p in range(2, comp.length + 1):
        if comp.phi(p - 1).ncols != comp.phi(p).nrows:
            return ComplexDefect(
                "shape", p, message=f"maps {p - 1} and {p} do not compose"
            )
        prod = comp.phi(p - 1) @ comp.phi(p)
        for i in range(prod.nrows):
            for j in range(prod.ncols):
                if not reduce_mod_quotient(comp.ring, prod.entry(i, j)).is_zero():
                    return ComplexDefect(
                        "composition", p, i, j,
                        f"(phi_{p - 1} phi_{p}) has nonzero entry ({i},{j})",
                    )
    return None


def check_complex(comp):
    """Full structural check; None when the complex is well formed.  It
    reads the verdicts ``homogeneity_defect`` and ``composition_defect``
    keep on the complex, so parsing a file, certifying its complex and
    verifying it check each map once."""
    return homogeneity_defect(comp) or composition_defect(comp)


@dataclass(frozen=True)
class AcyclicityCertificate:
    """The verdict of ``certify_acyclic``; ``series`` is HS(F_0 / Im phi_1)
    (modulo J over R/J), exact whatever the verdict on a complex, None on
    anything else, and not compared."""

    ok: bool
    failed_position: int = -1
    detail: str = ""
    series: object = field(default=None, compare=False, repr=False)


def certify_acyclic(comp):
    """Certify Ker phi_p = Im phi_(p+1) for 1 <= p < n and phi_n injective.

    A ``check_complex`` defect fails it as ``not a complex``, with no
    series; otherwise it is ``_hilbert_certificate``'s.  The structural
    verdicts and the certificate are all kept on the complex (``_kept``),
    like ``image_gb(1)``, so a complex is checked and certified once
    however often it is asked, and after ``verify_star``'s own structural
    checks this adds only the Hilbert-series half.
    """
    return _kept(comp, "_acyclic", _structure_then_certificate)


def _structure_then_certificate(comp):
    defect = check_complex(comp)
    if defect is not None:
        return AcyclicityCertificate(
            False, defect.position, f"not a complex: {defect.message}"
        )
    return _hilbert_certificate(comp)


def _hilbert_certificate(comp):
    """Exactness of a complex whose compositions vanish.

    Im phi_(p+1) lies inside Ker phi_p, so the two are equal iff their
    Hilbert series agree, i.e. iff
    HS(F_(p-1)) - HS(coker phi_p) - HS(coker phi_(p+1)) is zero, with
    coker phi_(n+1) = F_n.  A free module's series is HS(R/J) shifted by
    its twists.  The cokernels are worked out from the top down: the same
    inclusion gives HS(Im phi_p) <= HS(coker phi_(p+1)) degree by degree,
    so HS(F_(p-1)) - HS(coker phi_(p+1)) is a floor under
    HS(coker phi_p), and ``cokernel_series`` stops the Buchberger run of
    Im phi_p as soon as its lead terms reach that floor, down to p = 1.
    Every series is exact either way, and no image gets a reduced basis;
    the certificate keeps HS(coker phi_1) = HS(F_0 / M) for the colon
    certificate.  All of it adjoins the quotient ideal, so the certificate
    holds over R/J as well as over R.  A failure names the first inexact
    position and the lowest degree where the two Hilbert functions differ.

    Over Q, the certificate is first run on the reduction modulo
    ``MODULAR_PRIME`` (``_modulo_prime``).  The entries lie in the local
    ring Z_(P), and a complex of finite free Z_(P)-modules that is exact
    mod P above position 0 is split exact there with a free H_0
    (Nakayama; Eisenbud, *Commutative Algebra*, ch. 20), degree by degree.
    So a mod-P certificate that holds proves the complex acyclic over Q,
    and every Q series equals the mod-P one (Arnold, "Modular algorithms
    for computing Groebner bases", JSC 35 (2003), on lucky primes).  A
    mod-P failure proves nothing, since the prime may be unlucky: the
    certificate is then run over Q, so a failure, its position and its
    degree always come from Q.
    """
    reduced = _modulo_prime(comp)
    if reduced is not None:
        cert = _series_certificate(reduced)
        if cert.ok:
            return cert
    return _series_certificate(comp)


def _series_certificate(comp):
    """``_hilbert_certificate`` over the complex's own field."""
    n = comp.length
    base = ring_series(comp.ring)
    free = [base.twisted(m.twists) for m in comp.modules]
    # coker[p - 1] is HS(coker phi_p)
    coker = [None] * n + [free[n]]
    for p in range(n, 0, -1):
        floor = free[p - 1].sub(coker[p])
        coker[p - 1] = cokernel_series(comp.module(p - 1), comp.image_gens(p), floor)
    for p in range(1, n + 1):
        diff = free[p - 1].sub(coker[p - 1]).sub(coker[p])
        if diff.numer:
            return AcyclicityCertificate(
                False, p,
                f"kernel at position {p} exceeds the image of the next map "
                f"in degree {diff.numer[0][0]}",
                coker[0],
            )
    return AcyclicityCertificate(True, series=coker[0])


def _modulo_prime(comp):
    """The complex with each coefficient a/b mapped to a/b mod
    ``MODULAR_PRIME``, without labels; None over a prime field, over a
    ring with a quotient ideal (whose series mod P need not be the one over
    Q), or when a denominator is divisible by P.  The packed monomials do
    not depend on the field, so they are kept.  Each distinct denominator
    is inverted once, and an integer coefficient needs no inverse."""
    ring = comp.ring
    if ring.field.p is not None or ring.quotient:
        return None
    reduced_ring = _modular_ring(ring.names, ring.weights)
    inverses = {1: 1}
    maps = []
    for m in comp.maps:
        rows = []
        for row in m.entries:
            out = []
            for e in row:
                terms = {}
                for mono, c in e.terms.items():
                    d = c._denominator
                    inverse = inverses.get(d)
                    if inverse is None:
                        if not d % MODULAR_PRIME:
                            return None
                        inverse = inverses[d] = pow(d, -1, MODULAR_PRIME)
                    c = c._numerator * inverse % MODULAR_PRIME
                    if c:
                        terms[mono] = c
                out.append(Polynomial(reduced_ring, terms))
            rows.append(out)
        maps.append(PolyMatrix(reduced_ring, rows, m.nrows, m.ncols))
    modules = tuple(
        GradedFreeModule(reduced_ring, m.rank, m.twists) for m in comp.modules
    )
    return FreeComplex(reduced_ring, modules, tuple(maps))


@cache
def _modular_ring(names, weights):
    """The ring over F_P with these variables, one per signature, so that
    its kept series (``ring_series``) is computed once."""
    return PolyRing(_MODULAR_FIELD, names, weights)


def koszul(sop):
    """The Koszul complex of a validated sop, without labels.

    Basis of position p is {e_S} over p-subsets in lex order; twists
    accumulate the generator degrees.  It is R (x) K, so the modules and
    maps are ``tensor_module`` and ``tensor_boundary`` of the rank-one
    module R.
    """
    if not isinstance(sop, SopData):
        raise PreconditionFailed("koszul requires a validated sop")
    unit = GradedFreeModule(sop.ring, 1, (0,))
    modules = tuple(tensor_module(unit, sop, p) for p in range(sop.n + 1))
    maps = tuple(tensor_boundary(unit, sop, p) for p in range(1, sop.n + 1))
    return FreeComplex(sop.ring, modules, maps)


def tensor_module(free_mod, sop, p, shift=0):
    """The module free_mod (x) K_p with basis (lambda, subset), lambda-major;
    twists are deg(v) + deg(e_S) - shift."""
    subs = subsets(sop.n, p)
    twists = []
    for lam in range(free_mod.rank):
        base = free_mod.twists[lam]
        for s in subs:
            twists.append(base + sum(sop.degrees[i - 1] for i in s) - shift)
    return GradedFreeModule(free_mod.ring, free_mod.rank * len(subs), tuple(twists))


def tensor_boundary(free_mod, sop, p, shift=0):
    """Matrix of (free_mod (x) boundary_p) from free_mod (x) K_p to
    free_mod (x) K_(p-1), in the lambda-major bases."""
    ring = free_mod.ring
    f = ring.field
    n = sop.n
    src = subsets(n, p)
    tgt = subsets(n, p - 1)
    tgt_index = {s: k for k, s in enumerate(tgt)}
    rows = free_mod.rank * len(tgt)
    cols = free_mod.rank * len(src)
    zero = ring.zero()  # polynomials are immutable, so one zero fills the rest
    entries = [[zero] * cols for _ in range(rows)]
    for lam in range(free_mod.rank):
        for j, s in enumerate(src):
            cj = lam * len(src) + j
            for i in s:
                # S minus i differs for each i in S, so each entry is set once
                sign = sign_scalar(f, count_below(i, s))
                ri = lam * len(tgt) + tgt_index[tuple(k for k in s if k != i)]
                entries[ri][cj] = sop.gens[i - 1].scale(sign)
    return PolyMatrix(ring, entries, rows, cols)


def decompose_images(comp, sop):
    """Vectors v[(lam, i)] with phi_n(v_lam) = sum_i x_i * v[(lam, i)].

    Canonical: every entry of the image column is divided through the
    reduced basis of the parameter ideal and the witness is pushed back to
    the given parameters.  Returns a tuple (per lambda) of tuples, one
    vector per parameter.  The lift is the Q-containment test: an entry
    outside Q raises PreconditionFailed.  The lift also checks that each witness recombines
    to its entry (modulo the quotient ideal, if any); coordinate by
    coordinate that is the recombination of the vectors, so it is not
    checked again here.
    """
    n = comp.length
    ring = comp.ring
    top_map = comp.phi(n)
    target = comp.module(n - 1)
    gb = sop.ideal_gb()
    ambient1 = gb.ambient
    out = []
    for lam in range(comp.module(n).rank):
        column = top_map.column(lam)
        parts = [[ring.zero() for _ in range(target.rank)] for _ in sop.gens]
        for ell, entry in enumerate(column):
            if entry.is_zero():
                continue
            try:
                witness = gb.lift(ambient1.vector((entry,)))
            except NotInModule as exc:
                raise PreconditionFailed(
                    "Im phi_n is not contained in Q*F_(n-1); "
                    "decomposition impossible"
                ) from exc
            for part, w in zip(parts, witness):
                part[ell] = w
        out.append(tuple(target.vector(tuple(part)) for part in parts))
    return tuple(out)


def check_qf_containment(comp, sop):
    """True iff every entry of the top map lies in the parameter ideal: the
    verdict of the one containment test, ``decompose_images`` lifting every
    entry through Q."""
    try:
        decompose_images(comp, sop)
    except PreconditionFailed:
        return False
    return True
