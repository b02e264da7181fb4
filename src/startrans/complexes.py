"""Graded free complexes: Koszul construction, validation, exactness
certification by Hilbert series, and the descent that builds the chain map
F_n (x) K(Q) -> F level by level, whose first lift decomposes the top map
over the parameter ideal.

Index subsets of {1..n} are kept as sorted 1-indexed tuples throughout; the
boundary of a Koszul basis element e_S is
``sum over i in S of (-1)^(number of j in S below i) * x_i * e_(S minus i)``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
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
from .poly import PolyMatrix, _kept

# The prime of the modular acyclicity certificate over Q (``_hilbert_certificate``)
MODULAR_PRIME = 2**30 - 35
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


@dataclass(frozen=True)
class SopData:
    """A homogeneous system of parameters; ``validate_sop`` validates it.

    ``ideal_gb()`` builds the basis of the parameter ideal on first use and
    keeps it (``_kept``).  ``colength`` and ``is_regular()`` are derived
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

    def image_gb(self):
        """Reduced Groebner basis of M = Im phi_1 inside F_0.

        Built on first use and kept (``_kept``), like ``SopData.ideal_gb``.
        The certificates read only Hilbert series, which the acyclicity
        certificate keeps (``AcyclicityCertificate``), so the basis is built
        only where something reads its elements: the colon and saturation
        commands and a membership test of the colon certificate that no
        witness settled.  It is read through its leads, membership and
        normal forms, never lifted through, so none of its rows is
        multiplied out.
        """
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
    like ``image_gb()``, so a complex is checked and certified once
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

    Over Q on a lucky ring (``_modular``), it first runs on the complex's
    own columns with the arithmetic in GF(P), P = ``MODULAR_PRIME``
    (``cokernel_series``).  For A = Z_(P)[x]/(J meet Z_(P)[x]), luck means
    F_P[x]/Jbar = A/PA, so a complex with no P in a denominator lies over
    A, and mod P it is that complex tensored with A/PA.  Each A_d is free
    over Z_(P), and a complex of finite free Z_(P)-modules that is exact
    mod P above position 0 is split exact with a free H_0 (Nakayama;
    Eisenbud, *Commutative Algebra*, ch. 20), degree by degree.  So a mod-P
    certificate that holds proves the complex acyclic over Q, with every
    series as mod P (Arnold, JSC 35 (2003), on lucky primes).  A mod-P
    failure proves nothing, and a denominator P divides stops the run: then
    it runs over Q, so a failure, its position and its degree are Q's.
    """
    if _kept(comp.ring, "_modular", _modular):
        with suppress(ZeroDivisionError):  # P divides a denominator
            cert = _series_certificate(comp, _MODULAR_FIELD)
            if cert.ok:
                return cert
    return _series_certificate(comp)


def _modular(ring):
    """Whether ``ring`` is lucky: over Q, Jbar, J's generators reduced mod
    P, keep HS(R/J).  F_P[x]/Jbar maps onto A/PA (``_hilbert_certificate``),
    of series HS(R/J), so that is a floor, reached iff the map is an
    isomorphism.  J = (xy, P x^2 + y^2) is unlucky: (xy, y^2) has a larger
    series.  ``_hilbert_certificate`` decides it once per ring and keeps it
    on the ring (``_kept``)."""
    series = ring_series(ring)
    try:
        return ring.field.p is None and series == cokernel_series(
            GradedFreeModule(ring, 1, (0,)), (), series, _MODULAR_FIELD
        )
    except ZeroDivisionError:  # P divides a denominator of J's generators
        return False


def _series_certificate(comp, field=None):
    """``_hilbert_certificate`` over the complex's own field, or with the
    arithmetic in the prime ``field`` (``cokernel_series``)."""
    n = comp.length
    base = ring_series(comp.ring)
    free = [base.twisted(m.twists) for m in comp.modules]
    # coker[p - 1] is HS(coker phi_p), and floors[p - 1] its floor
    coker, floors = [None] * n + [free[n]], [None] * n
    for p in range(n, 0, -1):
        floor = floors[p - 1] = free[p - 1].sub(coker[p])
        gens = comp.image_gens(p)
        coker[p - 1] = cokernel_series(comp.module(p - 1), gens, floor, field)
    for p in range(1, n + 1):
        if coker[p - 1] != floors[p - 1]:
            diff = floors[p - 1].sub(coker[p - 1])
            return AcyclicityCertificate(
                False, p,
                f"kernel at position {p} exceeds the image of the next map "
                f"in degree {min(diff.numer)}",
                coker[0],
            )
    return AcyclicityCertificate(True, series=coker[0])


def koszul(sop):
    """The Koszul complex K(Q) of a validated sop: ``tensor_complex`` of the
    rank-one module R, without its labels."""
    if not isinstance(sop, SopData):
        raise PreconditionFailed("koszul requires a validated sop")
    k = tensor_complex(GradedFreeModule(sop.ring, 1, (0,)), sop)
    return FreeComplex(k.ring, k.modules, k.maps)


def tensor_complex(free_mod, sop, shift=0):
    """free_mod (x) K(Q), its twists lowered by ``shift``, as a labelled
    complex.

    Position p has the basis v_lam (x) e_S over lam and the p-subsets S,
    lam-major with S in lex order, labelled ``("bracket", lam, S)`` and
    twisted by deg v_lam + deg e_S - shift.  The boundary is free_mod (x)
    the Koszul boundary (module docstring), so it does not depend on the
    shift.
    """
    ring = free_mod.ring
    f = ring.field
    bases = [
        [(lam, s) for lam in range(free_mod.rank) for s in subsets(sop.n, p)]
        for p in range(sop.n + 1)
    ]
    modules = tuple(
        GradedFreeModule(ring, len(basis), tuple(
            free_mod.twists[lam] + sum(sop.degrees[i - 1] for i in s) - shift
            for lam, s in basis
        ))
        for basis in bases
    )
    zero = ring.zero()  # polynomials are immutable, so one zero fills the rest
    maps = []
    for p in range(1, sop.n + 1):
        row_of = {b: k for k, b in enumerate(bases[p - 1])}
        entries = [[zero] * len(bases[p]) for _ in bases[p - 1]]
        for j, (lam, s) in enumerate(bases[p]):
            for i in s:
                # S minus i differs for each i in S, so each entry is set once
                row = row_of[lam, tuple(k for k in s if k != i)]
                entries[row][j] = sop.gens[i - 1].scale(
                    sign_scalar(f, count_below(i, s))
                )
        maps.append(PolyMatrix(ring, entries, len(bases[p - 1]), len(bases[p])))
    labels = tuple(tuple(("bracket",) + b for b in basis) for basis in bases)
    return FreeComplex(ring, modules, tuple(maps), labels)


def descend(comp, sop, elements, p, gb):
    """Add level p - 1 of the chain map F_n (x) K(Q) -> F to ``elements``
    (``elements[(lam, S)]`` is the image of v_lam (x) e_S in F_|S|), lifting
    through ``gb``, a basis of Im d_(n-p+1) in K_(n-p).

    The square's boundary F_(p-1) (x) d_(n-p+1) is one copy of d_(n-p+1)
    per basis vector of F_(p-1), so each nonzero block of the goal is lifted
    on its own.  The witnesses are those of a basis of the whole tensor
    module: no S-pair or division step crosses blocks, and a block's twists
    are K's plus a constant, so the term order, the pair order and every
    criterion restricted to a block are K's (over R/J the quotient multiples
    are adjoined per position).  ``lift`` checks each witness recombines to
    its goal, so the square commutes; a goal with no lift raises
    NotInModule.
    """
    n = sop.n
    ring = comp.ring
    f = ring.field
    prev = comp.module(p - 1)
    ambient = gb.ambient
    phi = comp.phi(p)
    blk_index = {s: k for k, s in enumerate(subsets(n, n - p))}
    src_index = {s: k for k, s in enumerate(subsets(n, n - p + 1))}
    no_witness = (ring.zero(),) * len(src_index)
    for lam in range(comp.top_rank()):
        blocks = [[ring.zero()] * ambient.rank for _ in range(prev.rank)]
        for s in subsets(n, p):
            sgn = sign_scalar(f, p * (p + 1) // 2 + offset_sum(s))
            image = phi.apply(elements[(lam, s)].coords)
            blk = blk_index[complement(s, n)]
            for u in range(prev.rank):
                if image[u].terms:
                    blocks[u][blk] = blocks[u][blk] + image[u].scale(sgn)
        witnesses = []
        for block in blocks:
            goal = ambient.vector(block).scale(sign_scalar(f, p))
            witnesses.append(no_witness if goal.is_zero() else gb.lift(goal))
        for sub in subsets(n, p - 1):
            a_idx = src_index[complement(sub, n)]
            coords = tuple(w[a_idx] for w in witnesses)
            sgn = sign_scalar(f, (p - 1) * p // 2 + offset_sum(sub))
            elements[(lam, sub)] = prev.vector(coords).scale(sgn)


def chain_map_top(comp, sop):
    """The top two levels of the chain map, as ``descend`` reads them.

    Level n is (-1)^n times the identity.  Level n - 1 is its ``descend``
    through the kept basis of Q = Im d_1 (``SopData.ideal_gb``): the signed
    decomposition of the top map over the parameters, each entry divided
    through that basis and its witness pushed back to the parameters.  That
    lift is the Q-containment test, so an entry outside Q raises
    PreconditionFailed, and so does a length other than the parameter
    count.
    """
    n = comp.length
    if n != sop.n:
        raise PreconditionFailed(
            "complex length must equal the number of parameters"
        )
    top = comp.module(n)
    full = tuple(range(1, n + 1))
    sign = sign_scalar(comp.ring.field, n)
    elements = {
        (lam, full): top.basis_vector(lam).scale(sign) for lam in range(top.rank)
    }
    try:
        descend(comp, sop, elements, n, sop.ideal_gb())
    except NotInModule as exc:
        raise PreconditionFailed(
            "Im phi_n is not contained in Q*F_(n-1); decomposition impossible"
        ) from exc
    return elements


def decompose_images(comp, sop):
    """Vectors v[(lam, i)] with phi_n(v_lam) = sum_i q_i * v[(lam, i)]: level
    n - 1 of ``chain_map_top`` without its signs (-1)^(n+i-1).

    Returns a tuple (per lambda) of tuples, one vector per parameter.  An
    entry of the top map outside Q, or a length other than the parameter
    count, raises PreconditionFailed.
    """
    elements = chain_map_top(comp, sop)
    n = comp.length
    f = comp.ring.field
    return tuple(
        tuple(
            elements[lam, co_singleton(i, n)].scale(sign_scalar(f, n + i - 1))
            for i in range(1, n + 1)
        )
        for lam in range(comp.top_rank())
    )


def check_qf_containment(comp, sop):
    """True iff the complex's length is the parameter count and every entry
    of the top map lies in the parameter ideal: the verdict of
    ``chain_map_top``, whose first lift is the one containment test."""
    try:
        chain_map_top(comp, sop)
    except PreconditionFailed:
        return False
    return True
