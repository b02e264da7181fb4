"""Construction of the output complex: the chain map from (top module (x)
Koszul complex) into the input complex, its mapping cone, the top split,
and the minimal top map.  The last step is one column elimination on the
split top map: a unit entry of a graded map is a nonzero constant and
splits off a trivial summand, so cancelling the unit entries of the angle
rows leaves the minimal map on the remaining rows and columns.

The chain map's source is one labelled complex, top (x) K(Q) with its
twists lowered by the total parameter degree (``ChainMap.source``); with
that shift every map built here is homogeneous of degree zero.  The cone,
the split, the selection and the star top read its modules, boundary and
bracket labels, and find a tensor basis vector by its label.

The chain map is one descent (``complexes.descend``) from the top level,
(-1)^n times the identity; its first lift is the decomposition of each
top-map entry over the parameters.  Each identity the construction rests
on is proved once, where it is computed: ``SubmoduleGB.lift`` checks the
recombination of every witness of that descent, so every square commutes.
Nothing here re-checks them; ``verify.verify_star`` certifies the output
independently of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    FreeComplex,
    certify_acyclic,
    chain_map_top,
    co_singleton,
    descend,
    koszul,
    sign_scalar,
    tensor_complex,
)
from .errors import InternalError, NotInModule, PreconditionFailed, ValidationError
from .modules import GradedFreeModule, buchberger, colon, submodule_equal
from .poly import PolyMatrix, block_matrix
from .verify import colon_quotient_count, verify_star


@dataclass(frozen=True)
class ChainMap:
    """Chain map alpha from ``source`` to the input complex.

    ``source`` is top (x) K(Q) with its twists lowered by the total
    parameter degree s (``complexes.tensor_complex``), so every level is
    homogeneous of degree zero; the cone, the split and the star top read
    its modules, boundary and labels.  ``elements[(lam, S)]`` is the image
    of v_lam (x) e_S in F_p (p = |S|), set by ``complexes.chain_map_top``
    and ``complexes.descend``; ``matrices[p]`` is that map on the basis of
    ``source.module(p)``, column by column in ``source.labels[p]``.
    """

    complex: FreeComplex
    sop: object
    source: FreeComplex
    matrices: tuple
    elements: dict

    @property
    def n(self):
        return self.complex.length

    @property
    def top_rank(self):
        return self.complex.top_rank()

    def level(self, p):
        return self.matrices[p]


def build_chain_map(comp, sop):
    """Construct the chain map by one descent: ``chain_map_top`` sets the
    top two levels and raises its PreconditionFailed, and ``descend`` adds
    each lower level through a basis of Im d_(n-p+1) in K_(n-p), read off
    ``koszul(sop)``.

    A lift below the top runs only when F_n != 0, and then K(q) is exact:
    every entry of phi_n lies in Q <= m, so no trivial summand sits at the
    top and pd(F_0/M) = n; Auslander-Buchsbaum (Bruns & Herzog, Thm 1.3.3)
    gives depth R >= n, and finite colength gives dim R <= n, so q is a
    regular sequence.  The same holds over R/J.  So a failed lift there is
    an ``InternalError``, never bad input.
    """
    n = comp.length
    ring = comp.ring
    elements = chain_map_top(comp, sop)
    kos = koszul(sop)
    for p in range(n - 1, 0, -1):
        gb = buchberger(kos.module(n - p), kos.image_gens(n - p + 1))
        try:
            descend(comp, sop, elements, p, gb)
        except NotInModule as exc:
            raise InternalError(
                f"level {p} descent has no lift through the Koszul boundary"
            ) from exc

    source = tensor_complex(comp.module(n), sop, sum(sop.degrees))
    matrices = []
    for p, labels in enumerate(source.labels):
        cols = [elements[lam, s].coords for _, lam, s in labels]
        rank = comp.module(p).rank
        entries = [[col[i] for col in cols] for i in range(rank)]
        matrices.append(PolyMatrix(ring, entries, rank, len(cols)))

    return ChainMap(comp, sop, source, tuple(matrices), elements)


def chain_map_image_checks(cm, m_gb):
    """Image-level facts about the degree-zero end of the chain map.

    Returns (name, passed, detail) triples: the span of the level-0 images
    together with M equals the colon module, every image of the first
    Koszul boundary lands in M, and the quotient dimension count matches.
    """
    comp, sop = cm.complex, cm.sop
    ambient = comp.module(0)
    results = []

    level0 = cm.level(0)
    image_gens = [
        ambient.vector(level0.column(j)) for j in range(level0.ncols)
    ]
    span = buchberger(ambient, image_gens + list(m_gb.gb))
    colon_gb = colon(m_gb, sop.gens)
    ok = submodule_equal(span, colon_gb)
    results.append(
        (
            "image_plus_M_equals_colon",
            ok,
            "image of level 0 plus M compared with (M : Q) by reduced bases",
        )
    )

    first_boundary = cm.source.phi(1)
    inside = True
    for j in range(first_boundary.ncols):
        img = ambient.vector(level0.apply(first_boundary.column(j)))
        if not m_gb.contains(img):
            inside = False
            break
    results.append(
        (
            "koszul_boundary_maps_into_M",
            inside,
            "level 0 maps every first-boundary image into M",
        )
    )

    passed, detail = colon_quotient_count(
        m_gb.series(), colon_gb.series(), sop, cm.top_rank
    )
    results.append(("colon_quotient_count", passed, detail))
    return results


def mapping_cone(cm):
    """The cone of the chain map: an acyclic complex of length n+1 whose
    degree-zero image is the colon module.  Position p is
    ``cm.source.module(p - 1)`` followed by F_p, with their labels."""
    comp, source = cm.complex, cm.source
    n = comp.length
    ring = comp.ring
    f = ring.field

    modules = [comp.module(0)]
    labels = [tuple(("angle", i) for i in range(comp.module(0).rank))]
    blocks = [[[cm.level(0), comp.phi(1)]]]  # per map, its blocks
    dims = [[comp.module(0).rank]]  # per module, the ranks of its blocks
    for p in range(1, n + 1):
        tm = source.module(p - 1)
        fm = comp.module(p)
        modules.append(
            GradedFreeModule(ring, tm.rank + fm.rank, tm.twists + fm.twists)
        )
        labels.append(
            source.labels[p - 1] + tuple(("angle", i) for i in range(fm.rank))
        )
        dims.append([tm.rank, fm.rank])
        tb = source.phi(p)
        sg = cm.level(p).scale(sign_scalar(f, p))
        blocks.append([[tb], [sg]] if p == n else [[tb, None], [sg, comp.phi(p + 1)]])
    modules.append(source.module(n))
    labels.append(source.labels[n])
    dims.append([source.module(n).rank])
    maps = [block_matrix(ring, b, dims[p], dims[p + 1]) for p, b in enumerate(blocks)]

    return FreeComplex(ring, tuple(modules), tuple(maps), tuple(labels))


def split_top(cone, cm):
    """Split the invertible top of the cone off, leaving a complex of
    length n whose top module is the (n-1)-st tensor block."""
    n = cm.n
    ring = cone.ring
    tensor_prev = cm.source.module(n - 1)

    psi_n = cone.maps[n - 1]
    restricted = PolyMatrix(
        ring,
        [row[: tensor_prev.rank] for row in psi_n.entries],
        psi_n.nrows,
        tensor_prev.rank,
    )
    modules = cone.modules[:n] + (tensor_prev,)
    labels = cone.labels[:n] + (cm.source.labels[n - 1],)
    maps = cone.maps[: n - 1] + (restricted,)
    return FreeComplex(ring, tuple(modules), tuple(maps), tuple(labels))


@dataclass(frozen=True)
class BasisSelection:
    """Result of the unit-entry elimination on the split complex's top map:
    the standard basis indices of the angle rows no pivot took, and the
    pairs whose columns took no pivot, with their reduced columns, which
    vanish on every pivot row.  The other pairs became pivots (their
    v_(lam,i) join the free basis of F_(n-1); ``StarComplex.selected_pairs``)."""

    retained_basis: tuple
    star_pairs: tuple
    columns: tuple


def _clear_row(column, row, pivot, inverse):
    """Subtract the multiple of ``pivot`` that zeroes ``column[row]``;
    ``inverse`` inverts the pivot's constant entry in that row."""
    entry = column[row]
    if entry.terms:
        factor = entry.scale(inverse)
        for k, p in enumerate(pivot):
            if p.terms:
                column[k] = column[k] - factor * p


def select_basis(split, cm):
    """One elimination pass over the split complex's top-map columns.

    The column of the pair (lam, i), whose angle rows hold
    (-1)^i v_(lam,i), is taken in (lam, i) order and reduced by the pivots
    found so far, in the order found.  A column that still has a constant
    in an angle row becomes the pivot of the first such row, and that row
    is cleared from the columns kept so far.  Each pivot splits off a
    trivial summand (a unit entry, constant because the map is graded);
    the kept columns vanish on every pivot row, so on the bracket and
    retained rows they are the minimal top map up to sign.
    """
    n = cm.n
    f = split.ring.field
    top_map = split.maps[n - 1]
    nb = cm.source.module(n - 2).rank
    position = {label: k for k, label in enumerate(cm.source.labels[n - 1])}
    pivots = []
    kept = {}
    for lam in range(cm.top_rank):
        for i in range(1, n + 1):
            column = list(top_map.column(position["bracket", lam, co_singleton(i, n)]))
            for pivot in pivots:
                _clear_row(column, *pivot)
            row = next(
                (
                    r
                    for r in range(nb, top_map.nrows)
                    if not f.is_zero(column[r].constant_coeff())
                ),
                None,
            )
            if row is None:
                kept[(lam, i)] = column
                continue
            pivot = (row, column, f.div(f.one, column[row].constant_coeff()))
            for other in kept.values():
                _clear_row(other, *pivot)
            pivots.append(pivot)
    pivot_rows = {row for row, _, _ in pivots}
    return BasisSelection(
        tuple(u for u in range(top_map.nrows - nb) if nb + u not in pivot_rows),
        tuple(kept),
        tuple(tuple(column) for column in kept.values()),
    )


def build_star_top(selection, split_complex, cm):
    """The output complex: the split complex below position n-1, the
    shrunken position n-1 and the new top module, with their labels.

    The new basis vector of a star pair (mu, j) is (-1)^j times its kept
    column's combination of tensor basis vectors, led by v_mu (x) e_C(j),
    where C(j) is the j-th co-singleton; so it has that vector's twist, and
    its image is the kept column times (-1)^j on the bracket and retained
    rows."""
    comp = cm.complex
    n = comp.length
    ring = comp.ring
    f = ring.field
    source = cm.source
    position = {label: k for k, label in enumerate(source.labels[n - 1])}
    bracket_prev = source.module(n - 2)
    nb = bracket_prev.rank
    u_list = selection.retained_basis
    keep = list(range(nb)) + [nb + u for u in u_list]

    columns = [
        [column[r].scale(sign_scalar(f, j)) for r in keep]
        for (_, j), column in zip(selection.star_pairs, selection.columns)
    ]
    top_module = GradedFreeModule(
        ring,
        len(columns),
        tuple(
            source.module(n - 1).twists[position["bracket", mu, co_singleton(j, n)]]
            for (mu, j) in selection.star_pairs
        ),
    )
    prev = comp.module(n - 1)
    prev_module = GradedFreeModule(
        ring, len(keep), bracket_prev.twists + tuple(prev.twists[u] for u in u_list)
    )
    top_map = PolyMatrix(
        ring,
        [[column[k] for column in columns] for k in range(len(keep))],
        len(keep),
        len(columns),
    )

    # position n-1: restrict the next map of the split complex to the
    # bracket columns plus the retained <u> columns
    lower = split_complex.maps[n - 2]
    prev_map = PolyMatrix(
        ring,
        [[row[c] for c in keep] for row in lower.entries],
        lower.nrows,
        len(keep),
    )

    prev_labels = source.labels[n - 2] + tuple(("angle", u) for u in u_list)
    top_labels = tuple(("star", mu, j) for (mu, j) in selection.star_pairs)
    return FreeComplex(
        ring,
        split_complex.modules[: n - 1] + (prev_module, top_module),
        split_complex.maps[: n - 2] + (prev_map, top_map),
        split_complex.labels[: n - 1] + (prev_labels, top_labels),
    )


@dataclass(frozen=True)
class StarComplex:
    """The output complex and the rank of the input's top module.

    The pairs are read from the labels of the top two positions: each
    ``star`` label (mu, j) names a new top basis vector, each ``angle``
    label at n-1 a retained standard basis vector of F_(n-1), and every
    other pair (lam, i), lam below the input's top rank, was selected into
    the free basis of F_(n-1).  A complex without labels is refused with
    ValidationError: it cannot be an output of ``star_transform``.

    ``witness`` is empty by default, as for an output read from a file,
    or, from ``star_transform``, the chain map's level-1
    elements W[(lam, i)] = alpha_1(v_lam (x) e_i) in F_1 of the input, for
    i = 1..n.  The chain map commutes, so phi_1 W[(lam, i)] = q_i g_lam for
    the output's bracket column g_lam = alpha_0(v_lam (x) 1): each W shows
    q_i g_lam in M.  It lives in memory only: it is not compared, hashed
    or written.  ``verify_star`` hands it as it is to the colon
    certificate, which re-checks every W it reads.
    """

    complex: FreeComplex
    input_top_rank: int
    witness: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.complex.labels is None:
            raise ValidationError(
                "complex has no labels; not an output of star_transform"
            )

    @property
    def labels(self):
        return self.complex.labels

    @property
    def star_pairs(self):
        top = self.labels[self.complex.length]
        return tuple((item[1], item[2]) for item in top if item[0] == "star")

    @property
    def retained_basis(self):
        prev = self.labels[self.complex.length - 1]
        return tuple(item[1] for item in prev if item[0] == "angle")

    @property
    def selected_pairs(self):
        n = self.complex.length
        star = set(self.star_pairs)
        return tuple(
            (lam, i)
            for lam in range(self.input_top_rank)
            for i in range(1, n + 1)
            if (lam, i) not in star
        )

    def top_rank(self):
        return self.complex.top_rank()


@dataclass
class StarResult:
    star: StarComplex
    input_complex: FreeComplex
    report: object = None


def star_transform(comp, sop, with_report=True):
    """Full pipeline from an acyclic complex to the complex resolving the
    colon module, with a minimal top map.

    Preconditions (PreconditionFailed otherwise): length at least two, the
    complex is well formed and acyclic, and ``chain_map_top``'s (length the
    parameter count, top image inside Q*F_(n-1)).  A rank-zero top module
    takes the same path, which returns the input with angle labels.
    """
    n = comp.length
    if n < 2:
        raise PreconditionFailed("need a complex of length at least 2")
    cert = certify_acyclic(comp)
    if not cert.ok:
        raise PreconditionFailed(
            f"input complex is not acyclic: {cert.detail}"
        )
    cm = build_chain_map(comp, sop)
    split = split_top(mapping_cone(cm), cm)
    out = build_star_top(select_basis(split, cm), split, cm)
    witness = {
        (lam, i): cm.elements[(lam, (i,))]
        for lam in range(comp.top_rank())
        for i in range(1, n + 1)
    }
    star = StarComplex(out, comp.top_rank(), witness)
    result = StarResult(star, comp)

    if with_report:
        result.report = verify_star(comp, sop, result.star)
    return result

