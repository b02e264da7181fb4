"""Reference checks of facts the build proves where it computes them, and
the small constructors that only the tests use.

``build_chain_map`` relies on the recombination checks of
``SubmoduleGB.lift`` and does not re-check its squares, and it takes the
decomposition of the top map as the first lift of its descent, which
``reference_decomposition`` redoes entry by entry; ``select_basis`` reaches
the minimal top map by one column elimination, which ``restricted_top_map``
redoes by residue pivots and lifts through a tracked Groebner basis; the acyclicity
certificate works top-down and stops each image's Buchberger run at its
Hilbert floor; the products over a prime field reduce modulo p once per
output term.  The helpers here recompute those facts the long way, so the
tests can compare.  The package takes syzygies, colons and intersections by
elimination in a stacked module; ``schreyer_syzygies`` and
``schreyer_intersect`` take them from the Schreyer relations of a reduced
basis instead, a route that shares only ``buchberger`` with it.
``star_transform`` keeps none of its intermediate
objects; ``stages`` rebuilds them from the stage functions.
"""

import random
from collections import defaultdict
from dataclasses import dataclass
from operator import add, le, mul

from startrans import (
    FreeComplex,
    GradedFreeModule,
    PolyMatrix,
    build_chain_map,
    buchberger,
    decompose_images,
    koszul,
    mapping_cone,
    select_basis,
    split_top,
    validate_sop,
)
from startrans.complexes import (
    AcyclicityCertificate,
    co_singleton,
    sign_scalar,
    subsets,
)
from startrans.errors import NotASop
from startrans.instances import standard_ring
from startrans.modules import (
    _combine_rows,
    _hilbert_value,
    _reduce,
    _s_vector,
    _terms,
    reduce_mod_quotient,
    ring_series,
)

# the checks every ``verify_star`` report starts with, in order
FIXED_CHECKS = (
    "composition_zero",
    "homogeneity",
    "acyclicity",
    "colon_equality",
    "top_minimality",
    "rank_accounting",
    "colon_quotient_count",
)


def unpack(ring, m):
    """The exponent tuple of the packed monomial m (the inverse of
    ``PolyRing.pack``)."""
    return tuple(ring._fields(m))[: ring.nvars]


def termwise_products(ring, pairs):
    """The sum of a * b over the (term dict a, term dict b) ``pairs``,
    product by product on exponent tuples with ``field.mul`` and
    ``field.add``, as {exponent tuple: coefficient} without zeros.  The
    package's products reduce modulo p once per output term over a prime
    field; this oracle reduces at every operation."""
    f = ring.field
    out = {}
    for a, b in pairs:
        for ma, ca in a.items():
            ea = unpack(ring, ma)
            for mb, cb in b.items():
                e = tuple(map(add, ea, unpack(ring, mb)))
                out[e] = f.add(out.get(e, f.zero), f.mul(ca, cb))
    return {e: c for e, c in out.items() if not f.is_zero(c)}


def zero_matrix(ring, nrows, ncols):
    return PolyMatrix(ring, [[ring.zero()] * ncols for _ in range(nrows)], nrows, ncols)


def identity_matrix(ring, n):
    z, o = ring.zero(), ring.one()
    return PolyMatrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)])


def is_zero_matrix(m):
    return all(e.is_zero() for row in m.entries for e in row)


def zero_vector(module):
    return module.vector((module.ring.zero(),) * module.rank)


def add_vectors(a, b):
    """a + b coordinate by coordinate: the package builds its sums of
    vectors without a vector addition."""
    return a.module.vector(tuple(x + y for x, y in zip(a.coords, b.coords)))


def all_match(driver):
    """Every round of a ``star_iteration_driver`` result matched."""
    return all(r.matches for r in driver.rounds)


def random_linear_form(rng, ring):
    """A nonzero linear form with integer coefficients in [-9, 9]."""
    n = len(ring.names)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n)]
        if any(coeffs):
            break
    return ring.from_terms(
        (tuple(int(i == k) for i in range(n)), ring.field.from_int(c))
        for k, c in enumerate(coeffs)
    )


def generic_koszul(field, n, param_degree, seed):
    """(complex, sop) of one seeded generic draw, made as the benchmark
    makes its own: each parameter q_i a product of ``param_degree`` random
    linear forms with integer coefficients in [-9, 9], and the complex
    Koszul(q_i * l_i) for a further random linear form l_i."""
    rng = random.Random(seed)
    ring = standard_ring(("x", "y", "z", "w")[:n], field=field)
    params = []
    for _ in range(n):
        q = ring.one()
        for _ in range(param_degree):
            q = q * random_linear_form(rng, ring)
        params.append(q)
    gens = [q * random_linear_form(rng, ring) for q in params]
    return koszul(validate_sop(ring, gens)), validate_sop(ring, params)


def generic_pfaffian(field, seed):
    """(complex, sop) of one seeded Pfaffian draw, a complex that is not a
    Koszul complex: the Buchsbaum-Eisenbud resolution (Amer. J. Math. 99
    (1977)) 0 -> R(-10) -> R(-6)^5 -> R(-4)^5 -> R of the 4x4 Pfaffians of
    a generic 5x5 skew matrix A over three variables, with
    a_ij = sum_t q_t l_ijt for random linear forms q_t and l_ijt
    (``random_linear_form``), parameters q_1, q_2, q_3.  phi_1 is the row
    of Pfaffians, the one omitting row i signed (-1)^i, phi_2 = A and
    phi_3 the transpose of phi_1; A's entries lie in Q, so Im phi_3 lies in
    Q^2 F_2."""
    rng = random.Random(seed)
    ring = standard_ring(("x", "y", "z"), field=field)
    params = [random_linear_form(rng, ring) for _ in range(3)]
    a = [[ring.zero()] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            for q in params:
                a[i][j] = a[i][j] + q * random_linear_form(rng, ring)
            a[j][i] = -a[i][j]

    def pfaffian(b, c, d, e):
        return a[b][c] * a[d][e] - a[b][d] * a[c][e] + a[b][e] * a[c][d]

    sign = [ring.field.one, ring.field.neg(ring.field.one)]
    row = [
        pfaffian(*(k for k in range(5) if k != i)).scale(sign[i % 2])
        for i in range(5)
    ]
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 5, (4,) * 5),
        GradedFreeModule(ring, 5, (6,) * 5),
        GradedFreeModule(ring, 1, (10,)),
    )
    maps = (
        PolyMatrix(ring, [row], 1, 5),
        PolyMatrix(ring, a, 5, 5),
        PolyMatrix(ring, [[e] for e in row], 5, 1),
    )
    return FreeComplex(ring, modules, maps), validate_sop(ring, params)


def hilbert_burch(field, t, seed):
    """(complex, sop) of one seeded Hilbert-Burch draw: the resolution
    0 -> R(-2t-2)^t -> R(-2t)^(t+1) -> R of the maximal minors of a generic
    (t+1) x t matrix A over k[x, y] (Hilbert-Burch theorem; Eisenbud, *The
    Geometry of Syzygies*, ch. 3), ranks [1, t+1, t], with
    a_ij = q_1 l_ij1 + q_2 l_ij2 for random linear forms q_s and l_ijs
    (``random_linear_form``) and parameters q_1, q_2.  phi_1 is the row of
    minors, the one omitting row i signed (-1)^i, and phi_2 = A, whose
    entries lie in Q, so Im phi_2 lies in Q F_1."""
    rng = random.Random(seed)
    ring = standard_ring(("x", "y"), field=field)
    params = [random_linear_form(rng, ring) for _ in range(2)]
    q1, q2 = params
    a = [
        [q1 * random_linear_form(rng, ring) + q2 * random_linear_form(rng, ring)
         for _ in range(t)]
        for _ in range(t + 1)
    ]
    sign = [ring.field.one, ring.field.neg(ring.field.one)]

    def det(rows):  # Laplace expansion along the first row
        if not rows:
            return ring.one()
        return sum(
            (
                (e * det([r[:j] + r[j + 1:] for r in rows[1:]])).scale(sign[j % 2])
                for j, e in enumerate(rows[0])
            ),
            ring.zero(),
        )

    row = [det(a[:i] + a[i + 1:]).scale(sign[i % 2]) for i in range(t + 1)]
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, t + 1, (2 * t,) * (t + 1)),
        GradedFreeModule(ring, t, (2 * t + 2,) * t),
    )
    maps = (PolyMatrix(ring, [row], 1, t + 1), PolyMatrix(ring, a, t + 1, t))
    return FreeComplex(ring, modules, maps), validate_sop(ring, params)


class DrawFailed(Exception):
    """A seeded draw whose parameters are not a system of parameters; the
    draw is reported, never redrawn."""


def eagon_northcott(field, seed):
    """(complex, sop) of one seeded Eagon-Northcott draw: the resolution
    0 -> R(-8)^3 -> R(-6)^8 -> R(-4)^6 -> R of the 2x2 minors of a generic
    2x4 matrix A over k[x, y, z] (Eagon and Northcott, Proc. Roy. Soc. A 269
    (1962); Eisenbud, *The Geometry of Syzygies*, Appendix A2.6), ranks
    [1, 6, 8, 3], with a_kj = sum_t q_t l_kjt for random linear forms q_t
    and l_kjt (``random_linear_form``) and parameters q_1, q_2, q_3.

    For A : F = R^4 -> G = R^2 it is D_2(G*) (x) wedge^4 F -> G* (x)
    wedge^3 F -> wedge^2 F -> R.  phi_1 sends e_i ^ e_j (i < j) to the
    minor of columns i and j; phi_2 sends g_k (x) e_S to the contraction
    sum over the s in S of (-1)^(place of s in S) a_ks e_(S - s); phi_3
    sends the divided power g^alpha (x) e_1234 to the sum over k with
    alpha_k > 0 of g^(alpha - e_k) (x) the contraction of e_1234 by row k.
    The entries of phi_3 are entries of A, which lie in Q, so Im phi_3 lies
    in Q F_2.  A draw whose parameters are dependent raises DrawFailed."""
    rng = random.Random(seed)
    ring = standard_ring(("x", "y", "z"), field=field)
    params = [random_linear_form(rng, ring) for _ in range(3)]
    a = [
        [sum((q * random_linear_form(rng, ring) for q in params), ring.zero())
         for _ in range(4)]
        for _ in range(2)
    ]
    try:
        sop = validate_sop(ring, params)
    except NotASop as exc:
        raise DrawFailed(f"eagon_northcott {field} seed {seed}: {exc}") from exc
    sign = [ring.field.one, ring.field.neg(ring.field.one)]
    pairs, triples = subsets(4, 2), subsets(4, 3)
    cols2 = [(k, s) for k in range(2) for s in triples]
    powers = [(2, 0), (1, 1), (0, 2)]

    def contraction(k, s):  # row k contracted into e_s, as {subset: entry}
        return {
            s[:i] + s[i + 1:]: a[k][j - 1].scale(sign[i % 2])
            for i, j in enumerate(s)
        }

    def column(images, rows):
        return [images.get(r, ring.zero()) for r in rows]

    phi1 = [a[0][i - 1] * a[1][j - 1] - a[0][j - 1] * a[1][i - 1] for i, j in pairs]
    phi2 = [column(contraction(k, s), pairs) for k, s in cols2]
    phi3 = []
    for alpha in powers:
        images = {}
        for k in range(2):
            if alpha[k]:
                left = 1 - k if alpha[1 - k] else k  # alpha - e_k is g_left
                for sub, e in contraction(k, (1, 2, 3, 4)).items():
                    images[left, sub] = e
        phi3.append(column(images, cols2))
    ranks, twists = (1, 6, 8, 3), (0, 4, 6, 8)
    modules = tuple(
        GradedFreeModule(ring, r, (t,) * r) for r, t in zip(ranks, twists)
    )
    maps = tuple(
        PolyMatrix(ring, [list(row) for row in zip(*cols)], len(cols[0]), len(cols))
        for cols in ([[e] for e in phi1], phi2, phi3)
    )
    return FreeComplex(ring, modules, maps), sop


def pullback(comp, ring, forms):
    """``comp`` over k[y_1..y_m] carried to ``ring`` along y_i -> forms[i],
    each of degree d times the weight of y_i: every entry substituted,
    every twist multiplied by d, without labels.  When the forms are a
    regular sequence, ``ring`` is free over k[forms] (Hironaka's criterion;
    Bruns & Herzog, ch. 2), so an acyclic complex stays acyclic."""
    d = forms[0].homogeneous_degree() // comp.ring.weights[0]
    powers = [[ring.one()] for _ in forms]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append(powers[i][-1] * forms[i])
        return powers[i][e]

    def substitute(poly):
        out = ring.zero()
        for mono, c in poly.terms.items():
            term = ring.one().scale(c)
            for i, e in enumerate(unpack(poly.ring, mono)):
                term = term * power(i, e)
            out = out + term
        return out

    modules = tuple(
        GradedFreeModule(ring, m.rank, tuple(d * t for t in m.twists))
        for m in comp.modules
    )
    maps = tuple(
        PolyMatrix(
            ring, [[substitute(e) for e in row] for row in m.entries], m.nrows, m.ncols
        )
        for m in comp.maps
    )
    return FreeComplex(ring, modules, maps)


def image_complex(ambient, gens):
    """The length-one complex F_0 <- F_1 with F_0 = ``ambient`` whose
    columns are ``gens``, F_1 twisted by their degrees (0 for a zero
    column): its Im phi_1 is the span of ``gens``, and the acyclicity
    certificate keeps HS(F_0 / span) on it whatever its verdict."""
    ring = ambient.ring
    source = GradedFreeModule(
        ring, len(gens), tuple(g.homogeneous_degree() or 0 for g in gens)
    )
    rows = [[g.coords[i] for g in gens] for i in range(ambient.rank)]
    phi = PolyMatrix(ring, rows, ambient.rank, len(gens))
    return FreeComplex(ring, (ambient, source), (phi,))


def padded_zero_top_instance():
    """Length-2 complex with a zero top module: 0 -> 0 -> R(-1) -> R."""
    ring = standard_ring(("x", "y"))
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (1,)),
        GradedFreeModule(ring, 0, ()),
    )
    maps = (
        PolyMatrix(ring, [[ring.var(0)]]),
        PolyMatrix(ring, [[]], nrows=1, ncols=0),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    return comp, sop


def monomial_quotient_numerator(weights, gens):
    """Numerator of HS(R/(gens)) over prod (1 - t^w), for monomials
    ``gens`` given as exponent tuples: the colon recursion of
    ``modules._monomial_quotient_numerator``, redone on tuples, with the
    largest generator in (weighted degree, exponent tuple) order as the
    pivot."""
    minimal = []
    for g in sorted(set(gens)):
        if not any(all(map(le, h, g)) for h in minimal):
            minimal.append(g)
    if not minimal:
        return {0: 1}
    if any(not any(g) for g in minimal):
        return {}
    minimal.sort(key=lambda m: (sum(map(mul, weights, m)), m))
    rest, pivot = minimal[:-1], minimal[-1]
    coloned = [tuple(max(e - p, 0) for e, p in zip(g, pivot)) for g in rest]
    tail = monomial_quotient_numerator(weights, coloned)
    d = sum(map(mul, weights, pivot))
    out = dict(monomial_quotient_numerator(weights, rest))
    for deg, c in tail.items():
        out[deg + d] = out.get(deg + d, 0) - c
    return {deg: c for deg, c in out.items() if c}


def expand(series, upto):
    """The Hilbert function values of ``series`` (a ``HilbertSeries``) by
    degree, for degrees <= upto, the zeros left out."""
    values = (
        (d, _hilbert_value(series.numer, series.weights, d))
        for d in range(min(series.numer, default=upto + 1), upto + 1)
    )
    return {d: c for d, c in values if c}


def full_hilbert_certificate(comp):
    """The acyclicity certificate with every series from the reduced basis
    of its image: position p is exact iff
    HS(F_(p-1)) - HS(coker phi_p) - HS(coker phi_(p+1)) is zero, with
    coker phi_(n+1) = F_n.  The compositions must vanish."""
    n = comp.length
    base = ring_series(comp.ring)
    free = [base.twisted(m.twists) for m in comp.modules]
    coker = [
        buchberger(comp.module(p - 1), comp.image_gens(p)).series()
        for p in range(1, n + 1)
    ]
    coker.append(free[n])
    for p in range(1, n + 1):
        diff = free[p - 1].sub(coker[p - 1]).sub(coker[p])
        if diff.numer:
            return AcyclicityCertificate(
                False, p,
                f"kernel at position {p} exceeds the image of the next map "
                f"in degree {min(diff.numer)}",
            )
    return AcyclicityCertificate(True)


def reference_decomposition(comp, sop):
    """Vectors v[(lam, i)] with phi_n(v_lam) = sum_i q_i * v[(lam, i)], as
    ``decompose_images`` returns them, lifted entry by entry: each nonzero
    entry of the top map divided through the kept basis of Q on its own,
    its witness pushed back to the parameters, with no signs."""
    n = comp.length
    ring = comp.ring
    top_map = comp.phi(n)
    target = comp.module(n - 1)
    gb = sop.ideal_gb()
    out = []
    for lam in range(comp.module(n).rank):
        parts = [[ring.zero()] * target.rank for _ in sop.gens]
        for ell, entry in enumerate(top_map.column(lam)):
            if not entry.is_zero():
                witness = gb.lift(gb.ambient.vector((entry,)))
                for part, w in zip(parts, witness):
                    part[ell] = w
        out.append(tuple(target.vector(tuple(part)) for part in parts))
    return tuple(out)


def squares_commute(cm):
    """phi_p composed with level p equals level p-1 composed with the
    Koszul-direction boundary, in the ring (modulo its quotient ideal, if
    any: lifts and decompositions are exact only there)."""
    comp = cm.complex
    for p in range(1, cm.n + 1):
        lhs = comp.phi(p) @ cm.matrices[p]
        rhs = cm.matrices[p - 1] @ cm.source.phi(p)
        if lhs != rhs and any(
            not reduce_mod_quotient(comp.ring, a - b).is_zero()
            for row_a, row_b in zip(lhs.entries, rhs.entries)
            for a, b in zip(row_a, row_b)
        ):
            return False
    return True


@dataclass(frozen=True)
class Stages:
    """The intermediate objects of one ``star_transform`` run."""

    chain_map: object
    cone: object
    split: object
    selection: object


def stages(comp, sop):
    """The chain map, cone, split complex and basis selection that
    ``star_transform(comp, sop)`` builds, from the same stage functions."""
    cm = build_chain_map(comp, sop)
    cone = mapping_cone(cm)
    split = split_top(cone, cm)
    return Stages(cm, cone, split, select_basis(split, cm))


def top_is_signed_identity(cm):
    """The top level of the chain map is (-1)^n times the identity."""
    ring = cm.complex.ring
    expected = identity_matrix(ring, cm.top_rank).scale(
        sign_scalar(ring.field, cm.n)
    )
    return cm.matrices[cm.n] == expected


@dataclass(frozen=True)
class LiftedSelection:
    """The basis selection by greedy residue pivots and lifts: ``a_coeffs``
    on the selected pairs and ``b_coeffs`` on the retained standard basis
    vectors express each unselected v_(mu,j); ``basis`` is the tracked basis
    of the selected v's followed by the retained e_u."""

    selected_pairs: tuple
    retained_basis: tuple
    star_pairs: tuple
    a_coeffs: dict
    b_coeffs: dict
    basis: object


def lifted_selection(cm):
    """Greedy pivots on the constant parts of the decomposition vectors
    v_(lam,i), in (lam, i) order: a vector becomes a pivot when its residue
    is independent of the pivots so far.  The selected v's and the
    remaining standard basis vectors of F_(n-1) form a free basis; each
    unselected v_(mu,j) is lifted through a tracked basis of them."""
    n = cm.n
    prev = cm.complex.module(n - 1)
    f = prev.ring.field
    dec = decompose_images(cm.complex, cm.sop)
    pairs = [(lam, i) for lam in range(cm.top_rank) for i in range(1, n + 1)]
    pivots = {}
    selected = []
    for lam, i in pairs:
        vec = [c.constant_coeff() for c in dec[lam][i - 1].coords]
        for r in sorted(pivots):
            if not f.is_zero(vec[r]):
                factor = f.div(vec[r], pivots[r][r])
                vec = [f.sub(c, f.mul(factor, p)) for c, p in zip(vec, pivots[r])]
        row = next((r for r, c in enumerate(vec) if not f.is_zero(c)), None)
        if row is not None:
            pivots[row] = vec
            selected.append((lam, i))
    retained = tuple(u for u in range(prev.rank) if u not in pivots)
    star_pairs = tuple(p for p in pairs if p not in selected)
    chosen = [dec[lam][i - 1] for (lam, i) in selected]
    chosen += [prev.basis_vector(u) for u in retained]
    basis = buchberger(prev, chosen)
    a_coeffs, b_coeffs = {}, {}
    for mu, j in star_pairs:
        witness = basis.lift(dec[mu][j - 1])
        a_coeffs[(mu, j)] = {
            pair: c for pair, c in zip(selected, witness) if c.terms
        }
        b_coeffs[(mu, j)] = {
            u: c for u, c in zip(retained, witness[len(selected):]) if c.terms
        }
    return LiftedSelection(
        tuple(selected), retained, star_pairs, a_coeffs, b_coeffs, basis
    )


def restricted_top_map(split, cm):
    """The new top map by restriction, from ``lifted_selection``: the new
    basis vector of (mu, j) is (-1)^j v_mu (x) e_C(j) plus, for each
    selected (lam, i), a_(lam,i) (-1)^(i-1) v_lam (x) e_C(i).  Apply the
    split complex's top map to it, keep the bracket part, and re-express
    the angle part in the selected free basis of F_(n-1) by a lift.  The
    lift must put nothing on a selected pair; the retained coordinates
    follow."""
    sel = lifted_selection(cm)
    n = cm.n
    ring = cm.complex.ring
    f = ring.field
    prev = cm.complex.module(n - 1)
    prev_subs = subsets(n, n - 1)
    nb = cm.top_rank * len(subsets(n, n - 2))
    selected = len(sel.selected_pairs)
    columns = []
    for (mu, j) in sel.star_pairs:
        coords = [ring.zero()] * cm.source.module(n - 1).rank
        terms = [(mu, j, ring.one(), j)]
        terms += [(lam, i, a, i - 1) for (lam, i), a in sel.a_coeffs[(mu, j)].items()]
        for lam, i, coeff, power in terms:
            idx = lam * len(prev_subs) + prev_subs.index(co_singleton(i, n))
            coords[idx] = coords[idx] + coeff.scale(sign_scalar(f, power))
        image = split.maps[n - 1].apply(coords)
        witness = sel.basis.lift(prev.vector(image[nb:]))
        assert not any(c.terms for c in witness[:selected]), (mu, j)
        columns.append(list(image[:nb]) + list(witness[selected:]))
    rows = nb + len(sel.retained_basis)
    return PolyMatrix(
        ring,
        [[col[i] for col in columns] for i in range(rows)],
        rows,
        len(columns),
    )


def _schreyer_relations(gens, ambient, ncols):
    """(syz_module, relations): generators of the relation module {c : sum
    c_i gens_i = 0} (modulo J over R/J), unreduced and cut to their first
    ``ncols`` coordinates, in ``syz_module``, a free module whose twists are
    the degrees of the first ``ncols`` generators.

    Each is one ``_RowTable.combine`` of the reduced basis's rows: the
    relation of every S-pair of the basis, from the quotient dict that its
    ``_s_vector`` head starts and its division fills (Schreyer's theorem:
    they generate the syzygies of the basis), and the rows of (identity -
    B*A) for every input generator, where B expresses the working
    generators in the basis and A the basis in them.  The dicts are keyed
    by row id, as ``SubmoduleGB.lift`` keys its own.  The rows of the
    J-multiples that ``buchberger`` adjoins are not needed when the
    generators after the first ``ncols`` span J*F, as the J-multiples of
    the unit vectors that ``schreyer_syzygies`` appends do: the first block
    of such a row lies in the span of the others.
    """
    ring = ambient.ring
    twists = tuple(g.homogeneous_degree() or 0 for g in gens[:ncols])
    syz_module = GradedFreeModule(ring, ncols, twists)
    gb = buchberger(ambient, gens)
    table, ids = gb.row_table, gb.row_ids
    for k in ids:
        table.row(k)
    # indexed by row id, so the S-vector heads and quotients name rows
    forms = {k: g.keyed() for k, g in zip(ids, gb.gb)}
    leads = dict(zip(ids, gb.leads))
    reducers = list(forms.items())
    minus_one = ring.field.neg(ring.field.one)
    relations = []
    for b, j in enumerate(ids):
        for i in ids[:b]:
            if leads[i][0] != leads[j][0]:
                continue
            lcm = ring.mono_lcm(leads[i][1], leads[j][1])
            quots = defaultdict(dict)
            s = _s_vector(ambient, forms, leads, i, j, lcm, quots=quots)
            rem = _reduce(ambient, s, reducers, quots)
            assert not rem
            relations.append(table.combine(minus_one, quots)[:ncols])
    for j, g in enumerate(gens):
        quots = defaultdict(dict)
        rem = _reduce(ambient, _terms(ambient, enumerate(g.coords)), reducers, quots)
        assert not rem
        relation = table.combine(minus_one, quots)[:ncols]
        if j < ncols:
            relation[j] = relation[j] + ring.one()
        relations.append(relation)
    return syz_module, [syz_module.vector(r) for r in relations]


def schreyer_syzygies(gens, ambient):
    """The reduced basis of the relation module of ``gens`` (modulo J over
    R/J), as ``syzygies`` returns it, from the Schreyer relations."""
    gens = tuple(gens)
    unit_multiples = tuple(
        ambient.basis_vector(i).mul_poly(g)
        for g in ambient.ring.quotient
        for i in range(ambient.rank)
    )
    syz_module, relations = _schreyer_relations(
        gens + unit_multiples, ambient, len(gens)
    )
    return list(buchberger(syz_module, relations).gb)


def schreyer_intersect(a, b):
    """The intersection of two submodules, as ``intersect`` returns it: the
    images sum c_i a_i of the relations (c, d) of [a | b]."""
    ambient = a.ambient
    images = []
    for rel in schreyer_syzygies(list(a.gb) + list(b.gb), ambient):
        combo = [(c.terms, g.coords) for c, g in zip(rel.coords, a.gb) if c.terms]
        v = ambient.vector(_combine_rows(ambient.ring, combo, ambient.rank))
        if not v.is_zero():
            images.append(v)
    return buchberger(ambient, images)
