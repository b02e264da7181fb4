from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from startrans import (
    FreeComplex,
    GradedFreeModule,
    PolyMatrix,
    PolyRing,
    PreconditionFailed,
    PrimeField,
    RationalField,
    StarComplex,
    StarTransError,
    build_chain_map,
    build_star_top,
    buchberger,
    certify_acyclic,
    chain_map_image_checks,
    check_complex,
    colon,
    hilbert_data,
    koszul,
    mapping_cone,
    select_basis,
    split_top,
    star_transform,
    submodule_equal,
    validate_sop,
    verify_star,
)
from startrans import transform
from startrans.complexes import (
    co_singleton,
    complement,
    offset_sum,
    sign_scalar,
    subsets,
    tensor_complex,
)
from startrans.instances import (
    complete_intersection_instance,
    corpus,
    direct_sum_instance,
    exa_instance,
    random_instance,
    square_ideal_instance,
    vanishing_top_instance,
)
from startrans.modules import SubmoduleGB
import brute
from reference import (
    add_vectors,
    hilbert_burch,
    identity_matrix,
    lifted_selection,
    padded_zero_top_instance,
    reference_decomposition,
    restricted_top_map,
    squares_commute,
    stages,
    top_is_signed_identity,
    unpack,
    zero_matrix,
    zero_vector,
)
from test_certificate import form, koszul_problems


@pytest.fixture(scope="module")
def exa():
    return exa_instance()


@pytest.fixture(scope="module")
def exa_chain_map(exa):
    comp, sop = exa
    return build_chain_map(comp, sop)


@pytest.fixture(scope="module")
def small_corpus():
    return corpus(count=6)


# -- chain map -----------------------------------------------------------


def test_exa_chain_map_elements(exa, exa_chain_map):
    comp, _ = exa
    ring = comp.ring
    cm = exa_chain_map
    assert cm.elements[(0, (1,))].coords == (ring.parse("y"), ring.zero())
    assert cm.elements[(0, (2,))].coords == (ring.zero(), ring.parse("x"))
    assert cm.elements[(0, ())].coords == (ring.parse("x*y"),)


def test_exa_level_zero_matrix(exa, exa_chain_map):
    ring = exa[0].ring
    assert exa_chain_map.level(0) == PolyMatrix(ring, [[ring.parse("x*y")]])


def test_top_level_is_signed_identity(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        assert top_is_signed_identity(cm), name


def assert_second_level_matches_decomposition_signs(comp, sop):
    """Level n - 1 of the chain map is the decomposition lifted entry by
    entry (``reference_decomposition``), signed (-1)^(n+i-1)."""
    cm = build_chain_map(comp, sop)
    decomposition = reference_decomposition(comp, sop)
    n = comp.length
    f = comp.ring.field
    for lam in range(comp.top_rank()):
        for i in range(1, n + 1):
            expected = decomposition[lam][i - 1].scale(sign_scalar(f, n + i - 1))
            assert cm.elements[(lam, co_singleton(i, n))] == expected, (lam, i)


def test_second_level_matches_decomposition_signs(small_corpus):
    for name, comp, sop in small_corpus:
        assert_second_level_matches_decomposition_signs(comp, sop)


def test_commuting_squares_vanish(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        assert squares_commute(cm), name


def full_tensor_descent(comp, sop, decomposition):
    """The chain-map elements as the descent computed them with one basis
    of the whole tensor module: each level lifts the goal through a
    tracked basis of F_(p-1) (x) K_(n-p), generated by the columns of
    F_(p-1) (x) d_(n-p+1)."""
    n = comp.length
    ring = comp.ring
    f = ring.field
    top = comp.module(n)
    full = tuple(range(1, n + 1))
    elements = {}
    for lam in range(top.rank):
        elements[(lam, full)] = top.basis_vector(lam).scale(sign_scalar(f, n))
        for i in range(1, n + 1):
            elements[(lam, co_singleton(i, n))] = decomposition[lam][i - 1].scale(
                sign_scalar(f, n + i - 1)
            )
    for p in range(n - 1, 0, -1):
        prev = comp.module(p - 1)
        tensor = tensor_complex(prev, sop)
        ambient = tensor.module(n - p)
        gb = buchberger(ambient, tensor.image_gens(n - p + 1))
        blk_subs = subsets(n, n - p)
        blk_index = {s: k for k, s in enumerate(blk_subs)}
        src_subs = subsets(n, n - p + 1)
        src_index = {s: k for k, s in enumerate(src_subs)}
        for lam in range(top.rank):
            target = [ring.zero()] * ambient.rank
            for s in subsets(n, p):
                sgn = sign_scalar(f, p * (p + 1) // 2 + offset_sum(s))
                image = comp.phi(p).apply(elements[(lam, s)].coords)
                blk = blk_index[complement(s, n)]
                for u in range(prev.rank):
                    if image[u].terms:
                        idx = u * len(blk_subs) + blk
                        target[idx] = target[idx] + image[u].scale(sgn)
            witness = gb.lift(ambient.vector(target).scale(sign_scalar(f, p)))
            for sub in subsets(n, p - 1):
                a_idx = src_index[complement(sub, n)]
                coords = tuple(
                    witness[u * len(src_subs) + a_idx] for u in range(prev.rank)
                )
                sgn = sign_scalar(f, (p - 1) * p // 2 + offset_sum(sub))
                elements[(lam, sub)] = prev.vector(coords).scale(sgn)
    return elements


def assert_block_lifts_match_the_full_lift(comp, sop):
    cm = build_chain_map(comp, sop)
    reference = full_tensor_descent(comp, sop, reference_decomposition(comp, sop))
    n = comp.length
    for p in range(n + 1):
        cols = [
            reference[(lam, s)].coords
            for lam in range(comp.top_rank())
            for s in subsets(n, p)
        ]
        rank = comp.module(p).rank
        expected = PolyMatrix(
            comp.ring, [[c[i] for c in cols] for i in range(rank)], rank, len(cols)
        )
        assert cm.matrices[p] == expected, p


def test_block_lifts_match_the_full_lift_on_the_corpus():
    for name, comp, sop in corpus():
        assert_block_lifts_match_the_full_lift(comp, sop)


BLOCK_RINGS = {
    "p:7[x,y,z]": lambda: PolyRing(PrimeField(7), ("x", "y", "z")),
    "Q[x,y,z]": lambda: PolyRing(RationalField(), ("x", "y", "z")),
    "Q[x,y,z] weights (1,2,1)": lambda: PolyRing(
        RationalField(), ("x", "y", "z"), (1, 2, 1)
    ),
    "Q[x,y,z]/(z^2)": lambda: PolyRing(RationalField(), ("x", "y", "z")),
}


@st.composite
def generic_koszul_problems(draw):
    """(complex, sop): the Koszul complex of (q_i * f_i) and parameters
    q_i with random coefficients; n = 3 except over Q[x,y,z]/(z^2), where
    the parameters are in x and y."""
    name = draw(st.sampled_from(sorted(BLOCK_RINGS)))
    ring = BLOCK_RINGS[name]()
    if name.endswith("/(z^2)"):
        ring = ring.with_quotient([ring.parse("z^2")])
    n = 2 if ring.quotient else 3
    params, gens = [], []
    for i in range(n):
        q = form(draw, ring, ring.weights[i] * draw(st.integers(1, 2)), power_of=i)
        params.append(q)
        gens.append(q * form(draw, ring, draw(st.integers(0, 1)), power_of=i))
    try:
        sop = validate_sop(ring, params)
        gen_sop = validate_sop(ring, gens)
    except StarTransError:
        assume(False)
    return koszul(gen_sop), sop


@settings(max_examples=20, deadline=None)
@given(generic_koszul_problems())
def test_block_lifts_match_the_full_lift_on_generated_instances(problem):
    assert_block_lifts_match_the_full_lift(*problem)


@settings(max_examples=20, deadline=None)
@given(generic_koszul_problems())
def test_second_level_matches_decomposition_signs_on_generated_instances(problem):
    assert_second_level_matches_decomposition_signs(*problem)


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete_intersection_instance((2, 2, 2)),
        lambda: complete_intersection_instance((1, 2, 1, 1)),
        lambda: random_instance(2024)[1:],
    ],
)
def test_one_koszul_basis_per_chain_map_level(monkeypatch, make):
    comp, sop = make()
    ranks = []

    def counting(ambient, gens, **kwargs):
        ranks.append(ambient.rank)
        return buchberger(ambient, gens, **kwargs)

    monkeypatch.setattr(transform, "buchberger", counting)
    build_chain_map(comp, sop)
    n = comp.length
    assert ranks == [comb(n, n - p) for p in range(n - 1, 0, -1)]


def test_chain_map_source_twists_shifted(exa, exa_chain_map):
    comp, sop = exa
    cm = exa_chain_map
    # total parameter degree 2: v (x) e_empty sits in degree 4 - 2 = 2
    assert cm.source.module(0).twists == (2,)
    assert cm.source.module(1).twists == (3, 3)
    assert cm.source.module(2).twists == (4,)


def test_chain_map_image_checks_exa(exa, exa_chain_map):
    comp, sop = exa
    m_gb = comp.image_gb()
    results = chain_map_image_checks(exa_chain_map, m_gb)
    assert all(ok for _, ok, _ in results)
    names = [n for n, _, _ in results]
    assert "image_plus_M_equals_colon" in names
    assert ("colon_quotient_count", True, "dim (M:Q)/M = 1, expected 1") in results


def test_chain_map_image_checks_degenerate_zero_top():
    comp, sop = padded_zero_top_instance()
    cm = build_chain_map(comp, sop)
    m_gb = comp.image_gb()
    results = chain_map_image_checks(cm, m_gb)
    assert all(ok for _, ok, _ in results)
    # M : Q = M in the degenerate case
    assert submodule_equal(colon(m_gb, sop.gens), m_gb)


def test_exa_image_sum_is_colon(exa, exa_chain_map):
    comp, sop = exa
    ring = comp.ring
    ambient = comp.module(0)
    level0 = exa_chain_map.level(0)
    gens = [ambient.vector(level0.column(j)) for j in range(level0.ncols)]
    m_gb = comp.image_gb()
    span = buchberger(ambient, gens + list(m_gb.gb))
    expected = buchberger(
        ambient,
        [ambient.vector((ring.parse(t),)) for t in ("x*y", "x^2", "y^2")],
    )
    assert submodule_equal(span, expected)


def test_quotient_count_exa(exa):
    comp, sop = exa
    m_gb = comp.image_gb()
    colon_gb = colon(m_gb, sop.gens)
    lhs = (
        hilbert_data(m_gb).series.sub(hilbert_data(colon_gb).series)
    ).dimension()
    assert lhs == comp.top_rank() * sop.colength == 1


# -- mapping cone -----------------------------------------------------------


def test_exa_cone_first_map(exa, exa_chain_map):
    ring = exa[0].ring
    cone = mapping_cone(exa_chain_map)
    assert cone.phi(1) == PolyMatrix(
        ring, [[ring.parse("x*y"), ring.parse("x^2"), ring.parse("y^2")]]
    )


def test_cone_is_complex_and_acyclic(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cone = mapping_cone(build_chain_map(comp, sop))
        assert cone.length == comp.length + 1, name
        assert check_complex(cone) is None, name
        assert certify_acyclic(cone).ok, name


def test_cone_resolves_colon(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cone = mapping_cone(build_chain_map(comp, sop))
        assert submodule_equal(
            cone.image_gb(), colon(comp.image_gb(), sop.gens)
        ), name


# -- split -------------------------------------------------------------------


def test_split_identity_is_identity(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        cone = mapping_cone(cm)
        # the last top_rank rows of the last cone map are (-1)^n * level n
        k = comp.top_rank()
        top_rows = PolyMatrix(comp.ring, cone.maps[comp.length].entries[-k:])
        assert top_rows == identity_matrix(comp.ring, k), name


def test_exa_split_structure(exa, exa_chain_map):
    comp, sop = exa
    ring = comp.ring
    cone = mapping_cone(exa_chain_map)
    split = split_top(cone, exa_chain_map)
    assert [m.rank for m in split.modules] == [1, 3, 2]
    cols = [split.phi(2).column(j) for j in range(2)]
    assert cols[0] == (ring.parse("x"), ring.parse("-y"), ring.zero())
    assert cols[1] == (ring.parse("y"), ring.zero(), ring.parse("-x"))


def test_split_rank_and_acyclicity(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        split = split_top(mapping_cone(cm), cm)
        n = comp.length
        assert split.length == n, name
        assert split.module(n).rank == n * comp.top_rank(), name
        assert check_complex(split) is None, name
        assert certify_acyclic(split).ok, name


# -- basis selection -----------------------------------------------------------


def split_and_chain_map(comp, sop):
    cm = build_chain_map(comp, sop)
    return split_top(mapping_cone(cm), cm), cm


def selected_pairs(sel, cm):
    """The pairs whose columns became pivots: all but the kept ones, in
    (lam, i) order (``StarComplex.selected_pairs`` reads the same from the
    output's labels)."""
    return tuple(
        (lam, i)
        for lam in range(cm.top_rank)
        for i in range(1, cm.n + 1)
        if (lam, i) not in sel.star_pairs
    )


def test_select_basis_exa(exa):
    comp, sop = exa
    split, cm = split_and_chain_map(comp, sop)
    sel = select_basis(split, cm)
    assert selected_pairs(sel, cm) == ()
    assert sel.retained_basis == (0, 1)
    assert sel.star_pairs == ((0, 1), (0, 2))
    # bracket row, then the angle rows (-1)^i v_(0,i)
    x, y, zero = (comp.ring.parse(t) for t in ("x", "y", "0"))
    assert sel.columns == ((y, zero, -x), (x, -y, zero))


def test_select_basis_unit_pivots():
    split, cm = split_and_chain_map(*vanishing_top_instance())
    sel = select_basis(split, cm)
    assert set(selected_pairs(sel, cm)) == {(0, 1), (0, 2)}
    assert sel.retained_basis == ()
    assert sel.star_pairs == ()
    assert sel.columns == ()


def test_select_basis_counts(small_corpus):
    for name, comp, sop in small_corpus:
        split, cm = split_and_chain_map(comp, sop)
        sel = select_basis(split, cm)
        prev_rank = comp.module(comp.length - 1).rank
        assert len(selected_pairs(sel, cm)) + len(sel.retained_basis) == prev_rank, name
        # every kept column vanishes on the pivot rows and has no unit
        # entry on the retained ones
        nb = split.module(comp.length - 1).rank - prev_rank
        retained = {nb + u for u in sel.retained_basis}
        f = comp.ring.field
        for column in sel.columns:
            for r in range(nb, len(column)):
                if r in retained:
                    assert f.is_zero(column[r].constant_coeff()), name
                else:
                    assert column[r].is_zero(), name


def test_select_basis_square_ideal_mixed():
    comp, sop = square_ideal_instance()
    split, cm = split_and_chain_map(comp, sop)
    sel = select_basis(split, cm)
    assert len(selected_pairs(sel, cm)) == 3
    assert sel.retained_basis == ()
    assert sel.star_pairs == ((1, 2),)
    # the leftover vector is a combination of the selected ones: its column
    # vanishes on every angle row, but not on the bracket rows
    (column,) = sel.columns
    assert all(e.is_zero() for e in column[2:])
    assert not all(e.is_zero() for e in column[:2])


def test_select_basis_reduces_by_the_pivots_in_the_order_found():
    # the angle rows of the three columns are (-1, 1, 0), (0, -1, 0) and
    # (-1, 0, -1): the third column reduced by the second pivot and then by
    # the first would keep a constant in the second pivot's row
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    sop = validate_sop(ring, [ring.var(0), ring.var(1), ring.var(2)])
    gens = validate_sop(ring, [ring.parse(t) for t in ("z", "x + y", "x + z")])
    res = star_transform(koszul(gens), sop)
    assert res.star.selected_pairs == ((0, 1), (0, 2), (0, 3))
    assert res.star.retained_basis == ()
    assert res.report.overall


def test_select_basis_builds_no_groebner_basis(monkeypatch):
    split, cm = split_and_chain_map(*p7_positive_degree_coefficient_instance())
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    buchberger_calls = counted(transform.buchberger)
    monkeypatch.setattr("startrans.modules.buchberger", buchberger_calls)
    monkeypatch.setattr(transform, "buchberger", buchberger_calls)
    monkeypatch.setattr(SubmoduleGB, "lift", counted(SubmoduleGB.lift))
    sel = select_basis(split, cm)
    assert selected_pairs(sel, cm) and sel.star_pairs
    assert calls == []


# -- star top and full transform ----------------------------------------------


def test_exa_star_top_values(exa, exa_chain_map):
    comp, sop = exa
    ring = comp.ring
    cm = exa_chain_map
    split = split_top(mapping_cone(cm), cm)
    out = build_star_top(select_basis(split, cm), split, cm)
    assert [m.rank for m in out.modules] == [1, 3, 2]
    assert out.modules[0] is split.modules[0]
    cols = [out.phi(2).column(j) for j in range(2)]
    assert cols[0] == (ring.parse("-y"), ring.zero(), ring.parse("x"))
    assert cols[1] == (ring.parse("x"), ring.parse("-y"), ring.zero())
    assert out.labels[0] == split.labels[0]
    assert out.labels[2] == (("star", 0, 1), ("star", 0, 2))


def assert_top_map_is_the_restricted_map(comp, sop):
    res = star_transform(comp, sop, with_report=False)
    st = stages(comp, sop)
    cm, sel = st.chain_map, st.selection
    assert squares_commute(cm)
    assert top_is_signed_identity(cm)
    reference = lifted_selection(cm)
    assert res.star.selected_pairs == reference.selected_pairs
    assert sel.retained_basis == reference.retained_basis
    assert sel.star_pairs == reference.star_pairs
    top = res.star.complex.phi(cm.n)
    restricted = restricted_top_map(st.split, cm)
    assert top.ncols == restricted.ncols == len(sel.star_pairs)
    for j in range(top.ncols):
        assert top.column(j) == restricted.column(j), sel.star_pairs[j]
    return reference


def test_closed_form_top_map_is_the_restricted_map_on_the_corpus():
    for name, comp, sop in corpus():
        assert_top_map_is_the_restricted_map(comp, sop)


@settings(max_examples=20, deadline=None)
@given(koszul_problems())
def test_closed_form_top_map_is_the_restricted_map_on_generated_instances(problem):
    name, comp, sop = problem
    assert_top_map_is_the_restricted_map(comp, sop)


def p7_positive_degree_coefficient_instance():
    """Koszul complex of three forms over p:7 with parameters of degrees
    (1, 1, 2): the unselected pair is a combination of the selected ones
    with a coefficient of positive degree, which no corpus instance has."""
    ring = PolyRing(PrimeField(7), ("x", "y", "z"))
    params = ["2*x + 3*y + z", "x + 2*y", "4*x^2 + 6*y*z + 2*z^2"]
    gens = [
        "5*x + 4*y + 6*z",
        "5*x^2 + x*y + 3*y^2 + 3*x*z + 6*y*z",
        "x^2 + 5*y*z + 4*z^2",
    ]
    sop = validate_sop(ring, [ring.parse(t) for t in params])
    return koszul(validate_sop(ring, [ring.parse(t) for t in gens])), sop


def test_closed_form_top_map_with_a_non_constant_a_coefficient():
    comp, sop = p7_positive_degree_coefficient_instance()
    reference = assert_top_map_is_the_restricted_map(comp, sop)
    assert any(
        any(sum(unpack(comp.ring, m)) for m in a.terms)
        for a_part in reference.a_coeffs.values()
        for a in a_part.values()
    )
    assert star_transform(comp, sop).report.overall


def test_exa_full_star(exa):
    comp, sop = exa
    res = star_transform(comp, sop)
    star = res.star
    assert [m.rank for m in star.complex.modules] == [1, 3, 2]
    assert star.complex.module(1).twists == (2, 2, 2)
    assert star.complex.module(2).twists == (3, 3)
    ring = comp.ring
    ambient = comp.module(0)
    expected = buchberger(
        ambient,
        [ambient.vector((ring.parse(t),)) for t in ("x^2", "x*y", "y^2")],
    )
    assert submodule_equal(star.complex.image_gb(), expected)
    assert star.top_rank() != 0
    assert res.report.overall


def test_full_star_on_corpus(small_corpus):
    for name, comp, sop in small_corpus:
        res = star_transform(comp, sop)
        assert res.report.overall, (name, res.report.lines())
        star = res.star
        n = comp.length
        # rank accounting identities
        for p in range(1, n - 1):
            assert (
                star.complex.module(p).rank
                == comp.top_rank() * comb(n, p - 1) + comp.module(p).rank
            ), name
        assert star.complex.module(n - 1).rank == comp.top_rank() * comb(
            n, n - 2
        ) + len(star.retained_basis), name
        assert star.complex.module(n).rank == n * comp.top_rank() - len(
            star.selected_pairs
        ), name
        # image equals the oracle colon
        assert submodule_equal(
            star.complex.image_gb(), colon(comp.image_gb(), sop.gens)
        ), name
        # top map entries all in the irrelevant ideal
        f = comp.ring.field
        top_map = star.complex.phi(n)
        for i in range(top_map.nrows):
            for j in range(top_map.ncols):
                assert f.is_zero(top_map.entry(i, j).constant_coeff()), name
        # acyclic and well formed
        assert check_complex(star.complex) is None, name
        assert certify_acyclic(star.complex).ok, name


@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["Q", "p7"])
def test_corpus_outputs_exact_by_dense_ranks(field):
    # no Groebner basis and no Hilbert series: each round-1 output is exact
    # in degrees 0..8 by dense ranks, and exa's with its top map zeroed is not
    for name, comp, sop in corpus(field=field):
        out = star_transform(comp, sop, with_report=False).star.complex
        assert brute.first_inexact_degree(out, 8) is None, name
        if name == "exa":
            top = out.phi(out.length)
            zeroed = FreeComplex(
                out.ring,
                out.modules,
                out.maps[:-1] + (zero_matrix(out.ring, top.nrows, top.ncols),),
            )
            assert brute.first_inexact_degree(zeroed, 8) is not None


def test_hilbert_burch_output_exact_by_dense_ranks():
    # round 1 of the t = 2 draw, twists up to 5, is exact in degrees 0..10
    # by dense ranks, and not with its top map zeroed
    comp, sop = hilbert_burch(PrimeField(32003), 2, 0)
    out = star_transform(comp, sop, with_report=False).star.complex
    assert [m.rank for m in out.modules] == [1, 5, 4]
    assert max(t for m in out.modules for t in m.twists) == 5
    assert brute.first_inexact_degree(out, 10) is None
    top = out.phi(out.length)
    zeroed = FreeComplex(
        out.ring,
        out.modules,
        out.maps[:-1] + (zero_matrix(out.ring, top.nrows, top.ncols),),
    )
    assert brute.first_inexact_degree(zeroed, 10) is not None


@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["Q", "p7"])
def test_corpus_outputs_are_the_colon_by_dense_ranks(field):
    # no Groebner basis: Im phi_1 of each round-1 output spans the degree-d
    # part of M : Q, computed by dense linear algebra, for d = 0..6; exa's
    # with its first bracket column scaled by x first differs at degree 2
    for name, comp, sop in corpus(field=field):
        out = star_transform(comp, sop, with_report=False).star.complex
        f0 = comp.module(0)
        m_gens, q_polys = comp.image_gens(1), list(sop.gens)
        colons = [brute.brute_colon_basis(m_gens, q_polys, f0, d) for d in range(7)]
        for d, colon_d in enumerate(colons):
            assert brute.spans_agree(out.image_gens(1), colon_d, f0, d), (name, d)
        if name == "exa":
            assert out.labels[1][0] == ("bracket", 0, ())
            scaled = out.image_gens(1)
            scaled[0] = scaled[0].mul_poly(comp.ring.var(0))
            differ = [
                d
                for d, colon_d in enumerate(colons)
                if not brute.spans_agree(scaled, colon_d, f0, d)
            ]
            assert differ[0] == 2


def test_n3_complete_intersection_shape():
    comp, sop = complete_intersection_instance((2, 2, 2))
    res = star_transform(comp, sop)
    star = res.star
    assert [m.rank for m in star.complex.modules] == [1, 4, 6, 3]
    ring = comp.ring
    ambient = comp.module(0)
    expected = buchberger(
        ambient,
        [
            ambient.vector((ring.parse(t),))
            for t in ("x^2", "y^2", "z^2", "x*y*z")
        ],
    )
    assert submodule_equal(star.complex.image_gb(), expected)


def test_vanishing_top_fast_path():
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop)
    star = res.star
    assert star.complex.module(2).rank == 0
    assert star.top_rank() == 0
    assert star.complex.effective_length() <= 1
    from startrans import depth_positive_check

    assert depth_positive_check(star.complex.image_gb())
    # consequence: a further colon by the irrelevant ideal is stable
    colon_gb = colon(comp.image_gb(), sop.gens)
    m_vars = [comp.ring.var(i) for i in range(comp.ring.nvars)]
    assert submodule_equal(colon(colon_gb, m_vars), colon_gb)


def test_degenerate_zero_top_is_identity():
    comp, sop = padded_zero_top_instance()
    res = star_transform(comp, sop)
    assert res.star.complex.modules == comp.modules
    assert res.star.complex.maps == comp.maps
    assert res.report.overall
    m_gb = comp.image_gb()
    assert submodule_equal(colon(m_gb, sop.gens), m_gb)


def test_direct_sum_mixed_selection():
    comp, sop = direct_sum_instance()
    res = star_transform(comp, sop)
    star = res.star
    assert res.report.overall
    assert set(star.selected_pairs) == {(0, 1), (0, 2)}
    assert set(star.star_pairs) == {(1, 1), (1, 2)}


def test_choice_independence_of_colon_image(exa, monkeypatch):
    comp, sop = exa
    ring = comp.ring
    target = comp.module(1)
    # an alternative legal decomposition of phi_2(v) = (-y^2, x^2)
    alt = (
        (
            target.vector((ring.parse("y"), ring.parse("x+y"))),
            target.vector((ring.parse("-y-x"), ring.parse("-x"))),
        ),
    )
    recombined = zero_vector(target)
    for x, v in zip(sop.gens, alt[0]):
        recombined = add_vectors(recombined, v.mul_poly(x))
    assert recombined == target.vector(comp.phi(2).column(0))

    default_res = star_transform(comp, sop)
    # the chain map's top two levels, signed, from the alternative
    f = ring.field
    top = {(0, (1, 2)): comp.module(2).basis_vector(0).scale(sign_scalar(f, 2))}
    for i in (1, 2):
        top[0, co_singleton(i, 2)] = alt[0][i - 1].scale(sign_scalar(f, i + 1))
    monkeypatch.setattr(transform, "chain_map_top", lambda comp, sop: dict(top))
    split, cm = split_and_chain_map(comp, sop)
    alt_star = StarComplex(
        build_star_top(select_basis(split, cm), split, cm), comp.top_rank()
    )
    assert verify_star(comp, sop, alt_star).overall
    assert submodule_equal(
        default_res.star.complex.image_gb(), alt_star.complex.image_gb()
    )


def test_star_requires_length_two():
    ring = PolyRing(RationalField(), ("x", "y"))
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (1,)),
    )
    maps = (PolyMatrix(ring, [[ring.var(0)]]),)
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed):
        star_transform(comp, sop)


def test_star_rejects_non_acyclic():
    ring = PolyRing(RationalField(), ("x", "y"))
    zero = zero_matrix(ring, 1, 1)
    modules = tuple(GradedFreeModule(ring, 1, (0,)) for _ in range(3))
    comp = FreeComplex(ring, modules, (zero, zero))
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed):
        star_transform(comp, sop)


def test_star_rejects_containment_violation():
    ring = PolyRing(RationalField(), ("x", "y"))
    x = ring.var(0)
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 2, (1, 0)),
        GradedFreeModule(ring, 1, (0,)),
    )
    maps = (
        PolyMatrix(ring, [[x, ring.zero()]]),
        PolyMatrix(ring, [[ring.zero()], [ring.one()]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed) as err:
        star_transform(comp, sop)
    assert "Q*F_(n-1)" in str(err.value)


def test_prime_field_pipeline():
    from startrans import PrimeField

    comp, sop = exa_instance(field=PrimeField(32003))
    res = star_transform(comp, sop)
    assert res.report.overall
    assert [m.rank for m in res.star.complex.modules] == [1, 3, 2]


def test_weighted_grading_pipeline():
    ring = PolyRing(RationalField(), ("x", "y"), (1, 2))
    gens = validate_sop(ring, [ring.parse("x^4"), ring.parse("y^2")])
    sop = validate_sop(ring, [ring.parse("x^2"), ring.parse("y")])
    from startrans import koszul

    res = star_transform(koszul(gens), sop)
    assert res.report.overall


def test_labels_structure_exa(exa):
    comp, sop = exa
    star = star_transform(comp, sop).star
    assert star.labels[1] == (
        ("bracket", 0, ()),
        ("angle", 0),
        ("angle", 1),
    )
    assert star.labels[2] == (("star", 0, 1), ("star", 0, 2))
