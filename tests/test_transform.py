from math import comb

import pytest

from startrans import (
    FreeComplex,
    GradedFreeModule,
    PolyMatrix,
    PolyRing,
    PreconditionFailed,
    RationalField,
    build_chain_map,
    build_star_top,
    buchberger,
    certify_acyclic,
    chain_map_image_checks,
    check_complex,
    colon,
    decompose_images,
    hilbert_data,
    mapping_cone,
    select_basis,
    split_top,
    star_transform,
    submodule_equal,
    validate_sop,
)
from startrans.complexes import co_singleton
from startrans.instances import (
    complete_intersection_instance,
    corpus,
    direct_sum_instance,
    exa_instance,
    padded_zero_top_instance,
    square_ideal_instance,
    vanishing_top_instance,
)


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
        assert cm.top_is_signed_identity(), name


def test_second_level_matches_decomposition_signs(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        n = comp.length
        f = comp.ring.field
        for lam in range(comp.top_rank()):
            for i in range(1, n + 1):
                sign = f.one if (n + i - 1) % 2 == 0 else f.neg(f.one)
                expected = cm.decomposition[lam][i - 1].scale(sign)
                assert cm.elements[(lam, co_singleton(i, n))] == expected, name


def test_commuting_squares_vanish(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        cm = build_chain_map(comp, sop)
        assert cm.squares_commute(), name


def test_chain_map_source_twists_shifted(exa, exa_chain_map):
    comp, sop = exa
    cm = exa_chain_map
    # total parameter degree 2: v (x) e_empty sits in degree 4 - 2 = 2
    assert cm.source_modules[0].twists == (2,)
    assert cm.source_modules[1].twists == (3, 3)
    assert cm.source_modules[2].twists == (4,)


def test_chain_map_image_checks_exa(exa, exa_chain_map):
    comp, sop = exa
    m_gb = comp.image_gb(1)
    results = chain_map_image_checks(exa_chain_map, m_gb)
    assert all(ok for _, ok, _ in results)
    names = [n for n, _, _ in results]
    assert "image_plus_M_equals_colon" in names
    assert "colon_quotient_count" in names


def test_chain_map_image_checks_degenerate_zero_top():
    comp, sop = padded_zero_top_instance()
    cm = build_chain_map(comp, sop)
    m_gb = comp.image_gb(1)
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
    m_gb = comp.image_gb(1)
    span = buchberger(ambient, gens + list(m_gb.gb))
    expected = buchberger(
        ambient,
        [ambient.vector((ring.parse(t),)) for t in ("x*y", "x^2", "y^2")],
    )
    assert submodule_equal(span, expected)


def test_quotient_count_exa(exa):
    comp, sop = exa
    m_gb = comp.image_gb(1)
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
            cone.image_gb(1), colon(comp.image_gb(1), sop.gens)
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
        assert top_rows == PolyMatrix.identity(comp.ring, k), name


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


def test_select_basis_exa(exa):
    comp, sop = exa
    dec = decompose_images(comp, sop)
    sel = select_basis(dec, comp.module(1), 2)
    assert sel.selected_pairs == ()
    assert sel.retained_basis == (0, 1)
    assert sel.star_pairs == ((0, 1), (0, 2))
    ring = comp.ring
    assert sel.a_coeffs[(0, 1)] == {}
    assert sel.b_coeffs[(0, 1)] == {1: ring.parse("x")}
    assert sel.b_coeffs[(0, 2)] == {0: ring.parse("-y")}


def test_select_basis_unit_pivots():
    comp, sop = vanishing_top_instance()
    dec = decompose_images(comp, sop)
    sel = select_basis(dec, comp.module(1), 2)
    assert set(sel.selected_pairs) == {(0, 1), (0, 2)}
    assert sel.retained_basis == ()
    assert sel.star_pairs == ()


def test_select_basis_counts(small_corpus):
    for name, comp, sop in small_corpus:
        if comp.top_rank() == 0:
            continue
        dec = decompose_images(comp, sop)
        sel = select_basis(dec, comp.module(comp.length - 1), comp.length)
        assert len(sel.selected_pairs) + len(sel.retained_basis) == comp.module(
            comp.length - 1
        ).rank, name
        for (mu, j), b_part in sel.b_coeffs.items():
            f = comp.ring.field
            for b in b_part.values():
                assert f.is_zero(b.constant_coeff()), name


def test_select_basis_square_ideal_mixed():
    comp, sop = square_ideal_instance()
    dec = decompose_images(comp, sop)
    sel = select_basis(dec, comp.module(1), 2)
    assert len(sel.selected_pairs) == 3
    assert sel.retained_basis == ()
    assert sel.star_pairs == ((1, 2),)
    # the leftover vector is a combination of the selected ones
    a = sel.a_coeffs[(1, 2)]
    assert a  # nonzero coefficients on selected pairs


# -- star top and full transform ----------------------------------------------


def test_exa_star_top_values(exa, exa_chain_map):
    comp, sop = exa
    ring = comp.ring
    cm = exa_chain_map
    cone = mapping_cone(cm)
    split = split_top(cone, cm)
    sel = select_basis(cm.decomposition, comp.module(1), 2)
    top = build_star_top(sel, split, cm)
    assert top.top_module.rank == 2
    cols = [top.top_map.column(j) for j in range(2)]
    assert cols[0] == (ring.parse("-y"), ring.zero(), ring.parse("x"))
    assert cols[1] == (ring.parse("x"), ring.parse("-y"), ring.zero())
    assert top.top_labels == (("star", 0, 1), ("star", 0, 2))


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
    assert submodule_equal(star.complex.image_gb(1), expected)
    assert not star.depth_positive_fastpath
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
            star.complex.image_gb(1), colon(comp.image_gb(1), sop.gens)
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
    assert submodule_equal(star.complex.image_gb(1), expected)


def test_vanishing_top_fast_path():
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop)
    star = res.star
    assert star.complex.module(2).rank == 0
    assert star.depth_positive_fastpath
    assert star.complex.effective_length() <= 1
    from startrans import depth_positive_check

    assert depth_positive_check(star.complex.image_gb(1))
    # consequence: a further colon by the irrelevant ideal is stable
    colon_gb = colon(comp.image_gb(1), sop.gens)
    m_vars = [comp.ring.var(i) for i in range(comp.ring.nvars)]
    assert submodule_equal(colon(colon_gb, m_vars), colon_gb)


def test_degenerate_zero_top_is_identity():
    comp, sop = padded_zero_top_instance()
    res = star_transform(comp, sop)
    assert res.star.complex.modules == comp.modules
    assert res.star.complex.maps == comp.maps
    assert res.report.overall
    m_gb = comp.image_gb(1)
    assert submodule_equal(colon(m_gb, sop.gens), m_gb)


def test_direct_sum_mixed_selection():
    comp, sop = direct_sum_instance()
    res = star_transform(comp, sop)
    star = res.star
    assert res.report.overall
    assert set(star.selected_pairs) == {(0, 1), (0, 2)}
    assert set(star.star_pairs) == {(1, 1), (1, 2)}


def test_choice_independence_of_colon_image(exa):
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
    recombined = target.zero_vector()
    for x, v in zip(sop.gens, alt[0]):
        recombined = recombined + v.mul_poly(x)
    assert recombined == target.vector(comp.phi(2).column(0))

    default_res = star_transform(comp, sop)
    alt_res = star_transform(comp, sop, decomposition=alt)
    assert alt_res.report.overall
    assert submodule_equal(
        default_res.star.complex.image_gb(1),
        alt_res.star.complex.image_gb(1),
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
    zero = PolyMatrix.zeros(ring, 1, 1)
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
