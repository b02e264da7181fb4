"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact everywhere; runtime bounds are asserted where
stated."""

import time
from math import comb

import pytest

import brute
from reference import (
    all_match,
    expand,
    identity_matrix,
    reference_decomposition,
    restricted_top_map,
    squares_commute,
    stages,
    top_is_signed_identity,
)
from startrans import (
    GradedFreeModule,
    buchberger,
    certify_acyclic,
    colon,
    colon_quotient_count,
    decompose_images,
    depth_positive_check,
    hilbert_data,
    intersect,
    star_iteration_driver,
    star_transform,
    submodule_equal,
)
from startrans.complexes import co_singleton, composition_defect, sign_scalar
from startrans.instances import corpus, exa_instance, vanishing_top_instance
from startrans.poly import PolyMatrix


@pytest.fixture(scope="module")
def full_corpus():
    return corpus(count=20)


@pytest.fixture(scope="module")
def corpus_results(full_corpus):
    out = []
    for name, comp, sop in full_corpus:
        out.append((name, comp, sop, star_transform(comp, sop)))
    return out


def _report(criterion, name, passed):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} ({name}) failed"


def test_criterion_1_exa_end_to_end():
    start = time.perf_counter()
    comp, sop = exa_instance()
    res = star_transform(comp, sop)
    star = res.star
    ring = comp.ring
    ambient = comp.module(0)

    oracle = colon(comp.image_gb(), sop.gens)
    expected = buchberger(
        ambient,
        [ambient.vector((ring.parse(t),)) for t in ("x^2", "x*y", "y^2")],
    )
    ok = submodule_equal(star.complex.image_gb(), oracle)
    ok = ok and submodule_equal(oracle, expected)
    ok = ok and star.complex.module(2).rank == 2
    ok = ok and star.complex.module(1).rank == 3
    f = ring.field
    top_map = star.complex.phi(2)
    ok = ok and all(
        f.is_zero(top_map.entry(i, j).constant_coeff())
        for i in range(top_map.nrows)
        for j in range(top_map.ncols)
    )
    ok = ok and certify_acyclic(star.complex).ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "EX-A end-to-end", ok)


def test_criterion_2_quotient_dimension_counts(corpus_results):
    start = time.perf_counter()
    ok = True
    randomized = 0
    for name, comp, sop, res in corpus_results:
        m_gb = comp.image_gb()
        passed, detail = colon_quotient_count(
            m_gb.series(), colon(m_gb, sop.gens).series(), sop, comp.top_rank()
        )
        ok = ok and passed
        if name.startswith("random_"):
            randomized += 1
        if name == "exa" or name == "ci3":
            ok = ok and detail == "dim (M:Q)/M = 1, expected 1"
    ok = ok and randomized >= 20
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(2, "quotient dimension counts", ok)


def test_criterion_3_chain_map_structure(corpus_results):
    start = time.perf_counter()
    ok = True
    for name, comp, sop, res in corpus_results:
        cm = stages(comp, sop).chain_map
        # level n - 1 against the decomposition lifted entry by entry, not
        # against ``decompose_images``, which reads the chain map's own
        # elements
        dec = reference_decomposition(comp, sop)
        ok = ok and squares_commute(cm)
        n = comp.length
        ok = ok and top_is_signed_identity(cm)
        f = comp.ring.field
        for lam in range(comp.top_rank()):
            for i in range(1, n + 1):
                expected = dec[lam][i - 1].scale(sign_scalar(f, n + i - 1))
                ok = ok and cm.elements[(lam, co_singleton(i, n))] == expected
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(3, "chain map structural suite", ok)


def test_criterion_4_cone_and_split(corpus_results):
    ok = True
    for name, comp, sop, res in corpus_results:
        st = stages(comp, sop)
        cone = st.cone
        ok = ok and composition_defect(cone) is None
        ok = ok and certify_acyclic(cone).ok
        ok = ok and certify_acyclic(st.split).ok
        # the last top_rank rows of the last cone map are (-1)^n * level n
        k = comp.top_rank()
        top_rows = PolyMatrix(comp.ring, cone.maps[comp.length].entries[-k:])
        ok = ok and top_rows == identity_matrix(comp.ring, k)
        if not ok:
            break
    _report(4, "cone and split suite", ok)


def test_criterion_5_basis_and_top_map(corpus_results):
    ok = True
    for name, comp, sop, res in corpus_results:
        star = res.star
        n = comp.length
        st = stages(comp, sop)
        ok = ok and len(star.selected_pairs) + len(
            st.selection.retained_basis
        ) == comp.module(n - 1).rank
        # the eliminated top map equals the split map restricted to the new
        # basis that residue pivots and Groebner lifts select, re-expressed
        # in the selected free basis
        ok = ok and star.complex.phi(n) == restricted_top_map(st.split, st.chain_map)
        # rank accounting
        for p in range(1, n - 1):
            ok = ok and star.complex.module(p).rank == comp.top_rank() * comb(
                n, p - 1
            ) + comp.module(p).rank
        ok = ok and star.complex.module(n - 1).rank == comp.top_rank() * comb(
            n, n - 2
        ) + len(star.retained_basis)
        ok = ok and star.complex.module(n).rank == n * comp.top_rank() - len(
            star.selected_pairs
        )
        # top-map minimality
        f = comp.ring.field
        top_map = star.complex.phi(n)
        ok = ok and all(
            f.is_zero(top_map.entry(i, j).constant_coeff())
            for i in range(top_map.nrows)
            for j in range(top_map.ncols)
        )
        if not ok:
            break
    _report(5, "basis selection and top map suite", ok)


def test_criterion_6_vanishing_top_fast_path():
    comp, sop = vanishing_top_instance()
    res = star_transform(comp, sop)
    star = res.star
    ok = star.complex.module(2).rank == 0
    ok = ok and star.top_rank() == 0
    ok = ok and depth_positive_check(star.complex.image_gb())
    # the decomposition vectors are signed standard basis vectors
    dec = decompose_images(comp, sop)
    ring = comp.ring
    ok = ok and dec[0][0].coords == (ring.zero(), ring.one())
    ok = ok and dec[0][1].coords == (ring.parse("-1"), ring.zero())
    _report(6, "vanishing top fast path", ok)


def test_criterion_7_oracle_cross_validation(full_corpus):
    start = time.perf_counter()
    ok = True
    for name, comp, sop in full_corpus:
        ring = comp.ring
        ambient = comp.module(0)
        m_cols = [
            ambient.vector(comp.phi(1).column(j))
            for j in range(comp.phi(1).ncols)
        ]
        m_gb = buchberger(ambient, m_cols)
        # colon against dense brute force
        colon_gb = colon(m_gb, sop.gens)
        for d in range(0, 7):
            expected = brute.brute_colon_basis(m_cols, list(sop.gens), ambient, d)
            ok = ok and brute.span_dimension(
                list(colon_gb.gb), ambient, d
            ) == len(expected)
            ok = ok and brute.span_contained(
                list(colon_gb.gb), expected, ambient, d
            )
        # intersection with Q * F0 against dense dimension counting
        q_gens = [
            ambient.basis_vector(i).mul_poly(q)
            for i in range(ambient.rank)
            for q in sop.gens
        ]
        q_gb = buchberger(ambient, q_gens)
        both = intersect(m_gb, q_gb)
        for d in range(0, 7):
            dim_m = brute.span_dimension(m_cols, ambient, d)
            dim_q = brute.span_dimension(q_gens, ambient, d)
            dim_sum = brute.span_dimension(m_cols + q_gens, ambient, d)
            ok = ok and brute.span_dimension(
                list(both.gb), ambient, d
            ) == dim_m + dim_q - dim_sum
        # hilbert function against dense quotient dimensions
        series = expand(hilbert_data(m_gb).series, 6)
        for d in range(0, 7):
            ok = ok and series.get(d, 0) == brute.brute_quotient_dimension(
                m_cols, ambient, d
            )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(7, "oracle cross-validation", ok)


def test_criterion_8_iteration_driver():
    comp, sop = exa_instance()
    driver = star_iteration_driver(comp, sop, 2)
    ring = comp.ring
    R1 = GradedFreeModule(ring, 1, (0,))
    expected = buchberger(
        R1, [R1.vector((ring.var(0),)), R1.vector((ring.var(1),))]
    )
    ok = len(driver.rounds) == 2
    ok = ok and all_match(driver)
    ok = ok and submodule_equal(
        driver.rounds[1].result.star.complex.image_gb(), expected
    )
    _report(8, "iteration driver", ok)
