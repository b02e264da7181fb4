import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from reference import add_vectors, unpack, zero_vector
from startrans import (
    DimensionMismatch,
    FreeComplex,
    GradedFreeModule,
    NotInModule,
    PolyMatrix,
    PolyRing,
    PrimeField,
    RationalField,
    buchberger,
    colon,
    hilbert_data,
    intersect,
    lift_witness,
    normal_form,
    submodule_equal,
    syzygies,
    validate_sop,
)
from startrans.modules import (
    _divide,
    _pair_loop,
    _RowTable,
    _work,
    ideal_gb,
    reduce_mod_quotient,
    term_key,
)


@pytest.fixture
def ring():
    return PolyRing(RationalField(), ("x", "y"))


@pytest.fixture
def R1(ring):
    return GradedFreeModule(ring, 1, (0,))


def vec(R1, s):
    return R1.vector((R1.ring.parse(s),))


def ideal(R1, *texts):
    return buchberger(R1, [vec(R1, t) for t in texts])


def gb_polys(gb):
    return sorted(str(v.coords[0]) for v in gb.gb)


# -- buchberger ---------------------------------------------------------


def test_monomial_generators_already_basis(R1):
    gb = ideal(R1, "x^2", "y^2")
    assert gb_polys(gb) == ["x^2", "y^2"]


def test_sum_and_difference_reduce_to_variables(R1):
    # hand oracle: S(x+y, x-y) = 2y, then x+y - y reduces to x
    gb = ideal(R1, "x+y", "x-y")
    assert gb_polys(gb) == ["x", "y"]


def test_single_generator_normalized_monic(R1):
    gb = ideal(R1, "3*x^2 - 6*y^2")
    assert gb_polys(gb) == ["x^2 - 2*y^2"]


def test_buchberger_deterministic(R1):
    a = ideal(R1, "x^2+y^2", "x*y", "y^3")
    b = ideal(R1, "x^2+y^2", "x*y", "y^3")
    assert [v.coords for v in a.gb] == [v.coords for v in b.gb]


def test_module_rank_two_groebner(ring):
    # leads in different positions never pair; same-position pairs do
    F = GradedFreeModule(ring, 2, (0, 0))
    x, y = ring.var(0), ring.var(1)
    gens = [
        F.vector((x * x, y)),
        F.vector((x * y, ring.zero())),
        F.vector((ring.zero(), y * y)),
    ]
    gb = buchberger(F, gens)
    for g in gens:
        assert gb.contains(g)
    # cross-check membership degreewise against the dense oracle
    for d in range(0, 6):
        for g in gb.gb:
            if g.homogeneous_degree() == d:
                assert brute.brute_membership(g, gens)


# -- normal form --------------------------------------------------------


def test_normal_form_of_generators_is_zero(R1):
    gb = ideal(R1, "x^2", "y^2")
    for t in ("x^2", "y^2", "x^2+y^2"):
        assert normal_form(vec(R1, t), gb).is_zero()


def test_normal_form_untouched_when_no_lead_divides(R1):
    gb = ideal(R1, "x^2", "y^2")
    assert normal_form(vec(R1, "x*y"), gb) == vec(R1, "x*y")


def test_normal_form_reduces_multiple(R1):
    gb = ideal(R1, "x^2", "y^2")
    assert normal_form(vec(R1, "x^2*y"), gb).is_zero()


def test_normal_form_zero_iff_lift_succeeds(R1, ring):
    gens = [vec(R1, "x^2 - y^2"), vec(R1, "x*y + y^2")]
    gb = buchberger(R1, gens)
    rng = random.Random(13)
    for _ in range(30):
        terms = [
            (
                (rng.randint(0, 3), rng.randint(0, 3)),
                ring.field.from_int(rng.randint(-3, 3)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        v = R1.vector((ring.from_terms(terms),))
        nf_zero = normal_form(v, gb).is_zero()
        try:
            lift_witness(v, gens, gb=gb)
            lifted = True
        except NotInModule:
            lifted = False
        assert nf_zero == lifted


# -- lift witness --------------------------------------------------------


def test_lift_of_generator_recombines(R1):
    gens = [vec(R1, "x^2"), vec(R1, "y^2")]
    w = lift_witness(gens[0], gens)
    acc = zero_vector(R1)
    for c, g in zip(w, gens):
        acc = add_vectors(acc, g.mul_poly(c))
    assert acc == gens[0]


def test_lift_direct_division(R1, ring):
    w = lift_witness(vec(R1, "x^2*y"), [vec(R1, "x^2"), vec(R1, "y^2")])
    assert w == (ring.parse("y"), ring.zero())


def test_lift_not_in_module(R1):
    # degree-2 brute force: span of {x^2, y^2} in degree 2 misses xy
    gens = [vec(R1, "x^2"), vec(R1, "y^2")]
    assert not brute.brute_membership(vec(R1, "x*y"), gens)
    with pytest.raises(NotInModule):
        lift_witness(vec(R1, "x*y"), gens)


@pytest.mark.parametrize("twists", [(1,), (0, 0)])
def test_a_vector_of_another_module_is_a_dimension_mismatch(R1, twists):
    # a caller's error, not NotInModule and not an engine bug
    gb = buchberger(R1, [vec(R1, "x")])
    other = GradedFreeModule(R1.ring, len(twists), twists)
    xy = R1.ring.parse("x*y")
    v = other.vector((xy,) + (R1.ring.zero(),) * (len(twists) - 1))
    for call in (gb.lift, gb.normal_form, gb.contains, lambda v: normal_form(v, gb)):
        with pytest.raises(DimensionMismatch, match="outside the ambient module"):
            call(v)
    # an equal module that is another object is the same ambient
    same = GradedFreeModule(R1.ring, 1, (0,))
    assert same is not R1
    assert gb.lift(same.vector((xy,))) == (R1.ring.parse("y"),)


def _with_quotient(field, names, quotient):
    ring = PolyRing(field, names)
    return ring.with_quotient([ring.parse(t) for t in quotient])


TRACKING_RINGS = {
    "p:7[x,y,z]": lambda: PolyRing(PrimeField(7), ("x", "y", "z")),
    "Q[x,y]": lambda: PolyRing(RationalField(), ("x", "y")),
    "Q[x,y] weights (1,2)": lambda: PolyRing(RationalField(), ("x", "y"), (1, 2)),
    "Q[x,y,z]/(z^2)": lambda: _with_quotient(
        RationalField(), ("x", "y", "z"), ("z^2",)
    ),
    "p:7[x,y,z]/(xz,y^3)": lambda: _with_quotient(
        PrimeField(7), ("x", "y", "z"), ("x*z", "y^3")
    ),
}


def _random_vectors(draw, ambient):
    """Up to 4 random homogeneous vectors of degree 1 to 3 in ``ambient``."""
    ring = ambient.ring
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        coords = []
        for twist in ambient.twists:
            monos = brute.monomials_of_degree(ring, d - twist)
            chosen = draw(
                st.lists(st.sampled_from(monos), max_size=3, unique=True)
                if monos
                else st.just([])
            )
            coords.append(
                ring.from_terms(
                    (m, ring.field.from_int(draw(st.integers(-3, 3))))
                    for m in chosen
                )
            )
        gens.append(ambient.vector(coords))
    return gens


@st.composite
def generator_lists(draw):
    """(ring name, ambient, generators): up to 4 random homogeneous vectors
    in a free module of rank 1 or 2 with twists (0, 1)."""
    name = draw(st.sampled_from(sorted(TRACKING_RINGS)))
    ring = TRACKING_RINGS[name]()
    rank = draw(st.integers(1, 2))
    ambient = GradedFreeModule(ring, rank, (0, 1)[:rank])
    return name, ambient, _random_vectors(draw, ambient)


def _multiplied_out(table):
    """The indices of the recipe rows of ``table`` that are built."""
    return {
        k
        for k, (recipe, row) in enumerate(zip(table.recipes, table.built))
        if recipe is not None and row is not None
    }


def _assert_witness(gens, v, witness, name):
    """sum witness[i] * gens[i] == v, modulo J over R/J."""
    ring = v.module.ring
    for t in range(v.module.rank):
        total = ring.zero()
        for c, g in zip(witness, gens):
            total = total + c * g.coords[t]
        assert reduce_mod_quotient(ring, total - v.coords[t]).is_zero(), name


def _minimal_leads(ambient, leads):
    """The (position, monomial) of the leads that no other lead divides: the
    minimal generators of the monomial submodule ``leads`` span."""
    divides = ambient.ring.mono_divides
    terms = {lead[:2] for lead in leads}
    return {
        a
        for a in terms
        if not any(b != a and b[0] == a[0] and divides(b[1], a[1]) for b in terms)
    }


@settings(max_examples=40, deadline=None)
@given(generator_lists())
def test_untracked_basis_equals_the_tracked_one(problem):
    # the floored run keeps no rows and divides only down to the leads; under
    # the zero floor it runs every pair, under the exact series it stops
    # early, and its leads span the same lead module as the reduced basis,
    # which runs strictly largest lead first (ascending ``term_key``)
    name, ambient, gens = problem
    tracked = buchberger(ambient, gens)
    keys = [term_key(ambient, pos, m) for pos, m, _ in tracked.leads]
    assert all(a < b for a, b in zip(keys, keys[1:])), name
    exact = tracked.series()
    for floor in (exact.sub(exact), exact):
        _, basis, table, series = _pair_loop(ambient, tuple(gens), floor)
        assert table is None, name
        assert series == exact, name
        leads = [g.lead() for g in basis]
        assert _minimal_leads(ambient, leads) == {
            lead[:2] for lead in tracked.leads
        }, name


def test_colon_and_intersection_bases_carry_no_rows(R1):
    # both keep the recipes of their run, multiply none of them out when
    # built, and lift their own generators
    ring = R1.ring
    a = ideal(R1, "x^2", "x*y")
    b = ideal(R1, "y^2", "x*y")
    quotient = colon(a, [ring.parse("x"), ring.parse("y")])
    meet = intersect(a, b)
    # hand oracles: (x^2, xy) : (x, y) = (x), (x^2, xy) meet (y^2, xy) = (xy)
    assert gb_polys(quotient) == ["x"]
    assert gb_polys(meet) == ["x*y"]
    for gb in (quotient, meet):
        assert not _multiplied_out(gb.row_table)
        for g in gb.generators:
            _assert_witness(gb.generators, g, gb.lift(g), repr(gb))


@settings(max_examples=25, deadline=None)
@given(generator_lists(), st.data())
def test_every_basis_lifts_its_generators_and_builds_no_row_until_then(
    problem, data
):
    # every basis keeps its recipes, so each one can be lifted through, and
    # none multiplies out a row before a lift reaches it
    name, ambient, gens = problem
    ring = ambient.ring
    m_gb = buchberger(ambient, gens)
    other = buchberger(ambient, _random_vectors(data.draw, ambient))
    q_polys = [
        ring.from_terms([(m, ring.field.one)])
        for m in data.draw(
            st.lists(
                st.sampled_from(brute.monomials_of_degree(ring, 1)),
                min_size=1, max_size=2, unique=True,
            )
        )
    ]
    f1 = GradedFreeModule(
        ring, len(gens), tuple(g.homogeneous_degree() or 0 for g in gens)
    )
    columns = PolyMatrix(ring, zip(*(g.coords for g in gens)), ambient.rank)
    comp = FreeComplex(ring, (ambient, f1), (columns,))
    bases = {
        "buchberger": m_gb,
        "colon": colon(m_gb, q_polys),
        "intersect": intersect(m_gb, other),
        "image_gb": comp.image_gb(1),
    }
    if ambient.rank == 1:
        bases["ideal_gb"] = ideal_gb(ring, [g.coords[0] for g in gens])
    for label, gb in bases.items():
        assert not _multiplied_out(gb.row_table), (name, label)
        for g in gb.generators:
            # lift raises InternalError unless its witness recombines
            _assert_witness(gb.generators, g, gb.lift(g), (name, label))


@settings(max_examples=30, deadline=None)
@given(generator_lists(), st.data())
def test_rows_multiplied_out_in_any_order_are_the_same(problem, data):
    name, ambient, gens = problem
    in_order = buchberger(ambient, gens)
    shuffled = buchberger(ambient, gens)
    assert not _multiplied_out(in_order.row_table), name
    size = len(in_order.row_table.built)
    expected = [in_order.row_table.row(k) for k in range(size)]
    for k in data.draw(st.permutations(range(size))):
        shuffled.row_table.row(k)
    assert shuffled.row_table.built == expected, name
    assert [shuffled.row_table.row(k) for k in shuffled.row_ids] == [
        in_order.row_table.row(k) for k in in_order.row_ids
    ], name
    for v in list(gens) + list(in_order.gb):
        # checks its own recombination
        _assert_witness(gens, v, shuffled.lift(v), name)


def _parameters_and_generators():
    """Generic parameters of Q[x,y,z], products of two linear forms, and
    the Koszul generators q_i * x_i built from them."""
    ring = PolyRing(RationalField(), ("x", "y", "z"))
    pairs = [("x + 2*y - z", "3*x - y + z"), ("x - y + 4*z", "2*x + y"),
             ("y - 3*z", "x + y + z")]
    params = [ring.parse(a) * ring.parse(b) for a, b in pairs]
    gens = [q * ring.var(i) for i, q in enumerate(params)]
    return ring, params, gens


def test_validation_multiplies_out_no_row_and_a_lift_only_what_it_reaches():
    ring, params, gens = _parameters_and_generators()
    table = validate_sop(ring, gens).ideal_gb().row_table
    assert any(r is not None for r in table.recipes)
    assert not _multiplied_out(table)

    gb = validate_sop(ring, params).ideal_gb()
    table = gb.row_table
    assert not _multiplied_out(table)
    v = gb.ambient.vector((ring.parse("z^4"),))
    quots, _ = _divide(v.module, _work(v), gb.gb, track=True)
    reached, stack = set(), [gb.row_ids[k] for k in quots]
    while stack:
        k = stack.pop()
        if k not in reached and table.recipes[k] is not None:
            reached.add(k)
            stack += [i for _, i in table.recipes[k]]
    gb.lift(v)
    assert _multiplied_out(table) == reached
    assert len(reached) < sum(r is not None for r in table.recipes)


def test_a_long_chain_of_recipes_multiplies_out_without_recursion():
    ring = PolyRing(RationalField(), ("x",))
    table = _RowTable(ring, 1)
    table.unit(0)
    x = ring.var(0).terms
    for k in range(5000):
        table.add([(x, k)])  # row k + 1 is x times row k
    assert table.row(5000) == (ring.monomial((5000,)),)
    assert len(_multiplied_out(table)) == 5000


def test_lift_recombination_random(R1, ring):
    rng = random.Random(99)
    gens = [vec(R1, "x^2+x*y"), vec(R1, "y^3"), vec(R1, "x*y^2 - x^3")]
    gb = buchberger(R1, gens)
    for _ in range(20):
        combo = zero_vector(R1)
        for g in gens:
            terms = [
                (
                    (rng.randint(0, 2), rng.randint(0, 2)),
                    ring.field.from_int(rng.randint(-2, 2)),
                )
                for _ in range(rng.randint(0, 2))
            ]
            combo = add_vectors(combo, g.mul_poly(ring.from_terms(terms)))
        w = lift_witness(combo, gens, gb=gb)
        acc = zero_vector(R1)
        for c, g in zip(w, gens):
            acc = add_vectors(acc, g.mul_poly(c))
        assert acc == combo


# -- syzygies -------------------------------------------------------------


def test_syzygies_of_identity_columns_empty(ring):
    F = GradedFreeModule(ring, 2, (0, 0))
    gens = [F.basis_vector(0), F.basis_vector(1)]
    assert syzygies(gens) == []


def test_syzygies_of_repeated_generator(R1, ring):
    rels = syzygies([vec(R1, "x"), vec(R1, "x")])
    assert len(rels) == 1
    assert rels[0].coords in (
        (ring.one(), -ring.one()),
        (-ring.one(), ring.one()),
    )


def test_syzygies_koszul_relation(R1, ring):
    # brute degreewise kernel up to degree 4 is spanned by (-y^2, x^2)
    gens = [vec(R1, "x^2"), vec(R1, "y^2")]
    rels = syzygies(gens)
    assert len(rels) == 1
    c = rels[0].coords
    assert c in (
        (ring.parse("y^2"), ring.parse("-x^2")),
        (ring.parse("-y^2"), ring.parse("x^2")),
    )
    for d in range(0, 5):
        kernel = brute.brute_kernel_basis(gens, R1, d)
        syz_module = rels[0].module
        for k in kernel:
            assert brute.brute_membership(syz_module.vector(k), rels)


def test_syzygies_annihilate_and_are_complete(R1):
    gens = [vec(R1, "x^2"), vec(R1, "x*y"), vec(R1, "y^2")]
    rels = syzygies(gens)
    for r in rels:
        acc = zero_vector(R1)
        for c, g in zip(r.coords, gens):
            acc = add_vectors(acc, g.mul_poly(c))
        assert acc.is_zero()
    syz_module = rels[0].module
    for d in range(0, 7):
        for k in brute.brute_kernel_basis(gens, R1, d):
            assert brute.brute_membership(syz_module.vector(k), rels)


def test_syzygies_with_zero_generator(R1):
    rels = syzygies([vec(R1, "x"), zero_vector(R1)])
    syz_module = rels[0].module
    assert any(r.coords[1].terms and not r.coords[0].terms for r in rels)
    for r in rels:
        acc = vec(R1, "x").mul_poly(r.coords[0])
        assert acc.is_zero()


@settings(max_examples=40, deadline=None)
@given(generator_lists())
def test_syzygies_against_dense_kernels(problem):
    # over R/J a relation holds modulo J: the dense side takes the kernel of
    # [gens | J*F] and cuts it to the gens block; zero generators stay out
    # of it, and their unit relations are checked on their own
    name, ambient, gens = problem
    ring = ambient.ring
    jf = [
        ambient.basis_vector(i).mul_poly(g)
        for g in ring.quotient
        for i in range(ambient.rank)
    ]
    rels = syzygies(gens, ambient)
    syz_module = GradedFreeModule(
        ring, len(gens), tuple(g.homogeneous_degree() or 0 for g in gens)
    )
    for r in rels:
        assert r.module.twists == syz_module.twists, name
        acc = zero_vector(ambient)
        for c, g in zip(r.coords, gens):
            acc = add_vectors(acc, g.mul_poly(c))
        assert brute.brute_membership(acc, jf), name
    nonzero = [k for k, g in enumerate(gens) if not g.is_zero()]
    for k, g in enumerate(gens):
        if g.is_zero():
            assert brute.brute_membership(syz_module.basis_vector(k), rels), name
    for d in range(0, 6):
        kernel = brute.brute_kernel_basis([gens[k] for k in nonzero] + jf, ambient, d)
        for parts in kernel:
            coords = [ring.zero()] * len(gens)
            for k, c in zip(nonzero, parts):
                coords[k] = c
            v = syz_module.vector(coords)
            assert brute.brute_membership(v, rels), (name, d)


def test_syzygies_modulo_the_quotient_ideal():
    # over Q[x,y,z]/(z^2), z*z = 0: the relation needs the adjoined
    # J-multiple z^2*e_1, which is not in the reduced basis
    ring = _with_quotient(RationalField(), ("x", "y", "z"), ("z^2",))
    R1 = GradedFreeModule(ring, 1, (0,))
    rels = syzygies([R1.vector((ring.parse("z"),))])
    assert [str(r.coords[0]) for r in rels] == ["z"]


# -- colon ----------------------------------------------------------------


def test_colon_by_unit_is_identity(R1, ring):
    m = ideal(R1, "x^2", "y^2")
    assert submodule_equal(colon(m, [ring.one()]), m)


def test_colon_single_element(R1):
    m = ideal(R1, "x^2", "y^2")
    c = colon(m, [R1.ring.parse("x")])
    assert submodule_equal(c, ideal(R1, "x", "y^2"))


def test_colon_by_ideal(R1):
    m = ideal(R1, "x^2", "y^2")
    c = colon(m, [R1.ring.parse("x"), R1.ring.parse("y")])
    assert submodule_equal(c, ideal(R1, "x^2", "x*y", "y^2"))


def test_colon_monotone(R1):
    m = ideal(R1, "x^3", "x*y", "y^2")
    c = colon(m, [R1.ring.parse("x"), R1.ring.parse("y")])
    for g in m.gb:
        assert c.contains(g)


def test_colon_against_brute_force(R1, ring):
    cases = [
        (("x^2", "y^2"), ("x",)),
        (("x^2", "y^2"), ("x", "y")),
        (("x^3", "x*y"), ("x", "y")),
        (("x^2*y", "y^3"), ("y",)),
    ]
    for m_texts, q_texts in cases:
        m_gens = [vec(R1, t) for t in m_texts]
        q_polys = [ring.parse(t) for t in q_texts]
        result = colon(buchberger(R1, m_gens), q_polys)
        for d in range(0, 7):
            expected = brute.brute_colon_basis(m_gens, q_polys, R1, d)
            got_dim = brute.span_dimension(list(result.gb), R1, d)
            assert got_dim == len(expected), (m_texts, q_texts, d)
            assert brute.span_contained(list(result.gb), expected, R1, d)


# -- intersect -------------------------------------------------------------


def test_intersect_principal_ideals(R1):
    a = ideal(R1, "x")
    b = ideal(R1, "y")
    assert gb_polys(intersect(a, b)) == ["x*y"]


def test_intersect_self_and_whole(R1):
    m = ideal(R1, "x^2", "x*y")
    assert submodule_equal(intersect(m, m), m)
    whole = ideal(R1, "1")
    assert submodule_equal(intersect(m, whole), m)


def test_intersect_against_brute_force(R1, ring):
    cases = [
        (("x",), ("y",)),
        (("x^2", "y^2"), ("x*y",)),
        (("x^2", "x*y"), ("y^2", "x*y")),
        (("x+y",), ("x-y",)),
    ]
    for a_texts, b_texts in cases:
        a_gens = [vec(R1, t) for t in a_texts]
        b_gens = [vec(R1, t) for t in b_texts]
        result = intersect(buchberger(R1, a_gens), buchberger(R1, b_gens))
        for d in range(0, 7):
            dim_a = brute.span_dimension(a_gens, R1, d)
            dim_b = brute.span_dimension(b_gens, R1, d)
            dim_sum = brute.span_dimension(a_gens + b_gens, R1, d)
            expected_dim = dim_a + dim_b - dim_sum
            assert brute.span_dimension(list(result.gb), R1, d) == expected_dim
            for g in result.gb:
                if g.homogeneous_degree() == d:
                    assert brute.brute_membership(g, a_gens)
                    assert brute.brute_membership(g, b_gens)


def test_intersect_module_rank_two(ring):
    F = GradedFreeModule(ring, 2, (0, 0))
    x, y = ring.var(0), ring.var(1)
    a_gens = [F.vector((x, ring.zero())), F.vector((ring.zero(), y))]
    b_gens = [F.vector((y, ring.zero())), F.vector((ring.zero(), y))]
    result = intersect(buchberger(F, a_gens), buchberger(F, b_gens))
    for d in range(0, 6):
        dim_a = brute.span_dimension(a_gens, F, d)
        dim_b = brute.span_dimension(b_gens, F, d)
        dim_sum = brute.span_dimension(a_gens + b_gens, F, d)
        assert (
            brute.span_dimension(list(result.gb), F, d)
            == dim_a + dim_b - dim_sum
        )


@st.composite
def generator_list_pairs(draw):
    """(ring name, ambient, a generators, b generators) in one ambient."""
    name, ambient, a_gens = draw(generator_lists())
    return name, ambient, a_gens, _random_vectors(draw, ambient)


@settings(max_examples=40, deadline=None)
@given(generator_list_pairs())
def test_intersect_against_dense_spans(problem):
    # over R/J the dense side works in R, on submodules plus J*F
    name, ambient, a_gens, b_gens = problem
    jf = [
        ambient.basis_vector(i).mul_poly(g)
        for g in ambient.ring.quotient
        for i in range(ambient.rank)
    ]
    a_full, b_full = a_gens + jf, b_gens + jf
    result = intersect(buchberger(ambient, a_gens), buchberger(ambient, b_gens))
    for d in range(0, 7):
        expected_dim = (
            brute.span_dimension(a_full, ambient, d)
            + brute.span_dimension(b_full, ambient, d)
            - brute.span_dimension(a_gens + b_full, ambient, d)
        )
        got_dim = brute.span_dimension(list(result.gb), ambient, d)
        assert got_dim == expected_dim, (name, d)
    for g in result.gb:
        assert brute.brute_membership(g, a_full), name
        assert brute.brute_membership(g, b_full), name


@pytest.mark.parametrize(
    "make_ring",
    [
        lambda: PolyRing(RationalField(), ("x", "y")),
        lambda: _with_quotient(RationalField(), ("x", "y", "z"), ("z^2",)),
    ],
    ids=["Q[x,y]", "Q[x,y,z]/(z^2)"],
)
def test_colon_and_intersect_with_the_zero_submodule(make_ring):
    # the zero submodule has no generators; over R/J its basis is J*F
    ring = make_ring()
    F = GradedFreeModule(ring, 2, (0, 1))
    x, y = ring.var(0), ring.var(1)
    zero = buchberger(F, [])
    a = buchberger(F, [F.vector((x, ring.zero())), F.vector((x * y, x))])
    for result in (intersect(zero, a), intersect(a, zero), intersect(zero, zero)):
        assert submodule_equal(result, zero)
    # x and y are nonzerodivisors on R and on R/(z^2)
    assert submodule_equal(colon(zero, [x]), zero)
    assert submodule_equal(colon(zero, [x, y]), zero)


# -- submodule equality ----------------------------------------------------


def test_submodule_equal_reflexive_and_strict(R1):
    m = ideal(R1, "x")
    assert submodule_equal(m, m)
    assert not submodule_equal(ideal(R1, "x"), ideal(R1, "x^2"))


def test_submodule_equal_different_generators(R1):
    assert submodule_equal(ideal(R1, "x+y", "x-y"), ideal(R1, "x", "y"))


# -- hilbert ----------------------------------------------------------------


def test_hilbert_point(R1):
    assert hilbert_data(ideal(R1, "x", "y")).dimension == 1


def test_hilbert_square(R1):
    # standard monomials 1, x, y, xy
    assert hilbert_data(ideal(R1, "x^2", "y^2")).dimension == 4


def test_hilbert_infinite_line(R1):
    data = hilbert_data(ideal(R1, "x"))
    assert data.dimension is None
    values = data.series.expand(10)
    assert all(values.get(d, 0) == 1 for d in range(0, 11))


def test_hilbert_matches_standard_monomial_enumeration(R1, ring):
    cases = [
        ("x^2", "y^3"),
        ("x^2", "x*y"),
        ("x^3", "x*y^2", "y^4"),
        ("x^2 - y^2", "x*y"),
    ]
    for texts in cases:
        gb = ideal(R1, *texts)
        series = hilbert_data(gb).series.expand(10)
        leads = [g.lead() for g in gb.gb]
        for d in range(0, 11):
            count = 0
            for exps in brute.monomials_of_degree(ring, d):
                divisible = any(
                    all(le <= e for le, e in zip(unpack(ring, lead[1]), exps))
                    for lead in leads
                )
                if not divisible:
                    count += 1
            assert series.get(d, 0) == count, (texts, d)


def test_hilbert_against_dense_quotient_dims(R1, ring):
    gens = [vec(R1, "x^2"), vec(R1, "x*y^2")]
    gb = buchberger(R1, gens)
    series = hilbert_data(gb).series.expand(8)
    for d in range(0, 9):
        assert series.get(d, 0) == brute.brute_quotient_dimension(
            gens, R1, d
        )


def test_hilbert_graded_module_with_twists(ring):
    F = GradedFreeModule(ring, 2, (0, 1))
    x, y = ring.var(0), ring.var(1)
    gens = [F.vector((x, ring.zero())), F.vector((ring.zero(), y))]
    gb = buchberger(F, gens)
    series = hilbert_data(gb).series.expand(6)
    for d in range(0, 7):
        assert series.get(d, 0) == brute.brute_quotient_dimension(
            gens, F, d
        )


def test_hilbert_negative_twist(ring):
    # a generator in negative degree; the series starts below zero
    F = GradedFreeModule(ring, 1, (-1,))
    x = ring.var(0)
    gb = buchberger(F, [F.vector((x,))])
    values = hilbert_data(gb).series.expand(2)
    assert values.get(-1, 0) == 1  # the generator itself
    assert values.get(0, 0) == 1  # only y survives in degree 0


def test_weighted_hilbert():
    ring = PolyRing(RationalField(), ("x", "y"), (1, 2))
    R1 = GradedFreeModule(ring, 1, (0,))
    gb = buchberger(R1, [R1.vector((ring.parse("x^2"),)), R1.vector((ring.parse("y^2"),))])
    # standard monomials: 1, x, y, xy  with degrees 0,1,2,3
    data = hilbert_data(gb)
    assert data.dimension == 4
    assert data.series.expand(4) == {0: 1, 1: 1, 2: 1, 3: 1}


# -- quotient rings ----------------------------------------------------------


def test_quotient_ring_colon():
    base = PolyRing(RationalField(), ("x", "y"))
    ring = base.with_quotient([base.parse("x^2")])
    R1 = GradedFreeModule(ring, 1, (0,))
    zero_mod = buchberger(R1, [])
    c = colon(zero_mod, [ring.parse("x")])
    assert [str(v.coords[0]) for v in c.gb] == ["x"]


def test_quotient_ring_hilbert():
    base = PolyRing(RationalField(), ("x", "y"))
    ring = base.with_quotient([base.parse("x^2")])
    R1 = GradedFreeModule(ring, 1, (0,))
    gb = buchberger(R1, [R1.vector((ring.parse("y^3"),))])
    # k[x,y]/(x^2, y^3): 6 standard monomials
    assert hilbert_data(gb).dimension == 6
