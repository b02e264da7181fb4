import re
from itertools import combinations
from math import comb

import brute
import pytest
from reference import (
    add_vectors,
    expand,
    padded_zero_top_instance,
    zero_matrix,
    zero_vector,
)

from startrans import (
    FreeComplex,
    GradedFreeModule,
    NotASop,
    PolyMatrix,
    PolyRing,
    PreconditionFailed,
    PrimeField,
    RationalField,
    ValidationError,
    build_chain_map,
    certify_acyclic,
    check_complex,
    check_qf_containment,
    decompose_images,
    koszul,
    lift_witness,
    star_transform,
    syzygies,
    validate_sop,
    verify_star,
)
import startrans.modules
from startrans import complexes
from startrans.complexes import (
    SopData,
    complement,
    co_singleton,
    count_below,
    offset_sum,
    subsets,
    tensor_complex,
)
from startrans.instances import (
    direct_sum_instance,
    exa_instance,
    square_ideal_instance,
)


@pytest.fixture
def ring():
    return PolyRing(RationalField(), ("x", "y"))


def test_subset_helpers():
    assert subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert count_below(2, (1, 2)) == 1
    assert count_below(1, (1, 2)) == 0
    assert offset_sum(()) == 0
    assert offset_sum((1, 3)) == 2
    assert complement((1,), 3) == (2, 3)
    assert co_singleton(1, 2) == (2,)


# -- validate_sop -----------------------------------------------------------


def test_validate_sop_variables(ring):
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    assert sop.colength == 1
    assert sop.degrees == (1, 1)


def test_validate_sop_rejects_infinite_colength(ring):
    with pytest.raises(NotASop) as err:
        validate_sop(ring, [ring.parse("x^2"), ring.parse("x*y")])
    assert err.value.series is not None
    # all powers of y survive
    values = expand(err.value.series, 6)
    assert all(values.get(d, 0) >= 1 for d in range(7))


def test_validate_sop_colength_count(ring):
    sop = validate_sop(ring, [ring.parse("x^2"), ring.parse("y^3")])
    assert sop.colength == 6


def test_validate_sop_structural_errors(ring):
    with pytest.raises(ValidationError):
        validate_sop(ring, [ring.parse("x")])
    with pytest.raises(ValidationError):
        validate_sop(ring, [ring.parse("x^2+x"), ring.parse("y")])
    with pytest.raises(ValidationError):
        validate_sop(ring, [ring.one(), ring.parse("y")])


# -- koszul -----------------------------------------------------------------


def test_koszul_two_variables_signs(ring):
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    k = koszul(sop)
    # boundary of e_{12} is x*e_2 - y*e_1, the column (-y, x)
    assert k.phi(2).column(0) == (ring.parse("-y"), ring.parse("x"))
    assert k.phi(1).entries[0] == (ring.parse("x"), ring.parse("y"))


def test_koszul_first_boundary_row(ring):
    ring3 = PolyRing(RationalField(), ("x", "y", "z"))
    sop = validate_sop(
        ring3, [ring3.parse("x^2"), ring3.parse("y"), ring3.parse("z^3")]
    )
    k = koszul(sop)
    assert k.phi(1).entries[0] == (
        ring3.parse("x^2"),
        ring3.parse("y"),
        ring3.parse("z^3"),
    )


def test_koszul_ranks_and_composition_up_to_four_variables():
    for n in (2, 3, 4):
        names = tuple("abcd"[:n])
        ring = PolyRing(RationalField(), names)
        sop = validate_sop(ring, [ring.var(i) for i in range(n)])
        k = koszul(sop)
        assert [m.rank for m in k.modules] == [comb(n, p) for p in range(n + 1)]
        assert sum(m.rank for m in k.modules) == 2 ** n
        assert check_complex(k) is None


def test_koszul_twists_accumulate_degrees(ring):
    sop = validate_sop(ring, [ring.parse("x^2"), ring.parse("y^3")])
    k = koszul(sop)
    assert k.module(0).twists == (0,)
    assert k.module(1).twists == (2, 3)
    assert k.module(2).twists == (5,)
    assert k.labels is None


TENSOR_CASES = {
    "Q[x,y] weights (1,2)": (
        lambda: PolyRing(RationalField(), ("x", "y"), (1, 2)),
        ("x^2 + y", "x*y"),
    ),
    "p:7[x,y,z]": (
        lambda: PolyRing(PrimeField(7), ("x", "y", "z")),
        ("x^2", "y + 3*z", "z^3"),
    ),
}


@pytest.mark.parametrize("name", sorted(TENSOR_CASES))
def test_tensor_complex_layout(name):
    make, texts = TENSOR_CASES[name]
    ring = make()
    sop = validate_sop(ring, [ring.parse(t) for t in texts])
    n, f = sop.n, ring.field
    free = GradedFreeModule(ring, 2, (1, 4))
    shift = 3
    t = tensor_complex(free, sop, shift)
    assert t.length == n
    for p in range(n + 1):
        basis = [label[1:] for label in t.labels[p]]
        assert all(label[0] == "bracket" for label in t.labels[p])
        # lambda-major, the p-subsets in lex order under each lambda
        subs = combinations(range(1, n + 1), p)
        assert basis == sorted((lam, s) for s in subs for lam in (0, 1))
        assert t.module(p).twists == tuple(
            free.twists[lam] + sum(sop.degrees[i - 1] for i in s) - shift
            for lam, s in basis
        )
    for p in range(1, n + 1):
        rows = [label[1:] for label in t.labels[p - 1]]
        for j, (lam, s) in enumerate(label[1:] for label in t.labels[p]):
            for k, (mu, r) in enumerate(rows):
                entry = ring.zero()
                for i in s:
                    if (mu, r) == (lam, tuple(x for x in s if x != i)):
                        sign = f.one if count_below(i, s) % 2 == 0 else f.neg(f.one)
                        entry = sop.gens[i - 1].scale(sign)
                assert t.phi(p).entry(k, j) == entry, (p, k, j)
    # every map homogeneous, and phi_(p-1) phi_p = 0
    assert check_complex(t) is None
    unit = tensor_complex(GradedFreeModule(ring, 1, (0,)), sop)
    assert koszul(sop) == FreeComplex(ring, unit.modules, unit.maps)


def test_chain_map_source_is_the_shifted_tensor_complex():
    comp, sop = exa_instance()
    cm = build_chain_map(comp, sop)
    top = comp.module(comp.length)
    assert cm.source == tensor_complex(top, sop, sum(sop.degrees))


def test_koszul_requires_validated_sop(ring):
    with pytest.raises(PreconditionFailed):
        koszul((ring.var(0), ring.var(1)))


# -- check_complex -----------------------------------------------------------


def test_check_complex_passes_on_exa():
    comp, _ = exa_instance()
    assert check_complex(comp) is None


def test_check_complex_detects_sign_flip():
    comp, _ = exa_instance()
    ring = comp.ring
    bad_phi2 = PolyMatrix(ring, [[ring.parse("y^2")], [ring.parse("x^2")]])
    bad = FreeComplex(ring, comp.modules, (comp.phi(1), bad_phi2))
    defect = check_complex(bad)
    assert defect is not None and defect.kind == "composition"
    assert defect.position == 2


def test_check_complex_detects_inhomogeneous_entry():
    comp, _ = exa_instance()
    ring = comp.ring
    bad_phi1 = PolyMatrix(ring, [[ring.parse("x^2"), ring.parse("x+1")]])
    bad = FreeComplex(ring, comp.modules, (bad_phi1, comp.phi(2)))
    defect = check_complex(bad)
    assert defect is not None and defect.kind == "homogeneity"
    assert (defect.position, defect.row, defect.col) == (1, 0, 1)


def test_composition_of_maps_that_do_not_compose_is_a_shape_defect():
    # phi_1 has a column more than F_1 has basis elements, so phi_1 phi_2
    # is not defined: a verdict, not a DimensionMismatch
    comp, _ = exa_instance()
    ring = comp.ring
    wide = PolyMatrix(ring, [list(comp.phi(1).entries[0]) + [ring.zero()]])
    bad = FreeComplex(ring, comp.modules, (wide, comp.phi(2)))
    defect = complexes.composition_defect(bad)
    assert (defect.kind, defect.position) == ("shape", 2)


# -- certify_acyclic ----------------------------------------------------------


def test_certificate_of_a_non_complex_fails_without_a_series():
    comp, sop = exa_instance()
    ring = comp.ring
    bad_phi2 = PolyMatrix(ring, [[ring.parse("y^2")], [ring.parse("x^2")]])
    bad = FreeComplex(ring, comp.modules, (comp.phi(1), bad_phi2))
    cert = certify_acyclic(bad)
    assert not cert.ok and cert.series is None
    assert cert.failed_position == 2
    assert cert.detail == "not a complex: (phi_1 phi_2) has nonzero entry (0,0)"
    with pytest.raises(PreconditionFailed, match="not a complex"):
        star_transform(bad, sop)


def test_koszul_complexes_certified_acyclic():
    for n in (2, 3, 4):
        names = tuple("abcd"[:n])
        ring = PolyRing(RationalField(), names)
        sop = validate_sop(ring, [ring.var(i) for i in range(n)])
        assert certify_acyclic(koszul(sop)).ok


def test_random_monomial_koszul_acyclic():
    import random

    rng = random.Random(42)
    for n in (2, 2, 3, 3, 3, 4):
        names = ("x", "y", "z", "w")[:n]
        ring = PolyRing(RationalField(), names)
        gens = []
        for i in range(n):
            exps = [0] * n
            exps[i] = rng.randint(1, 2 if n == 4 else 3)
            gens.append(ring.monomial(tuple(exps)))
        sop = validate_sop(ring, gens)
        assert certify_acyclic(koszul(sop)).ok


def test_exa_certified_with_witnesses():
    comp, _ = exa_instance()
    assert certify_acyclic(comp).ok
    # one syzygy at position 1, lifted through phi_2
    f0, f1 = comp.module(0), comp.module(1)
    rels = syzygies(_columns(comp, 1), f0)
    assert len(rels) == 1
    kernel = f1.vector(rels[0].coords)
    witness = lift_witness(kernel, _columns(comp, 2), f1)
    assert comp.phi(2).apply(witness) == kernel.coords


def _columns(comp, p):
    m = comp.phi(p)
    return [comp.module(p - 1).vector(m.column(j)) for j in range(m.ncols)]


def zero_map_complex(ring):
    """0 -> R -> R with the zero map: the top map is not injective."""
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (0,)),
    )
    maps = (zero_matrix(ring, 1, 1),)
    return FreeComplex(ring, modules, maps)


def defect_at_two_complex(ring):
    """0 -> R(-1) --0--> R(-1) --x--> R: exact at position 1, not at 2."""
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (1,)),
        GradedFreeModule(ring, 1, (1,)),
    )
    maps = (
        PolyMatrix(ring, [[ring.var(0)]]),
        zero_matrix(ring, 1, 1),
    )
    return FreeComplex(ring, modules, maps)


def test_zero_map_not_acyclic(ring):
    cert = certify_acyclic(zero_map_complex(ring))
    assert not cert.ok
    assert cert.failed_position == 1
    assert "kernel" in cert.detail


def test_exactness_defect_located(ring):
    cert = certify_acyclic(defect_at_two_complex(ring))
    assert not cert.ok
    assert cert.failed_position == 2


def _brute_kernel_dimension(comp, p, d):
    """dim_k of (Ker phi_p)_d: dense relations among the nonzero columns,
    plus the whole degree-d span of every zero column."""
    src = comp.module(p)
    cols = _columns(comp, p)
    live = [c for c in cols if not c.is_zero()]
    dim = len(brute.brute_kernel_basis(live, comp.module(p - 1), d)) if live else 0
    for j, c in enumerate(cols):
        if c.is_zero():
            dim += len(brute.monomials_of_degree(comp.ring, d - src.twists[j]))
    return dim


def _brute_first_defect(comp, top_degree=6):
    """(position, degree) of the first degreewise mismatch between the
    kernel of phi_p and the image of phi_(p+1), or None."""
    n = comp.length
    for p in range(1, n + 1):
        for d in range(top_degree + 1):
            image = (
                brute.span_dimension(_columns(comp, p + 1), comp.module(p), d)
                if p < n
                else 0
            )
            if _brute_kernel_dimension(comp, p, d) != image:
                return p, d
    return None


@pytest.mark.parametrize(
    "build",
    [
        lambda ring: exa_instance()[0],
        lambda ring: square_ideal_instance()[0],
        lambda ring: direct_sum_instance()[0],
        lambda ring: padded_zero_top_instance()[0],
        zero_map_complex,
        defect_at_two_complex,
    ],
    ids=["exa", "square_ideal", "direct_sum", "padded_zero_top", "zero_map",
         "defect_at_two"],
)
def test_certificate_matches_dense_dimensions(ring, build):
    comp = build(ring)
    cert = certify_acyclic(comp)
    expected = _brute_first_defect(comp)
    if expected is None:
        assert cert.ok
        return
    assert not cert.ok
    named = re.search(r"position (\d+) .* degree (-?\d+)", cert.detail)
    position, degree = map(int, named.groups())
    assert (cert.failed_position, position, degree) == (expected[0], *expected)


# -- containment --------------------------------------------------------------


def test_exa_containment_true():
    comp, sop = exa_instance()
    assert check_qf_containment(comp, sop)


def test_containment_false_on_constant_entry(ring):
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 2, (1, 0)),
        GradedFreeModule(ring, 1, (0,)),
    )
    x = ring.var(0)
    maps = (
        PolyMatrix(ring, [[x, ring.zero()]]),
        PolyMatrix(ring, [[ring.zero()], [ring.one()]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    assert not check_qf_containment(comp, sop)


def test_containment_zero_top_map(ring):
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
    assert check_qf_containment(comp, sop)


def test_sop_ideal_gb_built_once_per_instance(monkeypatch):
    comp, validated = exa_instance()
    builds = []
    real = startrans.modules.buchberger

    def counting(ambient, gens, **kw):
        if ambient.rank == 1 and tuple(g.coords[0] for g in gens) == validated.gens:
            builds.append(ambient)
        return real(ambient, gens, **kw)

    monkeypatch.setattr(startrans.modules, "buchberger", counting)
    sop = validate_sop(validated.ring, validated.gens)
    result = star_transform(comp, sop)
    assert result.report.overall
    assert len(builds) == 1
    # an instance made directly builds its basis on first use, once, and
    # reads its colength from it
    bare = SopData(sop.ring, sop.gens, sop.degrees)
    assert bare == sop
    assert bare.colength == sop.colength == 1
    assert repr(bare.ideal_gb()) == repr(bare.ideal_gb()) == repr(sop.ideal_gb())
    assert len(builds) == 2


def test_image_gb_built_once_per_complex(monkeypatch):
    # the report reads Hilbert series and the chain map's witness, so it
    # builds no image basis; a basis asked for later is built once and kept
    comp, sop = exa_instance()
    built = []
    real = complexes.buchberger

    def counting(ambient, gens, **kw):
        built.append(tuple(g.coords for g in gens))
        return real(ambient, gens, **kw)

    def columns(c):
        m = c.phi(1)
        return tuple(tuple(m.column(j)) for j in range(m.ncols))

    monkeypatch.setattr(complexes, "buchberger", counting)
    result = star_transform(comp, sop)
    assert result.report.overall
    out = result.star.complex
    assert built.count(columns(comp)) == built.count(columns(out)) == 0
    for c in (comp, out, comp, out):
        c.image_gb()
    assert built.count(columns(comp)) == built.count(columns(out)) == 1


def test_the_certificates_build_no_image_basis(monkeypatch):
    comp, sop = exa_instance()
    built = []
    real = FreeComplex.image_gb

    def recording(self, p):
        gb = real(self, p)
        built.append((self, p, gb))
        return gb

    monkeypatch.setattr(FreeComplex, "image_gb", recording)
    res = star_transform(comp, sop, with_report=False)
    assert verify_star(comp, sop, res.star).overall
    # the certificates read only series (``cokernel_series`` down to
    # position 1) and the witness, so no image basis is built for them
    assert built == []


def test_containment_of_a_complex_longer_than_the_parameter_count(ring):
    # a length other than the parameter count is refused, even when every
    # entry of the top map lies in Q
    x, y, zero = ring.var(0), ring.var(1), ring.zero()
    modules = tuple(GradedFreeModule(ring, 1, (d,)) for d in range(4))
    maps = tuple(PolyMatrix(ring, [[e]]) for e in (x, zero, y))
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed, match="number of parameters"):
        decompose_images(comp, sop)
    assert not check_qf_containment(comp, sop)


def test_koszul_always_contained():
    for n in (2, 3):
        names = ("x", "y", "z")[:n]
        ring = PolyRing(RationalField(), names)
        sop = validate_sop(ring, [ring.var(i) for i in range(n)])
        assert check_qf_containment(koszul(sop), sop)


# -- decompose_images ----------------------------------------------------------


def test_decompose_exa_canonical():
    comp, sop = exa_instance()
    ring = comp.ring
    dec = decompose_images(comp, sop)
    assert dec[0][0].coords == (ring.zero(), ring.parse("x"))
    assert dec[0][1].coords == (ring.parse("-y"), ring.zero())


def test_decompose_recombines_on_corpus():
    from startrans.instances import corpus

    for name, comp, sop in corpus(count=6):
        if comp.top_rank() == 0:
            continue
        dec = decompose_images(comp, sop)
        n = comp.length
        target = comp.module(n - 1)
        for lam in range(comp.top_rank()):
            acc = zero_vector(target)
            for x, v in zip(sop.gens, dec[lam]):
                acc = add_vectors(acc, v.mul_poly(x))
            assert acc == target.vector(comp.phi(n).column(lam)), name


def test_decompose_zero_column(ring):
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 2, (1, 2)),
        GradedFreeModule(ring, 1, (2,)),
    )
    x, y = ring.var(0), ring.var(1)
    maps = (
        PolyMatrix(ring, [[x, ring.zero()]]),
        PolyMatrix(ring, [[ring.zero()], [x * y - x * y]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [x, y])
    dec = decompose_images(comp, sop)
    assert all(v.is_zero() for v in dec[0])


def test_decompose_requires_containment(ring):
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 2, (1, 0)),
        GradedFreeModule(ring, 1, (0,)),
    )
    x = ring.var(0)
    maps = (
        PolyMatrix(ring, [[x, ring.zero()]]),
        PolyMatrix(ring, [[ring.zero()], [ring.one()]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    with pytest.raises(PreconditionFailed):
        decompose_images(comp, sop)
