"""Acyclicity and the star transform over the quotient ring Q[x,y,z]/(z^2).

Over R/J the relations of a map include J-multiples, which vanish in the
quotient; the certificate must not count them as kernel elements.
"""

import json
import sys

import pytest

from startrans import (
    FreeComplex,
    GradedFreeModule,
    PolyMatrix,
    PolyRing,
    RationalField,
    certify_acyclic,
    check_complex,
    colon,
    koszul,
    star_transform,
    submodule_equal,
    validate_sop,
)
from startrans import modules
from startrans.cli import main

PROBLEM = {
    "field": {"type": "rational"},
    "variables": [
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 1},
        {"name": "z", "degree": 1},
    ],
    "quotient": ["z^2"],
    "sop": ["x", "y"],
    "complex": {
        "twists": [[0], [-2, -1], [-3]],
        "maps": [[["x^2", "y"]], [["-y"], ["x^2"]]],
    },
}


@pytest.fixture
def ring():
    base = PolyRing(RationalField(), ("x", "y", "z"))
    return base.with_quotient([base.parse("z^2")])


def test_koszul_over_quotient_certified(ring):
    comp = koszul(validate_sop(ring, [ring.parse("x^2"), ring.var(1)]))
    cert = certify_acyclic(comp)
    assert cert.ok, cert.detail


def test_multiplication_by_nilpotent_not_injective(ring):
    # 0 -> R(-1) --z--> R: z*e lies in the kernel, in degree 2
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 1, (1,)),
    )
    maps = (PolyMatrix(ring, [[ring.var(2)]]),)
    cert = certify_acyclic(FreeComplex(ring, modules, maps))
    assert not cert.ok
    assert cert.failed_position == 1
    assert "kernel" in cert.detail and "degree 2" in cert.detail


def _two_maps(ring, first, second):
    # R(-2) --second--> R(-1) --first--> R
    modules = tuple(GradedFreeModule(ring, 1, (d,)) for d in (0, 1, 2))
    maps = (
        PolyMatrix(ring, [[ring.parse(first)]]),
        PolyMatrix(ring, [[ring.parse(second)]]),
    )
    return FreeComplex(ring, modules, maps)


def test_composition_vanishing_modulo_quotient_is_a_complex(ring):
    # z*z = z^2 is zero in R/(z^2) though not in R
    assert check_complex(_two_maps(ring, "z", "z")) is None


def test_composition_nonzero_modulo_quotient_is_rejected(ring):
    defect = check_complex(_two_maps(ring, "z", "y"))
    assert defect is not None
    assert defect.kind == "composition" and defect.position == 2


def test_star_transform_over_quotient_passes_every_check(ring):
    comp = koszul(validate_sop(ring, [ring.parse("x^2"), ring.var(1)]))
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    report = star_transform(comp, sop).report
    assert "quotient_assumption" in report.names()
    assert [c.name for c in report.checks if not c.passed] == []


def test_star_transform_when_the_decomposition_holds_only_modulo_the_quotient(ring):
    # the witness of x*y^2 + y^2*z + y*z^2 in Q uses z^2 = 0, so the
    # decomposition and the chain map agree with the input only modulo J
    p = ring.parse
    sop = validate_sop(ring, [p("x + y + z"), p("x*y + y*z + z^2")])
    comp = koszul(validate_sop(ring, [p("x + y + z"), p("x*y^2 + y^2*z + y*z^2")]))
    result = star_transform(comp, sop)
    assert [c.name for c in result.report.checks if not c.passed] == []
    assert submodule_equal(
        result.star.complex.image_gb(), colon(comp.image_gb(), sop.gens)
    )


def test_cli_star_verify_over_quotient(tmp_path):
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(PROBLEM))
    out = str(tmp_path / "quotient.star.json")
    assert main(["star", "--input", str(path), "--output", out, "--verify"]) == 0


def test_one_basis_of_the_quotient_ideal_per_ring(ring, monkeypatch):
    # free-module series are shifts of HS(R/J), and compositions reduce
    # modulo J, through one basis of J kept on the ring
    comp = koszul(validate_sop(ring, [ring.parse("x^2"), ring.var(1)]))
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    real = modules.buchberger
    calls = []

    def counting(ambient, gens, **kw):
        calls.append(tuple(gens))
        return real(ambient, gens, **kw)

    for name, mod in list(sys.modules.items()):
        if name == "startrans" or name.startswith("startrans."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    report = star_transform(comp, sop).report
    assert report.overall
    assert sum(1 for gens in calls if not gens) == 1
