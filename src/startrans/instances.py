"""Ready-made instances: the two-variable running example, small complete
intersections, a vanishing-top example, non-Koszul inputs, and a seeded
random corpus used by the acceptance suite and ``koszul --seed``.

Every instance is a pair (complex, sop) over a fresh ring; complexes are
Koszul complexes of validated parameter systems unless noted.
"""

from __future__ import annotations

import random

from .complexes import FreeComplex, koszul, validate_sop
from .fields import RationalField
from .modules import GradedFreeModule
from .poly import PolyMatrix, PolyRing, block_matrix


def standard_ring(names, field=None):
    return PolyRing(field or RationalField(), names)


def exa_instance(field=None):
    """The repo's running example: F = Koszul(x^2, y^2) over Q[x, y],
    parameters (x, y); the colon image is (x^2, xy, y^2)."""
    return complete_intersection_instance((2, 2), field=field)


def complete_intersection_instance(powers, field=None):
    """Koszul complex of pure variable powers in len(powers) variables."""
    n = len(powers)
    names = tuple("xyzw"[:n]) if n <= 4 else tuple(f"x{i}" for i in range(n))
    ring = standard_ring(names, field=field)
    return koszul(_power_sop(ring, powers)), _power_sop(ring, (1,) * n)


def _power_sop(ring, powers):
    """The validated parameters x_i^e, e = powers[i], over ``ring``."""
    return validate_sop(
        ring,
        [
            ring.monomial(tuple(e if k == i else 0 for k in range(ring.nvars)))
            for i, e in enumerate(powers)
        ],
    )


def vanishing_top_instance(field=None):
    """F = Koszul(x, y) with parameters (x, y): the decomposition vectors
    are signed standard basis vectors, so the output top module vanishes."""
    return complete_intersection_instance((1, 1), field=field)


def square_ideal_instance(field=None):
    """Resolution 0 -> R(-3)^2 -> R(-2)^3 -> R of R/(x^2, xy, y^2); a
    non-Koszul input with a top module of rank 2."""
    ring = standard_ring(("x", "y"), field=field)
    x, y = ring.var(0), ring.var(1)
    zero = ring.zero()
    modules = (
        GradedFreeModule(ring, 1, (0,)),
        GradedFreeModule(ring, 3, (2, 2, 2)),
        GradedFreeModule(ring, 2, (3, 3)),
    )
    maps = (
        PolyMatrix(ring, [[x * x, x * y, y * y]]),
        PolyMatrix(ring, [[y, zero], [-x, y], [zero, -x]]),
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [x, y])
    return comp, sop


def direct_sum_instance(field=None):
    """Direct sum of Koszul(x, y) and Koszul(x^2, y^2); mixes unit and
    non-unit decomposition vectors."""
    ring = standard_ring(("x", "y"), field=field)
    ca = koszul(_power_sop(ring, (1, 1)))
    cb = koszul(_power_sop(ring, (2, 2)))
    modules = tuple(
        GradedFreeModule(ring, ma.rank + mb.rank, ma.twists + mb.twists)
        for ma, mb in zip(ca.modules, cb.modules)
    )
    maps = tuple(
        block_matrix(
            ring, [[a, None], [None, b]], [a.nrows, b.nrows], [a.ncols, b.ncols]
        )
        for a, b in zip(ca.maps, cb.maps)
    )
    comp = FreeComplex(ring, modules, maps)
    sop = validate_sop(ring, [ring.var(0), ring.var(1)])
    return comp, sop


def random_instance(seed, field=None):
    """Seeded random corpus instance: n in {2, 3}, monomial parameters
    x_i^a with a <= 3, complex = Koszul(x_i^b) with a <= b <= 3 (so the top
    image lies in the parameter ideal)."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    names = ("x", "y", "z")[:n]
    ring = standard_ring(names, field=field)
    sop_powers = [rng.randint(1, 3) for _ in range(n)]
    gen_powers = [rng.randint(a, 3) for a in sop_powers]
    sop = _power_sop(ring, sop_powers)
    gens = _power_sop(ring, gen_powers)
    name = (
        f"random_seed{seed}_n{n}_sop{''.join(map(str, sop_powers))}"
        f"_gen{''.join(map(str, gen_powers))}"
    )
    return name, koszul(gens), sop


def corpus(count=20, field=None):
    """The fixed corpus: named hand instances plus ``count`` random ones."""
    out = [
        ("exa",) + exa_instance(field),
        ("ci3",) + complete_intersection_instance((2, 2, 2), field=field),
        ("vanishing_top",) + vanishing_top_instance(field),
        ("square_ideal",) + square_ideal_instance(field),
        ("direct_sum",) + direct_sum_instance(field=field),
    ]
    for k in range(count):
        out.append(random_instance(2024 + k, field=field))
    return out
