"""Seeded generic instances for the benchmark.

An instance is a pair (Koszul complex, parameter system) over a fresh
ring.  The parameters ``q_i`` are products of ``param_degree`` random
linear forms; the complex is ``Koszul(q_i * l_i)`` where each ``l_i`` is
a product of ``form_degree`` further random linear forms, so the top
image lies in ``Q * F_(n-1)``.  Linear forms have integer coefficients
drawn uniformly from [-9, 9] (not all zero).

The same (shape, seed) always yields the same polynomials.  A draw whose
parameters or generators fail ``validate_sop`` raises ``DrawFailed``; it
is never redrawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import startrans.complexes as complexes
from startrans.errors import StarTransError
from startrans.fields import field_from_spec
from startrans.poly import PolyRing

COEFF_RANGE = 9


@dataclass(frozen=True)
class Shape:
    n: int
    field: str
    param_degree: int
    form_degree: int


class DrawFailed(Exception):
    """A seeded draw did not give a system of parameters."""


def _variable_names(n):
    return tuple("xyzw"[:n]) if n <= 4 else tuple(f"x{i}" for i in range(n))


def _linear_form(ring, rng):
    while True:
        coeffs = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(ring.nvars)]
        if any(coeffs):
            break
    form = ring.zero()
    for i, c in enumerate(coeffs):
        form = form + ring.var(i).scale(ring.field.from_int(c))
    return form


def _product_of_forms(ring, rng, degree):
    out = ring.one()
    for _ in range(degree):
        out = out * _linear_form(ring, rng)
    return out


def generic_instance(shape, seed):
    """(complex, sop) for one seeded draw of the given shape."""
    rng = random.Random(seed)
    ring = PolyRing(field_from_spec(shape.field), _variable_names(shape.n))
    params = [_product_of_forms(ring, rng, shape.param_degree) for _ in range(shape.n)]
    gens = [q * _product_of_forms(ring, rng, shape.form_degree) for q in params]
    try:
        sop = complexes.validate_sop(ring, params)
        gen_sop = complexes.validate_sop(ring, gens)
    except StarTransError as exc:
        raise DrawFailed(f"shape {shape} seed {seed}: {exc}") from exc
    return complexes.koszul(gen_sop), sop
