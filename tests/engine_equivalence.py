"""Compare the Groebner engine of this checkout with the one in another
``src/`` directory, on seeded submodules.

The other ``startrans`` is imported under a second package name (every
import inside the package is relative, so a copy imports as-is).  Each
seed draws a ring and 1-5 homogeneous generators of a submodule of a free
module of rank 1-3, twists 0-1, over one of:

- Q, p:7 and p:32003 in x, y, z, and p:32003 in four variables;
- Q[x, y] with weights (1, 2), and p:32003 with weights (1, 2, 3);
- the rings R/J: Q/(z^2), p:7/(xz, y^3), p:32003/(x^2 + yz) and
  Q/(xy - z^2).

Both engines then build the reduced basis, and the script compares, as
term lists in dict order:

- the reduced basis and its row ids;
- the lift witnesses of each generator, each basis element and three
  random combinations of the generators;
- every row of the basis, multiplied out after those lifts;
- the normal form and the membership verdict of each of those vectors
  and of three random vectors;
- the quotient's Hilbert series, and the floored series
  (``cokernel_series``) under the zero floor and the exact one, and over
  Q mod the certificate's prime.

An exception counts as an outcome: both engines must raise the same type
with the same message.  Run it from the repository root::

    python tests/engine_equivalence.py OTHER_SRC [--seeds N] [--start S]

It prints the counts and every differing seed, and exits 0 when no seed
differs and 1 otherwise.  The file is not named ``test_*``, so tier-1 does
not collect it.
"""

import argparse
import importlib.util
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RINGS = (
    ("rational", ("x", "y", "z"), None, ()),
    ("p:7", ("x", "y", "z"), None, ()),
    ("p:32003", ("x", "y", "z"), None, ()),
    ("p:32003", ("x", "y", "z", "w"), None, ()),
    ("rational", ("x", "y"), (1, 2), ()),
    ("p:32003", ("x", "y", "z"), (1, 2, 3), ()),
    ("rational", ("x", "y", "z"), None, ("z^2",)),
    ("p:7", ("x", "y", "z"), None, ("x*z", "y^3")),
    ("p:32003", ("x", "y", "z"), None, ("x^2 + y*z",)),
    ("rational", ("x", "y", "z"), None, ("x*y - z^2",)),
)


def load(src, name):
    """The package ``startrans`` under ``src``, imported as ``name``."""
    package = Path(src) / "startrans"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _coefficient(rng, field):
    if field.p is None:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
    return rng.randrange(1, field.p)


def _form(rng, ring, degree, sparsity):
    """A random form of ``degree``, each monomial present with
    probability ``sparsity``; zero for a negative degree."""
    if degree < 0:
        return ring.zero()
    total = ring.zero()
    bound = range(degree + 1)
    for exps in product(bound, repeat=ring.nvars):
        if sum(w * e for w, e in zip(ring.weights, exps)) == degree and rng.random() < sparsity:
            total = total + ring.monomial(exps, _coefficient(rng, ring.field))
    return total


def _vector(rng, module, degree, sparsity=0.4):
    """A random homogeneous vector of twisted degree ``degree``."""
    return module.vector(
        _form(rng, module.ring, degree - t, sparsity) for t in module.twists
    )


def draw(pkg, seed):
    """The ring, ambient module, generators and test vectors of ``seed``,
    built with package ``pkg``; the same seed draws the same problem in
    either package."""
    rng = random.Random(seed)
    spec, names, weights, quotient = RINGS[seed % len(RINGS)]
    ring = pkg.PolyRing(pkg.field_from_spec(spec), names, weights)
    if quotient:
        ring = ring.with_quotient([ring.parse(q) for q in quotient])
    rank = rng.randint(1, 3)
    ambient = pkg.GradedFreeModule(ring, rank, tuple(rng.randint(0, 1) for _ in range(rank)))
    gens = [_vector(rng, ambient, rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
    combos = []
    top = 1 + max(g.homogeneous_degree() or 0 for g in gens)
    for _ in range(3):
        total = ambient.vector([ring.zero()] * rank)
        for g in gens:
            d = g.homogeneous_degree()
            if d is not None:
                total = _add(total, g.mul_poly(_form(rng, ring, top - d, 0.5)))
        combos.append(total)
    others = [_vector(rng, ambient, rng.randint(1, 4), 0.6) for _ in range(3)]
    return ambient, gens, combos, others


def _add(a, b):
    return a.module.vector(x + y for x, y in zip(a.coords, b.coords))


def _terms(vector_or_polys):
    coords = getattr(vector_or_polys, "coords", vector_or_polys)
    return tuple(tuple(p.terms.items()) for p in coords)


def _series(s):
    return (tuple(sorted(s.numer.items())), s.weights)


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:  # an exception is an outcome to compare
        return ("raised", type(exc).__name__, str(exc))


def record(pkg, seed):
    """Everything the engine of ``pkg`` gives on the problem of ``seed``,
    in comparable plain values, and (rows, witnesses) counted."""
    ambient, gens, combos, others = draw(pkg, seed)
    modules = sys.modules[pkg.__name__ + ".modules"]
    out = []
    gb = pkg.buchberger(ambient, gens)
    out.append(("basis", [_terms(g) for g in gb.gb], gb.row_ids))
    out.append(("series", _series(gb.series())))
    witnesses = 0
    for v in [*gens, *gb.gb, *combos]:
        result = _outcome(lambda v=v: _terms(gb.lift(v)))
        witnesses += result[0] == "ok"
        out.append(("lift", result))
    rows = [_terms(gb.row_table.row(k)) for k in gb.row_ids]
    out.append(("rows", rows))
    for v in [*gens, *combos, *others]:
        out.append(("normal_form", _terms(gb.normal_form(v)), gb.contains(v)))
    zero = gb.series().sub(gb.series())
    for floor in (zero, gb.series()):
        out.append(("floored", _outcome(
            lambda floor=floor: _series(modules.cokernel_series(ambient, gens, floor))
        )))
    if ambient.ring.field.p is None:
        prime = sys.modules[pkg.__name__ + ".complexes"]._MODULAR_FIELD
        out.append(("modular", _outcome(
            lambda: _series(modules.cokernel_series(ambient, gens, zero, prime))
        )))
    return out, len(rows), witnesses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", help="the src/ directory to compare with")
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--start", type=int, default=0)
    args = parser.parse_args(argv)
    here = load(ROOT / "src", "startrans_here")
    other = load(args.other_src, "startrans_other")
    differ, rows, witnesses = [], 0, 0
    for seed in range(args.start, args.start + args.seeds):
        mine, n_rows, n_witnesses = record(here, seed)
        theirs = record(other, seed)[0]
        rows += n_rows
        witnesses += n_witnesses
        if mine != theirs:
            differ.append(seed)
            print(f"seed {seed} differs", flush=True)
    print(
        f"{args.seeds} seeded submodules, {rows} rows, {witnesses} lift witnesses: "
        f"{len(differ)} differ"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
