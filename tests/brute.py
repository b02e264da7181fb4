"""Dense degreewise linear algebra oracles, independent of the Groebner
engine.  Everything here works with explicit monomial bases of graded
pieces and Gaussian elimination over the coefficient field."""

from __future__ import annotations

from reference import unpack


def monomials_of_degree(ring, d):
    """All exponent tuples of weighted degree exactly d."""
    if d < 0:
        return []
    out = []
    nvars = ring.nvars

    def rec(i, remaining, acc):
        if i == nvars - 1:
            w = ring.weights[i]
            if remaining % w == 0:
                out.append(tuple(acc + [remaining // w]))
            return
        w = ring.weights[i]
        e = 0
        while e * w <= remaining:
            rec(i + 1, remaining - e * w, acc + [e])
            e += 1

    if nvars == 0:
        return [()] if d == 0 else []
    rec(0, d, [])
    return out


def graded_basis(module, d):
    """Basis of the degree-d piece of a free module: (position, exps)."""
    out = []
    for pos in range(module.rank):
        for exps in monomials_of_degree(module.ring, d - module.twists[pos]):
            out.append((pos, exps))
    return out


class Echelon:
    """Row echelon accumulator over a field; vectors are dense lists."""

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self.rows = {}  # pivot index -> dense row

    def reduce(self, vec):
        f = self.field
        vec = list(vec)
        for piv in sorted(self.rows):
            if not f.is_zero(vec[piv]):
                row = self.rows[piv]
                factor = f.div(vec[piv], row[piv])
                for k in range(piv, self.length):
                    vec[k] = f.sub(vec[k], f.mul(factor, row[k]))
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        for k in range(self.length):
            if not self.field.is_zero(vec[k]):
                self.rows[k] = vec
                return True
        return False

    def contains(self, vec):
        vec = self.reduce(vec)
        return all(self.field.is_zero(c) for c in vec)

    @property
    def rank(self):
        return len(self.rows)


def dense_vector(v, basis_index, field):
    out = [field.zero] * len(basis_index)
    for pos, poly in enumerate(v.coords):
        for m, c in poly.terms.items():
            out[basis_index[(pos, unpack(poly.ring, m))]] = c
    return out


def degree_span(gens, module, d):
    """Echelon of the degree-d piece of the submodule the gens generate,
    together with the basis index used."""
    ring = module.ring
    basis = graded_basis(module, d)
    index = {b: k for k, b in enumerate(basis)}
    ech = Echelon(ring.field, len(basis))
    for g in gens:
        e = g.homogeneous_degree()
        if e is None or e > d:
            continue
        for mono in monomials_of_degree(ring, d - e):
            shifted = g.mul_poly(ring.monomial(mono))
            ech.add(dense_vector(shifted, index, ring.field))
    return ech, index


def brute_membership(v, gens):
    """Membership of a homogeneous vector by dense span containment."""
    d = v.homogeneous_degree()
    if v.is_zero():
        return True
    ech, index = degree_span(gens, v.module, d)
    return ech.contains(dense_vector(v, index, v.module.ring.field))


def nullspace(rows, ncols, field):
    """Basis of {c : rows . c = 0} for dense rows over the field."""
    rows = [list(r) for r in rows]
    pivots = {}  # column -> row index
    reduced = []
    for row in rows:
        for col, rix in sorted(pivots.items()):
            if not field.is_zero(row[col]):
                factor = field.div(row[col], reduced[rix][col])
                for k in range(ncols):
                    row[k] = field.sub(row[k], field.mul(factor, reduced[rix][k]))
        lead = next(
            (k for k in range(ncols) if not field.is_zero(row[k])), None
        )
        if lead is not None:
            pivots[lead] = len(reduced)
            reduced.append(row)
    free = [k for k in range(ncols) if k not in pivots]
    basis = []
    for fr in free:
        vec = [field.zero] * ncols
        vec[fr] = field.one
        for col in sorted(pivots, reverse=True):
            row = reduced[pivots[col]]
            acc = field.zero
            for k in range(col + 1, ncols):
                if not field.is_zero(row[k]) and not field.is_zero(vec[k]):
                    acc = field.add(acc, field.mul(row[k], vec[k]))
            vec[col] = field.div(field.neg(acc), row[col])
        basis.append(vec)
    return basis


def brute_colon_basis(m_gens, q_polys, module, d):
    """Basis of the degree-d part of {f : q f in M for all q}, dense."""
    ring = module.ring
    field = ring.field
    f_basis = graded_basis(module, d)
    if not f_basis:
        return []
    constraint_rows = [[] for _ in f_basis]
    for q in q_polys:
        dq = q.homogeneous_degree()
        target_d = d + dq
        ech, index = degree_span(m_gens, module, target_d)
        for col, (pos, exps) in enumerate(f_basis):
            b = module.basis_vector(pos).mul_poly(ring.monomial(exps))
            residual = ech.reduce(dense_vector(b.mul_poly(q), index, field))
            constraint_rows[col].append(residual)
    # transpose: one row per residual component, one column per f-basis elt
    rows = []
    n_components = sum(len(r) for r in constraint_rows[0])
    for comp in range(n_components):
        flat = []
        for col in range(len(f_basis)):
            merged = [c for residual in constraint_rows[col] for c in residual]
            flat.append(merged[comp])
        rows.append(flat)
    coeffs = nullspace(rows, len(f_basis), field)
    out = []
    for vec in coeffs:
        coords = [ring.zero()] * module.rank
        for c, (pos, exps) in zip(vec, f_basis):
            if not field.is_zero(c):
                coords[pos] = coords[pos] + ring.monomial(exps, c)
        out.append(module.vector(coords))
    return out


def brute_kernel_basis(gens, module, d):
    """Degree-d relations among the gens, by dense nullspace; returned as
    coefficient tuples (one polynomial per generator)."""
    ring = module.ring
    field = ring.field
    degs = [g.homogeneous_degree() for g in gens]
    unknowns = []  # (generator index, exps)
    for i, e in enumerate(degs):
        if e is None:
            raise ValueError("brute kernel needs homogeneous generators")
        for mono in monomials_of_degree(ring, d - e):
            unknowns.append((i, mono))
    if not unknowns:
        return []
    target_basis = graded_basis(module, d)
    index = {b: k for k, b in enumerate(target_basis)}
    columns = []
    for i, mono in unknowns:
        columns.append(
            dense_vector(gens[i].mul_poly(ring.monomial(mono)), index, field)
        )
    rows = [
        [columns[j][r] for j in range(len(unknowns))]
        for r in range(len(target_basis))
    ]
    coeffs = nullspace(rows, len(unknowns), field)
    out = []
    for vec in coeffs:
        parts = [ring.zero()] * len(gens)
        for c, (i, mono) in zip(vec, unknowns):
            if not field.is_zero(c):
                parts[i] = parts[i] + ring.monomial(mono, c)
        out.append(tuple(parts))
    return out


def brute_quotient_dimension(gens, module, d):
    """dim of the degree-d piece of module / span(gens)."""
    ech, _ = degree_span(gens, module, d)
    return len(graded_basis(module, d)) - ech.rank


def span_dimension(gens, module, d):
    ech, _ = degree_span(gens, module, d)
    return ech.rank


def span_contained(gens_a, gens_b, module, d):
    """Degree-d span of gens_a inside the degree-d span of gens_b."""
    ech, index = degree_span(gens_b, module, d)
    ring = module.ring
    for g in gens_a:
        e = g.homogeneous_degree()
        if e is None or e > d:
            continue
        for mono in monomials_of_degree(ring, d - e):
            vec = dense_vector(
                g.mul_poly(ring.monomial(mono)), index, ring.field
            )
            if not ech.contains(vec):
                return False
    return True


def spans_agree(gens_a, gens_b, module, d):
    """Degree-d pieces of the two spans coincide."""
    ech_a, index = degree_span(gens_a, module, d)
    ech_b, _ = degree_span(gens_b, module, d)
    if ech_a.rank != ech_b.rank:
        return False
    ring = module.ring
    for g in gens_b:
        e = g.homogeneous_degree()
        if e is None or e > d:
            continue
        for mono in monomials_of_degree(ring, d - e):
            vec = dense_vector(
                g.mul_poly(ring.monomial(mono)), index, ring.field
            )
            if not ech_a.contains(vec):
                return False
    return True


def first_inexact_degree(comp, top_degree):
    """(p, d) of the first position and degree d <= ``top_degree`` where
    dim (Ker phi_p)_d, read as dim (F_p)_d - dim (Im phi_p)_d, differs
    from dim (Im phi_(p+1))_d (0 at p = n), or None: exactness checked by
    dense ranks alone, over a polynomial ring with homogeneous maps."""
    n = comp.length
    for p in range(1, n + 1):
        for d in range(top_degree + 1):
            kernel = len(graded_basis(comp.module(p), d)) - span_dimension(
                comp.image_gens(p), comp.module(p - 1), d
            )
            image = (
                span_dimension(comp.image_gens(p + 1), comp.module(p), d)
                if p < n
                else 0
            )
            if kernel != image:
                return p, d
    return None
