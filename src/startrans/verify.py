"""Independent verification: the colon certificate, dimension counting,
positive depth, saturation, and the round-by-round iteration driver.

Everything here re-derives its facts from Groebner bases and Hilbert series
of the input and the output complexes, never from the construction
internals, so a passing report is an independent certificate of the
pipeline output.  The checks read M and N, the images of the two phi_1,
off the complexes themselves: their columns and the series each complex's
acyclicity certificate keeps.  The one thing the build hands over, the
chain map's witnesses for Q*N <= M, is re-checked by a product and only
saves membership tests.  The output's Im phi_1 is certified equal to M : Q
without computing the colon: balance of Tor turns the equality into two
containments and one Hilbert-series identity (``_colon_certificate``), and
positive depth follows from the report's own verdicts (``verify_star``).
The driver reads each round's report, and a match chains from round to
round.

Every check, ``colon_quotient_count`` included, returns a verdict,
(passed, detail), and catches nothing: an exception inside one propagates
to ``cli.main``, which maps it by kind.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from math import comb

from .complexes import certify_acyclic, composition_defect, homogeneity_defect
from .errors import IterationLimit, ParseError, PreconditionFailed, ValidationError
from .modules import colon, intersect, reduce_mod_quotient, submodule_equal


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def overall(self):
        return all(c.passed for c in self.checks)

    def run(self, name, fn):
        """Time the check ``fn``, which returns (passed, detail), and record
        its verdict; an exception it raises propagates."""
        start = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - start
        self.checks.append(CheckResult(name, bool(passed), detail, elapsed))
        return bool(passed)

    def names(self):
        return [c.name for c in self.checks]

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            out.append(f"{status} {c.name}{detail}")
        out.append(f"{'PASS' if self.overall else 'FAIL'} overall")
        return out

    def to_jsonable(self):
        return {
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "detail": c.detail,
                    "seconds": round(c.seconds, 6),
                }
                for c in self.checks
            ],
        }

    @staticmethod
    def from_jsonable(data):
        """Rebuild a written report; ParseError names a mistyped field, a
        negative time, an empty ``checks`` or an ``overall`` that is not
        the conjunction of the checks' verdicts."""
        if not isinstance(data, dict):
            raise ParseError("report must be an object")
        checks = data.get("checks", [])
        if not isinstance(checks, list):
            raise ParseError("report.checks must be a list")
        rep = VerificationReport()
        for k, c in enumerate(checks):
            where = f"report.checks[{k}]"
            if not isinstance(c, dict):
                raise ParseError(f"{where} must be an object")
            name, passed = c.get("name"), c.get("pass")
            detail, seconds = c.get("detail", ""), c.get("seconds", 0.0)
            if not isinstance(name, str):
                raise ParseError(f"{where}.name must be a string")
            if not isinstance(passed, bool):
                raise ParseError(f"{where}.pass must be true or false")
            if not isinstance(detail, str):
                raise ParseError(f"{where}.detail must be a string")
            number = isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
            # NaN compares false, and no finite float is larger than the max
            if not number or not 0 <= seconds <= sys.float_info.max:
                raise ParseError(f"{where}.seconds must be a finite number >= 0")
            rep.checks.append(CheckResult(name, passed, detail, float(seconds)))
        if not rep.checks:
            raise ParseError("report.checks must not be empty")
        overall = data.get("overall")
        if not isinstance(overall, bool):
            raise ParseError("report.overall must be true or false")
        if overall != rep.overall:
            raise ParseError("report.overall does not match its checks")
        return rep


def colon_quotient_count(m_series, colon_series, sop, rank_top):
    """The verdict (passed, detail) of dim_k (M:Q)/M against
    rank(top) * dim_k R/Q, from ``m_series`` = HS(F_0/M) and
    ``colon_series`` = HS(F_0/(M:Q)).

    The left side is the difference of the two series; when that is not a
    polynomial the verdict is a failure, since an upstream precondition is
    broken.  ``verify_star`` passes the series of the output's Im phi_1,
    which its ``colon_equality`` check certifies to be M : Q.
    """
    poly = m_series.sub(colon_series).as_polynomial()
    if poly is None:
        return False, (
            "Hilbert series of (M:Q)/M is not a polynomial; an upstream "
            "precondition is broken"
        )
    lhs = sum(poly.values())
    rhs = rank_top * sop.colength
    return lhs == rhs, f"dim (M:Q)/M = {lhs}, expected {rhs}"


def depth_positive_check(m_gb):
    """True iff M : m = M, i.e. the irrelevant ideal is not associated to
    the quotient, i.e. the quotient has positive depth; the reference the
    tests hold ``verify_star``'s colon-free verdict to.

    M <= M : m <= M : x for every variable x, so the first x with
    M : x = M settles it without the intersection.  Otherwise M : m is the
    intersection of the M : x, taken in the order ``colon`` takes them.
    """
    ring = m_gb.ambient.ring
    parts = []
    for i in range(ring.nvars):
        part = colon(m_gb, [ring.var(i)])
        if submodule_equal(part, m_gb):
            return True
        parts.append(part)
    return submodule_equal(functools.reduce(intersect, parts), m_gb)


def saturate(m_gb, ideal_polys, max_iter=32):
    """Iterate M <- (M : J) until stable; returns (module, updates).  A
    negative ``max_iter`` is a ValidationError."""
    if max_iter < 0:
        raise ValidationError(
            f"iteration count must be non-negative, got {max_iter}"
        )
    current = m_gb
    for updates in range(max_iter + 1):
        nxt = colon(current, ideal_polys)
        if submodule_equal(nxt, current):
            return current, updates
        current = nxt
    raise IterationLimit(
        f"saturation did not stabilize within {max_iter} iterations"
    )


def verify_star(comp, sop, star):
    """Re-check a constructed output complex against the input.

    Runs the fixed list of checks (composition, homogeneity, acyclicity,
    colon equality by the Tor certificate, top-map minimality, rank
    accounting, quotient dimension count) plus ``depth_positive`` when the
    top module vanished, and, over a quotient ring, the certified
    regularity of the parameters.

    ``depth_positive`` passes iff ``acyclicity`` passed and the parameters
    are regular: then the output resolves F_0/N in length n - 1 over a ring
    of depth >= n, so depth(F_0/N) >= 1 by Auslander-Buchsbaum (Bruns &
    Herzog, Thm 1.3.3 and Sec. 1.5).  It runs no colon.

    The checks read M and N off the input and output complexes: their
    phi_1 columns and the Hilbert series each complex's acyclicity
    certificate keeps.  For Q*N <= M the certificate is handed the star's
    ``witness`` (``StarComplex``), which it re-checks.  A basis of M is
    built only for a membership test that no witness settled, and no basis
    of N is built.
    """
    report = VerificationReport()
    out = star.complex

    composes = report.run(
        "composition_zero", lambda: (composition_defect(out) is None, "")
    )
    homogeneous = report.run(
        "homogeneity", lambda: (homogeneity_defect(out) is None, "")
    )

    def on_a_complex(name, check, *args):
        """Run ``check(*args)``; when the two checks above found that the
        output is not a complex, it fails without being run."""
        if composes and homogeneous:
            return report.run(name, lambda: check(*args))
        return report.run(name, lambda: (False, "not a complex"))

    acyclic = on_a_complex("acyclicity", _acyclicity, out)
    on_a_complex("colon_equality", _colon_certificate, comp, sop, out, star.witness)
    report.run("top_minimality", lambda: _top_minimality(out))
    report.run("rank_accounting", lambda: _rank_accounting(comp, star))
    on_a_complex("colon_quotient_count", _colon_count, comp, sop, out)

    if star.top_rank() == 0:
        report.run(
            "depth_positive",
            lambda: (
                acyclic and sop.is_regular(),
                "top module vanished; colon by the irrelevant ideal is stable",
            ),
        )
    if comp.ring.quotient:
        report.run(
            "quotient_assumption",
            lambda: (
                (True, "parameters form a regular sequence on the quotient ring")
                if sop.is_regular()
                else (False, "parameters are not a regular sequence")
            ),
        )
    return report


def _acyclicity(out):
    cert = certify_acyclic(out)
    return cert.ok, cert.detail


def _colon_count(comp, sop, out):
    """The verdict of ``colon_quotient_count`` on the series of the input's
    and the output's Im phi_1; it fails when the input is not a complex."""
    m_series = certify_acyclic(comp).series
    if m_series is None:
        return False, "input not a complex"
    return colon_quotient_count(
        m_series, certify_acyclic(out).series, sop, comp.top_rank()
    )


def _witnessed(comp, qg, w):
    """True iff ``w`` is a vector of F_1 of ``comp`` with phi_1 w = qg
    modulo J: then qg lies in M = Im phi_1, whoever built w."""
    if w is None or w.module != comp.module(1):
        return False
    ring = comp.ring
    image = comp.phi(1).apply(w.coords)
    return all(
        reduce_mod_quotient(ring, a - b).is_zero() for a, b in zip(image, qg.coords)
    )


def _colon_certificate(comp, sop, out, witness):
    """Certify N = M : Q for M = Im phi_1 of the input ``comp`` and N =
    Im phi_1 of the output ``out``, each read through its phi_1 columns
    and the Hilbert series its acyclicity certificate keeps, M also
    through membership in ``comp.image_gb()``.  ``witness`` maps pairs
    (lam, i) to the vectors W[(lam, i)] that the output's phi_1 column
    labelled ("bracket", lam, ()) may be checked by (``StarComplex``);
    ``{}``, or an output without labels, checks every column by
    membership.

    With s the sum of the parameter degrees and a_j the twists of F_n:
    if F is acyclic, it resolves F_0/M; if q is a regular sequence, the
    Koszul complex K(q) resolves R/Q.  Computing Tor_n(F_0/M, R/Q) both ways
    gives ((M:Q)/M)(-s) = Ker(phi_n (x) R/Q), which lies in F_n/QF_n, so
    HS((M:Q)/M) <= sum_j t^(a_j - s) HS(R/Q) coefficient by coefficient
    (Bruns & Herzog, ch. 1, balance of Tor).  If Q*N <= M and
    HS(F_0/M) - HS(F_0/N) equals that bound, then HS(F_0/N) <= HS(F_0/(M:Q))
    while N <= M : Q, so N = M : Q; M <= N follows and needs no check.
    Q-containment of the top map is not needed.  A generator of N that
    equals a generator of M (the output's angle columns are the input's
    phi_1 columns) lies in M, so Q*g <= M and it takes no membership test.
    For any other generator g, labelled ("bracket", lam, ()), ``witness``
    may hold vectors W_i = W[(lam, i)] of F_1: phi_1 W_i = q_i g modulo J
    shows q_i g in M with one product (McConnell, Mehlhorn, Naeher and
    Schweitzer, "Certifying algorithms", Comput. Sci. Rev. 5 (2011)).  Each W is
    re-checked, not trusted, and a q_i g that no W shows takes the
    membership test in M, so a missing or wrong W changes only the cost,
    never the verdict.  Returns (passed, detail).
    """
    cert = certify_acyclic(comp)
    if not cert.ok:
        return False, f"input not acyclic: {cert.detail}"
    if not sop.is_regular():
        return False, "parameters are not a regular sequence"
    if out.module(0) != comp.module(0):
        return False, "the output F_0 differs from the input F_0"
    # N is generated by the output's phi_1 columns and M is a submodule, so
    # Q*N <= M needs only q*g in M for each generator g (over R/J too:
    # membership reduces modulo J)
    in_m = set(comp.image_gens(1))
    gens = out.image_gens(1)
    labels = out.labels[1] if out.labels else [()] * len(gens)
    for g, label in zip(gens, labels):
        if g in in_m:
            continue
        # no witness is keyed by an unlabelled or non-bracket column
        lam = label[1] if label[:1] == ("bracket",) else None
        for i, q in enumerate(sop.gens, 1):
            qg = g.mul_poly(q)
            w = witness.get((lam, i))
            if not (_witnessed(comp, qg, w) or comp.image_gb().contains(qg)):
                return False, "Im of the first output map is not inside M : Q"
    s = sum(sop.degrees)
    bound = sop.ideal_gb().series().twisted(
        a - s for a in comp.module(comp.length).twists
    )
    if cert.series.sub(certify_acyclic(out).series) != bound:
        return False, "HS(N/M) differs from the Tor bound, so N != M : Q"
    return True, "Im of the first output map against the colon oracle"


def _top_minimality(out):
    top_map = out.phi(out.length)
    f = out.ring.field
    for i in range(top_map.nrows):
        for j in range(top_map.ncols):
            if not f.is_zero(top_map.entry(i, j).constant_coeff()):
                return False, f"entry ({i},{j}) of the top map has a unit part"
    return True, ""


def _rank_accounting(comp, star):
    out = star.complex
    n = comp.length
    top_rank = comp.top_rank()
    problems = []
    for p in range(1, n - 1):
        expected = top_rank * comb(n, p - 1) + comp.module(p).rank
        if out.module(p).rank != expected:
            problems.append(f"rank at {p}: {out.module(p).rank} != {expected}")
    expected_prev = top_rank * comb(n, n - 2) + len(star.retained_basis)
    if out.module(n - 1).rank != expected_prev:
        problems.append(
            f"rank at {n - 1}: {out.module(n - 1).rank} != {expected_prev}"
        )
    expected_top = n * top_rank - len(star.selected_pairs)
    if out.module(n).rank != expected_top or out.module(n).rank != len(
        star.star_pairs
    ):
        problems.append(
            f"rank at {n}: {out.module(n).rank} != {expected_top} "
            f"({len(star.star_pairs)} star labels)"
        )
    return not problems, "; ".join(problems)


@dataclass
class DriverRound:
    index: int
    result: object
    matches: bool


@dataclass
class DriverResult:
    rounds: list
    stop_reason: str
    final_complex: object


def star_iteration_driver(comp, sop, rounds):
    """Apply the transform repeatedly; stops early when the next round's
    precondition fails or the top module vanishes.

    Each round's preconditions are decided once, by its ``star_transform``:
    Q-containment of the top map by the decomposition's lifts.  In round 1
    a PreconditionFailed propagates unchanged, as ``star`` raises it on the
    same input.  From round 2 on it is the stop rule: the lengths match by
    construction and the previous round's report certified the input
    acyclic, so a failure other than containment follows a failed report.

    Each round's report is its colon oracle: its ``colon_equality`` check
    certifies that Im phi_1 of the round's output is the colon of the
    round's input.  Round k matches iff round k-1 matched and round k's
    check passed, so by induction a match means Im phi_1 of round k equals
    the k-fold iterated colon of M.  A negative round count is a
    ValidationError.
    """
    # transform imports this module, so it is imported here, on first use
    from .transform import star_transform

    if rounds < 0:
        raise ValidationError(f"round count must be non-negative, got {rounds}")
    if rounds == 0:
        return DriverResult([], "no rounds requested", comp)
    current = comp
    matches = True
    out = []
    stop_reason = "completed"
    for k in range(1, rounds + 1):
        try:
            result = star_transform(current, sop)
        except PreconditionFailed:
            if k == 1:
                raise
            stop_reason = f"precondition failed before round {k}"
            break
        matches = matches and any(
            c.name == "colon_equality" and c.passed
            for c in result.report.checks
        )
        out.append(DriverRound(k, result, matches))
        current = result.star.complex
        if result.star.top_rank() == 0:
            stop_reason = f"top module vanished after round {k}"
            break
    return DriverResult(out, stop_reason, current)
