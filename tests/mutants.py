"""A mutation gauge for the oracle, the certificate's prime route and the
Groebner engine's witnesses.

Each row of ``MUTANTS`` is (name, file, exact old text, new text, the fact
the mutant breaks).  The runner applies one row at a time to a copy of the
repository in a temporary directory and runs the tier-1 suite there with
``-x``.  A mutant is *killed* when the suite fails (the first failing test
is named), *survived* when it passes, and *stale* when its old text does
not occur exactly once in its file.  A kill counts only when the named
test passes on the same copy with the mutant taken out again, so a test
that fails without any mutant cannot kill every row; otherwise the row is
*unverified*.  The table pins source text, so a change that makes a row
stale rewrites that row.

The file is not named ``test_*``, so tier-1 does not collect it.  Run it
from the repository root::

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows

It exits 0 when every mutant it ran was killed and verified, and 1
otherwise.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    (
        "cone_sign",
        "src/startrans/transform.py",
        "sg = cm.level(p).scale(sign_scalar(f, p))",
        "sg = cm.level(p).scale(sign_scalar(f, p + 1))",
        "the mapping cone's chain-map block carries the sign (-1)^p",
    ),
    (
        "quotient_count_always_passes",
        "src/startrans/verify.py",
        'return lhs == rhs, f"dim (M:Q)/M = {lhs}, expected {rhs}"',
        'return True, f"dim (M:Q)/M = {lhs}, expected {rhs}"',
        "dim (M:Q)/M = rank(top) * dim R/Q",
    ),
    (
        "is_regular_always_true",
        "src/startrans/complexes.py",
        "return sop.ideal_gb().series() == expected",
        "return True",
        "HS(R/Q) = prod (1 - t^d_i) HS(R) iff the parameters are regular",
    ),
    (
        "witness_trusted_unchecked",
        "src/startrans/verify.py",
        "    if w is None or w.module != comp.module(1):\n        return False\n",
        "    if w is not None:\n        return True\n    return False\n",
        "a witness vouches for q*g only if phi_1 w = q*g",
    ),
    (
        "top_minimality_always_passes",
        "src/startrans/verify.py",
        'return False, f"entry ({i},{j}) of the top map has a unit part"',
        "pass",
        "the output's top map has no unit entry",
    ),
    (
        "tor_bound_skipped",
        "src/startrans/verify.py",
        "if cert.series.sub(certify_acyclic(out).series) != bound:",
        "if False:",
        "HS(N/M) equals the Tor bound",
    ),
    (
        "colon_containment_skipped",
        "src/startrans/verify.py",
        "if not (_witnessed(comp, qg, w) or comp.image_gb().contains(qg)):",
        "if False:",
        "Q*N lies in M",
    ),
    (
        "cut_keeps_leading_labels",
        "src/startrans/transform.py",
        "comp.labels[:p] + (tuple(comp.labels[p][k] for k in keep),),",
        "comp.labels[:p] + (tuple(comp.labels[p][k] for k in range(len(keep))),),",
        "a cut position keeps the labels of the basis vectors it keeps",
    ),
    (
        "select_basis_last_pivot",
        "src/startrans/transform.py",
        "for r in range(nb, top_map.nrows)",
        "for r in reversed(range(nb, top_map.nrows))",
        "select_basis takes the first angle row with a constant as pivot",
    ),
    (
        "keying_ignores_denominators",
        "src/startrans/modules.py",
        "c = c._numerator * inverse % p",
        "c = c._numerator % p",
        "the keying mod P maps a/b to a * b^-1",
    ),
    (
        "failed_prime_run_kept",
        "src/startrans/complexes.py",
        "            if cert.ok:\n                return cert\n",
        "            return cert\n",
        "a failed certificate mod P proves nothing and falls back to Q",
    ),
    (
        "luckiness_always_true",
        "src/startrans/complexes.py",
        "        return ring.field.p is None and series == cokernel_series(\n"
        "            GradedFreeModule(ring, 1, (0,)), (), series, _MODULAR_FIELD\n"
        "        )\n",
        "        return ring.field.p is None\n",
        "a quotient ring takes the prime route only if J mod P keeps HS(R/J)",
    ),
    (
        "luckiness_not_kept",
        "src/startrans/complexes.py",
        'if _kept(comp.ring, "_modular", _modular):',
        "if _modular(comp.ring):",
        "the luckiness run happens once per ring",
    ),
    (
        "unlucky_denominator_raises",
        "src/startrans/complexes.py",
        "    except ZeroDivisionError:  # P divides a denominator of J's generators\n"
        "        return False\n",
        "    except ZeroDivisionError:  # P divides a denominator of J's generators\n"
        "        raise\n",
        "a J with P in a denominator makes the ring unlucky, not an error",
    ),
    (
        "divisible_denominator_not_caught",
        "src/startrans/modules.py",
        "                if not d % p:\n"
        '                    raise ZeroDivisionError(f"{p} divides a denominator")\n',
        "",
        "a denominator that P divides sends the certificate to Q",
    ),
    (
        "membership_always_true",
        "src/startrans/modules.py",
        "        return not self._remainder(v, lead_only=True)\n",
        "        self._remainder(v, lead_only=True)\n        return True\n",
        "v lies in M only if its division by the basis leaves nothing; the "
        "colon check falls back to that test",
    ),
    (
        "unit_row_misplaced",
        "src/startrans/modules.py",
        "unit[recipe] = ring.one()",
        "unit[recipe - 1] = ring.one()",
        "the row of working generator j, built on first use, is e_j",
    ),
    (
        "lift_check_skips_j_multiples",
        "src/startrans/modules.py",
        "for k, c in enumerate(total[n:]):",
        "for k, c in enumerate(total[n:n]):",
        "a witness over R/J recombines only with the J-multiples it reads",
    ),
)

_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".perfbench_out", ".benchmarks",
    "__pycache__", "*.egg-info", "build",
)


def _pytest(copy, *args):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def run(row):
    """(outcome, killing test or None, seconds) of one row."""
    name, path, old, new, _ = row
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale", None, 0.0
        target.write_text(text.replace(old, new))
        proc = _pytest(copy, "-x", "--continue-on-collection-errors")
        if proc.returncode == 0:
            return "survived", None, time.monotonic() - start
        found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
        if not found:
            return "unverified", f"exit {proc.returncode}", time.monotonic() - start
        # the killing test must pass without the mutant
        target.write_text(text)
        verified = _pytest(copy, found.group(1)).returncode == 0
    outcome = "killed" if verified else "unverified"
    return outcome, found.group(1), time.monotonic() - start


def main(names):
    rows = [row for row in MUTANTS if not names or row[0] in names]
    unknown = set(names) - {row[0] for row in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for row in rows:
        outcome, killer, seconds = run(row)
        bad += outcome != "killed"
        detail = f"by {killer}" if killer else f"({row[4]})"
        if outcome == "unverified":
            detail += ": no named test fails only with the mutant"
        print(f"{row[0]}: {outcome} in {seconds:.1f} s {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
