"""The benchmark's workloads, their timing, and their correctness checks.

Everything runs in one process and one thread, as a closed loop: each
instance starts only after the previous one has finished.

* ``generic_n4_p`` / ``generic_n3_q``: seeded generic instances (see
  ``generate.py``), each run through ``star_transform(with_report=False)``
  and then ``verify_star``.  A run does the first instances of a fixed
  pool whose output fingerprints are recorded in ``fingerprints.json``,
  in an order shuffled by the run's seed.  A unit of work is one instance.
* ``corpus_cli``: the package's fixed corpus, written as problem files in
  set-up and driven through ``startrans.cli.main`` in process: ``star
  --verify`` on every file, then ``iterate --max-iter 2`` on every file,
  in an order shuffled by the seed.  A unit of work is one such pass, and
  the pass repeats.

The number of units is ``seconds / budget_s``, rounded, at least one, so
that the same seed and run length always do the same work.  Set-up runs
``setups`` times before the first unit; the last set-up's output is used.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import statistics
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import startrans.cli as cli
import startrans.instances as instances
import startrans.problemfile as problemfile
import startrans.transform as transform
import startrans.verify as verify
from startrans.poly import format_polynomial

from generate import DrawFailed, Shape, generic_instance
from tracing import Tracer

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Check names whose report seconds become ``verify.check.<name>.s``.
CHECK_NAMES = (
    "composition_zero",
    "homogeneity",
    "acyclicity",
    "colon_equality",
    "top_minimality",
    "rank_accounting",
    "colon_quotient_count",
    "depth_positive",
)


@dataclass(frozen=True)
class Size:
    # Seconds of the run allotted to one unit of work.  It is above the
    # unit's time when a shared host runs slow, so that a run still ends
    # within its --seconds then.
    budget_s: float
    setups: int  # set-ups per run; setup_s is their median
    shape: Shape = None  # generic workloads
    pool: int = 0  # generic workloads: instances with recorded fingerprints
    corpus_count: int = 0  # corpus_cli: random instances besides the named ones


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "generic" | "corpus"
    sizes: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "generic_n4_p",
            "generic",
            {
                "full": Size(13.0, 7, Shape(4, "p:32003", 1, 1), pool=16),
                "tiny": Size(0.5, 3, Shape(3, "p:32003", 1, 1), pool=4),
            },
        ),
        Workload(
            "generic_n3_q",
            "generic",
            {
                "full": Size(13.0, 7, Shape(3, "rational", 2, 1), pool=16),
                "tiny": Size(0.5, 3, Shape(3, "rational", 1, 1), pool=4),
            },
        ),
        Workload(
            "corpus_cli",
            "corpus",
            {
                "full": Size(4.0, 15, corpus_count=20),
                "tiny": Size(0.5, 3, corpus_count=0),
            },
        ),
    )
}


def unit_count(size, seconds):
    return max(1, round(seconds / size.budget_s))


# Spans a traced run records during its first set-up; the other set-ups
# are not traced, so set-up adds nothing to the per-layer counts of the
# work that the timed units do.
SETUP_SPANS = ("complexes.validate_sop", "complexes.koszul", "problemfile.emit_problem")


def load_fingerprints():
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


@dataclass
class Run:
    """What one run measured, plus its failures."""

    workload: Workload
    size_name: str
    seed: int
    seconds: int
    workdir: Path
    expected: dict
    tracer: Tracer = None
    max_units: int = None  # cap on the units, for a reference run
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    units: list = field(default_factory=list)  # per unit: {stage: seconds}
    shapes: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    check_s: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def size(self):
        return self.workload.sizes[self.size_name]

    @property
    def unit_count(self):
        count = unit_count(self.size, self.seconds)
        return count if self.max_units is None else min(count, self.max_units)

    def key(self, item):
        return f"{self.workload.name}/{self.size_name}/{item}"

    def quiet(self):
        """Context for bookkeeping that the trace must not see."""
        return self.tracer.only() if self.tracer else nullcontext()

    def setup(self, make):
        """Run ``make`` ``size.setups`` times, timing each; return the last
        value.  A traced run records only ``SETUP_SPANS`` of the first."""
        value = None
        for n in range(self.size.setups):
            if self.tracer is None:
                context = nullcontext()
            elif n == 0:
                context = self.tracer.only(*SETUP_SPANS)
            else:
                context = self.quiet()
            with context:
                t0 = perf_counter()
                value = make()
                self.setup_s.append(perf_counter() - t0)
        return value

    def fail(self, what, message):
        self.failed += 1
        self.failures.append(f"{what}: {message}")

    def compare(self, item, actual):
        """Record ``actual`` and count a failure when it differs from the
        recorded fingerprint (``expected`` is None while recording)."""
        key = self.key(item)
        self.fingerprints[key] = actual
        if self.expected is not None and self.expected.get(key) != actual:
            reason = "no recorded fingerprint" if key not in self.expected else "fingerprint mismatch"
            self.fail(key, reason)


def _crash(exc):
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


# -- generic workloads -------------------------------------------------------


def _instance_order(run):
    """The pool's first instances, as many as the run's units (at most the
    pool), in an order shuffled by the seed.  Every seed times the same
    instances: over Q their costs differ, and a seed-chosen subset would
    add that to the spread between seeds."""
    order = list(range(min(unit_count(run.size, run.seconds), run.size.pool)))
    random.Random(run.seed).shuffle(order)
    return order[: run.unit_count]


def _draw(shape, index):
    try:
        return generic_instance(shape, index)
    except DrawFailed as exc:
        return exc


def star_and_verify(comp, sop):
    """Build and certify one instance; (star, report, build_s, verify_s, cpu_s)."""
    cpu0 = process_time()
    t0 = perf_counter()
    result = transform.star_transform(comp, sop, with_report=False)
    t1 = perf_counter()
    report = verify.verify_star(comp, sop, result.star)
    t2 = perf_counter()
    return result.star, report, t1 - t0, t2 - t1, process_time() - cpu0


def generic_fingerprint(comp, sop, star, report, path):
    """Digest of the bytes ``emit_star`` writes (no report block, so no
    timings), the report's check names, and the complex ranks."""
    base = problemfile.ProblemFile(
        comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp
    )
    problemfile.emit_star(star, None, str(path), base, comp)
    return {
        "digest": sha256_hex(path.read_bytes()),
        "checks": report.names(),
        "ranks_in": [m.rank for m in comp.modules],
        "ranks_out": [m.rank for m in star.complex.modules],
    }


def run_generic(run):
    # Set-up draws the run's instances (validate_sop, koszul).
    shape = run.size.shape
    indices = _instance_order(run)
    scratch = run.workdir / "star.json"
    drawn = run.setup(lambda: [_draw(shape, i) for i in indices])
    for index, inst in zip(indices, drawn):
        run.attempted += 1
        if isinstance(inst, DrawFailed):
            run.fail(run.key(index), f"draw failed validate_sop: {inst}")
            continue
        comp, sop = inst
        try:
            star, report, build_s, verify_s, cpu_s = star_and_verify(comp, sop)
        except Exception as exc:  # a crash is a failed instance, not a dead run
            run.fail(run.key(index), _crash(exc))
            continue
        checks_s = sum(check.seconds for check in report.checks)
        run.units.append({
            "star_s": build_s + verify_s, "star_cpu_s": cpu_s, "build_s": build_s,
            "verify_s": verify_s, "verify_checks_s": checks_s,
        })
        for check in report.checks:
            run.check_s[check.name] += check.seconds
        if not report.overall:
            run.fail(run.key(index), "verify_star report failed: " + "; ".join(
                c.name for c in report.checks if not c.passed))
            continue
        with run.quiet():
            actual = generic_fingerprint(comp, sop, star, report, scratch)
        run.shapes.append(
            {"instance": index, **asdict(shape), "sop_degrees": list(sop.degrees),
             "ranks_in": actual["ranks_in"], "ranks_out": actual["ranks_out"]}
        )
        run.compare(index, actual)


# -- corpus workload ---------------------------------------------------------


def write_corpus(directory, count):
    """Write the fixed corpus as problem files; [(name, path, input ranks)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, comp, sop in instances.corpus(count=count):
        pf = problemfile.ProblemFile(
            comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp
        )
        path = directory / f"{name}.json"
        problemfile.emit_problem(pf, str(path))
        out.append((name, path, [m.rank for m in comp.modules]))
    return out


def call_cli(argv):
    """Run ``startrans.cli.main`` in process; (exit code, stdout, stderr,
    wall s, cpu s).  A crash or argparse exit becomes a non-zero code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        cpu0 = process_time()
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not a dead run
            code = -1
            err.write(_crash(exc))
        wall = perf_counter() - t0
        cpu = process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def star_file_fingerprint(path):
    """Digest of the written output with the report's timings zeroed, and
    the report's check names and seconds."""
    data = json.loads(path.read_text(encoding="utf-8"))
    checks = data.get("report", {}).get("checks", [])
    seconds = {c["name"]: c["seconds"] for c in checks}
    for c in checks:
        c["seconds"] = 0
    text = json.dumps(data, indent=1, sort_keys=True)
    actual = {
        "digest": sha256_hex(text.encode()),
        "checks": [c["name"] for c in checks],
        "ranks_out": [len(t) for t in data["complex"]["twists"]],
    }
    return actual, seconds, data.get("report", {}).get("overall") is True


def run_corpus(run):
    # Set-up generates the corpus and writes its problem files.
    corpus_dir = run.workdir / "corpus"
    rng = random.Random(run.seed)
    files = run.setup(lambda: write_corpus(corpus_dir, run.size.corpus_count))
    for pass_index in range(run.unit_count):
        order = list(files)
        rng.shuffle(order)
        totals = dict.fromkeys(("star_s", "star_cpu_s", "iterate_s", "verify_checks_s"), 0.0)
        for name, path, ranks_in in order:
            out = path.with_name(f"{name}.star.json")
            out.unlink(missing_ok=True)
            run.attempted += 1
            code, _, err, wall, cpu = call_cli(
                ["star", "--input", str(path), "--output", str(out), "--verify"]
            )
            totals["star_s"] += wall
            totals["star_cpu_s"] += cpu
            if code != 0:
                run.fail(run.key(name), f"star exited {code}: {err.strip()}")
                continue
            actual, seconds, overall = star_file_fingerprint(out)
            for check, s in seconds.items():
                run.check_s[check] += s
                totals["verify_checks_s"] += s
            if not overall:
                run.fail(run.key(name), "written report does not pass")
                continue
            if pass_index == 0:
                run.shapes.append({"instance": name, "ranks_in": ranks_in,
                                   "ranks_out": actual["ranks_out"]})
            run.compare(f"{name}/star", actual)
        for name, path, _ in order:
            run.attempted += 1
            code, stdout, err, wall, cpu = call_cli(
                ["iterate", "--input", str(path), "--max-iter", "2"]
            )
            totals["iterate_s"] += wall
            if code != 0:
                run.fail(run.key(name), f"iterate exited {code}: {err.strip()}")
                continue
            run.compare(f"{name}/iterate", {"digest": sha256_hex(stdout.encode())})
        run.units.append(totals)


# -- running a workload ------------------------------------------------------


def execute(run):
    if run.workload.kind == "generic":
        run_generic(run)
    else:
        run_corpus(run)
    return run


def overhead_frac(run):
    """Traced against untraced ``star_s`` of the run's first unit of work,
    minus one.  The untraced unit comes from a fresh run of the same seed
    capped at one unit; its failures count as the traced run's."""
    workdir = run.workdir / "reference"
    workdir.mkdir(exist_ok=True)
    reference = execute(Run(
        run.workload, run.size_name, run.seed, run.seconds, workdir, run.expected,
        max_units=1,
    ))
    run.attempted += reference.attempted
    run.failed += reference.failed
    run.failures += [f"untraced reference: {f}" for f in reference.failures]
    if not run.units or not reference.units:
        return 0.0
    return run.units[0]["star_s"] / reference.units[0]["star_s"] - 1.0


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0  # every unit failed


def end_to_end_metrics(run):
    return {
        "star_s": (_median(u["star_s"] for u in run.units), "s"),
        "star_cpu_s": (_median(u["star_cpu_s"] for u in run.units), "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def stage_summary(run):
    """Stage medians over the units, and verify attribution from the
    reports' own check timings; printed for reading, not part of the
    result line."""
    out = {}
    if not run.units:
        return out
    for key in sorted(run.units[0]):
        out[key] = statistics.median(u[key] for u in run.units)
    if "verify_s" in out:
        out["verify_unattributed_s"] = out["verify_s"] - out["verify_checks_s"]
    return out
