"""Run one benchmark workload of startrans and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload generic_n4_p --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` the run is traced from outside the package and the result
line holds the per-layer metrics.  ``--size tiny`` runs small instances,
for the benchmark's own tests.  The package is imported from ``src/`` next
to this directory; without it the run exits with code 2.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (metadata, instance shapes, fingerprints, failures, stage times) is
written under ``.perfbench_out/`` at the repository root, with the trace
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p


def _metadata():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "startrans" / "__init__.py").is_file():
        print(f"perfbench: no startrans package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from layers import PER_LAYER, LayerHooks, per_layer_metrics, unit_of
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    start_meta = _metadata()
    label = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / label
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workloads.WORKLOADS[args.workload], args.size, args.seed, args.seconds,
        workdir, workloads.load_fingerprints(),
    )
    record = {"args": vars(args)}

    if args.trace:
        hooks = LayerHooks()
        run.tracer = Tracer(hooks.hooks())
        t0 = perf_counter()
        with run.tracer:
            workloads.execute(run)
        traced_wall = perf_counter() - t0
        run.tracer.write_spans(workdir / "spans.jsonl")
        values = per_layer_metrics(
            run.tracer, hooks, workloads.overhead_frac(run)
        )
        metrics = {name: (values[name], unit_of(name)) for name in PER_LAYER}
        record["traced_wall_s"] = traced_wall
        record["traced_self_s_sum"] = sum(run.tracer.self_s.values())
        record["spans"] = len(run.tracer.spans)
    else:
        workloads.execute(run)
        metrics = workloads.end_to_end_metrics(run)
        record["stages"] = workloads.stage_summary(run)

    record.update(
        metadata={"start": start_meta, "end": _metadata()},
        shapes=run.shapes,
        fingerprints=run.fingerprints,
        failures=run.failures,
        setup_s=run.setup_s,
        units=run.units,
        check_s=dict(run.check_s),
    )
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(run.units)} unit(s), {run.attempted} attempted, {run.failed} failed")
    print(f"python {start_meta['python']}, nproc {start_meta['nproc']}, loadavg "
          f"start {start_meta['loadavg']} end {record['metadata']['end']['loadavg']}")
    for key, value in record.get("stages", {}).items():
        print(f"  stage {key}: {value:.4f} s")
    for check, seconds in sorted(run.check_s.items()):
        print(f"  verify.check.{check}: {seconds:.4f} s")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
