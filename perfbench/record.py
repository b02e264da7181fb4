"""Record the output fingerprints that every benchmark run checks.

Usage, from the repository root:

    python3 perfbench/record.py [--size full|tiny ...] [--workload NAME ...]

Runs every instance of each generic workload's pool and one pass of the
corpus, and merges the fingerprints into ``perfbench/fingerprints.json``.
Re-record only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name, size_name):
    workload = workloads.WORKLOADS[name]
    size = workload.sizes[size_name]
    units = size.pool if workload.kind == "generic" else 1
    workdir = ROOT / ".perfbench_out" / f"record-{name}-{size_name}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workload, size_name, 0, int(units * size.budget_s) or 1, workdir, None
    )
    workloads.execute(run)
    if run.failed:
        raise SystemExit(f"{name}/{size_name} failed: " + "; ".join(run.failures))
    return run.fingerprints


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--size", action="append", choices=("full", "tiny"))
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    stored = workloads.load_fingerprints()
    for size_name in args.size or ("tiny", "full"):
        for name in args.workload or workloads.WORKLOADS:
            fingerprints = record(name, size_name)
            stored.update(fingerprints)
            print(f"{name}/{size_name}: {len(fingerprints)} fingerprints")
    workloads.FINGERPRINTS.write_text(
        json.dumps(dict(sorted(stored.items())), indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
