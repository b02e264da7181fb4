"""Smoke tests of the benchmark itself, at tiny size.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import startrans.complexes  # noqa: E402
import startrans.modules  # noqa: E402
import startrans.poly  # noqa: E402
import tracing  # noqa: E402


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["modules.buchberger.calls"]["value"] > 0
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-tiny-seed5-trace1" / "record.json")
        .read_text(encoding="utf-8")
    )
    assert 0 < record["traced_self_s_sum"] <= record["traced_wall_s"]


def test_tracer_wraps_every_binding_and_restores_them():
    original = startrans.modules.buchberger
    original_lift = startrans.modules.SubmoduleGB.lift
    assert startrans.complexes.buchberger is original
    tracer = tracing.Tracer()
    with tracer:
        wrapped = startrans.modules.buchberger
        assert wrapped is not original
        assert startrans.complexes.buchberger is wrapped
        assert startrans.buchberger is wrapped
        assert startrans.modules.SubmoduleGB.lift is not original_lift
        ring = startrans.poly.PolyRing(startrans.RationalField(), ("x", "y"))
        startrans.complexes.validate_sop(ring, [ring.var(0), ring.var(1)])
    assert startrans.modules.buchberger is original
    assert startrans.complexes.buchberger is original
    assert startrans.buchberger is original
    assert startrans.modules.SubmoduleGB.lift is original_lift
    assert tracer.calls["complexes.validate_sop"] == 1
    assert tracer.calls["modules.buchberger"] == 1
    roots = sum(end - start for _, parent, start, end in tracer.spans if parent == -1)
    assert sum(tracer.self_s.values()) <= roots + 1e-9


def test_tracer_only_records_the_named_targets():
    ring = startrans.poly.PolyRing(startrans.RationalField(), ("x", "y"))
    tracer = tracing.Tracer()
    with tracer:
        with tracer.only("complexes.validate_sop"):
            startrans.complexes.validate_sop(ring, [ring.var(0), ring.var(1)])
        with tracer.only():
            startrans.complexes.validate_sop(ring, [ring.var(0), ring.var(1)])
    assert tracer.calls["complexes.validate_sop"] == 1
    assert tracer.calls["modules.buchberger"] == 0
    assert tracer.calls["poly.mono_key"] == 0
    assert tracer.total_s["complexes.validate_sop"] > 0


def test_tracer_fails_loudly_on_a_missing_target(monkeypatch):
    bogus = ("modules.gone", "modules", "no_such_function", "span")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (bogus,))
    original = startrans.modules.buchberger
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracing.Tracer().install()
    assert startrans.modules.buchberger is original


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
