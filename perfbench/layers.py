"""Per-layer metrics of a traced run.

Names follow ``<module>.<public name>.<stat>``: ``calls`` (a count that
repeats exactly), ``total_s`` (outermost calls only) and ``self_s`` (span
time minus child spans).  A few metrics come from arguments and return
values, read by hooks on the traced calls:

* ``modules.buchberger.gens_in`` / ``gb_out`` / ``gb_max``: generators in,
  reduced-basis elements out (summed) and the largest basis;
* ``verify.check.<name>.s``: each ``verify_star`` report's own
  ``CheckResult.seconds``, summed; ``verify.unattributed_s`` is the
  ``verify_star`` time that no check covers;
* ``verify.star_iteration_driver.colon_per_round``: colon calls made
  inside the driver per driver round;
* ``problemfile.bytes_written``: bytes of every file ``emit_problem``
  wrote, less the digits of the check timings in a written report, so
  that the count repeats exactly;
* ``trace.overhead_frac``: traced against untraced wall time of the same
  work.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from workloads import CHECK_NAMES


def _stats(prefix, *stats):
    return [f"{prefix}.{s}" for s in stats]


PER_LAYER = (
    _stats("poly.mono_key", "calls")
    + _stats("poly.Polynomial.mul", "calls", "self_s")
    + _stats("modules.buchberger", "calls", "self_s", "gens_in", "gb_out", "gb_max")
    + _stats("modules.SubmoduleGB.lift", "calls", "self_s")
    + _stats("modules.SubmoduleGB.normal_form", "calls", "self_s")
    + _stats("modules.syzygies", "calls", "self_s")
    + _stats("modules.colon", "calls", "total_s")
    + _stats("modules.intersect", "calls", "self_s")
    + _stats("modules.hilbert_data", "calls", "self_s")
    + [
        s
        for name in (
            "certify_acyclic",
            "check_complex",
            "check_qf_containment",
            "SopData.ideal_gb",
            "FreeComplex.image_gb",
            "decompose_images",
        )
        for s in _stats(f"complexes.{name}", "calls", "total_s")
    ]
    + ["complexes.validate_sop.total_s", "complexes.koszul.total_s"]
    + [
        f"transform.{name}.total_s"
        for name in (
            "star_transform",
            "build_chain_map",
            "mapping_cone",
            "split_top",
            "select_basis",
            "build_star_top",
        )
    ]
    + ["verify.verify_star.total_s"]
    + [f"verify.check.{name}.s" for name in CHECK_NAMES]
    + ["verify.unattributed_s"]
    + _stats("verify.star_iteration_driver", "calls", "total_s", "colon_per_round")
    + [
        s
        for name in ("parse_problem", "emit_problem", "emit_star", "star_from_problem")
        for s in _stats(f"problemfile.{name}", "calls", "total_s")
    ]
    + ["problemfile.bytes_written"]
    + _stats("cli.main", "calls", "self_s")
    + ["trace.overhead_frac"]
)


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("overhead_frac"):
        return "ratio"
    if name.endswith("colon_per_round"):
        return "1/round"
    return "count"


class LayerHooks:
    """Hooks for ``Tracer`` that read sizes and reports off traced calls."""

    def __init__(self):
        self.gens_in = 0
        self.gb_out = 0
        self.gb_max = 0
        self.check_s = defaultdict(float)
        self.rounds = 0
        self.bytes_written = 0

    def hooks(self):
        return {
            "modules.buchberger": self._buchberger,
            "verify.verify_star": self._verify_star,
            "verify.star_iteration_driver": self._iteration_driver,
            "problemfile.emit_problem": self._emit_problem,
        }

    def _buchberger(self, args, kwargs, result, span):
        self.gens_in += len(result.generators)
        self.gb_out += len(result.gb)
        self.gb_max = max(self.gb_max, len(result.gb))

    def _verify_star(self, args, kwargs, result, span):
        for check in result.checks:
            self.check_s[check.name] += check.seconds

    def _iteration_driver(self, args, kwargs, result, span):
        self.rounds += len(result.rounds)

    def _emit_problem(self, args, kwargs, result, span):
        pf = args[0] if args else kwargs["pf"]
        path = args[1] if len(args) > 1 else kwargs["path"]
        timing_bytes = 0
        if pf.report is not None:
            # the digits of the check timings vary from run to run
            checks = pf.report.to_jsonable()["checks"]
            timing_bytes = sum(len(json.dumps(c["seconds"])) for c in checks)
        self.bytes_written += os.path.getsize(path) - timing_bytes


def per_layer_metrics(tracer, hooks, overhead):
    """{name: value} for every name in PER_LAYER."""
    extra = {
        "modules.buchberger.gens_in": hooks.gens_in,
        "modules.buchberger.gb_out": hooks.gb_out,
        "modules.buchberger.gb_max": hooks.gb_max,
        "verify.unattributed_s": tracer.total_s["verify.verify_star"]
        - sum(hooks.check_s.values()),
        "verify.star_iteration_driver.colon_per_round": (
            tracer.count_within("modules.colon", "verify.star_iteration_driver")
            / hooks.rounds
            if hooks.rounds
            else 0
        ),
        "problemfile.bytes_written": hooks.bytes_written,
        "trace.overhead_frac": overhead,
    }
    for name in CHECK_NAMES:
        extra[f"verify.check.{name}.s"] = hooks.check_s.get(name, 0.0)
    stats = {"calls": tracer.calls, "total_s": tracer.total_s, "self_s": tracer.self_s}
    out = {}
    for name in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        else:
            prefix, stat = name.rsplit(".", 1)
            out[name] = stats[stat].get(prefix, 0)
    return out
