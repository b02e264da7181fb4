"""Outside-in tracing of the startrans package.

The tracer wraps the package's public functions and methods from outside:
a function is replaced in *every* ``startrans`` module namespace that
binds it (``from .modules import buchberger`` copies the name into
``complexes``, ``transform``, ``cli`` and the package itself), and a
method is replaced on its class.  Nothing in ``src/startrans`` changes.

Three kinds of wrapper:

* ``span``: records (name, parent span, start, end) in memory; the self
  time of a span is its duration minus the time covered by its children.
* ``leaf``: a hot function that calls nothing traced; only its call count
  and total time are kept (no span objects), and its time still counts as
  child time of the enclosing span.
* ``count``: a very hot function; only calls are counted.

The ``fields`` layer is not wrapped: it runs per coefficient operation and
a wrapper there would distort everything around it.

``install`` raises ``TraceError`` when a named target no longer exists, so
a rename cannot silently report zeros; ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "startrans"
MODULES = ("poly", "modules", "complexes", "transform", "verify", "problemfile", "cli")

# (metric prefix, module, attribute path, kind).  The metric prefix is the
# name that per-layer metrics use: ``<prefix>.calls`` and so on.
TARGETS = (
    ("poly.mono_key", "poly", "PolyRing.mono_key", "count"),
    ("poly.Polynomial.mul", "poly", "Polynomial.__mul__", "leaf"),
    ("modules.buchberger", "modules", "buchberger", "span"),
    ("modules.SubmoduleGB.lift", "modules", "SubmoduleGB.lift", "span"),
    ("modules.SubmoduleGB.normal_form", "modules", "SubmoduleGB.normal_form", "span"),
    ("modules.normal_form", "modules", "normal_form", "span"),
    ("modules.lift_witness", "modules", "lift_witness", "span"),
    ("modules.syzygies", "modules", "syzygies", "span"),
    ("modules.submodule_equal", "modules", "submodule_equal", "span"),
    ("modules.colon", "modules", "colon", "span"),
    ("modules.intersect", "modules", "intersect", "span"),
    ("modules.hilbert_data", "modules", "hilbert_data", "span"),
    ("complexes.validate_sop", "complexes", "validate_sop", "span"),
    ("complexes.koszul", "complexes", "koszul", "span"),
    ("complexes.check_complex", "complexes", "check_complex", "span"),
    ("complexes.homogeneity_defect", "complexes", "homogeneity_defect", "span"),
    ("complexes.composition_defect", "complexes", "composition_defect", "span"),
    ("complexes.certify_acyclic", "complexes", "certify_acyclic", "span"),
    ("complexes.check_qf_containment", "complexes", "check_qf_containment", "span"),
    ("complexes.decompose_images", "complexes", "decompose_images", "span"),
    ("complexes.SopData.ideal_gb", "complexes", "SopData.ideal_gb", "span"),
    ("complexes.FreeComplex.image_gb", "complexes", "FreeComplex.image_gb", "span"),
    ("transform.star_transform", "transform", "star_transform", "span"),
    ("transform.build_chain_map", "transform", "build_chain_map", "span"),
    ("transform.chain_map_image_checks", "transform", "chain_map_image_checks", "span"),
    ("transform.mapping_cone", "transform", "mapping_cone", "span"),
    ("transform.split_top", "transform", "split_top", "span"),
    ("transform.select_basis", "transform", "select_basis", "span"),
    ("transform.build_star_top", "transform", "build_star_top", "span"),
    ("verify.verify_star", "verify", "verify_star", "span"),
    ("verify.colon_quotient_count", "verify", "colon_quotient_count", "span"),
    ("verify.depth_positive_check", "verify", "depth_positive_check", "span"),
    ("verify.saturate", "verify", "saturate", "span"),
    ("verify.star_iteration_driver", "verify", "star_iteration_driver", "span"),
    ("problemfile.parse_problem", "problemfile", "parse_problem", "span"),
    ("problemfile.emit_problem", "problemfile", "emit_problem", "span"),
    ("problemfile.emit_star", "problemfile", "emit_star", "span"),
    ("problemfile.star_from_problem", "problemfile", "star_from_problem", "span"),
    ("cli.main", "cli", "main", "span"),
)


class TraceError(RuntimeError):
    """A traced target is missing, or the tracer is misused."""


class Tracer:
    """Spans and counters for one run; install, run, uninstall, summarize.

    ``hooks`` maps a metric prefix to ``fn(args, kwargs, result, span)``,
    called after a successful traced call; the benchmark uses it to read
    sizes and reports from arguments and return values.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []  # [prefix, parent index or -1, start, end]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []  # (span index, child seconds so far)
        self._active = defaultdict(int)
        self._restore = []  # (owner, attribute, original)
        self._only = None  # None: record every target; else only these

    # -- installation --------------------------------------------------

    def install(self):
        if self._restore:
            raise TraceError("tracer already installed")
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
        }
        resolved = []
        missing = []
        for prefix, mod_name, path, kind in TARGETS:
            owner, attr = _resolve_owner(modules[mod_name], path)
            if owner is None or not callable(getattr(owner, attr, None)):
                missing.append(f"{PACKAGE}.{mod_name}.{path}")
                continue
            resolved.append((prefix, owner, attr, kind))
        if missing:
            raise TraceError("trace targets no longer exist: " + ", ".join(missing))
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for prefix, owner, attr, kind in resolved:
                original = getattr(owner, attr)
                wrapper = self._wrap(prefix, kind, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, name, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def only(self, *prefixes):
        """Record only the named targets inside the block; with no names,
        record nothing (for the benchmark's own bookkeeping).  A call that
        is not recorded counts as time of the enclosing recorded span."""
        saved = self._only
        self._only = frozenset(prefixes)
        try:
            yield
        finally:
            self._only = saved

    def _skips(self, prefix):
        return self._only is not None and prefix not in self._only

    # -- wrappers ------------------------------------------------------

    def _wrap(self, prefix, kind, fn):
        if kind == "count":
            return self._counting(prefix, fn)
        if kind == "leaf":
            return self._leaf(prefix, fn)
        return self._span(prefix, fn)

    def _counting(self, prefix, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer._skips(prefix):
                calls[prefix] += 1
            return fn(*args, **kwargs)

        return counted

    def _leaf(self, prefix, fn):
        tracer = self
        calls, total_s, self_s, stack = self.calls, self.total_s, self.self_s, self._stack

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if tracer._skips(prefix):
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[prefix] += 1
                total_s[prefix] += elapsed
                self_s[prefix] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return leaf

    def _span(self, prefix, fn):
        tracer = self
        hook = self.hooks.get(prefix)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer._skips(prefix):
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            record = [prefix, stack[-1][0] if stack else -1, 0.0, 0.0]
            tracer.spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            tracer._active[prefix] += 1
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = end = perf_counter()
                stack.pop()
                tracer._active[prefix] -= 1
                elapsed = end - record[2]
                tracer.calls[prefix] += 1
                tracer.self_s[prefix] += elapsed - frame[1]
                if not tracer._active[prefix]:
                    tracer.total_s[prefix] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, record)
            return result

        return span

    # -- results -------------------------------------------------------

    def count_within(self, prefix, ancestor):
        """Calls of ``prefix`` made inside a span of ``ancestor``."""
        inside = 0
        for name, parent, _, _ in self.spans:
            if name != prefix:
                continue
            while parent != -1:
                if self.spans[parent][0] == ancestor:
                    inside += 1
                    break
                parent = self.spans[parent][1]
        return inside

    def write_spans(self, path):
        """One JSON object per line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")


def _resolve_owner(module, path):
    """(object holding the last attribute, attribute name); the object is
    None when the path no longer resolves."""
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None, attr
    return owner, attr
