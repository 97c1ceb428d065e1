"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.installed()`` replaces the functions each opmeans layer calls in
another layer, at the import site the caller uses, with wrappers that record
one span per call: its name, start, end and the span that caused it.  Spans
stay in memory (compact arrays) until the run ends.  Nothing is patched
outside the ``with`` block, so the untraced runs execute the program as is.

Layers are the package's modules plus ``linalg``, the numpy/scipy
eigensolver entry points that ``core`` and ``means`` call.  A layer's self
time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Span name -> layer: the calls from one layer into another that the three
#: workloads make.  Every wrapped callable gets a span of its own name.
SPAN_LAYER = {
    "numpy.linalg.eigh": "linalg",
    "numpy.linalg.eigvalsh": "linalg",
    "scipy.linalg.schur": "linalg",
    "core.as_complex_array": "core.validation",
    "core.as_hermitian_array": "core.validation",
    "core.hermitian_part": "core.validation",
    "core.apply_fn": "core.apply_fn",
    "core.loewner_leq": "core.loewner",
    "core.norm": "core.norm",
    "core.singular_values": "core.norm",
    "core.matrix_abs": "core.norm",
    "core.det_root": "core.det_root",
    "means.mean": "means",
    "means.mean_by_name": "means.lookup",
    "functions.function_by_name": "functions",
    "functions.ScalarFunction.__call__": "functions",
    "randgen.random_pd": "randgen",
    "randgen.random_normal": "randgen",
    "randgen.random_gap_pair": "randgen",
    "checks.check_main_chain": "checks",
    "checks.check_subadditivity_refinement": "checks",
    "checks.check_normal_chain": "checks",
    "checks.check_determinant_suite": "checks",
    "harness.run_suite": "harness",
    "harness.emit_report": "harness.emit",
}

#: Modules whose global names the program resolves at call time.
_CALLER_MODULES = ("core", "functions", "means", "randgen", "checks", "harness")

#: Per-layer metrics of a traced run and their units; bench/BASELINE.md maps each
#: to the end-to-end metric it should move.
LAYER_METRICS = (
    ("linalg.factorizations_per_record", "count"),
    ("linalg.eigh_per_record", "count"),
    ("linalg.eigvalsh_per_record", "count"),
    ("linalg.schur_per_record", "count"),
    ("linalg.busy_s", "s"),
    ("core.validation_calls_per_record", "count"),
    ("core.validation_s", "s"),
    ("core.apply_fn_calls_per_record", "count"),
    ("core.apply_fn_s", "s"),
    ("core.loewner_calls_per_record", "count"),
    ("core.loewner_s", "s"),
    ("core.norm_calls_per_record", "count"),
    ("core.norm_s", "s"),
    ("core.det_root_s", "s"),
    ("means.calls_per_record", "count"),
    ("means.self_s", "s"),
    ("means.lookup_calls_per_record", "count"),
    ("means.lookup_s", "s"),
    ("functions.calls_per_record", "count"),
    ("functions.self_s", "s"),
    ("randgen.calls", "count"),
    ("randgen.self_s", "s"),
    ("checks.self_s", "s"),
    ("checks.links_per_record", "count"),
    ("checks.applicable_ratio", "ratio"),
    ("checks.downgraded_records", "count"),
    ("harness.self_s", "s"),
    ("harness.emit_s", "s"),
    ("harness.emit_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records nested spans in flat arrays; one tracer per traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    @contextmanager
    def installed(self):
        """Patch every traced import site for the duration of the block."""
        import numpy.linalg
        import scipy.linalg

        import opmeans.functions

        patches = [
            (numpy.linalg, "eigh", "numpy.linalg.eigh"),
            (numpy.linalg, "eigvalsh", "numpy.linalg.eigvalsh"),
            (scipy.linalg, "schur", "scipy.linalg.schur"),
            (opmeans.functions.ScalarFunction, "__call__", "functions.ScalarFunction.__call__"),
        ]
        modules = {name: importlib.import_module(f"opmeans.{name}") for name in _CALLER_MODULES}
        for span_name in SPAN_LAYER:
            home, _, attr = span_name.partition(".")
            if home not in _CALLER_MODULES or "." in attr:
                continue
            original = getattr(modules[home], attr)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, span_name))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, span_name in patches:
                setattr(owner, attr, self.wrap(span_name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total duration, self time)."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=dur, minlength=len(self.names))
        self_time = np.bincount(name_id, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write the spans: name ids, parent span index (-1 for roots), start and end."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )


def layer_metrics(tracer: Tracer, records: int, links: int, applicable: int,
                  downgraded: int, emit_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (without ``trace.overhead_s``)."""
    spans = tracer.by_name()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name, (n, total, own) in spans.items():
        layer = SPAN_LAYER[name]
        calls[layer] = calls.get(layer, 0) + n
        busy[layer] = busy.get(layer, 0.0) + total
        self_s[layer] = self_s.get(layer, 0.0) + own

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def per_record(n):
        return n / records

    eigh, eigvalsh, schur = (
        count("numpy.linalg.eigh"), count("numpy.linalg.eigvalsh"), count("scipy.linalg.schur")
    )
    return {
        "linalg.factorizations_per_record": per_record(eigh + eigvalsh + schur),
        "linalg.eigh_per_record": per_record(eigh),
        "linalg.eigvalsh_per_record": per_record(eigvalsh),
        "linalg.schur_per_record": per_record(schur),
        "linalg.busy_s": busy.get("linalg", 0.0),
        "core.validation_calls_per_record": per_record(calls.get("core.validation", 0)),
        "core.validation_s": self_s.get("core.validation", 0.0),
        "core.apply_fn_calls_per_record": per_record(calls.get("core.apply_fn", 0)),
        "core.apply_fn_s": self_s.get("core.apply_fn", 0.0),
        "core.loewner_calls_per_record": per_record(calls.get("core.loewner", 0)),
        "core.loewner_s": self_s.get("core.loewner", 0.0),
        "core.norm_calls_per_record": per_record(calls.get("core.norm", 0)),
        "core.norm_s": self_s.get("core.norm", 0.0),
        "core.det_root_s": self_s.get("core.det_root", 0.0),
        "means.calls_per_record": per_record(calls.get("means", 0)),
        "means.self_s": self_s.get("means", 0.0),
        "means.lookup_calls_per_record": per_record(calls.get("means.lookup", 0)),
        "means.lookup_s": self_s.get("means.lookup", 0.0),
        "functions.calls_per_record": per_record(calls.get("functions", 0)),
        "functions.self_s": self_s.get("functions", 0.0),
        "randgen.calls": float(calls.get("randgen", 0)),
        "randgen.self_s": self_s.get("randgen", 0.0),
        "checks.self_s": self_s.get("checks", 0.0),
        "checks.links_per_record": per_record(links),
        "checks.applicable_ratio": applicable / links if links else 0.0,
        "checks.downgraded_records": float(downgraded),
        "harness.self_s": self_s.get("harness", 0.0),
        "harness.emit_s": busy.get("harness.emit", 0.0),
        "harness.emit_bytes": float(emit_bytes),
    }
