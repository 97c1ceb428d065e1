"""opmeans benchmark: seeded verification workloads through the public harness API.

Run from the repository root::

    python3 bench/run.py --workload chain_small --seed 1 --seconds 25 --trace 0

One run executes one workload in this process, the way
``opmeans --suite ... --report ...`` does: ``run_suite`` with the default
``jobs``, then ``emit_report``, with BLAS on one thread.  Every run first
repeats the workload once at the CLI's default seed, untimed, as warm-up,
and compares its verdicts with ``bench/reference.json``.  Then:

* ``--trace 0`` times repetitions at seeds derived from ``--seed`` for
  ``--seconds`` and reports the end-to-end metrics: ``setup_s`` (median
  time for a fresh interpreter to import the harness and CLI and validate
  the spec), ``records_per_s`` (median over repetitions, clock from the
  ``run_suite`` call until the report is on disk, scaled to the reference
  speed of ``calibration.py``; the raw rate is printed too),
  ``peak_rss_mb`` and ``verified_share`` (1 - error_share).
* ``--trace 1`` alternates untraced and traced repetitions of the same seed,
  requires identical verdict summaries, and reports per-layer counts and
  raw self times (medians over traced repetitions) from ``tracing.py``.

A record is an error when its suite raised, when it was downgraded to
not-applicable with no links, when it has a failed link (the paper's claims
hold on these instances), or when its repetition disagrees with the
reference or its seed-independent invariants.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; ``failed`` is
the number of error records and ``attempted`` the number of records run.

``python3 bench/run.py --write-reference`` regenerates the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import REFERENCE_SEED, WORKLOADS, rep_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")

#: Fresh interpreters timed per run for ``setup_s``, after one untimed warm-up.
SETUP_RUNS = 9

#: Allowed drift of a worst margin against the reference, relative to 1 + |reference|.
MARGIN_DRIFT = 1e-9

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """Run BLAS on one thread, before numpy loads.

    opmeans is single-threaded and its matrices are at most 32 x 32; extra
    OpenBLAS threads only spin on the other CPUs and make the timings depend
    on whatever else runs there.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    """Import opmeans from this checkout's ``src``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "opmeans", "harness.py")):
        sys.exit(f"error: no opmeans sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import opmeans.harness

    if not os.path.abspath(opmeans.harness.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported opmeans from {opmeans.harness.__file__}, not {SRC}")
    return opmeans.harness


def _make_spec(harness, run, seed: int):
    return harness.SuiteSpec(
        run.suite,
        trials=run.trials,
        dims=run.dims,
        functions=run.functions,
        means=run.means,
        master_seed=seed,
    )


def _probe(workload) -> None:
    """Set-up as a user pays it: import the harness and CLI, then validate each spec."""
    harness = _import_program()
    from opmeans import cli
    from opmeans.functions import function_by_name
    from opmeans.means import mean_by_name

    for run in workload.runs:
        cli.build_parser().parse_args(run.argv(REFERENCE_SEED, os.devnull))
        spec = _make_spec(harness, run, REFERENCE_SEED)
        if spec.suite not in harness.SUITE_NAMES:
            raise harness.UsageError(f"unknown suite {spec.suite!r}")
        for name in spec.functions:
            function_by_name(name)
        for name in spec.means:
            mean_by_name(name)
    print("ready", flush=True)


def _time_probe(cmd: list[str]) -> float:
    """Time from spawning a fresh interpreter until its probe reports ready."""
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit status {proc.returncode}")
    return took


def _run_rep(harness, workload, seed: int):
    """One repetition: every suite run and report write, timed together.

    Returns (seconds, reports, bytes written); a suite that raised leaves its
    exception in place of the report.
    """
    elapsed = 0.0
    reports = []
    written = 0
    for i, run in enumerate(workload.runs):
        spec = _make_spec(harness, run, seed)
        path = os.path.join(OUT, f"{workload.name}-{i}.{run.fmt}")
        started = time.perf_counter()
        try:
            report = harness.run_suite(spec)
            harness.emit_report(report, run.fmt, path)
        except Exception as exc:  # a raising suite is an error verdict, not a crash
            reports.append(exc)
            continue
        elapsed += time.perf_counter() - started
        reports.append(report)
        written += os.path.getsize(path)
    return elapsed, reports, written


def _bad_record(rec) -> bool:
    downgraded = "not_applicable" in rec.params and not rec.links
    return downgraded or any(not link.passed for link in rec.links)


def _suite_facts(run, report) -> dict:
    s = report.summary
    return {
        "suite": run.suite,
        "fmt": run.fmt,
        "trials": run.trials,
        "dims": list(run.dims),
        "functions": list(run.functions),
        "means": list(run.means),
        "total_records": s.total_records,
        "total_links": s.total_links,
        "failed_links": s.failed_links,
        "downgraded_records": s.downgraded_records,
        "not_applicable_links": s.not_applicable_links,
        "link_descriptions": sorted({link.description for r in report.records for link in r.links}),
        "worst_margin_by_link": s.worst_margin_by_link,
    }


#: Facts that do not depend on the seed; checked on every repetition.
_INVARIANT_KEYS = (
    "suite", "fmt", "trials", "dims", "functions", "means", "total_records", "total_links",
    "failed_links", "downgraded_records", "link_descriptions",
)


class Gate:
    """Counts attempted and erroneous records and keeps a line per problem."""

    def __init__(self, reference: dict, workload):
        self.workload = workload
        self.expected = reference["workloads"].get(workload.name)
        self.drift = reference["margin_drift"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, reports, seed: int, exact: bool) -> None:
        """Judge one repetition; ``exact`` also compares the seed-dependent facts."""
        for i, (run, report) in enumerate(zip(self.workload.runs, reports)):
            where = f"seed {seed} {run.suite}"
            if isinstance(report, Exception):
                n = self.expected[i]["total_records"] if self._has(i) else 1
                self._count(n, n, f"{where}: raised {type(report).__name__}: {report}")
                continue
            n = len(report.records)
            problems = self._compare(i, run, report, exact)
            if problems:
                self._count(n, n, f"{where}: " + "; ".join(problems))
            else:
                bad = sum(1 for rec in report.records if _bad_record(rec))
                self._count(n, bad, f"{where}: {bad} records failed or were downgraded")

    def fail_all(self, reports, why: str) -> None:
        """Count every record of an already checked repetition as an error."""
        n = sum(len(r.records) for r in reports if not isinstance(r, Exception))
        self._count(0, n, why)

    def _count(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)

    def _has(self, i: int) -> bool:
        return self.expected is not None and i < len(self.expected)

    def _compare(self, i: int, run, report, exact: bool) -> list[str]:
        if not self._has(i):
            return ["no reference for this suite run"]
        want = self.expected[i]
        got = _suite_facts(run, report)
        keys = _INVARIANT_KEYS + (("not_applicable_links",) if exact else ())
        problems = [f"{k} {got[k]!r} != reference {want[k]!r}" for k in keys if got[k] != want[k]]
        if exact:
            worst, ref_worst = got["worst_margin_by_link"], want["worst_margin_by_link"]
            if worst.keys() != ref_worst.keys():
                problems.append("applicable link descriptions differ from the reference")
            for desc in sorted(worst.keys() & ref_worst.keys()):
                if abs(worst[desc] - ref_worst[desc]) > self.drift * (1.0 + abs(ref_worst[desc])):
                    problems.append(
                        f"worst margin of {desc} {worst[desc]!r} drifted from {ref_worst[desc]!r}"
                    )
        return problems


def _verdicts(reports) -> list:
    """Report summaries without wall time: what traced and untraced runs must share."""
    out = []
    for report in reports:
        if isinstance(report, Exception):
            out.append(repr(report))
            continue
        summary = report.summary.to_dict()
        summary.pop("wall_time_s")
        out.append(summary)
    return out


def _blas_threads():
    """The thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _timed(harness, workload, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    from calibration import REFERENCE_KERNEL_S, kernel_seconds

    probe = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload.name]
    _time_probe(probe)  # warms the file cache; dropped
    setup, reps = [], []
    kernel_s = kernel_seconds()
    start = time.perf_counter()
    probing = 0.0  # time spent in probes, which does not count toward ``seconds``

    def measured() -> float:
        return time.perf_counter() - start - probing

    while not reps or measured() < seconds:
        s = rep_seed(seed, len(reps))
        elapsed, reports, _ = _run_rep(harness, workload, s)
        after = kernel_seconds()
        gate.check(reports, s, exact=False)
        records = sum(len(r.records) for r in reports if not isinstance(r, Exception))
        reps.append({"records": records, "seconds": elapsed, "kernel_s": (kernel_s + after) / 2})
        kernel_s = after
        # Probes are spread evenly over the run, so no one slow spell sets their median.
        if len(setup) < SETUP_RUNS and measured() >= len(setup) * seconds / SETUP_RUNS:
            before = time.perf_counter()
            setup.append(_time_probe(probe))
            probing += time.perf_counter() - before
    while len(setup) < SETUP_RUNS:  # a run shorter than SETUP_RUNS repetitions
        setup.append(_time_probe(probe))
    raw = [r["records"] / r["seconds"] if r["seconds"] else 0.0 for r in reps]
    scaled = [rate * r["kernel_s"] / REFERENCE_KERNEL_S for rate, r in zip(raw, reps)]
    print(f"# raw records_per_s over {len(raw)} repetitions: "
          f"min {min(raw):.1f} median {statistics.median(raw):.1f} max {max(raw):.1f}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "records_per_s": (statistics.median(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verified_share": (1.0 - gate.failed / gate.attempted, "ratio"),
    }
    return metrics, {"setup_runs_s": setup, "repetitions": reps}


def _traced(harness, workload, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    samples: list[dict] = []
    overheads = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        s = rep_seed(seed, len(samples))
        plain_s, plain, _ = _run_rep(harness, workload, s)
        gate.check(plain, s, exact=False)
        tracer = Tracer()
        with tracer.installed():
            traced_s, traced, written = _run_rep(harness, workload, s)
        gate.check(traced, s, exact=False)
        if _verdicts(plain) != _verdicts(traced):
            gate.fail_all(traced, f"seed {s}: traced and untraced verdict summaries differ")
        done = [r for r in traced if not isinstance(r, Exception)]
        links = sum(r.summary.total_links for r in done)
        samples.append(
            layer_metrics(
                tracer,
                records=max(1, sum(r.summary.total_records for r in done)),
                links=links,
                applicable=links - sum(r.summary.not_applicable_links for r in done),
                downgraded=sum(r.summary.downgraded_records for r in done),
                emit_bytes=written,
            )
        )
        overheads.append(traced_s - plain_s)
    tracer.save(os.path.join(OUT, f"spans-{workload.name}.npz"))
    units = dict(LAYER_METRICS)
    metrics = {
        name: (statistics.median(sample[name] for sample in samples), units[name])
        for name in samples[0]
    }
    metrics["trace.overhead_s"] = (statistics.median(overheads), units["trace.overhead_s"])
    return metrics, {"layer_samples": samples, "overheads_s": overheads}


def _write_reference(path: str) -> None:
    harness = _import_program()
    os.makedirs(OUT, exist_ok=True)
    out = {"seed": REFERENCE_SEED, "margin_drift": MARGIN_DRIFT, "workloads": {}}
    for workload in WORKLOADS.values():
        _, reports, _ = _run_rep(harness, workload, REFERENCE_SEED)
        for report in reports:
            if isinstance(report, Exception):
                raise report
        out["workloads"][workload.name] = [
            _suite_facts(run, report) for run, report in zip(workload.runs, reports)
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reference written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE, help="reference verdicts to gate on")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference at the CLI's default seed and exit")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    if args.write_reference:
        _write_reference(args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.probe:
        _probe(workload)
        return 0

    harness = _import_program()
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    gate = Gate(reference, workload)

    _, reports, _ = _run_rep(harness, workload, REFERENCE_SEED)  # warm-up, gated exactly
    gate.check(reports, REFERENCE_SEED, exact=True)
    measure = _traced if args.trace else _timed
    metrics, details = measure(harness, workload, args.seed, args.seconds, gate)

    env = _environment()
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{workload.name}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "environment": env,
                   "problems": gate.problems, **result, "details": details}, fh, indent=1)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for problem in gate.problems:
        print(f"# ERROR {problem}")
    print(f"# error_share {gate.failed / gate.attempted!r} "
          f"({gate.failed} of {gate.attempted} records)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
