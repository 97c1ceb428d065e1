"""The benchmark's workloads: which suites run, at which size, with which report format.

Each workload is a list of suite runs.  One repetition of a workload runs
every suite through ``run_suite`` and writes its report with
``emit_report``, exactly as ``opmeans --suite ... --report ...`` does.
This module imports only the standard library, so the set-up probe can load
it without paying for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The CLI's default ``--seed``; the stored reference is taken at this seed.
REFERENCE_SEED = 20240001

#: The CLI's default ``--dim`` list.
SMALL_DIMS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class SuiteRun:
    """One ``opmeans`` invocation: a suite at a fixed size and report format."""

    suite: str
    fmt: str
    trials: int
    dims: tuple[int, ...] = SMALL_DIMS
    functions: tuple[str, ...] = ()
    means: tuple[str, ...] = ()

    def argv(self, seed: int, report: str) -> list[str]:
        """The ``opmeans`` command-line arguments for this run."""
        args = ["--suite", self.suite, "--trials", str(self.trials), "--seed", str(seed)]
        for dim in self.dims:
            args += ["--dim", str(dim)]
        for name in self.functions:
            args += ["--fn", name]
        for name in self.means:
            args += ["--mean", name]
        return args + ["--format", self.fmt, "--report", report]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[SuiteRun, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain_small",
            "the paper's headline main_chain (8 functions x 9 means, dims 2-6, JSON): "
            "Python and validation overhead dominate, 28 factorizations per record",
            (SuiteRun("main_chain", "json", 10),),
        ),
        Workload(
            "normal_norms",
            "subadditivity + normal_chain + determinant (dims 2-6, CSV): norm-bound side, "
            "zero means.mean calls, so mean optimizations must leave it unchanged",
            (
                SuiteRun("subadditivity", "csv", 20),
                SuiteRun("normal_chain", "csv", 20),
                SuiteRun("determinant", "csv", 20),
            ),
        ),
        Workload(
            "chain_large",
            "main_chain at dim 32 (power:2, sqrt x arithmetic/harmonic/geometric:1/2, JSON): "
            "LAPACK and the pure-Python generator dominate",
            (
                SuiteRun(
                    "main_chain",
                    "json",
                    20,
                    dims=(32,),
                    functions=("power:2", "sqrt"),
                    means=("arithmetic:1/2", "harmonic:1/2", "geometric:1/2"),
                ),
            ),
        ),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """Master seed of timed repetition ``rep`` in a run started with ``--seed seed``.

    Every repetition draws fresh instances, so nothing a later version might
    cache across repetitions is reused.
    """
    return seed * 1000 + rep
