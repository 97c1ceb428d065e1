"""Command-line front end for the verification harness.

Exit status contract: 0 when every applicable theorem link passed (or, for
the search mode, when a counterexample was found within budget); 1 when at
least one theorem link failed (or no counterexample turned up); 2 for usage
or configuration errors, raised before any trial runs, and for a report that
cannot be written; 3 when a suite ran no applicable link at all (every record
downgraded, or every link inapplicable); 4 when any other exception escapes a
run (an eigensolver that fails to converge, say), printed as ``error: <Type>:
<message>`` with no traceback.  A companion link (see ``checks``) never
decides it.  The summary line counts failed links, companion ones among them,
inapplicable links and downgraded records.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    SEARCH_TARGETS,
    SUITE_NAMES,
    SuiteSpec,
    UsageError,
    emit_report,
    run_suite,
    search_counterexample,
)
from .randgen import STRUCTURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmeans",
        description="Run seeded verification suites for matrix-mean inequalities.",
    )
    parser.add_argument("--suite", required=True, choices=SUITE_NAMES + ("search",))
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dim", action="append", type=int, dest="dims", metavar="N",
                        help="instance dimension; repeatable (default 2..6)")
    parser.add_argument("--m", type=float, default=0.5, help="lower spectral endpoint")
    parser.add_argument("--M", type=float, default=4.0, help="upper spectral endpoint")
    parser.add_argument("--fn", action="append", dest="functions", metavar="NAME",
                        help="scalar function, e.g. power:2, log1p; repeatable")
    parser.add_argument("--mean", action="append", dest="means", metavar="NAME",
                        help="matrix mean, e.g. geometric:1/2; repeatable")
    parser.add_argument("--norm", action="append", dest="norms", metavar="KIND",
                        help="norm kind, e.g. operator, schatten:2, kyfan:3; repeatable")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=20240001)
    parser.add_argument("--report", metavar="PATH", help="write the full report here")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--fixture", action="append", dest="fixtures", metavar="PATH",
                        help="matrix JSON file; pass twice (A then B) for a single-instance check")
    parser.add_argument("--budget", type=int, default=10000, help="search only: max instances")
    parser.add_argument("--target", choices=SEARCH_TARGETS, default="norm_chain_normal",
                        help="search only: checker to attack")
    parser.add_argument("--structure", choices=STRUCTURES, default=None,
                        help="search only: instance class (default depends on target)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> SuiteSpec:
    return SuiteSpec(
        suite=args.suite,
        trials=args.trials,
        dims=tuple(args.dims) if args.dims else (2, 3, 4, 5, 6),
        m=args.m,
        M=args.M,
        functions=tuple(args.functions or ()),
        means=tuple(args.means or ()),
        norms=tuple(args.norms or ()),
        tol=args.tol,
        master_seed=args.seed,
        fixtures=tuple(args.fixtures or ()),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = _spec_from_args(args)
    try:
        if args.suite == "search":
            report = search_counterexample(args.target, args.structure, args.budget, spec)
            found = bool(report.summary.counterexample_found)
            code = 0 if found else 1
            verdict = "counterexample found" if found else "no counterexample within budget"
        else:
            report = run_suite(spec)
            s = report.summary
            if s.failed_links > s.failed_companion_links:
                code, verdict = 1, "failing links present"
            elif s.total_links == s.not_applicable_links:
                code, verdict = 3, "no applicable links ran"
            elif s.failed_links:
                code, verdict = 0, "all applicable theorem links passed"
            else:
                code, verdict = 0, "all applicable links passed"
        if args.report:
            try:
                emit_report(report, args.format, args.report)
            except OSError as exc:
                print(f"error: cannot write report {args.report}: {exc.strerror or exc}",
                      file=sys.stderr)
                return 2
            print(f"report written to {args.report}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other escape: named, with no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    s = report.summary
    print(
        f"{args.suite}: {s.total_records} records, {s.total_links} links, "
        f"{s.failed_links} failed ({s.failed_companion_links} companion), "
        f"{s.not_applicable_links} inapplicable, "
        f"{s.downgraded_records} downgraded, "
        f"worst margin {s.worst_margin}, {s.wall_time_s:.2f}s -> {verdict}"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
