import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opmeans.checks import CheckOutcome, Link
from opmeans.cli import main
from opmeans.core import EigenConvergenceError
from opmeans.harness import (
    SUITE_NAMES,
    Report,
    Summary,
    SuiteSpec,
    UsageError,
    _summarize,
    emit_report,
    load_hermitian_fixture,
    load_matrix_json,
    report_from_dict,
    run_suite,
    save_matrix_json,
    search_counterexample,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def _json_bytes_without_walltime(report: Report) -> bytes:
    d = report.to_dict()
    d["summary"].pop("wall_time_s")
    return json.dumps(d, sort_keys=True, indent=2).encode()


def fresh_process_report(tmp_path, args) -> bytes:
    """Run ``python -m opmeans ARGS`` in a new interpreter; its JSON report without wall time."""
    path = tmp_path / "fresh.json"
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-m", "opmeans", *args, "--format", "json", "--report", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(path.read_text())
    d["summary"].pop("wall_time_s")
    return json.dumps(d, sort_keys=True, indent=2).encode()


SMALL = SuiteSpec(
    "main_chain",
    trials=4,
    dims=(2, 3),
    functions=("power:2", "log1p"),
    means=("arithmetic:1/2", "geometric:1/2"),
)


def test_run_suite_counts_and_passes():
    rep = run_suite(SMALL)
    assert rep.summary.total_records == 4 * 4
    assert rep.summary.failed_links == 0
    assert rep.summary.worst_margin is not None


def test_unknown_names_rejected_before_trials():
    with pytest.raises(UsageError):
        run_suite(SuiteSpec("no_such_suite"))
    with pytest.raises(UsageError):
        run_suite(SuiteSpec("main_chain", functions=("power:2", "wat")))
    with pytest.raises(UsageError):
        run_suite(SuiteSpec("main_chain", means=("geometric:1/2", "median:1/2")))
    with pytest.raises(UsageError):
        run_suite(SuiteSpec("main_chain", norms=("nuclearish",)))
    with pytest.raises(UsageError):
        run_suite(SuiteSpec("main_chain", trials=0))


def test_determinant_without_alphas_is_a_usage_error(monkeypatch, tmp_path):
    # a determinant trial takes its alpha from the spec's in turn: with none, the
    # run is refused before any instance is drawn, drawn or loaded from fixtures
    import opmeans.harness as harness

    draws = []
    random_group = harness.random_group
    monkeypatch.setattr(harness, "random_group", lambda *a: draws.append(a) or random_group(*a))
    paths = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    for path in paths:
        save_matrix_json(np.diag([1.0, 2.0]), path)
    for extra in ({"trials": 2}, {"fixtures": paths}):
        with pytest.raises(UsageError, match="^suite 'determinant' needs at least one alpha$"):
            run_suite(SuiteSpec("determinant", alphas=(), **extra))
    assert draws == []
    assert run_suite(SuiteSpec("determinant", alphas=(0.5,), trials=2)).records


def test_report_determinism_same_seed():
    a = _json_bytes_without_walltime(run_suite(SMALL))
    b = _json_bytes_without_walltime(run_suite(SMALL))
    assert a == b


def test_report_determinism_across_processes(tmp_path):
    args = ["--suite", "main_chain", "--trials", "4", "--dim", "2", "--dim", "3",
            "--fn", "power:2", "--fn", "log1p",
            "--mean", "arithmetic:1/2", "--mean", "geometric:1/2"]
    in_process = _json_bytes_without_walltime(run_suite(SMALL))
    assert in_process == fresh_process_report(tmp_path, args)


def test_trial_independence():
    five = run_suite(SuiteSpec("determinant", trials=5, dims=(2,), functions=("power:2",)))
    four = run_suite(SuiteSpec("determinant", trials=4, dims=(2,), functions=("power:2",)))
    assert five.records[:4] == four.records


def test_hypothesis_violation_downgrades():
    rep = run_suite(
        SuiteSpec("mean_diff_norm", trials=2, dims=(2,), functions=("sqrt",),
                  means=("arithmetic:1/2",), norms=("operator",))
    )
    assert rep.summary.failed_links == 0
    assert rep.summary.downgraded_records == 2
    assert all("not_applicable" in r.params for r in rep.records)


def test_downgraded_record_is_named_after_its_check():
    # sqrt is concave: the convex-only mean-difference bound downgrades its record
    spec = SuiteSpec("mean_diff_norm", trials=1, dims=(2,), functions=("sqrt",),
                     means=("arithmetic:1/2",))
    (down,) = run_suite(spec).records
    (judged,) = run_suite(dataclasses.replace(spec, functions=("power:2",))).records
    assert (down.claim, down.descriptions) == ("not-applicable", ())
    assert "not_applicable" in down.params
    assert down.check_name == judged.check_name == "mean_difference_norm"


def _own_records(records):
    assert len({id(r) for r in records}) == len(records)
    assert len({id(r.params) for r in records}) == len(records)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_record_and_params_dict_is_its_own(suite):
    _own_records(run_suite(SuiteSpec(suite, trials=3)).records)


def test_fixture_records_and_params_dicts_are_their_own(tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([1.0, 4.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    for suite in ("main_chain", "determinant", "contraction"):
        _own_records(run_suite(SuiteSpec(suite, fixtures=(a_path, b_path))).records)


def test_a_records_own_param_beats_the_run_context(monkeypatch):
    import opmeans.checks as checks

    grid = checks.check_power_mean_grid

    def own_trial(*args):
        rows = grid(*args)
        for rec in itertools.chain(*rows):
            rec.params["trial"] = -1
        return rows

    monkeypatch.setattr(checks, "check_power_mean_grid", own_trial)
    records = run_suite(SuiteSpec("power_mean", trials=2, dims=(2, 3))).records
    assert {r.params["trial"] for r in records} == {-1}
    assert [r.params["dim"] for r in records[:2]] == [2, 3]
    assert {r.params["suite"] for r in records} == {"power_mean"}


def test_every_suite_runs_clean():
    from opmeans.harness import SUITE_NAMES

    for suite in SUITE_NAMES:
        rep = run_suite(SuiteSpec(suite, trials=2, dims=(2, 3)))
        assert rep.summary.total_records >= 1, suite
        if suite == "power_mean":
            # entropy companion links may genuinely fail; geometric ones never
            bad = {
                l.description
                for r in rep.records
                for l in r.links
                if not l.passed
            }
            assert bad <= {"entropy:low", "entropy:high"}, bad
        else:
            assert rep.summary.failed_links == 0, suite


def test_normal_counterexample_suite():
    rep = run_suite(SuiteSpec("normal_counterexample"))
    assert rep.summary.total_records == 1
    assert rep.summary.failed_links == 0
    p = rep.records[0].params
    assert p["norm_images_sum"] == pytest.approx(8.0, abs=1e-10)
    assert p["norm_image_of_abs_sum"] == pytest.approx(16.0, abs=1e-10)


def test_json_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    for spec in (SMALL, *(SuiteSpec(suite, trials=2, dims=(1, 2, 3)) for suite in SUITE_NAMES)):
        rep = run_suite(spec)
        emit_report(rep, "json", str(path))
        loaded = report_from_dict(json.loads(path.read_text()))
        assert loaded == rep, spec.suite
        assert pickle.loads(pickle.dumps(rep)) == rep, spec.suite
        for rec in rep.records:
            # the columns stand for the Link tuple they were built from, and give it back
            links = tuple(Link.from_dict(x) for x in rec.to_dict()["links"])
            assert rec.links == links
            assert CheckOutcome(rec.check_name, rec.claim, links, rec.params) == rec


def test_report_without_companion_count_loads():
    # a report written before companion links were counted apart has no such key
    d = run_suite(SuiteSpec("power_mean", trials=2, dims=(2,))).to_dict()
    assert d["summary"].pop("failed_companion_links") == d["summary"]["failed_links"] > 0
    assert report_from_dict(d).summary.failed_companion_links == 0


def test_check_outcome_columns_keep_the_link_api():
    links = (Link("a", 1.5, True), Link("b", -2.0, False), Link("c", 0.0, True, False))
    out = CheckOutcome("check", "claim", links, {"k": 1})
    assert out.links == links
    assert (out.descriptions, out.margins, out.passes, out.applicable) == (
        ("a", "b", "c"), (1.5, -2.0, 0.0), (True, False, True), (True, True, False)
    )
    assert not out.passed and out.failed_links == 1
    assert CheckOutcome.from_columns("check", "claim", *zip(*(
        (l.description, l.margin, l.passed, l.applicable) for l in links
    )), {"k": 1}) == out
    assert out.with_params({"k": 0, "trial": 3}).params == {"k": 1, "trial": 3}
    assert CheckOutcome.from_dict(out.to_dict()) == out
    assert CheckOutcome("check", "claim", (), {}).links == ()
    with pytest.raises(ValueError, match="finite"):
        CheckOutcome("check", "claim", (Link("a", math.inf, True),), {})


def _generic_json(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _generic_csv(report: Report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["suite", "trial", "check", "claim", "link", "margin", "passed", "applicable", "params"]
    )
    d = report.to_dict()
    for rec in d["records"]:
        params = rec["params"]
        simple = {
            k: v for k, v in params.items()
            if k not in ("suite", "trial") and isinstance(v, (str, bool, int, float))
        }
        base = ";".join(f"{k}={v}" for k, v in sorted(simple.items()))
        for link in rec["links"]:
            writer.writerow([
                params.get("suite", d["spec"]["suite"]), params.get("trial", ""),
                rec["check_name"], rec["claim"], link["description"], repr(link["margin"]),
                link["passed"], link["applicable"], base,
            ])
    return buffer.getvalue()


def _hand_built_report() -> Report:
    # every string the templates hold carries %, %s and %%; values that compare
    # equal but are written apart (1, 1.0, True; 0.0, -0.0) fill the same slots
    links = (
        Link('quote " and, comma %s', 1.5, True), Link("Löwner ≤ 100% %%", -0.0, False, False),
    )
    params = {
        "inf": math.inf, "minus_inf": -math.inf, "quote": 'say "hi"', "comma": "a,b",
        "name": "Löwner", "none": None, "flag": False, "count": 3,
        "percent %s": "50% of %s, %%d", "zero": 0.0, "one": 1,
    }
    check, claim = "hand %s %%", 'claim "c", ü 100%'
    records = [
        CheckOutcome(check, claim, links, {**params, "nested": [1, [2.5, "x"]]}),
        CheckOutcome(check, claim, links, params),
        CheckOutcome(check, claim, [links[0], Link(links[1].description, 0.0, False, False)],
                     {**params, "zero": -0.0, "one": True, "trial": -0.0, "suite": "a,%s"}),
        CheckOutcome(check, claim, links, {**params, "zero": 0.0, "one": 1.0, "trial": 0.0}),
        CheckOutcome(check, claim, links, {**params, "one": "1", "trial": True, "count": -0.0,
                                           "pair": (0.0, 1)}),
        CheckOutcome(check, claim, links, {**params, "pair": (-0.0, 1)}),
        CheckOutcome(check, claim, links, {"count": 1, "trial": 1, "suite": "a,%s"}),
        CheckOutcome(check, "other", (), {}),
        CheckOutcome(check, claim, links, {1: "int key", 2: 0.5}),
    ]
    return Report("0.1.0", SuiteSpec("hand_built"), records, _summarize(records, 0.0))


_WRITER_CASES = {
    **{
        suite: lambda suite=suite: run_suite(SuiteSpec(suite, trials=2, dims=(1, 2, 3)))
        for suite in SUITE_NAMES
    },
    "downgraded": lambda: run_suite(SuiteSpec(
        "mean_diff_norm", trials=2, dims=(2,), functions=("sqrt",), means=("arithmetic:1/2",)
    )),
    # failing links among passing ones, in records of one shape
    "mixed-verdicts": lambda: run_suite(SuiteSpec("ando_hiai", trials=20, dims=(2, 3), M=400.0)),
    "search-hit": lambda: search_counterexample(
        "norm_chain_normal", None, 100, SuiteSpec("search", dims=(2,))
    ),
    "search-empty": lambda: search_counterexample(
        "main_chain", None, 3, SuiteSpec("search", dims=(2,), functions=("power:2",))
    ),
    "hand-built": _hand_built_report,
}


@pytest.mark.parametrize("case", _WRITER_CASES)
def test_writers_match_generic_encoders(tmp_path, case):
    rep = _WRITER_CASES[case]()
    if case == "downgraded":
        assert rep.summary.downgraded_records == 2 and rep.summary.total_links == 0
    if case == "search-hit":
        assert {"A", "B"} <= rep.records[0].params.keys()
    if case == "search-empty":
        assert rep.records == []
    if case == "mixed-verdicts":
        assert 0 < rep.summary.failed_links < rep.summary.total_links
    emit_report(rep, "json", str(tmp_path / "r.json"))
    emit_report(rep, "csv", str(tmp_path / "r.csv"))
    assert (tmp_path / "r.json").read_bytes() == _generic_json(rep).encode()
    assert (tmp_path / "r.csv").read_bytes() == _generic_csv(rep).encode()


# the paper's companion links, evaluated for information only: (check, description)
_COMPANIONS = {("power_mean_bounds", "entropy:low"), ("power_mean_bounds", "entropy:high")}


def _summary_by_scan(records) -> dict:
    """``Summary.to_dict()`` of ``records``, counted link by link (wall time 0)."""
    total_links = failed = companions = na = downgraded = 0
    worst = None
    by_link = {}
    for rec in records:
        if "not_applicable" in rec.params and not rec.descriptions:
            downgraded += 1
        total_links += len(rec.descriptions)
        na += rec.applicable.count(False)
        links = zip(rec.descriptions, rec.margins, rec.passes)
        for desc, margin, passed in itertools.compress(links, rec.applicable):
            failed += not passed
            companions += not passed and (rec.check_name, desc) in _COMPANIONS
            if worst is None or margin < worst:
                worst = margin
            if desc not in by_link or margin < by_link[desc]:
                by_link[desc] = margin
    return Summary(
        len(records), total_links, failed, na, downgraded, worst, dict(sorted(by_link.items())), 0.0,
        failed_companion_links=companions,
    ).to_dict()


def _reprs(value):
    """``value`` with every float replaced by its repr, so that -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    return value


def _records(*rows) -> list:
    """Records of links (description, margin), every link passing; a "skip" link is inapplicable."""
    return [
        CheckOutcome("hand", "claim", [Link(d, m, True, d != "skip") for d, m in row], {})
        for row in rows
    ]


# 0.0 and -0.0 tying as a worst margin: the first in (record, link) order is the worst
_TIED_ZEROS = {
    "tied-zeros-one-shape": lambda: _records(
        [("tie", -0.0), ("x", 1.0)], [("tie", 0.0), ("x", 1.0)]
    ),
    "tied-zeros-two-shapes": lambda: _records(
        [("x", 1.0), ("tie", 1.0)],
        [("skip", -1.0), ("tie", 0.0), ("y", 1.0)],
        [("x", -0.0), ("tie", -0.0)],
        [("skip", -1.0), ("tie", -0.0), ("y", 0.0)],
    ),
}


def _random_records(seed: int, values) -> list:
    """Records of a few shapes and repeated descriptions, margins from ``values``, at ``seed``."""
    rng = np.random.default_rng(seed)
    shapes = [("a", "b", "a"), ("b", "c"), ("a",), (), ("c", "c", "c", "a")]
    records = []
    for _ in range(300):
        descs = shapes[rng.integers(len(shapes))]
        applicable = rng.random(len(descs)) < 0.8
        links = [
            Link(d, float(values[rng.integers(len(values))]), bool(rng.random() < 0.7), bool(a))
            for d, a in zip(descs, applicable)
        ]
        params = {"not_applicable": "why"} if not descs and rng.random() < 0.5 else {}
        records.append(CheckOutcome("random", "claim", links, params))
    return records


_SUMMARY_CASES = {
    **{f"writer-{case}": lambda case=case: _WRITER_CASES[case]().records for case in _WRITER_CASES},
    "repeated-descriptions": lambda: [
        CheckOutcome("eig", "claim", [Link("eig:low", m, m >= 0) for m in ms], {})
        for ms in ((0.5, -0.0, 0.0), (0.25, 0.0, -0.0), (-0.0, 0.0, 0.75))
    ],
    "inapplicable-and-downgraded": lambda: [
        CheckOutcome("x", "claim", [Link("a", -2.0, False, False), Link("b", 3.0, True, False)],
                     {}),
        CheckOutcome("x", "not-applicable", (), {"not_applicable": "m <= 0"}),
        CheckOutcome("x", "claim", (), {}),
        CheckOutcome("x", "claim", [Link("a", 1.0, True, False), Link("b", -1.0, False, False)],
                     {}),
    ],
    **_TIED_ZEROS,
    **{f"{case}-reversed": lambda case=case: _TIED_ZEROS[case]()[::-1] for case in _TIED_ZEROS},
    "random": lambda: _random_records(20240001, (-1.0, -0.0, 0.0, 0.5, -1e-300)),
    "random-zeros": lambda: _random_records(7, (-0.0, 0.0, 0.5)),
    "empty": lambda: [],
}


@pytest.mark.parametrize("case", _SUMMARY_CASES)
def test_summary_matches_a_link_by_link_scan(case):
    records = _SUMMARY_CASES[case]()
    got = _summarize(records, 0.0).to_dict()
    assert _reprs(got) == _reprs(_summary_by_scan(records))
    if case.startswith("tied-zeros"):
        ties = [m for rec in records for d, m in zip(rec.descriptions, rec.margins) if d == "tie"]
        first_zero = next(m for m in ties if m == 0.0)
        assert repr(got["worst_margin_by_link"]["tie"]) == repr(first_zero)


def test_csv_row_count_equals_total_links(tmp_path):
    rep = run_suite(SMALL)
    path = tmp_path / "report.csv"
    emit_report(rep, "csv", str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) - 1 == rep.summary.total_links
    with pytest.raises(UsageError):
        emit_report(rep, "xml", str(tmp_path / "nope.xml"))


def test_empty_search_report_is_valid_json(tmp_path):
    spec = SuiteSpec("search", dims=(2,), functions=("power:2",))
    rep = search_counterexample("main_chain", None, 5, spec)
    assert rep.summary.counterexample_found is False
    path = tmp_path / "empty.json"
    emit_report(rep, "json", str(path))
    assert json.loads(path.read_text())["records"] == []


def test_search_finds_violation_on_indefinite_class():
    spec = SuiteSpec("search", dims=(2,), master_seed=20240001)
    rep = search_counterexample("norm_chain_normal", None, 100, spec)
    assert rep.summary.counterexample_found is True
    assert len(rep.records) == 1
    rec = rep.records[0]
    assert rec.failed_links >= 1
    assert "A" in rec.params and "B" in rec.params


def test_search_main_chain_finds_nothing():
    spec = SuiteSpec("search", dims=(2,), functions=("power:2",), means=("geometric:1/2",))
    rep = search_counterexample("main_chain", "positive_definite", 300, spec)
    assert rep.summary.counterexample_found is False


def test_search_fixture_preseeded_immediate_hit(tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([2.0, -1.0]), a_path)
    save_matrix_json(np.diag([-2.0, 1.0]), b_path)
    spec = SuiteSpec("search", fixtures=(a_path, b_path))
    rep = search_counterexample("norm_chain_normal", None, 1, spec)
    assert rep.summary.counterexample_found is True
    assert rep.records[0].params["trial"] == -1


def test_search_main_chain_needs_positive_definite_pairs(tmp_path):
    spec = SuiteSpec("search", dims=(2,))
    for structure in ("normal_complex", "hermitian_indefinite"):
        with pytest.raises(UsageError, match="positive definite instances"):
            search_counterexample("main_chain", structure, 3, spec)
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([1.0, -1.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    with pytest.raises(UsageError, match="positive definite fixtures"):
        search_counterexample("main_chain", None, 3, SuiteSpec("search", fixtures=(a_path, b_path)))


def test_fixture_round_trip_and_validation(tmp_path):
    path = str(tmp_path / "m.json")
    m = np.array([[1.0, 1j], [-1j, 2.0]])
    save_matrix_json(m, path)
    assert np.array_equal(load_matrix_json(path).entries, m)
    assert np.array_equal(load_hermitian_fixture(path).entries, m)
    bad = str(tmp_path / "bad.json")
    save_matrix_json(np.array([[0.0, 1.0], [0.0, 0.0]]), bad)
    with pytest.raises(UsageError):
        load_hermitian_fixture(bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_fixture_entry_is_a_usage_error_naming_the_file(tmp_path, capsys, literal):
    # Python's json reads these literals; the entry is refused as a usage error (exit 2),
    # not left to escape from the matrix constructor as a traceback and exit 1
    bad, ok = tmp_path / "bad.json", str(tmp_path / "ok.json")
    bad.write_text('{"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [%s, 0.0]]]}'
                   % literal)
    save_matrix_json(np.eye(2), ok)
    message = f"{bad}: matrix entries must be finite"
    with pytest.raises(UsageError) as info:
        load_matrix_json(str(bad))
    assert str(info.value) == message
    assert main(["--suite", "main_chain", "--fixture", str(bad), "--fixture", ok]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_suite_accepts_fixture_pair(tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([1.0, 4.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    rep = run_suite(
        SuiteSpec("main_chain", functions=("power:2",), means=("arithmetic:1/2",),
                  fixtures=(a_path, b_path))
    )
    assert rep.summary.total_records == 1
    assert rep.summary.failed_links == 0


def test_fixture_loader_and_instance_per_suite(tmp_path):
    # normal but not Hermitian: the normal suites accept them, main_chain refuses them
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.array([[0.0, 2.0], [-2.0, 0.0]]), a_path)
    save_matrix_json(np.array([[1.0, 1j], [1j, 1.0]]), b_path)
    for suite, links in (("normal_chain", 24), ("normal_triangle", 6)):
        s = run_suite(SuiteSpec(suite, functions=("power:2",), fixtures=(a_path, b_path))).summary
        assert (s.total_records, s.total_links, s.failed_links) == (1, links, 0)
    with pytest.raises(UsageError, match="not Hermitian"):
        run_suite(SuiteSpec("main_chain", functions=("power:2",), fixtures=(a_path, b_path)))

    save_matrix_json(np.diag([1.0, 4.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    spec = SuiteSpec("determinant", functions=("power:2",), fixtures=(a_path, b_path))
    (record,) = run_suite(spec).records
    assert record.params["pair_kind"] == "fixture"
    assert record.params["alpha"] == spec.alphas[0]


def test_names_resolved_once_per_configuration(monkeypatch):
    import opmeans.harness as harness

    calls = []
    lookup = harness.mean_by_name
    monkeypatch.setattr(harness, "mean_by_name", lambda name: calls.append(name) or lookup(name))
    spec = SuiteSpec("main_chain", trials=5, dims=(2,), functions=("power:2",),
                     means=("arithmetic:1/2", "geometric:1/2"))
    assert run_suite(spec).summary.total_records == 10
    # once per name: the spec's validation resolves it, and the run reuses it
    assert sorted(calls) == ["arithmetic:1/2", "geometric:1/2"]


@pytest.mark.parametrize(
    "means, gates", [((), 9), (("geometric:1/2", "arithmetic:1/4"), 2)], ids=["catalog", "chosen"]
)
def test_each_mean_is_built_once_per_run(monkeypatch, means, gates):
    import opmeans.means as means_module

    calls = []
    gate = means_module._validate_representing
    monkeypatch.setattr(means_module, "_validate_representing", lambda h: calls.append(h) or gate(h))
    spec = SuiteSpec("main_chain", trials=2, dims=(2,), functions=("power:2",), means=means)
    report = run_suite(spec)
    assert report.summary.total_records == 2 * (len(means) or 9)
    # building a mean gates its representing function: one gate per mean of the
    # run (18 and 4 when the catalog's names and the chosen means were built twice)
    assert len(calls) == gates


@pytest.mark.filterwarnings("ignore:overflow encountered in expm1:RuntimeWarning")
def test_overflow_breakdown_is_downgraded_not_passed(tmp_path):
    # expm1 overflows on eigenvalues near M = 800: every record is a downgrade
    # with the breakdown named, none has a link, and the run exits 3
    out = tmp_path / "r.json"
    rc = main(["--suite", "main_chain", "--fn", "expm1", "--mean", "geometric:1/2",
               "--M", "800", "--report", str(out)])
    data = json.loads(out.read_text())
    assert rc == 3
    assert len(data["records"]) == 200
    for rec in data["records"]:
        assert rec["links"] == []
        assert rec["params"]["not_applicable"] == "matrix entries must be finite"
    s = data["summary"]
    assert (s["downgraded_records"], s["total_links"], s["failed_links"]) == (200, 0, 0)


# --- CLI ---------------------------------------------------------------------

def test_cli_unwritable_report_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    rc = main(["--suite", "main_chain", "--trials", "1", "--dim", "2", "--fn", "power:2",
               "--mean", "arithmetic:1/2", "--report", str(path)])
    assert rc == 2
    assert f"error: cannot write report {path}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in expm1:RuntimeWarning")
def test_cli_summary_line_counts_downgraded_records(capsys):
    # expm1 overflows near M = 800; power:2 does not, so the run still exits 0
    rc = main(["--suite", "main_chain", "--fn", "expm1", "--fn", "power:2",
               "--mean", "geometric:1/2", "--M", "800", "--trials", "2", "--dim", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failed (0 companion), 0 inapplicable, 2 downgraded" in out


@pytest.mark.parametrize(
    "suite", ["main_chain", "chord", "eig_prod_norm", "inverse_function", "mean_diff_norm"]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_nan_congruence_downgrades_its_function(tmp_path, capsys, suite):
    # at M = 709.7 expm1(A) nears the largest float, the mean's regularization
    # eps overflows and expm1's congruence matrix is NaN: its records name the
    # breakdown, power:2's are judged, and no eigensolver error escapes
    out = tmp_path / "r.json"
    rc = main(["--suite", suite, "--M", "709.7", "--fn", "expm1", "--fn", "power:2",
               "--trials", "4", "--dim", "3", "--report", str(out)])
    assert rc in (0, 1)
    records = json.loads(out.read_text())["records"]
    for rec in records:
        if rec["params"]["fn"] == "expm1":
            assert rec["params"]["not_applicable"] == "matrix entries must be finite"
        else:
            assert rec["links"], rec["params"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_product_coefficient_downgrades_its_record(tmp_path, capsys):
    # at M = 30 and dim 32, (f(M)/M)^k of expm1 overflows a float for large k;
    # the expm1 record is downgraded as at M = 20, where only c^k s overflows,
    # and the run goes on to the power:2 record
    out = tmp_path / "r.json"
    rc = main(["--suite", "eig_prod_norm", "--fn", "expm1", "--fn", "power:2",
               "--mean", "arithmetic:1/2", "--M", "30", "--dim", "32", "--trials", "1",
               "--report", str(out)])
    assert rc == 0
    expm1, power2 = json.loads(out.read_text())["records"]
    assert expm1["params"]["not_applicable"] == "link margins must be finite"
    assert len(power2["links"]) == 4 * (32 + 32 + 4 + 32)  # eig, prod, norms
    assert "0 failed (0 companion), 0 inapplicable, 1 downgraded" in capsys.readouterr().out


def test_cli_failing_companion_links_exit_zero(capsys):
    # every failure of power_mean at its default spec is a companion entropy link
    rc = main(["--suite", "power_mean", "--trials", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1440 links, 549 failed (549 companion), 0 inapplicable" in out
    assert "all applicable theorem links passed" in out


def test_cli_failing_theorem_link_exits_one(monkeypatch, capsys):
    # the first record's power-mean:low link judged failed, the companions as they come
    import opmeans.checks as checks

    grid, calls = checks.check_power_mean_grid, []

    def one_failing(*args):
        rows = grid(*args)
        if not calls:
            rec = rows[0][0]
            rows[0][0] = CheckOutcome.from_columns(
                rec.check_name, rec.claim, rec.descriptions, rec.margins,
                (False, *rec.passes[1:]), rec.applicable, rec.params,
            )
        calls.append(args)
        return rows

    monkeypatch.setattr(checks, "check_power_mean_grid", one_failing)
    rc = main(["--suite", "power_mean", "--trials", "40"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "1440 links, 550 failed (549 companion), 0 inapplicable" in out
    assert "failing links present" in out


def test_cli_no_applicable_link_exits_three(capsys):
    # sqrt is concave: the convex-only subadditivity refinement downgrades every record
    rc = main(["--suite", "subadditivity", "--fn", "sqrt", "--trials", "3"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "3 records, 0 links" in out
    assert "no applicable links ran" in out


def test_cli_identity_equalities_exit_zero(capsys):
    rc = main(["--suite", "main_chain", "--trials", "1", "--dim", "2",
               "--fn", "identity", "--mean", "arithmetic:1/2"])
    assert rc == 0
    assert "all applicable links passed" in capsys.readouterr().out


def test_cli_counterexample_suite(tmp_path, capsys):
    out = str(tmp_path / "ce.json")
    rc = main(["--suite", "normal_counterexample", "--report", out])
    assert rc == 0
    data = json.loads((tmp_path / "ce.json").read_text())
    params = data["records"][0]["params"]
    assert params["norm_images_sum"] == 8.0
    assert params["norm_image_of_abs_sum"] == 16.0


def test_cli_usage_error_exit_two(capsys):
    rc = main(["--suite", "main_chain", "--fn", "wat", "--trials", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_fixture_and_search_usage_errors(tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.eye(2), a_path)
    save_matrix_json(np.eye(3), b_path)
    with pytest.raises(UsageError, match=r"^single-instance checks need exactly two --fixture"):
        run_suite(SuiteSpec("main_chain", fixtures=(a_path,)))
    spec = SuiteSpec("search", fixtures=(a_path, b_path))
    with pytest.raises(UsageError, match="^fixture pair: operands must have the same dimension$"):
        search_counterexample("main_chain", None, 3, spec)
    spec = SuiteSpec("search", dims=(2,))
    with pytest.raises(UsageError, match="^search budget must be >= 1$"):
        search_counterexample("main_chain", None, 0, spec)
    with pytest.raises(UsageError, match="^unknown search target 'nope'"):
        search_counterexample("nope", None, 3, spec)


def test_cli_escaped_exception_exits_four(monkeypatch, capsys):
    # an eigensolver that does not converge is no failed hypothesis: it downgrades no
    # record but escapes the run, and the CLI names it and exits 4, not 1 (a failed link)
    def fails(*_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    with pytest.raises(EigenConvergenceError):
        run_suite(SuiteSpec("main_chain", trials=1, dims=(2,)))
    assert main(["--suite", "main_chain", "--trials", "1", "--dim", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: EigenConvergenceError: eigensolver failed to converge")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--m", "0"], "need 0 < m <= M"),
        (["--m", "5", "--M", "4"], "need 0 < m <= M"),
        (["--dim", "0"], "dim must be >= 1"),
    ],
)
@pytest.mark.parametrize(
    "suite", [["--suite", "main_chain"], ["--suite", "search", "--target", "norm_chain_normal"]]
)
def test_cli_bad_interval_or_dimension_exit_two(capsys, suite, args, message):
    # refused before any instance is drawn: a usage error, not a traceback
    rc = main(suite + ["--trials", "1", "--budget", "1"] + args)
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite", [["--suite", "power_mean"], ["--suite", "search", "--target", "norm_chain_normal"]]
)
def test_cli_interval_beyond_resolution_exit_two(capsys, suite):
    # the eigensolver's absolute error near eps * 1e120 swamps m = 0.5: refused
    # before any instance is drawn, not downgraded as indefinite
    rc = main(suite + ["--M", "1e120", "--trials", "2", "--budget", "2", "--dim", "2"])
    assert rc == 2
    assert "error: spectral interval ratio M/m = 2.000e+120 exceeds 1/eps" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("suite", [["--suite", "main_chain"], ["--suite", "search"]])
def test_cli_invalid_tolerance_exit_two(capsys, monkeypatch, suite, tol):
    # unchecked, nan failed every link, -1 downgraded every record and inf passed every link
    import opmeans.harness as harness

    def no_instance(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(harness, "random_group", no_instance)
    rc = main(suite + ["--tol", tol, "--trials", "2", "--budget", "2"])
    assert rc == 2
    assert f"error: tolerance must be a finite number >= 0, got {float(tol)!r}" in (
        capsys.readouterr().err
    )


def test_cli_wide_interval_within_resolution_runs(capsys):
    rc = main(["--suite", "main_chain", "--m", "1e-6", "--M", "400", "--trials", "2"])
    assert rc in (0, 1)
    assert "main_chain: 144 records" in capsys.readouterr().out


def test_bad_interval_or_dimension_is_a_usage_error():
    for spec in (SuiteSpec("determinant", m=0.0), SuiteSpec("normal_chain", M=0.25),
                 SuiteSpec("main_chain", dims=(2, 0)), SuiteSpec("main_chain", dims=())):
        with pytest.raises(UsageError):
            run_suite(spec)
    with pytest.raises(UsageError, match="unknown structure"):
        search_counterexample("norm_chain_normal", "triangular", 2, SuiteSpec("search"))


def test_cli_search_exit_codes():
    assert main(["--suite", "search", "--target", "norm_chain_normal",
                 "--budget", "100", "--dim", "2"]) == 0
    assert main(["--suite", "search", "--target", "main_chain", "--budget", "20",
                 "--dim", "2", "--fn", "power:2", "--mean", "geometric:1/2"]) == 1


def test_cli_search_refuses_pairs_that_are_not_positive_definite(tmp_path, capsys):
    rc = main(["--suite", "search", "--target", "main_chain", "--structure", "normal_complex",
               "--budget", "3"])
    assert rc == 2
    assert "target main_chain needs positive definite instances" in capsys.readouterr().err
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([0.0, 1.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    rc = main(["--suite", "search", "--target", "main_chain", "--fixture", a_path,
               "--fixture", b_path, "--budget", "3"])
    assert rc == 2
    assert "positive definite fixtures" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--target", "main_chain", "--fn", "log"], "log does not fix zero"),
        (["--target", "norm_chain_normal", "--norm", "kyfan:9", "--dim", "2"],
         "ky fan k=9 outside 1..2"),
    ],
    ids=["fn-not-fixing-zero", "kyfan-above-dim"],
)
def test_cli_search_refused_by_its_checker_exits_two(capsys, args, reason):
    # the checker's ValueError is a usage error naming its reason, not a
    # traceback with exit 1, which means a failed link or an empty search
    rc = main(["--suite", "search", *args, "--budget", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


def test_cli_fixed_suite_refuses_fixtures(tmp_path, capsys):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix_json(np.diag([1.0, 4.0]), a_path)
    save_matrix_json(np.diag([2.0, 3.0]), b_path)
    rc = main(["--suite", "normal_counterexample", "--fixture", a_path, "--fixture", b_path])
    assert rc == 2
    assert "takes no fixtures" in capsys.readouterr().err


def test_cli_missing_fixture_file_exit_two(capsys):
    rc = main(["--suite", "main_chain", "--fn", "power:2", "--mean", "arithmetic:1/2",
               "--fixture", "/nonexistent/a.json", "--fixture", "/nonexistent/b.json"])
    assert rc == 2
    assert "error: cannot read matrix file /nonexistent/a.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2}', "has no 'entries' field"),
        ("{not json", "not a matrix file"),
        ("[1, 2]", "not a matrix file"),
        ('{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}', "not a matrix file"),
        ('{"n": 2, "entries": [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]}', "(n = 2)"),
        ('{"n": 2.5, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', "(n = 2.5)"),
        ('{"n": "2", "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', "(n = '2')"),
    ],
)
def test_cli_malformed_fixture_file_exit_two(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = str(tmp_path / "b.json")
    save_matrix_json(np.diag([2.0, 3.0]), good)
    rc = main(["--suite", "main_chain", "--fn", "power:2", "--mean", "arithmetic:1/2",
               "--fixture", str(bad), "--fixture", good])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err


def test_cli_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "opmeans", "--suite", "normal_counterexample"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "normal_counterexample" in proc.stdout


def test_cli_report_determinism_across_processes(tmp_path):
    args = ["--suite", "determinant", "--trials", "6", "--dim", "2", "--dim", "3",
            "--fn", "power:2", "--seed", "42"]
    assert main(args + ["--format", "json", "--report", str(tmp_path / "r1.json")]) == 0
    d1 = json.loads((tmp_path / "r1.json").read_text())
    d1["summary"].pop("wall_time_s")
    in_process = json.dumps(d1, sort_keys=True, indent=2).encode()
    assert in_process == fresh_process_report(tmp_path, args)
