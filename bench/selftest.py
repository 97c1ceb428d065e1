"""Self-test of the benchmark: short smoke runs of every workload, traced and untraced.

Run from the repository root::

    python3 bench/selftest.py

It checks that every metric named in ``BENCHMARK.json`` is printed, with its
unit, on the result line and on its own text line; that the workloads in
``BENCHMARK.json`` are the ones ``workloads.py`` defines; that a tampered
reference makes the error share nonzero; and that the benchmark refuses to
run without the program's sources.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result, lines[:-1]


def _check_metrics(result: dict, text: list[str], declared: list[dict], label: str) -> None:
    got = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        raise AssertionError(f"{label}: metrics {sorted(got)} != declared {sorted(names)}")
    for metric in declared:
        value = got[metric["name"]]
        if value["unit"] != metric["unit"] or not isinstance(value["value"], (int, float)):
            raise AssertionError(f"{label}: {metric['name']} printed as {value}")
        prefix = f"# {metric['name']} "
        if not any(line.startswith(prefix) and line.endswith(f" {metric['unit']}") for line in text):
            raise AssertionError(f"{label}: no text line for {metric['name']} with its unit")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {w["name"]: w["why"] for w in bench["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")

    for name in WORKLOADS:
        for trace, metrics in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{name} trace {trace}"
            result, text = _result(_run("--workload", name, "--seed", "7", "--seconds", "1",
                                        "--trace", trace))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label}: not correct: {text}")
            _check_metrics(result, text, metrics, label)
            print(f"ok   {label}: {result['attempted']} records")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    worst = reference["workloads"]["chain_small"][0]["worst_margin_by_link"]
    desc = sorted(worst)[0]
    worst[desc] += 1e-3 * (1.0 + abs(worst[desc]))
    tampered = os.path.join(OUT, "tampered-reference.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    result, text = _result(_run("--workload", "chain_small", "--seed", "7", "--seconds", "1",
                                "--reference", tampered))
    share = 1.0 - result["metrics"]["verified_share"]["value"]
    if result["correct"] or result["failed"] < 1 or share <= 0.0:
        raise AssertionError(f"tampered reference passed: {text}")
    print(f"ok   tampered reference: error share {share:.3f}")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "chain_small", "--seed", "7", "--seconds", "1", cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("benchmark ran without the program's sources")
    print("ok   refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
