"""opmeans runs without scipy.

Every factorization the package makes is numpy's, the SVD of normal
operands included, so a process that cannot import scipy at all imports
opmeans and runs the Hermitian and the normal suites.  Each test runs in a
new interpreter, where nothing has imported scipy before opmeans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Refuses every scipy import, as if scipy were not installed.
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
"""

_RUN = """
import json, sys
import opmeans, opmeans.cli
from opmeans.harness import SuiteSpec, run_suite

def report(suite):
    d = run_suite(SuiteSpec(suite, trials=2)).to_dict()
    d["summary"].pop("wall_time_s")
    return d

reports = [report(suite) for suite in ("main_chain", "normal_chain")]
scipy = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
print(json.dumps({"scipy": scipy, "reports": reports}, sort_keys=True))
"""


def _run(first: str) -> dict:
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-c", first + _RUN], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_opmeans_runs_without_scipy():
    blocked, free = _run(_NO_SCIPY), _run("")
    assert blocked["scipy"] == [] and free["scipy"] == []
    # nothing in the reports depends on whether scipy could be imported
    assert json.dumps(blocked["reports"]) == json.dumps(free["reports"])
    assert [r["spec"]["suite"] for r in blocked["reports"]] == ["main_chain", "normal_chain"]
    assert all(r["records"] for r in blocked["reports"])
