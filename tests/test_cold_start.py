"""opmeans starts without scipy.linalg and loads it at the first Schur factorization.

The Hermitian suites need only numpy's eigensolvers; scipy.linalg serves
the complex Schur factorization of normal operands alone.  ``core`` finds
scipy.linalg when it is imported, so a missing scipy still fails at
``import opmeans``, but runs it only when a Schur factorization first reads
it.  Each test runs in a new interpreter, where nothing has imported scipy
before opmeans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The suites run in one process: Hermitian first, then normal_chain, which factors by Schur.
_HERMITIAN = ("main_chain", "determinant", "subadditivity")

_RUN = """
import json, sys
{first}
import opmeans, opmeans.cli
from opmeans.harness import SuiteSpec, run_suite

SCHUR = "scipy.linalg._decomp_schur"

def report(suite):
    d = run_suite(SuiteSpec(suite, trials=2)).to_dict()
    d["summary"].pop("wall_time_s")
    return d

hermitian = [report(suite) for suite in {hermitian!r}]
before = SCHUR in sys.modules
normal = report("normal_chain")
print(json.dumps({{"before": before, "after": SCHUR in sys.modules,
                  "reports": [*hermitian, normal]}}, sort_keys=True))
"""


def _python(code: str) -> subprocess.CompletedProcess:
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def _run(first: str) -> dict:
    proc = _python(_RUN.format(first=first, hermitian=_HERMITIAN))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_hermitian_suites_never_load_scipy_linalg():
    lazy, eager = _run(""), _run("import scipy.linalg")
    assert not lazy["before"] and lazy["after"]
    assert eager["before"] and eager["after"]
    # the module loaded late is the one loaded first: every report, normal_chain's too, is the same
    assert json.dumps(lazy["reports"]) == json.dumps(eager["reports"])
    assert [r["spec"]["suite"] for r in lazy["reports"]] == [*_HERMITIAN, "normal_chain"]
    assert all(r["records"] for r in lazy["reports"])


_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
import numpy
try:
    import opmeans
except ModuleNotFoundError as exc:
    print(exc.name)
"""


def test_a_missing_scipy_fails_at_import():
    # found at import, not at the first Schur factorization: a run without
    # scipy stops before it judges anything
    proc = _python(_NO_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["scipy"]
