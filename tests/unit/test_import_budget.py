"""scipy stays off every import path except curve fitting.

Each spawned process-pool worker imports :mod:`repro.core.parallel`
to unpickle its task, and the CLI, the query service and the network
worker import their whole stacks at start.  scipy used to ride along
on all of them through ``repro.stats.fitting`` and cost several
hundred milliseconds of cold start per worker; it is now imported
only inside the fitting functions.  Every check runs in a fresh
interpreter, because this test process has long since loaded scipy
through the fitting tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize(
    "module",
    ["repro.core.parallel", "repro.distributed.worker", "repro.service", "repro.cli"],
)
def test_import_does_not_load_scipy(module):
    loaded = _run(
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_fit_loads_scipy_and_keeps_its_result():
    out = _run(
        "import sys\n"
        "import numpy as np\n"
        "from repro.stats import fit_lognormal\n"
        "sample = np.random.default_rng(7).lognormal(1.0, 0.5, 200)\n"
        "print('scipy' in sys.modules)\n"
        "fit = fit_lognormal(sample, xmin=1.5)\n"
        "print('scipy' in sys.modules)\n"
        "print(fit.params['mu'], fit.params['sigma'], fit.log_likelihood, fit.n)\n"
    )
    before, after, numbers = out.splitlines()
    assert (before, after) == ("False", "True")
    mu, sigma, loglik, n = numbers.split()
    # The fit as it stood when scipy was imported at module level.
    assert float(mu) == pytest.approx(0.9656128801200183, rel=1e-6)
    assert float(sigma) == pytest.approx(0.4146894198740986, rel=1e-6)
    assert float(loglik) == pytest.approx(-239.0542419601834, rel=1e-9)
    assert int(n) == 175
