"""SciPy loads only on the sparse routes.

The determinant sampler, the LCU closed form, the two-site forms, the
field-split check and the phase check run on NumPy alone; only the sector
ground-state solve, the 4^N full sum and the statevector engine compile
sparse matrices.  Each case runs in a fresh interpreter, because the test
process has SciPy loaded already, and reports the command's exit code and
whether any ``scipy`` module was imported.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import gutzmc
    code = 0
else:
    from gutzmc.cli import main
    try:
        code = main(argv)
    except SystemExit as stop:  # --help exits from the parser
        code = stop.code
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([code, scipy]))
"""

SHORT = ["--lattice", "chain:2", "--g-min", "1", "--g-max", "1",
         "--nmc", "200", "--bins", "10", "--burnin", "20"]


def fresh_run(argv: list[str] | None, cwd: Path) -> tuple[int, list[str]]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GUTZMC_")}
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, scipy = json.loads(done.stdout.splitlines()[-1])
    return code, scipy


def test_import_loads_no_scipy(tmp_path):
    assert fresh_run(None, tmp_path) == (0, [])


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["mc", *SHORT],
    ["two-site", "--shots", "0"],
    ["lcu"],
    ["hst-verify"],
    ["phase-check", "--lattice", "chain:2", "--g-min", "1", "--g-max", "1"],
], ids=lambda argv: argv[0])
def test_dense_commands_run_on_numpy_alone(tmp_path, argv):
    out = [] if argv == ["--help"] else ["--out", "out.csv"]
    assert fresh_run(argv + out, tmp_path) == (0, [])


@pytest.mark.parametrize("argv", [
    ["sweep", *SHORT],
    ["mc", *SHORT, "--backend", "statevector"],
], ids=["sweep", "mc-statevector"])
def test_sparse_routes_load_scipy_on_first_use(tmp_path, argv):
    code, scipy = fresh_run(argv + ["--out", "out.csv"], tmp_path)
    assert code == 0
    assert "scipy.sparse" in scipy
