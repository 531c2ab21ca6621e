"""The scripts under scripts/, checked as CI runs them.

scripts/moved_cells.py runs as a subprocess on two directories.  CI calls
it only after a failed base-commit diff, so these tests are what checks it
on every run.  scripts/reference_outputs.py takes ~20 s, so its command
list is checked here through the CLI's own parser, and its argument checks
through runs that stop before any output.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gutzmc import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "moved_cells.py"
HARNESS = ROOT / "scripts" / "reference_outputs.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("reference_outputs", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = load_harness()

CSV = "U,E,K\n1,-1.5,-2.0\n2,-1.25,-1.75\n"
SIDECAR = {"g": 0.5, "points": {"1": {"exact_ground_energy": -2.0, "bins": [1.0, 2.0]}}}
RECORDS = "chain:2 g=0.6 seed=11 k_bins 0x1.0p+0 0x1.8p+0\nchain:2 g=0.6 seed=11 max_drift 0x0.0p+0\n"


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def write_set(root: Path, csv: str = CSV, sidecar: dict = SIDECAR, records: str = RECORDS) -> Path:
    root.mkdir()
    (root / "sweep.csv").write_text(csv)
    (root / "sweep.json").write_text(json.dumps(sidecar, indent=2))
    (root / "chains.txt").write_text(records)
    return root


def moved_lines(result: subprocess.CompletedProcess) -> list[str]:
    """The per-value lines, without the closing count."""
    *lines, summary = result.stdout.splitlines()
    assert summary.startswith(f"{len(lines)} moved value(s) between ")
    return lines


def test_identical_directories_exit_zero_silently(tmp_path):
    result = run(write_set(tmp_path / "base"), write_set(tmp_path / "head"))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_changed_csv_cell(tmp_path):
    base = write_set(tmp_path / "base")
    head = write_set(tmp_path / "head", csv=CSV.replace("-1.25", "-1.5"))
    result = run(base, head)
    assert result.returncode == 1
    assert moved_lines(result) == ["sweep.csv row 2 column E: -1.25 -> -1.5  (-2.000e-01)"]


def test_changed_json_leaf(tmp_path):
    sidecar = json.loads(json.dumps(SIDECAR))
    sidecar["points"]["1"]["bins"][1] = 2.5
    result = run(write_set(tmp_path / "base"), write_set(tmp_path / "head", sidecar=sidecar))
    assert result.returncode == 1
    assert moved_lines(result) == ["sweep.json points.1.bins[1]: 2.0 -> 2.5  (+2.500e-01)"]


def test_changed_float_hex_token(tmp_path):
    base = write_set(tmp_path / "base")
    head = write_set(tmp_path / "head", records=RECORDS.replace("0x1.8p+0", "0x1.cp+0"))
    result = run(base, head)
    assert result.returncode == 1
    # 1.5 -> 1.75
    assert moved_lines(result) == ["chains.txt line 1 token 6: 0x1.8p+0 -> 0x1.cp+0  (+1.667e-01)"]


def test_file_on_one_side_only(tmp_path):
    base = write_set(tmp_path / "base")
    head = write_set(tmp_path / "head")
    (base / "old.csv").write_text(CSV)
    (head / "new.txt").write_text(RECORDS)
    result = run(base, head)
    assert result.returncode == 1
    assert moved_lines(result) == ["new.txt: only in HEAD", "old.csv: only in BASE"]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_wrong_argument_count_is_a_usage_error(tmp_path, count):
    dirs = [write_set(tmp_path / f"d{i}") for i in range(count)]
    result = run(*dirs)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: scripts/moved_cells.py BASE HEAD")


def run_harness(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HARNESS), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_harness_names_are_unique():
    names = [name for name, _ in harness.COMMANDS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name,args", harness.COMMANDS,
                         ids=[name for name, _ in harness.COMMANDS])
def test_every_harness_command_parses(name, args, tmp_path, monkeypatch):
    for var in [var for var in os.environ if var.startswith("GUTZMC_")]:
        monkeypatch.delenv(var)
    config = tmp_path / "reference.conf"
    config.write_text(harness.CONFIG_TEXT)
    parsed = cli.build_parser().parse_args(harness.cli_argv(name, args, config))
    cfg, _ = cli.merge_settings(parsed)
    assert cfg.out == f"{name}.csv"


def test_importing_the_harness_leaves_the_environment_alone():
    before = dict(os.environ)
    load_harness()
    assert dict(os.environ) == before


@pytest.mark.parametrize("count", [0, 1, 3])
def test_harness_wrong_argument_count(tmp_path, count):
    result = run_harness(*[ROOT, tmp_path / "out", tmp_path / "extra"][:count])
    assert result.returncode == 1
    assert result.stderr.startswith("usage: ")
    assert list(tmp_path.iterdir()) == []


def test_harness_needs_src_gutzmc(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    result = run_harness(checkout, tmp_path / "out")
    assert result.returncode == 1
    assert "not found" in result.stderr
    assert not (tmp_path / "out").exists()


def test_harness_needs_an_empty_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.csv").write_text(CSV)
    result = run_harness(ROOT, out)
    assert result.returncode == 1
    assert "not empty" in result.stderr
    assert [(p.name, p.read_text()) for p in out.iterdir()] == [("kept.csv", CSV)]
