"""CSV/JSON emission, config-file parsing, and the command-line wiring.

CLI commands run in-process through cli.main().  Determinism is checked
the blunt way: run a command twice with the same settings and compare
the output files byte for byte.  The precedence chain
(flags > environment > config file > defaults) is driven through
merge_settings with a real Namespace.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gutzmc import cli, sampler, statevector
from gutzmc.io_utils import (
    GENERATOR_ID,
    VERSION,
    ConfigError,
    format_cell,
    load_config_file,
    sidecar_path,
    write_csv,
    write_metadata,
)
from gutzmc.lattice import build_lattice, hubbard_terms
from gutzmc.pauli import apply_pauli_sum
from gutzmc.sampler import PhaseCheckReport, PhaseProblemError


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_namespace(command, **overrides):
    ns = argparse.Namespace(command=command, config=None)
    for key in cli.OPTIONS:
        setattr(ns, key, None)
    for key, value in overrides.items():
        setattr(ns, key, value)
    return ns


class TestFormatCell:
    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, -2.0615528128088303, 1e-300, 12345.0]
    )
    def test_floats_round_trip_exactly(self, value):
        assert float(format_cell(value)) == value

    def test_non_float_types(self):
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(7) == "7"
        assert format_cell("chain:4") == "chain:4"


class TestWriteCsv:
    def test_header_and_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[0.1, "x"], [2, True]])
        rows = read_rows(path)
        assert rows[0] == ["a", "b"]
        assert float(rows[1][0]) == 0.1
        assert rows[2] == ["2", "true"]

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1]])
        assert b"\r" not in path.read_bytes()


class TestConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# header comment\n"
            "\n"
            "seed = 99  # trailing comment\n"
            "lattice=chain:6\n"
        )
        assert load_config_file(path) == {"seed": "99", "lattice": "chain:6"}

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)

    def test_empty_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed =\n")
        with pytest.raises(ConfigError, match="empty"):
            load_config_file(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "absent.cfg")


class TestMetadata:
    def test_sidecar_path_and_defaults(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        out = write_metadata(csv_path, {"seed": 5})
        assert out == sidecar_path(csv_path) == tmp_path / "data.json"
        meta = json.loads(out.read_text())
        assert meta["seed"] == 5
        assert meta["generator"] == GENERATOR_ID
        assert meta["version"] == VERSION

    def test_nothing_time_dependent(self, tmp_path):
        out = write_metadata(tmp_path / "d.csv", {"config": {"seed": 1}})
        text = out.read_text().lower()
        for word in ("time", "date", "stamp", "hostname"):
            assert word not in text
        # same payload twice -> same bytes
        second = write_metadata(tmp_path / "d2.csv", {"config": {"seed": 1}})
        assert out.read_bytes() == second.read_bytes()


class TestPrecedence:
    def test_defaults_only(self):
        cfg, provided = cli.merge_settings(make_namespace("mc"))
        assert provided == set()
        assert cfg.seed == 12345
        assert cfg.lattice == "chain:4"
        assert cfg.backend == "determinant"
        assert cfg.U == (1.0, 2.0, 3.0, 4.0)
        assert cfg.out == "mc.csv"

    def test_config_file_then_env_then_flag(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnmc = 1000\nbins = 10\n")
        monkeypatch.setenv("GUTZMC_SEED", "2")
        ns = make_namespace("mc", seed="3")
        ns.config = str(path)
        cfg, provided = cli.merge_settings(ns)
        assert cfg.seed == 3  # flag beats env beats file
        assert cfg.nmc == 1000  # file value survives where nothing overrides
        assert cfg.bins == 10
        assert provided == {"seed", "nmc", "bins"}

    def test_env_beats_config_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("backend = statevector\n")
        monkeypatch.setenv("GUTZMC_BACKEND", "determinant")
        ns = make_namespace("mc")
        ns.config = str(path)
        cfg, _ = cli.merge_settings(ns)
        assert cfg.backend == "determinant"

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature = 4\n")
        ns = make_namespace("mc")
        ns.config = str(path)
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.merge_settings(ns)


class TestResolve:
    def test_bad_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            cli.merge_settings(make_namespace("mc", backend="tensor"))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.merge_settings(make_namespace("mc", seed="-1"))

    def test_empty_u_list(self):
        with pytest.raises(ConfigError, match="U list"):
            cli.merge_settings(make_namespace("mc", U=" "))

    def test_negative_u(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            cli.merge_settings(make_namespace("mc", U="1,-2"))

    def test_duplicate_u_warns_and_dedups(self, capsys):
        cfg, _ = cli.merge_settings(make_namespace("mc", U="2,2,3"))
        assert cfg.U == (2.0, 3.0)
        assert "duplicate U" in capsys.readouterr().err

    def test_bias_forms(self):
        cfg, _ = cli.merge_settings(make_namespace("two-site", bias="none"))
        assert cfg.bias is None
        cfg, _ = cli.merge_settings(make_namespace("two-site", bias="0.9"))
        assert cfg.bias.scale == 0.9 and cfg.bias.phase_offset == 0.0
        cfg, _ = cli.merge_settings(make_namespace("two-site", bias="0.9,0.02"))
        assert cfg.bias.phase_offset == 0.02
        with pytest.raises(ConfigError):
            cli.merge_settings(make_namespace("two-site", bias="0.9,0.1,0.3"))
        with pytest.raises(ConfigError):  # out-of-range scale via BiasModel
            cli.merge_settings(make_namespace("two-site", bias="1.5"))

    def test_nonpositive_J_rejected_except_catalog_command(self):
        with pytest.raises(ConfigError, match="J must be positive"):
            cli.merge_settings(make_namespace("mc", J="-1.0"))
        cfg, _ = cli.merge_settings(make_namespace("hst-verify", J="-0.5"))
        assert cfg.J == -0.5

    def test_g_grid(self):
        cfg, _ = cli.merge_settings(make_namespace("mc"))
        grid = cfg.g_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and abs(grid[-1] - 2.0) < 1e-12
        with pytest.raises(ConfigError, match="positive"):
            cli.merge_settings(make_namespace("mc", g_step="-0.1"))
        with pytest.raises(ConfigError, match="positive"):
            cli.merge_settings(make_namespace("mc", g_step="0"))
        empty, _ = cli.merge_settings(make_namespace("mc", g_min="2", g_max="1"))
        with pytest.raises(ConfigError, match="empty g grid"):
            empty.g_grid()

    def test_g_grid_point_cap(self):
        cap = cli.MAX_G_POINTS
        at_cap, _ = cli.merge_settings(make_namespace("mc", g_max=str(cap - 1), g_step="1"))
        assert len(at_cap.g_grid()) == cap
        # one point past the cap, and a count that overflows to infinity
        for g_max, g_step in ((str(cap), "1"), ("1e308", "1e-10")):
            cfg, _ = cli.merge_settings(make_namespace("mc", g_max=g_max, g_step=g_step))
            with pytest.raises(ConfigError, match=f"more than {cap} points"):
                cfg.g_grid()

    def test_lattice_spec_parsing(self):
        cfg, _ = cli.merge_settings(make_namespace("mc", lattice="ladder:6"))
        lat = cfg.build_lattice()
        assert lat.kind == "ladder" and lat.n_sites == 6
        with pytest.raises(ConfigError, match="chain:N or ladder:N"):
            cli.merge_settings(make_namespace("mc", lattice="chain4"))
        with pytest.raises(ConfigError, match="unsupported lattice kind"):
            cli.merge_settings(make_namespace("mc", lattice="mesh:4"))
        with pytest.raises(ConfigError, match="even site count"):
            cli.merge_settings(make_namespace("mc", lattice="ladder:5"))
        with pytest.raises(ConfigError, match="invalid integer"):
            cli.merge_settings(make_namespace("mc", lattice="chain:x"))


# key -> (flag, environment variable, text, value as echoed in the sidecar);
# every text differs from the built-in default
OPTION_SAMPLES = {
    "lattice": ("--lattice", "GUTZMC_LATTICE", "chain:2", "chain:2"),
    "J": ("--J", "GUTZMC_J", "0.5", 0.5),
    "U": ("--U", "GUTZMC_U", "3,5", [3.0, 5.0]),
    "g_min": ("--g-min", "GUTZMC_G_MIN", "0.25", 0.25),
    "g_max": ("--g-max", "GUTZMC_G_MAX", "0.5", 0.5),
    "g_step": ("--g-step", "GUTZMC_G_STEP", "0.25", 0.25),
    "nmc": ("--nmc", "GUTZMC_NMC", "200", 200),
    "bins": ("--bins", "GUTZMC_BINS", "10", 10),
    "burnin": ("--burnin", "GUTZMC_BURNIN", "20", 20),
    "seed": ("--seed", "GUTZMC_SEED", "7", 7),
    "backend": ("--backend", "GUTZMC_BACKEND", "statevector", "statevector"),
    "shots": ("--shots", "GUTZMC_SHOTS", "64", 64),
    "reps": ("--reps", "GUTZMC_REPS", "2", 2),
    "bias": ("--bias", "GUTZMC_BIAS", "0.9,0.05", [0.9, 0.05]),
    "out": ("--out", "GUTZMC_OUT", "elsewhere.csv", "elsewhere.csv"),
}

DEFAULT_OUT = {
    "two-site": "two_site.csv",
    "sweep": "sweep.csv",
    "lcu": "lcu.csv",
    "mc": "mc.csv",
    "hst-verify": "hst_verify.csv",
    "phase-check": "phase_check.csv",
}


class TestOptionTable:
    def test_every_option_has_a_sample(self):
        assert list(cli.OPTIONS) == list(OPTION_SAMPLES)

    @pytest.mark.parametrize("key", list(OPTION_SAMPLES))
    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    def test_each_source_sets_each_key(self, key, source, tmp_path, monkeypatch):
        flag, env, text, echoed = OPTION_SAMPLES[key]
        argv = ["mc"]
        if source == "flag":
            argv += [flag, text]
        elif source == "env":
            monkeypatch.setenv(env, text)
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = {text}\n")
            argv += ["--config", str(path)]
        cfg, provided = cli.merge_settings(cli.build_parser().parse_args(argv))
        assert provided == {key}
        assert json.loads(json.dumps(cfg.echo()[key])) == echoed

    def test_sidecar_echoes_every_key(self, tmp_path):
        argv = ["hst-verify"]
        for key, (flag, _, text, _) in OPTION_SAMPLES.items():
            argv += [flag, str(tmp_path / text) if key == "out" else text]
        assert cli.main(argv) == 0
        config = json.loads(sidecar_path(tmp_path / "elsewhere.csv").read_text())["config"]
        expected = {key: sample[3] for key, sample in OPTION_SAMPLES.items()}
        expected["out"] = str(tmp_path / "elsewhere.csv")
        assert config == {"command": "hst-verify", **expected}

    # command -> (flags for a small run, the sidecar keys of that command alone)
    SIDECAR_RUNS = {
        "two-site": (["--g-min", "0.5", "--g-max", "0.5", "--U", "2", "--shots", "64",
                      "--reps", "2"], {"analytic_minimum"}),
        "sweep": (["--lattice", "chain:2", "--g-min", "0.5", "--g-max", "0.5", "--U", "2",
                   "--nmc", "100", "--bins", "10", "--burnin", "10"],
                  {"max_drift", "exact_ground_energy"}),
        "lcu": (["--lattice", "chain:2", "--g-max", "0.5"], {"lattices"}),
        "mc": (["--lattice", "chain:2", "--g-min", "0.5", "--g-max", "0.5", "--U", "2",
                "--nmc", "100", "--bins", "10", "--burnin", "10"], {"max_drift"}),
        "hst-verify": ([], {"worst_deviation"}),
        "phase-check": (["--lattice", "chain:2"], {"all_passed"}),
    }

    @pytest.mark.parametrize("command", list(DEFAULT_OUT))
    def test_every_sidecar_holds_the_shared_and_own_keys(self, command, tmp_path):
        assert list(self.SIDECAR_RUNS) == list(DEFAULT_OUT)
        flags, own = self.SIDECAR_RUNS[command]
        out = tmp_path / "run.csv"
        assert cli.main([command, *flags, "--seed", "7", "--out", str(out)]) == 0
        shared = {"config", "seed", "generator", "version"}
        sidecars = {out: shared | own}
        if command == "two-site":
            sidecars[tmp_path / "run_primitives.csv"] = shared
        for csv_path, keys in sidecars.items():
            assert read_rows(csv_path)
            meta = json.loads(sidecar_path(csv_path).read_text())
            assert set(meta) == keys
            assert meta["config"]["command"] == command
            assert meta["config"]["out"] == str(out)
            assert meta["seed"] == meta["config"]["seed"] == 7
            assert (meta["generator"], meta["version"]) == (GENERATOR_ID, VERSION)

    @pytest.mark.parametrize("command", list(DEFAULT_OUT))
    def test_command_help_and_default_out(self, command, capsys):
        assert list(cli.COMMANDS) == list(DEFAULT_OUT)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for flag, *_ in OPTION_SAMPLES.values():
            assert flag in help_text
        cfg, _ = cli.merge_settings(make_namespace(command))
        assert cfg.out == DEFAULT_OUT[command]


class TestInputRules:
    @pytest.mark.parametrize("argv", [
        ["mc", "--g-min", "0", "--g-max", "1", "--g-step", "inf"],
        ["mc", "--J", "nan"],
        ["mc", "--U", "2,nan"],
        ["mc", "--g-min", "nan"],
        ["mc", "--g-max=-inf"],
        ["two-site", "--J", "inf", "--shots", "0"],
        ["two-site", "--bias", "0.9,nan"],
    ])
    def test_non_finite_numbers_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([*argv, "--lattice", "chain:2", "--nmc", "100", "--bins", "10",
                       "--burnin", "10", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(DEFAULT_OUT))
    def test_negative_g_rejected(self, command, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([command, "--lattice", "chain:2", "--g-min", "-0.5", "--g-max", "-0.5",
                       "--nmc", "100", "--bins", "10", "--burnin", "10", "--out", str(out)])
        assert rc == 1
        assert "error: g_min must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", list(DEFAULT_OUT))
    @pytest.mark.parametrize("flags,message", [
        (["--g-step", "-1"], "g_step must be positive"),
        (["--lattice", "mesh:4"], "unsupported lattice kind"),
    ], ids=["g_step", "lattice"])
    def test_every_command_checks_lattice_and_g_step(self, command, flags, message,
                                                     tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([command, *flags, "--shots", "0", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(DEFAULT_OUT))
    def test_every_command_caps_the_lattice_at_20_sites(self, command, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([command, "--lattice", "chain:21", "--shots", "0", "--out", str(out)])
        assert rc == 1
        assert "at most 20 sites" in capsys.readouterr().err
        assert not out.exists()

    def test_lattice_cap_checked_before_the_lattice_is_built(self, monkeypatch, tmp_path,
                                                              capsys):
        built = []
        monkeypatch.setattr(cli, "build_lattice", lambda kind, n_sites: built.append(n_sites))
        out = tmp_path / "x.csv"
        assert cli.main(["mc", "--lattice", "chain:1000000", "--out", str(out)]) == 1
        assert built == []
        assert "at most 20 sites" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_g_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:2", "--g-max", "1e308", "--g-step", "1e-10",
                       "--out", str(out)])
        assert rc == 1
        assert "points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc", "sweep", "lcu", "phase-check"])
    def test_degenerate_lattice_is_config_error(self, command, tmp_path, capsys):
        # the half-filled shell of ladder:4 is degenerate: no canonical trial
        out = tmp_path / "x.csv"
        rc = cli.main([command, "--lattice", "ladder:4", "--g-min", "0.5", "--g-max", "0.5",
                       "--nmc", "100", "--bins", "10", "--burnin", "10", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "degenerate" in err
        assert not out.exists()


class TestMainExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_usage_error_is_exit_one(self, capsys):
        assert cli.main(["mc", "--no-such-flag"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_error_is_exit_one(self, tmp_path, capsys):
        rc = cli.main(["mc", "--lattice", "chain:99",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_phase_problem_is_exit_two(self, monkeypatch, tmp_path, capsys):
        def boom(*args, **kwargs):
            raise PhaseProblemError("synthetic weight failure")

        monkeypatch.setattr(cli, "sample_kinetic_interaction", boom)
        rc = cli.main(["mc", "--g-min", "0.5", "--g-max", "0.5",
                       "--nmc", "100", "--bins", "10", "--burnin", "10",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_rebuild_weight_is_exit_two(self, monkeypatch, tmp_path, capsys):
        estimators = sampler._DeterminantEngine.estimators

        def nan_weights(self, configs, J):
            weights, estimates = estimators(self, configs, J)
            return weights * np.nan, estimates

        monkeypatch.setattr(sampler._DeterminantEngine, "estimators", nan_weights)
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:8", "--g-min", "0.5", "--g-max", "0.5",
                       "--nmc", "20", "--bins", "10", "--burnin", "10", "--out", str(out)])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_drifted_weight_is_exit_two(self, monkeypatch, tmp_path, capsys):
        # the tracked weight leaves its from-scratch value by 1e-3 at one sweep
        sweep, calls = sampler._DeterminantEngine.sweep, []

        def drifting(self, state, config, weight, draws):
            weight, accepted = sweep(self, state, config, weight, draws)
            calls.append(None)
            return (weight * 1.001 if len(calls) == 15 else weight), accepted

        monkeypatch.setattr(sampler._DeterminantEngine, "sweep", drifting)
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:4", "--g-min", "0.5", "--g-max", "0.5",
                       "--nmc", "20", "--bins", "10", "--burnin", "10", "--out", str(out)])
        assert rc == 2
        assert "drifted" in capsys.readouterr().err
        assert not out.exists()

    def test_vanishing_anchor_is_exit_two(self, tmp_path, capsys):
        # A 0.001 contrast per layer leaves one shot nothing to anchor on.
        rc = cli.main(["two-site", "--g-min", "0.5", "--g-max", "0.5", "--U", "2",
                       "--shots", "1", "--reps", "4", "--bias", "0.001", "--seed", "1",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_estimate_is_exit_two(self, tmp_path, capsys):
        # K = -J * (kinetic ratio) overflows to -inf at J = 1e308.
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:2", "--J", "1e308", "--nmc", "20",
                       "--bins", "10", "--g-max", "0.1", "--U", "1", "--out", str(out)])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["no convergence", "residual"])
    def test_failed_eigensolve_is_exit_two(self, failure, monkeypatch, tmp_path, capsys):
        # chain:6's 400-state sector takes the Lanczos branch of the oracle
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh

        def failing(*args, **kwargs):
            if failure == "no convergence":
                raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            vals, vecs = eigsh(*args, **kwargs)
            return vals + 1e-6, vecs

        monkeypatch.setattr(spla, "eigsh", failing)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["sweep", "--lattice", "chain:6", "--g-min", "0.5", "--g-max", "0.5",
                       "--U", "4", "--nmc", "20", "--bins", "10", "--burnin", "10",
                       "--out", "s.csv"])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert list(tmp_path.iterdir()) == []

    def test_catalog_deviation_is_exit_two(self, monkeypatch, tmp_path, capsys):
        # a failed check still writes its table and sidecar
        monkeypatch.setattr(cli, "verify_variant", lambda v, J: 1.0)
        out = tmp_path / "v.csv"
        assert cli.main(["hst-verify", "--out", str(out)]) == 2
        assert len(read_rows(out)) == 1 + 18
        assert json.loads(sidecar_path(out).read_text())["worst_deviation"] == 1.0
        assert "18 decompositions verified, worst deviation 1.000e+00" in capsys.readouterr().out

    def test_failed_phase_check_still_writes_its_table(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "phase_problem_check",
                            lambda lattice, g: PhaseCheckReport(lattice.n_sites, 64, 0.0, -0.5))
        out = tmp_path / "p.csv"
        assert cli.main(["phase-check", "--lattice", "chain:3", "--out", str(out)]) == 2
        rows = read_rows(out)
        assert len(rows) == 1 + 3 and all(r[5] == "false" for r in rows[1:])
        assert json.loads(sidecar_path(out).read_text())["all_passed"] is False
        assert "phase check on chain:3: FAIL over 3 g values" in capsys.readouterr().out

    def test_library_value_error_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        # any input a library call rejects exits 1 with one line, as a
        # config error does, and writes nothing
        def reject(lattice, g):
            raise ValueError("rejected by the library")

        monkeypatch.setattr(cli, "phase_problem_check", reject)
        out = tmp_path / "p.csv"
        assert cli.main(["phase-check", "--lattice", "chain:3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: rejected by the library"]
        assert "Traceback" not in captured.err + captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["r.json", "."])
    def test_out_without_its_own_file_is_a_config_error(self, out, tmp_path, monkeypatch,
                                                         capsys):
        # the sidecar of r.json is r.json itself, so it would replace the
        # CSV; "." names no file at all
        monkeypatch.chdir(tmp_path)
        assert cli.main(["hst-verify", "--out", out]) == 1
        assert "sidecar" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["sub/", "existing"])
    def test_out_naming_a_directory_is_a_config_error(self, out, tmp_path, monkeypatch,
                                                      capsys):
        # "sub/" used to be written as a file sub (the slash dropped), an
        # existing directory used to end in a traceback from the write
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        assert cli.main(["hst-verify", "--out", out]) == 1
        assert "names a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]
        assert list((tmp_path / "existing").iterdir()) == []

    def test_sidecar_naming_a_directory_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the CSV used to be written before the sidecar's write failed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").mkdir()
        assert cli.main(["hst-verify", "--out", "r.csv"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "r.json names a directory" in err

    def test_second_table_naming_a_directory_writes_nothing(self, tmp_path, monkeypatch,
                                                             capsys):
        # two-site's primitive table is checked with the main table, before
        # either is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x_primitives.csv").mkdir()
        assert cli.main(["two-site", "--g-min", "0.5", "--g-max", "0.5", "--U", "2",
                         "--shots", "64", "--reps", "2", "--out", "x.csv"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["x_primitives.csv"]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "x_primitives.csv names a directory" in err

    def test_unwritable_out_is_exit_one(self, tmp_path, monkeypatch, capsys):
        # the parent of the CSV is a regular file, so no directory can be made
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("kept\n")
        assert cli.main(["hst-verify", "--out", "f.txt/x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert (tmp_path / "f.txt").read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name, command in cli.COMMANDS.items():
            assert re.search(rf"^ +{re.escape(name)} +{re.escape(command.help)}$",
                             help_text, re.MULTILINE)


class TestCatalogCommand:
    def test_default_coupling_grid(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert cli.main(["hst-verify", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["variant", "J", "gamma", "alpha", "max_deviation"]
        assert len(rows) == 1 + 18  # 6 couplings x 3 channels
        assert all(float(r[4]) < 1e-12 for r in rows[1:])
        assert "18 decompositions" in capsys.readouterr().out

    def test_explicit_coupling(self, tmp_path):
        out = tmp_path / "v.csv"
        assert cli.main(["hst-verify", "--J", "-0.7", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 3
        assert all(r[0].startswith("J<0:") for r in rows[1:])

    @pytest.mark.parametrize("coupling", ["11", "-11"])
    def test_large_coupling_judged_at_the_target_scale(self, coupling, tmp_path):
        # roundoff against target entries of e^{11} ~ 6e4 can exceed 1e-12
        # absolute; the pass rule is 1e-12 of the target's scale e^{|J|}
        out = tmp_path / "v.csv"
        assert cli.main(["hst-verify", "--J", coupling, "--out", str(out)]) == 0
        worst = json.loads(sidecar_path(out).read_text())["worst_deviation"]
        assert worst < 1e-12 * np.exp(11)


class TestPhaseCheckCommand:
    def test_schema_and_pass(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert cli.main(["phase-check", "--lattice", "chain:3",
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["n_sites", "g", "n_configs", "max_imag", "min_real", "passed"]
        assert len(rows) == 1 + 3  # default g in {0.5, 1, 2}
        assert all(r[5] == "true" for r in rows[1:])
        assert "pass" in capsys.readouterr().out

    def test_explicit_grid_and_size_cap(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert cli.main(["phase-check", "--lattice", "chain:2", "--g-min", "0.2",
                         "--g-max", "0.4", "--g-step", "0.1",
                         "--out", str(out)]) == 0
        assert len(read_rows(out)) == 1 + 3
        assert cli.main(["phase-check", "--lattice", "chain:6",
                         "--out", str(tmp_path / "q.csv")]) == 1
        assert "5-site cap" in capsys.readouterr().err

    def test_singular_gram_weights_pass(self, tmp_path):
        # g = ln 2 puts alpha at pi/4, where chain:2 holds a sector Gram of
        # 6e-17: its weight vanishes, which is no phase problem
        out = tmp_path / "p.csv"
        assert cli.main(["phase-check", "--lattice", "chain:2", "--g-min", "0.6931471805599453",
                         "--g-max", "0.6931471805599453", "--out", str(out)]) == 0
        assert read_rows(out)[1][5] == "true"


class TestLcuCommand:
    def test_single_lattice_when_requested(self, tmp_path):
        out = tmp_path / "l.csv"
        assert cli.main(["lcu", "--lattice", "chain:3", "--g-min", "0.2",
                         "--g-max", "0.6", "--g-step", "0.2",
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["N_site", "g", "p", "log_p"]
        assert len(rows) == 1 + 3
        assert all(r[0] == "3" for r in rows[1:])
        assert all(0.0 < float(r[2]) <= 1.0 for r in rows[1:])

    def test_size_cap_checked_before_any_trial(self, monkeypatch, tmp_path, capsys):
        built = []
        monkeypatch.setattr(cli, "success_probability_curve",
                            lambda lattice, grid: built.append(lattice.n_sites) or [])
        assert cli.main(["lcu", "--lattice", "chain:20",
                         "--out", str(tmp_path / "l.csv")]) == 0
        out = tmp_path / "big.csv"
        assert cli.main(["lcu", "--lattice", "chain:22", "--out", str(out)]) == 1
        assert built == [20]
        assert "at most 20 sites" in capsys.readouterr().err
        assert not out.exists()

    def test_default_size_ladder(self, tmp_path):
        out = tmp_path / "l.csv"
        assert cli.main(["lcu", "--g-min", "0.5", "--g-max", "0.5",
                         "--g-step", "0.1", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r[0] for r in rows[1:]] == ["2", "4", "6", "8", "10", "12"]
        meta = json.loads(sidecar_path(out).read_text())
        assert meta["lattices"] == [
            "chain:2", "chain:4", "chain:6", "chain:8", "chain:10", "chain:12",
        ]


MC_FLAGS = [
    "--lattice", "chain:2", "--U", "2", "--g-min", "0.4", "--g-max", "0.6",
    "--g-step", "0.1", "--nmc", "200", "--bins", "10", "--burnin", "20",
]


class TestMcCommand:
    def test_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert cli.main(["mc", *MC_FLAGS, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == cli._MC_COLUMNS
        assert len(rows) == 1 + 3  # 3 g points x 1 U
        for r in rows[1:]:
            assert 0.0 < float(r[8]) < 1.0  # acceptance strictly inside (0, 1)
            assert int(r[9]) == 200
        meta = json.loads(sidecar_path(out).read_text())
        assert meta["config"]["seed"] == 12345
        assert meta["generator"] == GENERATOR_ID

    def test_sidecar_reports_max_drift_per_g(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert cli.main(["mc", *MC_FLAGS, "--out", str(out)]) == 0
        drifts = json.loads(sidecar_path(out).read_text())["max_drift"]
        # keyed by the g cells exactly as the CSV writes them
        assert sorted(drifts) == sorted(r[0] for r in read_rows(out)[1:])
        assert all(math.isfinite(d) and 0.0 <= d < 1e-8 for d in drifts.values())
        assert "max_drift" not in read_rows(out)[0]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["mc", *MC_FLAGS, "--out", str(a)]) == 0
        assert cli.main(["mc", *MC_FLAGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # sidecars differ only in the echoed output path
        meta_a = json.loads(sidecar_path(a).read_text())
        meta_b = json.loads(sidecar_path(b).read_text())
        meta_a["config"].pop("out"), meta_b["config"].pop("out")
        assert meta_a == meta_b

    @pytest.mark.parametrize("backend,lattice", [
        ("determinant", "chain:8"), ("statevector", "chain:4"),
    ], ids=["determinant", "statevector"])
    def test_reruns_are_byte_identical_on_the_stacked_path(self, backend, lattice, tmp_path):
        # both runs hold more sweeps than one stacked rebuild; the chain:8
        # chains carry P through rank-one updates between the rebuilds
        flags = ["--lattice", lattice, "--U", "2,4", "--g-min", "0.5", "--g-max", "1.0",
                 "--g-step", "0.5", "--nmc", "120", "--bins", "10", "--burnin", "30",
                 "--backend", backend]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["mc", *flags, "--out", str(a)]) == 0
        assert cli.main(["mc", *flags, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        meta_a = json.loads(sidecar_path(a).read_text())
        meta_b = json.loads(sidecar_path(b).read_text())
        meta_a["config"].pop("out"), meta_b["config"].pop("out")
        assert meta_a == meta_b
        assert len(meta_a["max_drift"]) == 2
        assert all(0.0 < d < 1e-8 for d in meta_a["max_drift"].values())

    def test_sidecar_independent_of_cpu_count(self, tmp_path, monkeypatch):
        metas = []
        for n_cpu in (1, 4):
            monkeypatch.setattr("os.cpu_count", lambda n=n_cpu: n)
            out = tmp_path / f"cpu{n_cpu}.csv"
            assert cli.main(["mc", *MC_FLAGS, "--out", str(out)]) == 0
            meta = json.loads(sidecar_path(out).read_text())
            meta["config"].pop("out")
            metas.append(meta)
        assert metas[0] == metas[1]
        assert "workers" not in metas[0]["config"]
        assert cli.main(["mc", *MC_FLAGS, "--workers", "2",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_seed_env_changes_results(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["mc", *MC_FLAGS, "--out", str(a)]) == 0
        monkeypatch.setenv("GUTZMC_SEED", "777")
        assert cli.main(["mc", *MC_FLAGS, "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_size_guards(self, tmp_path, capsys):
        assert cli.main(["mc", "--lattice", "chain:14",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert cli.main(["mc", "--lattice", "chain:10", "--backend", "statevector",
                         "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "12 sites" in err and "statevector backend" in err

    def test_bad_bin_split_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["mc", "--lattice", "chain:2", "--nmc", "100", "--bins", "30",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_sweeps_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:2", "--nmc", "0", "--bins", "10",
                       "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_burnin_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["mc", "--lattice", "chain:2", "--nmc", "100", "--bins", "10",
                       "--burnin", "-5", "--out", str(out)])
        assert rc == 1
        assert "n_burnin" in capsys.readouterr().err
        assert not out.exists()


class TestTwoSiteCommand:
    FLAGS = ["--U", "4", "--g-min", "0.4", "--g-max", "0.6", "--g-step", "0.1"]

    def test_exact_only_when_shots_zero(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert cli.main(["two-site", *self.FLAGS, "--shots", "0",
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        methods = {r[0] for r in rows[1:]}
        assert methods == {"analytic", "assembly"}
        assert len(rows) == 1 + 3 * 2
        # analytic and assembled energies agree at full precision
        by_g = {}
        for r in rows[1:]:
            by_g.setdefault(r[1], {})[r[0]] = float(r[3])
        for pair in by_g.values():
            assert abs(pair["analytic"] - pair["assembly"]) < 1e-12
        assert not (tmp_path / "ts_primitives.csv").exists()
        meta = json.loads(sidecar_path(out).read_text())
        assert abs(meta["analytic_minimum"]["4"]["E_opt"] + 2.8284271247461903) < 1e-12

    def test_sampled_rows_and_primitives_sidecar(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert cli.main(["two-site", *self.FLAGS, "--shots", "256", "--reps", "4",
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        methods = {r[0] for r in rows[1:]}
        assert methods == {"analytic", "assembly", "shots-raw", "shots-pas"}
        prim = read_rows(tmp_path / "ts_primitives.csv")
        assert prim[0] == ["g", "quantity", "raw", "mitigated", "exact"]
        assert {r[1] for r in prim[1:]} == {"denominator", "zz_numerator", "xx_numerator"}
        assert len(prim) == 1 + 3 * 3

    def test_one_repetition_only_without_shots(self, tmp_path, monkeypatch, capsys):
        # the shot rows' error bars are the spread over repetitions, which
        # one repetition lacks; exact rows have no error bar to spread
        exact = tmp_path / "exact.csv"
        assert cli.main(["two-site", *self.FLAGS, "--shots", "0", "--reps", "1",
                         "--out", str(exact)]) == 0
        assert {r[0] for r in read_rows(exact)[1:]} == {"analytic", "assembly"}
        calls = []
        monkeypatch.setattr(cli, "two_site_energy_from_primitives",
                            lambda *a, **kw: calls.append(1))
        out = tmp_path / "ts.csv"
        assert cli.main(["two-site", *self.FLAGS, "--shots", "64", "--reps", "1",
                         "--out", str(out)]) == 1
        assert "reps must be at least 2 with shots" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["two-site", *self.FLAGS, "--shots", "128", "--reps", "2"]
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_sidecar_keys_tell_close_u_values_apart(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert cli.main(["two-site", "--shots", "0", "--U", "1.0000001,1.0000002",
                         "--g-max", "0.2", "--out", str(out)]) == 0
        u_cells = sorted({r[2] for r in read_rows(out)[1:]})
        assert len(u_cells) == 2
        meta = json.loads(sidecar_path(out).read_text())
        assert sorted(meta["analytic_minimum"]) == u_cells


class TestSweepCommand:
    def test_methods_and_oracle_sidecar(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert cli.main(["sweep", "--lattice", "chain:2", "--U", "4",
                         "--g-min", "0.4", "--g-max", "0.5", "--g-step", "0.1",
                         "--nmc", "200", "--bins", "10", "--burnin", "20",
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["method"] + cli._MC_COLUMNS
        methods = {r[0] for r in rows[1:]}
        assert methods == {"mc", "fullsum", "exact-gutzwiller"}
        # the two deterministic oracle routes agree with each other at
        # both grid points (group by the file's own 17-digit g strings)
        g_strings = sorted({r[1] for r in rows[1:]})
        assert len(g_strings) == 2
        for g in g_strings:
            picked = {r[0]: float(r[3]) for r in rows[1:] if r[1] == g}
            assert abs(picked["fullsum"] - picked["exact-gutzwiller"]) < 1e-10
        meta = json.loads(sidecar_path(out).read_text())
        assert abs(meta["exact_ground_energy"]["4"] + 2.8284271247461903) < 1e-9
        assert sorted(meta["max_drift"]) == g_strings
        assert all(math.isfinite(d) for d in meta["max_drift"].values())

    def test_ground_energy_keys_tell_close_u_values_apart(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert cli.main(["sweep", "--lattice", "chain:2", "--U", "1.0000001,1.0000002",
                         "--g-max", "0.2", "--nmc", "100", "--bins", "10", "--burnin", "10",
                         "--out", str(out)]) == 0
        u_cells = sorted({r[2] for r in read_rows(out)[1:]})
        assert len(u_cells) == 2
        meta = json.loads(sidecar_path(out).read_text())
        assert sorted(meta["exact_ground_energy"]) == u_cells

    def test_sidecar_ground_energies_match_a_dense_sector_solve(self, tmp_path):
        # chain:6 at half filling has 400 states, which the oracle solves by
        # Lanczos; the reference applies H to every sector basis state
        # (matrix-free) and diagonalizes the 400 x 400 block densely
        out = tmp_path / "sw.csv"
        assert cli.main(["sweep", "--lattice", "chain:6", "--U", "1.3,2,4",
                         "--g-min", "0.5", "--g-max", "0.5",
                         "--nmc", "100", "--bins", "10", "--burnin", "10",
                         "--out", str(out)]) == 0
        meta = json.loads(sidecar_path(out).read_text())
        index = np.arange(1 << 12)
        sector = index[(np.bitwise_count(index >> 6) == 3) & (np.bitwise_count(index & 63) == 3)]
        assert sector.size == 400 > statevector.DENSE_MAX_DIM
        columns = np.zeros((sector.size, 1 << 12))
        columns[np.arange(sector.size), sector] = 1.0
        kinetic, interaction = (apply_pauli_sum(columns, op)[:, sector]
                                for op in hubbard_terms(build_lattice("chain", 6), 1.0, 1.0))
        for u in ("1.3", "2", "4"):
            reference = np.linalg.eigvalsh(kinetic + float(u) * interaction)[0]
            assert abs(meta["exact_ground_energy"][u] - reference) < 1e-10
