import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snls
from snls.checkpoint import read_checkpoint, write_checkpoint
from snls.cli import main
from snls.config import parse_config_text
from snls.errors import ConfigError, ParameterError
from snls.experiments import emit_plot_data, run


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, grid_small):
        f = snls.gaussian_packet(grid_small, momentum=0.9)
        p1 = tmp_path / "a.snls"
        p2 = tmp_path / "b.snls"
        write_checkpoint(p1, f, 1.25)
        snap = read_checkpoint(p1)
        assert snap.time == 1.25
        assert snap.n_points == grid_small.n_points
        write_checkpoint(p2, snap.to_field(), snap.time)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_bytes()) == 32 + 16 * grid_small.n_points

    def test_header_validation(self, tmp_path, grid_small):
        f = snls.gaussian_packet(grid_small)
        path = tmp_path / "c.snls"
        write_checkpoint(path, f, 0.0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.snls"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ParameterError, match="magic"):
            read_checkpoint(bad)
        short = tmp_path / "short.snls"
        short.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ParameterError, match="payload"):
            read_checkpoint(short)
        stub = tmp_path / "stub.snls"
        stub.write_bytes(b"SN")
        with pytest.raises(ParameterError, match="truncated"):
            read_checkpoint(stub)


class TestConfigParsing:
    def test_values_and_comments(self):
        cfg = parse_config_text(
            """
            # full-line comment
            experiment = evolve
            grid.n_points = 256     # trailing comment
            grid.length = 40.0
            solver.linear = true
            solver.record_times = 0.5, 1.0, 2.0
            initial.kind = gaussian
            """
        )
        assert cfg.experiment() == "evolve"
        assert cfg.get_int("grid.n_points") == 256
        assert cfg.get_float("grid.length") == 40.0
        assert cfg.get_bool("solver.linear") is True
        assert cfg.get_float_list("solver.record_times") == [0.5, 1.0, 2.0]
        assert cfg.get_str("initial.kind") == "gaussian"

    def test_errors(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("just words\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("experiment = dance\n").experiment()
        cfg = parse_config_text("experiment = evolve\n")
        with pytest.raises(ConfigError, match="missing required"):
            cfg.get("grid.n_points")
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config_text("grid.n_points = 256.5\n").get_int("grid.n_points")

    def test_render_is_canonical(self):
        cfg = parse_config_text("b = 2\na = 0.1\nc = true\n")
        assert cfg.render() == "a = 0.10000000000000001\nb = 2\nc = true\n"


EVOLVE_CFG = """
experiment = evolve
grid.n_points = 256
grid.length = 40.0
potential.family = gaussian_matched_step
potential.height = 2.0
potential.width = 1.0
solver.alpha = 5.0
solver.dt = 0.01
solver.t_final = 1.0
solver.record_stride = 0.25
initial.kind = gaussian
initial.amplitude = 0.5
checkpoint.save = true
"""


class TestExperiments:
    def test_evolve_determinism_byte_identical(self, tmp_path):
        cfg = parse_config_text(EVOLVE_CFG)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(cfg, output_dir=d1)
        run(cfg, output_dir=d2)
        for name in ("summary.json", "series.csv", "checkpoint_0002.snls"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_evolve_zero_data_gives_zero_series(self, tmp_path):
        cfg = parse_config_text(EVOLVE_CFG).with_override("initial.amplitude", 0.0)
        out = tmp_path / "zero"
        summary = run(cfg, output_dir=out)
        assert summary["mass_initial"] == 0.0
        rows = (out / "series.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            assert all(float(c) == 0.0 for c in row.split(",")[1:4])

    def test_evolve_checkpoint_chain(self, tmp_path):
        cfg = parse_config_text(EVOLVE_CFG)
        out = tmp_path / "chain"
        run(cfg, output_dir=out)
        snap = read_checkpoint(out / "checkpoint_0004.snls")
        assert snap.time == 1.0
        # restart from the checkpoint and keep evolving
        cfg2 = (
            cfg.with_override("initial.kind", "checkpoint")
            .with_override("initial.checkpoint", str(out / "checkpoint_0004.snls"))
        )
        out2 = tmp_path / "restart"
        summary2 = run(cfg2, output_dir=out2)
        assert summary2["mass_initial"] == pytest.approx(
            0.25 * math.sqrt(math.pi / 2), rel=1e-10
        )

    def test_check_potential(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = check_potential
            grid.n_points = 1024
            grid.length = 80.0
            potential.family = gaussian_matched_step
            potential.height = 2.0
            potential.width = 1.0
            """
        )
        summary = run(cfg, output_dir=tmp_path / "chk")
        assert summary["all_ok"] is True
        assert summary["hypotheses"]["repulsive"] is True

    def test_linear_channels_unit_potential(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = linear_channels
            grid.n_points = 256
            grid.length = 60.0
            potential.family = flat
            potential.a_minus = 1.0
            propagator.dt = 0.02
            channels.n_max = 1
            initial.kind = gaussian
            """
        )
        summary = run(cfg, output_dir=tmp_path / "lc")
        assert summary["final_eta_mass"] < 1e-24
        assert summary["final_gamma_mass"] == pytest.approx(summary["psi_mass"], rel=1e-10)

    def test_profiles_noise_fixture(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = profiles
            seed = 3
            grid.n_points = 512
            grid.length = 100.0
            potential.family = flat
            propagator.dt = 0.05
            profiles.fixture = noise
            profiles.amplitude = 0.3
            profiles.count = 5
            profiles.j_max = 2
            profiles.q = 7.0
            profiles.t_window = 1.0
            """
        )
        summary = run(cfg, output_dir=tmp_path / "prof")
        assert summary["n_profiles"] == 0
        assert summary["concentration_level"] == 0.0
        assert summary["remainder_mass"] == pytest.approx(summary["input_mass_last"])

    def test_decay_smoke(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = decay
            grid.n_points = 1024
            grid.length = 400.0
            potential.family = flat
            propagator.dt = 0.05
            decay.times = 1.0, 2.0, 4.0
            initial.kind = gaussian
            """
        )
        summary = run(cfg, output_dir=tmp_path / "decay")
        assert summary["within_free_bound"] is True
        rows = (tmp_path / "decay" / "series.csv").read_text().strip().split("\n")
        assert rows[0] == "t,decay_ratio"
        assert len(rows) == 4

    def test_morawetz_smoke(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = morawetz
            grid.n_points = 1024
            grid.length = 100.0
            potential.family = gaussian_matched_step
            potential.height = 2.0
            potential.width = 1.0
            solver.alpha = 5.0
            solver.dt = 0.005
            solver.t_final = 4.2
            solver.record_stride = 0.05
            initial.kind = gaussian
            """
        )
        summary = run(cfg, output_dir=tmp_path / "mor")
        assert summary["repulsive_series_nonnegative"] is True
        assert summary["integral_value"] > 0
        assert len(summary["increment_ratios"]) == 1  # doubling [1,2] -> [2,4]

    def test_translation_gap_smoke(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = translation_gap
            grid.n_points = 2048
            grid.length = 400.0
            potential.family = gaussian_matched_step
            potential.height = 2.0
            potential.width = 1.0
            propagator.dt = 0.02
            translation.shifts = -20.0, -40.0
            translation.t_span = 0.0, 2.0
            solver.alpha = 5.0
            initial.kind = gaussian
            """
        )
        summary = run(cfg, output_dir=tmp_path / "tg")
        assert summary["monotone_decreasing"]["left"] is True

    def test_channels_smoke(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = channels
            grid.n_points = 512
            grid.length = 100.0
            potential.family = gaussian_matched_step
            potential.height = 2.0
            potential.width = 1.0
            solver.alpha = 5.0
            solver.dt = 0.0078125
            propagator.dt = 0.0078125
            channels.wave_times = 2.0, 4.0
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            """
        )
        summary = run(cfg, output_dir=tmp_path / "ch")
        assert summary["end_to_end_reconstruction_defect"] < 0.1
        assert len(summary["wave_operator_gaps"]) == 1

    def test_sweep_fans_out(self, tmp_path):
        cfg = parse_config_text(
            EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
            + "sweep.experiment = evolve\nsweep.parameter = solver.alpha\nsweep.values = 4.5, 5.0, 6.0\n"
        )
        out = tmp_path / "sweep"
        summary = run(cfg, output_dir=out, threads=2)
        assert summary["runs"] == ["run_000", "run_001", "run_002"]
        for name in summary["runs"]:
            sub = json.loads((out / name / "summary.json").read_text())
            assert sub["experiment"] == "evolve"
        alphas = [
            json.loads((out / r / "summary.json").read_text())["config"]
            for r in summary["runs"]
        ]
        assert "solver.alpha = 4.5" in alphas[0]

    def test_missing_output_dir_rejected(self):
        cfg = parse_config_text(EVOLVE_CFG)
        with pytest.raises(ConfigError, match="output"):
            run(cfg)


class TestPlotData:
    def _series(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,mass,energy\n0,1.5,2.5\n1,1.25,2.25\n")
        return path

    def test_extract_columns(self, tmp_path):
        out = emit_plot_data(self._series(tmp_path), ["t", "mass"])
        assert out == "# t mass\n0 1.5\n1 1.25\n"

    def test_unknown_column_lists_available(self, tmp_path):
        with pytest.raises(ConfigError, match="available: t, mass, energy"):
            emit_plot_data(self._series(tmp_path), ["t", "phase"])

    def test_header_only_series(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,mass\n")
        assert emit_plot_data(path, ["t", "mass"]) == "# t mass\n"


class TestCli:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_happy_path_and_exit_codes(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG)
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "experiment = evolve\ngrid.n_points = 100\n")
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code = main(["evolve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_command_config_mismatch(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG)
        code = main(["decay", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "declares experiment" in json.loads(capsys.readouterr().err)["message"]

    def test_plot_data_cli(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 0
        code = main(["plot-data", str(out / "series.csv"), "--columns", "t,mass"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("# t mass\n")
        code = main(["plot-data", str(out / "series.csv"), "--columns", "t,bogus"])
        assert code == 2

    def test_plot_data_to_file(self, tmp_path):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG)
        out = tmp_path / "out"
        main(["evolve", "--config", str(cfg), "--output-dir", str(out)])
        dest = tmp_path / "plot.dat"
        assert main([
            "plot-data", str(out / "series.csv"), "--columns", "t,energy", "--out", str(dest)
        ]) == 0
        assert dest.read_text().startswith("# t energy\n")

    def test_instability_exit_3(self, tmp_path, capsys, monkeypatch):
        # colliding packets double the sup norm; a guard tightened to 1.5x
        # turns the collision into an instability signal
        import snls.solver as solver_mod

        monkeypatch.setattr(solver_mod, "BLOWUP_FACTOR", 1.5)
        g = snls.Grid(512, 100.0)
        vals = (
            snls.gaussian_packet(g, center=-5.0, momentum=2.5, width=3.0).values
            + snls.gaussian_packet(g, center=5.0, momentum=-2.5, width=3.0).values
        )
        snap = tmp_path / "u0.snls"
        write_checkpoint(snap, snls.ComplexField(g, 0.1 * vals), 0.0)
        cfg = self._write_cfg(
            tmp_path,
            f"""
            experiment = evolve
            grid.n_points = 512
            grid.length = 100.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 0.01
            solver.t_final = 1.5
            initial.kind = checkpoint
            initial.checkpoint = {snap}
            """,
        )
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InstabilityError"

    def test_overflow_exit_3(self, tmp_path, capsys):
        # |u|^alpha overflows at this amplitude and the field turns to NaN;
        # the unpatched guard must catch it as an instability, not let the
        # NaN reach a snapshot (a field error, exit 2)
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = evolve
            grid.n_points = 256
            grid.length = 40.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 1e-3
            solver.t_final = 0.01
            initial.kind = gaussian
            initial.amplitude = 1e70
            """,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InstabilityError"
        assert "step 1," in err["message"] and "nan" in err["message"]

    def test_closing_phase_overflow_exit_3(self, tmp_path, capsys):
        # one step per record segment: the opening half phase of the step
        # stays finite and the closing one overflows |u|^alpha, so the NaN
        # appears after the last phase of the segment has read sup|u|
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = evolve
            grid.n_points = 256
            grid.length = 20.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 1e-3
            solver.t_final = 0.05
            solver.record_stride = 1e-3
            initial.kind = gaussian
            initial.amplitude = 4.3e61
            """,
        )
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InstabilityError"
        assert "nan" in err["message"]

    def test_overflow_stderr_is_one_json_object(self, tmp_path):
        # a fresh interpreter with numpy's default error handling: no
        # RuntimeWarning may precede the JSON error on stderr
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = evolve
            grid.n_points = 256
            grid.length = 40.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 1e-3
            solver.t_final = 0.01
            initial.kind = gaussian
            initial.amplitude = 1e70
            """,
        )
        src = str(Path(snls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "snls.cli", "evolve", "--config", str(cfg),
             "--output-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "InstabilityError"

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNLS_THREADS", "2")
        cfg = self._write_cfg(
            tmp_path,
            EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
            + "sweep.experiment = evolve\nsweep.parameter = initial.amplitude\nsweep.values = 0.2, 0.4\n",
        )
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "run_001" / "series.csv").exists()
