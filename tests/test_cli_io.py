import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snls
from snls.checkpoint import read_checkpoint, write_checkpoint
from snls.cli import main
from snls.config import parse_config_text
from snls.errors import ConfigError, ParameterError
from snls.experiments import _write_outputs, emit_plot_data, run
from snls.solver import solve_stack

examples = settings(max_examples=50)

# finite reals, with signed zeros, subnormals and values near the overflow edge
edge_reals = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _checkpoint_bytes(n_points, length, version=1, magic=b"SNLS"):
    """A checkpoint file with the given header and an all-zero payload."""
    return struct.pack("<4sIQdd", magic, version, n_points, length, 0.0) + bytes(16 * n_points)


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

    @examples
    @given(
        st.sampled_from([16, 32]).flatmap(
            lambda n: st.lists(st.tuples(edge_reals, edge_reals), min_size=n, max_size=n)
        ),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_round_trip_property(self, pairs, time):
        values = np.array([complex(re, im) for re, im in pairs])
        field = snls.ComplexField(snls.Grid(len(pairs), 10.0), values)
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.snls", Path(tmp) / "b.snls"
            write_checkpoint(p1, field, time)
            snap = read_checkpoint(p1)
            assert snap.values.tobytes() == values.tobytes()
            write_checkpoint(p2, snap.to_field(), snap.time)
            assert p1.read_bytes() == p2.read_bytes()


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

    def test_render_keeps_integral_floats_floats(self):
        cfg = parse_config_text("n = 256.0\nm = 256\nneg = -3.0\nbig = 1e16\nx = 0.5\n")
        text = cfg.render()
        assert text == "big = 10000000000000000.0\nm = 256\nn = 256.0\nneg = -3.0\nx = 0.5\n"
        again = parse_config_text(text)
        assert again.get_int("m") == 256
        for key in ("n", "neg", "big"):
            with pytest.raises(ConfigError, match="must be an integer"):
                again.get_int(key)

    def test_comma_values(self):
        cfg = parse_config_text(
            "note = first run, small grid\nmixed = 1.0, two\none = 1.5,\nsep = ,\n"
        )
        assert cfg.get_str("note") == "first run, small grid"
        assert cfg.get_str("mixed") == "1.0, two"
        assert cfg.get_float_list("one") == [1.5]
        assert cfg.get_str("sep") == ","
        assert "one = 1.5,\n" in cfg.render()

    @examples
    @given(
        st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,5}(\.[a-z][a-z0-9_]{0,5}){0,2}", fullmatch=True),
            st.one_of(
                st.sampled_from(["true", "false", "TRUE", ""]),
                st.integers(-(10**20), 10**20).map(str),
                st.floats(allow_nan=False).map(repr),
                st.lists(st.floats(allow_nan=False), min_size=1, max_size=4).map(
                    lambda xs: ", ".join(map(repr, xs))
                ),
                st.lists(st.floats(allow_nan=False), min_size=1, max_size=3).map(
                    lambda xs: ",".join(map(repr, xs)) + ","
                ),
                # NaN is unequal to itself, so no generated text may parse to it
                st.text("abfinrtu 0123456789.,+-_:/()=", max_size=24).filter(
                    lambda s: "nan" not in s.lower()
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_render_round_trip(self, lines):
        cfg = parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        text = cfg.render()
        again = parse_config_text(text)
        assert again.entries == cfg.entries
        assert {k: type(v) for k, v in again.entries.items()} == {
            k: type(v) for k, v in cfg.entries.items()
        }
        assert again.render() == text


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

    @pytest.mark.parametrize(
        "parameter, values, sizes",
        [
            ("solver.alpha", "4.5, 4.75, 5.0, 5.25, 5.5, 5.75, 6.0, 6.25, 6.5, 6.75", [8, 2]),
            ("solver.dt", "0.01, 0.01, 0.02, 0.01", [2, 1, 1]),
        ],
        ids=["row_cap", "flow_change"],
    )
    def test_sweep_stacks_consecutive_points_that_share_a_flow(self, tmp_path, monkeypatch,
                                                               parameter, values, sizes):
        import snls.experiments as experiments_mod

        stacks = []

        def recording(problems):
            stacks.append(len(problems))
            return solve_stack(problems)

        monkeypatch.setattr(experiments_mod, "solve_stack", recording)
        cfg = parse_config_text(
            EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
            + f"sweep.experiment = evolve\nsweep.parameter = {parameter}\nsweep.values = {values}\n"
        )
        summary = run(cfg, output_dir=tmp_path / "sweep")
        assert stacks == sizes
        assert len(summary["runs"]) == sum(sizes)

    def test_sweep_over_strings_rejected_before_runs(self, tmp_path):
        cfg = parse_config_text(
            EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
            + "sweep.experiment = evolve\nsweep.parameter = potential.family\n"
            + "sweep.values = flat, logistic_step\n"
        )
        with pytest.raises(ConfigError, match="nonempty list"):
            run(cfg, output_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_missing_output_dir_rejected(self):
        cfg = parse_config_text(EVOLVE_CFG)
        with pytest.raises(ConfigError, match="output"):
            run(cfg)


class TestWriter:
    def test_numpy_values_write_like_python_values(self, tmp_path):
        cfg = parse_config_text("experiment = evolve\nnote = a, b\n")
        as_numpy = {
            "f": np.float64(0.1),
            "i": np.int64(-7),
            "b": np.bool_(True),
            "a": np.array([0.5, 1e-300, -0.0]),
            "nested": [[np.float64(1.5), np.int64(2)], (np.bool_(False), np.array([3]))],
            "d": {"g": np.float64(2.5)},
        }
        as_python = {
            "f": 0.1,
            "i": -7,
            "b": True,
            "a": [0.5, 1e-300, -0.0],
            "nested": [[1.5, 2], [False, [3]]],
            "d": {"g": 2.5},
        }
        rows = [[np.float64(0.25), np.int64(3)]]
        _write_outputs(cfg, tmp_path / "np", as_numpy, ["x", "n"], rows)
        _write_outputs(cfg, tmp_path / "py", as_python, ["x", "n"], [[0.25, 3]])
        for name in ("summary.json", "series.csv"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()
        summary = json.loads((tmp_path / "np" / "summary.json").read_text())
        assert summary["experiment"] == "evolve"
        assert summary["config"] == cfg.render()


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

    def test_sweep_overflow_exit_3_and_no_stack_artifacts(self, tmp_path):
        # both points run as one stack; the second overflows, so the stack
        # fails as a whole and writes nothing for either of its rows
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = sweep
            grid.n_points = 256
            grid.length = 40.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 1e-3
            solver.t_final = 0.01
            initial.kind = gaussian
            sweep.experiment = evolve
            sweep.parameter = initial.amplitude
            sweep.values = 0.0565, 1e70
            """,
        )
        src = str(Path(snls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "snls.cli", "sweep", "--config", str(cfg),
             "--output-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"] == "InstabilityError"
        assert "in row 1" in err["message"]
        assert not (out / "run_000").exists() and not (out / "run_001").exists()

    def test_channels_pullback_step_must_match_solve_exit_2(self, tmp_path, capsys):
        # a pullback step other than the solve's turns the wave-operator
        # gaps into a measure of splitting error
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = channels
            grid.n_points = 512
            grid.length = 100.0
            potential.family = gaussian_matched_step
            solver.alpha = 5.0
            solver.dt = 0.0078125
            propagator.dt = 0.03125
            channels.wave_times = 2.0, 4.0
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            """,
        )
        out = tmp_path / "o"
        assert main(["channels", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "propagator.dt" in err["message"]
        assert not out.exists()

    def test_comma_string_value_exit_0(self, tmp_path):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG + "note = first run, small grid\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "note = first run, small grid\n" in summary["config"]
        assert (out / "series.csv").exists()

    def _checkpoint_cfg(self, tmp_path, snap):
        start = f"initial.kind = checkpoint\ninitial.checkpoint = {snap}"
        return self._write_cfg(tmp_path, EVOLVE_CFG.replace("initial.kind = gaussian", start))

    @pytest.mark.parametrize(
        "raw",
        [
            _checkpoint_bytes(256, 40.0, magic=b"XXXX"),
            _checkpoint_bytes(256, 40.0, version=2),
            _checkpoint_bytes(256, 40.0)[:20],
            _checkpoint_bytes(256, 40.0)[:-16],
            _checkpoint_bytes(100, 40.0),
            _checkpoint_bytes(8, 40.0),
            _checkpoint_bytes(256, float("nan")),
            _checkpoint_bytes(256, -40.0),
            _checkpoint_bytes(256, 40.0)[:-16] + struct.pack("<dd", 0.0, math.nan),
            _checkpoint_bytes(256, 40.0)[:-16] + struct.pack("<dd", math.inf, 0.0),
        ],
        ids=[
            "bad_magic",
            "bad_version",
            "truncated_header",
            "short_payload",
            "n_points_not_power_of_two",
            "n_points_below_16",
            "length_not_finite",
            "length_not_positive",
            "nan_payload",
            "inf_payload",
        ],
    )
    def test_corrupt_checkpoint_exit_4(self, tmp_path, capsys, raw):
        snap = tmp_path / "u0.snls"
        snap.write_bytes(raw)
        cfg = self._checkpoint_cfg(tmp_path, snap)
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CheckpointError"
        assert not (tmp_path / "o").exists()

    def test_checkpoint_on_other_grid_exit_2(self, tmp_path, capsys):
        snap = tmp_path / "u0.snls"
        write_checkpoint(snap, snls.gaussian_packet(snls.Grid(512, 40.0)), 0.0)
        cfg = self._checkpoint_cfg(tmp_path, snap)
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "does not match" in err["message"]

    def test_threads_leave_sweep_artifacts_unchanged(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
            + "sweep.experiment = evolve\nsweep.parameter = initial.amplitude\nsweep.values = 0.2, 0.4\n",
        )
        outs = {n: tmp_path / f"sw{n}" for n in (1, 2)}
        for n, out in outs.items():
            argv = ["sweep", "--config", str(cfg), "--output-dir", str(out), "--threads", str(n)]
            assert main(argv) == 0
        for run_name in ("run_000", "run_001"):
            for name in ("summary.json", "series.csv"):
                assert (outs[1] / run_name / name).read_bytes() == (outs[2] / run_name / name).read_bytes()
