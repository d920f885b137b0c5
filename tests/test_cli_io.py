import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snls
from snls.checkpoint import read_checkpoint, write_checkpoint
from snls import experiments, propagators, solver
from snls.cli import main
from snls.config import parse_config_text
from snls.errors import ConfigError, InvalidFieldError, ParameterError
from snls.experiments import _write_outputs, emit_plot_data, run
from snls.potentials import build_potential_derivative
from snls.propagators import substep_sizes
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

    def test_non_finite_numbers_rejected(self):
        text = f"a = inf\nb = nan\nc = -inf\nf = 1{'0' * 400}\nd = 0.5, inf\ne = 1.5, 2\n"
        cfg = parse_config_text(text)
        for key in ("a", "b", "c", "f"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                cfg.get_float(key)
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                cfg.get_float_list(key)
        with pytest.raises(ConfigError, match="d must be finite"):
            cfg.get_float_list("d")
        assert cfg.get_float_list("e") == [1.5, 2.0]

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
        # list items parse as lone values do, so a sweep can vary an integer key
        cfg = parse_config_text("n = 3, 4\nx = 1.0, 2, 1e3\none = 7,\n")
        assert cfg.entries == {"n": [3, 4], "x": [1.0, 2, 1000.0], "one": [7]}
        assert [type(v) for v in cfg.entries["x"]] == [float, int, float]
        assert cfg.render() == "n = 3, 4\none = 7,\nx = 1.0, 2, 1000.0\n"
        assert cfg.get_float_list("n") == [3.0, 4.0]

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


# 161 snapshots of 512 points, 1600 steps
MORAWETZ_CFG = """
experiment = morawetz
grid.n_points = 512
grid.length = 64.0
potential.family = gaussian_matched_step
potential.height = 2.0
potential.width = 1.0
solver.alpha = 5.0
solver.dt = 0.01
solver.t_final = 16.0
solver.record_stride = 0.1
initial.kind = gaussian
"""


class TestExperiments:
    def test_evolve_determinism_byte_identical(self, tmp_path):
        cfg = parse_config_text(EVOLVE_CFG)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(cfg, output_dir=d1)
        run(cfg, output_dir=d2)
        for name in ("summary.json", "series.csv", "checkpoint_0002.snls"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("experiment, settings", [
        ("decay", "propagator.dt = 0.05\ndecay.times = 1.0, 2.0\ninitial.kind = gaussian"),
        ("linear_channels", "propagator.dt = 0.05\nchannels.n_max = 1\ninitial.kind = gaussian"),
        ("channels", "solver.dt = 0.03125\npropagator.dt = 0.03125\nchannels.wave_times = 1.0, 2.0"
         "\nchannels.n_max = 1\ninitial.kind = gaussian\ninitial.amplitude = 0.05"),
        ("morawetz", "solver.dt = 0.01\nsolver.t_final = 1.0\nsolver.record_stride = 0.1"
         "\nmorawetz.t_min = 0.5\ninitial.kind = gaussian"),
        ("profiles", "propagator.dt = 0.05\nprofiles.fixture = two_bump\nprofiles.t_window = 1.0"),
        ("translation_gap", "propagator.dt = 0.05\ntranslation.shifts = -4.0, -8.0"
         "\ntranslation.t_span = 0.0, 1.0\ninitial.kind = gaussian"),
        ("check_potential", ""),
        ("sweep", "solver.dt = 0.01\nsolver.t_final = 0.5\nsolver.record_stride = 0.25"
         "\ninitial.kind = gaussian\nsweep.experiment = evolve\nsweep.parameter = solver.alpha"
         "\nsweep.values = 4.5, 5.0"),
    ])
    def test_every_experiment_is_byte_identical(self, tmp_path, experiment, settings):
        cfg = parse_config_text(
            f"experiment = {experiment}\ngrid.n_points = 256\ngrid.length = 40.0\n{settings}\n"
        )
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(cfg, output_dir=d1)
        run(cfg, output_dir=d2)
        # the sweep's sub-runs write theirs one directory down
        names = sorted(f.relative_to(d1) for pattern in ("summary.json", "series.csv")
                       for f in d1.rglob(pattern))
        assert len(names) == (6 if experiment == "sweep" else 2)
        for name in names:
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

    def test_morawetz_run_is_the_report_on_solve(self, tmp_path):
        cfg = parse_config_text(MORAWETZ_CFG)
        run(cfg, output_dir=tmp_path / "mor")
        problem = experiments._evolve_problem(cfg)
        vp = build_potential_derivative(experiments._potential_spec(cfg), problem.grid)
        report = snls.morawetz_report(snls.solve(problem), vprime=vp)
        # 17 significant digits print a float64 exactly
        rows = np.loadtxt(tmp_path / "mor" / "series.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == report.times.tolist()
        assert rows[:, 1].tolist() == report.density_series.tolist()
        assert rows[:, 2].tolist() == report.residual_series.tolist()
        assert rows[:, 3].tolist() == report.repulsive_series.tolist()

    def test_morawetz_run_holds_a_window_not_the_trajectory(self, tmp_path):
        # a run that kept its 161 snapshots would hold 161 snapshot sizes.  The
        # streamed run holds about 22 before the report's temporaries: the
        # kernel's state and scratch (8), the problem (4) and the window's
        # snapshots, derivatives and brackets.  The first run takes the
        # imports and caches that a run loads once.
        cfg = parse_config_text(MORAWETZ_CFG)
        run(cfg, output_dir=tmp_path / "first")
        tracemalloc.start()
        try:
            run(cfg, output_dir=tmp_path / "mor")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 512 * 16

    def test_morawetz_run_warns_as_solve_does(self, tmp_path):
        cfg = parse_config_text(MORAWETZ_CFG.replace("grid.length = 64.0", "grid.length = 16.0"))
        with pytest.warns(UserWarning) as streamed:
            run(cfg, output_dir=tmp_path / "mor")
        with pytest.warns(UserWarning) as stored:
            snls.solve(experiments._evolve_problem(cfg))
        notes = [str(w.message) for w in streamed]
        assert any(note.startswith("wrap-around:") for note in notes)
        assert notes == [str(w.message) for w in stored]

    def test_morawetz_run_rejects_a_nan_snapshot(self, tmp_path, monkeypatch):
        kernel = solver.strang

        def poisoned(u, spans, *args, **kwargs):
            for k, state in enumerate(kernel(u, spans, *args, **kwargs)):
                if k == 20:
                    state[7] = np.nan
                yield state

        monkeypatch.setattr(solver, "strang", poisoned)
        with pytest.raises(InvalidFieldError):
            run(parse_config_text(MORAWETZ_CFG), output_dir=tmp_path / "mor")

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

    def test_channels_study_adds_only_the_forward_tail(self, tmp_path, monkeypatch):
        # the study reads its flow off the pullback: past the pullback's own
        # T_max/dt steps it may add the forward tail from T_max to the last
        # study time and one remainder substep per time off the step lattice
        dt, t_max = 0.0078125, 12.0
        substeps = []
        kernel = propagators.strang

        def counting(u, spans, dt, *rules, **kwargs):
            spans = list(spans)
            substeps.extend(n + (rem > 0) for n, rem in (substep_sizes(s, dt) for s in spans))
            return kernel(u, spans, dt, *rules, **kwargs)

        monkeypatch.setattr(propagators, "strang", counting)
        cfg = parse_config_text(
            f"""
            experiment = channels
            grid.n_points = 512
            grid.length = 200.0
            potential.family = gaussian_matched_step
            potential.height = 2.0
            potential.width = 1.0
            solver.alpha = 5.0
            solver.dt = {dt}
            propagator.dt = {dt}
            channels.wave_times = 6.0, {t_max}
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            initial.width = 2.0
            """
        )
        run(cfg, output_dir=tmp_path / "ch")
        study_times = math.pi * np.arange(2, 5)
        off_lattice = sum(bool(substep_sizes(t, dt)[1]) for t in study_times)
        tail = math.ceil((study_times[-1] - t_max) / dt)
        assert t_max / dt <= sum(substeps) <= t_max / dt + tail + off_lattice

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

    @pytest.mark.parametrize(
        "experiment, parameter, values, settings",
        [("evolve", "grid.n_points", [64, 128], "solver.dt = 0.01\nsolver.t_final = 0.3"
          "\nsolver.record_stride = 0.1\ninitial.kind = gaussian"),
         ("decay", "potential.height", [1.5, 2.0], "grid.n_points = 256\npropagator.dt = 0.05"
          "\ndecay.t_min = 0.5\ndecay.t_max = 2.0\ndecay.num = 3\ninitial.kind = gaussian")],
        ids=["evolve_resolution", "decay_height"],
    )
    # the 64-point run trips the resolution monitor, in the sweep and alone
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sweep_runs_are_standalone_runs(self, tmp_path, experiment, parameter, values,
                                            settings):
        # an integer key (a resolution sweep) and a point-by-point
        # sub-experiment, each point byte-identical to its own run
        base = f"grid.length = 40.0\n{settings}\n"
        cfg = parse_config_text(
            f"experiment = sweep\n{base}sweep.experiment = {experiment}\n"
            f"sweep.parameter = {parameter}\nsweep.values = {', '.join(map(str, values))}\n"
        )
        summary = run(cfg, output_dir=tmp_path / "sw")
        assert summary["values"] == values
        for i, value in enumerate(values):
            alone = parse_config_text(f"experiment = {experiment}\n{base}{parameter} = {value}\n")
            run(alone, output_dir=tmp_path / f"alone_{i}")
            for name in ("summary.json", "series.csv"):
                assert ((tmp_path / "sw" / f"run_{i:03d}" / name).read_bytes()
                        == (tmp_path / f"alone_{i}" / name).read_bytes())

    @pytest.mark.parametrize(
        "stride, times",
        [(0.3, [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]), (0.6, [0.0, 0.6, 1.0])],
        ids=["appended", "clamped"],
    )
    def test_record_stride_that_does_not_divide_t_final(self, tmp_path, stride, times):
        # 0.3 rounds down to three strides and appends t_final; 0.6 rounds up
        # to two strides and clamps the second to t_final
        cfg = parse_config_text(EVOLVE_CFG).with_override("solver.record_stride", stride)
        run(cfg, output_dir=tmp_path / "ev")
        rows = (tmp_path / "ev" / "series.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == times

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

    @pytest.mark.parametrize("bad_row", ["0.0", "0.0,high"])
    def test_malformed_potential_csv_row_exit_2(self, tmp_path, capsys, bad_row):
        csv_path = tmp_path / "potential.csv"
        csv_path.write_text(f"-10.0,0.0\n{bad_row}\n10.0,1.0\n")
        cfg = self._write_cfg(
            tmp_path,
            "experiment = check_potential\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"potential.family = custom_samples\npotential.csv = {csv_path}\n",
        )
        code = main(["check_potential", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "line 2" in err["message"]

    def test_three_column_potential_csv_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "potential.csv"
        csv_path.write_text("-10.0,0.0,0.0\n0.0,0.5,0.5\n10.0,1.0,1.0\n")
        cfg = self._write_cfg(
            tmp_path,
            "experiment = check_potential\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"potential.family = custom_samples\npotential.csv = {csv_path}\n",
        )
        code = main(["check_potential", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{csv_path} line 1" in err["message"]

    def test_non_utf8_potential_csv_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "potential.csv"
        csv_path.write_bytes(b"-10.0,0.0\n0.0,0.5\xff\n10.0,1.0\n")
        cfg = self._write_cfg(
            tmp_path,
            "experiment = check_potential\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"potential.family = custom_samples\npotential.csv = {csv_path}\n",
        )
        code = main(["check_potential", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{csv_path}:2:" in err["message"]

    @pytest.mark.parametrize("times, error", [
        ("solver.record_stride = 1.0", "InsufficientDataError"),
        ("solver.record_times = 0.0, 1.0, 1.1, 1.3, 2.0", "ParameterError"),
    ])
    def test_morawetz_record_times_checked_before_the_solve(
        self, tmp_path, capsys, monkeypatch, times, error
    ):
        entered = []

        def kernel(*args, **kwargs):
            entered.append(args)
            raise AssertionError("the solver kernel ran")

        monkeypatch.setattr(solver, "strang", kernel)
        text = MORAWETZ_CFG.replace("solver.t_final = 16.0", "solver.t_final = 2.0")
        cfg = self._write_cfg(tmp_path, text.replace("solver.record_stride = 0.1", times))
        code = main(["morawetz", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not entered

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

    def test_plot_data_io_failure_exit_4(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,mass\n0,1.5\n")
        for argv in (
            [str(tmp_path / "missing.csv"), "--columns", "t,mass"],
            [str(series), "--columns", "t,mass", "--out", str(tmp_path / "no_dir" / "plot.dat")],
        ):
            assert main(["plot-data", *argv]) == 4
            assert json.loads(capsys.readouterr().err)["error"] == "IOError"

    def test_profile_window_step_zero_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path,
            "experiment = profiles\ngrid.n_points = 256\ngrid.length = 40.0\n"
            "potential.family = flat\nprofiles.fixture = two_bump\nprofiles.t_step = 0\n",
        )
        code = main(["profiles", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "t_step" in err["message"]

    def test_plot_data_to_file(self, tmp_path):
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG)
        out = tmp_path / "out"
        main(["evolve", "--config", str(cfg), "--output-dir", str(out)])
        dest = tmp_path / "plot.dat"
        assert main([
            "plot-data", str(out / "series.csv"), "--columns", "t,energy", "--out", str(dest)
        ]) == 0
        assert dest.read_text().startswith("# t energy\n")

    def test_square_overflow_exit_3(self, tmp_path, capsys):
        # re^2 overflows to inf in the first phase, so sup|u| reads inf at
        # step 0; a guard reading sup|u| <= inf would let the run go on
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
            initial.amplitude = 1e155
            """,
        )
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InstabilityError"
        assert "sup|u| = inf passed the guard at step 0," in err["message"]

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

    def test_channels_wave_times_off_the_step_lattice_exit_2(self, tmp_path, capsys):
        # a pullback leg that ends off the step lattice takes a shrunken
        # substep, and the gaps would again hold splitting error
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = channels
            grid.n_points = 512
            grid.length = 100.0
            potential.family = gaussian_matched_step
            solver.alpha = 5.0
            solver.dt = 0.0078125
            propagator.dt = 0.0078125
            channels.wave_times = 2.0, 3.3
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            """,
        )
        out = tmp_path / "o"
        assert main(["channels", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "wave_times" in err["message"]
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

    @pytest.mark.parametrize(
        "key, value",
        [("solver.record_stride", "inf"), ("solver.t_final", "inf"), ("solver.alpha", "nan")],
    )
    def test_non_finite_config_number_exit_2(self, tmp_path, capsys, key, value):
        # rejected where it enters: an infinite stride would record one
        # nan-timed row and take no step, an infinite t_final overflow the
        # record times, and a nan alpha pass the alpha > 4 check
        lines = [f"{key} = {value}" if ln.startswith(f"{key} =") else ln
                 for ln in EVOLVE_CFG.splitlines()]
        cfg = self._write_cfg(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{key} must be finite" in err["message"]
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(EVOLVE_CFG.encode() + b"note = caf\xe9\n")
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{cfg}:{EVOLVE_CFG.count(chr(10)) + 1}: not UTF-8" in err["message"]

    @pytest.mark.parametrize("row", ["1,1.25", "1,1.25,2.25,3.0"])
    def test_plot_data_ragged_row_exit_2(self, tmp_path, capsys, row):
        series = tmp_path / "series.csv"
        series.write_text(f"t,mass,energy\n0,1.5,2.5\n\n{row}\n")
        assert main(["plot-data", str(series), "--columns", "t,energy"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{series}:4:" in err["message"]

    def test_plot_data_non_utf8_series_exit_2(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_bytes(b"t,mass\n0,1.5\n1,\xff\n")
        assert main(["plot-data", str(series), "--columns", "t,mass"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{series}:3: not UTF-8" in err["message"]
