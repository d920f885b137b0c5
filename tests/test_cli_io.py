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
from snls import experiments, propagators, scattering, solver
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


def _strict_json(path):
    """The parsed file, refusing the NaN, Infinity and -Infinity that JSON lacks."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def _checkpoint_bytes(n_points, length, version=1, magic=b"SNLS"):
    """A checkpoint file with the given header and an all-zero payload."""
    return struct.pack("<4sIQdd", magic, version, n_points, length, 0.0) + bytes(16 * n_points)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, grid_small):
        f = snls.gaussian_packet(grid_small, momentum=0.9)
        p1 = tmp_path / "a.snls"
        p2 = tmp_path / "b.snls"
        write_checkpoint(p1, f, 1.25)
        field, time = read_checkpoint(p1)
        assert time == 1.25
        assert field.grid.n_points == grid_small.n_points
        write_checkpoint(p2, field, time)
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
            read, read_time = read_checkpoint(p1)
            assert read.values.tobytes() == values.tobytes()
            write_checkpoint(p2, read, read_time)
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


def _without(text, key):
    """Config text without the line that sets key: a swept key's base value is never read."""
    return "".join(ln for ln in text.splitlines(keepends=True) if ln.split("=", 1)[0].strip() != key)


def _shipped_config(name, *changes):
    """The text of a shipped config with each (old, new) line replaced; every old line must be there."""
    text = (Path(__file__).resolve().parent.parent / "configs" / name).read_text()
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    return text


# a decay run of 256 points at three probe times
DECAY_CFG = """
experiment = decay
grid.n_points = 256
grid.length = 40.0
solver.dt = 0.05
decay.times = 0.5, 1.0, 2.0
initial.kind = gaussian
"""


# a channels run of 1024 points, 256 steps to T = 4; channels.wave_times is appended
LEGS_CFG = """
experiment = channels
grid.n_points = 1024
grid.length = 100.0
potential.family = gaussian_matched_step
potential.height = 2.0
potential.width = 1.0
solver.alpha = 5.0
solver.dt = 0.015625
channels.n_max = 1
initial.kind = gaussian
initial.amplitude = 0.3
initial.width = 2.0
"""


# a channels run of 1024 points at dt = 2^-7; channels.wave_times and
# channels.n_max are appended
PAIRS_CFG = """
experiment = channels
grid.n_points = 1024
grid.length = 200.0
potential.family = gaussian_matched_step
potential.height = 2.0
potential.width = 1.0
solver.alpha = 5.0
solver.dt = 0.0078125
initial.kind = gaussian
initial.amplitude = 0.05
initial.width = 2.0
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


# one small run of every experiment, on 256 points
EXPERIMENT_CASES = [
    ("decay", "solver.dt = 0.05\ndecay.times = 1.0, 2.0\ninitial.kind = gaussian"),
    ("linear_channels", "solver.dt = 0.05\nchannels.n_max = 1\ninitial.kind = gaussian"),
    ("channels", "solver.dt = 0.03125\nchannels.wave_times = 1.0, 2.0"
     "\nchannels.n_max = 1\ninitial.kind = gaussian\ninitial.amplitude = 0.05"),
    ("morawetz", "solver.dt = 0.01\nsolver.t_final = 1.0\nsolver.record_stride = 0.1"
     "\nmorawetz.t_min = 0.5\ninitial.kind = gaussian"),
    ("profiles", "solver.dt = 0.05\nprofiles.fixture = two_bump\nprofiles.t_window = 1.0"),
    ("translation_gap", "solver.dt = 0.05\ntranslation.shifts = -4.0, -8.0"
     "\ntranslation.t_span = 0.0, 1.0\ninitial.kind = gaussian"),
    ("check_potential", ""),
    ("sweep", "solver.dt = 0.01\nsolver.t_final = 0.5\nsolver.record_stride = 0.25"
     "\ninitial.kind = gaussian\nsweep.experiment = evolve\nsweep.parameter = solver.alpha"
     "\nsweep.values = 4.5, 5.0"),
]


class TestExperiments:
    def test_evolve_determinism_byte_identical(self, tmp_path):
        cfg = parse_config_text(EVOLVE_CFG)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(cfg, output_dir=d1)
        run(cfg, output_dir=d2)
        for name in ("summary.json", "series.csv", "checkpoint_0002.snls"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("experiment, settings", EXPERIMENT_CASES)
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
            if name.name == "summary.json":
                _strict_json(d1 / name)

    def test_no_run_imports_numpy_random_or_ma(self, tmp_path):
        # in a fresh interpreter, since pytest's own imports load both
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from snls.config import parse_config_text\n"
            "from snls.experiments import run\n"
            "for k, (experiment, settings) in enumerate(json.loads(sys.argv[1])):\n"
            "    run(parse_config_text(f'experiment = {experiment}\\ngrid.n_points = 256'\n"
            "                          f'\\ngrid.length = 40.0\\n{settings}\\n'),\n"
            "        output_dir=Path(sys.argv[2]) / str(k))\n"
            "print(json.dumps([m for m in ('numpy.random', 'numpy.ma') if m in sys.modules]))\n"
        )
        src = str(Path(snls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(EXPERIMENT_CASES), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        assert len(list(tmp_path.rglob("summary.json"))) == len(EXPERIMENT_CASES) + 2

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
        _, time = read_checkpoint(out / "checkpoint_0004.snls")
        assert time == 1.0
        # restart from the checkpoint and keep evolving; the restart reads no
        # initial.amplitude, so it drops that key
        cfg2 = (
            parse_config_text(_without(EVOLVE_CFG, "initial.amplitude"))
            .with_override("initial.kind", "checkpoint")
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
        # V reaches its limits below 1e-30, so the exponent is inf, written as null
        assert _strict_json(tmp_path / "chk" / "summary.json")["hypotheses"][
            "measured_exponent"] is None

    def test_initial_momentum_adds_its_kinetic_energy(self, tmp_path):
        # |u| is unchanged, so only (1/2) int |u'|^2 moves, by k^2 mass / 2
        summaries = [run(parse_config_text(EVOLVE_CFG + f"initial.momentum = {k}\n"),
                         output_dir=tmp_path / f"k{k}") for k in (0.0, 1.5)]
        rest, moving = summaries
        assert moving["mass_initial"] == pytest.approx(rest["mass_initial"], rel=1e-15)
        assert moving["energy_initial"] - rest["energy_initial"] == pytest.approx(
            1.5**2 * rest["mass_initial"] / 2.0, rel=1e-12)

    def test_initial_center_moves_the_packet(self, tmp_path):
        # a center of eight grid steps gives the t = 0 checkpoint of the
        # centered packet moved by eight points
        fields = []
        for center in (0.0, 1.25):
            out = tmp_path / f"c{center}"
            run(parse_config_text(EVOLVE_CFG + f"initial.center = {center}\n"), output_dir=out)
            fields.append(read_checkpoint(out / "checkpoint_0000.snls")[0].values)
        assert np.allclose(fields[1], np.roll(fields[0], 8), rtol=0.0, atol=1e-15)
        assert not np.array_equal(fields[1], fields[0])

    def test_potential_a_plus_sets_the_right_edge(self, tmp_path):
        for a_plus in (1.0, 1.5):
            cfg = parse_config_text(f"experiment = check_potential\ngrid.n_points = 256\n"
                                    f"grid.length = 40.0\npotential.a_plus = {a_plus}\n")
            out = tmp_path / f"a{a_plus}"
            summary = run(cfg, output_dir=out)
            assert summary["hypotheses"]["right_limit_ok"] is True
            last = (out / "series.csv").read_text().splitlines()[-1].split(",")
            assert float(last[1]) == a_plus

    def test_potential_epsilon_sets_the_decay_test(self, tmp_path):
        # V = (5/|x|)^12 off the core: |x|^(1+eps) V falls toward the ends
        # for eps = 0.5 and grows for eps = 12, and the fit reads 12
        grid = snls.Grid(256, 40.0)
        v = (5.0 / np.maximum(np.abs(grid.x), 5.0)) ** 12
        csv_path = tmp_path / "power_law.csv"
        csv_path.write_text("".join(f"{x},{y}\n" for x, y in zip(grid.x.tolist(), v.tolist())))
        base = ("experiment = check_potential\ngrid.n_points = 256\ngrid.length = 40.0\n"
                f"potential.family = custom_samples\npotential.csv = {csv_path}\n"
                "potential.a_plus = 0.0\n")
        for epsilon, ok in ((0.5, True), (12.0, False)):
            summary = run(parse_config_text(base + f"potential.epsilon = {epsilon}\n"),
                          output_dir=tmp_path / f"e{epsilon}")
            assert summary["hypotheses"]["decay_rate_ok"] is ok
            assert summary["hypotheses"]["measured_exponent"] == pytest.approx(12.0, rel=1e-9)

    def test_linear_channels_unit_potential(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = linear_channels
            grid.n_points = 256
            grid.length = 60.0
            potential.family = flat
            potential.a_minus = 1.0
            solver.dt = 0.02
            channels.n_max = 1
            initial.kind = gaussian
            """
        )
        summary = run(cfg, output_dir=tmp_path / "lc")
        assert summary["final_eta_mass"] < 1e-24
        assert summary["final_gamma_mass"] == pytest.approx(summary["psi_mass"], rel=1e-10)

    @pytest.mark.parametrize("n_max, cauchy, reconstruction",
                             [(1, type(None), type(None)), (2, type(None), bool), (3, bool, bool)])
    def test_linear_channels_order_flags_need_two_values(self, tmp_path, n_max, cauchy,
                                                         reconstruction):
        # the Cauchy gaps from n = 2 and the defects from n = 1 keep an order
        # only when there are two of them; with fewer the flag is null
        cfg = parse_config_text(
            f"experiment = linear_channels\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"solver.dt = 0.05\nchannels.n_max = {n_max}\ninitial.kind = gaussian\n"
        )
        summary = run(cfg, output_dir=tmp_path / "lc")
        for flag, kind in (("cauchy_gaps_decreasing", cauchy),
                           ("reconstruction_decreasing", reconstruction)):
            assert type(summary[flag]) is kind

    @pytest.mark.parametrize("experiment", ["channels", "linear_channels"])
    def test_one_channel_pair_reports_no_cauchy_gap(self, tmp_path, experiment):
        # the n = 1 pair has no predecessor: a gap of 0.0 would read as a
        # perfect score from no comparison, so it is null; n_max = 2 has one
        base = (f"experiment = {experiment}\ngrid.n_points = 256\ngrid.length = 80.0\n"
                "potential.family = gaussian_matched_step\nsolver.dt = 0.0078125\n"
                "initial.kind = gaussian\ninitial.amplitude = 0.05\n")
        base += "solver.alpha = 5.0\nchannels.wave_times = 2.0\n" if experiment == "channels" else ""
        for n_max in (1, 2):
            out = tmp_path / f"n{n_max}"
            summary = run(parse_config_text(base + f"channels.n_max = {n_max}\n"), output_dir=out)
            written = _strict_json(out / "summary.json")["final_cauchy_gap"]
            if n_max == 1:
                assert summary["final_cauchy_gap"] is None and written is None
            else:
                assert summary["final_cauchy_gap"] == written > 0.0

    def test_profiles_noise_fixture(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = profiles
            seed = 3
            grid.n_points = 512
            grid.length = 100.0
            potential.family = flat
            solver.dt = 0.05
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

    @pytest.mark.parametrize("fixture", ["one_bump", "noise"])
    def test_profile_fixture_draws_from_its_seed(self, fixture):
        # the fields the seeded generator gives, drawn here in the fixture's order
        grid = snls.Grid(256, 40.0)
        cfg = parse_config_text(f"seed = 7\nprofiles.fixture = {fixture}\nprofiles.count = 3\n"
                                "profiles.amplitude = 0.5\n")
        rng = np.random.default_rng(7)
        if fixture == "one_bump":
            shifts = np.round(rng.uniform(-5.0, 5.0, size=3) / grid.dx) * grid.dx
            base = snls.gaussian_packet(grid, amplitude=0.5)
            expected = [snls.translate(base, s).values for s in shifts]
        else:
            expected = [0.5 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
                        for _ in range(3)]
        fields = experiments._profile_fixture(cfg, grid)
        assert [f.values.tobytes() for f in fields] == [e.tobytes() for e in expected]
        other = experiments._profile_fixture(cfg.with_override("seed", 8), grid)
        assert not np.array_equal(other[0].values, fields[0].values)

    @pytest.mark.parametrize("fixture, bases", [("one_bump", 1), ("two_bump", 2)])
    def test_profile_fixture_builds_one_field_per_member(self, monkeypatch, fixture, bases):
        # one stacked shift places every member: the fixture builds its bumps
        # and one field per member, each bit for bit the translate of its bumps
        grid = snls.Grid(1024, 200.0)
        init, counts = snls.ComplexField.__post_init__, []

        def counted(f):
            counts[-1] += 1
            init(f)

        for count in (4, 8):
            cfg = parse_config_text(f"profiles.fixture = {fixture}\nprofiles.count = {count}\n")
            counts.append(0)
            monkeypatch.setattr(snls.ComplexField, "__post_init__", counted)
            members = experiments._profile_fixture(cfg, grid)
            monkeypatch.undo()
            assert len(members) == count
            if fixture == "one_bump":
                rng = np.random.default_rng(0)
                shifts = np.round(rng.uniform(-25.0, 25.0, size=count) / grid.dx) * grid.dx
                base = snls.gaussian_packet(grid)
                expected = [snls.translate(base, s).values for s in shifts]
            else:
                base1 = snls.gaussian_packet(grid)
                base2 = snls.gaussian_packet(grid, amplitude=0.8, width=1.5)
                shifts = [round((12.5 + n * 3.125) / grid.dx) * grid.dx for n in range(count)]
                expected = [snls.translate(base1, a).values + snls.translate(base2, -a).values
                            for a in shifts]
            for member, row in zip(members, expected):
                assert np.array_equal(member.values, row)
        assert counts == [4 + bases, 8 + bases]

    def test_two_bump_separation_places_the_bumps(self, tmp_path, monkeypatch):
        # member n has its bumps at +-(separation + n * separation_step), on the grid
        grid, seen = snls.Grid(256, 40.0), []
        decompose = experiments.scattering.greedy_profile_decomposition

        def recorded(fields, *args, **kwargs):
            seen.extend(fields)
            return decompose(fields, *args, **kwargs)

        monkeypatch.setattr(experiments.scattering, "greedy_profile_decomposition", recorded)
        cfg = parse_config_text(
            "experiment = profiles\ngrid.n_points = 256\ngrid.length = 40.0\nsolver.dt = 0.05\n"
            "profiles.fixture = two_bump\nprofiles.count = 3\nprofiles.t_window = 1.0\n"
            "profiles.separation = 4.0\nprofiles.separation_step = 1.1\n"
        )
        run(cfg, output_dir=tmp_path / "prof")
        base1 = snls.gaussian_packet(grid)
        base2 = snls.gaussian_packet(grid, amplitude=0.8, width=1.5)
        assert len(seen) == 3
        for n, member in enumerate(seen):
            a = round((4.0 + 1.1 * n) / grid.dx) * grid.dx
            expected = snls.translate(base1, a).values + snls.translate(base2, -a).values
            assert np.array_equal(member.values, expected)

    def test_decay_smoke(self, tmp_path):
        cfg = parse_config_text(
            """
            experiment = decay
            grid.n_points = 1024
            grid.length = 400.0
            potential.family = flat
            solver.dt = 0.05
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

    def test_morawetz_saturates_is_null_without_a_ratio(self, tmp_path):
        # t_final = 2 from t_min = 1 leaves no doubling window past [1, 2], so
        # no increment ratio: saturates is null, not a false that cannot hold
        cfg = parse_config_text(MORAWETZ_CFG.replace("solver.t_final = 16.0", "solver.t_final = 2.0"))
        summary = run(cfg, output_dir=tmp_path / "mor")
        assert summary["increment_ratios"] == []
        assert summary["saturates"] is None
        assert _strict_json(tmp_path / "mor" / "summary.json")["saturates"] is None

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

    def test_morawetz_summary_lists_its_warnings(self, tmp_path):
        # the shipped config on a box too small for it: the packet reaches the edges
        text = _shipped_config("morawetz.cfg", ("grid.n_points = 2048", "grid.n_points = 256"),
                               ("grid.length = 256.0", "grid.length = 24.0"),
                               ("solver.t_final = 16.0", "solver.t_final = 4.0"))
        with pytest.warns(UserWarning) as caught:
            summary = run(parse_config_text(text), output_dir=tmp_path / "mor")
        notes = _strict_json(tmp_path / "mor" / "summary.json")["warnings"]
        assert notes == summary["warnings"] == [str(w.message) for w in caught]
        assert any(note.startswith("wrap-around:") for note in notes)

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
            solver.dt = 0.02
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
            channels.wave_times = 2.0, 4.0
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            """
        )
        summary = run(cfg, output_dir=tmp_path / "ch")
        assert summary["end_to_end_reconstruction_defect"] < 0.1
        assert len(summary["wave_operator_gaps"]) == 1
        # one gap has no order to keep, so the flag is null, not a true that cannot fail
        assert summary["gaps_decreasing"] is None
        assert _strict_json(tmp_path / "ch" / "summary.json")["gaps_decreasing"] is None

    def test_channels_flow_reaches_only_the_reported_pairs(self, tmp_path, monkeypatch):
        # the summary reads pairs n_max - 1 and n_max, so the kernel runs the
        # solve to T_max, the legs from T_1 to T_{K-1}, the backward sweep of
        # u(T_max) to the lower of T_{K-1} and 2pi(n_max - 1), the forward tail
        # to (2n_max + 1)pi, and one remainder substep per pair time off the
        # step lattice.  T_{K-1} = 8 lies between 2pi and 4pi, so a sweep on to
        # 2pi, or a tail on to the held-out time 8pi, goes over the bound
        dt, n_max, wave_times = 0.0078125, 3, [4.0, 8.0, 16.0]
        t_max, legs = wave_times[-1], wave_times[-2] - wave_times[0]
        substeps = []
        kernel = propagators.strang

        def counting(u, spans, dt, *rules, **kwargs):
            spans = list(spans)
            substeps.extend(n + (rem > 0) for n, rem in (substep_sizes(s, dt) for s in spans))
            return kernel(u, spans, dt, *rules, **kwargs)

        monkeypatch.setattr(propagators, "strang", counting)
        monkeypatch.setattr(solver, "strang", counting)
        cfg = parse_config_text(
            PAIRS_CFG + f"channels.wave_times = {', '.join(map(str, wave_times))}\n"
            f"channels.n_max = {n_max}\n"
        )
        run(cfg, output_dir=tmp_path / "ch")
        pair_times = math.pi * np.arange(2 * n_max - 2, 2 * n_max + 2)
        lowest, last = min(wave_times[-2], pair_times[0]), pair_times[-1]
        assert lowest < t_max < last  # pair times on both sides of T_max
        off_lattice = sum(bool(substep_sizes(t, dt)[1]) for t in pair_times)
        sweep = t_max / dt - math.floor(lowest / dt)
        tail = math.floor(last / dt) - t_max / dt
        least = (t_max + legs) / dt + sweep + tail
        assert least <= sum(substeps) <= least + off_lattice

    @pytest.mark.parametrize("n_max, wave_times", [
        (1, [2.0, 4.0, 8.0]),  # pair times 2pi and 3pi on both sides of T_max
        (2, [4.0, 14.0, 16.0]),  # pair times on both sides of T_{K-1}
        (3, [4.0, 14.0, 17.0]),  # on both sides of T_{K-1} and of T_max
    ])
    def test_channels_reported_pairs_match_the_full_study(self, tmp_path, monkeypatch,
                                                          n_max, wave_times):
        # the pairs that channels reads off its shorter flow are, bit for bit,
        # the last two of the full study read off the flow at every study time
        wave_gaps, channel_study = scattering._wave_gaps, scattering._channel_study
        seen = {}

        def gaps(traj, p, times, flow_times=()):
            seen["flow"] = traj, p, times
            return wave_gaps(traj, p, times, flow_times)

        def study(psi, states, first=1):
            seen["study"] = channel_study(psi, states, first)
            return seen["study"]

        monkeypatch.setattr(scattering, "_wave_gaps", gaps)
        monkeypatch.setattr(scattering, "_channel_study", study)
        cfg = parse_config_text(
            PAIRS_CFG + f"channels.wave_times = {', '.join(map(str, wave_times))}\n"
            f"channels.n_max = {n_max}\n"
        )
        summary = run(cfg, output_dir=tmp_path / "ch")
        traj, p, times = seen["flow"]
        _, flow = wave_gaps(traj, p, times, scattering._channel_times(n_max))
        full, reported = channel_study(traj.field_at(times[-1]), flow), seen["study"]
        assert len(full.pairs) == n_max
        assert [pr.extraction_n for pr in reported.pairs] == [pr.extraction_n for pr in full.pairs[-2:]]
        for ours, theirs in zip(reported.pairs, full.pairs[-2:]):
            assert np.array_equal(ours.eta.values, theirs.eta.values)
            assert np.array_equal(ours.gamma.values, theirs.gamma.values)
        assert reported.pairs[-1].cauchy_gap == full.pairs[-1].cauchy_gap
        assert summary["final_mass_defect"] == full.mass_defects[-1]
        assert summary["final_cauchy_gap"] == (full.cauchy_gaps[-1] if n_max > 1 else None)
        # a study that starts past n = 1 stores no stand-in gap for its first pair
        assert math.isnan(reported.pairs[0].cauchy_gap) == (n_max > 2)

    def test_channels_three_wave_times(self, tmp_path):
        # K = 3 runs one leg, u(2) -> 1, beside the sweep of u(4) that gives
        # the last gap; each is the h1v gap of the wave states, to 6.7e-6
        # relative at worst here, since the splitting conserves h1v to O(dt^2)
        times = [1.0, 2.0, 4.0]
        cfg = parse_config_text(LEGS_CFG + "channels.wave_times = 4.0, 1.0, 2.0\n")
        summary = run(cfg, output_dir=tmp_path / "ch")
        problem = experiments._evolve_problem(
            cfg.with_override("solver.t_final", 4.0).with_override("solver.record_times", times)
        )
        traj = snls.solve(problem)
        p = snls.PerturbedPropagator(problem.grid, problem.v, dt=problem.dt)
        waves = [snls.nonlinear_wave_state(traj, p, T) for T in times]
        pulled = [snls.h1v_norm_sq(snls.ComplexField(problem.grid, b.values - a.values), problem.v)
                  ** 0.5 for a, b in zip(waves, waves[1:])]
        assert summary["wave_times"] == times
        assert summary["wave_operator_gaps"] == pytest.approx(pulled, rel=2e-5)
        assert summary["gaps_decreasing"] is True  # K = 3: two gaps, a flag that can fail
        lines = (tmp_path / "ch" / "series.csv").read_text().splitlines()
        assert lines[0] == "T,wave_gap_h1v" and len(lines) == 3

    def test_channels_memory_grows_by_the_extra_snapshots_only(self, tmp_path):
        # K = 8 against K = 3 with the same T_max and study: the run keeps its
        # five extra snapshots, and drops each leg once its gap is taken
        # (5.13 fields more here; a stack of every pullback took 25.1)
        def peak(times, name):
            cfg = parse_config_text(LEGS_CFG + f"channels.wave_times = {', '.join(map(str, times))}\n")
            tracemalloc.start()
            try:
                run(cfg, output_dir=tmp_path / name)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([1.0, 2.0, 4.0], "first")  # loads what a run loads once
        few, many = peak([1.0, 2.0, 4.0], "k3"), peak([0.5 * k for k in range(1, 9)], "k8")
        assert many - few <= 6 * 1024 * 16

    def test_sweep_fans_out(self, tmp_path):
        cfg = parse_config_text(
            _without(EVOLVE_CFG, "solver.alpha").replace("experiment = evolve", "experiment = sweep")
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
            _without(EVOLVE_CFG, parameter).replace("experiment = evolve", "experiment = sweep")
            + f"sweep.experiment = evolve\nsweep.parameter = {parameter}\nsweep.values = {values}\n"
        )
        summary = run(cfg, output_dir=tmp_path / "sweep")
        assert stacks == sizes
        assert len(summary["runs"]) == sum(sizes)

    @pytest.mark.parametrize(
        "experiment, parameter, values, settings",
        [("evolve", "grid.n_points", [64, 128], "solver.dt = 0.01\nsolver.t_final = 0.3"
          "\nsolver.record_stride = 0.1\ninitial.kind = gaussian"),
         ("decay", "potential.height", [1.5, 2.0], "grid.n_points = 256\nsolver.dt = 0.05"
          "\ndecay.times = 0.5, 1.0, 2.0\ninitial.kind = gaussian")],
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

    def test_record_stride_of_one_step(self, tmp_path):
        # 0.035 / 0.005 = 7.000000000000001 strides over seven steps: a
        # record per step, which roundoff in the quotient must not refuse
        cfg = (parse_config_text(EVOLVE_CFG).with_override("solver.dt", 0.005)
               .with_override("solver.t_final", 0.035).with_override("solver.record_stride", 0.005))
        run(cfg, output_dir=tmp_path / "ev")
        assert len((tmp_path / "ev" / "series.csv").read_text().splitlines()) == 1 + 8

    @pytest.mark.parametrize(
        "experiment, parameter, settings",
        [("evolve", "solver.alpha", _without(EVOLVE_CFG, "solver.alpha")),
         ("linear_channels", "initial.width", "grid.n_points = 256\ngrid.length = 40.0\n"
          "solver.dt = 0.02\nchannels.n_max = 2\ninitial.kind = gaussian\n")],
        ids=["stacked", "point_by_point"],
    )
    def test_sweep_audit_of_equal_values_reads_zero(self, tmp_path, experiment, parameter,
                                                    settings):
        cfg = parse_config_text(
            settings.replace("experiment = evolve", "") + "experiment = sweep\n"
            f"sweep.experiment = {experiment}\nsweep.parameter = {parameter}\n"
            "sweep.values = 5.0, 5.0\n"
        )
        summary = run(cfg, output_dir=tmp_path / "sw")
        point = json.loads((tmp_path / "sw" / "run_000" / "summary.json").read_text())
        # every number of the point summary is audited, and none moves
        numbers = {k for k, v in point.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)}
        changes = summary["largest_relative_change"]
        assert numbers and numbers <= set(changes)
        assert set(changes.values()) == {0.0}

    def test_sweep_audit_names_list_entries_and_skips_other_values(self):
        summaries = [{"g": [1.0, 4.0], "ok": True, "note": "a", "none": None, "d": {"m": 2}},
                     {"g": [2.0, 4.0], "ok": False, "note": "b", "none": None, "d": {"m": 1}},
                     {"g": [2.0, 3.0], "ok": True, "note": "c", "none": 0.0, "d": {"m": 1}}]
        assert experiments._largest_relative_changes(summaries) == {
            "g[0]": 0.5, "g[1]": 0.25, "d.m": 0.5}
        # a NaN is not hidden by a later finite change
        nan_first = [{"x": math.nan}, {"x": 1.0}, {"x": 2.0}]
        assert math.isnan(experiments._largest_relative_changes(nan_first)["x"])

    def test_sweep_audit_flags_a_box_that_wraps(self, tmp_path):
        # by 6 pi the channel study's flow wraps around the 50-wide box; the
        # 200-wide box holds it, and the audit shows final_cauchy_gap move by
        # most of its size while psi's mass stays at roundoff
        cfg = parse_config_text(
            "experiment = sweep\ngrid.n_points = 512\nsolver.dt = 0.01\nchannels.n_max = 2\n"
            "initial.kind = gaussian\ninitial.width = 2.0\nsweep.experiment = linear_channels\n"
            "sweep.parameter = grid.length\nsweep.values = 50.0, 200.0\n"
        )
        changes = run(cfg, output_dir=tmp_path / "sw")["largest_relative_change"]
        assert changes["final_cauchy_gap"] > 0.5
        assert changes["psi_mass"] < 1e-12

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
        cfg.get("note")  # _write_outputs refuses an unread key; the note's echo stays a comma string
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

    @pytest.mark.parametrize("t_min", ["0.0", "-1.0", "1e-13"])
    def test_morawetz_t_min_must_select_only_positive_times(self, tmp_path, t_min):
        # the weight sqrt(t^2 + x^2) vanishes at t = x = 0, and the doubling
        # increments never end from t_min <= 0; the subprocess's timeout
        # turns a hang into a failure instead of a stalled suite
        text = MORAWETZ_CFG.replace("solver.t_final = 16.0", "solver.t_final = 2.0")
        cfg = self._write_cfg(tmp_path, text + f"morawetz.t_min = {t_min}\n")
        src = str(Path(snls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "snls.cli", "morawetz", "--config", str(cfg),
             "--output-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParameterError"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("experiment, settings, key", [
        ("profiles", "profiles.fixture = one_bump\nprofiles.count = -1", "profiles.count"),
    ], ids=["profiles.count"])
    def test_config_number_out_of_range_exit_2(self, tmp_path, capsys, experiment, settings, key):
        # unchecked, it reaches numpy (rng.uniform) and raises a ValueError,
        # which exits 1 with a traceback
        cfg = self._write_cfg(
            tmp_path, f"experiment = {experiment}\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"solver.dt = 0.05\ninitial.kind = gaussian\n{settings}\n",
        )
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("experiment, setting, key", [
        ("evolve", "solver.permissive = true", "solver.permissive"),
        ("decay", "decay.t_min = 0.5", "decay.t_min"),
        ("decay", "decay.t_max = 2.0", "decay.t_max"),
        ("decay", "decay.num = 3", "decay.num"),
    ], ids=["solver.permissive", "decay.t_min", "decay.t_max", "decay.num"])
    def test_retired_key_exit_2(self, tmp_path, capsys, experiment, setting, key):
        # no run reads the power gate or the geometric decay grid, so a
        # config that sets one is refused by name and writes nothing
        base = EVOLVE_CFG if experiment == "evolve" else DECAY_CFG
        cfg = self._write_cfg(tmp_path, f"{base}{setting}\n")
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["message"].endswith(f"no run reads {key}")
        assert not out.exists()

    def test_decay_without_times_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _without(DECAY_CFG, "decay.times"))
        out = tmp_path / "o"
        assert main(["decay", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "missing required key 'decay.times'" in err["message"]
        assert not out.exists()

    def test_record_times_ending_before_t_final_exit_2(self, tmp_path, capsys):
        # the solve would stop at t = 1 and still exit 0 with t_final = 5 echoed
        text = (_without(EVOLVE_CFG, "solver.record_stride").replace(
            "solver.t_final = 1.0", "solver.t_final = 5.0") + "solver.record_times = 0.0, 1.0\n")
        cfg = self._write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "end at t_final" in err["message"]
        assert not out.exists()

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

    @pytest.mark.parametrize("amplitude", ["1e70", "1e155"])
    @pytest.mark.parametrize("experiment", ["evolve", "morawetz"])
    def test_overflow_stderr_is_one_json_object(self, tmp_path, experiment, amplitude):
        # a fresh interpreter with numpy's default error handling: no
        # RuntimeWarning may precede the JSON error on stderr.  At 1e155
        # |u|^2 overflows in u0's own mass and sup norm; at 1e70 only
        # |u|^alpha does, as in u0's energy, so each catches a run that
        # monitors u0 before the guard has passed its first span
        cfg = self._write_cfg(
            tmp_path,
            f"""
            experiment = {experiment}
            grid.n_points = 256
            grid.length = 40.0
            potential.family = flat
            solver.alpha = 5.0
            solver.dt = 1e-3
            solver.t_final = 0.05
            solver.record_stride = 0.01
            initial.kind = gaussian
            initial.amplitude = {amplitude}
            """ + ("morawetz.t_min = 0.01\n" if experiment == "morawetz" else ""),
        )
        src = str(Path(snls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "snls.cli", experiment, "--config", str(cfg),
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

    def test_channels_bad_propagator_exits_2_before_the_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        # the legs run the solve's splitting at solver.dt, built before the
        # solve, so a step the splitting refuses costs no solve
        def refuse(problem):
            raise AssertionError("the solve ran before the leg propagator was built")

        monkeypatch.setattr(experiments, "solve", refuse)
        cfg = self._write_cfg(
            tmp_path,
            """
            experiment = channels
            grid.n_points = 512
            grid.length = 100.0
            potential.family = gaussian_matched_step
            solver.alpha = 5.0
            solver.dt = 0.25
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
        assert "solver.dt" in err["message"] and "splitting substep" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, key",
        [("propagator.method = eigendecomposition", "propagator.method"),
         ("propagator.dt = 0.03125", "propagator.dt")],
        ids=["eigendecomposition", "other_step"],
    )
    def test_channels_propagator_key_exit_2(self, tmp_path, capsys, setting, key):
        # legs by another method or at another step would hold splitting
        # error (eigendecomposition legs here: gaps 8.7e-7 and 6.2e-7 against
        # 1.9e-9 and 8.7e-10), so channels reads no propagator.* key, and a
        # stale one is refused before anything is written
        cfg = self._write_cfg(
            tmp_path,
            f"""
            experiment = channels
            grid.n_points = 512
            grid.length = 100.0
            potential.family = gaussian_matched_step
            solver.alpha = 5.0
            solver.dt = 0.0078125
            {setting}
            channels.wave_times = 2.0, 4.0, 8.0
            channels.n_max = 1
            initial.kind = gaussian
            initial.amplitude = 0.05
            initial.width = 2.0
            """,
        )
        out = tmp_path / "o"
        assert main(["channels", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].endswith(f"no run reads {key}")
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["decay", "linear_channels", "translation_gap",
                                            "profiles"])
    def test_linear_run_propagator_key_exit_2(self, tmp_path, capsys, experiment):
        # these runs once read propagator.method; every linear flow is now
        # the splitting at solver.dt, so a stale key is refused, unwritten
        cfg = self._write_cfg(
            tmp_path,
            f"experiment = {experiment}\ngrid.n_points = 256\ngrid.length = 40.0\n"
            f"{dict(EXPERIMENT_CASES)[experiment]}\npropagator.method = eigendecomposition\n",
        )
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].endswith("no run reads propagator.method")
        assert not out.exists()

    def test_channels_n_max_below_one_exits_2_before_the_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(problem):
            raise AssertionError("the solve ran before channels.n_max was checked")

        monkeypatch.setattr(experiments, "solve", refuse)
        text = LEGS_CFG.replace("channels.n_max = 1", "channels.n_max = 0")
        cfg = self._write_cfg(tmp_path, text + "channels.wave_times = 2.0, 4.0\n")
        out = tmp_path / "o"
        assert main(["channels", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "channels.n_max" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("solver.record_stride = 0.25", "solver.record_stride = 1e-300", "solver.record_stride"),
        ("solver.record_stride = 0.25", "solver.record_stride = 5e-324", "solver.record_stride"),
        ("solver.t_final = 1.0", "solver.t_final = -1.0", "solver.t_final"),
    ], ids=["stride_1e-300", "stride_5e-324", "negative_t_final"])
    def test_record_grid_refused_before_the_solve_exit_2(self, tmp_path, capsys, monkeypatch,
                                                         old, new, key):
        # unchecked, 1e-300 asks numpy for 1e300 records (ValueError), 5e-324
        # rounds t_final / stride = inf (OverflowError), and a negative
        # t_final makes an empty grid (IndexError): each exits 1
        def kernel(*args, **kwargs):
            raise AssertionError("the solver kernel ran")

        monkeypatch.setattr(solver, "strang", kernel)
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG.replace(old, new))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
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

    @pytest.mark.parametrize("wave_times", ["10.0, 10.0, 40.0", "-2.0, 4.0"],
                             ids=["duplicate", "negative"])
    def test_channels_bad_wave_times_name_their_key_exit_2(self, tmp_path, capsys, wave_times):
        # the solve would refuse them too, but by solver.record_times, a key
        # the config never wrote
        cfg = self._write_cfg(tmp_path, LEGS_CFG + f"channels.wave_times = {wave_times}\n")
        out = tmp_path / "o"
        assert main(["channels", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "channels.wave_times" in err["message"]
        assert "record_times" not in err["message"]
        assert not out.exists()

    def test_comma_string_value_exit_0(self, tmp_path):
        # output_dir, which --output-dir overrides, is the one key a run may leave unread
        cfg = self._write_cfg(tmp_path, EVOLVE_CFG + "output_dir = first run, small grid\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "output_dir = first run, small grid\n" in summary["config"]
        assert (out / "series.csv").exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("evolve", EVOLVE_CFG + "solver.dtt = 0.5\n", "solver.dtt"),
            # a swept key's base value is hidden by every point's override
            ("sweep", EVOLVE_CFG.replace("experiment = evolve", "experiment = sweep")
             + "sweep.experiment = evolve\nsweep.parameter = solver.alpha\nsweep.values = 4.5, 6.0\n",
             "solver.alpha"),
        ],
        ids=["misspelled", "swept_base_value"],
    )
    def test_unread_key_exit_2(self, tmp_path, capsys, command, text, key):
        cfg = self._write_cfg(tmp_path, text)
        assert main([command, "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].endswith(f"no run reads {key}")

    @pytest.mark.parametrize(
        "settings, key",
        [("sweep.parameter = solver.alpah\n", "solver.alpah"),
         ("sweep.parameter = solver.alpha\nsolver.dtt = 0.5\n", "solver.dtt"),
         ("sweep.parameter = solver.alpha\nsolver.alpha = 5.0\n", "solver.alpha")],
        ids=["misspelled_parameter", "stale_key", "swept_base_value"],
    )
    def test_sweep_refused_before_its_first_write(self, tmp_path, capsys, settings, key):
        # each point checks its own reads before it writes, so a swept key
        # that no point reads, or a stale one, leaves no run_NNN/ behind; a
        # base value of the swept key is refused before the first point
        text = (_without(EVOLVE_CFG, "solver.alpha").replace("experiment = evolve", "experiment = sweep")
                + "sweep.experiment = evolve\nsweep.values = 4.5, 6.0\n" + settings)
        cfg = self._write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["message"].endswith(f"no run reads {key}")
        assert not out.exists()

    def test_refused_config_writes_no_artifacts(self, tmp_path, capsys):
        # the unread-key check comes before the run's first write
        text = _shipped_config("evolve.cfg", ("grid.n_points = 4096", "grid.n_points = 256"),
                               ("solver.t_final = 10.0", "solver.t_final = 0.01"))
        cfg = self._write_cfg(tmp_path, text + "solver.dtt = 0.5\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["message"].endswith("no run reads solver.dtt")
        assert not out.exists()  # so no summary.json either

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
            _without(EVOLVE_CFG, "initial.amplitude").replace("experiment = evolve", "experiment = sweep")
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

    def test_bad_seed_exit_2_on_a_fixture_that_draws_nothing(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "experiment = profiles\nseed = abc\ngrid.n_points = 256\n"
                              "grid.length = 40.0\nsolver.dt = 0.05\n"
                              "profiles.fixture = two_bump\nprofiles.t_window = 1.0\n")
        out = tmp_path / "o"
        assert main(["profiles", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "seed" in err["message"]
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
