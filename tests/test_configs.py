"""The shipped configs in ``configs/``: each parses, names a runnable
experiment, survives the rendered echo with its types, has every key read
by its run and named in the ``snls.config`` key reference; ``channels.cfg``
keeps the premises its run relies on.  The key reference names exactly the
keys that the runs read."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import snls
import snls.config
from snls import experiments, scattering
from snls.config import EXPERIMENTS, parse_config, parse_config_text
from snls.propagators import SMALL_ROTATION

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def test_configs_are_found():
    assert CONFIGS


def _typed(entries):
    return {k: (type(v), [type(x) for x in v] if isinstance(v, list) else None, v)
            for k, v in entries.items()}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_parses_and_round_trips(path):
    cfg = parse_config(path)
    assert cfg.experiment() in experiments._RUNNERS
    again = parse_config_text(cfg.render())
    assert _typed(again.entries) == _typed(cfg.entries)
    assert again.render() == cfg.render()


def test_experiment_names_match_the_runners():
    # the CLI offers and validates config.EXPERIMENTS; run dispatches on _RUNNERS
    assert sorted(EXPERIMENTS) == sorted(experiments._RUNNERS)


def test_channels_config_premises():
    cfg = parse_config(CONFIG_DIR / "channels.cfg")
    dt, alpha = cfg.get_float("solver.dt"), cfg.get_float("solver.alpha")
    grid = snls.Grid(cfg.get_int("grid.n_points"), cfg.get_float("grid.length"))
    u0 = experiments._build_initial(cfg, grid)
    # every nonlinear phase of the solve rotates by less than SMALL_ROTATION
    # at t = 0, so the run takes the rule's form without cos and sin; so does
    # the benchmark's largest amplitude, 1.05 times the shipped one
    sup = np.abs(u0.values).max()
    assert dt * (1.05 * sup) ** alpha < SMALL_ROTATION
    # every wave time lies on the step lattice
    for t in cfg.get_float_list("channels.wave_times"):
        assert t / dt == round(t / dt)
    # the box holds the channel study: the linear flow of u0 keeps its mass
    # off the outer tenth at every study time (7.0e-3 there on L = 400).  The
    # run samples out to 13 pi; the held-out 14 pi is kept here as a margin.
    # A coarse step tracks the flow's spreading: 2.6e-6 here, 2.7e-6 at 2^-9.
    p = snls.PerturbedPropagator(grid, experiments._build_potential(cfg, grid), 2**-5)
    times = scattering._channel_times(cfg.get_int("channels.n_max"))
    for f in p.evolve_through(u0, times):
        assert snls.boundary_mass_fraction(f) <= 1e-4


# shipped keys set to values that keep each run to seconds; no key is removed
QUICK = {
    "channels": {"grid.n_points": 512, "channels.wave_times": [0.5, 1.0], "channels.n_max": 1},
    "decay": {"grid.n_points": 2048, "decay.times": [1.0, 2.0]},
    "evolve": {"grid.n_points": 512, "solver.t_final": 0.1},
    "linear_channels": {"grid.n_points": 1024, "channels.n_max": 1},
    "morawetz": {"grid.n_points": 512, "solver.t_final": 2.0},
    "profiles": {},
    "sweep": {"solver.t_final": 0.5},
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_key_is_read(path, tmp_path):
    # with_override makes a plain copy, and run records its reads in the
    # config it was given; a sweep adds its points' reads to its own
    cfg = parse_config(path)
    quick = QUICK[cfg.experiment()]
    assert set(quick) <= set(cfg.entries)
    for key, value in quick.items():
        cfg = cfg.with_override(key, value)
    experiments.run(cfg, tmp_path)
    # run reads output_dir only when no directory is passed
    assert set(cfg.entries) - cfg.read == {"output_dir"}


def _reference_keys():
    """The keys of the ``snls.config`` key reference, a slash group such as
    ``solver.alpha/dt/t_final`` expanded to one key per name."""
    reference = snls.config.__doc__.split("Recognized keys", 1)[1]
    keys = set()
    for line in reference.splitlines():
        # a key starts its line at the reference's indent; descriptions wrap further in
        if line.startswith("    ") and not line.startswith("     "):
            first, *rest = line.split()[0].split("/")
            section = first.rpartition(".")[0]
            keys |= {first} | {f"{section}.{name}" for name in rest}
    return keys


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_key_is_in_the_key_reference(path):
    assert set(parse_config(path).entries) <= _reference_keys()


def test_key_reference_names_the_keys_the_runs_read():
    # the keys passed as literals to cfg.get* in snls.experiments, and the
    # experiment key that RunConfig.experiment reads
    tree = ast.parse(inspect.getsource(experiments))
    read = {"experiment"} | {
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "cfg"
        and node.func.attr.startswith("get") and node.args
        and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
    }
    assert read == _reference_keys()
