"""The shipped configs in ``configs/``: each parses, names a runnable
experiment and survives the rendered echo with its types; ``channels.cfg``
keeps the premises its run relies on."""

from pathlib import Path

import numpy as np
import pytest

import snls
from snls import experiments
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
    # the pullbacks repeat the solve's step, or the gaps measure splitting error
    assert cfg.get_float("propagator.dt") == cfg.get_float("solver.dt")
    # every nonlinear phase of the solve rotates by less than SMALL_ROTATION
    # at t = 0, so the run takes the rule's form without cos and sin
    grid = snls.Grid(cfg.get_int("grid.n_points"), cfg.get_float("grid.length"))
    sup = np.abs(experiments._build_initial(cfg, grid).values).max()
    assert cfg.get_float("solver.dt") * sup ** cfg.get_float("solver.alpha") < SMALL_ROTATION
