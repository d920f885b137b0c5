import numpy as np
import pytest
from hypothesis import settings

import snls

# property tests replay the same examples on every run and keep no example database
settings.register_profile("snls", deadline=None, derandomize=True, database=None)
settings.load_profile("snls")


@pytest.fixture(scope="session")
def canonical_spec():
    return snls.PotentialSpec(height=2.0, width=1.0)


@pytest.fixture(scope="session")
def grid_small():
    return snls.Grid(256, 40.0)


@pytest.fixture(scope="session")
def grid_medium():
    return snls.Grid(2048, 100.0)


def l2_dist(f, g):
    return snls.l2_norm_sq(snls.ComplexField(f.grid, f.values - g.values)) ** 0.5


def h1_dist(f, g):
    return snls.h1_norm_sq(snls.ComplexField(f.grid, f.values - g.values)) ** 0.5


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_field(grid, rng, scale=1.0, smooth=True):
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    if smooth:
        # damp high modes so spectral identities are exercised on resolvable data
        damp = np.exp(-((grid.wavenumbers / (0.25 * np.abs(grid.wavenumbers).max())) ** 2))
        vals = np.fft.ifft(damp * np.fft.fft(vals))
    return snls.ComplexField(grid, scale * vals)
