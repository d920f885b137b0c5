import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snls
from snls.errors import InvalidFieldError, ParameterError
from snls.grid import _derivative, _shift, _spectral_form

from conftest import l2_dist, random_field

SQRT_PI_HALF = math.sqrt(math.pi / 2.0)  # integral of exp(-2 x^2)


class TestGrid:
    def test_wavenumber_set(self):
        g = snls.Grid(64, 10.0)
        expected = 2 * np.pi / 10.0 * np.arange(-32, 32)
        assert np.allclose(np.sort(g.wavenumbers), expected)
        assert g.dx * g.n_points == pytest.approx(g.length, rel=1e-15)

    def test_wavenumbers_symmetric(self):
        g = snls.Grid(128, 17.0)
        xi = set(np.round(g.wavenumbers, 12))
        nyquist = -np.pi * g.n_points / g.length
        for v in g.wavenumbers:
            if v != 0.0 and not np.isclose(v, nyquist):
                assert -round(v, 12) in xi

    @pytest.mark.parametrize("n", [15, 100, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ParameterError):
            snls.Grid(n, 10.0)

    def test_rejects_small_and_bad_length(self):
        with pytest.raises(ParameterError):
            snls.Grid(8, 10.0)
        with pytest.raises(ParameterError):
            snls.Grid(64, -1.0)
        with pytest.raises(ParameterError):
            snls.Grid(64, float("nan"))


class TestComplexField:
    def test_length_check(self, grid_small):
        with pytest.raises(InvalidFieldError):
            snls.ComplexField(grid_small, np.zeros(17))

    def test_finite_check(self, grid_small):
        bad = np.zeros(grid_small.n_points, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(InvalidFieldError):
            snls.ComplexField(grid_small, bad)
        bad[3] = np.inf
        with pytest.raises(InvalidFieldError):
            snls.ComplexField(grid_small, bad)
        bad[3] = complex(0.0, np.nan)
        with pytest.raises(InvalidFieldError):
            snls.ComplexField(grid_small, bad)
        bad[3] = complex(0.0, np.inf)
        with pytest.raises(InvalidFieldError):
            snls.ComplexField(grid_small, bad)

    def test_values_read_only(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestNorms:
    def test_l2_zero(self, grid_small):
        z = snls.ComplexField(grid_small, np.zeros(grid_small.n_points))
        assert snls.l2_norm_sq(z) == 0.0

    def test_l2_constant(self):
        g = snls.Grid(64, 10.0)
        one = snls.ComplexField(g, np.ones(64, dtype=complex))
        assert snls.l2_norm_sq(one) == pytest.approx(10.0, rel=1e-14)

    def test_l2_gaussian(self):
        # analytic oracle: integral exp(-2x^2) = sqrt(pi/2); tails < 1e-300
        g = snls.Grid(2048, 40.0)
        f = snls.gaussian_packet(g)
        assert snls.l2_norm_sq(f) == pytest.approx(SQRT_PI_HALF, abs=1e-10)

    def test_h1_zero_and_plane_wave(self):
        g = snls.Grid(64, 2 * math.pi)
        z = snls.ComplexField(g, np.zeros(64))
        assert snls.h1_norm_sq(z) == 0.0
        wave = snls.ComplexField(g, np.exp(1j * g.x))
        assert snls.h1_norm_sq(wave) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_h1_gaussian(self):
        # Gaussian moment oracle: integral exp(-2x^2) + integral 4x^2 exp(-2x^2)
        # = sqrt(pi/2) + sqrt(pi/2) = 2 sqrt(pi/2)
        g = snls.Grid(2048, 40.0)
        f = snls.gaussian_packet(g)
        assert snls.h1_norm_sq(f) == pytest.approx(2.0 * SQRT_PI_HALF, abs=1e-10)

    def test_lp_and_sup(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        assert snls.sup_norm(f) == pytest.approx(1.0, rel=1e-12)
        assert snls.lp_norm(f, 2) ** 2 == pytest.approx(snls.l2_norm_sq(f), rel=1e-12)
        # integral exp(-x^2) = sqrt(pi)
        assert snls.l1_norm(f) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        with pytest.raises(ParameterError):
            snls.lp_norm(f, 0.5)


class TestSpectralDerivative:
    def test_constant(self, grid_small):
        c = np.full(grid_small.n_points, 2.0 + 1.0j)
        d = _derivative(c, grid_small.wavenumbers)
        assert np.max(np.abs(d)) < 1e-13

    def test_resolved_mode(self):
        g = snls.Grid(128, 2 * math.pi)
        xi1 = 3.0
        d = _derivative(np.sin(xi1 * g.x), g.wavenumbers)
        assert np.max(np.abs(d - xi1 * np.cos(xi1 * g.x))) < 1e-12

    def test_gaussian(self):
        g = snls.Grid(2048, 40.0)
        f = snls.gaussian_packet(g)
        d = _derivative(f.values, g.wavenumbers)
        exact = -2.0 * g.x * f.values
        assert np.max(np.abs(d - exact)) < 1e-9

    def test_linearity(self, grid_medium, rng):
        f = random_field(grid_medium, rng).values
        g = random_field(grid_medium, rng).values
        xi = grid_medium.wavenumbers
        a, b = 0.7 - 0.2j, -1.3 + 0.9j
        lhs = _derivative(a * f + b * g, xi)
        rhs = a * _derivative(f, xi) + b * _derivative(g, xi)
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


class TestTransforms:
    def test_parseval(self, grid_medium, rng):
        # the identity that h1_norm_sq and energy rely on: unit weight gives the mass
        for _ in range(5):
            f = random_field(grid_medium, rng, smooth=False)
            assert _spectral_form(f, 1.0) == pytest.approx(snls.l2_norm_sq(f), rel=1e-12)


class TestTranslate:
    def test_matches_roll_on_grid_shift(self, grid_medium):
        f = snls.gaussian_packet(grid_medium)
        m = 37
        shifted = snls.translate(f, m * grid_medium.dx)
        rolled = np.roll(f.values, m)
        assert np.max(np.abs(shifted.values - rolled)) < 1e-12

    def test_inverse(self, grid_medium):
        f = snls.gaussian_packet(grid_medium, momentum=1.5)
        back = snls.translate(snls.translate(f, 3.7), -3.7)
        assert l2_dist(back, f) < 1e-12

    @given(st.lists(st.one_of(st.just(0.0), st.floats(-30.0, 30.0)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_one_shift_for_fields_and_stacks(self, shifts, seed):
        # a stack shifted row by row, and one field placed once per shift
        grid = snls.Grid(64, 20.0)
        rng = np.random.default_rng(seed)
        rows = [random_field(grid, rng) for _ in shifts]
        stacked = _shift(np.stack([f.values for f in rows]), grid.wavenumbers, np.array(shifts))
        placed = _shift(rows[0].values, grid.wavenumbers, np.array(shifts))
        for f, s, row, place in zip(rows, shifts, stacked, placed, strict=True):
            assert np.array_equal(row, snls.translate(f, s).values)
            assert np.array_equal(place, snls.translate(rows[0], s).values)
            assert np.array_equal(_shift(f.values, grid.wavenumbers, s), row)


class TestMonitors:
    def test_boundary_mass_detects_edge_bump(self, grid_medium):
        centered = snls.gaussian_packet(grid_medium)
        assert snls.boundary_mass_fraction(centered) < 1e-30
        edge = snls.gaussian_packet(grid_medium, center=0.49 * grid_medium.length)
        assert snls.boundary_mass_fraction(edge) > 0.5

    def test_high_mode_fraction(self, grid_medium, rng):
        smooth = snls.gaussian_packet(grid_medium)
        assert snls.high_mode_fraction(smooth) < 1e-12
        rough = random_field(grid_medium, rng, smooth=False)
        assert snls.high_mode_fraction(rough) > 0.1

    def test_zero_field_fractions(self, grid_small):
        z = snls.ComplexField(grid_small, np.zeros(grid_small.n_points))
        assert snls.boundary_mass_fraction(z) == 0.0
        assert snls.high_mode_fraction(z) == 0.0
