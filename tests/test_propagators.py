import math
import tracemalloc

import numpy as np
import pytest

import snls
from snls.errors import GridMismatchError, ParameterError
from snls.propagators import strang, strang_rules, substep_sizes

from conftest import l2_dist, random_field
from oracle import EigenPropagator, spectral_second_derivative_matrix


@pytest.fixture(scope="module")
def barrier():
    g = snls.Grid(256, 40.0)
    v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), g)
    return g, v


class TestFreeFlow:
    def test_identity_at_zero(self, grid_small):
        f = snls.gaussian_packet(grid_small, momentum=0.7)
        out = snls.evolve_free(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_plane_wave_eigenfunction(self):
        g = snls.Grid(128, 2 * math.pi)
        xi1 = 4.0
        wave = snls.ComplexField(g, np.exp(1j * xi1 * g.x))
        t = 0.37
        out = snls.evolve_free(wave, t)
        expected = np.exp(-1j * xi1**2 * t) * wave.values
        assert np.max(np.abs(out.values - expected)) < 1e-13

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
    def test_gaussian_sup_law(self, t):
        # u0 = exp(-x^2/2): |u(t)|_inf = (1+4t^2)^(-1/4), symbolic oracle
        g = snls.Grid(2048, 160.0)
        u0 = snls.gaussian_packet(g, width=math.sqrt(2.0))
        out = snls.evolve_free(u0, t)
        assert snls.sup_norm(out) == pytest.approx((1 + 4 * t * t) ** -0.25, abs=1e-8)

    def test_unitarity(self, grid_medium, rng):
        f = random_field(grid_medium, rng)
        m0 = snls.l2_norm_sq(f)
        assert snls.l2_norm_sq(snls.evolve_free(f, 3.7)) == pytest.approx(m0, rel=1e-12)

    def test_group_law(self, grid_medium, rng):
        f = random_field(grid_medium, rng)
        a = snls.evolve_free(snls.evolve_free(f, 0.6), 1.1)
        b = snls.evolve_free(f, 1.7)
        assert l2_dist(a, b) / snls.l2_norm_sq(f) ** 0.5 < 1e-12

    def test_rejects_nonfinite_time(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        with pytest.raises(ParameterError):
            snls.evolve_free(f, float("nan"))


class TestShiftedFlow:
    def test_equals_phased_free(self, grid_medium, rng):
        f = random_field(grid_medium, rng)
        t = 1.234
        shifted = snls.evolve_shifted(f, t)
        phased = np.exp(-1j * t) * snls.evolve_free(f, t).values
        assert np.array_equal(shifted.values, phased)

    def test_two_pi_period(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        t = 2 * math.pi
        a = snls.evolve_shifted(f, t)
        b = snls.evolve_free(f, t)
        assert np.max(np.abs(a.values - b.values)) < 1e-15

    def test_pi_antiperiod(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        a = snls.evolve_shifted(f, math.pi)
        b = snls.evolve_free(f, math.pi)
        assert np.max(np.abs(a.values + b.values)) < 1e-15


class TestDecayConstant:
    def test_value(self):
        assert snls.free_decay_constant() == pytest.approx(0.28209479, abs=1e-8)

    def test_algebraic_identity(self):
        c = snls.free_decay_constant()
        assert 2 * c * c == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_bounds_narrow_gaussian_at_t10(self):
        g = snls.Grid(4096, 400.0)
        psi = snls.gaussian_packet(g, width=0.5)
        out = snls.evolve_free(psi, 10.0)
        ratio = math.sqrt(10.0) * snls.sup_norm(out) / snls.l1_norm(psi)
        assert ratio <= snls.free_decay_constant() * (1 + 1e-6)


class TestSubsteps:
    def test_exact_division(self):
        n, rem = substep_sizes(10.0, 2.0**-10)
        assert n == 10240 and rem == 0.0

    def test_remainder(self):
        n, rem = substep_sizes(1.05, 0.1)
        assert n == 10
        assert rem == pytest.approx(0.05, rel=1e-12)

    def test_zero(self):
        for t in (0.0, -0.0):
            assert substep_sizes(t, 0.1) == (0, 0.0)

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            substep_sizes(1.0, 0.0)


class TestSpectralMatrix:
    def test_matches_fourier_multiplier(self, rng):
        g = snls.Grid(128, 17.0)
        d2 = spectral_second_derivative_matrix(g)
        assert np.allclose(d2, d2.T, atol=1e-12)
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        via_fft = np.fft.ifft((1j * g.wavenumbers) ** 2 * np.fft.fft(v))
        assert np.max(np.abs(d2 @ v - via_fft)) < 1e-10


class TestPerturbed:
    def test_validation(self, barrier):
        g, v = barrier
        with pytest.raises(TypeError):  # the splitting is the one method
            snls.PerturbedPropagator(g, v, method="eigendecomposition")
        with pytest.raises(ParameterError):
            snls.PerturbedPropagator(g, v, dt=0.5)
        with pytest.raises(GridMismatchError):
            snls.PerturbedPropagator(g, v[:-1])

    def test_caller_potential_stays_writable(self, barrier):
        g, v = barrier
        mine = v.copy()
        p = snls.PerturbedPropagator(g, mine, dt=0.01)
        mine[0] = 1.0
        assert p.v[0] == v[0]
        with pytest.raises(ValueError):
            p.v[0] = 1.0

    def test_grid_mismatch_on_evolve(self, barrier):
        g, v = barrier
        p = snls.PerturbedPropagator(g, v, dt=0.01)
        other = snls.gaussian_packet(snls.Grid(512, 40.0))
        with pytest.raises(GridMismatchError):
            p.evolve(other, 1.0)

    def test_zero_potential_reduces_to_free(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        free = snls.evolve_free(f, 1.0)
        strang = snls.PerturbedPropagator(grid_small, np.zeros(256), dt=1e-2).evolve(f, 1.0)
        assert l2_dist(strang, free) < 1e-12  # constant potential: splitting exact
        eig = EigenPropagator(grid_small, np.zeros(256)).evolve(f, 1.0)
        assert l2_dist(eig, free) < 1e-9

    def test_unit_potential_reduces_to_shifted(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        shifted = snls.evolve_shifted(f, 1.0)
        strang = snls.PerturbedPropagator(grid_small, np.ones(256), dt=1e-2).evolve(f, 1.0)
        assert l2_dist(strang, shifted) < 1e-12

    def test_zero_potential_splitting_kernel_reduces_to_free(self, grid_small):
        # the propagator applies a constant V as one multiplier; the kernel
        # itself must still be exact there
        f = snls.gaussian_packet(grid_small)
        rules = strang_rules(grid_small, np.zeros(256), 1e-2)
        u = next(strang(f.values.copy(), (1.0,), 1e-2, *rules))
        assert l2_dist(snls.ComplexField(grid_small, u), snls.evolve_free(f, 1.0)) < 1e-12

    def test_unit_potential_splitting_kernel_reduces_to_shifted(self, grid_small):
        f = snls.gaussian_packet(grid_small)
        rules = strang_rules(grid_small, np.ones(256), 1e-2)
        u = next(strang(f.values.copy(), (1.0,), 1e-2, *rules))
        assert l2_dist(snls.ComplexField(grid_small, u), snls.evolve_shifted(f, 1.0)) < 1e-12

    def test_strang_lists_no_substeps(self):
        # a span of 10^6 substeps: the kernel walks them lazily, so nothing
        # proportional to their number is held when the first phase runs
        g = snls.Grid(16, 10.0)
        kinetic, _ = strang_rules(g, np.zeros(16), 1e-4)

        class FirstPhase(Exception):
            pass

        def phase(u, tau):
            raise FirstPhase

        tracemalloc.start()
        try:
            with pytest.raises(FirstPhase):
                next(strang(np.zeros(16, dtype=complex), (100.0,), 1e-4, kinetic, phase))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a list of the substeps alone is 8 MB

    def test_strang_vs_eigendecomposition(self, barrier):
        g, v = barrier
        f = snls.gaussian_packet(g)
        us = snls.PerturbedPropagator(g, v, dt=1e-3).evolve(f, 1.0)
        ue = EigenPropagator(g, v).evolve(f, 1.0)
        assert l2_dist(us, ue) < 1e-6

    def test_group_law_eig(self, barrier):
        g, v = barrier
        p = EigenPropagator(g, v)
        f = snls.gaussian_packet(g)
        a = p.evolve(p.evolve(f, 0.7), 1.9)
        b = p.evolve(f, 2.6)
        assert l2_dist(a, b) < 1e-10

    def test_group_law_strang_on_step_lattice(self, barrier):
        g, v = barrier
        p = snls.PerturbedPropagator(g, v, dt=0.01)
        f = snls.gaussian_packet(g)
        a = p.evolve(p.evolve(f, 0.25), 0.5)
        b = p.evolve(f, 0.75)
        assert l2_dist(a, b) < 1e-12  # same substep sequence either way

    def test_unitarity(self, barrier):
        g, v = barrier
        f = snls.gaussian_packet(g)
        m0 = snls.l2_norm_sq(f)
        for p in (
            snls.PerturbedPropagator(g, v, dt=1e-2),
            EigenPropagator(g, v),
        ):
            m = snls.l2_norm_sq(p.evolve(f, 5.0))
            assert m == pytest.approx(m0, rel=1e-11)

    def test_backward_inverts_forward(self, barrier):
        g, v = barrier
        p = snls.PerturbedPropagator(g, v, dt=1e-2)
        f = snls.gaussian_packet(g, momentum=1.0)
        back = p.evolve(p.evolve(f, 2.0), -2.0)
        assert l2_dist(back, f) < 1e-12

    def test_h1v_conserved_by_eig_flow(self, barrier):
        # linear conservation law of the V-weighted H1 form; exact for the
        # diagonalized flow
        g, v = barrier
        p = EigenPropagator(g, v)
        f = snls.gaussian_packet(g)
        h0 = snls.h1v_norm_sq(f, v)
        for t in (0.5, 3.0, 11.0):
            ht = snls.h1v_norm_sq(p.evolve(f, t), v)
            assert abs(ht - h0) / h0 < 1e-8

    def test_eig_projection_allocates_no_complex_modes(self, rng):
        # u @ modes with complex u and real modes would cast the N x N
        # matrix to a complex copy, N^2 * 16 bytes
        n = 512
        g = snls.Grid(n, 40.0)
        p = EigenPropagator(g, np.zeros(n))
        p.eigensystem
        u = random_field(g, rng).values
        tracemalloc.start()
        try:
            next(p._flow(u, np.array([0.5])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 2

    def test_h1v_near_conserved_by_strang(self, barrier):
        g, v = barrier
        p = snls.PerturbedPropagator(g, v, dt=1e-3)
        f = snls.gaussian_packet(g)
        h0 = snls.h1v_norm_sq(f, v)
        ht = snls.h1v_norm_sq(p.evolve(f, 1.0), v)
        assert abs(ht - h0) / h0 < 1e-5  # O(dt^2) drift


def white_noise(n, rows, seed):
    """rows of white noise, shape (rows, n), or (n,) for rows 0."""
    rng = np.random.default_rng(seed)
    shape = (rows, n) if rows else (n,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPairTransform:
    """From PAIR_POINTS on, a kinetic substep runs as the even/odd pair of
    half-length transforms; it must be the full-length substep at roundoff."""

    @pytest.mark.parametrize("n", [2048, 4096, 8192])
    @pytest.mark.parametrize("rows", [0, 3])
    def test_substeps_are_the_full_length_substep(self, n, rows):
        # zero V: each phase is exp(0) = 1, so a span is its kinetic substeps
        g, u0 = snls.Grid(n, 400.0), white_noise(n, rows, n + rows)
        mass = np.sum(np.abs(u0) ** 2, axis=-1)
        for h in (2.0**-10, -0.0123):
            rules = strang_rules(g, np.zeros(n), abs(h))
            one = next(strang(u0.copy(), (h,), abs(h), *rules))
            u, many = u0.copy(), next(strang(u0.copy(), (100 * h,), abs(h), *rules))
            kinetic = np.exp(-1j * h * g.wavenumbers**2) / n
            for k in range(100):
                u = np.fft.ifft(kinetic * np.fft.fft(u), norm="forward")
                if k == 0:
                    assert np.linalg.norm(one - u) <= 1e-14 * np.linalg.norm(u)
            # at worst 4.8e-16 after one substep, 1.5e-14 after 100 and a
            # mass drift of 2.2e-14 over these grids
            assert np.linalg.norm(many - u) <= 1e-13 * np.linalg.norm(u)
            assert np.all(np.abs(np.sum(np.abs(many) ** 2, axis=-1) / mass - 1.0) <= 1e-13)

    @pytest.mark.parametrize("n, rows, last", [(4096, 0, 2048), (4096, 2, 2048),
                                               (1024, 0, 1024), (1024, 2, 1024)])
    def test_transforms_run_on_the_half_length_pair(self, monkeypatch, n, rows, last):
        # timing-free: each substep is one forward and one inverse transform,
        # of the (..., 2, N/2) even/odd pair from PAIR_POINTS on, else of u
        g, shapes = snls.Grid(n, 400.0), []

        def recording(transform):
            def call(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return transform(a, *args, **kwargs)
            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        dt, k = 2.0**-10, 5
        u = white_noise(n, rows, 0)
        next(strang(u, (k * dt,), dt, *strang_rules(g, np.zeros(n), dt)))
        lead = (rows,) if rows else ()
        pair = (2,) if last < n else ()
        assert shapes == [(*lead, *pair, last)] * (2 * k)
