import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snls
from snls import scattering
from snls.errors import DomainError, InsufficientDataError, ParameterError
from snls.grid import translate
from snls.scattering import _median_field

from conftest import l2_dist


@pytest.fixture(scope="module")
def channel_grid():
    return snls.Grid(512, 100.0)


@pytest.fixture(scope="module")
def barrier_channel(channel_grid):
    v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
    return snls.PerturbedPropagator(channel_grid, v, dt=0.02)


class TestLinearChannelsDegenerate:
    def test_zero_potential(self, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        p = snls.PerturbedPropagator(channel_grid, np.zeros(channel_grid.n_points), dt=0.02)
        pair = snls.extract_linear_channels(p, psi, 2)
        assert l2_dist(pair.eta, psi) < 1e-12
        assert snls.l2_norm_sq(pair.gamma) ** 0.5 < 1e-12

    def test_unit_potential(self, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        p = snls.PerturbedPropagator(channel_grid, np.ones(channel_grid.n_points), dt=0.02)
        pair = snls.extract_linear_channels(p, psi, 2)
        assert snls.l2_norm_sq(pair.eta) ** 0.5 < 1e-12
        assert l2_dist(pair.gamma, psi) < 1e-12

    def test_n_validation(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        with pytest.raises(ParameterError):
            snls.extract_linear_channels(barrier_channel, psi, 0)


class TestLinearChannelsProperties:
    def test_linearity(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        c = 0.7 - 0.4j
        scaled = snls.ComplexField(channel_grid, c * psi.values)
        p1 = snls.extract_linear_channels(barrier_channel, psi, 1)
        p2 = snls.extract_linear_channels(barrier_channel, scaled, 1)
        assert np.max(np.abs(p2.eta.values - c * p1.eta.values)) < 1e-12
        assert np.max(np.abs(p2.gamma.values - c * p1.gamma.values)) < 1e-12

    def test_phase_equivariance(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        theta = 1.1
        rotated = snls.ComplexField(channel_grid, np.exp(1j * theta) * psi.values)
        p1 = snls.extract_linear_channels(barrier_channel, psi, 1)
        p2 = snls.extract_linear_channels(barrier_channel, rotated, 1)
        assert np.max(np.abs(p2.eta.values - np.exp(1j * theta) * p1.eta.values)) < 1e-12

    def test_mass_subadditivity(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        study = snls.channel_convergence_study(barrier_channel, psi, 3)
        m_psi = snls.l2_norm_sq(psi)
        for pair in study.pairs:
            total = snls.l2_norm_sq(pair.eta) + snls.l2_norm_sq(pair.gamma)
            assert total <= m_psi * (1 + 1e-6)
        assert np.max(np.abs(study.mass_defects)) < 1e-9  # parallelogram + unitarity

    def test_same_time_reconstruction_is_algebraic_identity(
        self, barrier_channel, channel_grid
    ):
        # at its own extraction time the pair reproduces the state exactly:
        # this validates the pullback algebra, so convergence is measured at
        # the held-out next endpoint instead
        psi = snls.gaussian_packet(channel_grid)
        n = 2
        t_a = 2 * math.pi * n
        pair = snls.extract_linear_channels(barrier_channel, psi, n)
        state = barrier_channel.evolve(psi, t_a)
        recon = (
            snls.evolve_free(pair.eta, t_a).values
            + snls.evolve_shifted(pair.gamma, t_a).values
        )
        assert np.max(np.abs(state.values - recon)) < 1e-12

    def test_cauchy_gap_via_study_matches_direct(self, channel_grid):
        # the diagonalized flow is path-independent, so the incremental sweep
        # must reproduce the one-shot extraction exactly
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        p = snls.PerturbedPropagator(channel_grid, v, method="eigendecomposition")
        psi = snls.gaussian_packet(channel_grid)
        direct = snls.extract_linear_channels(p, psi, 2)
        study = snls.channel_convergence_study(p, psi, 2)
        assert direct.cauchy_gap == pytest.approx(study.pairs[1].cauchy_gap, rel=1e-9)
        assert direct.cauchy_gap > 0


class TestWaveOperator:
    def _solve(self, g, v, u0, t_final, dt=2.0**-7, linear=False):
        return snls.solve(
            snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=dt, t_final=t_final,
                            record_times=[t_final / 2, t_final], linear=linear)
        )

    def test_zero_solution(self, channel_grid):
        v = np.zeros(channel_grid.n_points)
        z = snls.ComplexField(channel_grid, np.zeros(channel_grid.n_points))
        traj = self._solve(channel_grid, v, z, 2.0)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        out = snls.nonlinear_wave_state(traj, p, 2.0)
        assert snls.l2_norm_sq(out) == 0.0

    def test_linear_run_pullback_recovers_u0(self, channel_grid):
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        u0 = snls.gaussian_packet(channel_grid)
        traj = self._solve(channel_grid, v, u0, 4.0, linear=True)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        for T in (2.0, 4.0):
            psi_plus = snls.nonlinear_wave_state(traj, p, T)
            assert l2_dist(psi_plus, u0) < 1e-11  # exact group inverse

    def test_missing_snapshot_handling(self, channel_grid):
        v = np.zeros(channel_grid.n_points)
        u0 = snls.gaussian_packet(channel_grid, amplitude=0.05)
        traj = self._solve(channel_grid, v, u0, 2.0)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        with pytest.raises(InsufficientDataError):
            snls.nonlinear_wave_state(traj, p, 1.7)
        with pytest.warns(UserWarning, match="interpolated"):
            snls.nonlinear_wave_state(traj, p, 1.7, allow_interpolation=True)
        with pytest.raises(InsufficientDataError):
            snls.nonlinear_wave_state(traj, p, 5.0, allow_interpolation=True)

    def test_nonlinear_extraction_collapses_on_linear_run(self, channel_grid):
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        u0 = snls.gaussian_packet(channel_grid)
        traj = self._solve(channel_grid, v, u0, 2.0, linear=True)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        via_traj = snls.extract_nonlinear_channels(traj, p, 2.0, 1)
        direct = snls.extract_linear_channels(p, u0, 1)
        assert l2_dist(via_traj.eta, direct.eta) < 1e-10
        assert l2_dist(via_traj.gamma, direct.gamma) < 1e-10


class TestTranslationGap:
    def test_zero_potential_gap_vanishes(self):
        g = snls.Grid(1024, 400.0)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        psi = snls.gaussian_packet(g)
        gap = snls.translation_flow_gap(p, psi, -30.0, (0.0, 2.0))
        assert gap < 1e-10

    def test_monotone_decay_both_sides(self):
        g = snls.Grid(4096, 400.0)
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), g)
        p = snls.PerturbedPropagator(g, v, dt=0.01)
        psi = snls.gaussian_packet(g)
        left = [snls.translation_flow_gap(p, psi, s, (0.0, 5.0)) for s in (-20.0, -40.0, -80.0)]
        assert left[0] > left[1] > left[2]
        right = [snls.translation_flow_gap(p, psi, s, (0.0, 5.0)) for s in (20.0, 40.0, 80.0)]
        assert right[0] > right[1] > right[2]

    def test_validation(self, channel_grid, barrier_channel):
        psi = snls.gaussian_packet(channel_grid)
        with pytest.raises(ParameterError):
            snls.translation_flow_gap(barrier_channel, psi, 0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            snls.translation_flow_gap(barrier_channel, psi, -30.0, (0.0, 1.0))
        with pytest.raises(ParameterError):
            snls.translation_flow_gap(barrier_channel, psi, -10.0, (1.0, 1.0))


@pytest.fixture(scope="module")
def free_prop():
    g = snls.Grid(1024, 200.0)
    return g, snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)


class TestProfileDecomposition:
    def test_single_profile_recovered(self, free_prop):
        g, p = free_prop
        rng = np.random.default_rng(11)
        base = snls.gaussian_packet(g)
        shifts = np.round(rng.uniform(-25, 25, size=6) / g.dx) * g.dx
        family = [translate(base, s) for s in shifts]
        res = snls.greedy_profile_decomposition(family, p, j_max=3, q_exponent=7.0,
                                                t_window=5.0)
        assert len(res.profiles) == 1
        pr = res.profiles[0]
        assert l2_dist(pr.psi, base) < 1e-6
        assert snls.l2_norm_sq(res.remainder) ** 0.5 < 1e-6
        assert np.allclose(pr.x_shifts, shifts)
        assert res.concentration_level == pytest.approx(snls.l2_norm_sq(base) ** 0.5, rel=1e-6)

    @staticmethod
    def two_bump_family(g):
        bump1 = snls.gaussian_packet(g)
        bump2 = snls.gaussian_packet(g, amplitude=0.8, width=1.5)
        family = []
        for n in range(6):
            a_n = round((12.5 + 3.2 * n) / g.dx) * g.dx
            family.append(
                snls.ComplexField(g, translate(bump1, a_n).values + translate(bump2, -a_n).values)
            )
        return bump1, bump2, family

    def test_two_profiles_recovered(self, free_prop):
        g, p = free_prop
        bump1, bump2, family = self.two_bump_family(g)
        res = snls.greedy_profile_decomposition(family, p, j_max=4, q_exponent=7.0,
                                                t_window=5.0)
        assert len(res.profiles) == 2
        errs = sorted(
            min(l2_dist(pr.psi, bump1), l2_dist(pr.psi, bump2)) for pr in res.profiles
        )
        assert errs[-1] < 1e-2
        rel_mass_defect = abs(res.pythagorean_defects["mass"]) / snls.l2_norm_sq(family[-1])
        assert rel_mass_defect < 1e-2

    def test_pass_whose_candidate_must_fail_is_not_swept(self, free_prop, monkeypatch):
        g, p = free_prop
        _, _, family = self.two_bump_family(g)
        flow = p._flow
        sweeps = []

        def counted(u, times):
            if u.ndim == 2:  # the window sweep; placing a profile flows one row
                sweeps.append((times[0], times[-1]))
            return flow(u, times)

        monkeypatch.setattr(p, "_flow", counted)
        res = snls.greedy_profile_decomposition(family, p, j_max=4, q_exponent=7.0,
                                                t_window=5.0)
        # two passes, each walking 0 -> +5 and then -0.1 -> -5
        assert sweeps == [(0.0, 5.0), (-0.1, -5.0)] * 2

        # with an infinite margin the exit never fires: a third pass sweeps and fails
        sweeps.clear()
        monkeypatch.setattr(scattering, "BOUND_MARGIN", np.inf)
        full = snls.greedy_profile_decomposition(family, p, j_max=4, q_exponent=7.0,
                                                 t_window=5.0)
        assert len(sweeps) == 6
        assert len(res.profiles) == len(full.profiles) == 2
        for a, b in zip(res.profiles, full.profiles):
            assert np.array_equal(a.psi.values, b.psi.values)
            assert np.array_equal(a.t_shifts, b.t_shifts)
            assert np.array_equal(a.x_shifts, b.x_shifts)
        assert np.array_equal(res.remainder.values, full.remainder.values)
        assert res.concentration_level == full.concentration_level
        assert res.pythagorean_defects == full.pythagorean_defects

    def test_times_before_zero_are_found(self):
        g = snls.Grid(256, 40.0)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), method="eigendecomposition")
        bump = snls.gaussian_packet(g)
        signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        shifts = g.dx * np.array([-40, -24, -8, 8, 24, 40])
        # member n is the bump moved by shifts[n] and run for 1.5 * signs[n],
        # so it refocuses at t = -1.5 * signs[n]
        family = [p.evolve(translate(bump, a), 1.5 * s) for a, s in zip(shifts, signs)]
        res = snls.greedy_profile_decomposition(family, p, j_max=2, q_exponent=7.0,
                                                t_window=3.0, t_step=0.25)
        assert len(res.profiles) == 1
        pr = res.profiles[0]
        assert np.array_equal(pr.t_shifts, -1.5 * signs)
        assert np.allclose(pr.x_shifts, shifts)
        assert l2_dist(pr.psi, bump) < 1e-6

    def test_ties_go_to_the_earliest_time(self, free_prop):
        g, p = free_prop
        bump = snls.gaussian_packet(g)
        zero = snls.ComplexField(g, np.zeros(g.n_points, dtype=complex))
        b = [translate(bump, g.dx * k) for k in (-80, -40, 40, 80)]
        family = [b[0], zero, b[1], b[2], zero, b[3]]  # each half holds one zero
        res = snls.greedy_profile_decomposition(family, p, j_max=1, q_exponent=7.0,
                                                t_window=1.0)
        # a zero member has the same Lq norm at every time: it keeps t = -T
        assert np.array_equal(res.profiles[0].t_shifts, [0.0, -1.0, 0.0, 0.0, -1.0, 0.0])

    def test_noise_yields_no_profiles(self, free_prop):
        g, p = free_prop
        rng = np.random.default_rng(5)
        family = [
            snls.ComplexField(
                g, 0.3 * (rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points))
            )
            for _ in range(6)
        ]
        res = snls.greedy_profile_decomposition(family, p, j_max=2, q_exponent=7.0,
                                                t_window=2.0)
        assert len(res.profiles) == 0
        assert res.concentration_level == 0.0
        assert np.array_equal(res.remainder.values, family[-1].values)

    def test_validation(self, free_prop):
        g, p = free_prop
        base = snls.gaussian_packet(g)
        with pytest.raises(InsufficientDataError):
            snls.greedy_profile_decomposition([base, base], p, 1, 7.0)
        with pytest.raises(ParameterError):
            snls.greedy_profile_decomposition([base, base, base], p, 1, 2.0)
        with pytest.raises(ParameterError):
            snls.greedy_profile_decomposition([base, base, base], p, 0, 7.0)
        other = snls.gaussian_packet(snls.Grid(512, 200.0))
        with pytest.raises(ParameterError):
            snls.greedy_profile_decomposition([base, base, other], p, 1, 7.0)


@given(
    st.integers(3, 8),
    st.integers(1, 64),
    st.floats(1e-6, 1e6),
    st.integers(0, 2**32 - 1),
)
def test_median_field_norm_is_at_most_root_sum_square(k, n, scale, seed):
    """|median_n row_n|^2 <= sum_n |row_n|^2, the bound behind the early stop."""
    rng = np.random.default_rng(seed)
    stack = scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    median = _median_field(stack)
    # pointwise the bound is exact; the two sums only differ in rounding order
    assert np.sum(np.abs(median) ** 2) <= np.sum(np.abs(stack) ** 2) * (1.0 + 1e-12)
