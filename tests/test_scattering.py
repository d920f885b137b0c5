import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snls
from snls import scattering
from snls.config import parse_config_text
from snls.errors import DomainError, GridMismatchError, InsufficientDataError, ParameterError
from snls.experiments import _profile_fixture
from snls.grid import translate
from snls.scattering import _median_field

from conftest import l2_dist, random_field
from oracle import EigenPropagator


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
        pair = snls.channel_convergence_study(p, psi, 2).pairs[-1]
        assert l2_dist(pair.eta, psi) < 1e-12
        assert snls.l2_norm_sq(pair.gamma) ** 0.5 < 1e-12

    def test_unit_potential(self, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        p = snls.PerturbedPropagator(channel_grid, np.ones(channel_grid.n_points), dt=0.02)
        pair = snls.channel_convergence_study(p, psi, 2).pairs[-1]
        assert snls.l2_norm_sq(pair.eta) ** 0.5 < 1e-12
        assert l2_dist(pair.gamma, psi) < 1e-12

    def test_n_validation(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        with pytest.raises(ParameterError):
            snls.channel_convergence_study(barrier_channel, psi, 0)


class TestLinearChannelsProperties:
    def test_linearity(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        c = 0.7 - 0.4j
        scaled = snls.ComplexField(channel_grid, c * psi.values)
        p1 = snls.channel_convergence_study(barrier_channel, psi, 1).pairs[-1]
        p2 = snls.channel_convergence_study(barrier_channel, scaled, 1).pairs[-1]
        assert np.max(np.abs(p2.eta.values - c * p1.eta.values)) < 1e-12
        assert np.max(np.abs(p2.gamma.values - c * p1.gamma.values)) < 1e-12

    def test_phase_equivariance(self, barrier_channel, channel_grid):
        psi = snls.gaussian_packet(channel_grid)
        theta = 1.1
        rotated = snls.ComplexField(channel_grid, np.exp(1j * theta) * psi.values)
        p1 = snls.channel_convergence_study(barrier_channel, psi, 1).pairs[-1]
        p2 = snls.channel_convergence_study(barrier_channel, rotated, 1).pairs[-1]
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
        pair = snls.channel_convergence_study(barrier_channel, psi, n).pairs[-1]
        state = barrier_channel.evolve(psi, t_a)
        recon = (
            snls.evolve_free(pair.eta, t_a).values
            + snls.evolve_shifted(pair.gamma, t_a).values
        )
        assert np.max(np.abs(state.values - recon)) < 1e-12

    def test_cauchy_gap_via_study_matches_direct(self, channel_grid):
        # on the exact-in-time oracle and on the splitting alike, the n = 2
        # extraction differs from the n = 1 one
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        psi = snls.gaussian_packet(channel_grid)
        for p in (EigenPropagator(channel_grid, v),
                  snls.PerturbedPropagator(channel_grid, v, dt=0.02)):
            assert snls.channel_convergence_study(p, psi, 2).pairs[1].cauchy_gap > 0


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
        # between snapshots and past the last one
        with pytest.raises(InsufficientDataError):
            snls.nonlinear_wave_state(traj, p, 1.7)
        with pytest.raises(InsufficientDataError):
            snls.nonlinear_wave_state(traj, p, 5.0)

    @pytest.mark.parametrize(
        "times", [[0.5, 1.0, 2.0], [2.0, 0.5, 1.0], [1.5, 0.25, 0.75], [1.0], [2.0, 1.0]]
    )
    def test_leg_gaps_are_the_wave_state_gaps(self, channel_grid, times):
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        u0 = snls.gaussian_packet(channel_grid, amplitude=0.8)
        traj = snls.solve(snls.NlsProblem(grid=channel_grid, v=v, alpha=5.0, u0=u0, dt=2.0**-7,
                                          t_final=max(times), record_times=sorted(times)))
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        gaps, flow = scattering._wave_gaps(traj, p, times)
        waves = [snls.nonlinear_wave_state(traj, p, T) for T in sorted(times)]
        assert flow == [] and len(gaps) == len(times) - 1
        # the splitting conserves h1v only to O(dt^2): here the two forms agree
        # to 8.4e-6 relative at worst, and the gaps differ by a factor 2 or more,
        # so a leg paired with the wrong wave times cannot pass
        for gap, a, b in zip(gaps, waves, waves[1:]):
            pulled = snls.h1v_norm_sq(snls.ComplexField(channel_grid, b.values - a.values), v)
            assert gap == pytest.approx(pulled**0.5, rel=2e-5)

    def test_pullback_reads_the_study_flow_off_its_longest_row(self, channel_grid):
        # 2pi and 3pi lie within T_max = 10 and are read off the backward sweep
        # of u(T_max), either side of T_{K-1} = 9; 4pi .. 6pi run forward
        dt, times = 2.0**-7, [9.0, 10.0]
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        u0 = snls.gaussian_packet(channel_grid, amplitude=0.3, width=2.0)
        traj = snls.solve(snls.NlsProblem(grid=channel_grid, v=v, alpha=5.0, u0=u0, dt=dt,
                                          t_final=times[-1], record_times=times))
        p = snls.PerturbedPropagator(channel_grid, v, dt=dt)
        study_times = scattering._channel_times(2)
        (gap,), flow = scattering._wave_gaps(traj, p, times, study_times)
        assert len(flow) == len(study_times)
        psi_plus = snls.nonlinear_wave_state(traj, p, times[-1])
        # Strang steps of -dt invert those of +dt, so the states read on the
        # way down are the lattice flow from psi_plus at roundoff
        for state, direct in zip(flow, p.evolve_through(psi_plus, study_times)):
            assert l2_dist(state, direct) <= 1e-10 * snls.l2_norm_sq(direct) ** 0.5
        ahead = study_times > times[-1]
        assert ahead.sum() == 3
        u_max = traj.field_at(times[-1]).values
        forward = [u.copy() for u in p._flow(u_max, study_times[ahead], times[-1])]
        for state, u in zip(np.array(flow, dtype=object)[ahead], forward):
            assert np.array_equal(state.values, u)
        # the gap read off the sweep is its own one-leg flow's to 1.2e-11
        # relative; a sweep that read T_{K-1} after 2pi, going down to 2pi and
        # back up, misses it by 2.2e-9
        leg = next(p._flow(u_max, [times[0]], times[-1])) - traj.field_at(times[0]).values
        alone = snls.h1v_norm_sq(snls.ComplexField(channel_grid, leg), v) ** 0.5
        assert abs(gap - alone) <= 1e-10 * alone
        # the order of the flow times changes nothing: shuffled, with T_{K-1}
        # and T_max among them and 6pi asked before 4pi and 5pi, each state is
        # the sorted call's at its time, bit for bit, in the order asked
        asked = [*study_times, *times]
        shuffled = [asked[k] for k in (4, 5, 2, 0, 6, 3, 1)]
        in_order_gaps, in_order = scattering._wave_gaps(traj, p, times, sorted(asked))
        by_time = dict(zip(sorted(asked), in_order))
        shuffled_gaps, flow = scattering._wave_gaps(traj, p, times, shuffled)
        assert shuffled_gaps == in_order_gaps
        assert len(flow) == len(shuffled)
        for t, state in zip(shuffled, flow):
            assert np.array_equal(state.values, by_time[t].values)

    def test_wave_gaps_need_snapshots(self, channel_grid):
        v = np.zeros(channel_grid.n_points)
        u0 = snls.gaussian_packet(channel_grid, amplitude=0.05)
        traj = self._solve(channel_grid, v, u0, 2.0)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        with pytest.raises(InsufficientDataError):
            scattering._wave_gaps(traj, p, [2.0, 1.7])

    def test_nonlinear_extraction_collapses_on_linear_run(self, channel_grid):
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), channel_grid)
        u0 = snls.gaussian_packet(channel_grid)
        traj = self._solve(channel_grid, v, u0, 2.0, linear=True)
        p = snls.PerturbedPropagator(channel_grid, v, dt=2.0**-7)
        psi = snls.nonlinear_wave_state(traj, p, 2.0)
        via_traj = snls.channel_convergence_study(p, psi, 1).pairs[-1]
        direct = snls.channel_convergence_study(p, u0, 1).pairs[-1]
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

    def test_no_field_per_member(self, monkeypatch):
        # the ensemble is placed and pulled back as raw rows: doubling the
        # members leaves the number of ComplexField constructions as it is
        g = snls.Grid(256, 80.0)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        init, counts = snls.ComplexField.__post_init__, []

        def counted(f):
            counts[-1] += 1
            init(f)

        for count in (4, 8):
            cfg = parse_config_text(f"profiles.fixture = two_bump\nprofiles.count = {count}\n")
            family = _profile_fixture(cfg, g)
            counts.append(0)
            monkeypatch.setattr(snls.ComplexField, "__post_init__", counted)
            res = snls.greedy_profile_decomposition(family, p, j_max=4, q_exponent=7.0,
                                                    t_window=2.0)
            monkeypatch.undo()
            assert len(res.profiles) == 2
        assert counts[0] == counts[1]

    def test_times_before_zero_are_found(self):
        g = snls.Grid(256, 40.0)
        p = EigenPropagator(g, np.zeros(g.n_points))
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
        # an empty, backward or endless time window
        for window in ({"t_step": 0.0}, {"t_step": -0.1}, {"t_window": -5.0}, {"t_window": np.inf}):
            with pytest.raises(ParameterError):
                snls.greedy_profile_decomposition([base, base, base], p, 1, 7.0, **window)

    @pytest.mark.parametrize("field_grid", [snls.Grid(256, 80.0), snls.Grid(512, 40.0)],
                             ids=["other_length", "other_size"])
    def test_propagator_on_another_grid_is_refused(self, field_grid):
        # on another length the sweep would run with the wrong wavenumbers and
        # V; on another size it would fail to broadcast
        rng = np.random.default_rng(5)
        fields = [random_field(field_grid, rng, smooth=False) for _ in range(6)]
        p = snls.PerturbedPropagator(snls.Grid(256, 40.0), np.zeros(256), dt=0.05)
        with pytest.raises(GridMismatchError):
            snls.greedy_profile_decomposition(fields, p, j_max=2, q_exponent=7.0)

    def test_pythagorean_defects_place_the_last_member(self):
        # on a steplike V the H1_V norm of a placed profile depends on x_n and
        # the Lq norm of its flow on t_n, so every member's placement differs
        g = snls.Grid(256, 40.0)
        p = snls.PerturbedPropagator(g, snls.build_potential(snls.PotentialSpec(), g), dt=0.05)
        bump = snls.gaussian_packet(g)
        small = snls.gaussian_packet(g, amplitude=0.3, width=0.7)
        shifts = g.dx * np.array([-40, -24, -8, 8, 24, 40])
        times = np.array([1.0, -0.5, 0.5, -1.0, 0.75, -0.25])
        # a bump run for t_n from x_n, plus a smaller bump at -2 x_n that the
        # median leaves in the remainder
        family = []
        for a, t in zip(shifts, times):
            run_back = p.evolve(translate(bump, a), t).values
            family.append(snls.ComplexField(g, run_back + translate(small, -2 * a).values))
        q = 7.0
        res = snls.greedy_profile_decomposition(family, p, j_max=1, q_exponent=q,
                                                t_window=1.5, t_step=0.25)
        assert len(res.profiles) == 1
        assert np.array_equal(res.profiles[0].t_shifts, -times)
        last, rem = family[-1], res.remainder

        def defects(n):
            placed = [translate(pr.psi, pr.x_shifts[n]) for pr in res.profiles]
            flows = [p.evolve(f, -pr.t_shifts[n]) for f, pr in zip(placed, res.profiles)]
            return {
                "mass": snls.l2_norm_sq(last)
                - sum(snls.l2_norm_sq(pr.psi) for pr in res.profiles)
                - snls.l2_norm_sq(rem),
                "h1v": snls.h1v_norm_sq(last, p.v)
                - sum(snls.h1v_norm_sq(f, p.v) for f in placed)
                - snls.h1v_norm_sq(rem, p.v),
                "lq": snls.lp_norm(last, q) ** q
                - snls.lp_norm(rem, q) ** q
                - sum(snls.lp_norm(f, q) ** q for f in flows),
            }

        assert res.pythagorean_defects == pytest.approx(defects(-1), rel=1e-12, abs=0.0)
        first = defects(0)
        for key in ("h1v", "lq"):
            assert abs(first[key] - res.pythagorean_defects[key]) > 1e-3 * abs(first[key])


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
