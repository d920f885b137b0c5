import tracemalloc
import warnings

import numpy as np
import pytest

import snls
import snls.solver as solver_mod
from snls.errors import GridMismatchError, InstabilityError, ParameterError
from snls.propagators import substep_sizes
from snls.solver import solve_stack

from conftest import l2_dist


@pytest.fixture(scope="module")
def setup():
    g = snls.Grid(1024, 100.0)
    v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), g)
    return g, v


def make_problem(g, v, u0, dt=1e-3, t_final=1.0, **kw):
    return snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=dt, t_final=t_final, **kw)


class TestProblemValidation:
    def test_alpha_range(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        with pytest.raises(ParameterError):
            snls.NlsProblem(grid=g, v=v, alpha=3.0, u0=u0, dt=1e-3, t_final=1.0)
        # permissive mode admits subcritical powers
        p = snls.NlsProblem(grid=g, v=v, alpha=3.0, u0=u0, dt=1e-3, t_final=1.0, permissive=True)
        assert p.alpha == 3.0

    def test_record_times_validation(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        with pytest.raises(ParameterError):
            make_problem(g, v, u0, record_times=[0.5, 0.5])
        with pytest.raises(ParameterError):
            make_problem(g, v, u0, record_times=[0.5, 2.0])
        # a non-finite time fails here, not in the solve
        for kw in ({"t_final": np.inf}, {"dt": np.inf}, {"dt": np.nan},
                   {"record_times": [0.5, np.nan]}, {"record_times": [np.nan]}):
            with pytest.raises(ParameterError):
                make_problem(g, v, u0, **kw)

    def test_zero_prepended(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        p = make_problem(g, v, u0, record_times=[0.5, 1.0])
        assert p.record_times[0] == 0.0

    def test_caller_potential_stays_writable(self, setup):
        g, v = setup
        mine = v.copy()
        problem = make_problem(g, mine, snls.gaussian_packet(g))
        mine[0] = 1.0
        assert problem.v[0] == v[0]
        with pytest.raises(ValueError):
            problem.v[0] = 1.0

    def test_grid_mismatch(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(snls.Grid(256, 100.0))
        with pytest.raises(GridMismatchError):
            make_problem(g, v, u0)


class TestPhaseSubstep:
    def test_zero_field(self, setup):
        g, v = setup
        z = snls.ComplexField(g, np.zeros(g.n_points))
        out = snls.phase_substep(z, v, 5.0, 0.01)
        assert np.array_equal(out.values, z.values)

    def test_unit_modulus_global_phase(self, grid_small):
        vals = np.exp(1j * np.linspace(0, 4, grid_small.n_points))
        f = snls.ComplexField(grid_small, vals)
        dt = 0.3
        out = snls.phase_substep(f, np.zeros(grid_small.n_points), 5.0, dt)
        assert np.max(np.abs(out.values - np.exp(-1j * dt) * vals)) < 1e-14

    def test_modulus_preserved(self, setup, rng):
        g, v = setup
        vals = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
        f = snls.ComplexField(g, vals)
        out = snls.phase_substep(f, v, 4.5, 0.173)
        assert np.max(np.abs(np.abs(out.values) - np.abs(vals))) < 1e-13

    def test_negative_dt_reverses(self, setup):
        g, v = setup
        f = snls.gaussian_packet(g)
        there = snls.phase_substep(f, v, 5.0, 0.2)
        back = snls.phase_substep(there, v, 5.0, -0.2)
        assert np.max(np.abs(back.values - f.values)) < 1e-14


class TestSolve:
    def test_zero_initial_data(self, setup):
        g, v = setup
        z = snls.ComplexField(g, np.zeros(g.n_points))
        traj = snls.solve(make_problem(g, v, z, record_times=[0.5, 1.0]))
        for f in traj.fields:
            assert np.all(f.values == 0)
        assert np.all(traj.mass == 0) and np.all(traj.energy == 0)

    def test_first_snapshot_is_u0(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(make_problem(g, v, u0, record_times=[1.0]))
        assert np.array_equal(traj.fields[0].values, u0.values)
        assert traj.times[0] == 0.0

    def test_mass_conserved(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(make_problem(g, v, u0, dt=1e-3, t_final=2.0,
                                       record_times=np.arange(0, 2.2, 0.25)))
        m0 = traj.mass[0]
        assert np.max(np.abs(traj.mass - m0)) / m0 < 1e-10

    def test_energy_drift_quadratic_in_dt(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        rec = [0.5, 1.0]
        drifts = []
        for dt in (2e-3, 1e-3):
            traj = snls.solve(make_problem(g, v, u0, dt=dt, record_times=rec))
            drifts.append(np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0]))
        assert drifts[0] / drifts[1] > 3.5

    def test_small_data_tracks_free_flow(self):
        g = snls.Grid(1024, 120.0)
        u0 = snls.gaussian_packet(g, amplitude=0.01)
        traj = snls.solve(
            snls.NlsProblem(grid=g, v=np.zeros(g.n_points), alpha=5.0, u0=u0,
                            dt=1e-3, t_final=5.0)
        )
        free = snls.evolve_free(u0, 5.0)
        assert l2_dist(traj.final_field, free) < 1e-4

    def test_time_reversal(self, setup):
        # backward integration realized through the conjugation symmetry:
        # conj(u) solves the same equation with t -> -t for real V
        g, v = setup
        u0 = snls.gaussian_packet(g)
        fwd = snls.solve(make_problem(g, v, u0, dt=1e-3, t_final=1.0))
        w0 = snls.ComplexField(g, np.conj(fwd.final_field.values))
        bwd = snls.solve(make_problem(g, v, w0, dt=1e-3, t_final=1.0))
        recovered = snls.ComplexField(g, np.conj(bwd.final_field.values))
        assert l2_dist(recovered, u0) < 1e-8

    def test_linear_mode_matches_propagator(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(make_problem(g, v, u0, dt=1e-2, t_final=1.0, linear=True))
        p = snls.PerturbedPropagator(g, v, dt=1e-2)
        assert l2_dist(traj.final_field, p.evolve(u0, 1.0)) < 1e-13

    def test_sup_norm_with_conserved_quantity_bound(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(make_problem(g, v, u0, dt=1e-3, t_final=2.0,
                                       record_times=np.arange(0, 2.2, 0.2)))
        bound = snls.defocusing_sup_bound(traj.mass[0], traj.energy[0])
        assert np.max(traj.sup) <= 2.0 * bound

    def test_snapshot_lookup(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(make_problem(g, v, u0, record_times=[0.25, 0.5, 1.0]))
        assert traj.snapshot_index(0.5) == 2
        assert traj.snapshot_index(0.33) is None
        assert np.array_equal(traj.field_at(0.25).values, traj.fields[1].values)


class TestGuardsAndWarnings:
    @pytest.mark.parametrize(
        "amplitude, message",
        [(1e155, r"sup\|u\| = inf passed the guard at step 0,"),
         (1e70, r"sup\|u\| = nan passed the guard at step 1,")],
        ids=["square_overflows", "power_overflows"],
    )
    def test_guard_trips_on_overflow(self, amplitude, message):
        # re^2 overflows to inf in the first phase at 1e155, so sup|u| reads
        # inf at step 0 (a guard reading sup|u| <= inf would let it pass);
        # at 1e70 only |u|^5 overflows, and the NaN it makes shows at step 1
        g = snls.Grid(256, 40.0)
        problem = snls.NlsProblem(grid=g, v=np.zeros(256), alpha=5.0, dt=1e-3, t_final=0.01,
                                  u0=snls.gaussian_packet(g, amplitude=amplitude))
        with pytest.raises(InstabilityError, match=message):
            snls.solve(problem)

    def test_snapshots_keep_no_multiplier_per_remainder(self):
        # 200 record times off the step lattice end 200 spans on distinct
        # remainder substeps; a kernel that kept a multiplier for each would
        # hold about 200 snapshot sizes.  The first run takes the imports and
        # caches that a run loads once.
        g = snls.Grid(512, 40.0)
        v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), g)
        times = np.cumsum(np.random.default_rng(3).uniform(0.011, 0.029, 200))
        problem = make_problem(g, v, snls.gaussian_packet(g, amplitude=0.5), dt=1e-2,
                               t_final=float(times[-1]), record_times=times)
        assert sum(bool(substep_sizes(t, 1e-2)[1]) for t in np.diff(times)) > 190
        for _ in solver_mod._snapshots([problem]):
            pass
        tracemalloc.start()
        try:
            for _ in solver_mod._snapshots([problem]):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 512 * 16

    def test_wraparound_warning(self):
        g = snls.Grid(256, 30.0)
        u0 = snls.gaussian_packet(g, momentum=2.0)
        prob = snls.NlsProblem(grid=g, v=np.zeros(256), alpha=5.0, u0=u0,
                               dt=1e-2, t_final=6.0)
        with pytest.warns(UserWarning, match="wrap-around"):
            traj = snls.solve(prob)
        assert any("wrap-around" in w for w in traj.warnings)

    def test_resolution_warning(self):
        g = snls.Grid(64, 40.0)
        u0 = snls.gaussian_packet(g, width=0.4)
        prob = snls.NlsProblem(grid=g, v=np.zeros(64), alpha=5.0, u0=u0,
                               dt=1e-2, t_final=0.1)
        with pytest.warns(UserWarning, match="resolution"):
            traj = snls.solve(prob)
        assert any("resolution" in w for w in traj.warnings)

    def test_clean_run_has_no_warnings(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = snls.solve(make_problem(g, v, u0, t_final=0.5))
        assert traj.warnings == ()


class TestStackedSolve:
    def test_guard_names_the_one_row_that_overflows(self):
        # only the middle row's |u|^alpha overflows; the error names it
        g = snls.Grid(256, 40.0)
        problems = [
            snls.NlsProblem(grid=g, v=np.zeros(256), alpha=5.0, dt=1e-3, t_final=0.01,
                            u0=snls.gaussian_packet(g, amplitude=a))
            for a in (0.5, 1e70, 0.5)
        ]
        with pytest.raises(InstabilityError, match=r"nan in row 1 passed the guard"):
            solve_stack(problems)
        # each other row alone runs clean
        for p in problems[::2]:
            assert np.isfinite(snls.solve(p).final_field.values).all()

    def test_rows_must_share_the_flow(self, setup):
        g, v = setup
        u0 = snls.gaussian_packet(g)
        with pytest.raises(ParameterError, match="share"):
            solve_stack([make_problem(g, v, u0), make_problem(g, v, u0, dt=2e-3)])
        with pytest.raises(ParameterError, match="share"):
            solve_stack([make_problem(g, v, u0), make_problem(g, 0.5 * v, u0)])
