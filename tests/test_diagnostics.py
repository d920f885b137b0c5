import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import snls
from snls import diagnostics, solver
from snls.errors import InsufficientDataError, ParameterError
from snls.potentials import (
    PotentialFamily,
    PotentialSpec,
    build_potential,
    build_potential_derivative,
)

from conftest import random_field


@pytest.fixture(scope="module")
def barrier_medium():
    g = snls.Grid(2048, 100.0)
    spec = PotentialSpec(height=2.0, width=1.0)
    return g, build_potential(spec, g), build_potential_derivative(spec, g)


class TestEnergy:
    def test_zero_field(self, grid_small):
        z = snls.ComplexField(grid_small, np.zeros(grid_small.n_points))
        assert snls.energy(z, np.zeros(grid_small.n_points), 5.0) == 0.0

    def test_gaussian_frozen_value(self):
        # oracle: (1/2)(integral 4x^2 e^{-2x^2} + (2/7) integral e^{-7x^2})
        #       = (1/2)(sqrt(pi/2) + (2/7) sqrt(pi/7))
        g = snls.Grid(2048, 40.0)
        f = snls.gaussian_packet(g)
        expected = 0.5 * (math.sqrt(math.pi / 2) + (2.0 / 7.0) * math.sqrt(math.pi / 7))
        assert snls.energy(f, np.zeros(g.n_points), 5.0) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.7223605808992756, rel=1e-12)

    def test_constant_potential_adds_half_mass(self, grid_medium):
        f = snls.gaussian_packet(grid_medium)
        e0 = snls.energy(f, np.zeros(grid_medium.n_points), 5.0)
        e1 = snls.energy(f, np.ones(grid_medium.n_points), 5.0)
        assert e1 - e0 == pytest.approx(0.5 * snls.l2_norm_sq(f), rel=1e-12)

    def test_linear_flag_drops_well(self, grid_medium):
        f = snls.gaussian_packet(grid_medium)
        v = np.zeros(grid_medium.n_points)
        full = snls.energy(f, v, 5.0)
        lin = snls.energy(f, v, 5.0, linear=True)
        nl = 0.5 * (2.0 / 7.0) * math.sqrt(math.pi / 7)
        assert full - lin == pytest.approx(nl, abs=1e-10)

    def test_constancy_along_solve(self, barrier_medium):
        g, v, _ = barrier_medium
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(
            snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=1e-3, t_final=2.0,
                            record_times=np.arange(0.0, 2.2, 0.25))
        )
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-6


class TestH1V:
    def test_flat_reduces_to_h1(self, grid_medium, rng):
        f = random_field(grid_medium, rng)
        assert snls.h1v_norm_sq(f, np.zeros(grid_medium.n_points)) == pytest.approx(
            snls.h1_norm_sq(f), rel=1e-12
        )

    def test_unit_potential_additivity(self, grid_medium, rng):
        f = random_field(grid_medium, rng)
        assert snls.h1v_norm_sq(f, np.ones(grid_medium.n_points)) == pytest.approx(
            snls.h1_norm_sq(f) + snls.l2_norm_sq(f), rel=1e-12
        )


class TestExponents:
    def test_alpha_five(self):
        ex = snls.exponents(5.0)
        assert ex.r == 7.0
        assert ex.p == pytest.approx(Fraction(70, 9), rel=1e-15)
        assert ex.q == pytest.approx(Fraction(35, 13), rel=1e-15)

    def test_alpha_six(self):
        ex = snls.exponents(6.0)
        assert ex.r == 8.0
        assert ex.p == pytest.approx(9.6, rel=1e-15)
        assert ex.q == pytest.approx(Fraction(48, 19), rel=1e-15)

    @pytest.mark.parametrize("alpha", [4.1, 4.5, 5.0, 6.0, 8.0, 10.0])
    def test_ordering(self, alpha):
        ex = snls.exponents(alpha)
        assert ex.p > ex.q > 2.0
        assert ex.r > 6.0

    def test_range_error_and_permissive(self):
        # p and q would be nan at an infinite power, and inf or nan past 9.48e153
        for alpha in (4.0, np.inf, np.nan, 1e300, 9.480751908109177e153):
            with pytest.raises(ParameterError, match="alpha must be finite and > 4"):
                snls.exponents(alpha)
        assert np.isfinite(snls.exponents(9.480751908109176e153).p)
        with pytest.raises(TypeError):
            snls.exponents(3.0, permissive=True)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_accepts_the_powers_a_problem_accepts(self, alpha):
        g = snls.Grid(16, 10.0)
        u0 = snls.ComplexField(g, np.zeros(16))

        def accepted(make):
            try:
                make()
            except ParameterError:
                return False
            return True

        solvable = accepted(lambda: snls.NlsProblem(grid=g, v=np.zeros(16), alpha=alpha, u0=u0,
                                                    dt=0.1, t_final=1.0))
        assert accepted(lambda: snls.exponents(alpha)) == solvable
        if solvable:
            ex = snls.exponents(alpha)
            assert all(np.isfinite([ex.r, ex.p, ex.q]))


class TestAdmissibility:
    @pytest.mark.parametrize("a,b", [(np.inf, 2.0), (4.0, np.inf), (8.0, 4.0)])
    def test_admissible_pairs(self, a, b):
        assert snls.StrichartzPair(a, b).is_admissible()

    @pytest.mark.parametrize("a,b", [(4.0, 4.0), (np.inf, np.inf), (2.0, 2.0)])
    def test_non_admissible_pairs(self, a, b):
        assert not snls.StrichartzPair(a, b).is_admissible()

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            snls.StrichartzPair(1.5, 2.0)


class TestStrichartzNorm:
    def _free_trajectory(self, g, u0, t_final, stride):
        times = np.arange(0.0, t_final + stride / 2, stride)
        return snls.solve(
            snls.NlsProblem(grid=g, v=np.zeros(g.n_points), alpha=5.0, u0=u0,
                            dt=0.05, t_final=t_final, record_times=times, linear=True)
        )

    def test_zero_trajectory(self, grid_medium):
        z = snls.ComplexField(grid_medium, np.zeros(grid_medium.n_points))
        traj = self._free_trajectory(grid_medium, z, 1.0, 0.1)
        assert snls.strichartz_norm(traj, 70.0 / 9.0, 7.0) == 0.0

    def test_homogeneity(self, grid_medium):
        u0 = snls.gaussian_packet(grid_medium)
        t1 = self._free_trajectory(grid_medium, u0, 1.0, 0.1)
        u0c = snls.ComplexField(grid_medium, 0.5j * u0.values)
        t2 = self._free_trajectory(grid_medium, u0c, 1.0, 0.1)
        n1 = snls.strichartz_norm(t1, 70.0 / 9.0, 7.0)
        n2 = snls.strichartz_norm(t2, 70.0 / 9.0, 7.0)
        assert n2 == pytest.approx(0.5 * n1, rel=1e-10)

    def test_quadrature_stability_under_refinement(self):
        g = snls.Grid(2048, 400.0)
        u0 = snls.gaussian_packet(g)
        coarse = self._free_trajectory(g, u0, 20.0, 0.1)
        fine = self._free_trajectory(g, u0, 20.0, 0.05)
        ex = snls.exponents(5.0)
        nc = snls.strichartz_norm(coarse, ex.p, ex.r)
        nf = snls.strichartz_norm(fine, ex.p, ex.r)
        assert abs(nc - nf) / nf < 0.02

    def test_sup_in_time(self, grid_medium):
        u0 = snls.gaussian_packet(grid_medium)
        traj = self._free_trajectory(grid_medium, u0, 1.0, 0.1)
        val = snls.strichartz_norm(traj, np.inf, 2.0)
        assert val == pytest.approx(snls.l2_norm_sq(u0) ** 0.5, rel=1e-10)

    def test_coverage_warning(self, grid_medium):
        u0 = snls.gaussian_packet(grid_medium)
        traj = self._free_trajectory(grid_medium, u0, 2.0, 0.5)
        with pytest.warns(UserWarning, match="coverage"):
            snls.strichartz_norm(traj, np.inf, 2.0)

    def test_flagged_pair_warning(self, grid_medium):
        u0 = snls.gaussian_packet(grid_medium)
        traj = self._free_trajectory(grid_medium, u0, 1.0, 0.1)
        with pytest.warns(UserWarning, match="neither admissible"):
            snls.strichartz_norm(traj, 3.0, 5.0)


# finite reals with ties, signed zeros and subnormals; within +-1e300 so
# that the sum of the two middle values cannot overflow
median_reals = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324]),
    st.floats(-1e300, 1e300),
)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 8)),
                  elements=median_reals))
def test_median_is_np_median_bit_for_bit(stack):
    # (K, N) rows as in the profile candidate, a real-part view, and a 1-D
    # series as in the Strichartz spacing
    for a in (stack, stack.astype(complex).real, stack[:, 0]):
        ours, ref = diagnostics._median(a), np.median(a, axis=0)
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))


class TestDecayRatio:
    def test_free_matches_closed_form(self):
        # exact law for psi = exp(-x^2): ratio(t) = (4 pi)^(-1/2) (1 + 1/(16 t^2))^(-1/4)
        g = snls.Grid(4096, 800.0)
        psi = snls.gaussian_packet(g)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        times = np.array([1.0, 2.0, 5.0, 10.0])
        ratios = snls.decay_ratio(p, psi, times)
        law = snls.free_decay_constant() * (1.0 + 1.0 / (16.0 * times**2)) ** -0.25
        assert np.max(np.abs(ratios - law)) < 1e-6
        assert np.all(ratios <= snls.free_decay_constant() * (1 + 1e-3))
        assert np.all(np.diff(ratios) > 0)  # approaches the constant from below

    def test_constant_potential_same_moduli(self):
        g = snls.Grid(1024, 200.0)
        psi = snls.gaussian_packet(g)
        times = np.array([1.0, 3.0])
        r0 = snls.decay_ratio(snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.02), psi, times)
        r1 = snls.decay_ratio(snls.PerturbedPropagator(g, np.ones(g.n_points), dt=0.02), psi, times)
        assert np.allclose(r0, r1, rtol=1e-12)

    def test_validation(self, grid_small):
        psi = snls.gaussian_packet(grid_small)
        p = snls.PerturbedPropagator(grid_small, np.zeros(grid_small.n_points), dt=0.02)
        with pytest.raises(ParameterError):
            snls.decay_ratio(p, psi, [0.0, 1.0])
        with pytest.raises(ParameterError):
            snls.decay_ratio(p, psi, [2.0, 1.0])
        zero = snls.ComplexField(grid_small, np.zeros(grid_small.n_points))
        with pytest.raises(ParameterError):
            snls.decay_ratio(p, zero, [1.0])

    def test_boundary_contamination_warning(self):
        g = snls.Grid(256, 30.0)
        psi = snls.gaussian_packet(g)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        with pytest.warns(UserWarning, match="boundary"):
            snls.decay_ratio(p, psi, [1.0, 5.0, 20.0])


@pytest.fixture(scope="module")
def dyadic_trajectory():
    # 161 snapshots on a stride of 1/64: every snapshot time and spacing is
    # exact, so a report on any sub-window uses the same h as the full one
    g = snls.Grid(512, 64.0)
    spec = PotentialSpec(height=2.0, width=1.0)
    traj = snls.solve(
        snls.NlsProblem(grid=g, v=build_potential(spec, g), alpha=5.0,
                        u0=snls.gaussian_packet(g), dt=1.0 / 256, t_final=2.5,
                        record_times=np.arange(161) / 64.0)
    )
    return traj, build_potential_derivative(spec, g)


class TestMorawetz:
    def _linear_trajectory(self, g, v, u0, stride, t_final=2.0, dt=2.5e-4):
        times = np.arange(0.0, t_final + stride / 2, stride)
        return snls.solve(
            snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=dt, t_final=t_final,
                            record_times=times, linear=True)
        )

    def test_zero_trajectory(self, barrier_medium):
        g, v, vp = barrier_medium
        z = snls.ComplexField(g, np.zeros(g.n_points))
        traj = self._linear_trajectory(g, v, z, 0.1, dt=0.01)
        rep = snls.morawetz_report(traj, vprime=vp)
        assert np.all(rep.density_series == 0)
        assert np.all(rep.residual_series == 0)
        assert np.all(rep.repulsive_series == 0)
        assert rep.integral_value == 0.0

    def test_insufficient_snapshots(self, barrier_medium):
        g, v, vp = barrier_medium
        u0 = snls.gaussian_packet(g)
        traj = self._linear_trajectory(g, v, u0, 1.0, dt=0.01)
        with pytest.raises(InsufficientDataError):
            snls.morawetz_report(traj, vprime=vp)

    def test_nonuniform_spacing_rejected(self, barrier_medium):
        g, v, vp = barrier_medium
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(
            snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=0.01, t_final=2.0,
                            record_times=[1.0, 1.1, 1.3, 2.0], linear=True)
        )
        with pytest.raises(ParameterError):
            snls.morawetz_report(traj, vprime=vp)

    @pytest.mark.parametrize("t_min", [0.0, -1.0, 1e-13])
    def test_t_min_must_select_only_positive_times(self, dyadic_trajectory, t_min):
        # the weight sqrt(t^2 + x^2) vanishes at t = x = 0
        traj, vp = dyadic_trajectory
        with pytest.raises(ParameterError, match="t > 0"):
            snls.morawetz_report(traj, t_min=t_min, vprime=vp)

    def test_vprime_is_required(self, dyadic_trajectory):
        # dV/dx comes from potentials, never from a difference of the samples
        traj, _ = dyadic_trajectory
        with pytest.raises(TypeError):
            snls.morawetz_report(traj)

    def test_linear_residual_small_and_second_order(self):
        # smooth steplike potential: the only residual is time differencing
        g = snls.Grid(1024, 100.0)
        spec = PotentialSpec(family=PotentialFamily.LOGISTIC_STEP, height=1.0, width=1.0)
        v = build_potential(spec, g)
        vp = build_potential_derivative(spec, g)
        u0 = snls.gaussian_packet(g, width=2.0)
        r = {}
        for stride in (1e-2, 5e-3):
            traj = self._linear_trajectory(g, v, u0, stride, t_final=1.6)
            rep = snls.morawetz_report(traj, vprime=vp)
            r[stride] = np.max(rep.residual_series)
        assert r[1e-2] < 1e-4
        assert r[1e-2] / r[5e-3] > 3.0

    def test_equation_mode(self, barrier_medium):
        g, v, vp = barrier_medium
        u0 = snls.gaussian_packet(g, width=2.0)
        traj = self._linear_trajectory(g, v, u0, 1e-2, t_final=1.5)
        rep = snls.morawetz_report(traj, time_derivative="equation", vprime=vp)
        assert np.max(rep.residual_series) < 1e-2
        with pytest.raises(ParameterError):
            snls.morawetz_report(traj, time_derivative="secant", vprime=vp)

    def test_repulsive_term_nonnegative(self, barrier_medium):
        g, v, vp = barrier_medium
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(
            snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=1e-3, t_final=2.0,
                            record_times=np.arange(0.0, 2.05, 0.05))
        )
        rep = snls.morawetz_report(traj, vprime=vp)
        assert rep.min_repulsive_density >= 0.0
        assert np.all(rep.repulsive_series >= 0.0)
        assert np.all(rep.density_series >= 0.0)

    def test_report_holds_a_window_not_the_trajectory(self, dyadic_trajectory, monkeypatch):
        # one derivative and bracket per selected snapshot would be 129 snapshots'
        # worth here; a three-snapshot window needs a bounded number, and the
        # report works on raw arrays, building no ComplexField
        traj, vp = dyadic_trajectory
        n = traj.problem.grid.n_points
        built = []
        init = snls.ComplexField.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(snls.ComplexField, "__init__", counting_init)
        tracemalloc.start()
        try:
            snls.morawetz_report(traj, t_min=0.5, vprime=vp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not built
        assert peak < 40 * n * 16

    @pytest.mark.parametrize("mode", ["difference", "equation"])
    def test_entry_depends_on_its_window_only(self, dyadic_trajectory, mode):
        traj, vp = dyadic_trajectory
        full = snls.morawetz_report(traj, time_derivative=mode, t_min=0.5, vprime=vp)
        for j in (33, 36, 159):  # first interior, inside, last interior
            window = dataclasses.replace(
                traj, times=traj.times[j - 1:j + 2], fields=traj.fields[j - 1:j + 2]
            )
            one = snls.morawetz_report(
                window, time_derivative=mode, t_min=traj.times[j - 1], vprime=vp
            )
            k = int(np.flatnonzero(full.times == traj.times[j])[0])
            assert one.times.tolist() == [traj.times[j]]
            assert one.density_series[0] == full.density_series[k]
            assert one.residual_series[0] == full.residual_series[k]
            assert one.repulsive_series[0] == full.repulsive_series[k]


    @pytest.mark.parametrize("mode", ["difference", "equation"])
    def test_streamed_window_is_the_report_on_solve(self, dyadic_trajectory, mode):
        # the window fed from the solver's snapshot stream, as the morawetz
        # runner feeds it, against the report on the stored trajectory
        traj, vp = dyadic_trajectory
        problem = traj.problem
        times = diagnostics._morawetz_times(problem.record_times, mode, 0.5)
        skip = problem.record_times.size - times.size
        stream = (f.values for k, (f,) in enumerate(solver._snapshots([problem])) if k >= skip)
        streamed = diagnostics._morawetz_window(problem, times, stream, mode, vp)
        full = snls.morawetz_report(traj, time_derivative=mode, t_min=0.5, vprime=vp)
        assert streamed.times.tolist() == full.times.tolist()
        assert streamed.density_series.tolist() == full.density_series.tolist()
        assert streamed.residual_series.tolist() == full.residual_series.tolist()
        assert streamed.repulsive_series.tolist() == full.repulsive_series.tolist()
        assert streamed.integral_value == full.integral_value


@pytest.mark.sympy
class TestSymbolicOracle:
    """The multiplier-identity algebra, checked against independent symbolic
    differentiation on generic (non-solution) fields."""

    def test_weight_derivatives(self):
        sp = pytest.importorskip("sympy")
        t, x = sp.symbols("t x", positive=True)
        lam = sp.sqrt(t**2 + x**2)
        g = -(t**2) / lam**3 - sp.I * t / lam
        dg = sp.simplify(sp.diff(g, x) - (3 * t**2 * x / lam**5 + sp.I * t * x / lam**3))
        assert sp.simplify(dg) == 0
        d2g_re = sp.simplify(
            sp.re(sp.expand(sp.diff(g, x, 2))) - 3 * t**2 * (t**2 - 4 * x**2) / lam**7
        )
        assert sp.simplify(d2g_re) == 0

    def test_full_identity_on_generic_fields(self):
        sp = pytest.importorskip("sympy")
        t, x = sp.symbols("t x", real=True)
        alpha = sp.Rational(5)
        ur = sp.sin(2 * t + 3 * x) * sp.exp(-(x**2) / 5)
        ui = sp.cos(t - x) * sp.exp(-((x - 1) ** 2) / 4)
        V = 2 * sp.exp(-(x**2) / 3) + 1 / (1 + sp.exp(-x))

        u = ur + sp.I * ui
        uc = ur - sp.I * ui
        rho = ur**2 + ui**2
        lam = sp.sqrt(t**2 + x**2)
        a = -2 * x / lam
        g = -(t**2) / lam**3 - sp.I * t / lam
        du = sp.diff(u, x)
        dtu = sp.diff(u, t)
        m = a * du + g * u

        eqn = sp.I * dtu + sp.diff(u, x, 2) - V * u - rho ** (alpha / 2) * u
        lhs = sp.re(sp.expand(eqn * sp.conjugate(m)))

        P = a * sp.im(sp.expand(uc * du)) - t * rho / lam
        big_g = (alpha / (alpha + 2)) * rho ** ((alpha + 2) / 2)
        du_r, du_i = sp.re(sp.expand(du)), sp.im(sp.expand(du))
        dtu_r, dtu_i = sp.re(sp.expand(dtu)), sp.im(sp.expand(dtu))
        lv = sp.Rational(1, 2) * (
            (ur * dtu_i - ui * dtu_r)
            + (du_r**2 + du_i**2)
            + 2 * rho ** ((alpha + 2) / 2) / (alpha + 2)
            + V * rho
        )
        flux = sp.re(sp.expand(du * sp.conjugate(m))) - a * lv - sp.re(sp.diff(g, x)) * rho / 2
        z = 2 * sp.I * t * du + x * u
        mod_sq = sp.re(sp.expand(z)) ** 2 + sp.im(sp.expand(z)) ** 2
        rhs = (
            sp.Rational(1, 2) * sp.diff(P, t)
            + sp.diff(flux, x)
            + t**2 * big_g / lam**3
            + rho / 2 * sp.re(sp.expand(sp.diff(g, x, 2)))
            + mod_sq / (2 * lam**3)
            - x * sp.diff(V, x) * rho / lam
        )
        expr = lhs - rhs
        for tv, xv in [(1.3, 0.7), (2.1, -1.9), (0.6, 2.4), (3.7, -0.3)]:
            val = expr.subs({t: sp.Float(tv, 30), x: sp.Float(xv, 30)}).evalf(30)
            assert abs(float(val)) < 1e-25
