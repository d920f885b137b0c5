"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  All tolerances are fixed here, not tuned
at runtime."""

import math
import time

import numpy as np
import pytest

import snls
from snls.grid import translate
from snls.potentials import (
    PotentialFamily,
    PotentialSpec,
    build_potential,
    build_potential_derivative,
)

from conftest import h1_dist, l2_dist
from oracle import EigenPropagator

pytestmark = pytest.mark.acceptance

CANONICAL = PotentialSpec(height=2.0, width=1.0)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


class TestCriterion1Conservation:
    def test_conservation(self):
        t0 = time.perf_counter()
        g = snls.Grid(4096, 200.0)
        v = build_potential(CANONICAL, g)
        u0 = snls.gaussian_packet(g)
        rec = np.arange(0.0, 10.5, 1.0)

        traj = snls.solve(snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0,
                                          dt=1e-3, t_final=10.0, record_times=rec))
        mass_drift = np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0]
        energy_drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])

        traj_half = snls.solve(snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0,
                                               dt=5e-4, t_final=10.0, record_times=rec))
        drift_half = np.max(np.abs(traj_half.energy - traj_half.energy[0])) / abs(
            traj_half.energy[0]
        )
        reduction = energy_drift / drift_half
        elapsed = time.perf_counter() - t0

        ok = mass_drift < 1e-10 and energy_drift < 1e-6 and reduction >= 3.5
        _report(
            1,
            "conservation",
            ok,
            f"mass drift {mass_drift:.2e} (<1e-10), energy drift {energy_drift:.2e} "
            f"(<1e-6), dt-halving reduction {reduction:.2f}x (>=3.5), {elapsed:.0f}s",
        )


class TestCriterion2PropagatorOracle:
    def test_strang_vs_eigendecomposition(self):
        t0 = time.perf_counter()
        g = snls.Grid(256, 40.0)
        v = build_potential(CANONICAL, g)
        f = snls.gaussian_packet(g)

        strang = snls.PerturbedPropagator(g, v, dt=1e-3)
        eig = EigenPropagator(g, v)
        agreement = l2_dist(strang.evolve(f, 1.0), eig.evolve(f, 1.0))

        gl_eig = l2_dist(eig.evolve(eig.evolve(f, 0.7), 1.9), eig.evolve(f, 2.6))
        gl_strang = l2_dist(
            strang.evolve(strang.evolve(f, 0.25), 0.5), strang.evolve(f, 0.75)
        )
        m0 = snls.l2_norm_sq(f)
        unit_strang = abs(snls.l2_norm_sq(strang.evolve(f, 5.0)) - m0) / m0
        unit_eig = abs(snls.l2_norm_sq(eig.evolve(f, 5.0)) - m0) / m0
        h0 = snls.h1v_norm_sq(f, v)
        h1v_drift = max(
            abs(snls.h1v_norm_sq(eig.evolve(f, t), v) - h0) / h0 for t in (0.5, 3.0, 11.0)
        )
        elapsed = time.perf_counter() - t0

        ok = (
            agreement < 1e-6
            and gl_eig < 1e-10
            and gl_strang < 1e-12
            and unit_strang < 1e-11
            and unit_eig < 1e-11
            and h1v_drift < 1e-8
        )
        _report(
            2,
            "propagator oracle",
            ok,
            f"strang-vs-eig {agreement:.2e} (<1e-6), group law eig {gl_eig:.1e} / "
            f"strang {gl_strang:.1e}, unitarity {max(unit_strang, unit_eig):.1e}, "
            f"H1_V drift {h1v_drift:.1e} (<1e-8), {elapsed:.0f}s",
        )


class TestCriterion3DispersiveDecay:
    TIMES = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])

    def test_free_bound(self):
        t0 = time.perf_counter()
        g = snls.Grid(16384, 4096.0)
        psi = snls.gaussian_packet(g)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        ratios = snls.decay_ratio(p, psi, self.TIMES)
        bound = snls.free_decay_constant() * (1.0 + 1e-3)
        elapsed = time.perf_counter() - t0
        ok = bool(np.max(ratios) <= bound)
        _report(
            3,
            "dispersive decay, V=0",
            ok,
            f"max ratio {np.max(ratios):.8f} <= {bound:.8f}, {elapsed:.0f}s",
        )

    def test_steplike_bound(self):
        t0 = time.perf_counter()
        g = snls.Grid(8192, 2048.0)
        v = build_potential(CANONICAL, g)
        psi = snls.gaussian_packet(g)
        p = snls.PerturbedPropagator(g, v, dt=0.01)
        ratios = snls.decay_ratio(p, psi, self.TIMES)
        elapsed = time.perf_counter() - t0
        ok = bool(np.max(ratios) <= 1.0)
        _report(
            3,
            "dispersive decay, steplike",
            ok,
            f"max ratio {np.max(ratios):.4f} <= 1.0 over t in [1, 100], {elapsed:.0f}s",
        )


class TestCriterion4LinearChannels:
    def test_degenerate_cases_exact(self):
        t0 = time.perf_counter()
        g = snls.Grid(512, 100.0)
        psi = snls.gaussian_packet(g)
        p0 = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.02)
        pair0 = snls.channel_convergence_study(p0, psi, 2).pairs[-1]
        err0 = l2_dist(pair0.eta, psi) + snls.l2_norm_sq(pair0.gamma) ** 0.5
        p1 = snls.PerturbedPropagator(g, np.ones(g.n_points), dt=0.02)
        pair1 = snls.channel_convergence_study(p1, psi, 2).pairs[-1]
        err1 = snls.l2_norm_sq(pair1.eta) ** 0.5 + l2_dist(pair1.gamma, psi)
        elapsed = time.perf_counter() - t0
        ok = err0 < 1e-12 and err1 < 1e-12
        _report(
            4,
            "channels, degenerate",
            ok,
            f"V=0 error {err0:.2e}, V=1 error {err1:.2e} (both <1e-12), {elapsed:.0f}s",
        )

    def test_steplike_convergence(self):
        t0 = time.perf_counter()
        g = snls.Grid(8192, 800.0)
        v = build_potential(CANONICAL, g)
        psi = snls.gaussian_packet(g, width=2.0)
        p = snls.PerturbedPropagator(g, v, dt=2e-3)
        study = snls.channel_convergence_study(p, psi, 6)
        gaps = study.cauchy_gaps[1:]
        gaps_monotone = bool(np.all(np.diff(gaps) < 0))
        recon_monotone = bool(np.all(np.diff(study.reconstruction_defects) < 0))
        mass_defect = abs(study.mass_defects[-1])
        elapsed = time.perf_counter() - t0
        ok = gaps_monotone and recon_monotone and mass_defect < 1e-3
        _report(
            4,
            "channels, steplike",
            ok,
            f"cauchy gaps {gaps[0]:.3e}->{gaps[-1]:.3e} monotone={gaps_monotone}, "
            f"holdout defects {study.reconstruction_defects[0]:.3e}->"
            f"{study.reconstruction_defects[-1]:.3e} monotone={recon_monotone}, "
            f"mass defect {mass_defect:.1e} (<1e-3), {elapsed:.0f}s",
        )


class TestCriterion5NonlinearScattering:
    def test_wave_operator_and_reconstruction(self):
        t0 = time.perf_counter()
        # This box of L = 400 at dt = 2^-10 is the criterion's own grid, and
        # its tolerances were set on it.  It is no longer the shipped one:
        # configs/channels.cfg runs on L = 800 at dt = 2^-8, which holds the
        # channel study that this narrower box lets wrap around.
        g = snls.Grid(4096, 400.0)
        v = build_potential(CANONICAL, g)
        width = 2.0
        amp = 0.1 / math.sqrt(math.sqrt(math.pi / 2) * (width + 1.0 / width))
        u0 = snls.gaussian_packet(g, amplitude=amp, width=width)
        h1_u0 = snls.h1_norm_sq(u0) ** 0.5
        wave_times = [10.0, 20.0, 40.0]
        dt = 2.0**-10

        traj = snls.solve(snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=dt,
                                          t_final=40.0, record_times=wave_times))
        p = snls.PerturbedPropagator(g, v, dt=dt)
        states = [snls.nonlinear_wave_state(traj, p, T) for T in wave_times]
        gap1 = h1_dist(states[1], states[0])
        gap2 = h1_dist(states[2], states[1])

        study = snls.channel_convergence_study(p, states[-1], 6)
        final = study.pairs[-1]
        recon = (
            traj.field_at(40.0).values
            - snls.evolve_free(final.eta, 40.0).values
            - snls.evolve_shifted(final.gamma, 40.0).values
        )
        defect = snls.l2_norm_sq(snls.ComplexField(g, recon)) ** 0.5
        elapsed = time.perf_counter() - t0

        ok = gap2 < gap1 and defect < 1e-2 and abs(h1_u0 - 0.1) < 0.01
        _report(
            5,
            "nonlinear scattering + channels",
            ok,
            f"|u0|_H1={h1_u0:.3f}, wave gaps {gap1:.2e}->{gap2:.2e} decreasing, "
            f"end-to-end defect {defect:.2e} (<1e-2), {elapsed:.0f}s",
        )


class TestCriterion6Morawetz:
    def test_identity_residual_convergence(self):
        # smooth steplike profile: residual is pure time differencing
        t0 = time.perf_counter()
        g = snls.Grid(2048, 100.0)
        spec = PotentialSpec(family=PotentialFamily.LOGISTIC_STEP, height=1.0, width=1.0)
        v = build_potential(spec, g)
        vp = build_potential_derivative(spec, g)
        u0 = snls.gaussian_packet(g, width=2.0)
        residuals = {}
        for stride in (1e-2, 5e-3):
            times = np.arange(0.0, 2.0 + stride / 2, stride)
            traj = snls.solve(snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=2.5e-4,
                                              t_final=2.0, record_times=times, linear=True))
            rep = snls.morawetz_report(traj, vprime=vp)
            residuals[stride] = float(np.max(rep.residual_series))
        ratio = residuals[1e-2] / residuals[5e-3]
        elapsed = time.perf_counter() - t0
        ok = residuals[1e-2] < 1e-4 and ratio >= 3.0
        _report(
            6,
            "Morawetz residual",
            ok,
            f"residual {residuals[1e-2]:.2e} (<1e-4 at stride 1e-2), halving ratio "
            f"{ratio:.2f} (>=3, expected order 2), {elapsed:.0f}s",
        )

    def test_repulsive_sign_and_saturation(self):
        t0 = time.perf_counter()
        g = snls.Grid(2048, 256.0)
        v = build_potential(CANONICAL, g)
        vp = build_potential_derivative(CANONICAL, g)
        u0 = snls.gaussian_packet(g)
        traj = snls.solve(snls.NlsProblem(grid=g, v=v, alpha=5.0, u0=u0, dt=1e-3,
                                          t_final=16.0,
                                          record_times=np.arange(0.0, 16.05, 0.1)))
        rep = snls.morawetz_report(traj, vprime=vp)

        def increment(a, b):
            m = (rep.times >= a - 1e-9) & (rep.times <= b + 1e-9)
            return float(np.trapezoid(rep.density_series[m], rep.times[m]))

        incs = [increment(1, 2), increment(2, 4), increment(4, 8), increment(8, 16)]
        ratios = [incs[i + 1] / incs[i] for i in range(3)]
        nonneg = rep.min_repulsive_density >= 0.0 and bool(
            np.all(rep.repulsive_series >= 0.0)
        )
        elapsed = time.perf_counter() - t0
        ok = nonneg and all(r < 0.5 for r in ratios)
        _report(
            6,
            "Morawetz sign + saturation",
            ok,
            f"repulsive term nonneg={nonneg}, doubling increment ratios "
            f"{[f'{r:.2f}' for r in ratios]} (all <0.5), {elapsed:.0f}s",
        )


class TestCriterion7ProfileDecomposition:
    def test_fixtures(self):
        t0 = time.perf_counter()
        g = snls.Grid(1024, 200.0)
        p = snls.PerturbedPropagator(g, np.zeros(g.n_points), dt=0.05)
        rng = np.random.default_rng(42)

        base = snls.gaussian_packet(g)
        shifts = np.round(rng.uniform(-25, 25, size=6) / g.dx) * g.dx
        one = snls.greedy_profile_decomposition(
            [translate(base, s) for s in shifts], p, j_max=3, q_exponent=7.0
        )
        one_ok = (
            len(one.profiles) == 1
            and l2_dist(one.profiles[0].psi, base) < 1e-2
            and snls.l2_norm_sq(one.remainder) ** 0.5 < 1e-6
        )

        bump2 = snls.gaussian_packet(g, amplitude=0.8, width=1.5)
        family = []
        for n in range(6):
            a_n = round((12.5 + 3.2 * n) / g.dx) * g.dx
            family.append(snls.ComplexField(
                g, translate(base, a_n).values + translate(bump2, -a_n).values
            ))
        two = snls.greedy_profile_decomposition(family, p, j_max=4, q_exponent=7.0)
        errs = [min(l2_dist(pr.psi, base), l2_dist(pr.psi, bump2)) for pr in two.profiles]
        mass_defect_rel = abs(two.pythagorean_defects["mass"]) / snls.l2_norm_sq(family[-1])
        two_ok = len(two.profiles) == 2 and max(errs) < 1e-2 and mass_defect_rel < 0.05

        noise_family = [
            snls.ComplexField(g, 0.3 * (rng.standard_normal(g.n_points)
                                        + 1j * rng.standard_normal(g.n_points)))
            for _ in range(6)
        ]
        noise = snls.greedy_profile_decomposition(noise_family, p, j_max=2, q_exponent=7.0)
        noise_ok = len(noise.profiles) == 0
        elapsed = time.perf_counter() - t0

        ok = one_ok and two_ok and noise_ok
        _report(
            7,
            "profile decomposition",
            ok,
            f"one-bump error {l2_dist(one.profiles[0].psi, base):.1e} (<1e-2), two-bump "
            f"errors {[f'{e:.1e}' for e in errs]} (<1e-2) mass defect {mass_defect_rel:.1e} "
            f"(<5%), noise profiles {len(noise.profiles)} (=0), {elapsed:.0f}s",
        )


class TestCriterion8Exponents:
    def test_exact_arithmetic(self):
        t0 = time.perf_counter()
        ex = snls.exponents(5.0)
        exact = ex.r == 7.0 and ex.p == 70.0 / 9.0 and ex.q == 35.0 / 13.0
        table = (
            snls.StrichartzPair(np.inf, 2.0).is_admissible()
            and snls.StrichartzPair(4.0, np.inf).is_admissible()
            and snls.StrichartzPair(8.0, 4.0).is_admissible()
        )
        elapsed = time.perf_counter() - t0
        ok = exact and table
        _report(
            8,
            "exponent arithmetic",
            ok,
            f"(r,p,q)=({ex.r:g},{ex.p:.10g},{ex.q:.10g})==(7,70/9,35/13) exact={exact}, "
            f"admissible table={table}, {elapsed:.1f}s",
        )
