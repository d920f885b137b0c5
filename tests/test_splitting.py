"""Property tests of the fused splitting kernel against the unmerged loop.

The references below are the two-half-phase Strang loops the kernel
replaced, copied unchanged apart from the blow-up guard and keeping raw
arrays as snapshots.  The kernel merges
the closing half phase of each step with the opening half phase of the next
and evaluates |u|^alpha as (re^2 + im^2)^(alpha/2), so the two must agree to
roundoff on every snapshot.

``PerturbedPropagator.evolve_through`` samples the linear flow at a list of
times in one sweep; it must reproduce chained ``evolve`` calls bit for bit
on the splitting path and to roundoff on the eigendecomposition path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snls
from snls.errors import GridMismatchError, ParameterError
from snls.propagators import substep_sizes

examples = settings(max_examples=30, deadline=None, derandomize=True, database=None)
# coarse grids trip the resolution and wrap-around monitors, which these
# comparisons of two integrators do not depend on
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

TOL = 1e-12


def _nl_phase(u: np.ndarray, v: np.ndarray, alpha: float, tau: float, linear: bool):
    if linear:
        return np.exp(-1j * tau * v), 0.0
    amp = np.abs(u)
    return np.exp(-1j * tau * (v + amp**alpha)), float(amp.max())


def reference_solve(problem):
    """Snapshots of the unmerged loop: two half phases per step."""
    grid = problem.grid
    xi2 = grid.wavenumbers**2
    v = problem.v
    alpha = problem.alpha
    linear = problem.linear
    u = problem.u0.values.copy()
    record = problem.record_times
    snaps = [u.copy()]
    kin_dt = np.exp(-1j * problem.dt * xi2)

    for seg in range(1, record.size):
        span = record[seg] - record[seg - 1]
        n_full, rem = substep_sizes(span, problem.dt)
        steps = [problem.dt] * n_full + ([rem] if rem > 0.0 else [])
        for h in steps:
            kin = kin_dt if h == problem.dt else np.exp(-1j * h * xi2)
            ph, amax = _nl_phase(u, v, alpha, 0.5 * h, linear)
            u = np.fft.ifft(kin * np.fft.fft(ph * u))
            ph, amax = _nl_phase(u, v, alpha, 0.5 * h, linear)
            u = ph * u
        snaps.append(u.copy())
    return snaps


def reference_strang(p, values: np.ndarray, t: float) -> np.ndarray:
    """The unmerged linear loop of ``PerturbedPropagator``."""
    n_full, rem = substep_sizes(t, p.dt)
    backward = t < 0
    kin = np.exp(-1j * p.dt * p.grid.wavenumbers**2)
    half = np.exp(-0.5j * p.dt * p.v)
    if backward:
        kin, half = np.conj(kin), np.conj(half)
    u = values
    for _ in range(n_full):
        u = half * np.fft.ifft(kin * np.fft.fft(half * u))
    if rem > 0.0:
        h = -rem if backward else rem
        kin_r = np.exp(-1j * h * p.grid.wavenumbers**2)
        half_r = np.exp(-0.5j * h * p.v)
        u = half_r * np.fft.ifft(kin_r * np.fft.fft(half_r * u))
    return u


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / scale) if scale else float(np.linalg.norm(a))


def setting(n_exp, height, amplitude, momentum):
    grid = snls.Grid(2**n_exp, 30.0)
    v = snls.build_potential(snls.PotentialSpec(height=height, width=1.0), grid)
    u0 = snls.gaussian_packet(grid, amplitude=amplitude, width=2.0, momentum=momentum)
    return grid, v, u0


grids = st.integers(4, 8)  # N = 16 .. 256
heights = st.floats(1.0, 3.0)  # a matched step needs height >= a_plus = 1
amplitudes = st.floats(0.05, 1.0)
momenta = st.floats(-2.0, 2.0)
# gaps between record times, drawn off the step lattice so that most
# segments end on a shrunken remainder substep
gaps = st.lists(st.floats(0.013, 0.4), min_size=1, max_size=4)


@examples
@given(grids, heights, amplitudes, momenta, st.floats(2e-3, 2e-2), gaps,
       st.floats(4.5, 7.0), st.booleans())
def test_solve_matches_unmerged_loop(n_exp, height, amplitude, momentum, dt, gaps,
                                     alpha, linear):
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    record = np.cumsum(gaps)
    problem = snls.NlsProblem(grid=grid, v=v, alpha=alpha, u0=u0, dt=dt,
                              t_final=float(record[-1]), record_times=record,
                              linear=linear)
    traj = snls.solve(problem)
    ref = reference_solve(problem)
    assert len(traj.fields) == len(ref)
    for f, r in zip(traj.fields, ref):
        assert rel_l2(f.values, r) <= TOL
    m0 = traj.mass[0]
    assert np.max(np.abs(traj.mass - m0)) <= TOL * m0


@examples
@given(grids, heights, amplitudes, momenta, st.floats(5e-3, 0.1),
       st.lists(st.floats(-1.5, 1.5).filter(lambda t: t != 0.0), min_size=1, max_size=4))
def test_propagator_matches_unmerged_loop(n_exp, height, amplitude, momentum, dt, times):
    # successive calls on one instance, forward and backward, so the kept
    # multipliers of both signs are reused across calls
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    p = snls.PerturbedPropagator(grid, v, dt=dt)
    cur, ref = u0, u0.values
    m0 = snls.l2_norm_sq(u0)
    for t in times:
        cur = p.evolve(cur, t)
        ref = reference_strang(p, ref, t)
        assert rel_l2(cur.values, ref) <= TOL
        assert abs(snls.l2_norm_sq(cur) - m0) <= TOL * m0


@examples
@given(st.integers(0, 2**32 - 1), st.floats(4.5, 7.0), st.floats(-1.0, 1.0),
       st.floats(1e-3, 10.0))
def test_phase_substep_keeps_modulus(seed, alpha, dt, scale):
    rng = np.random.default_rng(seed)
    grid = snls.Grid(64, 20.0)
    vals = scale * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    v = rng.uniform(-2.0, 2.0, 64)
    out = snls.phase_substep(snls.ComplexField(grid, vals), v, alpha, dt)
    np.testing.assert_allclose(np.abs(out.values), np.abs(vals), rtol=1e-14, atol=0)




def _repeat(times, k):
    k %= len(times)
    return times[: k + 1] + times[k:]


# mixed signs, gaps off the step lattice, and one time repeated in place
time_lists = st.builds(_repeat, st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
                       st.integers(0, 4))


def chained(p, f, times):
    out, t_prev = [], 0.0
    for t in times:
        f = p.evolve(f, t - t_prev)
        out.append(f)
        t_prev = t
    return out


@examples
@given(grids, heights, amplitudes, momenta, st.floats(5e-3, 0.1), time_lists)
def test_evolve_through_splitting_is_chained_evolve(n_exp, height, amplitude, momentum,
                                                    dt, times):
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    p = snls.PerturbedPropagator(grid, v, dt=dt)
    swept = list(p.evolve_through(u0, times))
    assert len(swept) == len(times)
    for a, b in zip(swept, chained(p, u0, times)):
        assert np.array_equal(a.values, b.values)


@examples
@given(grids, heights, amplitudes, momenta, time_lists)
def test_evolve_through_eigendecomposition_matches_chained(n_exp, height, amplitude,
                                                           momentum, times):
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    p = snls.PerturbedPropagator(grid, v, method="eigendecomposition")
    swept = list(p.evolve_through(u0, times))
    assert len(swept) == len(times)
    for a, b in zip(swept, chained(p, u0, times)):
        assert rel_l2(a.values, b.values) <= TOL


@examples
@given(st.sampled_from(snls.PerturbedPropagator.METHODS), time_lists, st.integers(0, 5),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_evolve_through_rejects_bad_input(method, times, at, bad):
    # the errors are raised at the call, before any time is visited
    grid, v, u0 = setting(4, 1.5, 0.5, 0.0)
    p = snls.PerturbedPropagator(grid, v, method=method)
    with pytest.raises(ParameterError):
        p.evolve_through(u0, times[:at] + [bad] + times[at:])
    other = snls.gaussian_packet(snls.Grid(grid.n_points, 2.0 * grid.length))
    with pytest.raises(GridMismatchError):
        p.evolve_through(other, times)
