"""Property tests of the fused splitting kernel against the unmerged loop.

The references below are the two-half-phase Strang loops the kernel
replaced, copied unchanged apart from the blow-up guard and keeping raw
arrays as snapshots.  The kernel merges
the closing half phase of each step with the opening half phase of the next
and evaluates |u|^alpha as (re^2 + im^2)^(alpha/2), so the two must agree to
roundoff on every snapshot.

``PerturbedPropagator.evolve_through`` samples the linear flow at a list of
times in one sweep; it must reproduce one ``evolve`` call per time to
roundoff.  The eigendecomposition oracle of ``tests/oracle.py`` inherits
``evolve_through`` and must reproduce chained ``evolve`` calls to roundoff.
The same flow run on a (B, N) stack of rows must reproduce each row's own
sweep, and so must the profile search that runs its ensemble as one stack:
on the splitting its profiles, remainder and defects are those of a
per-member ``translate`` + ``evolve`` loop, bit for bit.
The nonlinear kernel on a stack with one power per row must reproduce each
row's own run bit for bit, and so must an ``evolve`` sweep run in stacks.
A constant V is one Fourier multiplier per time; that flow must agree
with the splitting kernel driven directly, and a V that is constant but
for one sample must still take the lattice sweep.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import snls
from snls.cli import main
from snls.errors import GridMismatchError, ParameterError
from snls.propagators import SMALL_ROTATION, local_phase, strang, strang_rules, substep_sizes
from snls.scattering import _lowpass, _median_field

from oracle import EigenPropagator

examples = settings(max_examples=30)
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
# the two realizations of the perturbed flow, built as (grid, v, dt=...)
builders = st.sampled_from([snls.PerturbedPropagator, EigenPropagator])
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
    vals = scale * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    v = rng.uniform(-2.0, 2.0, 64)
    out = vals.copy()
    local_phase(v, alpha, dt)(out, dt)
    np.testing.assert_allclose(np.abs(out), np.abs(vals), rtol=1e-14, atol=0)


def cos_sin_phase(u: np.ndarray, v: np.ndarray, alpha, tau: float) -> np.ndarray:
    """u * exp(-i*tau*(V + |u|^alpha)) as cos + i*sin of the whole angle, as the rule had it."""
    d = u.real * u.real + u.imag * u.imag
    angle = (np.power(d, 0.5 * alpha) + v) * -tau
    ph = np.empty_like(u)
    ph.real, ph.imag = np.cos(angle), np.sin(angle)
    return u * ph


def rotation_field(seed, n, alpha, tau, theta):
    """A random (n,) field whose sup|u| makes |tau| * sup|u|^alpha equal theta."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u * (theta / abs(tau)) ** (1.0 / alpha) / np.abs(u).max()


rotation_alphas = st.one_of(st.just(5.0), st.floats(4.5, 7.0))
taus = st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]), st.floats(1e-4, 0.1))


@examples
@given(st.integers(0, 2**32 - 1), rotation_alphas, taus,
       st.floats(-12.0, -4.0))
def test_small_rotation_phase_is_the_cos_sin_phase(seed, alpha, tau, log_theta):
    # amplitudes on both sides of the bound; below it a quintic rule skips cos/sin
    theta = 10.0**log_theta
    u = rotation_field(seed, 64, alpha, tau, theta)
    v = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, 64)
    ref = cos_sin_phase(u, v, alpha, tau)
    out = u.copy()
    amax = local_phase(v, alpha, 0.01)(out, tau)
    if alpha != 5.0 or abs(tau) * amax**alpha > SMALL_ROTATION * (1.0 + 1e-12):
        assert np.array_equal(out, ref)
    np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.abs(out), np.abs(u), rtol=1e-15, atol=0)


@examples
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(rotation_alphas, st.floats(-12.0, -4.0)),
       min_size=1, max_size=6), taus)
def test_stacked_small_rotation_phase_is_per_row_phase(seed, rows, tau):
    # rows on either side of the bound, quintic or not, each take their own form
    v = np.random.default_rng(seed).uniform(-2.0, 2.0, 64)
    alphas = np.array([[alpha] for alpha, _ in rows])
    stack = np.stack([rotation_field(seed + k, 64, alpha, tau, 10.0**log_theta)
                      for k, (alpha, log_theta) in enumerate(rows)])
    out = stack.copy()
    amax = local_phase(v, alphas, 0.01)(out, tau)
    for k, (alpha, _) in enumerate(rows):
        alone = stack[k].copy()
        assert amax[k] == local_phase(v, alpha, 0.01)(alone, tau)
        assert np.array_equal(out[k], alone)


def test_small_rotation_rule_holds_at_its_bound():
    # sup|u| is set so that theta = |tau| * sup|u|^5 = 9.999999999999999e-09,
    # within SMALL_ROTATION by one ulp; here the two forms differ bit for bit
    n, tau = 1024, 2.0**-11
    rng = np.random.default_rng(3)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u *= 0.11 / np.abs(u).max()
    u[10] = 0.11541599247257708
    v = rng.uniform(0.0, 2.0, n)
    d = u.real * u.real + u.imag * u.imag
    assert abs(tau) * d.max() ** 2.5 == 9.999999999999999e-09 <= SMALL_ROTATION
    rot = np.ones(n, dtype=np.complex128)
    rot.imag = d * d * np.sqrt(d) * -tau
    small = (u * np.exp(-1j * tau * v)) * rot
    assert not np.array_equal(small, cos_sin_phase(u, v, 5.0, tau))
    out = u.copy()
    local_phase(v, 5.0, 0.01)(out, tau)
    assert np.array_equal(out, small)

    # the same row in a stack, beside a non-quintic row and a large-rotation row
    members, alphas = (u, u, 10.0 * u), np.array([[4.5], [5.0], [5.0]])
    stack = np.stack(members)
    local_phase(v, alphas, 0.01)(stack, tau)
    assert np.array_equal(stack[1], small)
    for row, (alpha,), member in zip(stack, alphas, members):
        alone = member.copy()
        local_phase(v, alpha, 0.01)(alone, tau)
        assert np.array_equal(row, alone)



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
@given(grids, heights, amplitudes, momenta, st.floats(5e-3, 0.1),
       time_lists.flatmap(st.permutations))
def test_evolve_through_splitting_is_direct_evolve(n_exp, height, amplitude, momentum,
                                                   dt, times):
    # shuffled, signed times off the step lattice: each yield is its lattice
    # state plus one remainder substep, whatever else was requested
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    p = snls.PerturbedPropagator(grid, v, dt=dt)
    swept = list(p.evolve_through(u0, times))
    assert len(swept) == len(times)
    for a, t in zip(swept, times):
        assert rel_l2(a.values, p.evolve(u0, t).values) <= TOL


@examples
@given(grids, heights, amplitudes, momenta, time_lists)
def test_evolve_through_eigendecomposition_matches_chained(n_exp, height, amplitude,
                                                           momentum, times):
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    p = EigenPropagator(grid, v)
    swept = list(p.evolve_through(u0, times))
    assert len(swept) == len(times)
    for a, b in zip(swept, chained(p, u0, times)):
        assert rel_l2(a.values, b.values) <= TOL


@examples
@given(builders, time_lists, st.integers(0, 5), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_evolve_through_rejects_bad_input(build, times, at, bad):
    # the errors are raised at the call, before any time is visited
    grid, v, u0 = setting(4, 1.5, 0.5, 0.0)
    p = build(grid, v)
    with pytest.raises(ParameterError):
        p.evolve_through(u0, times[:at] + [bad] + times[at:])
    other = snls.gaussian_packet(snls.Grid(grid.n_points, 2.0 * grid.length))
    with pytest.raises(GridMismatchError):
        p.evolve_through(other, times)


@examples
@given(grids, heights, st.floats(2e-3, 2e-2), st.integers(1, 60), amplitudes, momenta,
       st.floats(4.5, 7.0), st.booleans())
def test_strang_backward_undoes_forward(n_exp, height, dt, k, amplitude, momentum, alpha,
                                        linear):
    # a span on the step lattice takes no remainder substep, so the backward
    # span runs the same substeps in reverse and undoes the forward one
    grid, v, u0 = setting(n_exp, height, amplitude, momentum)
    rules = strang_rules(grid, v, dt, None if linear else alpha)
    u = u0.values.copy()
    for _ in strang(u, [k * dt, -k * dt], dt, *rules):
        pass
    assert rel_l2(u, u0.values) <= TOL


def packets(grid, seed, count):
    rng = np.random.default_rng(seed)
    return np.stack([
        snls.gaussian_packet(grid, amplitude=rng.uniform(0.05, 1.0), width=rng.uniform(1.0, 3.0),
                             center=rng.uniform(-5.0, 5.0), momentum=rng.uniform(-2.0, 2.0)).values
        for _ in range(count)
    ])


@examples
@given(builders, grids, heights, st.floats(5e-3, 0.1), time_lists, st.integers(1, 6),
       st.integers(0, 2**32 - 1))
# the drawn grids lie below PAIR_POINTS; N = 2048 takes the half-length pair
@example(snls.PerturbedPropagator, 11, 2.0, 0.05, [0.5, -0.33, 0.5], 3, 7)
def test_stacked_flow_is_per_row_evolve_through(build, n_exp, height, dt, times, count,
                                                seed):
    grid, v, _ = setting(n_exp, height, 1.0, 0.0)
    p = build(grid, v, dt=dt)
    rows = packets(grid, seed, count)
    # the splitting path yields one buffer, overwritten at each time
    stacked = [u.copy() for u in p._flow(rows, np.asarray(times))]
    assert len(stacked) == len(times)
    for n, row in enumerate(rows):
        for u, f in zip(stacked, p.evolve_through(snls.ComplexField(grid, row), times)):
            if isinstance(p, EigenPropagator):
                assert rel_l2(u[n], f.values) <= TOL
            else:
                assert np.array_equal(u[n], f.values)


constants = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


def stack_of(grid, seed, count):
    """count packets as a (count, N) stack, or one (N,) packet for count 0."""
    return packets(grid, seed, count) if count else packets(grid, seed, 1)[0]


@examples
@given(grids, constants, st.floats(5e-3, 0.1), st.integers(-20, 20), time_lists,
       st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_constant_potential_flow_is_one_multiplier(n_exp, c, dt, m, times, count, seed):
    # signed, repeated times off the lattice, from a lattice start other than 0
    grid = snls.Grid(2**n_exp, 30.0)
    v = np.full(grid.n_points, c)
    p = snls.PerturbedPropagator(grid, v, dt=dt)
    start = m * dt
    times = np.array([*times, start])
    u = stack_of(grid, seed, count)
    rules = strang_rules(grid, v, dt)
    # each yield is read before the next, as a lattice sweep requires
    for t, w in zip(times, p._flow(u, times, start), strict=True):
        kernel = next(strang(u.copy(), (t - start,), dt, *rules))
        assert rel_l2(w, kernel) <= TOL
        if t == start:
            assert np.array_equal(w, u) and not np.shares_memory(w, u)
        else:
            exact = np.fft.ifft(np.exp(-1j * (t - start) * (grid.wavenumbers**2 + c))
                                * np.fft.fft(u))
            assert np.array_equal(w, exact)
    for n in range(count):
        for w, alone in zip(p._flow(u, times, start), p._flow(u[n], times, start)):
            assert np.array_equal(w[n], alone)


@examples
@given(grids, constants, st.floats(0.1, 1.0), st.data(), st.floats(5e-3, 0.1),
       st.integers(-20, 20), st.lists(st.integers(-40, 40), min_size=1, max_size=5),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_potential_constant_but_one_sample_takes_the_lattice(n_exp, c, bump, data, dt, m, ks,
                                                             count, seed):
    # lattice times from a lattice start: the sweep is one strang call over
    # the gaps, so the flow must be that call bit for bit
    grid = snls.Grid(2**n_exp, 30.0)
    v = np.full(grid.n_points, c)
    v[data.draw(st.integers(0, grid.n_points - 1))] += bump
    p = snls.PerturbedPropagator(grid, v, dt=dt)
    u = stack_of(grid, seed, count)
    flows = [w.copy() for w in p._flow(u, [(m + k) * dt for k in ks], m * dt)]
    swept = strang(u.copy(), np.diff([m, *(m + k for k in ks)]) * dt, dt,
                   *strang_rules(grid, v, dt))
    for w, kernel in zip(flows, swept, strict=True):
        assert np.array_equal(w, kernel)


def test_profile_search_is_per_member_search_on_eigendecomposition():
    # and on the splitting path with a steplike V, where each member's search
    # time t_n differs, so each placement is its own flow
    grid = snls.Grid(128, 40.0)
    v = snls.build_potential(snls.PotentialSpec(height=2.0, width=1.0), grid)
    for p in (EigenPropagator(grid, v), snls.PerturbedPropagator(grid, v, dt=0.05)):
        search_member_by_member(grid, p)


def search_member_by_member(grid, p):
    q, t_window, t_step = 7.0, 2.0, 0.1
    times = t_step * np.arange(-20, 21)
    big = snls.gaussian_packet(grid, amplitude=1.0)
    small = snls.gaussian_packet(grid, amplitude=0.8, width=1.5)
    # two bumps per member, both refocusing at the member's own search time
    fields = []
    for n, k in enumerate((25, 17, 30, 20, 12, 34)):
        a_n = grid.dx * (16 + 3 * n)
        pair = snls.translate(big, a_n).values + snls.translate(small, -a_n).values
        fields.append(p.evolve(snls.ComplexField(grid, pair), -times[k]))
    result = snls.greedy_profile_decomposition(fields, p, j_max=2, q_exponent=q,
                                               t_window=t_window, t_step=t_step)
    assert len(result.profiles) == 2

    # the search written member by member: one evolve_through sweep per leg
    # out of t = 0, then translate and evolve per member
    residue, h1v_terms, lq_terms = [f.values for f in fields], [], []
    legs = (t_step * np.arange(21), -t_step * np.arange(1, 21))
    for pr in result.profiles:
        t_shifts, best = [], []
        for r in residue:
            forward, backward = (list(p.evolve_through(snls.ComplexField(grid, r), leg))
                                 for leg in legs)
            states = backward[::-1] + forward  # at times, in ascending order
            k = int(np.argmax([snls.lp_norm(s, q) for s in states]))  # the first maximum
            t_shifts.append(times[k])
            best.append(states[k].values)
        lam = snls.l2_norm_sq(snls.ComplexField(grid, _median_field(np.stack(best)))) ** 0.5
        radius = float(np.clip(lam ** (-(1.0 - 2.0 / q)), 0.5, 8.0))
        x_shifts = [grid.x[int(np.argmax(np.abs(_lowpass(b, grid, radius))))] for b in best]
        assert np.array_equal(pr.t_shifts, t_shifts)
        assert np.array_equal(pr.x_shifts, x_shifts)
        if not isinstance(p, EigenPropagator):
            # a stacked sweep is each row's own sweep bit for bit; the
            # eigenbasis projects a stack in one matrix product, at roundoff
            recentred = [snls.translate(snls.ComplexField(grid, b), -x).values
                         for b, x in zip(best, x_shifts)]
            assert np.array_equal(pr.psi.values, _median_field(np.stack(recentred)))
        for n in range(len(residue)):
            placed = snls.translate(pr.psi, x_shifts[n])
            removed = p.evolve(placed, -t_shifts[n])
            residue[n] = residue[n] - removed.values
        h1v_terms.append(snls.h1v_norm_sq(placed, p.v))
        lq_terms.append(snls.lp_norm(removed, q) ** q)

    last, rem = fields[-1], snls.ComplexField(grid, residue[-1])
    assert np.array_equal(result.remainder.values, rem.values)
    lq = snls.lp_norm(last, q) ** q - snls.lp_norm(rem, q) ** q
    for term in lq_terms:
        lq -= term
    assert result.pythagorean_defects == {
        "mass": snls.l2_norm_sq(last) - sum(snls.l2_norm_sq(pr.psi) for pr in result.profiles)
        - snls.l2_norm_sq(rem),
        "h1v": snls.h1v_norm_sq(last, p.v) - sum(h1v_terms) - snls.h1v_norm_sq(rem, p.v),
        "lq": lq,
    }


@examples
@given(grids, heights, st.floats(2e-3, 2e-2), gaps, st.lists(st.floats(4.5, 7.0), min_size=1,
       max_size=6), st.integers(0, 2**32 - 1))
@example(11, 2.0, 0.01, [0.113, 0.2], [5.0, 4.5, 6.0], 3)  # the half-length pair
def test_stacked_nonlinear_strang_is_per_row_strang(n_exp, height, dt, gaps, alphas, seed):
    grid, v, _ = setting(n_exp, height, 1.0, 0.0)
    rows = packets(grid, seed, len(alphas))
    rules = strang_rules(grid, v, dt, np.array(alphas)[:, None])
    stacked = [u.copy() for u in strang(rows.copy(), gaps, dt, *rules)]
    assert len(stacked) == len(gaps)
    for n, alpha in enumerate(alphas):
        alone = strang(rows[n].copy(), gaps, dt, *strang_rules(grid, v, dt, alpha))
        for u, row in zip(stacked, alone):
            assert np.array_equal(u[n], row)


SWEEP_BASE = """
grid.n_points = 64
grid.length = 30.0
potential.family = gaussian_matched_step
solver.dt = 0.01
solver.t_final = 0.3
solver.record_stride = 0.1
initial.kind = gaussian
initial.amplitude = 0.8
"""


@settings(max_examples=10)
@given(st.lists(st.floats(4.5, 7.0), min_size=1, max_size=10))
def test_sweep_runs_are_standalone_evolve_runs(alphas):
    # more points than one stack holds, so the sweep crosses the row cap
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        values = ", ".join(repr(a) for a in alphas) + ("," if len(alphas) == 1 else "")
        sweep_cfg = tmp / "sweep.cfg"
        sweep_cfg.write_text("experiment = sweep\n" + SWEEP_BASE + "sweep.experiment = evolve\n"
                             "sweep.parameter = solver.alpha\n" f"sweep.values = {values}\n")
        assert main(["sweep", "--config", str(sweep_cfg), "--output-dir", str(tmp / "sw")]) == 0
        for i, alpha in enumerate(alphas):
            cfg = tmp / f"evolve_{i}.cfg"
            cfg.write_text("experiment = evolve\n" + SWEEP_BASE + f"solver.alpha = {alpha!r}\n")
            out = tmp / f"ev_{i}"
            assert main(["evolve", "--config", str(cfg), "--output-dir", str(out)]) == 0
            for name in ("summary.json", "series.csv"):
                assert (tmp / "sw" / f"run_{i:03d}" / name).read_bytes() == (out / name).read_bytes()
