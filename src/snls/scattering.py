"""Asymptotic machinery: wave operator, double channels, flow comparisons,
and a greedy profile decomposition.

Channel extraction promotes a subsequence trick to an algorithm.  The
linear flow with a steplike potential converges (weakly, with no stated
rate) to a superposition of a free wave and a mass-shifted wave,

    exp(it(dxx - V)) psi  ~  exp(it dxx) eta + exp(it(dxx - 1)) gamma,

and pulling back by the free group turns the shifted channel into the pure
phase exp(-it).  Sampling that phase at t = 2*pi*n (phase +1) and at
t = (2n+1)*pi (phase -1) isolates eta + gamma and eta - gamma:

    A_n = exp(-i t dxx) exp(i t (dxx-V)) psi   at t = 2*pi*n,
    B_n = same                                  at t = (2n+1)*pi,
    eta = (A_n + B_n)/2,   gamma = (A_n - B_n)/2.

Finite n stands in for the limit; the H1 Cauchy gap between successive
extractions and the reconstruction defect measure convergence.

The profile decomposition follows the constructive recipe of the
concentration-compactness argument on a finite ensemble {v_n}: per slot,
(i) for each n pick the time t_n maximizing |exp(it(dxx-V)) v_n|_Lq over a
sampled window, walked outward from t = 0 (forward to +T, then backward to
-T; ties go to the earliest time), so that t = 0 samples the data itself
(the recipe only asks for at least half the sup; the window maximum meets
that by construction, and times outside the window are not searched),
(ii) recenter at the peak of the low-pass-filtered modulus (cutoff radius
R = lambda^(-beta) with beta = 1 - 2/q, the embedding exponent at d = 1),
(iii) form the profile as a robust ensemble average of the recentred
evolutions, (iv) subtract its re-shifted evolution from every member.

The robust average is the pointwise median across n together with a
split-half coherence test (accept only if the medians of the two ensemble
halves correlate above 0.5).  A plain mean is biased up by O(1/sqrt(K))
for incoherent ensembles of size K, which at desk scale would both smear
escaping bumps into extracted profiles and manufacture fake profiles out
of noise; the median/coherence pair is the finite-sample surrogate for
"the weak limit of the recentred sequence".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import _median, exponents, h1v_norm_sq
from .errors import (
    DomainError,
    GridMismatchError,
    InsufficientDataError,
    ParameterError,
)
from .grid import (
    ComplexField,
    _lp_rows,
    _shift,
    h1_norm_sq,
    l2_norm_sq,
    lp_norm,
    translate,
)
from .propagators import PerturbedPropagator, evolve_free, evolve_shifted
from .solver import Trajectory

__all__ = [
    "ChannelPair",
    "ChannelStudy",
    "channel_convergence_study",
    "nonlinear_wave_state",
    "translation_flow_gap",
    "Profile",
    "ProfileSet",
    "greedy_profile_decomposition",
]

SAMPLE_DT = 0.1  # time spacing of the translation-gap samples
STOP_RATIO = 1e-3  # profile norm, relative to the largest member, that ends the search
COHERENCE_THRESHOLD = 0.5  # least split-half correlation of an accepted profile
BOUND_MARGIN = 1e-6  # relative room for roundoff in the candidate norm bound


@dataclass(frozen=True, eq=False)
class ChannelPair:
    """Free / shifted channel components extracted at subsequence index n."""

    eta: ComplexField
    gamma: ComplexField
    extraction_n: int
    # H1 distance to the (n-1)-extraction; 0.0 at n = 1, and nan at the
    # first pair of a study that starts past n = 1, which lacks that extraction
    cauchy_gap: float


def _h1_dist(f: ComplexField, g: ComplexField) -> float:
    return h1_norm_sq(ComplexField(f.grid, f.values - g.values)) ** 0.5


def _reconstruction_defect(state: ComplexField, pair: ChannelPair, t: float) -> float:
    """|state - exp(it dxx)eta - exp(it(dxx-1))gamma|_L2, the pair's miss of state at t."""
    recon = state.values - evolve_free(pair.eta, t).values - evolve_shifted(pair.gamma, t).values
    return l2_norm_sq(ComplexField(state.grid, recon)) ** 0.5


@dataclass(frozen=True, eq=False)
class ChannelStudy:
    """Per-n channel extractions, n = first .. n_max, with convergence series;
    each Cauchy gap is stored once, in its pair, and each pair whose held-out
    time was sampled has a reconstruction defect.

    The mass defect |eta|^2 + |gamma|^2 - |psi|^2 vanishes by the
    parallelogram identity |eta|^2 + |gamma|^2 = (|A_n|^2 + |B_n|^2)/2
    whenever the flow is unitary (|A_n| = |B_n| = |psi|), whether or not
    the extractions converge: it checks unitarity only."""

    pairs: tuple
    mass_defects: np.ndarray
    reconstruction_defects: np.ndarray

    @property
    def cauchy_gaps(self) -> np.ndarray:
        return np.array([pair.cauchy_gap for pair in self.pairs])


def _channel_times(n_max: int) -> np.ndarray:
    """The endpoint times pi*k, k = 2 .. 2*n_max + 2, that a study up to n_max samples."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    return np.pi * np.arange(2, 2 * n_max + 3)


def channel_convergence_study(
    p: PerturbedPropagator, psi: ComplexField, n_max: int
) -> ChannelStudy:
    """Extract channels for every n in 1..n_max with one pass of the flow.

    The perturbed state is sampled at the ``_channel_times`` in one
    ``evolve_through`` sweep of the step lattice, and :func:`_channel_study`
    reads the study off the samples.
    """
    return _channel_study(psi, list(p.evolve_through(psi, _channel_times(n_max))))


def _channel_study(psi: ComplexField, states, first: int = 1) -> ChannelStudy:
    """Pairs n = first, first + 1, ..., Cauchy gaps and defects from the flow
    of psi at the endpoint times pi*k, k = 2*first, 2*first + 1, ...; psi is
    only the mass reference, so any state of that unitary flow serves.

    The reconstruction defect of the n-th pair is measured at the held-out
    next endpoint t = 2*pi*(n+1), for each pair whose held-out state is
    given: at the pair's own extraction time the decomposition reproduces
    the state identically by construction (an algebra check, not a
    convergence probe), while at the held-out time the defect decays exactly
    when the extractions converge.
    """
    # states[i] at the endpoint time pi*(2*first + i)
    grid, pairs = states[0].grid, []
    for n, (at_even, at_odd) in enumerate(zip(states[::2], states[1::2]), start=first):
        # A_n and B_n, the free pullbacks of the states at 2*pi*n and (2n+1)*pi
        a_n = evolve_free(at_even, -2.0 * np.pi * n).values
        b_n = evolve_free(at_odd, -(2.0 * n + 1.0) * np.pi).values
        eta, gamma = ComplexField(grid, 0.5 * (a_n + b_n)), ComplexField(grid, 0.5 * (a_n - b_n))
        gap = (_h1_dist(eta, pairs[-1].eta) + _h1_dist(gamma, pairs[-1].gamma) if pairs
               else 0.0 if n == 1 else np.nan)
        pairs.append(ChannelPair(eta=eta, gamma=gamma, extraction_n=n, cauchy_gap=gap))
    return ChannelStudy(
        pairs=tuple(pairs),
        # |eta|^2 + |gamma|^2 - |psi|^2, signed; 0 up to roundoff for a unitary flow
        mass_defects=np.array([
            l2_norm_sq(pair.eta) + l2_norm_sq(pair.gamma) - l2_norm_sq(psi) for pair in pairs
        ]),
        reconstruction_defects=np.array([
            _reconstruction_defect(state, pair, 2.0 * np.pi * (pair.extraction_n + 1))
            for pair, state in zip(pairs, states[2::2])
        ]),
    )


def nonlinear_wave_state(traj: Trajectory, p: PerturbedPropagator, T: float) -> ComplexField:
    """Pull the solution at time T back by the linear group:
    psi_plus(T) = exp(-iT(dxx-V)) u(T).

    Successive T values forming an H1 Cauchy sequence is the numerical
    witness of scattering to a linear solution.  T must be a recorded
    snapshot time (InsufficientDataError otherwise).
    """
    return p.evolve(traj.field_at(T), -T)


def _wave_gaps(
    traj: Trajectory, p: PerturbedPropagator, times, flow_times=()
) -> tuple[list[float], list[ComplexField]]:
    """The wave-operator gaps of the recorded times, and the flow of
    psi_plus(T_max) at each of ``flow_times``.

    For sorted times T_1 < ... < T_K the i-th gap is
    |exp(-i(T_{i+1} - T_i)(dxx-V)) u(T_{i+1}) - u(T_i)|_h1v: the linear flow
    conserves h1v, so it is |psi_plus(T_{i+1}) - psi_plus(T_i)|_h1v and needs
    only its own leg.  Each leg but the last is a one-row flow of its own.
    Two sweeps of u(T_max) fill one map from time to state, each distinct
    time once: a forward one visits the flow times past T_max, lowest first,
    and a backward one, highest first, T_{K-1} and the flow times at or
    below T_max.  The last gap reads the state at T_{K-1}, and the flow is
    returned in the order of ``flow_times``.  So the flow goes only as far
    as T_{K-1} and the flow times ask; ``channels`` asks for the endpoint
    times of the two pairs it reports.  Unchecked: p is the solve's own
    splitting at its step and the times lie on its step lattice, as
    ``channels`` makes them; the flow times are at or above 0.
    """
    times = sorted(float(T) for T in times)
    snapshots = [traj.field_at(T).values for T in times]
    grid, t_max = traj.problem.grid, times[-1]

    def gap(leg, i):
        return h1v_norm_sq(ComplexField(grid, leg - snapshots[i]), p.v) ** 0.5

    gaps = [gap(next(p._flow(snapshots[i + 1], [times[i]], times[i + 1])), i)
            for i in range(len(times) - 2)]
    below = sorted({t for t in flow_times if t <= t_max} | set(times[-2:-1]), reverse=True)
    ahead = sorted({t for t in flow_times if t > t_max})
    states = {}
    for stops in (ahead, below):
        for t, u in zip(stops, p._flow(snapshots[-1], stops, t_max)):
            states[t] = ComplexField(grid, u)  # a copy: _flow reuses its buffer
    if len(times) > 1:
        gaps.append(gap(states[times[-2]].values, -2))
    return gaps, [states[t] for t in flow_times]


def translation_flow_gap(
    p: PerturbedPropagator,
    psi: ComplexField,
    x_shift: float,
    t_span: tuple,
    alpha: float = 5.0,
) -> float:
    """Discrete L^p_t L^r_x distance between the perturbed flow of the
    translated bump and its limiting comparison flow.

    For x_shift < 0 the comparison flow is free (the potential vanishes on
    the far left); for x_shift > 0 it is the mass-shifted flow.  The gap
    must decrease as |x_shift| grows.  Exponents (p, r) come from the
    nonlinearity power ``alpha``.  The flows are sampled every SAMPLE_DT.
    """
    if x_shift == 0.0:
        raise ParameterError("x_shift must be nonzero (sign selects the channel)")
    if abs(x_shift) >= p.grid.length / 4.0:
        raise DomainError(
            f"|x_shift| must stay below L/4 = {p.grid.length / 4.0}; got {x_shift}"
        )
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 > t0 >= 0.0):
        raise ParameterError("t_span must satisfy 0 <= t0 < t1")
    ex = exponents(alpha)
    shifted = translate(psi, x_shift)
    reference = evolve_free if x_shift < 0 else evolve_shifted

    n_samples = max(int(round((t1 - t0) / SAMPLE_DT)) + 1, 2)
    times = np.linspace(t0, t1, n_samples)
    norms = np.empty(n_samples)
    for k, (t, cur) in enumerate(zip(times, p.evolve_through(shifted, times))):
        norms[k] = _lp_rows(cur.values - reference(shifted, t).values, ex.r, psi.grid.dx)
    return float(np.trapezoid(norms**ex.p, times) ** (1.0 / ex.p))


@dataclass(frozen=True, eq=False)
class Profile:
    """One extracted profile with its per-member time and space shifts."""

    psi: ComplexField
    t_shifts: np.ndarray
    x_shifts: np.ndarray


@dataclass(frozen=True, eq=False)
class ProfileSet:
    """Extracted profiles, final remainder, and Pythagorean defect report.

    The defects are signed differences of squared norms (mass and V-weighted
    H1) and of q-th power norms, evaluated at the last ensemble member;
    their smallness is the test, not an assumption.
    """

    profiles: tuple
    remainder: ComplexField
    concentration_level: float
    pythagorean_defects: dict


def _lowpass(values: np.ndarray, grid, radius: float) -> np.ndarray:
    """Smooth frequency cutoff: 1 on |xi|<=R, cosine taper to 0 at 2R."""
    xi = np.abs(grid.wavenumbers)
    zeta = np.where(
        xi <= radius,
        1.0,
        np.where(
            xi <= 2.0 * radius,
            np.cos(0.5 * np.pi * (xi - radius) / radius) ** 2,
            0.0,
        ),
    )
    return np.fft.ifft(zeta * np.fft.fft(values))


def _median_field(stack: np.ndarray) -> np.ndarray:
    return _median(stack.real) + 1j * _median(stack.imag)


def _split_half_coherence(stack: np.ndarray, dx: float) -> float:
    """|<a, b>| / (|a| |b|) for the medians a, b of the stack's two halves."""
    half = stack.shape[0] // 2
    a, b = _median_field(stack[:half]), _median_field(stack[half:])
    na, nb = (float(np.sum(v.real**2 + v.imag**2) * dx) ** 0.5 for v in (a, b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return abs(complex(np.sum(a * np.conj(b)) * dx)) / (na * nb)


def greedy_profile_decomposition(
    fields: Sequence[ComplexField],
    p: PerturbedPropagator,
    j_max: int,
    q_exponent: float,
    t_window: float = 20.0,
    t_step: float = 0.1,
) -> ProfileSet:
    """Greedy extraction of up to ``j_max`` profiles from an ensemble.

    Stops as soon as a candidate profile has L2 norm below
    ``STOP_RATIO * max_n |v_n|_L2`` or split-half coherence below
    COHERENCE_THRESHOLD; a rejected first candidate reports concentration
    level 0.  The candidate is a pointwise median of unitary images of the
    residues, so its squared norm is at most the residues' summed squared
    norms; when the root of that sum (widened by BOUND_MARGIN for roundoff)
    is already below the stop level, the search stops without sweeping.
    """
    if len(fields) < 3:
        raise InsufficientDataError("need an ensemble of at least 3 fields")
    if not (2.0 < q_exponent < np.inf):
        raise ParameterError("q_exponent must lie in (2, inf)")
    if j_max < 1:
        raise ParameterError("j_max must be >= 1")
    if not (t_step > 0 and 0 <= t_window < np.inf):
        raise ParameterError(f"need t_step > 0 and 0 <= t_window < inf; got {t_step}, {t_window}")
    grid = fields[0].grid
    for f in fields:
        if not f.grid.same_as(grid):
            raise ParameterError("ensemble members must share one grid")
    if not grid.same_as(p.grid):
        raise GridMismatchError("ensemble and propagator grids differ")

    residue = np.stack([f.values for f in fields])
    stop_level = STOP_RATIO * max(l2_norm_sq(f) ** 0.5 for f in fields)
    beta = 1.0 - 2.0 / q_exponent  # embedding exponent at d = 1

    # two legs outward from t = 0; ties go to the earlier time
    n_t = int(round(t_window / t_step))
    legs = (
        (t_step * np.arange(n_t + 1), np.greater),
        (-t_step * np.arange(1, n_t + 1), np.greater_equal),
    )

    profiles, h1v_terms, lq_terms = [], [], []
    concentration_level = 0.0
    q = q_exponent

    for _ in range(j_max):
        if np.linalg.norm(residue) * grid.dx**0.5 * (1.0 + BOUND_MARGIN) < stop_level:
            break  # no candidate can reach the stop level
        # sweep the window of every member at once, keeping per member the
        # earliest state of largest Lq norm
        best_q = np.full(len(fields), -1.0)
        t_shifts = np.empty(len(fields))
        best = np.empty_like(residue)
        for times, beats in legs:
            for t, states in zip(times, p._flow(residue, times)):
                qn = _lp_rows(states, q_exponent, grid.dx)
                better = beats(qn, best_q)
                best_q[better], t_shifts[better], best[better] = qn[better], t, states[better]

        # localization radius from the current concentration estimate
        first_pass = _median_field(best)
        lam_est = l2_norm_sq(ComplexField(grid, first_pass)) ** 0.5
        radius = float(np.clip(lam_est ** (-beta) if lam_est > 0 else 1.0, 0.5, 8.0))

        # recentre each member at its smoothed peak x_n
        x_shifts = grid.x[np.argmax(np.abs(_lowpass(best, grid, radius)), axis=-1)]
        recentred = _shift(best, grid.wavenumbers, -x_shifts)

        candidate = ComplexField(grid, _median_field(recentred))
        cand_norm = l2_norm_sq(candidate) ** 0.5
        coherence = _split_half_coherence(recentred, grid.dx)
        if cand_norm < stop_level or coherence < COHERENCE_THRESHOLD:
            break
        if not profiles:
            concentration_level = cand_norm

        profiles.append(Profile(psi=candidate, t_shifts=t_shifts, x_shifts=x_shifts))
        # v_n <- v_n - exp(-i t_n (dxx-V)) tau_{x_n} psi, placed in every member at once
        placed = _shift(candidate.values, grid.wavenumbers, x_shifts)
        for row, u, t in zip(residue, placed, t_shifts):
            removed = next(p._flow(u, (-t,)))
            row -= removed
        # the defects are taken at the last member, whose placement the loop ends on
        h1v_terms.append(h1v_norm_sq(ComplexField(grid, placed[-1]), p.v))
        lq_terms.append(float(_lp_rows(removed, q, grid.dx)) ** q)

    remainder = ComplexField(grid, residue[-1])
    last = fields[-1]
    mass_defect = (
        l2_norm_sq(last)
        - sum(l2_norm_sq(pr.psi) for pr in profiles)
        - l2_norm_sq(remainder)
    )
    h1v_defect = h1v_norm_sq(last, p.v) - sum(h1v_terms) - h1v_norm_sq(remainder, p.v)
    lq_defect = lp_norm(last, q) ** q - lp_norm(remainder, q) ** q
    for term in lq_terms:
        lq_defect -= term

    return ProfileSet(
        profiles=tuple(profiles),
        remainder=remainder,
        concentration_level=concentration_level,
        pythagorean_defects={
            "mass": mass_defect,
            "h1v": h1v_defect,
            "lq": lq_defect,
        },
    )
