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

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import exponents, h1v_norm_sq
from .errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
)
from .grid import (
    ComplexField,
    _lp_rows,
    h1_norm_sq,
    inner_product,
    l2_norm_sq,
    lp_norm,
    translate,
)
from .propagators import PerturbedPropagator, evolve_free, evolve_shifted
from .solver import Trajectory

__all__ = [
    "ChannelPair",
    "ChannelStudy",
    "extract_linear_channels",
    "channel_convergence_study",
    "nonlinear_wave_state",
    "extract_nonlinear_channels",
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
    cauchy_gap: float  # H1 distance to the (n-1)-extraction; 0.0 at n = 1

    def mass_partition_defect(self, psi: ComplexField) -> float:
        """|eta|^2 + |gamma|^2 - |psi|^2 (signed; -> 0 with channel orthogonality)."""
        return l2_norm_sq(self.eta) + l2_norm_sq(self.gamma) - l2_norm_sq(psi)


def _channel_pair(state_a: ComplexField, state_b: ComplexField, n: int):
    """(eta, gamma) from the perturbed states at t = 2*pi*n and (2n+1)*pi."""
    a_n = evolve_free(state_a, -2.0 * np.pi * n).values
    b_n = evolve_free(state_b, -(2.0 * n + 1.0) * np.pi).values
    grid = state_a.grid
    return ComplexField(grid, 0.5 * (a_n + b_n)), ComplexField(grid, 0.5 * (a_n - b_n))


def _pullback_pair(p: PerturbedPropagator, psi: ComplexField, n: int):
    return _channel_pair(p.evolve(psi, 2.0 * np.pi * n), p.evolve(psi, (2.0 * n + 1.0) * np.pi), n)


def _h1_dist(f: ComplexField, g: ComplexField) -> float:
    return h1_norm_sq(ComplexField(f.grid, f.values - g.values)) ** 0.5


def extract_linear_channels(
    p: PerturbedPropagator, psi: ComplexField, n: int
) -> ChannelPair:
    """Extract (eta, gamma) at subsequence index n >= 1.

    For n > 1 the Cauchy gap against the (n-1)-extraction is computed,
    which doubles the propagation cost; use
    :func:`channel_convergence_study` for whole sweeps.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    eta, gamma = _pullback_pair(p, psi, n)
    gap = 0.0
    if n > 1:
        eta_prev, gamma_prev = _pullback_pair(p, psi, n - 1)
        gap = _h1_dist(eta, eta_prev) + _h1_dist(gamma, gamma_prev)
    return ChannelPair(eta=eta, gamma=gamma, extraction_n=n, cauchy_gap=gap)


@dataclass(frozen=True, eq=False)
class ChannelStudy:
    """Per-n channel extractions with convergence series."""

    pairs: tuple
    ns: np.ndarray
    cauchy_gaps: np.ndarray
    mass_defects: np.ndarray
    reconstruction_defects: np.ndarray


def channel_convergence_study(
    p: PerturbedPropagator, psi: ComplexField, n_max: int
) -> ChannelStudy:
    """Extract channels for every n in 1..n_max with one pass of the flow.

    The perturbed state is sampled at all endpoint times pi*k in one
    ``evolve_through`` sweep.  The reconstruction defect of the n-th pair
    is measured at the held-out next endpoint,

        |exp(it(dxx-V))psi - exp(it dxx)eta_n - exp(it(dxx-1))gamma_n|_L2
        at t = 2*pi*(n+1):

    at the pair's own extraction time the decomposition reproduces the
    state identically by construction (an algebra check, not a convergence
    probe), while at the held-out time the defect decays exactly when the
    extractions converge.
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    # states[k - 2] at the endpoint time pi*k, k = 2 .. 2*n_max + 2 (holdout included)
    states = list(p.evolve_through(psi, np.pi * np.arange(2, 2 * n_max + 3)))

    pairs = []
    gaps, mass_defects, rec_defects = [], [], []
    prev = None
    for n in range(1, n_max + 1):
        eta, gamma = _channel_pair(states[2 * n - 2], states[2 * n - 1], n)
        gap = 0.0
        if prev is not None:
            gap = _h1_dist(eta, prev[0]) + _h1_dist(gamma, prev[1])
        prev = (eta, gamma)
        pairs.append(ChannelPair(eta=eta, gamma=gamma, extraction_n=n, cauchy_gap=gap))
        gaps.append(gap)
        mass_defects.append(pairs[-1].mass_partition_defect(psi))
        t_hold = 2.0 * np.pi * (n + 1)
        recon = (
            states[2 * n].values
            - evolve_free(eta, t_hold).values
            - evolve_shifted(gamma, t_hold).values
        )
        rec_defects.append(l2_norm_sq(ComplexField(psi.grid, recon)) ** 0.5)

    return ChannelStudy(
        pairs=tuple(pairs),
        ns=np.arange(1, n_max + 1),
        cauchy_gaps=np.asarray(gaps),
        mass_defects=np.asarray(mass_defects),
        reconstruction_defects=np.asarray(rec_defects),
    )


def nonlinear_wave_state(
    traj: Trajectory,
    p: PerturbedPropagator,
    T: float,
    allow_interpolation: bool = False,
) -> ComplexField:
    """Pull the solution at time T back by the linear group:
    psi_plus(T) = exp(-iT(dxx-V)) u(T).

    Successive T values forming an H1 Cauchy sequence is the numerical
    witness of scattering to a linear solution.
    """
    idx = traj.snapshot_index(T)
    if idx is not None:
        u_T = traj.fields[idx]
    elif allow_interpolation:
        times = traj.times
        if T < times[0] or T > times[-1]:
            raise InsufficientDataError(f"T={T} outside the recorded range")
        j = int(np.searchsorted(times, T))
        w = (T - times[j - 1]) / (times[j] - times[j - 1])
        vals = (1.0 - w) * traj.fields[j - 1].values + w * traj.fields[j].values
        u_T = ComplexField(traj.problem.grid, vals)
        warnings.warn(f"snapshot at T={T} interpolated linearly", stacklevel=2)
    else:
        raise InsufficientDataError(
            f"no snapshot at T={T}; pass allow_interpolation=True to interpolate"
        )
    return p.evolve(u_T, -T)


def extract_nonlinear_channels(
    traj: Trajectory,
    p: PerturbedPropagator,
    T: float,
    n: int,
    allow_interpolation: bool = False,
) -> ChannelPair:
    """Wave-operator pullback at T followed by linear channel extraction."""
    psi_plus = nonlinear_wave_state(traj, p, T, allow_interpolation)
    return extract_linear_channels(p, psi_plus, n)


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
        ref = reference(shifted, t)
        diff = ComplexField(psi.grid, cur.values - ref.values)
        norms[k] = lp_norm(diff, ex.r)
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
    return np.median(stack.real, axis=0) + 1j * np.median(stack.imag, axis=0)


def _split_half_coherence(stack: np.ndarray, grid) -> float:
    half = stack.shape[0] // 2
    a = ComplexField(grid, _median_field(stack[:half]))
    b = ComplexField(grid, _median_field(stack[half:]))
    na, nb = l2_norm_sq(a) ** 0.5, l2_norm_sq(b) ** 0.5
    if na == 0.0 or nb == 0.0:
        return 0.0
    return abs(inner_product(a, b)) / (na * nb)


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
    grid = fields[0].grid
    for f in fields:
        if not f.grid.same_as(grid):
            raise ParameterError("ensemble members must share one grid")

    k_ens = len(fields)
    residue = np.stack([f.values for f in fields])
    stop_level = STOP_RATIO * max(l2_norm_sq(f) ** 0.5 for f in fields)
    beta = 1.0 - 2.0 / q_exponent  # embedding exponent at d = 1

    # two legs outward from t = 0; ties go to the earlier time
    n_t = int(round(t_window / t_step))
    legs = (
        (t_step * np.arange(n_t + 1), np.greater),
        (-t_step * np.arange(1, n_t + 1), np.greater_equal),
    )

    profiles = []
    concentration_level = 0.0

    for _ in range(j_max):
        if np.linalg.norm(residue) * grid.dx**0.5 * (1.0 + BOUND_MARGIN) < stop_level:
            break  # no candidate can reach the stop level
        # sweep the window of every member at once, keeping per member the
        # earliest state of largest Lq norm
        best_q = np.full(k_ens, -1.0)
        t_shifts = np.empty(k_ens)
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

        x_shifts = np.empty(k_ens)
        recentred = np.empty((k_ens, grid.n_points), dtype=np.complex128)
        for n, state in enumerate(best):
            smooth = np.abs(_lowpass(state, grid, radius))
            x_shifts[n] = grid.x[int(np.argmax(smooth))]
            recentred[n] = translate(ComplexField(grid, state), -x_shifts[n]).values

        candidate = ComplexField(grid, _median_field(recentred))
        cand_norm = l2_norm_sq(candidate) ** 0.5
        coherence = _split_half_coherence(recentred, grid)
        if cand_norm < stop_level or coherence < COHERENCE_THRESHOLD:
            break
        if not profiles:
            concentration_level = cand_norm

        profiles.append(Profile(psi=candidate, t_shifts=t_shifts, x_shifts=x_shifts))
        for n in range(k_ens):
            # v_n <- v_n - exp(-i t_n (dxx-V)) tau_{x_n} psi
            placed = translate(candidate, x_shifts[n])
            removed = p.evolve(placed, -t_shifts[n])
            residue[n] -= removed.values

    remainder = ComplexField(grid, residue[-1])
    last = fields[-1]
    mass_defect = (
        l2_norm_sq(last)
        - sum(l2_norm_sq(pr.psi) for pr in profiles)
        - l2_norm_sq(remainder)
    )
    h1v_defect = (
        h1v_norm_sq(last, p.v)
        - sum(h1v_norm_sq(translate(pr.psi, pr.x_shifts[-1]), p.v) for pr in profiles)
        - h1v_norm_sq(remainder, p.v)
    )
    q = q_exponent
    lq_defect = lp_norm(last, q) ** q - lp_norm(remainder, q) ** q
    for pr in profiles:
        placed = p.evolve(translate(pr.psi, pr.x_shifts[-1]), -pr.t_shifts[-1])
        lq_defect -= lp_norm(placed, q) ** q

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
