"""Functionals evaluated on fields and trajectories.

Covers the two conserved quantities (mass lives in ``grid``, energy here),
the V-weighted H1 norm of the linear conservation law, Strichartz
exponents and space-time norms, the dispersive decay ratio, and the
space-time multiplier identity with weight lambda = sqrt(t^2 + x^2).

The multiplier identity is evaluated term by term at d=1 with multiplier
m(u) = a*du + g*u, a = -2x/lambda, g = -t^2/lambda^3 - i*t/lambda.  The
derivatives of g needed by the flux and bulk terms are (derived once,
verified symbolically in the test suite):

    dg/dx        = 3*t^2*x/lambda^5 + i*t*x/lambda^3
    Re d2g/dx2   = 3*t^2*(t^2 - 4*x^2)/lambda^7

The time derivative in the identity residual is taken by centered
differencing of snapshots by default, so the residual is an end-to-end
consistency check of solver plus functional; ``time_derivative="equation"``
substitutes the equation's right-hand side instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    GridMismatchError,
    InsufficientDataError,
    ParameterError,
)
from .grid import (
    BOUNDARY_WARN_FRACTION,
    ComplexField,
    _derivative,
    _spectral_form,
    boundary_mass_fraction,
    h1_norm_sq,
    l1_norm,
    lp_norm,
    sup_norm,
)

if TYPE_CHECKING:  # pragma: no cover
    from .propagators import PerturbedPropagator
    from .solver import Trajectory

__all__ = [
    "energy",
    "h1v_norm_sq",
    "StrichartzPair",
    "ExponentSet",
    "exponents",
    "strichartz_norm",
    "decay_ratio",
    "MorawetzReport",
    "morawetz_report",
]


def _potential_term(f: ComplexField, V) -> float:
    """integral(V |f|^2) dx."""
    V = np.asarray(V, dtype=float)
    if V.shape != f.values.shape:
        raise GridMismatchError("potential samples do not match the field grid")
    return float(np.sum(V * (np.abs(f.values) ** 2)) * f.grid.dx)


def energy(f: ComplexField, V, alpha: float, linear: bool = False) -> float:
    """(1/2) * integral(|df|^2 + V|f|^2 + (2/(alpha+2))|f|^(alpha+2)) dx.

    The conserved energy of the defocusing flow; ``linear=True`` drops the
    nonlinear well (the conserved quantity of the linear flow is then the
    V-weighted H1 form without the mass term).
    """
    kinetic = _spectral_form(f, f.grid.wavenumbers**2)
    potential = _potential_term(f, V)
    if linear:
        nonlinear = 0.0
    else:
        nonlinear = (2.0 / (alpha + 2.0)) * float(
            np.sum((np.abs(f.values) ** 2) ** ((alpha + 2.0) / 2.0)) * f.grid.dx
        )
    return 0.5 * (kinetic + potential + nonlinear)


def h1v_norm_sq(f: ComplexField, V) -> float:
    """integral(|df|^2 + V|f|^2 + |f|^2) dx, conserved by the linear flow."""
    return h1_norm_sq(f) + _potential_term(f, V)


def _median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0), bit for bit on finite input, without its NaN check.

    Like np.median, it sums the middle one or two partitioned values from
    +0.0 and divides by their count.  np.median's NaN check imports numpy.ma
    (about 1.1 MB of resident memory), which nothing else in a run loads.
    """
    h = a.shape[0] // 2
    if a.shape[0] % 2:
        return np.partition(a, h, axis=0)[h] + 0.0
    p = np.partition(a, [h - 1, h], axis=0)
    return (p[h - 1] + p[h] + 0.0) / 2


@dataclass(frozen=True)
class StrichartzPair:
    """A candidate space-time exponent pair (a, b), a time / b space."""

    a: float
    b: float

    def __post_init__(self):
        for name, val in (("a", self.a), ("b", self.b)):
            if not (val >= 2.0):
                raise ParameterError(f"{name} must lie in [2, inf], got {val}")

    def is_admissible(self, tol: float = 1e-12) -> bool:
        """2/a = d*(1/2 - 1/b) at d = 1 (inf handled as a vanishing reciprocal)."""
        inv_a = 0.0 if np.isinf(self.a) else 1.0 / self.a
        inv_b = 0.0 if np.isinf(self.b) else 1.0 / self.b
        return abs(2.0 * inv_a - (0.5 - inv_b)) <= tol


@dataclass(frozen=True)
class ExponentSet:
    """The Lebesgue exponents attached to the nonlinearity power at d = 1."""

    alpha: float
    r: float
    p: float
    q: float


def exponents(alpha: float) -> ExponentSet:
    """r = a+2, p = 2a(a+2)/(4+a), q = 2a(a+2)/(a^2+a-4) at d = 1.

    The one check of a power, which ``NlsProblem`` runs too: a must exceed 4
    and give finite r, p and q.  Their numerator 2a(a+2) overflows from
    a = 9.48e153 (the root of half the largest float) on, and a NaN or
    infinite a fails too.  Python floats overflow to inf without a warning.
    """
    if 4 < alpha < np.inf:
        a = float(alpha)
        r = a + 2.0
        p = 2.0 * a * r / (4.0 + a)
        q = 2.0 * a * r / (a * a + a - 4.0)
        if math.isfinite(p) and math.isfinite(q):
            return ExponentSet(alpha=alpha, r=r, p=p, q=q)
    raise ParameterError(f"alpha must be finite and > 4, below about 9.48e153, got {alpha!r}")


def strichartz_norm(traj: "Trajectory", a: float, b: float) -> float:
    """Discrete L^a_t L^b_x norm of the trajectory (trapezoid in time).

    a = inf is handled as a max over snapshots.  Warns when snapshot
    coverage is sparser than 10 per unit time, and when the pair is
    neither admissible nor ``exponents``' (p, r) of the trajectory's alpha.
    """
    times = traj.times
    if times.size < 2:
        raise InsufficientDataError("need at least two snapshots")
    spacing = float(_median(np.diff(times)))
    if spacing > 0.1 + 1e-12:
        warnings.warn(
            f"snapshot coverage is sparse for time quadrature (spacing {spacing:.3g})",
            stacklevel=2,
        )
    pair = StrichartzPair(a, b)
    ex = exponents(traj.problem.alpha)
    power_pair = (abs(a - ex.p) <= 1e-9) and (abs(b - ex.r) <= 1e-9)
    if not pair.is_admissible() and not power_pair:
        warnings.warn(f"pair (a={a}, b={b}) is neither admissible nor (p, r)", stacklevel=2)

    space = np.array([lp_norm(f, b) for f in traj.fields])
    if np.isinf(a):
        return float(space.max())
    return float(np.trapezoid(space**a, times) ** (1.0 / a))


def decay_ratio(
    p: "PerturbedPropagator",
    psi: ComplexField,
    times: Sequence[float],
) -> np.ndarray:
    """t^(1/2) * sup|exp(i*t*(dxx-V)) psi| / |psi|_L1 at each requested time.

    A bounded, eventually plateauing series is numerical evidence for the
    L1-Linfty decay estimate; for V = 0 the exact plateau is (4*pi)^(-1/2).
    One ``evolve_through`` sweep visits the sorted times.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times <= 0):
        raise ParameterError("times must be positive")
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    denom = l1_norm(psi)
    if denom <= 0:
        raise ParameterError("psi must have positive L1 norm")
    ratios = np.empty(times.size)
    contaminated = False
    for k, (t, cur) in enumerate(zip(times, p.evolve_through(psi, times))):
        ratios[k] = math.sqrt(t) * sup_norm(cur) / denom
        if not contaminated and boundary_mass_fraction(cur) > BOUNDARY_WARN_FRACTION:
            contaminated = True
            warnings.warn(
                f"boundary mass fraction exceeded {BOUNDARY_WARN_FRACTION:.0%} at t={t:.4g}; "
                "later ratios may be wrap-around contaminated",
                stacklevel=2,
            )
    return ratios


@dataclass(frozen=True, eq=False)
class MorawetzReport:
    """Term-by-term evaluation of the space-time multiplier identity.

    ``times`` are the interior snapshot times where centered time
    differences exist.  ``residual_series`` is the L1 norm of the pointwise
    sum of all identity terms (0 in the continuum); ``density_series`` is
    the weighted density integral(t^2 |u|^(alpha+2) / lambda^3) dx whose
    time integral the identity bounds; ``repulsive_series`` is
    integral(-x V' |u|^2 / lambda) dx, nonnegative for repulsive V.
    """

    times: np.ndarray
    density_series: np.ndarray
    residual_series: np.ndarray
    repulsive_series: np.ndarray
    integral_value: float
    min_repulsive_density: float


def morawetz_report(
    traj: "Trajectory",
    time_derivative: str = "difference",
    t_min: float = 1.0,
    *,
    vprime,
) -> MorawetzReport:
    """Evaluate the identity on snapshots with t >= t_min > 0 (weight is
    singular at t = x = 0; the estimate integrates over { 1 < |t| }).

    Requires at least three uniformly spaced selected snapshots
    (``_morawetz_times``).  They pass through ``_morawetz_window``, which
    holds three at a time, so the ``morawetz`` run feeds it straight from
    the solver's snapshot stream and never keeps a trajectory.

    ``vprime``, required, takes the grid samples of dV/dx, used only in
    the standalone repulsive term: ``potentials.build_potential_derivative``
    gives it, in closed form for the family potentials.  V itself never
    meets a derivative: inside the flux its contribution to l_V cancels
    pointwise against the V-content of Im(conj(u) du/dt) before the
    spectral differentiation.
    """
    times = _morawetz_times(traj.times, time_derivative, t_min)
    values = (f.values for f in traj.fields[traj.times.size - times.size :])
    return _morawetz_window(traj.problem, times, values, time_derivative, vprime)


def _morawetz_times(times: np.ndarray, time_derivative: str, t_min: float) -> np.ndarray:
    """The snapshot times t >= t_min that the identity is evaluated on, checked:
    a known mode, t_min > 0 and no time t <= 0, at least three of them,
    uniformly spaced."""
    if time_derivative not in ("difference", "equation"):
        raise ParameterError("time_derivative must be 'difference' or 'equation'")
    times = times[times >= t_min - 1e-12]
    if not t_min > 0 or (times.size and times[0] <= 0):
        raise ParameterError(f"t_min = {t_min} must select only snapshots at t > 0")
    if times.size < 3:
        raise InsufficientDataError(
            f"need >= 3 snapshots at t >= {t_min}, found {times.size}"
        )
    spacings = np.diff(times)
    if not np.allclose(spacings, spacings[0], rtol=1e-8, atol=1e-12):
        raise ParameterError("snapshots must be uniformly spaced for time differences")
    return times


def _morawetz_window(problem, times, values, time_derivative, vprime) -> MorawetzReport:
    """The identity on the raw snapshot arrays ``values`` at the checked ``times``.

    The snapshots pass through a window of three: each one's derivative,
    lambda, a and bracket are computed once, when the loop first needs them, and
    dropped when it moves past, and each interior snapshot's terms are
    reduced to numbers before the next one is read.
    """
    h = float(times[1] - times[0])
    x, dx, xi = problem.grid.x, problem.grid.dx, problem.grid.wavenumbers
    V, alpha = problem.v, problem.alpha
    vprime = np.asarray(vprime, dtype=float)
    if vprime.shape != V.shape:
        raise ParameterError("vprime must be sampled on the grid")
    nl_weight = 0.0 if problem.linear else 1.0

    def derivative_and_bracket(u, t):
        """(du, lambda, a) and a*Im(conj(u)*du) - t*|u|^2/lambda, the differenced bracket."""
        du = _derivative(u, xi)
        lam = np.sqrt(t * t + x * x)
        a = -2.0 * x / lam
        return (du, lam, a), a * np.imag(np.conj(u) * du) - t * (np.abs(u) ** 2) / lam

    def terms(t, u_prev, u, u_next, du, lam, a, dt_bracket):
        """Density, residual L1 norm, repulsive term and its least value at t."""
        dens = np.abs(u) ** 2
        dens_nl = dens ** ((alpha + 2.0) / 2.0)

        g = -(t * t) / lam**3 - 1j * t / lam
        m = a * du + g * u
        re_dg = 3.0 * t * t * x / lam**5
        re_d2g = 3.0 * t * t * (t * t - 4.0 * x * x) / lam**7

        if time_derivative == "difference":
            dtu = (u_next - u_prev) / (2.0 * h)
        else:
            d2u = _derivative(u, xi, order=2)
            dtu = 1j * (d2u - V * u - nl_weight * dens ** (alpha / 2.0) * u)

        # On solutions the V|u|^2 in l_V cancels pointwise against the
        # V-content of Im(conj(u) du/dt), leaving a smooth flux; keep both
        # inside one spectrally differentiated expression so that the merely
        # C^1 steplike potential never meets the derivative uncancelled.
        lv = 0.5 * (np.imag(np.conj(u) * dtu) + np.abs(du) ** 2
                    + nl_weight * (2.0 / (alpha + 2.0)) * dens_nl + V * dens)
        flux = np.real(du * np.conj(m)) - a * lv - re_dg * dens / 2.0
        dflux = _derivative(flux, xi).real

        big_g = nl_weight * (alpha / (alpha + 2.0)) * dens_nl
        term_density = t * t * big_g / lam**3
        term_sq = np.abs(2j * t * du + x * u) ** 2 / (2.0 * lam**3)
        term_repulsive = -x * vprime * dens / lam

        residual = (0.5 * dt_bracket + dflux + term_density + 0.5 * dens * re_d2g + term_sq
                    + term_repulsive)
        return (float(np.sum(t * t * dens_nl / lam**3) * dx), float(np.sum(np.abs(residual)) * dx),
                float(np.sum(term_repulsive) * dx), float(term_repulsive.min()))

    values = iter(values)
    u_prev, u = next(values), next(values)
    _, bracket_prev = derivative_and_bracket(u_prev, times[0])
    local, bracket = derivative_and_bracket(u, times[1])
    rows = []
    for t, t_next, u_next in zip(times[1:-1], times[2:], values):
        local_next, bracket_next = derivative_and_bracket(u_next, t_next)
        dt_bracket = (bracket_next - bracket_prev) / (2.0 * h)
        rows.append(terms(float(t), u_prev, u, u_next, *local, dt_bracket))
        u_prev, u, local = u, u_next, local_next
        bracket_prev, bracket = bracket, bracket_next

    out_t = times[1:-1]
    out_density, out_residual, out_repulsive, least = map(np.array, zip(*rows))
    integral_value = float(np.trapezoid(out_density, out_t)) if out_t.size > 1 else 0.0
    return MorawetzReport(
        times=out_t,
        density_series=out_density,
        residual_series=out_residual,
        repulsive_series=out_repulsive,
        integral_value=integral_value,
        min_repulsive_density=float(least.min()),
    )
