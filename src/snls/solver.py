"""Time integration of i u_t + u_xx - V u = |u|^alpha u.

Strang splitting with an exact kinetic substep (Fourier multiplier) and an
exact local substep: the modulus |u| is invariant under multiplication by
the phase exp(-i*(V + |u|^alpha)*h), so that substep solves its flow
exactly, not just to second order.  Consequences used throughout the test
suite: mass is conserved to roundoff for any step size, and the energy
drift is O(dt^2) per unit time.  The invariance also merges the closing
half phase of one step with the opening one of the next, so a step costs 2
FFTs and 1 phase evaluation, and half phases close each record segment so
that every snapshot is an exact Strang state (``propagators.strang``).

The step size is fixed (no adaptivity) so a given problem reproduces
bit-for-bit; requested snapshot times are reached exactly by shrinking the
final substep of each segment.  A blow-up guard aborts if the sup norm
grows by 1e6 over its initial value or turns NaN (|u|^alpha overflowed),
which for this defocusing equation can only mean the step size is too large.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import diagnostics
from .errors import GridMismatchError, InsufficientDataError, ParameterError
from .grid import (
    ComplexField,
    Grid,
    boundary_mass_fraction,
    high_mode_fraction,
    l2_norm_sq,
    sup_norm,
)
from .propagators import local_phase, multiplier_cache, strang

__all__ = ["NlsProblem", "Trajectory", "solve", "phase_substep"]

BLOWUP_FACTOR = 1e6
BOUNDARY_WARN_FRACTION = 0.01
HIGH_MODE_WARN_FRACTION = 1e-8


@dataclass(frozen=True, eq=False)
class NlsProblem:
    """A defocusing NLS Cauchy problem on a periodic grid.

    ``alpha`` must exceed 4 (the supercritical range) unless
    ``permissive=True``, in which case any positive power is accepted and
    the resulting trajectory is tagged.  ``linear=True`` drops the
    nonlinear term entirely (used for flow comparisons and the Morawetz
    residual checks).
    """

    grid: Grid
    v: np.ndarray
    alpha: float
    u0: ComplexField
    dt: float
    t_final: float
    record_times: Optional[Sequence[float]] = None
    linear: bool = False
    permissive: bool = False

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise GridMismatchError("potential samples do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ParameterError("potential samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if not self.u0.grid.same_as(self.grid):
            raise GridMismatchError("u0 does not live on the problem grid")
        if self.permissive:
            if self.alpha <= 0:
                raise ParameterError("alpha must be > 0")
        elif self.alpha <= 4:
            raise ParameterError(
                f"alpha must be > 4 (got {self.alpha}); "
                "set permissive=True for exploratory powers"
            )
        if not (self.dt > 0):
            raise ParameterError("dt must be > 0")
        if not (self.t_final > 0):
            raise ParameterError("t_final must be > 0")
        if self.record_times is None:
            times = np.array([0.0, self.t_final])
        else:
            times = np.asarray(self.record_times, dtype=float)
            if times.size == 0:
                raise ParameterError("record_times must not be empty")
            if np.any(np.diff(times) <= 0):
                raise ParameterError("record_times must be strictly increasing")
            if times[0] < 0 or times[-1] > self.t_final + 1e-12:
                raise ParameterError("record_times must lie in [0, t_final]")
            if times[0] > 0:
                times = np.concatenate(([0.0], times))
        times.setflags(write=False)
        object.__setattr__(self, "record_times", times)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of a solve plus per-snapshot diagnostics series."""

    problem: NlsProblem
    times: np.ndarray
    fields: tuple
    mass: np.ndarray
    energy: np.ndarray
    sup: np.ndarray
    boundary_fraction: np.ndarray
    high_mode: np.ndarray
    warnings: tuple = field(default_factory=tuple)

    def snapshot_index(self, t: float, tol: float = 1e-9) -> Optional[int]:
        hits = np.nonzero(np.abs(self.times - t) <= tol)[0]
        return int(hits[0]) if hits.size else None

    def field_at(self, t: float) -> ComplexField:
        idx = self.snapshot_index(t)
        if idx is None:
            raise InsufficientDataError(f"no snapshot at t={t}")
        return self.fields[idx]

    @property
    def final_field(self) -> ComplexField:
        return self.fields[-1]


def phase_substep(f: ComplexField, V, alpha: float, dt: float) -> ComplexField:
    """Multiply by exp(-i*(V + |f|^alpha)*dt); |output| == |f| exactly.

    Negative dt is allowed (time reversal of the local flow).
    """
    V = np.asarray(V, dtype=float)
    if V.shape != f.values.shape:
        raise GridMismatchError("potential samples do not match the field")
    if not np.isfinite(dt):
        raise ParameterError("dt must be finite")
    u = f.values.copy()
    local_phase(V, alpha, dt)(u, dt)
    return ComplexField(f.grid, u)


def solve(problem: NlsProblem) -> Trajectory:
    """Integrate the problem, recording snapshots at the requested times."""
    grid = problem.grid
    v = problem.v
    alpha = problem.alpha
    linear = problem.linear
    u = problem.u0.values.copy()
    guard = BLOWUP_FACTOR * max(float(np.abs(u).max()), 1e-300)
    record = problem.record_times
    kinetic = multiplier_cache(grid.wavenumbers**2, problem.dt)
    phase = local_phase(v, None if linear else alpha, problem.dt)
    states = strang(u, np.diff(record), problem.dt, kinetic, phase, guard)
    # |u|^alpha overflowing into NaN is the guard's to report, not numpy's
    with np.errstate(over="ignore", invalid="ignore"):
        snap_fields = [problem.u0] + [ComplexField(grid, state) for state in states]

    times = record.copy()
    mass = np.array([l2_norm_sq(f) for f in snap_fields])
    energy = np.array(
        [diagnostics.energy(f, v, alpha, linear=linear) for f in snap_fields]
    )
    sup = np.array([sup_norm(f) for f in snap_fields])
    boundary = np.array([boundary_mass_fraction(f) for f in snap_fields])
    high = np.array([high_mode_fraction(f) for f in snap_fields])

    notes = []
    if np.any(boundary > BOUNDARY_WARN_FRACTION):
        notes.append(
            "wrap-around: boundary mass fraction exceeded "
            f"{BOUNDARY_WARN_FRACTION:.0%} (max {boundary.max():.3e})"
        )
    if np.any(high > HIGH_MODE_WARN_FRACTION):
        notes.append(
            "resolution: high-third spectral energy fraction exceeded "
            f"{HIGH_MODE_WARN_FRACTION:.0e} (max {high.max():.3e})"
        )
    if problem.permissive and alpha <= 4:
        notes.append(f"permissive run: alpha={alpha} is outside the supercritical range")
    for note in notes:
        warnings.warn(note, stacklevel=2)

    times.setflags(write=False)
    return Trajectory(
        problem=problem,
        times=times,
        fields=tuple(snap_fields),
        mass=mass,
        energy=energy,
        sup=sup,
        boundary_fraction=boundary,
        high_mode=high,
        warnings=tuple(notes),
    )
