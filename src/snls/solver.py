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
final substep of each segment.  Problems that share grid, V, dt, record
times and linear mode run as one (B, N) stack (``solve_stack``), each row
bit for bit its own solve; ``solve`` is the one-row case.  Both collect
``_snapshots``, which builds each record time's fields as the kernel
reaches it, so a caller that needs one snapshot at a time (the
``morawetz`` run) can stream them instead, computing the per-snapshot
``_monitors`` and their ``_monitor_warnings`` as a Trajectory would.

The guard is per row and checks only what can fail: mass is conserved to
roundoff, so sup|u|^2 stays below the initial sum of |u_j|^2 and a finite
field turns NaN or Inf only by overflow (of |u|^alpha or |u|^2).  The kernel
aborts the stack when a row's sup norm is not finite, naming the row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import diagnostics
from .errors import GridMismatchError, InsufficientDataError, ParameterError
from .grid import (
    BOUNDARY_WARN_FRACTION,
    ComplexField,
    Grid,
    boundary_mass_fraction,
    high_mode_fraction,
    l2_norm_sq,
    sup_norm,
)
from .propagators import _frozen_potential, local_phase, strang, strang_rules

__all__ = ["NlsProblem", "Trajectory", "solve", "solve_stack", "phase_substep"]

SNAPSHOT_TOL = 1e-9  # a snapshot time matches a requested time this closely
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
        object.__setattr__(self, "v", _frozen_potential(self.v, self.grid))
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
        if not (0 < self.dt < np.inf):
            raise ParameterError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (0 < self.t_final < np.inf):
            raise ParameterError(f"t_final must be finite and > 0, got {self.t_final!r}")
        if self.record_times is None:
            times = np.array([0.0, self.t_final])
        else:
            times = np.asarray(self.record_times, dtype=float)
            if times.size == 0:
                raise ParameterError("record_times must not be empty")
            # both checks read as "not (ok)", so a NaN time fails one of them
            if not np.all(np.diff(times) > 0):
                raise ParameterError("record_times must be strictly increasing")
            if not (times[0] >= 0 and times[-1] <= self.t_final + 1e-12):
                raise ParameterError("record_times must lie in [0, t_final]")
            if times[0] > 0:
                times = np.concatenate(([0.0], times))
        times.setflags(write=False)
        object.__setattr__(self, "record_times", times)

    def shares_flow(self, other: "NlsProblem") -> bool:
        """True when other can be a row of one stacked solve with this problem."""
        return (
            self.grid.same_as(other.grid)
            and self.dt == other.dt
            and self.linear == other.linear
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.record_times, other.record_times)
        )


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

    def snapshot_index(self, t: float) -> Optional[int]:
        hits = np.nonzero(np.abs(self.times - t) <= SNAPSHOT_TOL)[0]
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
    return solve_stack([problem])[0]


def solve_stack(problems: Sequence[NlsProblem]) -> list[Trajectory]:
    """Integrate problems that share a flow as one (B, N) stack; one Trajectory each.

    Every problem must ``shares_flow`` with the first; alpha and u0 may
    differ by row.  Each row is bit for bit its own one-problem solve, and
    a guard that trips in any row raises for the whole stack.
    """
    snaps = list(_snapshots(problems))
    return [_trajectory(p, fields) for p, fields in zip(problems, zip(*snaps))]


def _snapshots(problems: Sequence[NlsProblem]) -> Iterator[list]:
    """Each record time's ComplexField of every row, u0 first, built when ``strang``
    reaches it; nothing is kept after the yield."""
    first = problems[0]
    if not all(first.shares_flow(p) for p in problems[1:]):
        raise ParameterError("stacked problems must share grid, v, dt, record_times and linear")
    grid = first.grid
    u = np.stack([p.u0.values for p in problems])
    alpha = None if first.linear else np.array([[p.alpha] for p in problems])
    if len(problems) == 1:
        # one problem runs as an (N,) row: a (1, N) stack pays for 2-D
        # broadcasting in every elementwise call of every step
        u, alpha = u[0], alpha if alpha is None else alpha[0]
    rules = strang_rules(grid, first.v, first.dt, alpha)
    states = strang(u, np.diff(first.record_times), first.dt, *rules)
    yield [p.u0 for p in problems]
    for _ in first.record_times[1:]:
        # |u|^alpha overflowing into NaN or Inf is the guard's to report, not numpy's
        with np.errstate(over="ignore", invalid="ignore"):
            state = next(states)
        yield [ComplexField(grid, row) for row in state.reshape(len(problems), -1)]


def _monitors(problem: NlsProblem, f: ComplexField) -> tuple:
    """Mass, energy, sup norm, boundary and high-mode fractions of one snapshot."""
    energy = diagnostics.energy(f, problem.v, problem.alpha, linear=problem.linear)
    return l2_norm_sq(f), energy, sup_norm(f), boundary_mass_fraction(f), high_mode_fraction(f)


def _monitor_warnings(problem: NlsProblem, boundary: np.ndarray, high: np.ndarray) -> tuple:
    """Warn of wrap-around, lost resolution and a permissive power; returns the notes."""
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
    if problem.permissive and problem.alpha <= 4:
        notes.append(f"permissive run: alpha={problem.alpha} is outside the supercritical range")
    for note in notes:
        warnings.warn(note, stacklevel=4)
    return tuple(notes)


def _trajectory(problem: NlsProblem, snap_fields: tuple) -> Trajectory:
    """The snapshots of one solved problem with their diagnostics and warnings."""
    mass, energy, sup, boundary, high = map(
        np.array, zip(*(_monitors(problem, f) for f in snap_fields))
    )
    return Trajectory(
        problem=problem, times=problem.record_times, fields=snap_fields, mass=mass, energy=energy,
        sup=sup, boundary_fraction=boundary, high_mode=high,
        warnings=_monitor_warnings(problem, boundary, high),
    )
