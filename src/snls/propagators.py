"""The linear flows: free, mass-shifted, and potential-perturbed.

exp(i*t*dxx) and exp(i*t*(dxx - 1)) are exact Fourier multipliers; the
perturbed group exp(i*t*(dxx - V)) is realized two independent ways:

- ``strang_splitting``: the splitting kernel ``strang`` with the exact
  kinetic multiplier exp(-i*h*xi^2) and the exact potential phase
  exp(-i*h*V).  Every substep is unitary, so mass is conserved to roundoff
  for any step size; the scheme is second order in the substep h.  A
  requested time that is not a multiple of the substep is reached by
  shrinking the final substep, so endpoint times (multiples of pi for the
  channel extraction) are hit exactly.

- ``eigendecomposition``: dense diagonalization of H = -D2 + diag(V) where
  D2 is the closed-form differentiation matrix of the trigonometric
  interpolant (entries -(-1)^(i-j) / (2 sin^2((i-j)h/2)) scaled to the box,
  no FFT involved), then u(t) = Q exp(-i*E*t) Q^T u.  This route shares no
  code with the transform stack and is exact in time, which makes it the
  reference oracle for the splitting; it is capped at 1024 points because
  it is dense.

Both realizations conserve the V-weighted H1 functional of the linear
conservation law: exactly (up to roundoff) for the eigendecomposition, and
with O(h^2) drift for the splitting.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import CapabilityError, GridMismatchError, InstabilityError, ParameterError
from .grid import ComplexField, Grid

__all__ = [
    "evolve_free",
    "evolve_shifted",
    "free_decay_constant",
    "PerturbedPropagator",
    "spectral_second_derivative_matrix",
    "substep_sizes",
]

EIG_SIZE_CAP = 1024
MAX_SPLITTING_DT = 0.1


def _check_time(t: float):
    if not np.isfinite(t):
        raise ParameterError(f"evolution time must be finite, got {t!r}")


def evolve_free(f: ComplexField, t: float) -> ComplexField:
    """exp(i*t*dxx) f via the multiplier exp(-i*t*xi^2)."""
    _check_time(t)
    if t == 0.0:
        return f.copy()
    mult = np.exp(-1j * t * f.grid.wavenumbers**2)
    return ComplexField(f.grid, np.fft.ifft(mult * np.fft.fft(f.values)))


def evolve_shifted(f: ComplexField, t: float) -> ComplexField:
    """exp(i*t*(dxx - 1)) f = exp(-i*t) * exp(i*t*dxx) f, applied exactly so."""
    ev = evolve_free(f, t)
    if t == 0.0:
        return ev
    return ComplexField(f.grid, np.exp(-1j * t) * ev.values)


def free_decay_constant() -> float:
    """|(4*pi*i*t)^(-1/2)| * t^(1/2) = (4*pi)^(-1/2), the free kernel modulus."""
    return (4.0 * math.pi) ** -0.5


def substep_sizes(t: float, dt: float) -> tuple[int, float]:
    """Number of full substeps of size dt and the shrunken final remainder.

    The signed steps (sign of t) sum to t; a remainder below 1e-12 of the
    span is dropped.
    """
    if dt <= 0:
        raise ParameterError("substep dt must be > 0")
    mag = abs(t)
    if mag == 0.0:
        return 0, 0.0
    n_full = int(math.floor(mag / dt + 1e-12))
    rem = mag - n_full * dt
    if rem <= 1e-12 * max(mag, dt):
        rem = 0.0
    return n_full, rem


def multiplier_cache(w: np.ndarray, dt: float):
    """h -> exp(-i*h*w), computed once for the recurring substeps +-dt and +-dt/2."""
    kept = functools.cache(lambda h: np.exp(-1j * h * w))
    return lambda h: kept(h) if abs(h) in (dt, 0.5 * dt) else np.exp(-1j * h * w)


def local_phase(v: np.ndarray, alpha, dt: float):
    """The rule phase(u, tau): u *= exp(-i*tau*(V + |u|^alpha)), returning sup|u|.

    |u|^alpha is d**(alpha/2), d = re^2 + im^2, in the rule's own scratch
    buffers (one rule per thread).  alpha=None: the linear exp(-i*tau*V).
    """
    if alpha is None:
        mult = multiplier_cache(v, dt)

        def phase(u, tau):
            u *= mult(tau)
            return 0.0

        return phase
    d, tmp = np.empty(v.shape), np.empty(v.shape)
    ph = np.empty(v.shape, dtype=np.complex128)

    def phase(u, tau):
        np.multiply(u.real, u.real, out=d)
        np.multiply(u.imag, u.imag, out=tmp)
        np.add(d, tmp, out=d)
        amax = math.sqrt(d.max())
        np.power(d, 0.5 * alpha, out=d)
        np.add(d, v, out=d)
        np.multiply(d, -tau, out=d)
        np.cos(d, out=ph.real)
        np.sin(d, out=ph.imag)
        u *= ph
        return amax

    return phase


def strang(u: np.ndarray, spans, dt: float, kinetic, phase, guard: float = math.inf):
    """Strang splitting of raw samples u, in place; yields u after each signed span.

    The local flow keeps |u|, so the closing half phase of substep h_k and
    the opening one of h_{k+1} merge into one phase of (h_k + h_{k+1})/2:
    a span takes one phase at each joint between its substeps, a half phase
    at either end, and fft, x kinetic(h), ifft for each substep h, so every
    yield is an exact Strang state.  The guard reads ``not (sup|u| <= guard)``
    so that NaN trips it too.  A phase reports sup|u| of its input, so a
    finite guard reads sup|u| after the closing half phase of a span instead:
    no later phase would see a NaN made there by |u|^alpha overflowing.
    """
    buf, t, n_done = np.empty_like(u), 0.0, 0
    for span in spans:
        n_full, rem = substep_sizes(span, dt)
        steps = [math.copysign(dt, span)] * n_full + ([math.copysign(rem, span)] if rem else [])
        for k, (h_prev, h) in enumerate(itertools.pairwise([0.0] + steps + [0.0])):
            amax = phase(u, 0.5 * (h_prev + h))
            if not h and guard < math.inf:
                amax = np.abs(u).max()
            if not (amax <= guard):
                raise InstabilityError(
                    f"sup|u| = {amax:.3e} passed the guard {guard:.3e} at step "
                    f"{n_done + k}, t={t + sum(steps[:k]):.6g}, dt={dt:g}; reduce dt"
                )
            if h:
                np.multiply(np.fft.fft(u, out=buf), kinetic(h), out=buf)
                np.fft.ifft(buf, out=u)
        t, n_done = t + span, n_done + len(steps)
        yield u


def spectral_second_derivative_matrix(grid: Grid) -> np.ndarray:
    """Dense second-derivative matrix of the periodic trigonometric interpolant.

    Built from the classical closed-form entries (no transforms), symmetric,
    and identical in exact arithmetic to conjugating diag(-xi^2) with the
    DFT.
    """
    n = grid.n_points
    h = 2.0 * math.pi / n
    offsets = np.arange(1, n)
    row = np.empty(n)
    row[0] = -(math.pi**2) / (3.0 * h**2) - 1.0 / 6.0
    row[1:] = -((-1.0) ** offsets) / (2.0 * np.sin(offsets * h / 2.0) ** 2)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    d2 = row[idx]
    return (2.0 * math.pi / grid.length) ** 2 * d2


class PerturbedPropagator:
    """exp(i*t*(dxx - V)) on a fixed grid, by splitting or diagonalization.

    Instances are immutable after construction and safe to share; the
    eigendecomposition is computed lazily and cached per instance.
    """

    METHODS = ("strang_splitting", "eigendecomposition")

    def __init__(
        self,
        grid: Grid,
        v,
        method: str = "strang_splitting",
        dt: float = 1e-3,
    ):
        v = np.asarray(v, dtype=float)
        if v.shape != (grid.n_points,):
            raise GridMismatchError("potential samples do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ParameterError("potential samples must be finite")
        if method not in self.METHODS:
            raise ParameterError(f"method must be one of {self.METHODS}, got {method!r}")
        if method == "strang_splitting":
            if not (0.0 < dt <= MAX_SPLITTING_DT):
                raise ParameterError(
                    f"splitting substep must satisfy 0 < dt <= {MAX_SPLITTING_DT}"
                )
        if method == "eigendecomposition" and grid.n_points > EIG_SIZE_CAP:
            raise CapabilityError(
                f"eigendecomposition is capped at {EIG_SIZE_CAP} points "
                f"(got {grid.n_points}); use strang_splitting"
            )
        self.grid = grid
        self.v = v
        v.setflags(write=False)
        self.method = method
        self.dt = float(dt)
        self._eig = None
        self._rules = multiplier_cache(grid.wavenumbers**2, self.dt), local_phase(v, None, self.dt)

    def _eigensystem(self):
        if self._eig is None:
            ham = -spectral_second_derivative_matrix(self.grid) + np.diag(self.v)
            self._eig = np.linalg.eigh(ham)
        return self._eig

    def evolve(self, f: ComplexField, t: float) -> ComplexField:
        return next(self.evolve_through(f, (t,)))

    def evolve_through(self, f: ComplexField, times) -> Iterator[ComplexField]:
        """Yield exp(i*t_k*(dxx - V)) f for each t_k in order (any sign, repeats allowed).

        One kernel call over the gaps t_k - t_(k-1), bit for bit the chained
        ``evolve`` calls, or one projection onto the eigenbasis.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise ParameterError(f"evolution times must be a finite 1D sequence, got {times!r}")
        if not f.grid.same_as(self.grid):
            raise GridMismatchError("field and propagator grids differ")
        if self.method == "eigendecomposition":
            energies, modes = self._eigensystem()
            coeff = modes.T @ f.values
            flow = (modes @ (np.exp(-1j * energies * t) * coeff) for t in times)
        else:
            flow = strang(f.values.copy(), np.diff(times, prepend=0.0), self.dt, *self._rules)
        return (ComplexField(self.grid, u) for u in flow)
