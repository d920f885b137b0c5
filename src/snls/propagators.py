"""The linear flows: free, mass-shifted, and potential-perturbed.

exp(i*t*dxx) and exp(i*t*(dxx - 1)) are exact Fourier multipliers; the
perturbed group exp(i*t*(dxx - V)) is realized two independent ways:

- ``strang_splitting``: the splitting kernel ``strang`` with the exact
  kinetic multiplier exp(-i*h*xi^2) and the exact potential phase
  exp(-i*h*V).  Every substep is unitary, so mass is conserved to roundoff
  for any step size; the scheme is second order in the substep h.  A
  requested time off the lattice of substep multiples is one remainder
  substep from its lattice point, so endpoint times (multiples of pi for the
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
# Largest quintic rotation theta = |tau| * sup|u|^5 that the local
# phase writes as 1 + i*theta instead of cos(theta) + i*sin(theta).  Below
# 2**-26.5 ~ 1.05e-8, theta^2/2 is under half an ulp of 1 and theta^3/6
# under half an ulp of theta, so cos(theta) rounds to 1 and sin(theta) to
# theta: the factor is the correctly rounded exp(-i*theta), and the only
# change is that exp(-i*tau*(V + |u|^5)) is applied as two factors.
SMALL_ROTATION = 1e-8


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


def _frozen_potential(v, grid: Grid) -> np.ndarray:
    """A read-only copy of potential samples v, checked to be finite on the grid."""
    v = np.array(v, dtype=float)
    if v.shape != (grid.n_points,):
        raise GridMismatchError("potential samples do not match the grid")
    if not np.all(np.isfinite(v)):
        raise ParameterError("potential samples must be finite")
    v.setflags(write=False)
    return v


def substep_cache(make, dt: float):
    """h -> make(h), kept only for the recurring substeps +-dt and +-dt/2: a solve
    over many record times keeps nothing per remainder substep."""
    kept, recurring = functools.cache(make), {dt, -dt, 0.5 * dt, -0.5 * dt}
    return lambda h: kept(h) if h in recurring else make(h)


def strang_rules(grid: Grid, v: np.ndarray, dt: float, alpha=None):
    """``strang``'s (kinetic, phase) on grid for V = v, step dt and power alpha (None: linear).

    kinetic(h) = exp(-i*h*xi^2) / N folds in the inverse transform's 1/N,
    exact because ``Grid`` makes N a power of two."""
    xi2, n_points = grid.wavenumbers**2, grid.n_points
    kinetic = substep_cache(lambda h: np.exp(-1j * h * xi2) / n_points, dt)
    return kinetic, local_phase(v, alpha, dt)


def local_phase(v: np.ndarray, alpha, dt: float):
    """The rule phase(u, tau): u *= exp(-i*tau*(V + |u|^alpha)), returning sup|u| per row.

    u has the broadcast shape of v and alpha: (N,), or a (B, N) stack of
    rows with alpha of shape (B, 1), one power per row.  |u|^alpha is
    d**(alpha/2), d = re^2 + im^2, in the rule's own scratch buffers of that
    shape.  alpha=None: the linear exp(-i*tau*V), which reads no sup and
    returns None.

    A quintic row whose rotation theta = |tau| * sup|u|^5 is at most
    SMALL_ROTATION is multiplied by the cached exp(-i*tau*V) and then by
    1 + i*theta_x, theta_x = -tau*|u|^5 with |u|^5 = d*d*sqrt(d), with no
    cos or sin.  A stack with such a row runs row by row, so each row is
    still bit for bit its own (N,) run.
    """
    mult = substep_cache(lambda h: np.exp(-1j * h * v), dt)
    if alpha is None:

        def phase(u, tau):
            u *= mult(tau)

        return phase
    shape = np.broadcast_shapes(v.shape, np.shape(alpha))
    d, tmp = np.empty(shape), np.empty(shape)
    # rot holds 1 + i*theta_x below the bound: only its imaginary part is written
    ph, rot = np.empty(shape, dtype=np.complex128), np.ones(shape, dtype=np.complex128)
    half_alpha = 0.5 * alpha
    # per row and tau, the largest sup|u|^2 whose rotation |tau| * sup|u|^5
    # is within SMALL_ROTATION; -1 for a row that is not quintic
    quintic = np.reshape(half_alpha, shape[:-1]) == 2.5

    def bound(tau):
        b = np.where(quintic, (SMALL_ROTATION / abs(tau)) ** 0.4 if tau else math.inf, -1.0)
        return b if b.ndim else float(b)

    small_bound = substep_cache(bound, dt)

    def turn(u, d, tmp, ph, rot, half_alpha, tau, small):
        """u *= exp(-i*tau*(V + d**half_alpha)), by 1 + i*theta_x if small."""
        if small:
            np.sqrt(d, out=tmp)
            np.multiply(d, d, out=d)
            np.multiply(d, tmp, out=d)
            np.multiply(d, -tau, out=rot.imag)
            u *= mult(tau)
            u *= rot
            return
        np.power(d, half_alpha, out=d)
        np.add(d, v, out=d)
        np.multiply(d, -tau, out=d)
        np.cos(d, out=ph.real)
        np.sin(d, out=ph.imag)
        u *= ph

    def phase(u, tau):
        np.multiply(u.real, u.real, out=d)
        np.multiply(u.imag, u.imag, out=tmp)
        np.add(d, tmp, out=d)
        dmax = d.max(axis=-1)
        small = dmax <= small_bound(tau)
        if u.ndim == 1:
            turn(u, d, tmp, ph, rot, half_alpha, tau, small)
        elif not small.any():
            turn(u, d, tmp, ph, rot, half_alpha, tau, False)
        else:
            for row in zip(u, d, tmp, ph, rot, half_alpha, itertools.repeat(tau), small):
                turn(*row)
        return np.sqrt(dmax)

    return phase


def strang(u: np.ndarray, spans, dt: float, kinetic, phase):
    """Strang splitting of raw samples u, in place; yields u after each signed span.

    u is (N,) or a (B, N) stack of rows; ``np.fft`` works along the last
    axis and the rules (``strang_rules``) broadcast, so each row is bit for
    bit its own (N,) run.  The local flow keeps |u|, so the closing half
    phase of substep h_k and the opening one of h_{k+1} merge into one
    phase of (h_k + h_{k+1})/2: a span takes one phase at each joint
    between its substeps, a half phase at either end, and fft, x
    kinetic(h), ifft for each substep h, so every yield is an exact Strang
    state.  A nonlinear phase returns sup|u| of its input per row, read again
    after a span's closing half phase; where ``sup|u| < inf`` fails (NaN or
    Inf: the arithmetic overflowed) the error names the first such row.  A
    linear phase returns None and is not checked: a unitary flow of finite
    data stays finite.
    """
    buf, t, n_done = np.empty_like(u), 0.0, 0
    # a single row compares scalars: ndarray.all on a numpy bool costs more
    # than the comparison itself, on every step
    passed = np.ndarray.all if u.ndim > 1 else bool
    for span in spans:
        n_full, rem = substep_sizes(span, dt)
        steps = [math.copysign(dt, span)] * n_full + ([math.copysign(rem, span)] if rem else [])
        for k, (h_prev, h) in enumerate(itertools.pairwise([0.0] + steps + [0.0])):
            amax = phase(u, 0.5 * (h_prev + h))
            if amax is not None and not h:
                amax = np.abs(u).max(axis=-1)
            if amax is not None and not passed(amax < math.inf):
                row = int(np.argmin(np.ravel(amax) < math.inf))
                where = f" in row {row}" if u.ndim > 1 else ""
                raise InstabilityError(
                    f"sup|u| = {np.ravel(amax)[row]:.3e}{where} passed the guard at step "
                    f"{n_done + k}, t={t + sum(steps[:k]):.6g}, dt={dt:g}; reduce dt"
                )
            if h:
                np.multiply(np.fft.fft(u, out=buf), kinetic(h), out=buf)
                np.fft.ifft(buf, out=u, norm="forward")
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


def _real_matmul(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z @ m for complex z and real m, without casting m to a complex copy."""
    return z.real @ m + 1j * (z.imag @ m)


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
        v = _frozen_potential(v, grid)
        if method not in self.METHODS:
            raise ParameterError(f"method must be one of {self.METHODS}, got {method!r}")
        if method == "strang_splitting" and not (0.0 < dt <= MAX_SPLITTING_DT):
            raise ParameterError(f"splitting substep must satisfy 0 < dt <= {MAX_SPLITTING_DT}")
        if method == "eigendecomposition" and grid.n_points > EIG_SIZE_CAP:
            raise CapabilityError(
                f"eigendecomposition is capped at {EIG_SIZE_CAP} points "
                f"(got {grid.n_points}); use strang_splitting"
            )
        self.grid = grid
        self.v = v
        self.method = method
        self.dt = float(dt)
        self._eig = None
        self._rules = strang_rules(grid, v, self.dt)

    def _eigensystem(self):
        if self._eig is None:
            ham = -spectral_second_derivative_matrix(self.grid) + np.diag(self.v)
            self._eig = np.linalg.eigh(ham)
        return self._eig

    def evolve(self, f: ComplexField, t: float) -> ComplexField:
        return next(self.evolve_through(f, (t,)))

    def evolve_through(self, f: ComplexField, times) -> Iterator[ComplexField]:
        """Yield exp(i*t_k*(dxx - V)) f for each t_k in order (any sign, repeats allowed).

        One kernel sweep over the times' lattice points, or one projection
        onto the eigenbasis; each yield is ``evolve(f, t_k)`` at roundoff,
        whatever other times were requested.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise ParameterError(f"evolution times must be a finite 1D sequence, got {times!r}")
        if not f.grid.same_as(self.grid):
            raise GridMismatchError("field and propagator grids differ")
        return (ComplexField(self.grid, u) for u in self._flow(f.values, times))

    def _flow(self, u: np.ndarray, times, start: float = 0.0) -> Iterator[np.ndarray]:
        """The flow of raw samples u at ``start``, shape (N,) or a (B, N) stack, at each time.

        Unchecked: the caller validates u and the times, and puts ``start``
        on the dt lattice.  The splitting path sweeps the times' lattice
        points (``substep_sizes``, signed) in one kernel call and yields its
        buffer there, or one remainder substep on a copy off the lattice;
        ``np.fft`` works along the last axis, so each row is its own flow.
        """
        if self.method == "eigendecomposition":
            energies, modes = self._eigensystem()
            coeff = _real_matmul(u, modes)
            return (
                _real_matmul(np.exp(-1j * energies * (t - start)) * coeff, modes.T) for t in times
            )
        n_k, rems = [], []
        for t in (start, *times):
            n, rem = substep_sizes(t, self.dt)
            n_k.append(math.copysign(n, t))
            rems.append(math.copysign(rem, t))
        sweep = strang(np.array(u), np.diff(n_k) * self.dt, self.dt, *self._rules)
        return (next(strang(u.copy(), (rem,), self.dt, *self._rules)) if rem else u
                for rem, u in zip(rems[1:], sweep))
