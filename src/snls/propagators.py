"""The linear flows: free, mass-shifted, and potential-perturbed.

exp(i*t*dxx) and exp(i*t*(dxx - 1)) are exact Fourier multipliers; the
perturbed group exp(i*t*(dxx - V)) is the splitting kernel ``strang`` with
the exact kinetic multiplier exp(-i*h*xi^2) and the exact potential phase
exp(-i*h*V).  Every substep is unitary, so mass is conserved to roundoff for
any step size; the scheme is second order in the substep h, and the
V-weighted H1 functional of the linear conservation law drifts by O(h^2).
A requested time off the lattice of substep multiples is one remainder
substep from its lattice point, so endpoint times (multiples of pi for the
channel extraction) are hit exactly.  A constant V = c needs no splitting:
the flow is then exp(-i*t*(xi^2 + c)), exact, one multiplier per time, with
no lattice and no substeps.  The tests check the splitting against an
eigendecomposition oracle that is exact in time, ``tests/oracle.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import GridMismatchError, InstabilityError, ParameterError
from .grid import ComplexField, Grid

__all__ = [
    "evolve_free",
    "evolve_shifted",
    "free_decay_constant",
    "PerturbedPropagator",
    "substep_sizes",
]

MAX_SPLITTING_DT = 0.1
# Largest quintic rotation theta = |tau| * sup|u|^5 that the local
# phase writes as 1 + i*theta instead of cos(theta) + i*sin(theta).  Below
# 2**-26.5 ~ 1.05e-8, theta^2/2 is under half an ulp of 1 and theta^3/6
# under half an ulp of theta, so cos(theta) rounds to 1 and sin(theta) to
# theta: the factor is the correctly rounded exp(-i*theta), and the only
# change is that exp(-i*tau*(V + |u|^5)) is applied as two factors.
SMALL_ROTATION = 1e-8
# Least number of points whose kinetic substep runs on the even/odd pair of
# half-length transforms (``strang``): one row's step ran 3-10 % faster with
# it at 1024 points and 10-16 % at 2048, but a (3, N) stacked step ran 3-7 %
# slower at 1024-4096 points, and ``sweep`` stacks rows of 1024 points.
PAIR_POINTS = 2048


def _multiplier(xi2: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*xi2): the free group at time t for xi2 = xi^2, and the flow of a
    constant V = c for xi2 = xi^2 + c."""
    return np.exp(-1j * t * xi2)


def evolve_free(f: ComplexField, t: float) -> ComplexField:
    """exp(i*t*dxx) f via the multiplier exp(-i*t*xi^2)."""
    if not np.isfinite(t):
        raise ParameterError(f"evolution time must be finite, got {t!r}")
    if t == 0.0:
        return f.copy()
    mult = _multiplier(f.grid.wavenumbers**2, t)
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
    n_full = int(math.floor(mag / dt + 1e-12))
    rem = mag - n_full * dt
    if rem <= 1e-12 * max(mag, dt):
        rem = 0.0
    return n_full, rem


def _signed_substeps(span: float, dt: float):
    """The substeps of ``substep_sizes(span, dt)``, signed as span, walked lazily."""
    n_full, rem = substep_sizes(span, dt)
    rest = (math.copysign(rem, span),) if rem else ()
    return itertools.chain(itertools.repeat(math.copysign(dt, span), n_full), rest)


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

    K = exp(-i*h*xi^2) / N folds in the inverse transform's 1/N, exact
    because ``Grid`` makes N a power of two.  Below PAIR_POINTS kinetic(h)
    is K; from there on it is K's blocks on the even/odd half spectra:
    (diag, off), with diag = K_lo + K_hi and off = (K_lo - K_hi) * (w^k,
    w^-k), w = exp(-2*pi*i/N), for the halves K_lo and K_hi of K."""
    xi2, n_points = grid.wavenumbers**2, grid.n_points
    pair = n_points >= PAIR_POINTS
    if pair:  # (w^k, w^-k), k < N/2
        twiddle = np.exp(np.pi / n_points * np.outer([-2j, 2j], np.arange(n_points // 2)))

    def kinetic(h):
        if not pair:
            return _multiplier(xi2, h) / n_points
        lo, hi = np.split(_multiplier(xi2, h) / n_points, 2)
        return np.stack([lo + hi] * 2), (lo - hi) * twiddle

    return substep_cache(kinetic, dt), local_phase(v, alpha, dt)


def local_phase(v: np.ndarray, alpha, dt: float):
    """The rule phase(u, tau): u *= exp(-i*tau*(V + |u|^alpha)), returning sup|u| per row.

    u has the broadcast shape of v and alpha: (N,), or a (B, N) stack of
    rows with alpha of shape (B, 1), one power per row.  |u|^alpha is
    d**(alpha/2), d = re^2 + im^2, in the rule's own scratch buffers of that
    shape.  alpha=None: the linear exp(-i*tau*V), which reads no sup and
    returns None.

    Each call computes every row's rotation theta = |tau| * sup(d)**(alpha/2).
    A quintic row with theta <= SMALL_ROTATION is multiplied by the cached
    exp(-i*tau*V) and then by 1 + i*theta_x, theta_x = -tau*|u|^5 with
    |u|^5 = d*d*sqrt(d), with no cos or sin.  A stack with such a row runs
    row by row, so each row is still bit for bit its own (N,) run.
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
    # alpha/2 per row; [()] makes an (N,) rule's a scalar, cheaper than a 0-d array
    half_rows = np.reshape(half_alpha, shape[:-1])[()]
    quintic = half_rows == 2.5

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
        theta = abs(tau) * dmax**half_rows
        small = quintic & (theta <= SMALL_ROTATION)
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
    between its substeps, a half phase at either end, and one kinetic
    substep u <- ifft(K * fft(u)) for each substep h, so every yield is an
    exact Strang state.  From PAIR_POINTS on, both transforms run on a
    (..., 2, N/2) view of u's even and odd samples and the spectrum of u is
    never built: with E and O their spectra, X_k = E_k + w^k O_k and
    X_{k+N/2} = E_k - w^k O_k, so the spectra of the result's even and odd
    samples are (diag*E + off[0]*O, off[1]*E + diag*O), in the blocks of
    kinetic(h).  The grid size alone picks the path, so a stack and its
    rows take the same one.  A nonlinear phase returns sup|u| of its input
    per row, read again after a span's closing half phase; where ``sup|u|
    < inf`` fails (NaN or Inf: the arithmetic overflowed) the error names
    the first such row.  A linear phase returns None and is not checked: a
    unitary flow of finite data stays finite.
    """
    pair = u.shape[-1] >= PAIR_POINTS
    x = u.reshape(*u.shape[:-1], -1, 2, copy=False).swapaxes(-1, -2) if pair else u
    buf, t, n_done = np.empty(x.shape, dtype=u.dtype), 0.0, 0
    cross = np.empty_like(buf) if pair else None
    # a single row compares scalars: ndarray.all on a numpy bool costs more
    # than the comparison itself, on every step
    passed = np.ndarray.all if u.ndim > 1 else bool
    for span in spans:
        phases = itertools.pairwise(itertools.chain((0.0,), _signed_substeps(span, dt), (0.0,)))
        for k, (h_prev, h) in enumerate(phases):
            amax = phase(u, 0.5 * (h_prev + h))
            if amax is not None and not h:
                amax = np.abs(u).max(axis=-1)
            if amax is not None and not passed(amax < math.inf):
                row = int(np.argmin(np.ravel(amax) < math.inf))
                where = f" in row {row}" if u.ndim > 1 else ""
                t_k = t + sum(itertools.islice(_signed_substeps(span, dt), k))
                raise InstabilityError(
                    f"sup|u| = {np.ravel(amax)[row]:.3e}{where} passed the guard at step "
                    f"{n_done + k}, t={t_k:.6g}, dt={dt:g}; reduce dt"
                )
            if h:
                np.fft.fft(x, out=buf)
                if pair:
                    diag, off = kinetic(h)
                    np.multiply(buf[..., ::-1, :], off, out=cross)
                    buf *= diag
                    buf += cross
                else:
                    buf *= kinetic(h)
                np.fft.ifft(buf, out=x, norm="forward")
        # the span's last phase is its closing half phase, after its k substeps
        t, n_done = t + span, n_done + k
        yield u


class PerturbedPropagator:
    """exp(i*t*(dxx - V)) on a fixed grid, by Strang splitting at substep dt.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, grid: Grid, v, dt: float = 1e-3):
        v = _frozen_potential(v, grid)
        if not (0.0 < dt <= MAX_SPLITTING_DT):
            raise ParameterError(f"splitting substep must satisfy 0 < dt <= {MAX_SPLITTING_DT}")
        self.grid = grid
        self.v = v
        self.dt = float(dt)
        self._rules = strang_rules(grid, v, self.dt)
        # a constant V = c is the one multiplier exp(-i*t*(xi^2 + c)) per time
        self._flat_xi2 = grid.wavenumbers**2 + v[0] if np.all(v == v[0]) else None

    def evolve(self, f: ComplexField, t: float) -> ComplexField:
        return next(self.evolve_through(f, (t,)))

    def evolve_through(self, f: ComplexField, times) -> Iterator[ComplexField]:
        """Yield exp(i*t_k*(dxx - V)) f for each t_k in order (any sign, repeats allowed).

        One kernel sweep over the times' lattice points; each yield is
        ``evolve(f, t_k)`` at roundoff, whatever other times were requested.
        A constant V is one Fourier multiplier per time, exact in time and
        with no lattice.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise ParameterError(f"evolution times must be a finite 1D sequence, got {times!r}")
        if not f.grid.same_as(self.grid):
            raise GridMismatchError("field and propagator grids differ")
        return (ComplexField(self.grid, u) for u in self._flow(f.values, times))

    def _flow(self, u: np.ndarray, times, start: float = 0.0) -> Iterator[np.ndarray]:
        """The flow of raw samples u at ``start``, shape (N,) or a (B, N) stack, at each time.

        Unchecked: the caller validates u and the times, puts ``start`` on
        the dt lattice, and leaves u unchanged while it reads the flow.  For
        a constant V = c the flow is exact in time, with no lattice: one FFT
        of u, then ifft(exp(-i*(t - start)*(xi^2 + c)) * fft(u)) at each
        time, and a copy of u at t = start.  Otherwise it sweeps the times'
        lattice points (``substep_sizes``, signed) in one kernel call and
        yields its buffer there, or one remainder substep on a copy off the
        lattice.  ``np.fft`` works along the last axis, so each row is its
        own flow.
        """
        if self._flat_xi2 is not None:
            uhat = np.fft.fft(u)
            return (u.copy() if t == start
                    else np.fft.ifft(_multiplier(self._flat_xi2, t - start) * uhat) for t in times)
        n_k, rems = [], []
        for t in (start, *times):
            n, rem = substep_sizes(t, self.dt)
            n_k.append(math.copysign(n, t))
            rems.append(math.copysign(rem, t))
        sweep = strang(np.array(u), np.diff(n_k) * self.dt, self.dt, *self._rules)
        return (next(strang(u.copy(), (rem,), self.dt, *self._rules)) if rem else u
                for rem, u in zip(rems[1:], sweep))
