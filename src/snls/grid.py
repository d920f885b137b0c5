"""Uniform periodic grid, discrete transforms and norm primitives.

Conventions, fixed once and used by every other module:

- the domain is [-L/2, L/2) sampled at N points (N a power of two, N >= 16),
  dx = L/N;
- wavenumbers are xi_k = 2*pi*k/L for k in {-N/2, ..., N/2-1}, stored in FFT
  order; the Nyquist mode is kept with xi = -pi*N/L so that the quadratic
  form sum(xi^2 |fhat|^2) agrees exactly with the trigonometric-interpolant
  Laplacian;
- the continuum transform is fhat(xi) = integral f(x) exp(-i*xi*x) dx,
  discretized as fhat_k = dx * exp(-i*xi_k*x0) * FFT(f)_k with x0 = -L/2;
- with this sign convention the free Schroedinger group exp(i*t*dxx) is the
  Fourier multiplier exp(-i*t*xi^2) (i u_t = -u_xx);
- integrals use the rectangle rule sum(...) * dx, which is spectrally
  accurate for smooth periodic (or decayed-to-zero) integrands.

The periodic box stands in for the real line.  Nothing here absorbs
outgoing waves; instead `boundary_mass_fraction` reports how much mass sits
in the outer 10% of the box so callers can detect wrap-around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, ParameterError

__all__ = [
    "Grid",
    "ComplexField",
    "gaussian_packet",
    "l2_norm_sq",
    "h1_norm_sq",
    "l1_norm",
    "lp_norm",
    "sup_norm",
    "inner_product",
    "spectral_derivative",
    "forward_transform",
    "inverse_transform",
    "translate",
    "boundary_mass_fraction",
    "high_mode_fraction",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)."""

    n_points: int
    length: float
    dx: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, length = self.n_points, float(self.length)
        if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)):
            raise ParameterError(f"n_points must be a power of two, got {n!r}")
        if n < 16:
            raise ParameterError(f"n_points must be >= 16, got {n}")
        if not np.isfinite(length) or length <= 0:
            raise ParameterError(f"length must be a positive real, got {length!r}")
        dx = length / n
        object.__setattr__(self, "n_points", int(n))
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "dx", dx)
        x = -0.5 * length + dx * np.arange(n)
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        x.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", xi)

    def same_as(self, other: "Grid") -> bool:
        return self.n_points == other.n_points and self.length == other.length


def _require_same_grid(a: Grid, b: Grid, what: str = "operands"):
    if not a.same_as(b):
        raise GridMismatchError(
            f"{what} live on different grids: "
            f"(N={a.n_points}, L={a.length}) vs (N={b.n_points}, L={b.length})"
        )


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex samples of a wavefunction on a :class:`Grid`.

    Values are validated to be finite at construction; the array is marked
    read-only so fields behave as values and are safe to share.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.grid.n_points:
            raise InvalidFieldError(
                f"values must be a 1D array of length {self.grid.n_points}, "
                f"got shape {v.shape}"
            )
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise InvalidFieldError("field contains NaN or Inf samples")
        if v is self.values:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())


def gaussian_packet(
    grid: Grid,
    amplitude: complex = 1.0,
    width: float = 1.0,
    center: float = 0.0,
    momentum: float = 0.0,
) -> ComplexField:
    """amplitude * exp(-((x-center)/width)^2) * exp(i*momentum*x)."""
    if width <= 0:
        raise ParameterError("width must be > 0")
    x = grid.x
    vals = amplitude * np.exp(-(((x - center) / width) ** 2) + 1j * momentum * x)
    return ComplexField(grid, vals)


def l2_norm_sq(f: ComplexField) -> float:
    """Squared L2 norm, sum(|f_j|^2) * dx (the conserved mass)."""
    v = f.values
    return float(np.sum(v.real**2 + v.imag**2) * f.grid.dx)


def _spectral_form(f: ComplexField, w: np.ndarray) -> float:
    """integral(w |fhat|^2) dxi / (2 pi) by Parseval: sum(w |FFT(f)|^2) * dx / N."""
    fhat_sq = np.abs(np.fft.fft(f.values)) ** 2
    return float(np.sum(w * fhat_sq) * f.grid.dx / f.grid.n_points)


def h1_norm_sq(f: ComplexField) -> float:
    """Squared H1 norm: L2 plus the L2 norm of the spectral derivative."""
    return _spectral_form(f, 1.0 + f.grid.wavenumbers**2)


def l1_norm(f: ComplexField) -> float:
    v = f.values
    return float(np.sum(np.abs(v)) * f.grid.dx)


def lp_norm(f: ComplexField, p: float) -> float:
    """L^p norm by the rectangle rule; p = inf gives the sup norm."""
    v = f.values
    if np.isinf(p):
        return float(np.max(np.abs(v)))
    if p < 1:
        raise ParameterError(f"p must be >= 1 or inf, got {p}")
    return float((np.sum(np.abs(v) ** p) * f.grid.dx) ** (1.0 / p))


def sup_norm(f: ComplexField) -> float:
    return lp_norm(f, np.inf)


def inner_product(f: ComplexField, g: ComplexField) -> complex:
    """L2 inner product sum(f * conj(g)) * dx."""
    _require_same_grid(f.grid, g.grid)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.dx)


def spectral_derivative(f: ComplexField, order: int = 1) -> ComplexField:
    """Derivative of the trigonometric interpolant (multiply by (i*xi)^order)."""
    v = f.values
    sym = (1j * f.grid.wavenumbers) ** order
    return ComplexField(f.grid, np.fft.ifft(sym * np.fft.fft(v)))


def forward_transform(f: ComplexField) -> np.ndarray:
    """Samples of fhat(xi) = integral f exp(-i*xi*x) dx at the grid wavenumbers.

    Returned in FFT order, matching ``grid.wavenumbers``.
    """
    g = f.grid
    phase = np.exp(-1j * g.wavenumbers * g.x[0])
    return g.dx * phase * np.fft.fft(f.values)


def inverse_transform(grid: Grid, fhat: np.ndarray) -> ComplexField:
    """Inverse of :func:`forward_transform`."""
    fhat = np.asarray(fhat, dtype=np.complex128)
    if fhat.shape != (grid.n_points,):
        raise GridMismatchError("spectrum length does not match grid")
    phase = np.exp(1j * grid.wavenumbers * grid.x[0])
    return ComplexField(grid, np.fft.ifft(phase * fhat) / grid.dx)


def translate(f: ComplexField, shift: float) -> ComplexField:
    """tau_s f(x) = f(x - s), realized as the Fourier phase exp(-i*xi*s)."""
    v = f.values
    phase = np.exp(-1j * f.grid.wavenumbers * shift)
    return ComplexField(f.grid, np.fft.ifft(phase * np.fft.fft(v)))


def boundary_mass_fraction(f: ComplexField) -> float:
    """Mass fraction in the outer 10% of the box (wrap-around monitor)."""
    v = f.values
    dens = v.real**2 + v.imag**2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    outer = np.abs(f.grid.x) >= 0.45 * f.grid.length
    return float(np.sum(dens[outer]) / total)


def high_mode_fraction(f: ComplexField) -> float:
    """Spectral-energy fraction in the top third of |xi| (resolution monitor)."""
    v = f.values
    power = np.abs(np.fft.fft(v)) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    xi = np.abs(f.grid.wavenumbers)
    high = xi >= (2.0 / 3.0) * xi.max()
    return float(np.sum(power[high]) / total)
