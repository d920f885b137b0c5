"""The reference oracle for the perturbed linear flow, shared by the tests.

``EigenPropagator`` realizes exp(i*t*(dxx - V)) by dense diagonalization of
H = -D2 + diag(V), where D2 is the closed-form differentiation matrix of
the trigonometric interpolant (entries -(-1)^(i-j) / (2 sin^2((i-j)h/2))
scaled to the box, no FFT involved), then u(t) = Q exp(-i*E*t) Q^T u.  It
shares no code with the transform stack and is exact in time, so the
splitting is checked against it.  It conserves mass and the V-weighted H1
functional to roundoff.  It is dense: keep it to small grids.
"""

import functools
import math

import numpy as np

import snls


def spectral_second_derivative_matrix(grid: snls.Grid) -> np.ndarray:
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


class EigenPropagator(snls.PerturbedPropagator):
    """exp(i*t*(dxx - V)) by projection onto the eigenbasis of H, exact in time.

    Only the raw flow differs from the splitting: ``evolve``,
    ``evolve_through`` and their input checks are inherited, so anything
    that takes a ``PerturbedPropagator`` takes the oracle.  The
    eigendecomposition is computed on first use and kept.
    """

    @functools.cached_property
    def eigensystem(self):
        ham = -spectral_second_derivative_matrix(self.grid) + np.diag(self.v)
        return np.linalg.eigh(ham)

    def _flow(self, u, times, start=0.0):
        """Project u once and apply exp(-i*E*(t - start)) per time; a (B, N)
        stack is one matrix product, so a row agrees with its own flow at
        roundoff."""
        energies, modes = self.eigensystem
        coeff = _real_matmul(u, modes)
        return (_real_matmul(np.exp(-1j * energies * (t - start)) * coeff, modes.T) for t in times)
