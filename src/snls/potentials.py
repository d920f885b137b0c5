"""Steplike potential families and hypothesis checking.

A steplike (barrier) potential has different limits at the two spatial
ends; the normalization used throughout is a_- = 0 on the left and
a_+ = 1 on the right.  The canonical family here is the two-sided matched
Gaussian

    V(x) = a_- + (h - a_-) * exp(-x^2/w^2)          x <= 0,
    V(x) = a_+ + (h - a_+) * exp(-x^2/w^2)          x >= 0,

continuous at x = 0 with both one-sided derivatives equal to 0.  For
h >= a_+ >= a_- >= 0 it is nonnegative, bounded, has the right limits,
decays to them faster than any power, is repulsive (x*V'(x) <= 0) and has
V' -> 0 at infinity, so it satisfies every structural hypothesis of the
scattering theory in closed form and makes an analytically certified test
fixture.  The logistic, flat and custom-sample families complete the set;
one family switch gives V and dV/dx together, the latter in closed form
or, for custom samples, by centered differences.

`check_hypotheses` verifies those properties on sampled values with
explicit finite tolerances.  It deliberately says nothing about the
L1-Linfty dispersive decay bound, which is a spectral property measured
dynamically by ``diagnostics.decay_ratio``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .config import _read_text
from .errors import ParameterError
from .grid import Grid

__all__ = [
    "PotentialFamily",
    "PotentialSpec",
    "HypothesisReport",
    "build_potential",
    "check_hypotheses",
    "load_samples_csv",
]


class PotentialFamily(str, Enum):
    GAUSSIAN_MATCHED_STEP = "gaussian_matched_step"
    LOGISTIC_STEP = "logistic_step"
    FLAT = "flat"
    CUSTOM_SAMPLES = "custom_samples"


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of a named potential family.

    ``height`` is the peak value at x = 0 for the matched-Gaussian step,
    ``width`` its length scale.  ``custom_x``/``custom_v`` hold samples for
    the ``custom_samples`` family (linearly interpolated onto the grid).
    """

    family: PotentialFamily = PotentialFamily.GAUSSIAN_MATCHED_STEP
    height: float = 2.0
    width: float = 1.0
    a_minus: float = 0.0
    a_plus: float = 1.0
    custom_x: Optional[np.ndarray] = None
    custom_v: Optional[np.ndarray] = None

    def __post_init__(self):
        fam = PotentialFamily(self.family)
        object.__setattr__(self, "family", fam)
        analytic = (PotentialFamily.GAUSSIAN_MATCHED_STEP, PotentialFamily.LOGISTIC_STEP)
        if fam in analytic and self.width <= 0:
            raise ParameterError("width must be > 0")
        if fam is PotentialFamily.GAUSSIAN_MATCHED_STEP and (
            self.height < self.a_plus or self.height < self.a_minus
        ):
            raise ParameterError(
                "gaussian_matched_step needs height >= max(a_minus, a_plus); "
                f"got h={self.height}, a-={self.a_minus}, a+={self.a_plus} "
                "(repulsivity would fail on the lower side)"
            )
        if fam is PotentialFamily.CUSTOM_SAMPLES:
            if self.custom_x is None or self.custom_v is None:
                raise ParameterError("custom_samples requires custom_x and custom_v")
            x = np.asarray(self.custom_x, dtype=float)
            v = np.asarray(self.custom_v, dtype=float)
            if x.shape != v.shape or x.ndim != 1 or x.size < 2:
                raise ParameterError("custom samples must be two equal 1D columns")
            if np.any(np.diff(x) <= 0):
                raise ParameterError("custom sample abscissae must increase")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                raise ParameterError("custom samples must be finite")
            object.__setattr__(self, "custom_x", x)
            object.__setattr__(self, "custom_v", v)


def _potential_pair(spec: PotentialSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """V and dV/dx at the grid points: closed forms for the analytic families,
    centered differences (one-sided at the ends) of the samples for custom ones."""
    x, fam, w = grid.x, spec.family, spec.width
    if fam is PotentialFamily.FLAT:
        return np.full(grid.n_points, float(spec.a_minus)), np.zeros(grid.n_points)
    if fam is PotentialFamily.GAUSSIAN_MATCHED_STEP:
        bump = np.exp(-(x / w) ** 2)
        core = (-2.0 * x / w**2) * bump
        rise_left, rise_right = spec.height - spec.a_minus, spec.height - spec.a_plus
        v = np.where(x < 0, spec.a_minus + rise_left * bump, spec.a_plus + rise_right * bump)
        return v, np.where(x < 0, rise_left * core, rise_right * core)
    if fam is PotentialFamily.LOGISTIC_STEP:
        step, denom = spec.a_plus - spec.a_minus, 1.0 + np.exp(-x / w)
        sig = 1.0 / denom
        return spec.a_minus + step / denom, step / w * sig * (1.0 - sig)
    v = np.interp(x, spec.custom_x, spec.custom_v)
    return v, np.gradient(v, grid.dx)


def build_potential(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Sample the potential family at the grid points."""
    return _potential_pair(spec, grid)[0]


def build_potential_derivative(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Samples of dV/dx, as :func:`_potential_pair` takes them."""
    return _potential_pair(spec, grid)[1]


def load_samples_csv(path) -> PotentialSpec:
    """Read a two-column (x, V) CSV into a custom_samples spec.

    A row is two numbers, optionally followed by one empty cell (a trailing
    comma); any other row raises ParameterError naming the file and line,
    and text that is not UTF-8 a ConfigError naming its line.
    """
    xs, vs = [], []
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            if len(row) > 3 or (len(row) == 3 and row[2].strip()):
                raise ValueError("extra cells")
            xs.append(float(row[0]))
            vs.append(float(row[1]))
        except (IndexError, ValueError) as exc:
            msg = f"{path} line {reader.line_num}: expected two numbers x, V, got {row!r}"
            raise ParameterError(msg) from exc
    return PotentialSpec(
        family=PotentialFamily.CUSTOM_SAMPLES,
        custom_x=np.asarray(xs),
        custom_v=np.asarray(vs),
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the finite-sample hypothesis tests, one flag per bullet."""

    nonnegative: bool
    bounded: bool
    left_limit_ok: bool
    right_limit_ok: bool
    decay_rate_ok: bool
    measured_exponent: float
    repulsive: bool
    gradient_vanishes: bool
    worst_violation: tuple  # (location, value) of max x*V'(x)

    def all_ok(self) -> bool:
        return all(v for v in vars(self).values() if isinstance(v, bool))

    def as_dict(self) -> dict:
        """The flags and numbers as JSON values: an infinite exponent is None."""
        d = asdict(self)
        d["worst_violation_x"], d["worst_violation_value"] = d.pop("worst_violation")
        if np.isinf(self.measured_exponent):
            d["measured_exponent"] = None
        return d


LIMIT_TOL = 1e-6


def _decay_ok_on_half(x, dev, epsilon):
    """Does |x|^(1+eps) * dev decrease toward 0 on this outer quarter?"""
    w = np.abs(x) ** (1.0 + epsilon) * dev
    wmax = float(np.max(w))
    if wmax <= LIMIT_TOL:
        return True
    # toward the boundary means toward larger |x|
    order = np.argsort(np.abs(x))
    w = w[order]
    nondecreasing_jumps = np.diff(w) > 1e-12 * max(wmax, 1.0)
    return not np.any(nondecreasing_jumps) and w[-1] <= max(LIMIT_TOL, 0.1 * w[0])


def _fit_decay_exponent(x, dev) -> float:
    """Least-squares slope of log(dev) vs log|x| where dev is resolvable."""
    mask = (dev > 1e-30) & (np.abs(x) > 0)
    if np.count_nonzero(mask) < 3:
        return float("inf")  # decayed below floating floor: faster than any power
    lx = np.log(np.abs(x[mask]))
    ld = np.log(dev[mask])
    slope = np.polyfit(lx, ld, 1)[0]
    return float(-slope)


def check_hypotheses(
    V: Sequence[float],
    grid: Grid,
    *,
    dV: Sequence[float],
    epsilon: float = 0.5,
    a_minus: float = 0.0,
    a_plus: float = 1.0,
    height: Optional[float] = None,
) -> HypothesisReport:
    """Test the structural hypotheses on sampled V and its derivative dV.

    dV is dV/dx at the grid points as ``_potential_pair`` gives it: the
    closed form of an analytic family, or the centered difference of custom
    samples (one-sided at the domain ends, where the periodic wrap would
    fake a jump of the steplike profile).

    repulsive:   x_j * dV_j <= tol at every grid point; tol = 1e-10 *
                 max(|V|, 1) absorbs rounding in dV, and the difference
                 noise of custom samples at a point where the true
                 derivative vanishes.
    limits:      mean of V over the outer 5% of each side vs a_+/- at 1e-6.
    decay:       |x|^(1+eps)|V - a_+-| decreasing toward 0 on the outer 25%
                 of each half-domain; the measured exponent is a log-log fit
                 of |V - a_+-| (inf when V reaches its limits below 1e-30;
                 ``summary.json`` writes that inf as null, since JSON has
                 no Infinity).
    """
    V, dv = np.asarray(V, dtype=float), np.asarray(dV, dtype=float)
    if V.shape != (grid.n_points,) or dv.shape != V.shape:
        raise ParameterError("V and dV must be sampled on the grid")
    if epsilon <= 0:
        raise ParameterError("epsilon must be > 0")
    x = grid.x
    scale = max(float(np.max(np.abs(V))), 1.0)
    if height is not None:
        scale = max(scale, abs(height))

    finite = bool(np.all(np.isfinite(V)))
    nonnegative = finite and bool(np.min(V) >= -1e-12 * scale)

    n = grid.n_points
    edge = max(n // 20, 2)
    left_limit_ok = finite and abs(float(np.mean(V[:edge])) - a_minus) <= LIMIT_TOL
    right_limit_ok = finite and abs(float(np.mean(V[-edge:])) - a_plus) <= LIMIT_TOL

    quarter = max(n // 8, 4)  # outer 25% of each half-domain
    left = slice(0, quarter)
    right = slice(n - quarter, n)
    dev_left = np.abs(V[left] - a_minus)
    dev_right = np.abs(V[right] - a_plus)
    decay_rate_ok = finite and bool(
        _decay_ok_on_half(x[left], dev_left, epsilon)
        and _decay_ok_on_half(x[right], dev_right, epsilon)
    )
    measured_exponent = min(
        _fit_decay_exponent(x[left], dev_left),
        _fit_decay_exponent(x[right], dev_right),
    )

    xdv = x * dv
    tol = 1e-10 * scale
    worst_idx = int(np.argmax(xdv))
    worst = (float(x[worst_idx]), float(xdv[worst_idx]))
    repulsive = finite and bool(np.max(xdv) <= tol)

    dv_scale = max(float(np.max(np.abs(dv))), 1e-300)
    edge_dv = max(float(np.max(np.abs(dv[:edge]))), float(np.max(np.abs(dv[-edge:]))))
    gradient_vanishes = finite and (edge_dv <= 1e-6 * max(dv_scale, 1.0))

    return HypothesisReport(
        nonnegative=nonnegative,
        bounded=finite,
        left_limit_ok=left_limit_ok,
        right_limit_ok=right_limit_ok,
        decay_rate_ok=decay_rate_ok,
        measured_exponent=measured_exponent,
        repulsive=repulsive,
        gradient_vanishes=gradient_vanishes,
        worst_violation=worst,
    )
