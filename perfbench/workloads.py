"""The four workloads: their configs, seeded initial data, and output checks.

Seed 0 runs the shipped config unchanged.  Any other seed scales the
initial amplitude and width (for ``profiles``: the fixture amplitude and
the first separation) by a factor drawn from [0.95, 1.05]; the grid, the
step sizes and the record times never change, so every seed costs the
same work.

The checks compare each run's artifacts with closed forms computed here,
or with properties the method must have; none compares with a stored
copy of earlier output.
"""

import csv
import json
import math
import random
from pathlib import Path

SQRT_PI_2 = math.sqrt(math.pi / 2.0)
REL_TOL = 1e-10  # closed forms agree with the discrete sums to roundoff
# The ensemble median of the profile search keeps ~1e-8 of the neighbouring
# members' bump tails (spacing 6.25, width 1.5), so the second profile's
# mass sits ~6e-9 (relative) off its closed form.
PROFILE_MASS_TOL = 1e-6


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, what, tol=REL_TOL):
    _require(
        abs(value - expected) <= tol * abs(expected),
        f"{what} = {value!r}, closed form {expected!r}",
    )


def gaussian_mass(a, w):
    """Mass of a*exp(-(x/w)^2) on the line."""
    return a * a * w * SQRT_PI_2


def gaussian_h1_sq(a, w):
    """Squared H1 norm of a*exp(-(x/w)^2): mass plus a^2 sqrt(pi/2) / w."""
    return a * a * SQRT_PI_2 * (w + 1.0 / w)


def gaussian_energy(a, w, alpha, height, v_width, a_minus, a_plus):
    """Energy of a*exp(-(x/w)^2) under the matched-Gaussian step.

    On each half-line V|u|^2 is a sum of Gaussians, so the potential term is
    integrated exactly by int_0^inf exp(-b x^2) dx = sqrt(pi/b)/2.
    """
    half = lambda b: 0.5 * math.sqrt(math.pi / b)  # noqa: E731
    b_u = 2.0 / (w * w)
    b_v = b_u + 1.0 / (v_width * v_width)
    kinetic = a * a * SQRT_PI_2 / w
    potential = a * a * (
        (a_minus + a_plus) * half(b_u) + (2.0 * height - a_minus - a_plus) * half(b_v)
    )
    p = alpha + 2.0
    nonlinear = (2.0 / p) * a**p * w * math.sqrt(math.pi / p)
    return 0.5 * (kinetic + potential + nonlinear)


def _summary(d):
    return json.loads((Path(d) / "summary.json").read_text())


def _series(d):
    with open(Path(d) / "series.csv", newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ checks


def check_channels(d, p):
    s = _summary(d)
    _close(s["u0_h1_norm"], math.sqrt(gaussian_h1_sq(p["amplitude"], p["width"])), "u0_h1_norm")
    gaps = s["wave_operator_gaps"]
    _require(len(gaps) == 2, f"expected 2 wave-operator gaps, got {gaps}")
    _require(all(b < a for a, b in zip(gaps, gaps[1:])), f"wave-operator gaps not decreasing: {gaps}")
    _require(
        s["end_to_end_reconstruction_defect"] < 1e-2,
        f"reconstruction defect {s['end_to_end_reconstruction_defect']} >= 1e-2",
    )
    mass = gaussian_mass(p["amplitude"], p["width"])
    _require(
        abs(s["final_mass_defect"]) <= REL_TOL * mass,
        f"channel mass defect {s['final_mass_defect']} is not at roundoff of mass {mass}",
    )
    _require(s["warnings"] == [], f"warnings: {s['warnings']}")


def check_morawetz(d, p):
    s = _summary(d)
    rows = _series(d)
    _require(len(rows) == 149, f"expected 149 interior times, got {len(rows)}")
    _require(s["repulsive_series_nonnegative"] is True, "repulsive series has a negative value")
    _require(
        min(float(r["repulsive_term"]) for r in rows) >= -1e-12,
        "series.csv repulsive_term has a negative value",
    )
    _require(all(float(r["density"]) >= 0.0 for r in rows), "negative Morawetz density")
    ratios = s["increment_ratios"]
    _require(s["saturates"] is True and ratios, f"no saturation: ratios {ratios}")
    _require(all(r < 0.5 for r in ratios), f"doubling-increment ratio >= 0.5: {ratios}")


def check_profiles(d, p):
    s = _summary(d)
    rows = _series(d)
    _require(s["n_profiles"] == 2, f"expected 2 profiles, got {s['n_profiles']}")
    dx = p["length"] / p["n_points"]
    expected = [
        round((p["separation"] + n * p["separation_step"]) / dx) * dx for n in range(p["count"])
    ]
    masses = {
        1.0: gaussian_mass(p["amplitude"], 1.0),  # bump 1, placed at +a_n
        -1.0: gaussian_mass(0.8 * p["amplitude"], 1.5),  # bump 2, placed at -a_n
    }
    for j, mass in enumerate(s["profile_masses"], start=1):
        mine = [r for r in rows if int(r["j"]) == j]
        _require(len(mine) == p["count"], f"profile {j}: {len(mine)} rows")
        _require(all(float(r["t_shift"]) == 0.0 for r in mine), f"profile {j}: nonzero t_shift")
        sign = math.copysign(1.0, float(mine[0]["x_shift"]))
        for r in mine:
            x, a_n = float(r["x_shift"]), expected[int(r["n"])]
            _require(abs(x - sign * a_n) <= 1e-9 * p["length"], f"profile {j}: x_shift {x} vs {sign * a_n}")
        _close(mass, masses[sign], f"profile {j} mass", PROFILE_MASS_TOL)
    rel = abs(s["pythagorean_defects"]["mass"]) / s["input_mass_last"]
    _require(rel < 0.05, f"relative mass Pythagorean defect {rel} >= 0.05")


def check_sweep(d, p):
    s = _summary(d)
    _require(s["values"] == p["alphas"], f"sweep values {s['values']}")
    for run_name, alpha in zip(s["runs"], s["values"]):
        sub = _summary(Path(d) / run_name)
        what = f"{run_name} (alpha={alpha})"
        _close(sub["mass_initial"], gaussian_mass(p["amplitude"], p["width"]), f"{what} mass_initial")
        energy = gaussian_energy(
            p["amplitude"], p["width"], alpha, p["height"], p["v_width"], p["a_minus"], p["a_plus"]
        )
        _close(sub["energy_initial"], energy, f"{what} energy_initial")
        _require(sub["relative_mass_drift"] < 1e-10, f"{what} mass drift {sub['relative_mass_drift']}")


# ------------------------------------------------------------------ table

# base: the shipped config's initial data (the program's defaults where the
# config is silent); perturbed: the keys a seed scales; threads: --threads.
WORKLOADS = {
    "channels": {
        "base": {"amplitude": 0.0565, "width": 2.0},
        "perturbed": {"initial.amplitude": "amplitude", "initial.width": "width"},
        "check": check_channels,
    },
    "morawetz": {
        "base": {"amplitude": 1.0, "width": 1.0},
        "perturbed": {"initial.amplitude": "amplitude", "initial.width": "width"},
        "check": check_morawetz,
    },
    "profiles": {
        "base": {
            "amplitude": 1.0, "separation": 200.0 / 16, "separation_step": 200.0 / 64,
            "count": 6, "length": 200.0, "n_points": 1024,
        },
        "perturbed": {"profiles.amplitude": "amplitude", "profiles.separation": "separation"},
        "check": check_profiles,
    },
    "sweep": {
        "base": {
            "amplitude": 1.0, "width": 1.0, "alphas": [4.5, 5.0, 6.0],
            "height": 2.0, "v_width": 1.0, "a_minus": 0.0, "a_plus": 1.0,
        },
        "perturbed": {"initial.amplitude": "amplitude", "initial.width": "width"},
        "check": check_sweep,
        "threads": 2,
    },
}


def params(workload, seed):
    """The workload's initial-data parameters for this seed."""
    spec = WORKLOADS[workload]
    p = dict(spec["base"])
    if seed != 0:
        rng = random.Random(f"{workload}:{seed}")
        for name in spec["perturbed"].values():
            p[name] *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
    return p


def config_text(workload, seed, shipped_text):
    """The shipped config, with the seeded initial data written in."""
    if seed == 0:
        return shipped_text
    p = params(workload, seed)
    lines = shipped_text.splitlines()
    for key, name in WORKLOADS[workload]["perturbed"].items():
        line = f"{key} = {p[name]!r}"
        hits = [i for i, ln in enumerate(lines) if ln.split("=", 1)[0].strip() == key]
        if hits:
            lines[hits[0]] = line
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"
