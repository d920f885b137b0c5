"""Experiment drivers: build objects from a config, run, write artifacts.

Every run writes ``summary.json`` (scalars, sorted keys) and ``series.csv``
(one row per time / index, floats printed with 17 significant digits) into
its output directory; identical configs produce byte-identical files.
"""

from __future__ import annotations

import concurrent.futures
import json
from pathlib import Path

import numpy as np

from . import diagnostics, scattering
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig
from .errors import ConfigError, SnlsError
from .grid import ComplexField, Grid, gaussian_packet, h1_norm_sq, l2_norm_sq, translate
from .potentials import (
    PotentialFamily,
    PotentialSpec,
    build_potential,
    build_potential_derivative,
    check_hypotheses,
    load_samples_csv,
)
from .propagators import PerturbedPropagator, evolve_free, evolve_shifted
from .solver import NlsProblem, solve

__all__ = ["run", "emit_plot_data"]


# ---------------------------------------------------------------- builders


def _build_grid(cfg: RunConfig) -> Grid:
    try:
        return Grid(cfg.get_int("grid.n_points"), cfg.get_float("grid.length"))
    except SnlsError as exc:
        raise ConfigError(str(exc)) from exc


def _potential_spec(cfg: RunConfig) -> PotentialSpec:
    family = cfg.get_str("potential.family", "gaussian_matched_step")
    try:
        if family == "custom_samples":
            return load_samples_csv(cfg.get_str("potential.csv"))
        return PotentialSpec(
            family=PotentialFamily(family),
            height=cfg.get_float("potential.height", 2.0),
            width=cfg.get_float("potential.width", 1.0),
            a_minus=cfg.get_float("potential.a_minus", 0.0),
            a_plus=cfg.get_float("potential.a_plus", 1.0),
        )
    except (SnlsError, ValueError, OSError) as exc:
        raise ConfigError(f"potential: {exc}") from exc


def _build_potential(cfg: RunConfig, grid: Grid) -> np.ndarray:
    return build_potential(_potential_spec(cfg), grid)


def _build_initial(cfg: RunConfig, grid: Grid) -> ComplexField:
    kind = cfg.get_str("initial.kind", "gaussian")
    if kind == "gaussian":
        return gaussian_packet(
            grid,
            amplitude=cfg.get_float("initial.amplitude", 1.0),
            width=cfg.get_float("initial.width", 1.0),
            center=cfg.get_float("initial.center", 0.0),
            momentum=cfg.get_float("initial.momentum", 0.0),
        )
    if kind == "checkpoint":
        snap = read_checkpoint(cfg.get_str("initial.checkpoint"))
        if snap.n_points != grid.n_points or snap.length != grid.length:
            raise ConfigError("checkpoint grid does not match grid.* settings")
        return ComplexField(grid, snap.values)
    raise ConfigError(f"initial.kind must be gaussian or checkpoint, got {kind!r}")


def _build_propagator(cfg: RunConfig, grid: Grid, v: np.ndarray) -> PerturbedPropagator:
    try:
        return PerturbedPropagator(
            grid,
            v,
            method=cfg.get_str("propagator.method", "strang_splitting"),
            dt=cfg.get_float("propagator.dt", 1e-3),
        )
    except SnlsError as exc:
        raise ConfigError(str(exc)) from exc


def _record_times(cfg: RunConfig, t_final: float) -> np.ndarray:
    if "solver.record_times" in cfg.entries:
        return np.asarray(cfg.get_float_list("solver.record_times"))
    stride = cfg.get_float("solver.record_stride", t_final)
    if stride <= 0:
        raise ConfigError("solver.record_stride must be > 0")
    n = int(round(t_final / stride))
    times = stride * np.arange(n + 1)
    if times[-1] < t_final - 1e-12:
        times = np.append(times, t_final)
    times[-1] = min(times[-1], t_final)
    return times


def _build_problem(cfg: RunConfig, grid: Grid, v: np.ndarray, u0: ComplexField) -> NlsProblem:
    t_final = cfg.get_float("solver.t_final")
    try:
        return NlsProblem(
            grid=grid,
            v=v,
            alpha=cfg.get_float("solver.alpha", 5.0),
            u0=u0,
            dt=cfg.get_float("solver.dt", 1e-3),
            t_final=t_final,
            record_times=_record_times(cfg, t_final),
            linear=cfg.get_bool("solver.linear", False),
            permissive=cfg.get_bool("solver.permissive", False),
        )
    except SnlsError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- writers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_outputs(outdir: Path, summary: dict, header, rows) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(outdir / "series.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_plot_data(series_path, columns, out_path=None) -> str:
    """Extract columns from a series.csv into a gnuplot-ready text block.

    Returns the text; writes it to ``out_path`` when given.  Unknown
    columns raise a ConfigError that lists what is available.
    """
    with open(series_path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{series_path}: empty series file")
    header = lines[0].split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(
            f"unknown column(s) {', '.join(missing)}; available: {', '.join(header)}"
        )
    idx = [header.index(c) for c in columns]
    out_lines = ["# " + " ".join(columns)]
    for ln in lines[1:]:
        cells = ln.split(",")
        out_lines.append(" ".join(cells[i] for i in idx))
    text = "\n".join(out_lines) + "\n"
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------- drivers


def _run_check_potential(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    report = check_hypotheses(
        v,
        grid,
        epsilon=cfg.get_float("potential.epsilon", 0.5),
        a_minus=cfg.get_float("potential.a_minus", 0.0),
        a_plus=cfg.get_float("potential.a_plus", 1.0),
        height=cfg.get_float("potential.height", 2.0),
    )
    summary = {"hypotheses": report.as_dict(), "all_ok": report.all_ok()}
    rows = [[x, vv] for x, vv in zip(grid.x, v)]
    _write_outputs(outdir, _with_meta(cfg, summary), ["x", "V"], rows)
    return summary


def _run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    u0 = _build_initial(cfg, grid)
    problem = _build_problem(cfg, grid, v, u0)
    traj = solve(problem)

    mass0 = traj.mass[0]
    energy0 = traj.energy[0]
    mass_drift = (
        float(np.max(np.abs(traj.mass - mass0)) / mass0) if mass0 > 0 else 0.0
    )
    energy_drift = (
        float(np.max(np.abs(traj.energy - energy0)) / abs(energy0))
        if energy0 != 0
        else 0.0
    )
    summary = {
        "mass_initial": mass0,
        "energy_initial": energy0,
        "relative_mass_drift": mass_drift,
        "relative_energy_drift": energy_drift,
        "final_sup_norm": traj.sup[-1],
        "warnings": list(traj.warnings),
    }
    header = ["t", "mass", "energy", "sup_norm", "boundary_mass_fraction", "high_mode_fraction"]
    rows = [
        [t, m, e, s, b, h]
        for t, m, e, s, b, h in zip(
            traj.times, traj.mass, traj.energy, traj.sup, traj.boundary_fraction, traj.high_mode
        )
    ]
    _write_outputs(outdir, _with_meta(cfg, summary), header, rows)
    if cfg.get_bool("checkpoint.save", False):
        for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
            write_checkpoint(outdir / f"checkpoint_{i:04d}.snls", f, t)
    return summary


def _run_decay(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    psi = _build_initial(cfg, grid)
    prop = _build_propagator(cfg, grid, v)
    if "decay.times" in cfg.entries:
        times = np.asarray(cfg.get_float_list("decay.times"))
    else:
        times = np.geomspace(
            cfg.get_float("decay.t_min", 1.0),
            cfg.get_float("decay.t_max", 100.0),
            cfg.get_int("decay.num", 13),
        )
    ratios = diagnostics.decay_ratio(prop, psi, times)
    free_const = (4.0 * np.pi) ** -0.5
    summary = {
        "max_ratio": float(np.max(ratios)),
        "final_ratio": float(ratios[-1]),
        "free_kernel_constant": free_const,
        "within_free_bound": bool(np.max(ratios) <= free_const * (1.0 + 1e-3)),
        "bounded_by_one": bool(np.max(ratios) <= 1.0),
    }
    rows = [[t, r] for t, r in zip(times, ratios)]
    _write_outputs(outdir, _with_meta(cfg, summary), ["t", "decay_ratio"], rows)
    return summary


def _run_linear_channels(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    psi = _build_initial(cfg, grid)
    prop = _build_propagator(cfg, grid, v)
    study = scattering.channel_convergence_study(prop, psi, cfg.get_int("channels.n_max", 6))
    psi_mass = l2_norm_sq(psi)
    summary = {
        "psi_mass": psi_mass,
        "final_eta_mass": l2_norm_sq(study.pairs[-1].eta),
        "final_gamma_mass": l2_norm_sq(study.pairs[-1].gamma),
        "final_mass_defect": float(study.mass_defects[-1]),
        "final_cauchy_gap": float(study.cauchy_gaps[-1]),
        "final_reconstruction_defect": float(study.reconstruction_defects[-1]),
        "cauchy_gaps_decreasing": bool(
            np.all(np.diff(study.cauchy_gaps[1:]) < 0)
        ),
        "reconstruction_decreasing": bool(
            np.all(np.diff(study.reconstruction_defects) < 0)
        ),
    }
    header = ["n", "cauchy_gap", "mass_defect", "reconstruction_defect", "eta_mass", "gamma_mass"]
    rows = [
        [
            int(n),
            study.cauchy_gaps[i],
            study.mass_defects[i],
            study.reconstruction_defects[i],
            l2_norm_sq(study.pairs[i].eta),
            l2_norm_sq(study.pairs[i].gamma),
        ]
        for i, n in enumerate(study.ns)
    ]
    _write_outputs(outdir, _with_meta(cfg, summary), header, rows)
    return summary


def _run_channels(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    u0 = _build_initial(cfg, grid)
    wave_times = sorted(cfg.get_float_list("channels.wave_times", [10.0, 20.0, 40.0]))
    cfg = cfg.with_override("solver.t_final", wave_times[-1])
    cfg = cfg.with_override("solver.record_times", wave_times)
    problem = _build_problem(cfg, grid, v, u0)
    traj = solve(problem)
    prop = _build_propagator(cfg, grid, v)

    states = [scattering.nonlinear_wave_state(traj, prop, T) for T in wave_times]
    gaps = [
        h1_norm_sq(ComplexField(grid, states[i + 1].values - states[i].values)) ** 0.5
        for i in range(len(states) - 1)
    ]
    n_max = cfg.get_int("channels.n_max", 6)
    study = scattering.channel_convergence_study(prop, states[-1], n_max)
    final = study.pairs[-1]
    t_last = wave_times[-1]
    recon = (
        traj.field_at(t_last).values
        - evolve_free(final.eta, t_last).values
        - evolve_shifted(final.gamma, t_last).values
    )
    defect = l2_norm_sq(ComplexField(grid, recon)) ** 0.5
    summary = {
        "wave_times": wave_times,
        "wave_operator_gaps": gaps,
        "gaps_decreasing": bool(np.all(np.diff(gaps) < 0)) if len(gaps) > 1 else True,
        "channel_n_max": n_max,
        "end_to_end_reconstruction_defect": defect,
        "final_cauchy_gap": float(study.cauchy_gaps[-1]),
        "final_mass_defect": float(study.mass_defects[-1]),
        "u0_h1_norm": h1_norm_sq(u0) ** 0.5,
        "warnings": list(traj.warnings),
    }
    header = ["T", "wave_gap_h1"]
    rows = [[wave_times[i + 1], g] for i, g in enumerate(gaps)]
    _write_outputs(outdir, _with_meta(cfg, summary), header, rows)
    return summary


def _run_morawetz(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    spec = _potential_spec(cfg)
    v = build_potential(spec, grid)
    u0 = _build_initial(cfg, grid)
    problem = _build_problem(cfg, grid, v, u0)
    traj = solve(problem)
    t_min = cfg.get_float("morawetz.t_min", 1.0)
    report = diagnostics.morawetz_report(
        traj, t_min=t_min, vprime=build_potential_derivative(spec, grid)
    )

    increments = []
    t_hi = 2.0 * t_min
    while t_hi <= report.times[-1] + 1e-9:
        lo, hi = t_hi / 2.0, t_hi
        mask = (report.times >= lo - 1e-9) & (report.times <= hi + 1e-9)
        if np.count_nonzero(mask) > 1:
            increments.append(
                float(np.trapezoid(report.density_series[mask], report.times[mask]))
            )
        t_hi *= 2.0
    ratios = [
        increments[i + 1] / increments[i]
        for i in range(len(increments) - 1)
        if increments[i] > 0
    ]
    summary = {
        "integral_value": report.integral_value,
        "max_residual_l1": float(np.max(report.residual_series)),
        "min_repulsive_density": report.min_repulsive_density,
        "repulsive_series_nonnegative": bool(np.all(report.repulsive_series >= -1e-12)),
        "doubling_increments": increments,
        "increment_ratios": ratios,
        "saturates": bool(all(r < 0.5 for r in ratios)) if ratios else False,
    }
    header = ["t", "density", "residual_l1", "repulsive_term"]
    rows = [
        [t, d, r, rp]
        for t, d, r, rp in zip(
            report.times, report.density_series, report.residual_series, report.repulsive_series
        )
    ]
    _write_outputs(outdir, _with_meta(cfg, summary), header, rows)
    return summary


def _run_translation_gap(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    psi = _build_initial(cfg, grid)
    prop = _build_propagator(cfg, grid, v)
    shifts = cfg.get_float_list("translation.shifts")
    span = cfg.get_float_list("translation.t_span", [0.0, 5.0])
    if len(span) != 2:
        raise ConfigError("translation.t_span must be two numbers")
    alpha = cfg.get_float("solver.alpha", 5.0)
    gaps = [
        scattering.translation_flow_gap(prop, psi, s, (span[0], span[1]), alpha=alpha)
        for s in shifts
    ]
    by_side = {}
    for side, sign in (("left", -1), ("right", 1)):
        pairs = sorted(
            ((abs(s), g) for s, g in zip(shifts, gaps) if np.sign(s) == sign)
        )
        if len(pairs) > 1:
            by_side[side] = bool(all(pairs[i + 1][1] < pairs[i][1] for i in range(len(pairs) - 1)))
    summary = {
        "shifts": shifts,
        "gaps": gaps,
        "monotone_decreasing": by_side,
    }
    rows = [[s, g] for s, g in zip(shifts, gaps)]
    _write_outputs(outdir, _with_meta(cfg, summary), ["shift", "gap"], rows)
    return summary


def _profile_fixture(cfg: RunConfig, grid: Grid) -> list:
    kind = cfg.get_str("profiles.fixture", "one_bump")
    count = cfg.get_int("profiles.count", 6)
    amp = cfg.get_float("profiles.amplitude", 1.0)
    rng = np.random.default_rng(cfg.get_int("seed", 0))
    if kind == "one_bump":
        shifts = np.round(
            rng.uniform(-grid.length / 8, grid.length / 8, size=count) / grid.dx
        ) * grid.dx
        base = gaussian_packet(grid, amplitude=amp)
        return [translate(base, s) for s in shifts]
    if kind == "two_bump":
        base1 = gaussian_packet(grid, amplitude=amp)
        base2 = gaussian_packet(grid, amplitude=0.8 * amp, width=1.5)
        s0 = cfg.get_float("profiles.separation", grid.length / 16)
        ds = cfg.get_float("profiles.separation_step", grid.length / 64)
        out = []
        for n in range(count):
            a_n = round((s0 + n * ds) / grid.dx) * grid.dx
            vals = translate(base1, a_n).values + translate(base2, -a_n).values
            out.append(ComplexField(grid, vals))
        return out
    if kind == "noise":
        out = []
        for _ in range(count):
            vals = amp * (
                rng.standard_normal(grid.n_points)
                + 1j * rng.standard_normal(grid.n_points)
            )
            out.append(ComplexField(grid, vals))
        return out
    raise ConfigError(f"profiles.fixture must be one_bump|two_bump|noise, got {kind!r}")


def _run_profiles(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    prop = _build_propagator(cfg, grid, v)
    fields = _profile_fixture(cfg, grid)
    result = scattering.greedy_profile_decomposition(
        fields,
        prop,
        j_max=cfg.get_int("profiles.j_max", 3),
        q_exponent=cfg.get_float("profiles.q", 7.0),
        t_window=cfg.get_float("profiles.t_window", 20.0),
        t_step=cfg.get_float("profiles.t_step", 0.1),
    )
    summary = {
        "n_profiles": len(result.profiles),
        "profile_masses": [l2_norm_sq(pr.psi) for pr in result.profiles],
        "remainder_mass": l2_norm_sq(result.remainder),
        "concentration_level": result.concentration_level,
        "pythagorean_defects": result.pythagorean_defects,
        "input_mass_last": l2_norm_sq(fields[-1]),
    }
    header = ["j", "n", "t_shift", "x_shift"]
    rows = []
    for j, pr in enumerate(result.profiles, start=1):
        for n, (ts, xs) in enumerate(zip(pr.t_shifts, pr.x_shifts)):
            rows.append([j, n, ts, xs])
    _write_outputs(outdir, _with_meta(cfg, summary), header, rows)
    return summary


def _run_sweep(cfg: RunConfig, outdir: Path, threads: int) -> dict:
    sub_experiment = cfg.get_str("sweep.experiment")
    if sub_experiment == "sweep":
        raise ConfigError("sweep cannot nest")
    parameter = cfg.get_str("sweep.parameter")
    values = cfg.get("sweep.values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list")

    run_names = [f"run_{i:03d}" for i in range(len(values))]

    def one(i: int):
        sub = cfg.with_override("experiment", sub_experiment)
        sub = sub.with_override(parameter, values[i])
        for key in ("sweep.experiment", "sweep.parameter", "sweep.values"):
            sub.entries.pop(key, None)
        return _dispatch(sub, outdir / run_names[i], threads=1)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(len(values))))
    else:
        for i in range(len(values)):
            one(i)

    summary = {
        "sub_experiment": sub_experiment,
        "parameter": parameter,
        "values": values,
        "runs": run_names,
    }
    rows = [[v] for v in values] if all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ) else []
    _write_outputs(outdir, _with_meta(cfg, summary), [parameter.replace(".", "_")], rows)
    return summary


def _with_meta(cfg: RunConfig, summary: dict) -> dict:
    return {
        "experiment": cfg.experiment(),
        "config": cfg.render(),
        **summary,
    }


def _dispatch(cfg: RunConfig, outdir: Path, threads: int) -> dict:
    name = cfg.experiment()
    if name == "sweep":
        return _run_sweep(cfg, outdir, threads)
    runner = {
        "check_potential": _run_check_potential,
        "evolve": _run_evolve,
        "decay": _run_decay,
        "linear_channels": _run_linear_channels,
        "channels": _run_channels,
        "morawetz": _run_morawetz,
        "translation_gap": _run_translation_gap,
        "profiles": _run_profiles,
    }.get(name)
    if runner is None:
        raise ConfigError(f"unknown experiment {name!r}")
    return runner(cfg, outdir)


def run(cfg: RunConfig, output_dir=None, threads: int = 1) -> dict:
    """Validate, execute, and write artifacts; returns the summary dict."""
    if output_dir is None:
        output_dir = cfg.get_str("output_dir", "")
        if not output_dir:
            raise ConfigError(
                "no output directory: set output_dir in the config or pass --output-dir"
            )
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    outdir = Path(output_dir)
    return _dispatch(cfg, outdir, threads)
