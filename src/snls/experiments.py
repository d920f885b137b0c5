"""Experiment drivers: build objects from a config, run, write artifacts.

Every run writes ``summary.json`` (scalars, sorted keys) and ``series.csv``
(one row per time / index, floats printed with 17 significant digits) into
its output directory; identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import diagnostics, scattering
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, _read_text
from .errors import ConfigError, SnlsError
from .grid import (
    ComplexField,
    Grid,
    _shift,
    gaussian_packet,
    h1_norm_sq,
    l2_norm_sq,
)
from .potentials import (
    PotentialFamily,
    PotentialSpec,
    _potential_pair,
    build_potential,
    build_potential_derivative,
    check_hypotheses,
    load_samples_csv,
)
from .propagators import PerturbedPropagator, free_decay_constant, substep_sizes
from .solver import NlsProblem, _series, _snapshots, solve, solve_stack

__all__ = ["run", "emit_plot_data"]

# rows per stacked sweep solve: at 1024 points a row's FFT pair took 32, 18, 15
# and 14.5 us in stacks of 1, 4, 8 and 16; the cap also bounds a stack's memory
STACK_ROWS = 8


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
        field, _ = read_checkpoint(cfg.get_str("initial.checkpoint"))
        if not field.grid.same_as(grid):
            raise ConfigError("checkpoint grid does not match grid.* settings")
        return field
    raise ConfigError(f"initial.kind must be gaussian or checkpoint, got {kind!r}")


def _build_propagator(cfg: RunConfig, grid: Grid, v: np.ndarray) -> PerturbedPropagator:
    """The linear flow's Strang splitting at solver.dt, the step of the solve."""
    try:
        return PerturbedPropagator(grid, v, dt=cfg.get_float("solver.dt", 1e-3))
    except SnlsError as exc:
        raise ConfigError(f"solver.dt: {exc}") from exc


def _record_times(cfg: RunConfig, t_final: float, dt: float) -> np.ndarray:
    if "solver.record_times" in cfg.entries:
        return np.asarray(cfg.get_float_list("solver.record_times"))
    stride = cfg.get_float("solver.record_stride", t_final)
    if not (t_final > 0 and stride > 0):
        raise ConfigError("solver.t_final and solver.record_stride must be > 0, "
                          f"got {t_final!r} and {stride!r}")
    # at most one stride per step, counted as the rounding below counts them
    # but checked before it, since a tiny stride overflows it
    n_full, rem = substep_sizes(t_final, dt)
    if t_final / stride > n_full + (rem > 0) + 0.5:
        raise ConfigError(f"solver.record_stride = {stride!r} asks for more strides than "
                          f"the solve's {n_full + (rem > 0)} steps")
    n = int(round(t_final / stride))
    times = stride * np.arange(n + 1)
    if times[-1] < t_final - 1e-12:
        times = np.append(times, t_final)
    times[-1] = min(times[-1], t_final)
    return times


def _build_problem(cfg: RunConfig, grid: Grid, v: np.ndarray, u0: ComplexField,
                   record_times=None) -> NlsProblem:
    """cfg's solve; given record_times end it, and solver.t_final and solver.record_* go unread."""
    t_final = cfg.get_float("solver.t_final") if record_times is None else record_times[-1]
    dt = cfg.get_float("solver.dt", 1e-3)
    try:
        if record_times is None:
            record_times = _record_times(cfg, t_final, dt)
        return NlsProblem(
            grid=grid,
            v=v,
            alpha=cfg.get_float("solver.alpha", 5.0),
            u0=u0,
            dt=dt,
            t_final=t_final,
            record_times=record_times,
            linear=cfg.get_bool("solver.linear", False),
        )
    except SnlsError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- writers


def _refuse_unread(cfg: RunConfig) -> None:
    """ConfigError naming each key of cfg that no run read, ``output_dir`` aside."""
    unread = sorted(set(cfg.entries) - cfg.read - {"output_dir"})
    if unread:
        raise ConfigError(f"{cfg.source}: no run reads {', '.join(unread)}")


def _write_outputs(cfg: RunConfig, outdir: Path, summary: dict, header, rows) -> None:
    # an evolve sweep point reads experiment only here, so the check follows
    record = {"experiment": cfg.experiment(), "config": cfg.render(), **summary}
    _refuse_unread(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w") as fh:
        # np.float64 subclasses float; other numpy values go through .tolist()
        json.dump(record, fh, indent=2, sort_keys=True, default=lambda a: a.tolist())
        fh.write("\n")
    with open(outdir / "series.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_plot_data(series_path, columns) -> str:
    """Extract columns from a series.csv into a gnuplot-ready text block.

    Unknown columns raise a ConfigError that lists what is available.  Text
    that is not UTF-8, or a row whose cell count is not the header's, raises
    a ConfigError naming its line.
    """
    lines = [(no, ln.split(",")) for no, ln in enumerate(_read_text(series_path).splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ConfigError(f"{series_path}: empty series file")
    header = lines[0][1]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(
            f"unknown column(s) {', '.join(missing)}; available: {', '.join(header)}"
        )
    idx = [header.index(c) for c in columns]
    out_lines = ["# " + " ".join(columns)]
    for no, cells in lines[1:]:
        if len(cells) != len(header):
            raise ConfigError(f"{series_path}:{no}: {len(cells)} cells, header has {len(header)}")
        out_lines.append(" ".join(cells[i] for i in idx))
    return "\n".join(out_lines) + "\n"


# ---------------------------------------------------------------- drivers


def _run_check_potential(cfg: RunConfig, outdir: Path) -> dict:
    grid = _build_grid(cfg)
    v, dv = _potential_pair(_potential_spec(cfg), grid)
    report = check_hypotheses(
        v,
        grid,
        dV=dv,
        epsilon=cfg.get_float("potential.epsilon", 0.5),
        a_minus=cfg.get_float("potential.a_minus", 0.0),
        a_plus=cfg.get_float("potential.a_plus", 1.0),
        height=cfg.get_float("potential.height", 2.0),
    )
    summary = {"hypotheses": report.as_dict(), "all_ok": report.all_ok()}
    rows = [[x, vv] for x, vv in zip(grid.x, v)]
    _write_outputs(cfg, outdir, summary, ["x", "V"], rows)
    return summary


def _evolve_problem(cfg: RunConfig, record_times=None) -> NlsProblem:
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    return _build_problem(cfg, grid, v, _build_initial(cfg, grid), record_times)


def _linear_inputs(cfg: RunConfig) -> tuple[ComplexField, PerturbedPropagator]:
    """psi and the linear propagator of a run that flows only its initial field."""
    grid = _build_grid(cfg)
    v = _build_potential(cfg, grid)
    return _build_initial(cfg, grid), _build_propagator(cfg, grid, v)


def _run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    return _run_evolve_points([(cfg, outdir)])[0]


def _write_evolve(cfg: RunConfig, outdir: Path, traj) -> dict:
    save = cfg.get_bool("checkpoint.save", False)
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
    rows = zip(traj.times, traj.mass, traj.energy, traj.sup, traj.boundary_fraction, traj.high_mode)
    _write_outputs(cfg, outdir, summary, header, rows)
    if save:
        for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
            write_checkpoint(outdir / f"checkpoint_{i:04d}.snls", f, t)
    return summary


def _run_evolve_points(points) -> list:
    """Evolve each (cfg, outdir) point; returns their summaries in order.

    Consecutive points that share a flow run stacked, and a lone point is a
    one-row stack.  A stack is written only after all its rows are solved,
    so a guard that trips in one row leaves no artifacts for any row of it.
    """
    problems = [_evolve_problem(cfg) for cfg, _ in points]
    summaries, start = [], 0
    while start < len(points):
        stop = start + 1
        while (stop < min(start + STACK_ROWS, len(points))
               and problems[start].shares_flow(problems[stop])):
            stop += 1
        for (cfg, outdir), traj in zip(points[start:stop], solve_stack(problems[start:stop])):
            summaries.append(_write_evolve(cfg, outdir, traj))
        start = stop
    return summaries


def _run_decay(cfg: RunConfig, outdir: Path) -> dict:
    """The decay ratio of the linear flow at each of the required decay.times."""
    times = np.asarray(cfg.get_float_list("decay.times"))
    psi, prop = _linear_inputs(cfg)
    ratios = diagnostics.decay_ratio(prop, psi, times)
    free_const = free_decay_constant()
    summary = {
        "max_ratio": float(np.max(ratios)),
        "final_ratio": float(ratios[-1]),
        "free_kernel_constant": free_const,
        "within_free_bound": bool(np.max(ratios) <= free_const * (1.0 + 1e-3)),
        "bounded_by_one": bool(np.max(ratios) <= 1.0),
    }
    _write_outputs(cfg, outdir, summary, ["t", "decay_ratio"], zip(times, ratios))
    return summary


def _decreasing(values):
    """Whether values strictly decrease; None for fewer than two, where no order can fail."""
    return bool(np.all(np.diff(values) < 0)) if len(values) > 1 else None


def _final_gap(study):
    """The last pair's Cauchy gap; None for one pair, which has nothing to compare with."""
    return float(study.cauchy_gaps[-1]) if len(study.pairs) > 1 else None


def _run_linear_channels(cfg: RunConfig, outdir: Path) -> dict:
    psi, prop = _linear_inputs(cfg)
    study = scattering.channel_convergence_study(prop, psi, cfg.get_int("channels.n_max", 6))
    psi_mass = l2_norm_sq(psi)
    summary = {
        "psi_mass": psi_mass,
        "final_eta_mass": l2_norm_sq(study.pairs[-1].eta),
        "final_gamma_mass": l2_norm_sq(study.pairs[-1].gamma),
        "final_mass_defect": float(study.mass_defects[-1]),
        "final_cauchy_gap": _final_gap(study),
        "final_reconstruction_defect": float(study.reconstruction_defects[-1]),
        "cauchy_gaps_decreasing": _decreasing(study.cauchy_gaps[1:]),
        "reconstruction_decreasing": _decreasing(study.reconstruction_defects),
    }
    header = ["n", "cauchy_gap", "mass_defect", "reconstruction_defect", "eta_mass", "gamma_mass"]
    rows = [
        [pr.extraction_n, pr.cauchy_gap, mass, rec, l2_norm_sq(pr.eta), l2_norm_sq(pr.gamma)]
        for pr, mass, rec in zip(study.pairs, study.mass_defects, study.reconstruction_defects)
    ]
    _write_outputs(cfg, outdir, summary, header, rows)
    return summary


def _run_channels(cfg: RunConfig, outdir: Path) -> dict:
    wave_times = sorted(cfg.get_float_list("channels.wave_times", [10.0, 20.0, 40.0]))
    # checked here, where the error can name the key: the solve sees record_times
    if not (wave_times[0] >= 0 and np.all(np.diff(wave_times) > 0)):
        raise ConfigError(f"channels.wave_times must be distinct and >= 0, got {wave_times}")
    problem = _evolve_problem(cfg, wave_times)
    # the legs undo the solve's own splitting: at another step the
    # wave-operator gaps would measure splitting error
    prop = _build_propagator(cfg, problem.grid, problem.v)
    # each leg runs between two wave times, and the backward sweep that the
    # channel study is read off starts at the last one, on the step lattice
    if any(substep_sizes(T, problem.dt)[1] for T in wave_times):
        raise ConfigError("channels: channels.wave_times must be multiples of solver.dt")
    n_max = cfg.get_int("channels.n_max", 6)
    try:
        # the summary reads pairs n_max - 1 and n_max only: their four
        # endpoint times (two at n_max = 1), and no held-out time
        pair_times = scattering._channel_times(n_max)[-5:-1]
    except SnlsError as exc:
        raise ConfigError(f"channels.n_max: {exc}") from exc
    traj = solve(problem)

    # the gaps between successive wave times, in the conserved h1v norm; the
    # backward sweep of u(T_max) ends at T_{K-1} or the lowest pair time
    gaps, flow = scattering._wave_gaps(traj, prop, wave_times, pair_times)
    t_last = wave_times[-1]
    study = scattering._channel_study(traj.field_at(t_last), flow, first=max(n_max - 1, 1))
    defect = scattering._reconstruction_defect(traj.field_at(t_last), study.pairs[-1], t_last)
    summary = {
        "wave_times": wave_times,
        "wave_operator_gaps": gaps,
        "gaps_decreasing": _decreasing(gaps),
        "channel_n_max": n_max,
        "end_to_end_reconstruction_defect": defect,
        "final_cauchy_gap": _final_gap(study),
        "final_mass_defect": float(study.mass_defects[-1]),
        "u0_h1_norm": h1_norm_sq(problem.u0) ** 0.5,
        "warnings": list(traj.warnings),
    }
    header = ["T", "wave_gap_h1v"]
    rows = [[wave_times[i + 1], g] for i, g in enumerate(gaps)]
    _write_outputs(cfg, outdir, summary, header, rows)
    return summary


def _run_morawetz(cfg: RunConfig, outdir: Path) -> dict:
    problem = _evolve_problem(cfg)
    t_min = cfg.get_float("morawetz.t_min", 1.0)
    times = diagnostics._morawetz_times(problem.record_times, "difference", t_min)
    # the snapshots stream through the report's window as the solve makes
    # them; only the monitors that the walk takes of them are kept
    series = [[]]
    snaps = zip(problem.record_times, _snapshots([problem], series))
    report = diagnostics._morawetz_window(
        problem, times, (f.values for t, (f,) in snaps if t >= times[0]), "difference",
        build_potential_derivative(_potential_spec(cfg), problem.grid),
    )
    notes = _series(series[0])[-1]

    increments = []
    t_hi = 2.0 * t_min
    while t_hi <= report.times[-1] + 1e-9:
        mask = (report.times >= t_hi / 2.0 - 1e-9) & (report.times <= t_hi + 1e-9)
        if np.count_nonzero(mask) > 1:
            increments.append(float(np.trapezoid(report.density_series[mask], report.times[mask])))
        t_hi *= 2.0
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0]
    summary = {
        "integral_value": report.integral_value,
        "max_residual_l1": float(np.max(report.residual_series)),
        "min_repulsive_density": report.min_repulsive_density,
        "repulsive_series_nonnegative": bool(np.all(report.repulsive_series >= -1e-12)),
        "doubling_increments": increments,
        "increment_ratios": ratios,
        "saturates": bool(all(r < 0.5 for r in ratios)) if ratios else None,
        "warnings": list(notes),
    }
    header = ["t", "density", "residual_l1", "repulsive_term"]
    rows = zip(report.times, report.density_series, report.residual_series, report.repulsive_series)
    _write_outputs(cfg, outdir, summary, header, rows)
    return summary


def _run_translation_gap(cfg: RunConfig, outdir: Path) -> dict:
    psi, prop = _linear_inputs(cfg)
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
        pairs = sorted((abs(s), g) for s, g in zip(shifts, gaps) if np.sign(s) == sign)
        if len(pairs) > 1:
            by_side[side] = _decreasing([g for _, g in pairs])
    summary = {
        "shifts": shifts,
        "gaps": gaps,
        "monotone_decreasing": by_side,
    }
    rows = [[s, g] for s, g in zip(shifts, gaps)]
    _write_outputs(cfg, outdir, summary, ["shift", "gap"], rows)
    return summary


def _profile_fixture(cfg: RunConfig, grid: Grid) -> list:
    kind = cfg.get_str("profiles.fixture", "one_bump")
    count = cfg.get_int("profiles.count", 6)
    if count < 0:
        raise ConfigError(f"profiles.count must be >= 0, got {count}")
    amp = cfg.get_float("profiles.amplitude", 1.0)
    # read for every fixture, so a bad seed fails alike; only one_bump and
    # noise draw, and only they import numpy.random (about 5 MB)
    seed = cfg.get_int("seed", 0)
    if kind == "one_bump":
        rng = np.random.default_rng(seed)
        shifts = np.round(
            rng.uniform(-grid.length / 8, grid.length / 8, size=count) / grid.dx
        ) * grid.dx
        base = gaussian_packet(grid, amplitude=amp)
        return [ComplexField(grid, row) for row in _shift(base.values, grid.wavenumbers, shifts)]
    if kind == "two_bump":
        base1 = gaussian_packet(grid, amplitude=amp)
        base2 = gaussian_packet(grid, amplitude=0.8 * amp, width=1.5)
        s0 = cfg.get_float("profiles.separation", grid.length / 16)
        ds = cfg.get_float("profiles.separation_step", grid.length / 64)
        a = np.round((s0 + ds * np.arange(count)) / grid.dx) * grid.dx
        # member n is base1 moved by a_n plus base2 by -a_n, in one (2, count, N) shift
        bases = np.stack([base1.values, base2.values])[:, None]
        placed = _shift(bases, grid.wavenumbers, np.stack([a, -a]))
        return [ComplexField(grid, row) for row in placed[0] + placed[1]]
    if kind == "noise":
        rng = np.random.default_rng(seed)
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
    _write_outputs(cfg, outdir, summary, header, rows)
    return summary


def _numbers(value, name=""):
    """(name, number) for each number in a summary value, a list entry named
    name[i] and a dict entry name.key; booleans, nulls and strings are skipped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{name}.{key}" if name else key)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{name}[{i}]")
    elif isinstance(value, (int, float, np.number)) and not isinstance(value, bool):
        yield name, float(value)


def _largest_relative_changes(summaries) -> dict:
    """Each number of the point summaries -> its largest relative change
    |b - a| / max(|a|, |b|) between successive points, where equal values
    change by 0 and a NaN stays NaN.  A pair compares only the names that
    are numbers at both of its points."""
    changes = {}
    for before, after in zip(summaries, summaries[1:]):
        later = dict(_numbers(after))
        for name, a in _numbers(before):
            if (b := later.get(name)) is not None:
                rel = 0.0 if a == b else abs(b - a) / max(abs(a), abs(b))
                changes[name] = float(np.maximum(changes.get(name, 0.0), rel))
    return changes


def _run_sweep(cfg: RunConfig, outdir: Path) -> dict:
    sub_experiment = cfg.get_str("sweep.experiment")
    if sub_experiment == "sweep":
        raise ConfigError("sweep cannot nest")
    parameter = cfg.get_str("sweep.parameter")
    values = cfg.get("sweep.values")
    # no run changes the keys it reads on a number, so every point reads the
    # same keys, and each point's own check before its first write covers all
    if not (isinstance(values, list) and values
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise ConfigError("sweep.values must be a nonempty list of numbers")
    if parameter in cfg.entries:  # every point replaces it
        raise ConfigError(f"{cfg.source}: no run reads {parameter}")

    run_names = [f"run_{i:03d}" for i in range(len(values))]
    entries = {k: v for k, v in cfg.entries.items()
               if k not in ("sweep.experiment", "sweep.parameter", "sweep.values")}
    entries["experiment"] = sub_experiment
    points = [(RunConfig({**entries, parameter: value}, cfg.source), outdir / name)
              for name, value in zip(run_names, values)]
    if sub_experiment == "evolve":
        summaries = _run_evolve_points(points)
    else:
        summaries = [_dispatch(sub, path) for sub, path in points]
    for sub, _ in points:
        cfg.read |= sub.read - {parameter}

    summary = {
        "sub_experiment": sub_experiment,
        "parameter": parameter,
        "values": values,
        "runs": run_names,
        "largest_relative_change": _largest_relative_changes(summaries),
    }
    _write_outputs(cfg, outdir, summary, [parameter.replace(".", "_")], [[v] for v in values])
    return summary


_RUNNERS = {
    "check_potential": _run_check_potential,
    "evolve": _run_evolve,
    "decay": _run_decay,
    "linear_channels": _run_linear_channels,
    "channels": _run_channels,
    "morawetz": _run_morawetz,
    "translation_gap": _run_translation_gap,
    "profiles": _run_profiles,
    "sweep": _run_sweep,
}


def _dispatch(cfg: RunConfig, outdir: Path) -> dict:
    return _RUNNERS[cfg.experiment()](cfg, outdir)


def run(cfg: RunConfig, output_dir=None, threads: int = 1) -> dict:
    """Validate, execute, and write artifacts; returns the summary dict.

    ``threads`` is checked and otherwise unused: sweep points run in order
    in one thread.  A key of cfg that the run never read, other than
    ``output_dir``, is a ConfigError raised just before the run's first
    write, as it is for each sweep point; a sweep's base value of its
    ``sweep.parameter`` is refused before the first point.
    """
    if output_dir is None:
        output_dir = cfg.get_str("output_dir", "")
        if not output_dir:
            raise ConfigError(
                "no output directory: set output_dir in the config or pass --output-dir"
            )
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return _dispatch(cfg, Path(output_dir))
