"""Spans and counters around the public functions of snls, installed from outside.

The program is not edited.  Each wrapper replaces a function wherever a
caller looks the name up: the attribute of the defining module or class,
and every ``snls.*`` module global that was bound to the same object by
``from .grid import l2_norm_sq``-style imports.  ``numpy.fft`` and
``scipy.fft`` are patched as soon as they are imported (an import hook), so
FFT calls are counted whichever way the program reaches them.

A span records name, start, end, parent span and thread.  Spans stay in
memory and are written out once, when the run ends.  A thread whose span
stack is empty (a sweep pool worker) takes the ``experiments.run`` span as
its parent.  Self time is a span's duration minus the union of the
intervals its children cover, so children running in parallel threads
are not subtracted twice.
"""

import functools
import importlib.abc
import itertools
import json
import math
import os
import sys
import threading
import time

# span name -> (module, attribute path) of the functions it wraps
SPANS = {
    "experiments.run": [("experiments", "run")],
    "grid.norm": [
        ("grid", "l2_norm_sq"),
        ("grid", "h1_norm_sq"),
        ("grid", "l1_norm"),
        ("grid", "lp_norm"),
        ("grid", "sup_norm"),
    ],
    "grid.monitor": [("grid", "boundary_mass_fraction"), ("grid", "high_mode_fraction")],
    "propagators.evolve": [("propagators", "PerturbedPropagator.evolve")],
    "propagators.free": [("propagators", "evolve_free"), ("propagators", "evolve_shifted")],
    "solver.solve": [("solver", "solve")],
    "diagnostics.energy": [("diagnostics", "energy")],
    "diagnostics.morawetz": [("diagnostics", "morawetz_report")],
    "scattering.wave_state": [("scattering", "nonlinear_wave_state")],
    "scattering.channel_study": [("scattering", "channel_convergence_study")],
    "scattering.profiles": [("scattering", "greedy_profile_decomposition")],
    "potentials.build": [
        ("potentials", "build_potential"),
        ("potentials", "build_potential_derivative"),
    ],
}

UNITS = {
    "snls.import_s": "s",
    "config.parse_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_points": "count",
    "grid.field_constructions": "count",
    "grid.norm_s": "s",
    "grid.norm_calls": "count",
    "propagators.evolve_s": "s",
    "propagators.evolve_calls": "count",
    "propagators.substeps": "count",
    "propagators.substep_us": "us",
    "propagators.time_units": "time_units",
    "propagators.free_s": "s",
    "propagators.free_calls": "count",
    "solver.solve_s": "s",
    "solver.step_s": "s",
    "solver.steps": "count",
    "solver.step_us": "us",
    "solver.snapshots": "count",
    "solver.snapshot_s": "s",
    "diagnostics.morawetz_s": "s",
    "diagnostics.energy_s": "s",
    "diagnostics.energy_calls": "count",
    "scattering.wave_state_s": "s",
    "scattering.channel_study_s": "s",
    "scattering.profiles_s": "s",
    "potentials.build_s": "s",
    "experiments.self_s": "s",
    "experiments.artifact_bytes": "bytes",
}

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _span_info(name, args):
    """The call arguments that the per-layer work counts are computed from."""
    if name == "propagators.evolve":
        prop, _field, t = args[:3]
        return [float(t), float(prop.dt)]
    if name == "solver.solve":
        problem = args[0]
        return [[float(t) for t in problem.record_times], float(problem.dt)]
    return None


def substeps(t, dt):
    """Substeps taken to cover |t| with step dt: the full steps plus a
    shrunken remainder, dropped below 1e-12 of the span (the rule documented
    by ``snls.propagators.substep_sizes``)."""
    mag = abs(t)
    if mag == 0.0:
        return 0
    n_full = int(math.floor(mag / dt + 1e-12))
    rem = mag - n_full * dt
    return n_full + (1 if rem > 1e-12 * max(mag, dt) else 0)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after the named modules execute."""

    def __init__(self, names, patch):
        self.names = names
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts = []
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self):
        c = getattr(self._local, "counts", None)
        if c is None:
            c = self._local.counts = {"depth": 0, "fft_calls": 0, "fft_points": 0, "fields": 0}
            with self._counts_lock:
                self._counts.append(c)
        return c

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            if name == "experiments.run" and not stack:
                tracer.root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), _span_info(name, args))
                )

        return wrapper

    def _count_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            c = tracer._counter()
            if c["depth"]:
                return fn(a, *args, **kwargs)
            c["depth"] += 1
            try:
                out = fn(a, *args, **kwargs)
            finally:
                c["depth"] -= 1
            c["fft_calls"] += 1
            c["fft_points"] += _size(a)
            return out

        return wrapper

    def _count_fields(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            tracer._counter()["fields"] += 1
            return init(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ installing

    def install_fft_hooks(self):
        """Count FFT entry points of modules imported from now on."""

        def patch(module):
            for fname in FFT_FUNCTIONS:
                fn = getattr(module, fname, None)
                if callable(fn):
                    setattr(module, fname, self._count_fft(fn))

        sys.meta_path.insert(0, _PatchOnImport(FFT_MODULES, patch))

    def install(self, snls):
        """Wrap the functions in SPANS and count ComplexField constructions."""
        modules = [m for n, m in list(sys.modules.items()) if n == "snls" or n.startswith("snls.")]
        for name, targets in SPANS.items():
            for mod_name, path in targets:
                owner = getattr(snls, mod_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._span(name, original)
                setattr(owner, attr, wrapped)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        field_cls = snls.grid.ComplexField
        field_cls.__init__ = self._count_fields(field_cls.__init__)

    # ------------------------------------------------------------ reporting

    def write(self, path, import_s, parse_s, artifact_dir):
        """Dump the spans to ``path`` and return the per-layer figures."""
        layers = self.layers(import_s, parse_s, artifact_dir)
        keys = ("id", "name", "start", "end", "parent", "thread", "info")
        with open(path, "w") as fh:
            json.dump({"layers": layers, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
        return layers

    def layers(self, import_s, parse_s, artifact_dir):
        spans = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            children.setdefault(s[4], []).append(s)

        def covered(span):
            """Length of the union of the child intervals inside the span."""
            total, reach = 0.0, span[2]
            for c in sorted(children.get(span[0], ()), key=lambda c: c[2]):
                lo, hi = max(c[2], reach), min(c[3], span[3])
                if hi > lo:
                    total += hi - lo
                    reach = hi
            return total

        def named(name):
            return [s for s in self.spans if s[1] == name]

        def self_s(name):
            return float(sum(s[3] - s[2] - covered(s) for s in named(name)))

        def outermost(name):
            return sum(1 for s in named(name) if s[4] not in spans or spans[s[4]][1] != name)

        def inclusive_s(name):
            return float(sum(s[3] - s[2] for s in named(name)))

        counts = {k: sum(c[k] for c in self._counts) for k in ("fft_calls", "fft_points", "fields")}
        evolves = named("propagators.evolve")
        solves = named("solver.solve")
        n_substeps = sum(substeps(t, dt) for t, dt in (s[6] for s in evolves))
        n_steps = sum(
            substeps(b - a, dt) for times, dt in (s[6] for s in solves)
            for a, b in zip(times[:-1], times[1:])
        )
        evolve_s = self_s("propagators.evolve")
        step_s = self_s("solver.solve")
        artifact_bytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(artifact_dir) for f in files
        )
        return {
            "snls.import_s": import_s,
            "config.parse_s": parse_s,
            "grid.fft_calls": counts["fft_calls"],
            "grid.fft_points": counts["fft_points"],
            "grid.field_constructions": counts["fields"],
            "grid.norm_s": self_s("grid.norm"),
            "grid.norm_calls": outermost("grid.norm"),
            "propagators.evolve_s": evolve_s,
            "propagators.evolve_calls": outermost("propagators.evolve"),
            "propagators.substeps": n_substeps,
            "propagators.substep_us": 1e6 * evolve_s / n_substeps if n_substeps else 0.0,
            "propagators.time_units": sum(abs(s[6][0]) for s in evolves),
            "propagators.free_s": self_s("propagators.free"),
            "propagators.free_calls": outermost("propagators.free"),
            "solver.solve_s": inclusive_s("solver.solve"),
            "solver.step_s": step_s,
            "solver.steps": n_steps,
            "solver.step_us": 1e6 * step_s / n_steps if n_steps else 0.0,
            "solver.snapshots": sum(len(s[6][0]) for s in solves),
            "solver.snapshot_s": sum(covered(s) for s in solves),
            "diagnostics.morawetz_s": self_s("diagnostics.morawetz"),
            "diagnostics.energy_s": self_s("diagnostics.energy"),
            "diagnostics.energy_calls": len(named("diagnostics.energy")),
            "scattering.wave_state_s": inclusive_s("scattering.wave_state"),
            "scattering.channel_study_s": inclusive_s("scattering.channel_study"),
            "scattering.profiles_s": inclusive_s("scattering.profiles"),
            "potentials.build_s": self_s("potentials.build"),
            "experiments.self_s": self_s("experiments.run"),
            "experiments.artifact_bytes": artifact_bytes,
        }


def _size(a):
    size = getattr(a, "size", None)
    if isinstance(size, int):
        return size
    import numpy

    return int(numpy.size(a))
