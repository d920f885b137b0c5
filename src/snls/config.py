"""Declarative run configuration.

Grammar (one assignment per line, no code):

    # comment (also allowed after a value)
    key = value
    section.key = value

Values are parsed as, in order: booleans ``true``/``false``, integers,
floats, comma-separated number lists, and otherwise verbatim strings.  A
value with a comma is a list only when every nonempty item is a number
(``1.5,`` is a one-item list), each item an integer or a float as a
scalar would be; any other comma text, such as ``first run, small
grid``, stays one string.
Keys are dotted paths; the flat key -> value map is the whole model, so
configs diff cleanly and sweeps can be generated by templating a single
line.

Recognized keys (see README for the per-experiment required sets):

    experiment                evolve | channels | linear_channels | morawetz
                              | decay | profiles | translation_gap
                              | check_potential | sweep
    seed                      integer, synthetic-fixture RNG seed
    output_dir                artifact directory (CLI --output-dir overrides)
    grid.n_points             power of two >= 16
    grid.length               box length
    potential.family          gaussian_matched_step | logistic_step | flat
                              | custom_samples
    potential.height/width/a_minus/a_plus
    potential.csv             two-column (x, V) file for custom_samples
    potential.epsilon         decay-test exponent (default 0.5)
    initial.kind              gaussian | checkpoint
    initial.amplitude/width/center/momentum
    initial.checkpoint        path, for initial.kind = checkpoint
    solver.alpha/dt/t_final
    solver.record_stride      snapshot spacing (or solver.record_times list)
    solver.linear             drop the nonlinear term
    solver.permissive         allow alpha <= 4
    propagator.method         strang_splitting | eigendecomposition
    propagator.dt             splitting substep (channels: equal to solver.dt)
    decay.times               probe times (list), or decay.t_min/t_max/num
    channels.n_max            subsequence depth
    channels.wave_times       wave-operator pullback times (list, multiples of solver.dt)
    morawetz.t_min            identity evaluation start (default 1.0)
    translation.shifts        bump shifts (list)
    translation.t_span        two floats
    profiles.fixture          one_bump | two_bump | noise
    profiles.j_max/q/t_window/t_step
    profiles.amplitude        fixture amplitude
    profiles.count            ensemble size
    checkpoint.save           write snapshot checkpoints (evolve)
    sweep.experiment          sub-experiment to fan out
    sweep.parameter           dotted key to vary
    sweep.values              list of values
"""

from __future__ import annotations

import sys
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "parse_config_text", "EXPERIMENTS"]

EXPERIMENTS = (
    "evolve",
    "channels",
    "linear_channels",
    "morawetz",
    "decay",
    "profiles",
    "translation_gap",
    "check_potential",
    "sweep",
)

_MISSING = object()


def _parse_number(token: str):
    """An integer literal as int, any other number as float; ValueError otherwise."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _parse_value(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    parts = [p for p in text.split(",") if p.strip()]
    try:
        if "," not in text:
            return _parse_number(text)
        return [_parse_number(p) for p in parts] if parts else text
    except ValueError:
        return text


def parse_config_text(text: str, source: str = "<string>") -> "RunConfig":
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = _parse_value(value)
    return RunConfig(entries, source=source)


def _read_text(path) -> str:
    """A file's UTF-8 text; a byte that does not decode is a ConfigError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def parse_config(path) -> "RunConfig":
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


class RunConfig:
    """A validated flat map of dotted keys, with typed accessors."""

    def __init__(self, entries: dict, source: str = "<dict>"):
        self.entries = dict(entries)
        self.source = source

    def get(self, key: str, default=_MISSING):
        if key in self.entries:
            return self.entries[key]
        if default is _MISSING:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def get_float(self, key: str, default=_MISSING) -> float:
        val = self.get(key, default)
        return self._floats(key, val, [val], "a number")[0]

    def get_int(self, key: str, default=_MISSING) -> int:
        val = self.get(key, default)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{self.source}: {key} must be an integer, got {val!r}")
        return val

    def get_bool(self, key: str, default=_MISSING) -> bool:
        val = self.get(key, default)
        if not isinstance(val, bool):
            raise ConfigError(f"{self.source}: {key} must be true/false, got {val!r}")
        return val

    def get_str(self, key: str, default=_MISSING) -> str:
        val = self.get(key, default)
        if not isinstance(val, str):
            raise ConfigError(f"{self.source}: {key} must be a string, got {val!r}")
        return val

    def get_float_list(self, key: str, default=_MISSING) -> list:
        val = self.get(key, default)
        items = val if isinstance(val, list) else [val]
        return self._floats(key, val, items, "a list of numbers")

    def _floats(self, key: str, val, items: list, kind: str) -> list:
        """The items as floats; a non-number, inf or nan among them is a ConfigError."""
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"{self.source}: {key} must be {kind}, got {val!r}")
        # nan fails the comparison, and so does an int past the float range
        if not all(abs(v) <= sys.float_info.max for v in items):
            raise ConfigError(f"{self.source}: {key} must be finite, got {val!r}")
        return [float(v) for v in items]

    def experiment(self) -> str:
        name = self.get_str("experiment")
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"{self.source}: unknown experiment {name!r}; "
                f"choose one of {', '.join(EXPERIMENTS)}"
            )
        return name

    def with_override(self, key: str, value) -> "RunConfig":
        entries = dict(self.entries)
        entries[key] = value
        return RunConfig(entries, source=self.source)

    def render(self) -> str:
        """Canonical text form (sorted keys), used for reproducibility echoes."""
        lines = []
        for key in sorted(self.entries):
            val = self.entries[key]
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, list):
                # a trailing comma keeps a one-item list a list
                text = ", ".join(map(_render_scalar, val)) + ("," if len(val) == 1 else "")
            else:
                text = _render_scalar(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def _render_scalar(val) -> str:
    """Text that parses back to val: a float at full precision, and ".0" if integral."""
    if not isinstance(val, float):
        return str(val)
    text = f"{val:.17g}"
    return text + ".0" if text.lstrip("-").isdigit() else text
