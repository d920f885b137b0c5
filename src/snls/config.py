"""Declarative run configuration.

Grammar (one assignment per line, no code):

    # comment (also allowed after a value)
    key = value
    section.key = value

Values are parsed as, in order: booleans ``true``/``false``, integers,
floats, comma-separated float lists, and otherwise verbatim strings.  A
value with a comma is a float list only when every nonempty item is a
number (``1.5,`` is a one-item list); any other comma text, such as
``first run, small grid``, stays one string.
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
    channels.wave_times       wave-operator pullback times (list)
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


def _parse_scalar(token: str):
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        parts = [p for p in text.split(",") if p.strip()]
        try:
            return [float(p) for p in parts] if parts else text
        except ValueError:
            return text
    return _parse_scalar(text)


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


def parse_config(path) -> "RunConfig":
    path = Path(path)
    try:
        text = path.read_text()
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
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{self.source}: {key} must be a number, got {val!r}")
        return float(val)

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
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            return [float(val)]
        if isinstance(val, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in val
        ):
            return [float(v) for v in val]
        raise ConfigError(f"{self.source}: {key} must be a list of numbers, got {val!r}")

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
                text = ", ".join(f"{v:.17g}" for v in val) + ("," if len(val) == 1 else "")
            elif isinstance(val, float):
                text = f"{val:.17g}"
                if text.lstrip("-").isdigit():
                    text += ".0"  # an integral float must re-parse as a float
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"
