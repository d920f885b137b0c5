"""Binary field checkpoints.

Layout (little-endian throughout):

    offset  size  field
    0       4     magic "SNLS"
    4       4     format_version (u32, currently 1)
    8       8     n_points (u64)
    16      8     length (f64)
    24      8     time (f64)
    32      16*N  payload: N interleaved (re, im) f64 pairs

Write -> read -> write round-trips bit-identically.  A file that does not
follow this layout, whose header grid is not a valid ``Grid``, or whose
payload is not a valid ``ComplexField`` (NaN or Inf samples), raises
``CheckpointError``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError, InvalidFieldError, ParameterError
from .grid import ComplexField, Grid

__all__ = ["write_checkpoint", "read_checkpoint"]

MAGIC = b"SNLS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQdd")


def write_checkpoint(path, field: ComplexField, time: float) -> None:
    grid = field.grid
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, grid.n_points, grid.length, float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<c16").tobytes())


def read_checkpoint(path) -> tuple[ComplexField, float]:
    """The field a checkpoint holds, on its header grid, and its time."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        magic, version, n_points, length, time = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        payload = fh.read()
    expected = 16 * n_points
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    # n_points is bounded by the file size here, so building the grid is cheap;
    # the (re, im) pairs are read as complex directly, since re + 1j*im would
    # lose the sign of a zero
    try:
        field = ComplexField(Grid(n_points, length), np.frombuffer(payload, dtype="<c16"))
    except ParameterError as exc:
        raise CheckpointError(f"{path}: bad header grid: {exc}") from exc
    except InvalidFieldError as exc:
        raise CheckpointError(f"{path}: bad payload: {exc}") from exc
    return field, time
