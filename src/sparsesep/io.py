"""File formats: the RG2 grid container, 16-bit PGM export and CSV grids.

RG2 layout: 16-byte header (magic ``RG2\\0``, uint32-LE side, uint32-LE
reserved zero) followed by side^2 little-endian float64 values row-major.
All writers are atomic (temp file + rename).
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import ValidationError
from .grid import Grid2

RG2_MAGIC = b"RG2\x00"
_HEADER = struct.Struct("<4sII4x")  # magic, side, reserved, zero padding to 16 bytes


def _atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        # A failed write leaves neither the target nor the temp file changed.
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_rg2(path: str, grid: Grid2) -> None:
    d = grid.side
    header = _HEADER.pack(RG2_MAGIC, d, 0)
    body = np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    _atomic_write(path, header + body)


def read_rg2(path: str) -> Grid2:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"{path}: truncated RG2 header")
    magic, side, reserved = _HEADER.unpack_from(raw)
    if magic != RG2_MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {RG2_MAGIC!r}")
    if reserved != 0 or raw[12:16] != b"\x00\x00\x00\x00":
        raise ValidationError(f"{path}: reserved header bytes must be zero")
    expected = _HEADER.size + 8 * side * side
    if len(raw) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes for side {side}, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(side, side)
    return Grid2(values)


def write_pgm16(path: str, grid: Grid2) -> None:
    """Min-max scaled 16-bit binary PGM; the scale goes to ``<path>.scale.txt``."""
    v = grid.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        scaled = (v - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(v)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{grid.side} {grid.side}\n65535\n".encode("ascii")
    _atomic_write(path, header + pixels.tobytes())
    _atomic_write(f"{path}.scale.txt", f"min {lo!r}\nmax {hi!r}\n".encode("ascii"))


def write_csv_grid(path: str, grid: Grid2) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in grid.values]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_csv_grid(path: str) -> Grid2:
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    return Grid2(values)
