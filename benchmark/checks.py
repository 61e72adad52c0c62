"""Output checks the benchmark computes apart from the program under test.

Each function takes plain arrays or bytes and returns a number or a bool, so
the tests in ``test_checks.py`` can hand it a corrupted output and see it
rejected.
"""

from __future__ import annotations

import struct

import numpy as np

#: Relative residual the 5-point equations must meet (the solver targets 1e-10).
RESIDUAL_TOL = 1e-8
#: Relative error under which a noise-free separation counts as exact.
EXACT_TOL = 1e-8
#: Errors below this are round-off; they are reported at this floor.
ERROR_FLOOR = 1e-12


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


def relative_log_error(x: np.ndarray, ref: np.ndarray) -> float:
    """||log x - log ref|| / ||log ref||, the paper's error measure for mu."""
    return relative_error(np.log(x), np.log(ref))


def interior_error(x: np.ndarray, ref: np.ndarray, band: int) -> float:
    """Relative L2 error with a ``band``-pixel boundary frame left out."""
    inner = np.s_[band:-band, band:-band]
    return relative_error(np.asarray(x)[inner], np.asarray(ref)[inner])


def strictly_decreasing(values) -> bool:
    values = list(values)
    return all(b < a for a, b in zip(values, values[1:]))


def five_point_residual(D: np.ndarray, mu: np.ndarray, u: np.ndarray) -> float:
    """Relative residual of u in -div(D grad u) + mu u = 0 on the unit square.

    The equations are assembled here from the stencil: mesh h = 1/(d-1),
    harmonic means of D on the cell faces, one equation per interior pixel,
    the boundary pixels of u taken as the Dirichlet data.  The residual is
    normalized by the coupling to the boundary values, which is the
    right-hand side of the eliminated system.
    """
    d = u.shape[0]
    inv_h2 = (d - 1.0) ** 2
    c = D[1:-1, 1:-1]

    def face(nb):
        return 2.0 * c * nb / (c + nb) * inv_h2

    east, west = face(D[1:-1, 2:]), face(D[1:-1, :-2])
    north, south = face(D[2:, 1:-1]), face(D[:-2, 1:-1])
    uc = u[1:-1, 1:-1]
    r = ((east + west + north + south + mu[1:-1, 1:-1]) * uc
         - east * u[1:-1, 2:] - west * u[1:-1, :-2]
         - north * u[2:, 1:-1] - south * u[:-2, 1:-1])
    b = np.zeros_like(uc)
    b[:, -1] += east[:, -1] * u[1:-1, -1]
    b[:, 0] += west[:, 0] * u[1:-1, 0]
    b[-1, :] += north[-1, :] * u[-1, 1:-1]
    b[0, :] += south[0, :] * u[0, 1:-1]
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def separation_error(f_hat: np.ndarray, g_hats, f: np.ndarray, gs) -> float:
    """Largest relative error of the shared part and of every g_i."""
    if len(g_hats) != len(gs):
        return float("inf")
    return max([relative_error(f_hat, f)] + [relative_error(a, b) for a, b in zip(g_hats, gs)])


def rg2_round_trip_ok(raw: bytes, original: np.ndarray, read_back: np.ndarray) -> bool:
    """True when an RG2 file and its read-back hold ``original`` bit for bit.

    The file is decoded here from the layout: the 16-byte header (magic
    ``RG2\\0``, uint32-LE side, eight zero bytes), then side^2 little-endian
    float64 values row-major, so its size is 16 + 8 d^2.
    """
    d = original.shape[0]
    if len(raw) != 16 + 8 * d * d:
        return False
    if raw[:16] != b"RG2\x00" + struct.pack("<I", d) + bytes(8):
        return False
    bits = np.ascontiguousarray(original, dtype="<f8").view("<u8").ravel()
    body = np.frombuffer(raw, dtype="<u8", offset=16)
    back = np.ascontiguousarray(read_back, dtype="<f8").view("<u8").ravel()
    return bool(np.array_equal(body, bits) and np.array_equal(back, bits))
