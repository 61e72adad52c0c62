"""Analysis/synthesis dictionaries over flattened d x d images and 1D signals.

Kinds
-----
haar2d(J)
    Orthobasis of 4^J periodized 2D Haar wavelets on a d x d grid, d = 2**J.
    Four families per scale: sign split along x2 (family 1), along x1
    (family 2), checkerboard (family 3) and the constant-on-block family 4
    kept only at the coarsest scale j = J-1.  Values are +-2**-j on a
    2**j x 2**j block.  Analyze/synthesize run as an O(n) cascade on block
    sums, never as dense products.
sinusoid2d(d, L, include_constant)
    Orthonormal set of low-frequency real sinusoids sampled at integer pixels
    alpha in {1..d}^2 with arguments 2*pi*l*alpha/d: the four sin/cos product
    families with frequencies up to L, each normalized to unit norm, plus an
    optional constant atom of value 1/d.  m = 4L^2 + 4L (+1).  Fast transforms
    are separable matrix products, O(n*L).
identity(n)
    Spike basis.
fourier1d(n)
    Flat-spectrum real orthobasis (Walsh-Hadamard, scaled by n**-0.5) used by
    the spike-separation diagnostics.  All entries have magnitude 1/sqrt(n),
    so its coherence against spikes is exactly 1/sqrt(n) and a Dirac comb of
    spacing sqrt(n) maps to sqrt(n) unit coefficients, the equality case of
    the joint-sparsity bound.
explicit(matrix)
    Arbitrary unit-norm columns, mostly for small-n tests.

Coefficient layout (haar2d): scales j = 1 (finest) .. J-1, families 1..3 per
scale, each a (2**(J-j))^2 block raveled with k2 slow / k1 fast; the four
family-4 atoms sit at the very end.  Layout (sinusoid2d): families 1..4 in
order, each raveled with l2 slow / l1 fast, constant atom last.
"""

from __future__ import annotations

from functools import partial
from operator import methodcaller

import numpy as np
from scipy.linalg import hadamard

from .errors import ValidationError


# ---------------------------------------------------------------------------
# Fast 2D Haar cascade

def haar_atom_count(J: int) -> int:
    return 4 ** J


def _haar_analyze_rows(rows: np.ndarray, J: int) -> np.ndarray:
    """Signals (batch, 4**J) -> coefficients (batch, 4**J)."""
    lead = rows.shape[:1]
    parts = []
    P = rows.reshape(lead + (2 ** J, 2 ** J))
    for j in range(1, J):
        A = P[..., 0::2, 0::2]
        B = P[..., 0::2, 1::2]
        C = P[..., 1::2, 0::2]
        D = P[..., 1::2, 1::2]
        s = 2.0 ** (-j)
        parts.append(((C + D) - (A + B)) * s)
        parts.append(((B + D) - (A + C)) * s)
        parts.append(((A + D) - (B + C)) * s)
        P = (A + B) + (C + D)
    parts.append(P * 2.0 ** (-(J - 1)))
    return np.concatenate([p.reshape(lead + (-1,)) for p in parts], axis=-1)


def _haar_synthesize_rows(y: np.ndarray, J: int) -> np.ndarray:
    """Coefficients (batch, 4**J) -> signals (batch, 4**J)."""
    lead = y.shape[:-1]
    pos = 0
    details = []
    for j in range(1, J):
        size = 2 ** (J - j)
        cnt = size * size
        blocks = []
        for _ in range(3):
            blocks.append(y[..., pos:pos + cnt].reshape(lead + (size, size)))
            pos += cnt
        details.append((j, blocks))
    c4 = y[..., pos:pos + 4].reshape(lead + (2, 2))
    P = c4 * 2.0 ** (J - 1)
    for j, (c1, c2, c3) in reversed(details):
        s = 2.0 ** j
        u1, u2, u3, u4 = c1 * s, c2 * s, c3 * s, P
        A = (u4 - u1 - u2 + u3) * 0.25
        B = (u4 - u1 + u2 - u3) * 0.25
        C = (u4 + u1 - u2 - u3) * 0.25
        D = (u4 + u1 + u2 + u3) * 0.25
        size = A.shape[-1]
        P = np.empty(lead + (2 * size, 2 * size), dtype=np.float64)
        P[..., 0::2, 0::2] = A
        P[..., 0::2, 1::2] = B
        P[..., 1::2, 0::2] = C
        P[..., 1::2, 1::2] = D
    return P.reshape(lead + (-1,))


#: Signs of the four quadrants [[top-left, top-right], [bottom-left,
#: bottom-right]] of a Haar atom's block, families 1..4.
_HAAR_QUADRANT_SIGNS = np.array([[[-1.0, -1.0], [1.0, 1.0]],
                                 [[-1.0, 1.0], [-1.0, 1.0]],
                                 [[1.0, -1.0], [-1.0, 1.0]],
                                 [[1.0, 1.0], [1.0, 1.0]]])


def _haar_atom(k: int, J: int) -> np.ndarray:
    """Atom k in closed form: one 2**j x 2**j block of +-2**-j, zero
    elsewhere.  Bit-identical to the cascade applied to e_k, at a fraction
    of its cost."""
    n_detail = 4 ** J - 4
    if k >= n_detail:
        j, family, (r, c) = J - 1, 3, divmod(k - n_detail, 2)
    else:
        j, pos = 1, k
        while pos >= 3 * 4 ** (J - j):
            pos -= 3 * 4 ** (J - j)
            j += 1
        family, local = divmod(pos, 4 ** (J - j))
        r, c = divmod(local, 2 ** (J - j))
    size, half = 2 ** j, 2 ** (j - 1)
    img = np.zeros((2 ** J, 2 ** J))
    quadrants = _HAAR_QUADRANT_SIGNS[family] * 2.0 ** (-j)
    img[r * size:(r + 1) * size, c * size:(c + 1) * size] = quadrants.repeat(half, 0).repeat(half, 1)
    return img.reshape(-1)


# ---------------------------------------------------------------------------
# Low-frequency real sinusoids

class _SinusoidTables:
    """Sampled sin/cos matrices, per-atom normalizers and the block layout."""

    def __init__(self, d: int, L: int, include_constant: bool):
        alpha = np.arange(1, d + 1, dtype=np.float64)
        ls = np.arange(1, L + 1, dtype=np.float64)
        lc = np.arange(0, L + 1, dtype=np.float64)
        self.S = np.sin(2.0 * np.pi * np.outer(ls, alpha) / d)   # (L, d)
        self.C = np.cos(2.0 * np.pi * np.outer(lc, alpha) / d)   # (L+1, d)
        ns = np.linalg.norm(self.S, axis=1)
        nc = np.linalg.norm(self.C, axis=1)
        if ns.min() < 1e-9 or nc.min() < 1e-9:
            raise ValidationError("degenerate all-zero sampled sinusoid")
        # Atom norms factor over the two axes; grids are indexed [l2, l1].
        self.w1 = 1.0 / np.outer(ns, ns)
        self.w2 = 1.0 / np.outer(nc, ns)
        self.w3 = 1.0 / np.outer(ns, nc)
        self.w4 = 1.0 / np.outer(nc, nc)
        self.d = d
        self.L = L
        self.include_constant = include_constant
        self.counts = (L * L, (L + 1) * L, L * (L + 1), (L + 1) * (L + 1) - 1)
        self.m = sum(self.counts) + (1 if include_constant else 0)

    def analyze(self, rows: np.ndarray) -> np.ndarray:
        """Signals (batch, d*d) -> coefficients (batch, m)."""
        lead = rows.shape[:1]
        x = rows.reshape(lead + (self.d, self.d))
        sx = self.S @ x
        cx = self.C @ x
        p1 = (sx @ self.S.T) * self.w1
        p2 = (cx @ self.S.T) * self.w2
        p3 = (sx @ self.C.T) * self.w3
        p4 = (cx @ self.C.T) * self.w4
        parts = [p1.reshape(lead + (-1,)), p2.reshape(lead + (-1,)),
                 p3.reshape(lead + (-1,)), p4.reshape(lead + (-1,))[..., 1:]]
        if self.include_constant:
            parts.append(x.sum(axis=(-2, -1))[..., None] / self.d)
        return np.concatenate(parts, axis=-1)

    def synthesize(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (batch, m) -> signals (batch, d*d)."""
        lead = y.shape[:-1]
        L = self.L
        c1, c2, c3, c4 = self.counts
        pos = 0
        m1 = y[..., pos:pos + c1].reshape(lead + (L, L)) * self.w1; pos += c1
        m2 = y[..., pos:pos + c2].reshape(lead + (L + 1, L)) * self.w2; pos += c2
        m3 = y[..., pos:pos + c3].reshape(lead + (L, L + 1)) * self.w3; pos += c3
        m4flat = np.zeros(lead + ((L + 1) * (L + 1),), dtype=np.float64)
        m4flat[..., 1:] = y[..., pos:pos + c4]; pos += c4
        m4 = m4flat.reshape(lead + (L + 1, L + 1)) * self.w4
        St, Ct = self.S.swapaxes(-2, -1), self.C.swapaxes(-2, -1)
        x = St @ (m1 @ self.S) + Ct @ (m2 @ self.S) + St @ (m3 @ self.C) + Ct @ (m4 @ self.C)
        if self.include_constant:
            x = x + (y[..., pos] / self.d)[..., None, None]
        return x.reshape(lead + (-1,))


# ---------------------------------------------------------------------------
# Dictionary container

class Dictionary:
    """Indexed family of unit-norm atoms with synthesis/analysis operators.

    Immutable after construction; analyze/synthesize are pure.  Signals are
    1D vectors of length n; batched variants act on stacked rows.  The
    factories below supply the operators as two row-batch callables,
    ``analyze_rows`` (batch, n) -> (batch, m) and ``synthesize_rows``
    (batch, m) -> (batch, n); ``kind`` is only a label.  ``matrix`` is the
    dense atom matrix when the factory already holds one, and ``atom`` a
    closed-form k -> atom callable when the factory has one.
    """

    def __init__(self, kind: str, n: int, m: int, analyze_rows, synthesize_rows, matrix=None,
                 atom=None):
        self.kind = kind
        self.n = n
        self.m = m
        self._analyze_rows = analyze_rows
        self._synthesize_rows = synthesize_rows
        self._matrix = matrix
        self._atom = atom

    def __repr__(self):
        return f"Dictionary(kind={self.kind!r}, n={self.n}, m={self.m})"

    # -- core operators ----------------------------------------------------
    def analyze(self, signal: np.ndarray) -> np.ndarray:
        """Inner products of every atom with the signal."""
        signal = self._check_signal(signal)
        return self._analyze_rows(signal[None, :])[0]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Linear combination of atoms with the given coefficients."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.m,):
            raise ValidationError(f"expected coefficient vector of length {self.m}, got shape {coeffs.shape}")
        return self._synthesize_rows(coeffs[None, :])[0]

    def analyze_batch(self, signals: np.ndarray) -> np.ndarray:
        signals = np.asarray(signals, dtype=np.float64)
        if signals.ndim != 2 or signals.shape[1] != self.n:
            raise ValidationError(f"expected (batch, {self.n}) signals, got shape {signals.shape}")
        return self._analyze_rows(signals)

    def synthesize_batch(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.m:
            raise ValidationError(f"expected (batch, {self.m}) coefficients, got shape {coeffs.shape}")
        return self._synthesize_rows(coeffs)

    def atom(self, k: int) -> np.ndarray:
        if not 0 <= k < self.m:
            raise ValidationError(f"atom index {k} out of range [0, {self.m})")
        if self._matrix is not None:
            return self._matrix[:, k].copy()
        if self._atom is not None:
            return self._atom(k)
        e = np.zeros(self.m)
        e[k] = 1.0
        return self.synthesize(e)

    def to_matrix(self) -> np.ndarray:
        """Dense (n, m) atom matrix; intended for small n."""
        if self._matrix is not None:
            return self._matrix.copy()
        return self.synthesize_batch(np.eye(self.m)).T

    # -- internals -----------------------------------------------------------
    def _check_signal(self, signal):
        signal = np.asarray(signal, dtype=np.float64)
        if signal.shape != (self.n,):
            raise ValidationError(f"expected signal of length {self.n}, got shape {signal.shape}")
        return signal


# ---------------------------------------------------------------------------
# Factories

def haar2d(J: int) -> Dictionary:
    if not (isinstance(J, (int, np.integer)) and J >= 2):
        raise ValidationError(f"haar2d needs an integer J >= 2, got {J!r}")
    J = int(J)
    return Dictionary("haar2d", 4 ** J, haar_atom_count(J),
                      partial(_haar_analyze_rows, J=J), partial(_haar_synthesize_rows, J=J),
                      atom=partial(_haar_atom, J=J))


def sinusoid2d(d: int, L: int, include_constant: bool = False) -> Dictionary:
    if d < 4 or d % 2:
        raise ValidationError(f"sinusoid2d needs even d >= 4, got {d}")
    if not 1 <= L <= d // 2 - 1:
        raise ValidationError(f"sinusoid2d needs 1 <= L <= d/2 - 1 = {d // 2 - 1}, got {L}")
    tables = _SinusoidTables(int(d), int(L), bool(include_constant))
    return Dictionary("sinusoid2d", d * d, tables.m, tables.analyze, tables.synthesize)


def identity(n: int) -> Dictionary:
    if n < 1:
        raise ValidationError(f"identity needs n >= 1, got {n}")
    copy_rows = methodcaller("copy")
    return Dictionary("identity", int(n), int(n), copy_rows, copy_rows)


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return rows @ mat


def _matrix_dictionary(kind: str, mat: np.ndarray) -> Dictionary:
    return Dictionary(kind, mat.shape[0], mat.shape[1],
                      partial(_times, mat=mat), partial(_times, mat=mat.T), matrix=mat)


def fourier1d(n: int) -> Dictionary:
    if n < 2 or n & (n - 1):
        raise ValidationError(f"fourier1d needs n a power of two >= 2, got {n}")
    return _matrix_dictionary("fourier1d", hadamard(int(n)).astype(np.float64) / np.sqrt(n))


def explicit(matrix: np.ndarray) -> Dictionary:
    mat = np.array(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError("explicit dictionary needs a 2D (n, m) matrix")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValidationError(f"atom {worst} has norm {norms[worst]}, expected 1")
    return _matrix_dictionary("explicit", mat)


def concatenate(*dicts: Dictionary) -> Dictionary:
    """Explicit dictionary whose atoms are all atoms of the inputs, in order."""
    if not dicts:
        raise ValidationError("need at least one dictionary")
    if len({D.n for D in dicts}) != 1:
        raise ValidationError("signal dimensions differ")
    return explicit(np.hstack([D.to_matrix() for D in dicts]))


# ---------------------------------------------------------------------------
# Derived quantities

def analyze_complement_norm(D: Dictionary, signal: np.ndarray) -> float:
    """Norm of the signal's component outside span(D).

    For an orthonormal-set dictionary this equals the norm of the analysis
    against any orthonormal completion of D, by Parseval; the completion is
    never materialized.  Computed as the projection residual
    ||s - D(D^T s)|| rather than sqrt(||s||^2 - ||D^T s||^2), which loses
    half the digits to cancellation for in-span signals.
    """
    signal = np.asarray(signal, dtype=np.float64)
    residual = signal - D.synthesize(D.analyze(signal))
    return float(np.linalg.norm(residual))


def mutual_coherence(A: Dictionary, B: Dictionary, chunk: int = 128) -> float:
    """Maximum absolute inner product between atoms of A and atoms of B."""
    if A.n != B.n:
        raise ValidationError(f"dimension mismatch: {A.n} vs {B.n}")
    small, big = (A, B) if A.m <= B.m else (B, A)
    best = 0.0
    eye = np.eye(small.m)
    for start in range(0, small.m, chunk):
        atoms = small.synthesize_batch(eye[start:start + chunk])
        best = max(best, float(np.abs(big.analyze_batch(atoms)).max()))
    return best
