"""Analysis/synthesis dictionaries over flattened d x d images and 1D signals.

Kinds
-----
haar2d(J)
    Orthobasis of 4^J periodized 2D Haar wavelets on a d x d grid, d = 2**J.
    Four families per scale: sign split along x2 (family 1), along x1
    (family 2), checkerboard (family 3) and the constant-on-block family 4
    kept only at the coarsest scale j = J-1.  Values are +-2**-j on a
    2**j x 2**j block.  Analyze/synthesize apply the sparse analysis matrix
    H (CSR, 4**J (3(J-1) + 1) nonzeros, built in closed form on first use
    and cached per J) and its transpose view; atom k is row k of H.
sinusoid2d(d, L, include_constant)
    Orthonormal set of low-frequency real sinusoids sampled at integer pixels
    alpha in {1..d}^2 with arguments 2*pi*l*alpha/d: the four sin/cos product
    families with frequencies up to L, each normalized to unit norm, plus an
    optional constant atom of value 1/d.  m = 4L^2 + 4L (+1).  With the
    sin and cos rows stacked in one (2L+1, d) table T, analyze is T X T^T
    and synthesize T^T M T: two matrix products per direction, O(n*L).
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

from functools import lru_cache, partial
from operator import methodcaller

import numpy as np
import scipy.sparse as sp
from scipy.linalg import hadamard

from .errors import ValidationError


# ---------------------------------------------------------------------------
# 2D Haar analysis matrix

def haar_atom_count(J: int) -> int:
    return 4 ** J


@lru_cache(maxsize=None)
def haar_matrix(J: int) -> sp.csr_array:
    """The analysis matrix H (atoms as rows, 4**J x 4**J) in CSR, built in
    closed form from index arithmetic and cached per J.  Atom k at scale j
    fills one 2**j x 2**j block with +-2**-j, so H holds
    4**J * (3(J-1) + 1) nonzeros."""
    d = 2 ** J
    index = np.int32 if 4 ** J * (3 * (J - 1) + 1) < 2 ** 31 else np.int64
    indices, values, lengths = [], [], []

    def scale(j, detail):
        size, half, blocks = 2 ** j, 2 ** (j - 1), 2 ** (J - j)
        r, c = np.divmod(np.arange(size * size, dtype=index), size)          # pixel within a block
        br, bc = np.divmod(np.arange(blocks * blocks, dtype=index), blocks)  # block, k2 slow / k1 fast
        cols = ((br * size * d + bc * size)[:, None] + (r * d + c)[None, :]).ravel()
        low, right = r >= half, c >= half
        # Families 1..3 split along x2, along x1 and as a checkerboard;
        # family 4 is constant on its block.
        if detail:
            signs = (2.0 * low - 1, 2.0 * right - 1, 1 - 2.0 * (low ^ right))
        else:
            signs = (np.ones(size * size),)
        for sign in signs:
            indices.append(cols)
            values.append(np.tile(sign * 2.0 ** (-j), blocks * blocks))
            lengths.append(np.full(blocks * blocks, size * size))

    for j in range(1, J):
        scale(j, True)
    scale(J - 1, False)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))]).astype(index)
    return sp.csr_array((np.concatenate(values), np.concatenate(indices), indptr), shape=(d * d, d * d))


def _haar_analyze_rows(rows: np.ndarray, J: int) -> np.ndarray:
    """Signals (batch, 4**J) -> coefficients (batch, 4**J)."""
    return (haar_matrix(J) @ rows.T).T


@lru_cache(maxsize=None)
def _haar_transpose(J: int) -> sp.csc_array:
    """H^T as a CSC view of H's arrays, without a second copy.  Cached:
    making the view costs about a third of one product."""
    return haar_matrix(J).T


def _haar_synthesize_rows(y: np.ndarray, J: int) -> np.ndarray:
    """Coefficients (batch, 4**J) -> signals (batch, 4**J)."""
    return (_haar_transpose(J) @ y.T).T


def _haar_row(k: int, J: int) -> np.ndarray:
    """Atom k: row k of H, dense."""
    H = haar_matrix(J)
    lo, hi = H.indptr[k], H.indptr[k + 1]
    atom = np.zeros(H.shape[1])
    atom[H.indices[lo:hi]] = H.data[lo:hi]
    return atom


# ---------------------------------------------------------------------------
# Low-frequency real sinusoids

class _SinusoidTables:
    """The sampled sin/cos table, the per-atom normalizers and the layout.

    T stacks sin(2 pi l alpha / d), l = 1..L, over cos(2 pi l alpha / d),
    l = 0..L: a (2L+1, d) table.  Every atom is a normalized outer product
    of two rows of T, so T X T^T holds the inner products of a signal X with
    all of them (and more) on a (2L+1)^2 grid indexed [l2 row, l1 row];
    ``perm`` picks the atoms from that grid in coefficient order and
    ``weights`` holds their normalizers.
    """

    def __init__(self, d: int, L: int, include_constant: bool):
        alpha = np.arange(1, d + 1, dtype=np.float64)
        ls = np.arange(1, L + 1, dtype=np.float64)
        lc = np.arange(0, L + 1, dtype=np.float64)
        self.T = np.concatenate([np.sin(2.0 * np.pi * np.outer(ls, alpha) / d),
                                 np.cos(2.0 * np.pi * np.outer(lc, alpha) / d)])
        norms = np.linalg.norm(self.T, axis=1)
        if norms.min() < 1e-9:
            raise ValidationError("degenerate all-zero sampled sinusoid")
        K = 2 * L + 1
        grid = np.arange(K * K).reshape(K, K)
        # Families: sin x sin, cos x sin, sin x cos, cos x cos without (0, 0),
        # then the constant atom, which is cos 0 x cos 0.
        parts = [grid[:L, :L], grid[L:, :L], grid[:L, L:], grid[L:, L:].ravel()[1:]]
        if include_constant:
            parts.append(grid[L, L])
        self.perm = np.concatenate([np.ravel(p) for p in parts])
        self.weights = (1.0 / np.outer(norms, norms)).ravel()[self.perm]
        self.d, self.K = d, K
        self.m = len(self.perm)

    def analyze(self, rows: np.ndarray) -> np.ndarray:
        """Signals (batch, d*d) -> coefficients (batch, m)."""
        x = rows.reshape(-1, self.d, self.d)
        grid = self.T @ x @ self.T.T
        return grid.reshape(len(x), -1)[:, self.perm] * self.weights

    def synthesize(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (batch, m) -> signals (batch, d*d)."""
        grid = np.zeros((len(y), self.K * self.K))
        grid[:, self.perm] = y * self.weights
        x = self.T.T @ grid.reshape(-1, self.K, self.K) @ self.T
        return x.reshape(len(y), -1)


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
                      atom=partial(_haar_row, J=J))


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
