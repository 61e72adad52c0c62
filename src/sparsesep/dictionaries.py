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

Separable forms
---------------
Every haar2d and sinusoid2d atom is the outer product of two unit 1D rows
(``Separable``).  The Haar rows are, per scale j, a box over each block of
2**j pixels and the +-1 difference over it, scaled by 2**(-j/2): 2d - 4
rows, built in closed form on first use and cached per J
(``haar_separable``), and both rows of an atom belong to one scale.  The
sinusoid rows are the rows of T over their norms.  So the inner product of
two such atoms is a product of two entries of C = R_f R_g^T, a small matrix
(124 x 17 for haar2d(6) against sinusoid2d(64, 8)), and ``cross_gram``
applies A_f^T A_g and A_g^T A_f through C with two matrix products per
block of rows, without forming an image; its row k, A_g^T applied to atom k
of A_f, is one outer product of two rows of C.  For dictionaries without a
separable form ``cross_gram`` composes their operators; ``mutual_coherence``
reads its maximum off the same operator.

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
# Separable atoms

class Separable:
    """Atoms that are outer products of two unit 1D rows.

    Unit row i is ``scale[i] * rows[i]``; ``rows`` holds the exact table
    values.  Atom k, as a d x d image, is the outer product of unit rows
    first[k] and second[k]: entry (r, c) is the product of their samples r
    and c.  The rows come in consecutive groups of the given sizes (one
    group by default) and both rows of an atom lie in one group, so the
    atoms sit on the diagonal blocks of the n_rows x n_rows grid of row
    pairs, one atom per cell.  ``cell`` is each atom's index on the raveled
    grid, ``packed`` its index on the raveled diagonal blocks laid end to
    end.
    """

    def __init__(self, rows: np.ndarray, scale: np.ndarray, first: np.ndarray, second: np.ndarray,
                 sizes=None):
        n = len(rows)
        sizes = np.array(sizes if sizes is not None else [n])
        self.rows, self.scale, self.first, self.second = rows, scale, first, second
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
        group = np.searchsorted(self.bounds, first, side="right") - 1
        lo = self.bounds[group]
        self.cell = first * n + second
        self.packed = self.offsets[group] + (first - lo) * sizes[group] + (second - lo)


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


@lru_cache(maxsize=None)
def haar_separable(J: int) -> Separable:
    """The Haar atoms as outer products, built in closed form and cached per
    J.  Scale j contributes 2 * 2**(J-j) rows, scaled by 2**(-j/2): a box of
    ones over each block of 2**j pixels, then the differences, -1 on the
    first half of the block and +1 on the second.  Family 1 pairs a difference
    (first coordinate) with a box, family 2 a box with a difference, family 3
    two differences and family 4 two boxes."""
    d = 2 ** J
    pixel = np.arange(d)
    rows, scale, first, second, sizes, base = [], [], [], [], [], 0
    for j in range(1, J):
        size, blocks = 2 ** j, 2 ** (J - j)
        block, within = np.divmod(pixel, size)
        table = np.zeros((2, blocks, d))
        table[0, block, pixel] = 1.0
        table[1, block, pixel] = np.where(within < size // 2, -1.0, 1.0)
        rows.append(table.reshape(2 * blocks, d))
        scale.append(np.full(2 * blocks, 2.0 ** (-j / 2)))
        sizes.append(2 * blocks)
        br, bc = np.divmod(np.arange(blocks * blocks), blocks)
        box_r, box_c, diff_r, diff_c = base + br, base + bc, base + blocks + br, base + blocks + bc
        first += [diff_r, box_r, diff_r]
        second += [box_c, diff_c, diff_c]
        if j == J - 1:
            first.append(box_r)
            second.append(box_c)
        base += 2 * blocks
    return Separable(np.concatenate(rows), np.concatenate(scale), np.concatenate(first),
                     np.concatenate(second), sizes)


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
        self.norms = norms

    def separable(self) -> Separable:
        """Atom (l2 row, l1 row) of the grid is the outer product of those
        two rows of T over their norms."""
        first, second = np.divmod(self.perm, self.K)
        return Separable(self.T, 1.0 / self.norms, first, second)

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
    dense atom matrix when the factory already holds one; ``atom`` (k ->
    atom k) and ``row`` (k -> row k of the atom matrix) are closed forms
    when the factory has them, and ``separable`` is a zero-argument callable
    returning the atoms' ``Separable`` form.
    """

    def __init__(self, kind: str, n: int, m: int, analyze_rows, synthesize_rows, matrix=None,
                 atom=None, row=None, separable=None):
        self.kind = kind
        self.n = n
        self.m = m
        self._analyze_rows = analyze_rows
        self._synthesize_rows = synthesize_rows
        self._matrix = matrix
        self._atom = atom
        self._row = row
        self._separable = separable

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

    def row(self, k: int) -> np.ndarray:
        """Row k of the atom matrix: sample k of every atom, the analysis of
        the k-th unit signal."""
        if not 0 <= k < self.n:
            raise ValidationError(f"row index {k} out of range [0, {self.n})")
        if self._row is not None:
            return self._row(k)
        e = np.zeros(self.n)
        e[k] = 1.0
        return self.analyze(e)

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
                      atom=partial(_haar_row, J=J), separable=partial(haar_separable, J))


def sinusoid2d(d: int, L: int, include_constant: bool = False) -> Dictionary:
    if d < 4 or d % 2:
        raise ValidationError(f"sinusoid2d needs even d >= 4, got {d}")
    if not 1 <= L <= d // 2 - 1:
        raise ValidationError(f"sinusoid2d needs 1 <= L <= d/2 - 1 = {d // 2 - 1}, got {L}")
    tables = _SinusoidTables(int(d), int(L), bool(include_constant))
    return Dictionary("sinusoid2d", d * d, tables.m, tables.analyze, tables.synthesize,
                      separable=tables.separable)


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


class _SeparableCross:
    """A_f^T A_g for two separable dictionaries.

    With C = R_f R_g^T the inner products of their rows, <a_k, b_l> =
    C[i_k, i_l] C[j_k, j_l].  So A_f^T A_g s places s on the grid of g row
    pairs (S), forms C S C^T on the diagonal blocks of the f rows only, and
    reads each f atom's cell; A_g^T A_f swaps the roles, and row k of
    A_f^T A_g is outer(C[i_k], C[j_k]) read at the g cells.
    """

    def __init__(self, F: Separable, G: Separable):
        self.F, self.G = F, G
        self.C = F.scale[:, None] * (F.rows @ G.rows.T) * G.scale
        self._to_f = self._blocks(F, self.C)
        self._to_g = self._blocks(G, self.C.T)

    @staticmethod
    def _blocks(target: Separable, C: np.ndarray):
        """Per diagonal block of the target: its row range, its range in the
        packed layout and the right factor C[rows]^T, contiguous."""
        b, o = target.bounds, target.offsets
        return [(b[g], b[g + 1], o[g], o[g + 1], np.ascontiguousarray(C[b[g]:b[g + 1]].T))
                for g in range(len(b) - 1)]

    @staticmethod
    def _apply(coeffs, source: Separable, target: Separable, C, blocks) -> np.ndarray:
        n = len(source.rows)
        grid = np.zeros((n, n))
        flat = grid.ravel()
        packed = np.empty(target.offsets[-1])
        out = np.empty((len(coeffs), len(target.packed)))
        for c, result in zip(coeffs, out):
            flat[source.cell] = c
            left = C @ grid
            for lo, hi, start, stop, right in blocks:
                np.dot(left[lo:hi], right, out=packed[start:stop].reshape(hi - lo, hi - lo))
            result[:] = packed[target.packed]
        return out

    def synthesize(self, s: np.ndarray) -> np.ndarray:
        return self._apply(s, self.G, self.F, self.C, self._to_f)

    def analyze(self, y: np.ndarray) -> np.ndarray:
        return self._apply(y, self.F, self.G, self.C.T, self._to_g)

    def row(self, k: int) -> np.ndarray:
        C = self.C
        return np.outer(C[self.F.first[k]], C[self.F.second[k]]).ravel()[self.G.cell]


def _chain(first, then, rows: np.ndarray) -> np.ndarray:
    return then(first(rows))


def cross_gram(A_f: Dictionary, A_g: Dictionary) -> Dictionary:
    """The cross Gram matrix A_f^T A_g as a dictionary over the coefficient
    space of A_f: ``synthesize`` applies A_f^T A_g, ``analyze`` A_g^T A_f,
    and ``row(k)`` is A_g^T applied to atom k of A_f.  In closed form from
    the 1D rows, forming no image, when both dictionaries are separable;
    otherwise the two dictionaries' operators composed."""
    if A_f.n != A_g.n:
        raise ValidationError(f"dimension mismatch: {A_f.n} vs {A_g.n}")
    kind = f"cross({A_f.kind}, {A_g.kind})"
    if A_f._separable is not None and A_g._separable is not None:
        op = _SeparableCross(A_f._separable(), A_g._separable())
        return Dictionary(kind, A_f.m, A_g.m, op.analyze, op.synthesize, row=op.row)
    return Dictionary(kind, A_f.m, A_g.m, partial(_chain, A_f._synthesize_rows, A_g._analyze_rows),
                      partial(_chain, A_g._synthesize_rows, A_f._analyze_rows))


def mutual_coherence(A: Dictionary, B: Dictionary, chunk: int = 128) -> float:
    """Maximum absolute inner product between atoms of A and atoms of B."""
    if A.n != B.n:
        raise ValidationError(f"dimension mismatch: {A.n} vs {B.n}")
    small, big = (A, B) if A.m <= B.m else (B, A)
    cross = cross_gram(big, small)
    best = 0.0
    eye = np.eye(small.m)
    for start in range(0, small.m, chunk):
        best = max(best, float(np.abs(cross.synthesize_batch(eye[start:start + chunk])).max()))
    return best
