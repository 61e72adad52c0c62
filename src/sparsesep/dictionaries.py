"""Analysis/synthesis dictionaries over flattened d x d images and 1D signals.

Kinds
-----
haar2d(J)
    Orthobasis of 4^J periodized 2D Haar wavelets on a d x d grid, d = 2**J.
    Four families per scale: sign split along x2 (family 1), along x1
    (family 2), checkerboard (family 3) and the constant-on-block family 4
    kept only at the coarsest scale j = J-1.  Values are +-2**-j on a
    2**j x 2**j block.
sinusoid2d(d, L, include_constant)
    Orthonormal set of low-frequency real sinusoids sampled at integer pixels
    alpha in {1..d}^2 with arguments 2*pi*l*alpha/d: the four sin/cos product
    families with frequencies up to L, each normalized to unit norm, plus an
    optional constant atom of value 1/d.  m = 4L^2 + 4L (+1).
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
Every haar2d and sinusoid2d atom is a weighted outer product of two 1D rows
(``Separable``), and so is every pixel of a d x d image, with the rows of
the d x d identity.  The Haar rows are, per scale j, a box of ones over each
block of 2**j pixels and the -1/+1 difference over it, with the exact
weight 2**-j per scale (``haar_separable``); the sinusoid rows are the sin
and cos rows over their norms, weight 1 (``sinusoid_separable``).  Both rows
of an atom belong to one group of rows.  So the inner product of two such
atoms is their weights times a product of two entries of C = R_t R_s^T,
and one routine, ``Transfer``, maps coefficients over any source set to
inner products with every atom of any target set with two matrix products
per pair of row groups.  Analyze is pixels -> atoms, synthesize atoms ->
pixels, and ``cross_gram`` applies A_f^T A_g as A_g -> A_f and A_g^T A_f as
A_f -> A_g, without forming an image; its row k is one outer product of two
rows of C.  Everything is built in closed form on first use and cached.
For dictionaries without a separable form ``cross_gram`` composes their
operators; ``mutual_coherence`` reads its maximum off the same operator.

Coefficient layout (haar2d): scales j = 1 (finest) .. J-1, families 1..3 per
scale, each a (2**(J-j))^2 block raveled with k2 slow / k1 fast; the four
family-4 atoms sit at the very end.  Layout (sinusoid2d): families 1..4 in
order, each raveled with l2 slow / l1 fast, constant atom last.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from operator import methodcaller

import numpy as np

from .errors import ValidationError

#: Unit coefficient vectors per ``mutual_coherence`` apply.
_COHERENCE_CHUNK = 128


# ---------------------------------------------------------------------------
# Separable atoms

class Separable:
    """Atoms that are weighted outer products of two 1D rows.

    Atom k, as a d x d image, is a weight times the outer product of rows
    first[k] and second[k]: entry (r, c) is the product of their samples r
    and c.  The rows come in consecutive groups of the given sizes (one
    group by default), each with one of ``weights``, and both rows of an
    atom lie in one group, whose weight the atom takes.  So the atoms sit on
    the diagonal blocks of the n_rows x n_rows grid of row pairs, one atom
    per cell.  ``cell`` is each atom's index on the raveled grid, ``packed``
    its index on the raveled diagonal blocks laid end to end; ``in_order``
    says that atom k is packed cell k of a full layout (the pixels), so
    coefficients need no reordering.
    """

    def __init__(self, rows: np.ndarray, weights, first: np.ndarray, second: np.ndarray,
                 sizes=None):
        n = len(rows)
        sizes = np.array(sizes if sizes is not None else [n])
        self.rows, self.first, self.second = rows, first, second
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
        group = np.searchsorted(self.bounds, first, side="right") - 1
        lo = self.bounds[group]
        self.cell = first * n + second
        self.packed = self.offsets[group] + (first - lo) * sizes[group] + (second - lo)
        self.in_order = np.array_equal(self.packed, np.arange(self.offsets[-1]))


@lru_cache(maxsize=None)
def pixel_separable(d: int) -> Separable:
    """The pixel basis of a d x d image: rows of the identity, one group."""
    first, second = np.divmod(np.arange(d * d), d)
    return Separable(np.eye(d), [1.0], first, second)


@lru_cache(maxsize=None)
def haar_separable(J: int) -> Separable:
    """The Haar atoms as outer products, built in closed form and cached per
    J.  Scale j contributes a group of 2 * 2**(J-j) rows with weight 2**-j:
    a box of ones over each block of 2**j pixels, then the differences, -1
    on the first half of the block and +1 on the second.  Family 1 pairs a
    difference (first coordinate) with a box, family 2 a box with a
    difference, family 3 two differences and family 4 two boxes."""
    d = 2 ** J
    pixel = np.arange(d)
    rows, weights, first, second, sizes, base = [], [], [], [], [], 0
    for j in range(1, J):
        size, blocks = 2 ** j, 2 ** (J - j)
        block, within = np.divmod(pixel, size)
        table = np.zeros((2, blocks, d))
        table[0, block, pixel] = 1.0
        table[1, block, pixel] = np.where(within < size // 2, -1.0, 1.0)
        rows.append(table.reshape(2 * blocks, d))
        weights.append(2.0 ** -j)
        sizes.append(2 * blocks)
        br, bc = np.divmod(np.arange(blocks * blocks), blocks)
        box_r, box_c, diff_r, diff_c = base + br, base + bc, base + blocks + br, base + blocks + bc
        first += [diff_r, box_r, diff_r]
        second += [box_c, diff_c, diff_c]
        if j == J - 1:
            first.append(box_r)
            second.append(box_c)
        base += 2 * blocks
    return Separable(np.concatenate(rows), weights, np.concatenate(first), np.concatenate(second),
                     sizes)


@lru_cache(maxsize=None)
def sinusoid_separable(d: int, L: int, include_constant: bool) -> Separable:
    """The sinusoid atoms as outer products, cached per (d, L, constant).

    The rows are sin(2 pi l alpha / d), l = 1..L, then cos(2 pi l alpha / d),
    l = 0..L, each over its norm; the atoms are the products (l2 row, l1
    row) of the four families, in coefficient order."""
    alpha = np.arange(1, d + 1, dtype=np.float64)
    ls = np.arange(1, L + 1, dtype=np.float64)
    lc = np.arange(0, L + 1, dtype=np.float64)
    T = np.concatenate([np.sin(2.0 * np.pi * np.outer(ls, alpha) / d),
                        np.cos(2.0 * np.pi * np.outer(lc, alpha) / d)])
    K = 2 * L + 1
    grid = np.arange(K * K).reshape(K, K)
    # Families: sin x sin, cos x sin, sin x cos, cos x cos without (0, 0),
    # then the constant atom, which is cos 0 x cos 0.
    parts = [grid[:L, :L], grid[L:, :L], grid[:L, L:], grid[L:, L:].ravel()[1:]]
    if include_constant:
        parts.append(grid[L, L])
    first, second = np.divmod(np.concatenate([np.ravel(p) for p in parts]), K)
    return Separable(T / np.linalg.norm(T, axis=1, keepdims=True), [1.0], first, second)


class Transfer:
    """Coefficients over the source atoms -> inner products with every
    target atom, for two ``Separable`` sets over the same d x d grid.

    With C = R_t R_s^T the inner products of their rows, target atom k and
    source atom l meet in w_k w_l C[i_k, i_l] C[j_k, j_l].  So target group
    t receives, summed over the source groups s, w_t w_s C_ts Y_s C_ts^T,
    where Y_s is the coefficients placed on group s's grid of row pairs and
    C_ts the block of C between the two groups; each target atom reads its
    cell.  The weights are folded into the left factors, one stacked over
    all target rows per source group, when the transfer is built.
    """

    def __init__(self, source: Separable, target: Separable):
        self.source, self.target = source, target
        C = target.rows @ source.rows.T
        tb, sb = target.bounds, source.bounds
        # C with the target weights on its rows, and C with the source weights
        # on its columns: row k of the transfer is an outer product of the two.
        self.C_t = np.repeat(target.weights, np.diff(tb))[:, None] * C
        self.C_s = C * np.repeat(source.weights, np.diff(sb))
        self.blocks = []
        for s in range(len(sb) - 1):
            cols = C[:, sb[s]:sb[s + 1]]
            parts = [(tb[t], tb[t + 1], target.offsets[t], target.offsets[t + 1],
                      np.ascontiguousarray(cols[tb[t]:tb[t + 1]].T)) for t in range(len(tb) - 1)]
            self.blocks.append((source.offsets[s], source.offsets[s + 1], sb[s + 1] - sb[s],
                                self.C_t[:, sb[s]:sb[s + 1]] * source.weights[s], parts))

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        """(batch, m_source) -> (batch, m_target)."""
        source, target = self.source, self.target
        out = np.empty((len(coeffs), len(target.packed)))
        grid = None if source.in_order else np.zeros(source.offsets[-1])
        packed = None if target.in_order else np.empty(target.offsets[-1])
        for c, result in zip(coeffs, out):
            if source.in_order:
                grid = c
            else:
                grid[source.packed] = c
            if target.in_order:
                packed = result
            for index, (lo, hi, size, left, parts) in enumerate(self.blocks):
                half = np.dot(left, grid[lo:hi].reshape(size, size))
                for r0, r1, o0, o1, right in parts:
                    block = packed[o0:o1].reshape(r1 - r0, r1 - r0)
                    if index:
                        block += np.dot(half[r0:r1], right)
                    else:
                        np.dot(half[r0:r1], right, out=block)
            if not target.in_order:
                result[:] = packed[target.packed]
        return out

    def row(self, k: int) -> np.ndarray:
        """Inner products of target atom k with every source atom."""
        t = self.target
        return np.outer(self.C_t[t.first[k]], self.C_s[t.second[k]]).ravel()[self.source.cell]


@lru_cache(maxsize=None)
def _transfer(source: Separable, target: Separable) -> Transfer:
    """One transfer per pair of cached atom sets."""
    return Transfer(source, target)


def _transfer_rows(coeffs: np.ndarray, source, target) -> np.ndarray:
    return _transfer(source(), target())(coeffs)


# ---------------------------------------------------------------------------
# Dictionary container

def _rows(values, width: int, batch: bool) -> np.ndarray:
    """values as float64 rows of the given width: a (batch, width) array as
    it is, one (width,) vector as a batch of one."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 + batch or values.shape[-1] != width:
        expected = f"(batch, {width})" if batch else f"({width},)"
        raise ValidationError(f"expected an array of shape {expected}, got shape {values.shape}")
    return values if batch else values[None, :]


class Dictionary:
    """Indexed family of unit-norm atoms with synthesis/analysis operators.

    Immutable after construction; analyze/synthesize are pure.  Signals are
    1D vectors of length n; batched variants act on stacked rows.  Every
    dictionary is applied through two row-batch callables that its factory
    supplies, ``analyze_rows`` (batch, n) -> (batch, m) and
    ``synthesize_rows`` (batch, m) -> (batch, n); the single-vector forms,
    atom k (the synthesis of the k-th unit vector) and the dense matrix all
    go through them.  ``kind`` is only a label.  Two optional forms serve
    the cross Gram matrix: ``row`` (k -> row k of the atom matrix) in closed
    form, and ``separable``, a zero-argument callable returning the atoms'
    ``Separable`` form.
    """

    def __init__(self, kind: str, n: int, m: int, analyze_rows, synthesize_rows, row=None,
                 separable=None):
        self.kind = kind
        self.n = n
        self.m = m
        self._analyze_rows = analyze_rows
        self._synthesize_rows = synthesize_rows
        self._row = row
        self._separable = separable

    def __repr__(self):
        return f"Dictionary(kind={self.kind!r}, n={self.n}, m={self.m})"

    # -- core operators ----------------------------------------------------
    def analyze(self, signal: np.ndarray) -> np.ndarray:
        """Inner products of every atom with the signal."""
        return self._analyze_rows(_rows(signal, self.n, False))[0]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Linear combination of atoms with the given coefficients."""
        return self._synthesize_rows(_rows(coeffs, self.m, False))[0]

    def analyze_batch(self, signals: np.ndarray) -> np.ndarray:
        return self._analyze_rows(_rows(signals, self.n, True))

    def synthesize_batch(self, coeffs: np.ndarray) -> np.ndarray:
        return self._synthesize_rows(_rows(coeffs, self.m, True))

    def atom(self, k: int) -> np.ndarray:
        """Atom k: the synthesis of the k-th unit coefficient vector."""
        if not 0 <= k < self.m:
            raise ValidationError(f"atom index {k} out of range [0, {self.m})")
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
        return self.synthesize_batch(np.eye(self.m)).T

    @cached_property
    def orthonormal(self) -> bool:
        """Whether the atoms form an orthonormal set: m <= n, and a fixed
        random coefficient vector y comes back from analyze(synthesize(y))
        to 1e-8 ||y||.  Checked once per dictionary."""
        if self.m > self.n:
            return False
        y = np.random.default_rng(0).standard_normal(self.m)
        return bool(np.linalg.norm(self.analyze(self.synthesize(y)) - y) <= 1e-8 * np.linalg.norm(y))


# ---------------------------------------------------------------------------
# Factories

def _size(kind: str, value) -> int:
    """An integer size argument as an int; anything else, bools included,
    raises."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{kind} needs integer sizes, got {value!r}")
    return int(value)


def _separable_dictionary(kind: str, d: int, m: int, separable) -> Dictionary:
    """A dictionary of m atoms over d x d images, the ones ``separable()``
    returns; nothing is built until first use."""
    pixels = partial(pixel_separable, d)
    return Dictionary(kind, d * d, m,
                      partial(_transfer_rows, source=pixels, target=separable),
                      partial(_transfer_rows, source=separable, target=pixels),
                      separable=separable)


def haar2d(J: int) -> Dictionary:
    J = _size("haar2d", J)
    if J < 2:
        raise ValidationError(f"haar2d needs an integer J >= 2, got {J!r}")
    return _separable_dictionary("haar2d", 2 ** J, 4 ** J, partial(haar_separable, J))


def sinusoid2d(d: int, L: int, include_constant: bool = False) -> Dictionary:
    d, L = _size("sinusoid2d", d), _size("sinusoid2d", L)
    if d < 4 or d % 2:
        raise ValidationError(f"sinusoid2d needs even d >= 4, got {d}")
    if not 1 <= L <= d // 2 - 1:
        raise ValidationError(f"sinusoid2d needs 1 <= L <= d/2 - 1 = {d // 2 - 1}, got {L}")
    include_constant = bool(include_constant)
    return _separable_dictionary("sinusoid2d", d, 4 * L * L + 4 * L + include_constant,
                                 partial(sinusoid_separable, d, L, include_constant))


def identity(n: int) -> Dictionary:
    n = _size("identity", n)
    if n < 1:
        raise ValidationError(f"identity needs n >= 1, got {n}")
    copy_rows = methodcaller("copy")
    return Dictionary("identity", n, n, copy_rows, copy_rows)


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return rows @ mat


def _matrix_dictionary(kind: str, mat: np.ndarray) -> Dictionary:
    return Dictionary(kind, mat.shape[0], mat.shape[1],
                      partial(_times, mat=mat), partial(_times, mat=mat.T))


def fourier1d(n: int) -> Dictionary:
    n = _size("fourier1d", n)
    if n < 2 or n & (n - 1):
        raise ValidationError(f"fourier1d needs n a power of two >= 2, got {n}")
    H = np.ones((1, 1))      # Sylvester's construction; entries exactly +-1
    while len(H) < n:
        H = np.block([[H, H], [H, -H]])
    return _matrix_dictionary("fourier1d", H / np.sqrt(n))


def explicit(matrix: np.ndarray) -> Dictionary:
    mat = np.array(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError("explicit dictionary needs a 2D (n, m) matrix")
    norms = np.linalg.norm(mat, axis=0)
    # Written so that a column holding a nan or an inf (norm nan or inf) fails.
    if not np.all(np.abs(norms - 1.0) <= 1e-8):
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
        F, G = A_f._separable(), A_g._separable()
        to_f = _transfer(G, F)
        return Dictionary(kind, A_f.m, A_g.m, _transfer(F, G), to_f, row=to_f.row)
    return Dictionary(kind, A_f.m, A_g.m, partial(_chain, A_f._synthesize_rows, A_g._analyze_rows),
                      partial(_chain, A_g._synthesize_rows, A_f._analyze_rows))


def mutual_coherence(A: Dictionary, B: Dictionary) -> float:
    """Maximum absolute inner product between atoms of A and atoms of B."""
    if A.n != B.n:
        raise ValidationError(f"dimension mismatch: {A.n} vs {B.n}")
    small, big = (A, B) if A.m <= B.m else (B, A)
    cross = cross_gram(big, small)
    best = 0.0
    eye = np.eye(small.m)
    for start in range(0, small.m, _COHERENCE_CHUNK):
        best = max(best, float(np.abs(cross.synthesize_batch(eye[start:start + _COHERENCE_CHUNK])).max()))
    return best
