import pickle
import re
import tracemalloc

import numpy as np
import pytest

from sparsesep.dictionaries import (
    analyze_complement_norm,
    concatenate,
    cross_gram,
    explicit,
    fourier1d,
    haar2d,
    identity,
    mutual_coherence,
    sinusoid2d,
)
from sparsesep.errors import ValidationError


def haar_atom_labels(J):
    """(j, family, k2, k1) of every Haar atom, in coefficient order."""
    labels = [(j, fam, k2, k1) for j in range(1, J) for fam in (1, 2, 3)
              for k2 in range(1, 2 ** (J - j) + 1) for k1 in range(1, 2 ** (J - j) + 1)]
    return labels + [(J - 1, 4, k2, k1) for k2 in (1, 2) for k1 in (1, 2)]


def haar_atom_reference(J, j, fam, k2, k1):
    """Independent reference construction straight from the index ranges:
    values +-2^-j on the 2^j x 2^j block at offset 2^j(k-1), family 1 split
    along the second coordinate, family 2 along the first, family 3
    checkerboard, family 4 constant.  Atom images are indexed [a2-1, a1-1]."""
    d = 2 ** J
    half = 2 ** (j - 1)
    a = np.zeros((d, d))
    r0 = 2 ** j * (k2 - 1)
    c0 = 2 ** j * (k1 - 1)
    v = 2.0 ** (-j)
    if fam == 1:
        a[r0:r0 + half, c0:c0 + 2 * half] = -v
        a[r0 + half:r0 + 2 * half, c0:c0 + 2 * half] = v
    elif fam == 2:
        a[r0:r0 + 2 * half, c0:c0 + half] = -v
        a[r0:r0 + 2 * half, c0 + half:c0 + 2 * half] = v
    elif fam == 3:
        a[r0:r0 + half, c0:c0 + half] = v
        a[r0:r0 + half, c0 + half:c0 + 2 * half] = -v
        a[r0 + half:r0 + 2 * half, c0:c0 + half] = -v
        a[r0 + half:r0 + 2 * half, c0 + half:c0 + 2 * half] = v
    else:
        a[r0:r0 + 2 * half, c0:c0 + 2 * half] = v
    return a.ravel()


def dense_haar_atoms(J):
    """All reference Haar atoms as the columns of a 4^J x 4^J matrix."""
    return np.column_stack([haar_atom_reference(J, *label) for label in haar_atom_labels(J)])


def dense_sinusoid_atoms(d, L, include_constant):
    """Reference sinusoid family sampled at integer pixels 1..d with
    arguments 2*pi*l*alpha/d, normalized numerically, [l2 slow, l1 fast]."""
    a = np.arange(1, d + 1)
    A1, A2 = np.meshgrid(a, a)  # A1 varies along columns (first coordinate)
    atoms = []

    def push(img):
        atoms.append((img / np.linalg.norm(img)).ravel())

    for l2 in range(1, L + 1):
        for l1 in range(1, L + 1):
            push(np.sin(2 * np.pi * l1 * A1 / d) * np.sin(2 * np.pi * l2 * A2 / d))
    for l2 in range(0, L + 1):
        for l1 in range(1, L + 1):
            push(np.sin(2 * np.pi * l1 * A1 / d) * np.cos(2 * np.pi * l2 * A2 / d))
    for l2 in range(1, L + 1):
        for l1 in range(0, L + 1):
            push(np.cos(2 * np.pi * l1 * A1 / d) * np.sin(2 * np.pi * l2 * A2 / d))
    for l2 in range(0, L + 1):
        for l1 in range(0, L + 1):
            if (l1, l2) == (0, 0):
                continue
            push(np.cos(2 * np.pi * l1 * A1 / d) * np.cos(2 * np.pi * l2 * A2 / d))
    if include_constant:
        atoms.append(np.full(d * d, 1.0 / d))
    return np.column_stack(atoms)


# ---------------------------------------------------------------------------
# Haar

def test_haar_atom_counts():
    assert haar2d(2).m == 16
    # 3 * sum_{j=1}^{5} 4^(7-j) + 16 = 16384
    assert 3 * sum(4 ** (7 - j) for j in range(1, 6)) + 16 == 16384
    assert haar2d(7).m == 16384


def test_haar_rejects_small_J():
    with pytest.raises(ValidationError):
        haar2d(1)


@pytest.mark.parametrize("make", [
    lambda: haar2d(3.0),
    lambda: haar2d(True),
    lambda: sinusoid2d(16.0, 3),
    lambda: sinusoid2d(16, 2.5),
    lambda: sinusoid2d(16, np.float64(3)),
    lambda: identity(2.5),
    lambda: identity(True),
    lambda: fourier1d(4.0),
], ids=["haar2d-J", "haar2d-bool", "sinusoid2d-d", "sinusoid2d-L", "sinusoid2d-numpy-float", "identity-n",
        "identity-bool", "fourier1d-n"])
def test_factories_reject_non_integer_sizes(make):
    with pytest.raises(ValidationError, match="integer"):
        make()


def test_haar_small_gram_is_identity():
    M = haar2d(2).to_matrix()
    assert np.abs(M.T @ M - np.eye(16)).max() < 1e-12


def test_haar_matches_dense_reference():
    for J in (2, 3, 4):
        D = haar2d(J)
        ref = dense_haar_atoms(J)
        assert np.abs(D.to_matrix() - ref).max() < 1e-12


def test_haar_fast_agrees_with_dense_application():
    rng = np.random.default_rng(0)
    for J in (2, 3, 4):
        D = haar2d(J)
        ref = dense_haar_atoms(J)
        x = rng.standard_normal(D.n)
        y = rng.standard_normal(D.m)
        assert np.abs(D.analyze(x) - ref.T @ x).max() < 1e-10
        assert np.abs(D.synthesize(y) - ref @ y).max() < 1e-10


@pytest.mark.parametrize("J", [2, 3, 4, 5])
def test_haar_matrix_is_dense_reference_bit_for_bit(J):
    M, ref = haar2d(J).to_matrix(), dense_haar_atoms(J)
    # array_equal takes -0.0 for 0.0; the zeros must carry the reference's sign too.
    assert np.array_equal(M, ref) and np.array_equal(np.signbit(M), np.signbit(ref))


@pytest.mark.parametrize("J", [6, 7])
@pytest.mark.parametrize("batch", [1, 3, 5])
def test_haar_batches_agree_with_sampled_reference_at_pipeline_sizes(J, batch):
    D = haar2d(J)
    labels = haar_atom_labels(J)
    rng = np.random.default_rng(batch)
    # About 200 atoms over every scale and family, the four constant ones included.
    idx = np.unique(np.concatenate([rng.choice(D.m, 196, replace=False), np.arange(D.m - 4, D.m)]))
    ref = np.column_stack([haar_atom_reference(J, *labels[k]) for k in idx])
    X = rng.standard_normal((batch, D.n))
    Y = np.zeros((batch, D.m))
    Y[:, idx] = rng.standard_normal((batch, len(idx)))
    assert np.abs(D.analyze_batch(X)[:, idx] - X @ ref).max() < 1e-12
    assert np.abs(D.synthesize_batch(Y) - Y[:, idx] @ ref.T).max() < 1e-12


def test_haar_construction_allocates_nothing():
    tracemalloc.start()
    try:
        D = haar2d(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (D.n, D.m) == (4 ** 12, 4 ** 12)
    assert peak < 2 ** 20


def test_haar_dictionary_pickles_after_use():
    D = haar2d(4)
    x = np.random.default_rng(9).standard_normal(D.n)
    E = pickle.loads(pickle.dumps(D))
    assert np.array_equal(E.analyze(x), D.analyze(x))
    assert np.array_equal(E.synthesize(x), D.synthesize(x))


def test_haar_coarsest_constant_atom_value():
    # the constant-family atom at the coarsest scale holds 2^-(J-1) on its block
    J = 5
    D = haar2d(J)
    a = D.atom(D.m - 4).reshape(2 ** J, 2 ** J)
    half = 2 ** (J - 1)
    assert np.all(a[:half, :half] == 2.0 ** (-(J - 1)))
    assert np.all(a[half:, :] == 0.0) and np.all(a[:half, half:] == 0.0)


def test_haar_random_pairs_orthonormal_at_J7():
    D = haar2d(7)
    rng = np.random.default_rng(1)
    idx = rng.choice(D.m, size=12, replace=False)
    atoms = np.stack([D.atom(int(k)) for k in idx])
    gram = atoms @ atoms.T
    assert np.abs(gram - np.eye(12)).max() < 1e-10


def test_haar_parseval():
    D = haar2d(4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(D.n)
        assert np.linalg.norm(D.analyze(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


# ---------------------------------------------------------------------------
# Sinusoids

def test_sinusoid_atom_counts():
    assert sinusoid2d(128, 15, True).m == 961
    assert sinusoid2d(128, 15, False).m == 960
    assert sinusoid2d(128, 15, False).m == 4 * 15 ** 2 + 4 * 15


def test_sinusoid_range_validation():
    with pytest.raises(ValidationError):
        sinusoid2d(16, 0)
    with pytest.raises(ValidationError):
        sinusoid2d(16, 8)  # needs L <= d/2 - 1


def test_sinusoid_gram_is_identity():
    M = sinusoid2d(16, 3, True).to_matrix()
    assert np.abs(M.T @ M - np.eye(M.shape[1])).max() < 1e-10


def test_sinusoid_matches_dense_reference():
    for d, L, const in ((8, 3, False), (16, 3, True)):
        D = sinusoid2d(d, L, const)
        ref = dense_sinusoid_atoms(d, L, const)
        assert ref.shape == (D.n, D.m)
        assert np.abs(D.to_matrix() - ref).max() < 1e-10


def test_sinusoid_fast_agrees_with_dense_application():
    rng = np.random.default_rng(3)
    D = sinusoid2d(16, 5, True)
    ref = dense_sinusoid_atoms(16, 5, True)
    x = rng.standard_normal(D.n)
    y = rng.standard_normal(D.m)
    assert np.abs(D.analyze(x) - ref.T @ x).max() < 1e-10
    assert np.abs(D.synthesize(y) - ref @ y).max() < 1e-10


@pytest.mark.parametrize("d, L", [(64, 8), (128, 15)])
@pytest.mark.parametrize("include_constant", [False, True])
@pytest.mark.parametrize("batch", [1, 3, 5])
def test_sinusoid_batches_agree_with_dense_at_pipeline_sizes(d, L, include_constant, batch):
    D = sinusoid2d(d, L, include_constant)
    ref = dense_sinusoid_atoms(d, L, include_constant)
    rng = np.random.default_rng(batch)
    X = rng.standard_normal((batch, D.n))
    Y = rng.standard_normal((batch, D.m))
    assert np.abs(D.analyze_batch(X) - X @ ref).max() < 1e-12
    assert np.abs(D.synthesize_batch(Y) - Y @ ref.T).max() < 1e-12


def test_unit_norm_atoms():
    for D in (haar2d(3), sinusoid2d(16, 4, True), fourier1d(64), identity(10)):
        for k in (0, D.m // 2, D.m - 1):
            assert np.linalg.norm(D.atom(k)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Operator contracts

def test_synthesize_basis_vector_returns_atom():
    D = sinusoid2d(8, 2, True)
    e = np.zeros(D.m)
    e[5] = 1.0
    assert np.allclose(D.synthesize(e), D.atom(5))


def test_synthesize_zero():
    D = haar2d(3)
    assert np.all(D.synthesize(np.zeros(D.m)) == 0)
    assert np.all(D.analyze(np.zeros(D.n)) == 0)


def test_norm_preservation_and_projection():
    # orthonormal set: ||Av|| = ||v||, analyze(synthesize(v)) = v, ||analyze(s)|| <= ||s||
    rng = np.random.default_rng(4)
    for D in (haar2d(3), sinusoid2d(16, 4, False), fourier1d(32)):
        v = rng.standard_normal(D.m)
        s = D.synthesize(v)
        assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        assert np.abs(D.analyze(s) - v).max() < 1e-10
        t = rng.standard_normal(D.n)
        assert np.linalg.norm(D.analyze(t)) <= np.linalg.norm(t) + 1e-12


def test_l0_union_formula():
    # ||a+b||_0 = ||a||_0 + #(supp b \ supp a) - #{a = -b != 0}
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = np.where(rng.random(30) < 0.4, rng.integers(-2, 3, 30).astype(float), 0.0)
        b = np.where(rng.random(30) < 0.4, rng.integers(-2, 3, 30).astype(float), 0.0)
        sa = set(np.flatnonzero(a))
        sb = set(np.flatnonzero(b))
        cancel = sum(1 for i in range(30) if a[i] != 0 and a[i] == -b[i])
        lhs = int(np.sum(a + b != 0))
        assert lhs == len(sa) + len(sb - sa) - cancel


def test_shape_validation():
    D = haar2d(2)
    with pytest.raises(ValidationError):
        D.synthesize(np.zeros(5))
    with pytest.raises(ValidationError):
        D.analyze(np.zeros(5))


def test_explicit_requires_unit_norms():
    with pytest.raises(ValidationError):
        explicit(np.eye(4) * 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_explicit_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError):
        explicit(np.full((2, 2), bad))
    q = np.eye(4)
    q[2, 1] = bad
    with pytest.raises(ValidationError, match="atom 1"):
        explicit(q)


def test_explicit_atoms_and_matrix_are_its_columns_exactly():
    # Atoms and the dense matrix go through the synthesis operator; for a
    # matrix dictionary that multiplies by unit vectors, which is exact.
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((12, 12)))
    D = explicit(q)
    assert np.array_equal(D.to_matrix(), q)
    for k in range(D.m):
        assert np.array_equal(D.atom(k), q[:, k]), k


@pytest.mark.parametrize("method, shape", [
    ("analyze", (5,)), ("analyze", (1, 16)), ("synthesize", (15,)), ("synthesize", ()),
    ("analyze_batch", (16,)), ("analyze_batch", (2, 15)), ("synthesize_batch", (2, 16, 1)),
])
def test_shape_check_names_the_shape_passed(method, shape):
    D = haar2d(2)
    with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
        getattr(D, method)(np.zeros(shape))


# ---------------------------------------------------------------------------
# Complement norm and coherence

def test_complement_norm_pythagoras():
    rng = np.random.default_rng(6)
    D = sinusoid2d(16, 3, False)
    for _ in range(10):
        s = rng.standard_normal(D.n)
        inside = np.linalg.norm(D.analyze(s)) ** 2
        comp = analyze_complement_norm(D, s)
        assert comp ** 2 + inside == pytest.approx(np.linalg.norm(s) ** 2, rel=1e-10)
    # in-span signal has zero complement
    v = rng.standard_normal(D.m)
    assert analyze_complement_norm(D, D.synthesize(v)) < 1e-10
    # orthogonal-to-span signal keeps its norm: project out the span
    s = rng.standard_normal(D.n)
    s_perp = s - D.synthesize(D.analyze(s))
    assert analyze_complement_norm(D, s_perp) == pytest.approx(np.linalg.norm(s_perp), rel=1e-9)


_CROSS_PAIRS = {
    "haar2d-sinusoid2d": lambda J: (haar2d(J), sinusoid2d(2 ** J, 2 ** (J - 1) - 1, False)),
    "haar2d-sinusoid2d-constant": lambda J: (haar2d(J), sinusoid2d(2 ** J, 2 ** (J - 2), True)),
    "sinusoid2d-haar2d": lambda J: (sinusoid2d(2 ** J, 2 ** (J - 2), True), haar2d(J)),
    "haar2d-haar2d": lambda J: (haar2d(J), haar2d(J)),
    "sinusoid2d-sinusoid2d": lambda J: (sinusoid2d(2 ** J, 1, True), sinusoid2d(2 ** J, 2 ** (J - 1) - 1, False)),
    "haar2d-identity": lambda J: (haar2d(J), identity(4 ** J)),
}


@pytest.mark.parametrize("J", [2, 3, 6])
@pytest.mark.parametrize("pair", list(_CROSS_PAIRS))
def test_cross_gram_equals_composition(pair, J):
    A_f, A_g = _CROSS_PAIRS[pair](J)
    cross = cross_gram(A_f, A_g)
    assert (cross.n, cross.m) == (A_f.m, A_g.m)
    rng = np.random.default_rng(J)
    s = rng.standard_normal((3, A_g.m))
    y = rng.standard_normal((3, A_f.m))
    assert np.abs(cross.synthesize_batch(s) - A_f.analyze_batch(A_g.synthesize_batch(s))).max() < 1e-12
    assert np.abs(cross.analyze_batch(y) - A_g.analyze_batch(A_f.synthesize_batch(y))).max() < 1e-12
    assert np.abs(cross.synthesize(s[0]) - A_f.analyze(A_g.synthesize(s[0]))).max() < 1e-12
    for k in range(0, A_f.m, 1 if J < 6 else 29):
        assert np.abs(cross.row(k) - A_g.analyze(A_f.atom(k))).max() < 1e-12


def test_cross_gram_dimension_mismatch():
    with pytest.raises(ValidationError):
        cross_gram(haar2d(3), sinusoid2d(16, 3))


def test_spike_flat_coherence():
    n = 256
    assert mutual_coherence(identity(n), fourier1d(n)) == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_self_coherence_of_orthobasis():
    D = haar2d(3)
    assert mutual_coherence(D, D) == pytest.approx(1.0, abs=1e-12)


def test_coherence_bounds_for_random_orthobases():
    rng = np.random.default_rng(7)
    n = 32
    for _ in range(3):
        qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
        qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = mutual_coherence(explicit(qa), explicit(qb))
        assert 1.0 / np.sqrt(n) - 1e-12 <= M <= 1.0 + 1e-12


def test_coherence_dimension_mismatch():
    with pytest.raises(ValidationError):
        mutual_coherence(identity(8), identity(16))


def test_joint_sparsity_bound_small_n():
    # random signals expressed in two random orthobases obey l0_A + l0_B >= 2/M
    rng = np.random.default_rng(8)
    n = 16
    qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A, B = explicit(qa), explicit(qb)
    bound = 2.0 / mutual_coherence(A, B)
    for _ in range(25):
        h = rng.standard_normal(n)
        total = np.sum(np.abs(A.analyze(h)) > 1e-10) + np.sum(np.abs(B.analyze(h)) > 1e-10)
        assert total >= bound - 1e-9


@pytest.mark.parametrize("n", [2 ** p for p in range(1, 9)])
def test_fourier1d_is_scipy_hadamard_bit_for_bit(n):
    from scipy.linalg import hadamard

    assert np.array_equal(fourier1d(n).to_matrix(), hadamard(n) / np.sqrt(n))


@pytest.mark.parametrize("n", [0, 1, 3, 6, 12, 96])
def test_fourier1d_rejects_sizes_that_are_not_powers_of_two(n):
    with pytest.raises(ValidationError, match="power of two"):
        fourier1d(n)


def test_concatenate():
    C = concatenate(identity(8), fourier1d(8))
    assert C.n == 8 and C.m == 16
    assert np.allclose(C.atom(3), identity(8).atom(3))
    assert np.allclose(C.atom(11), fourier1d(8).atom(3))


def _random_unit_columns(n, m, seed):
    M = np.random.default_rng(seed).standard_normal((n, m))
    return M / np.linalg.norm(M, axis=0)


@pytest.mark.parametrize("make", [
    lambda: haar2d(3),
    lambda: sinusoid2d(8, 3, True),
    lambda: identity(20),
    lambda: fourier1d(16),
    lambda: explicit(_random_unit_columns(12, 18, 4)),
], ids=["haar2d", "sinusoid2d", "identity", "fourier1d", "explicit"])
def test_batch_and_single_application_agree_with_dense(make):
    D = make()
    M = D.to_matrix()
    assert M.shape == (D.n, D.m)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, D.n))
    Y = rng.standard_normal((4, D.m))
    analyzed = D.analyze_batch(X)
    synthesized = D.synthesize_batch(Y)
    assert analyzed.shape == (4, D.m) and synthesized.shape == (4, D.n)
    for x, y, a, s in zip(X, Y, analyzed, synthesized):
        assert np.abs(D.analyze(x) - a).max() < 1e-12
        assert np.abs(D.synthesize(y) - s).max() < 1e-12
    assert np.abs(analyzed - X @ M).max() < 1e-12
    assert np.abs(synthesized - Y @ M.T).max() < 1e-12
