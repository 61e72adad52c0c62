"""Executable diagnostics for the incoherence conditions behind the
multi-measurement separation.

Two conditions make a set of per-measurement coefficient vectors a complete
set: CS1, a value-separation requirement (coefficients of the same atom may
not nearly coincide across measurements), and CS2, a support-counting
inequality quantified over probe vectors q.  CS2 cannot be checked
exhaustively (the quantifier ranges over a continuum), so ``cs2_probe``
evaluates it on a caller-supplied probe family and reports the margin per
probe; combs, random sparse vectors and dictionary-aligned probes are the
standard heuristic choices.

Also here: the p-th-largest-magnitude statistic used by the uncertainty
arguments, the closed-form support lower bound for the Haar/sinusoid pair,
and sweep-style verifiers for the two-orthobasis joint-sparsity bound
(||y_A||_0 + ||y_B||_0 >= 2/M) and its thresholded one-sided variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary, mutual_coherence
from .errors import ValidationError
from .grid import ZERO_TOL

#: Complement-norm admissibility ceiling for thresholded-bound probes.
COMPLEMENT_CEILING = 2.0 / 3.0
#: Number of A_g atoms combined in each dictionary-aligned probe.
_ALIGNED_ATOMS = 3


# ---------------------------------------------------------------------------
# CS1

@dataclass(frozen=True)
class Cs1Violation:
    i: int
    j: int
    alpha: int
    difference: float


def cs1_check(y_list, beta: float) -> list[Cs1Violation]:
    """Violating triples (i, j, alpha), i < j: both entries nonzero at alpha
    and |difference| <= beta, for a finite beta >= 0.  An empty list means
    CS1 holds."""
    if not 0 <= beta < np.inf:
        raise ValidationError(f"beta must be nonnegative and finite, got {beta}")
    ys = [np.asarray(y, dtype=np.float64) for y in y_list]
    if len({y.size for y in ys}) > 1:
        raise ValidationError("coefficient vectors must have equal lengths")
    out: list[Cs1Violation] = []
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            both = (np.abs(ys[i]) > ZERO_TOL) & (np.abs(ys[j]) > ZERO_TOL)
            close = np.abs(ys[i] - ys[j]) <= beta
            for alpha in np.flatnonzero(both & close):
                out.append(Cs1Violation(i, j, int(alpha), float(ys[i][alpha] - ys[j][alpha])))
    return out


# ---------------------------------------------------------------------------
# CS2 probing

@dataclass(frozen=True)
class Cs2Record:
    probe_id: int
    in_domain: bool
    lhs: int
    rhs: int
    margin: int
    passed: bool
    signal_norm: float
    complement_norm: float


def _check_d_const(d_const: float) -> None:
    if not 0 < d_const < np.inf:
        raise ValidationError(f"d_const must be positive and finite, got {d_const}")


def _probe_signal(A_f: Dictionary, A_g: Dictionary, q: np.ndarray, d_const: float):
    """(signal norm, complement norm, in domain, S_q) of the probe q, from
    one analysis of s = A_f q in A_g: the complement is s - A_g(A_g^T s)."""
    signal = A_f.synthesize(q)
    coeffs = A_g.analyze(signal)
    norm = float(np.linalg.norm(signal))
    comp = float(np.linalg.norm(signal - A_g.synthesize(coeffs)))
    in_domain = norm > d_const and comp <= COMPLEMENT_CEILING + 1e-12
    return norm, comp, in_domain, set(np.flatnonzero(np.abs(coeffs) >= 1.0))


def cs2_probe(
    A_f: Dictionary,
    A_g: Dictionary,
    y_f_supp,
    y_g_supps,
    probes,
    d_const: float,
) -> list[Cs2Record]:
    """Evaluate the support-counting inequality on each probe.

    A probe q (a coefficient vector over A_f) is in-domain when the signal
    A_f q has norm above d_const > 0 and its component outside span(A_g) has
    norm at most 2/3.  For in-domain probes the inequality

        #(supp q \\ supp y_f) + sum_i #(S_q \\ supp y_g^i)
            > #(union_i supp y_g^i) + ||y_f||_0,

    with S_q = {alpha : |(analyze_g(A_f q))(alpha)| >= 1}, must hold.  This
    is a probe, not a proof: a full check would require infinitely many q.
    """
    _check_d_const(d_const)
    f_supp = frozenset(int(a) for a in y_f_supp)
    g_supps = [frozenset(int(a) for a in s) for s in y_g_supps]
    union_g = frozenset().union(*g_supps) if g_supps else frozenset()
    rhs = len(union_g) + len(f_supp)
    out = []
    for pid, q in enumerate(probes):
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (A_f.m,):
            raise ValidationError(f"probe {pid} has shape {q.shape}, expected ({A_f.m},)")
        if not np.any(np.abs(q) > ZERO_TOL):
            raise ValidationError(f"probe {pid} is zero")
        norm, comp, in_domain, s_q = _probe_signal(A_f, A_g, q, d_const)
        supp_q = set(np.flatnonzero(np.abs(q) > ZERO_TOL))
        lhs = len(supp_q - f_supp) + sum(len(s_q - s) for s in g_supps)
        out.append(Cs2Record(pid, in_domain, lhs, rhs, lhs - rhs, lhs > rhs, norm, comp))
    return out


# ---------------------------------------------------------------------------
# Scalar diagnostics

def xi_p(q, p: int) -> float:
    """p-th largest absolute entry of q; positive iff ||q||_0 >= p."""
    q = np.asarray(q, dtype=np.float64)
    if not 1 <= p <= q.size:
        raise ValidationError(f"p must lie in 1..{q.size}, got {p}")
    return float(np.partition(np.abs(q), q.size - p)[q.size - p])


def haar_sin_bound(J: int, L: int) -> int:
    """Support lower bound for signals of the sinusoid span analyzed in the
    Haar basis: sum_{j=1}^{J-B-1} (2^{J-j} - 2L)^2 with B the smallest
    exponent <= J-2 satisfying L < 2^B."""
    if J < 2:
        raise ValidationError(f"need J >= 2, got {J}")
    if L < 1:
        raise ValidationError(f"need L >= 1, got {L}")
    if L >= 2 ** (J - 2):
        raise ValidationError(f"need L < 2^(J-2) = {2 ** (J - 2)}, got {L}")
    B = next(b for b in range(1, J - 1) if L < 2 ** b)
    return int(sum((2 ** (J - j) - 2 * L) ** 2 for j in range(1, J - B)))


# ---------------------------------------------------------------------------
# Probe families

def dirac_comb(n: int) -> np.ndarray:
    """Unit spikes at the sqrt(n) indices {0, sqrt(n), 2 sqrt(n), ...}."""
    s = int(round(np.sqrt(n)))
    if s * s != n:
        raise ValidationError(f"comb needs square n, got {n}")
    q = np.zeros(n)
    q[::s] = 1.0
    return q


def random_sparse_probes(m: int, count: int, sparsity: int, rng, scale: float = 1.0):
    """k-sparse probes with unit-magnitude-ish Gaussian entries."""
    out = []
    for _ in range(count):
        q = np.zeros(m)
        idx = rng.choice(m, size=sparsity, replace=False)
        q[idx] = rng.standard_normal(sparsity) * scale
        out.append(q)
    return out


def dictionary_aligned_probes(A_f: Dictionary, A_g: Dictionary, count: int, rng,
                              scale: float = 100.0):
    """In-domain probes by construction: analyze random combinations of
    three A_g atoms in A_f, so the complement norm vanishes and the signal
    norm is controlled by ``scale``."""
    out = []
    for _ in range(count):
        v = np.zeros(A_g.m)
        idx = rng.choice(A_g.m, size=_ALIGNED_ATOMS, replace=False)
        v[idx] = rng.standard_normal(_ALIGNED_ATOMS)
        sig = A_g.synthesize(v)
        sig *= scale / np.linalg.norm(sig)
        out.append(A_f.analyze(sig))
    return out


# ---------------------------------------------------------------------------
# Uncertainty sweeps

@dataclass(frozen=True)
class UncertaintyReport:
    bound: float
    trials: int
    min_sum: int
    violations: int


def verify_uncertainty(A: Dictionary, B: Dictionary, trials: int, rng_seed: int) -> UncertaintyReport:
    """Check ||y_A||_0 + ||y_B||_0 >= 2/M on random sparse signals.

    Both dictionaries must be full orthobases.  Includes the Dirac comb as an
    adversarial signal whenever n is a perfect square (it realizes equality
    for the spike/flat pair).
    """
    if A.m != A.n or B.m != B.n:
        raise ValidationError("verify_uncertainty expects two full orthobases")
    if A.n != B.n:
        raise ValidationError("dimension mismatch")
    bound = 2.0 / mutual_coherence(A, B)
    rng = np.random.default_rng(rng_seed)
    signals = []
    s = int(round(np.sqrt(A.n)))
    if s * s == A.n:
        signals.append(dirac_comb(A.n))
    for _ in range(trials):
        k = int(rng.integers(1, 4))
        y = np.zeros(A.n)
        y[rng.choice(A.n, size=k, replace=False)] = rng.standard_normal(k)
        signals.append(A.synthesize(y))
    min_sum = A.n + B.n
    violations = 0
    for h in signals:
        total = int(np.sum(np.abs(A.analyze(h)) > ZERO_TOL) + np.sum(np.abs(B.analyze(h)) > ZERO_TOL))
        min_sum = min(min_sum, total)
        if total < bound - 1e-9:
            violations += 1
    return UncertaintyReport(bound=bound, trials=len(signals), min_sum=min_sum, violations=violations)


@dataclass(frozen=True)
class NormalizedUpRecord:
    probe_id: int
    in_domain: bool
    l0_q: int
    s_q_count: int
    lhs: int
    bound: float
    passed: bool | None


def verify_normalized_up(A_f: Dictionary, A_g: Dictionary, probes, d_const: float) -> list[NormalizedUpRecord]:
    """Thresholded one-sided bound ||q||_0 + #S_q >= 2/M per in-domain probe.

    Probes failing the admissibility conditions (signal norm > d_const > 0,
    complement norm <= 2/3) are reported as out-of-domain and not judged.
    """
    if A_f.m != A_f.n:
        raise ValidationError("A_f must be a full orthobasis")
    _check_d_const(d_const)
    bound = 2.0 / mutual_coherence(A_f, A_g)
    out = []
    for pid, q in enumerate(probes):
        q = np.asarray(q, dtype=np.float64)
        _, _, in_domain, s_q = _probe_signal(A_f, A_g, q, d_const)
        l0_q = int(np.sum(np.abs(q) > ZERO_TOL))
        lhs = l0_q + len(s_q)
        passed = (lhs >= bound - 1e-9) if in_domain else None
        out.append(NormalizedUpRecord(pid, in_domain, l0_q, len(s_q), lhs, bound, passed))
    return out
