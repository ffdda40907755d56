"""Shared numerical-linear-algebra policies.

Every rank decision and pseudoinverse in the package is one
``decide_rank`` call, so a single SVD threshold policy applies everywhere
and each decision keeps the singular values and threshold it was read from.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Multiplier on the machine-precision rank threshold; exact-rank statements
# in the underlying theory need an explicit floating-point policy.
DEFAULT_RANK_MULTIPLIER = 1e3

# Eigenvalues with real part at or above -DETECT_TOL count as not stable in
# every detectability test, model-side and data-side.
DETECT_TOL = 1e-8

_EPS = np.finfo(float).eps


class Rank(NamedTuple):
    """One rank decision: the rank, the singular values and the threshold it
    was read from, and the pseudoinverse under that threshold when asked for."""

    rank: int
    singular_values: np.ndarray
    threshold: float
    pinv: np.ndarray | None = None


def decide_rank(a: np.ndarray, multiplier: float | None = None, *, pinv: bool = False) -> Rank:
    """The rank of ``a`` under the shared SVD threshold, from one SVD.

    The threshold is multiplier * max(shape) * eps * sigma_1, and the rank
    counts the singular values above it.  The SVD is values-only unless
    ``pinv`` is asked for; the pseudoinverse drops the same values, with
    the products of ``np.linalg.pinv``, so it equals ``np.linalg.pinv`` at
    rcond = multiplier * max(shape) * eps bit for bit.
    """
    if multiplier is None:
        multiplier = DEFAULT_RANK_MULTIPLIER
    a = np.atleast_2d(a)
    if a.size == 0:
        return Rank(0, np.zeros(0), 0.0, np.zeros(a.shape[::-1]) if pinv else None)
    if pinv:
        u, sv, vt = np.linalg.svd(a.conjugate(), full_matrices=False)
    else:
        sv = np.linalg.svd(a, compute_uv=False)
    threshold = multiplier * max(a.shape) * _EPS * float(sv[0])
    large = sv > threshold
    inverse = None
    if pinv:
        reciprocal = np.divide(1, sv, where=large, out=np.zeros_like(sv))
        inverse = vt.T @ (reciprocal[:, None] * u.T)
    return Rank(int(np.count_nonzero(large)), sv, threshold, inverse)


def numerical_rank(a: np.ndarray, multiplier: float | None = None) -> int:
    """Rank of ``a`` under the shared SVD threshold policy."""
    return decide_rank(a, multiplier).rank


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part over the spectrum of ``a``."""
    if a.size == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(a).real))


def symmetric_two_norm(a: np.ndarray) -> float:
    """Two-norm of a symmetric matrix via its extreme eigenvalues."""
    if a.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def block_diag(*blocks) -> np.ndarray:
    """The block-diagonal matrix of the 2-D ``blocks``, in order."""
    rows, cols = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(float, *blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def solve_care(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stabilizing solution X of a^T X + X a - X b b^T X + I = 0.

    Potter's method: the Hamiltonian [[a, -b b^T], [-I, -a^T]] has n
    eigenvalues in the open left half-plane exactly when the solution
    exists, and their eigenvectors [U1; U2] give X = U2 U1^{-1}.  Raises
    ``np.linalg.LinAlgError`` when the stable count is not n or U1 is
    singular to working precision (an unobservable mode on the imaginary
    axis or in the right half-plane).
    """
    n = a.shape[0]
    w, v = np.linalg.eig(np.block([[a, -b @ b.T], [-np.eye(n), -a.T]]))
    stable = w.real < 0
    if np.count_nonzero(stable) != n:
        raise np.linalg.LinAlgError("the Hamiltonian has no n-dimensional stable subspace")
    u1, u2 = v[:n, stable], v[n:, stable]
    if np.linalg.cond(u1) * _EPS >= 1.0:
        raise np.linalg.LinAlgError("the stable subspace is not a graph over the state")
    x = np.linalg.solve(u1.T, u2.T).T.real
    return (x + x.T) / 2


def detectability_candidates(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of real ``a`` a detectability test ranks: Re >= -DETECT_TOL,
    of a conjugate pair only the member with Im >= 0 (a real pencil has the
    same rank at both), and of eigenvalues within DETECT_TOL of each other
    only the first, so that a double eigenvalue costs one pencil whether
    rounding splits it into a pair or into two reals."""
    lam = np.linalg.eigvals(a)
    kept = []
    for s in lam[(lam.real >= -DETECT_TOL) & (lam.imag >= 0)]:
        if all(abs(s - k) > DETECT_TOL for k in kept):
            kept.append(s)
    return np.array(kept, dtype=lam.dtype)


def pbh_detectable(a: np.ndarray, c: np.ndarray, multiplier: float | None = None) -> bool:
    """PBH test: (a, c) is detectable exactly when rank([lam*I - a; c]) = n at
    every ``detectability_candidates`` eigenvalue lam of ``a``."""
    n = a.shape[0]
    for lam in detectability_candidates(a):
        pencil = np.vstack([lam * np.eye(n) - a, c.astype(complex)])
        if numerical_rank(pencil, multiplier) < n:
            return False
    return True
