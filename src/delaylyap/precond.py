"""Preconditioner that inverts the zero-coupling part of the operator.

Dropping A1 leaves Ltilde(X) = T(X exp(-tau A0 / 2)), where the T-Sylvester
map T(Y) = (A0^T + I) Y + Y^T (A0 - I) = (A0^T Y + Y^T A0) + (Y - Y^T)
splits into a symmetric and an antisymmetric bracket.  So T(Y) = C has
Y = S + K with K = (C - C^T) / 4 and S the symmetric solution of the
Lyapunov equation A0^T S + S A0 = sym(C) - (A0^T K - K A0), solved by
Bartels-Stewart on one cached real Schur form A0^T = U T U^T.  S is
symmetrized, since it can be far larger than K and its rounding asymmetry
would leak into the skew part.  An application is six n x n products and
one :func:`_trlyap`, with a backward error of the order of the unit
roundoff, and an exactly linear map.  The identity's coefficient c in T
and in the operator L is 1: any c != 0 scales the skew part of both by
c, so it cancels from Ltilde_c^-1 L_c, and from Ltilde_c^-1 (-W) as W = W^T.

The preconditioner reads the matrix it is built from and tau alone, never
the operator; which matrix a problem's solve builds it from is the
driver's rule (:func:`delaylyap.solver.preconditioner_for`).  The Schur
form is :func:`delaylyap.linalg.real_schur`.  :func:`build_preconditioner`
refuses, with ``"precond-unsolvable"``, an A0 whose map T(Y) is singular:
one with a Hamiltonian eigenpairing (:func:`has_no_hamiltonian_pairing`).

The triangular equation T X + X T^T = C is solved by recursive blocking
(Jonsson & Kagstrom's RECSY algorithms, ACM TOMS 28(4), 2002): T is
halved, the off-diagonal coupling becomes matrix products, and LAPACK's
level-2 ``dtrsyl`` runs only on blocks of at most ``LEAF`` rows.  A leaf
that ``dtrsyl`` flags as near-singular (``info`` = 1), or whose right-hand
side it scales down to keep X from overflowing (``scale`` < 1), is refused
with ``"tsylv-near-singular"``, so X needs no scale bookkeeping.  C is
symmetric, so X is too: of the off-diagonal blocks only X12 is solved
(one Sylvester equation) and X21 = X12^T.  A split never falls inside a
2x2 block of the real Schur form, since ``dtrsyl`` needs each diagonal
block whole.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrsyl

from .errors import SolverError
from .linalg import eigenvalues, expm, matmul, real_schur, schur_eigenvalues
from .propagation import _check_tau
from .tsylv import pairing_free
from .tsylv import factor_pencil, solve_with_factors  # noqa: F401 -- bench/tracing.py wraps these


@dataclass(frozen=True)
class PrecondFactors:
    """Cached factorization enabling cheap repeated preconditioner solves."""

    U: np.ndarray  # orthogonal, A0^T = U T U^T
    T: np.ndarray  # real Schur form of A0^T
    A0: np.ndarray
    exp_forward: np.ndarray  # expm(tau * A0 / 2)


def build_preconditioner(A0, shift=1.0, *, tau):
    """Factor the preconditioner for A0 and the delay tau (keyword only).

    Raises
    ------
    ValueError
        when tau breaks the one tau rule or shift is not the constant c = 1.
    SolverError
        ``"precond-unsolvable"`` when A0 has a Hamiltonian eigenpairing (the
        T-Sylvester step would be singular);
        ``"schur-no-convergence"`` when the Schur iteration fails.
    """
    _check_tau(tau)
    _check_shift(shift)
    A0 = np.array(A0, dtype=float)  # a copy: the factors keep it
    U, T = real_schur(A0.T)
    if not pairing_free(schur_eigenvalues(T)):
        raise SolverError("precond-unsolvable",
                          "A0 has a Hamiltonian eigenpairing: lambda_i + conj(lambda_j) = 0")
    return PrecondFactors(U=U, T=T, A0=A0, exp_forward=expm((0.5 * tau) * A0))


def _check_shift(shift):
    """Raise ``ValueError`` unless shift is the package's constant c = 1."""
    if shift != 1.0:
        raise ValueError("shift must be 1")


def has_no_hamiltonian_pairing(A0):
    """True iff no eigenvalue pair of A0 has lambda_i + conj(lambda_j) = 0,
    that is when the map T(Y) is invertible; a stable A0 meets it."""
    return pairing_free(eigenvalues(np.asarray(A0, dtype=float)))


def _sym(X):
    return 0.5 * (X + X.T)


LEAF = 64  # largest block handed to dtrsyl; n <= LEAF is one dtrsyl call


def _split(T):
    """Index k near the middle of T such that T[:k, :k] keeps every 2x2 block whole."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0 else k


def _dtrsyl(A, B, C):
    """X with A X + X B^T = C, by one LAPACK call."""
    X, scale, info = dtrsyl(A, B, C, tranb="T")
    # info 1: LAPACK perturbed a near-singular pair; < 0: illegal argument;
    # scale < 1: LAPACK scaled C down to keep X from overflowing
    if info != 0 or scale < 1.0:
        raise SolverError("tsylv-near-singular",
                          f"dtrsyl returned info = {info}, scale = {scale:.3g}")
    return X


def _trsylv(A, B, C):
    """X with A X + X B^T = C for upper quasi-triangular A, B."""
    m, n = C.shape
    if max(m, n) <= LEAF:
        return _dtrsyl(A, B, C)
    if m >= n:  # rows: A22 X2 + X2 B^T = C2, then A11 X1 + X1 B^T = C1 - A12 X2
        k = _split(A)
        X2 = _trsylv(A[k:, k:], B, C[k:])
        X1 = _trsylv(A[:k, :k], B, C[:k] - matmul(A[:k, k:], X2))
        return np.vstack((X1, X2))
    # columns: A X2 + X2 B22^T = C2, then A X1 + X1 B11^T = C1 - X2 B12^T
    k = _split(B)
    X2 = _trsylv(A, B[k:, k:], C[:, k:])
    X1 = _trsylv(A, B[:k, :k], C[:, :k] - matmul(X2, B[:k, k:].T))
    return np.hstack((X1, X2))


def _trlyap(T, C):
    """X with T X + X T^T = C for upper quasi-triangular T, C symmetric.

    With T = [[T11, T12], [0, T22]] the blocks follow from the bottom up:
    X22 from T22, X12 from the Sylvester equation T11 X12 + X12 T22^T =
    C12 - T12 X22, and X11 from T11 with C11 - W - W^T, W = T12 X12^T.
    """
    n = T.shape[0]
    if n <= LEAF:
        return _dtrsyl(T, T, C)
    k = _split(T)
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    X22 = _trlyap(T22, C[k:, k:])
    X12 = _trsylv(T11, T22, C[:k, k:] - matmul(T12, X22))
    W = matmul(T12, X12.T)
    X11 = _trlyap(T11, C[:k, :k] - W - W.T)
    return np.block([[X11, X12], [X12.T, X22]])


def apply_preconditioner(factors, Z):
    """Apply the inverse of the zero-coupling operator to an n x n Z.

    One Bartels-Stewart solve for S: project the right-hand side onto the
    cached Schur basis, solve T X + X T^T = U^T R U by :func:`_trlyap` and
    project back.  A non-finite Z gives a non-finite result and no NumPy
    warning, so the Krylov kernel's ``"krylov-nonfinite"`` reports it.

    Raises ``ValueError`` when Z is not n x n and
    ``SolverError("tsylv-near-singular")`` when a ``dtrsyl`` block fails
    or scales its right-hand side down.
    """
    Z = np.asarray(Z, dtype=float)
    U, At = factors.U, factors.A0.T
    if Z.shape != At.shape:
        raise ValueError(f"Z must be {At.shape}, got {Z.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        K = (Z - Z.T) / 4.0
        R = _sym(Z) - 2.0 * _sym(matmul(At, K))
        X = _trlyap(factors.T, _sym(matmul(matmul(U.T, R), U)))
        S = _sym(matmul(matmul(U, _sym(X)), U.T))
        return matmul(S + K, factors.exp_forward)

