"""Dense linear-algebra kernels shared by every other module.

Real matrices are float64 ndarrays, complex ones complex128; the
column-stacking convention vec(AXB) = (B^T (x) A) vec(X) is used throughout.
The factorizations are SciPy's (``scipy.linalg.expm``, ``lu_factor``/
``lu_solve``, ``schur``, ``qz``); the wrappers here add input checks and map
their failures to stable ``SolverError`` codes.
"""

import warnings

import numpy as np
import scipy.linalg

from .errors import SolverError

KRON_MAX_DIM = 16384
REAL_RTOL = 1e-9


def _require_square(A, name="matrix"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def vec(X):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(X).flatten(order="F")


def unvec(x, rows=None):
    """Inverse of :func:`vec`; square by default."""
    x = np.asarray(x)
    if rows is None:
        rows = int(round(np.sqrt(x.size)))
        if rows * rows != x.size:
            raise ValueError(f"cannot unvec length {x.size} into a square matrix")
    return x.reshape((rows, x.size // rows), order="F")


def kron(A, B, max_dim=KRON_MAX_DIM):
    """Kronecker product with a size guard.

    Follows vec(AXB) = (B^T (x) A) vec(X).
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[0] * B.shape[0] > max_dim or A.shape[1] * B.shape[1] > max_dim:
        raise SolverError(
            "kron-too-large",
            f"result of shape {A.shape[0]*B.shape[0]}x{A.shape[1]*B.shape[1]} "
            f"exceeds the cap {max_dim}",
        )
    return np.kron(A, B)


def commutation_matrix(n):
    """Permutation P of size n^2 x n^2 with P vec(X) = vec(X^T).

    Row k of P is row perm[k] of the identity, where perm lists the
    column-major positions of X^T's entries in X.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perm = np.arange(n * n).reshape(n, n).flatten(order="F")
    return np.eye(n * n)[perm]


def expm(A):
    """Matrix exponential by ``scipy.linalg.expm``.

    That is the scaling-and-squaring algorithm of Al-Mohy & Higham (SIAM J.
    Matrix Anal. Appl. 31(3), 2009).

    Raises
    ------
    ValueError
        When A is not square.
    SolverError
        ``"exp-overflow"`` when the input or the result is not finite.
    """
    A = _require_square(A, "expm input")
    if not np.all(np.isfinite(A)):
        raise SolverError("exp-overflow", "input matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E)):
        norm1 = np.abs(A).sum(axis=0).max()
        raise SolverError("exp-overflow", f"exp overflowed for ||A||_1 = {norm1:.3g}")
    return E


def lu_solve(A, B):
    """Solve A X = B by partially pivoted LU (``scipy.linalg.lu_factor``).

    Raises
    ------
    SolverError
        ``"singular-matrix"`` when A is singular to working precision.
    """
    A = _require_square(A, "lu_solve matrix")
    B = np.asarray(B)
    try:
        # the pivots are checked below, so SciPy's singularity warning is redundant
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError("singular-matrix", str(exc)) from exc
    d = np.abs(np.diag(lu))
    if d.size and d.min() <= A.shape[0] * np.finfo(float).eps * max(d.max(), 1e-300):
        raise SolverError(
            "singular-matrix",
            f"pivot ratio {d.min():.3g}/{d.max():.3g} below working precision",
        )
    return scipy.linalg.lu_solve((lu, piv), B)


def complex_schur(A):
    """Complex Schur decomposition A = Q R Q* with R upper triangular.

    Backed by ``scipy.linalg.schur`` (LAPACK Hessenberg reduction followed
    by shifted QR with deflation).  Returns complex arrays for real input.
    """
    A = _require_square(A, "schur input")
    try:
        R, Q = scipy.linalg.schur(A.astype(complex), output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("schur-no-convergence", str(exc)) from exc
    return Q, R


def eigenvalues(A):
    """Eigenvalues of A as the diagonal of its complex Schur form."""
    _, R = complex_schur(A)
    return np.diag(R).copy()


def generalized_schur_pencil(M, NT):
    """Unitary reduction of the pencil M - lambda*NT to triangular form.

    Returns (Q, Z, TM, TN) with Q* M Z = TM and Q* NT Z = TN, both upper
    triangular; pencil eigenvalues are TM[i,i]/TN[i,i].  Backed by complex
    QZ (``scipy.linalg.qz``).  Requires NT invertible.

    Raises
    ------
    SolverError
        ``"pencil-reduction-failed"`` when NT is numerically singular (some
        TN[i,i] is zero to working precision).
    """
    M = _require_square(M, "pencil M")
    NT = _require_square(NT, "pencil NT")
    if M.shape != NT.shape:
        raise ValueError("pencil matrices must have matching shapes")
    TM, TN, Q, Z = scipy.linalg.qz(M, NT, output="complex")
    if np.any(np.abs(np.diag(TN)) <= NT.shape[0] * np.finfo(float).eps * frobenius(NT)):
        raise SolverError("pencil-reduction-failed", "NT is singular")
    return Q, Z, TM, TN


def pencil_eigenvalues(M, NT):
    """Eigenvalues of the pencil M - lambda*NT (NT invertible)."""
    _, _, TM, TN = generalized_schur_pencil(M, NT)
    return np.diag(TM) / np.diag(TN)


def frobenius(A):
    return float(np.linalg.norm(np.asarray(A), "fro"))


def require_real(A):
    """Truncate a numerically real complex matrix to float64.

    Raises ``SolverError("tsylv-residual-fail")`` when the imaginary part
    exceeds ``REAL_RTOL`` relative to the real part.
    """
    A = np.asarray(A)
    if not np.iscomplexobj(A):
        return A.astype(float)
    re = np.linalg.norm(A.real, "fro")
    im = np.linalg.norm(A.imag, "fro")
    if im > REAL_RTOL * max(re, 1e-300):
        raise SolverError("tsylv-residual-fail",
                          f"imaginary part {im:.3g} vs real norm {re:.3g}")
    return np.ascontiguousarray(A.real)
