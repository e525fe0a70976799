"""Dense linear-algebra kernels shared by every other module.

Real matrices are float64 ndarrays, complex ones complex128.  The vec basis
is defined here and only here: :func:`vec` stacks columns, so
vec(AXB) = (B^T (x) A) vec(X), and :func:`matrix_of` assembles the dense
matrix of a linear map in that basis.  Every dense oracle (the assembled
operator and its preconditioned spectrum, the Kronecker T-Sylvester solve)
is built by :func:`matrix_of`; no other module reshapes to or from the vec
basis.
The factorizations are SciPy's (``scipy.linalg.expm``, ``lu_factor``/
``lu_solve`` with LAPACK's ``dgecon``, ``schur``); the wrappers here add input
checks and map their failures, or a condition estimate below working
precision, to stable ``SolverError`` codes.  :func:`real_schur` is the one
Schur route; the T-Sylvester pencil is factored in :mod:`delaylyap.tsylv`.
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgecon

from .errors import SolverError

REAL_RTOL = 1e-9


def _require_square(A, name="matrix"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def vec(X):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(X).flatten(order="F")


def unvec(x):
    """Inverse of :func:`vec` for a square matrix."""
    x = np.asarray(x)
    n = int(round(np.sqrt(x.size)))
    if n * n != x.size:
        raise ValueError(f"cannot unvec length {x.size} into a square matrix")
    return x.reshape((n, n), order="F")


def matrix_of(fn, n):
    """Dense n^2 x n^2 matrix M of a linear map on n x n matrices, with
    M vec(X) = vec(fn(X)).

    ``fn`` is applied once, to the batch of all unit matrices
    E_j = unvec(e_j) stacked on a leading axis, so it must accept such a
    batch; column j of M is vec(fn(E_j)).
    """
    size = n * n
    # a column-major vec is a row-major reshape with the last two axes swapped
    E = np.eye(size).reshape(size, n, n).swapaxes(-1, -2)
    return fn(E).swapaxes(-1, -2).reshape(size, size).T


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
        ``"singular-matrix"`` when A is not finite or is singular to working
        precision: LAPACK's estimate of its reciprocal 1-norm condition
        number (``dgecon``) is at most N eps for N x N A.
    """
    A = _require_square(A, "lu_solve matrix")
    try:
        # rcond is checked below, so SciPy's singularity warning is redundant
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError("singular-matrix", str(exc)) from exc
    if A.size:  # LAPACK refuses a 0 x 0 matrix
        with np.errstate(over="ignore"):  # an overflowing norm means rcond = 0
            norm1 = np.abs(A).sum(axis=0).max()
        rcond = dgecon(lu, norm1)[0] if np.isfinite(norm1) else 0.0
        if rcond <= A.shape[0] * np.finfo(float).eps:
            raise SolverError("singular-matrix", f"rcond {rcond:.3g} below working precision")
    return scipy.linalg.lu_solve((lu, piv), B)


def real_schur(A):
    """A = U T U^T, U orthogonal, T quasi-triangular (2x2 blocks for complex pairs).

    Raises ``SolverError("schur-no-convergence")`` when the QR iteration fails.
    """
    try:
        T, U = scipy.linalg.schur(A, output="real")
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("schur-no-convergence", str(exc)) from exc
    return U, T


def schur_eigenvalues(T):
    """Eigenvalues of a real Schur form; a 2x2 block [[a, b], [c, a]] gives a +- sqrt(bc)."""
    lam = np.diag(T).astype(complex)
    k = np.flatnonzero(np.diag(T, -1))
    root = np.sqrt((T[k, k + 1] * T[k + 1, k]).astype(complex))
    lam[k] += root
    lam[k + 1] -= root
    return lam


def eigenvalues(A):
    """Eigenvalues of A read off its real Schur form."""
    return schur_eigenvalues(real_schur(A)[1])


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
