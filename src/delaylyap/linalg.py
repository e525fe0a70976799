"""Dense linear-algebra kernels shared by every other module, and the one
place that decides which BLAS the package calls.

One BLAS: NumPy and SciPy each ship their own OpenBLAS, each with its own
thread pool, and SciPy's already runs every factorization (the Schur form,
the Pade step of ``expm``, ``dtrsyl``, the LU, ``gebal``).  So every dense
product on the solve path runs on SciPy's too, through :func:`gemm`,
:func:`matmul`, :func:`dot` and :func:`norm` over ``scipy.linalg.blas``
(``dgemm``, ``dgemv``, ``ddot``): two pools that take turns on the same
cores spin against each other.  The helpers read a C- or F-ordered operand
through the BLAS transpose flag, so neither layout is copied; a strided
slice is copied once.  Stacked (3-D) operands stay on ``np.matmul``: only
the LU assembly makes them, at n small enough that neither pool threads.

Real matrices are float64 ndarrays, complex ones complex128.  The vec basis
is defined here and only here: :func:`vec` stacks columns, so
vec(AXB) = (B^T (x) A) vec(X), and :func:`matrix_of` assembles the dense
matrix of a linear map in that basis.  Every dense oracle (the assembled
operator and its preconditioned spectrum, the Kronecker T-Sylvester solve)
is built by :func:`matrix_of`; no other module reshapes to or from the vec
basis.
The factorizations are SciPy's (the Pade step of ``scipy.linalg.expm``,
``lu_factor``/``lu_solve`` with LAPACK's ``dgecon``, ``schur``); the
wrappers here add input checks and map their failures, or a condition
estimate below working precision, to stable ``SolverError`` codes.  :func:`real_schur` is the one
Schur route; the T-Sylvester pencil is factored, and its solution taken
real, in :mod:`delaylyap.tsylv`.
"""

import math
import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemm, dgemv
from scipy.linalg.lapack import dgecon

from .errors import SolverError


def _require_square(A, name="matrix"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def _fortran(M):
    """(F, t): an F-contiguous F with M = F^T when t is 1 and M = F when t
    is 0.  A C-contiguous M is the transpose of the F-contiguous M.T, so
    neither layout is copied; any other M, a strided slice, is copied once."""
    if M.flags.f_contiguous:
        return M, 0
    if M.flags.c_contiguous:
        return M.T, 1
    return np.asfortranarray(M), 0


def gemm(A, B, alpha=1.0, out=None):
    """alpha A B for 2-D float64 A and B, by one ``dgemm`` on SciPy's BLAS.

    The product is formed as its transpose, (A B)^T = B^T A^T, in the
    F-contiguous transpose of a C-contiguous result.  ``out``, when given,
    must therefore be C-contiguous float64 of shape (m, n), as ``np.dot``'s
    must be; it receives the product and is returned.  A zero dimension
    gives the empty or zero product.  Raises ``ValueError`` when an operand
    is not 2-D, the shapes do not match, or ``out`` is not acceptable.
    """
    if not A.ndim == B.ndim == 2:
        raise ValueError(f"gemm: cannot multiply {A.shape} by {B.shape}")
    c = None if out is None else out.T
    a, ta = _fortran(B)
    b, tb = _fortran(A)
    try:
        product = dgemm(alpha, a, b, 0.0, c, 1 - ta, 1 - tb, 1)
    except Exception:  # f2py's error, whose class SciPy does not export
        (m, k), (kb, n) = A.shape, B.shape
        if k != kb or (out is not None and out.shape != (m, n)):
            shape = None if out is None else out.shape
            raise ValueError(f"gemm: cannot multiply {A.shape} by {B.shape} into {shape}") \
                from None
        if m and n:
            raise
        return np.empty((m, n)) if out is None else out  # f2py refuses an empty product
    if c is None:
        return product.T
    if product is not c:  # f2py wrote a copy: out is not C-contiguous float64
        raise ValueError("gemm: out must be C-contiguous float64")
    return out


def matmul(A, B):
    """A @ B for float64 arrays on SciPy's BLAS: :func:`gemm` for two
    matrices, ``dgemv`` for a matrix and a vector, :func:`dot` for two
    vectors.  Stacked operands (ndim > 2) stay on ``np.matmul``: only the
    LU assembly makes them.  Raises ``ValueError`` on mismatched shapes."""
    if A.ndim == B.ndim == 2:
        return gemm(A, B)
    if A.ndim > 2 or B.ndim > 2:
        return np.matmul(A, B)
    if A.ndim == B.ndim == 1:
        return dot(A, B)
    M, x, t = (A, B, 0) if A.ndim == 2 else (B, A, 1)  # x @ M is M^T x
    if x.ndim != 1 or M.shape[1 - t] != x.shape[0]:
        raise ValueError(f"matmul: cannot multiply {A.shape} by {B.shape}")
    if not M.size:  # dgemv refuses an empty operand
        return np.zeros(M.shape[t])
    F, f = _fortran(M)
    return dgemv(1.0, F, x, trans=t ^ f)


def dot(x, y):
    """The inner product of two float64 vectors by ``ddot``, a Python float."""
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"dot: cannot take the inner product of {x.shape} and {y.shape}")
    return ddot(x, y) if x.size else 0.0


def norm(x):
    """The 2-norm of a float64 vector, sqrt(``ddot``(x, x)), a Python float.

    Unscaled, as ``np.linalg.norm`` of a vector is: a sum of squares that
    overflows gives inf, and no warning.
    """
    return math.sqrt(dot(x, x))


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


# the largest ||A||_1 for which scipy.linalg.expm's degree-13 Pade step
# needs no squaring (Al-Mohy & Higham 2009, the theta_13 of SciPy's code)
EXPM_THETA_13 = 4.25


def expm(A):
    """Matrix exponential by scaling and squaring (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31(3), 2009).

    A is scaled by 2^-s, s the least integer >= 0 with ||2^-s A||_1 <=
    ``EXPM_THETA_13``, so that ``scipy.linalg.expm`` runs its Pade step on
    it without squaring; the s squarings then run on :func:`gemm`, SciPy's
    BLAS, like every other product of the solve path.

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
    with np.errstate(over="ignore"):
        norm1 = np.abs(A).sum(axis=0).max() if A.size else 0.0
    if not np.isfinite(norm1):
        raise SolverError("exp-overflow", "||A||_1 overflowed")
    s = max(0, math.ceil(math.log2(norm1 / EXPM_THETA_13))) if norm1 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A * 2.0 ** -s)
        for _ in range(s):
            E = gemm(E, E)
    if not np.all(np.isfinite(E)):
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

