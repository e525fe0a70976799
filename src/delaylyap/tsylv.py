"""Direct solution of the real T-Sylvester equation M X + X^T N = C.

The equation has a unique solution for every C exactly when the pencil
M - lambda N^T is regular, no eigenvalue is -1, and no two eigenvalues
lambda_i, lambda_j (i != j, counted with multiplicity) have
lambda_i lambda_j = 1, where an infinite eigenvalue pairs with a zero one
(Byers & Kressner, SIAM J. Matrix Anal. Appl. 28, 2006; De Teran & Dopico,
Linear Algebra Appl. 434, 2011).  A simple eigenvalue 1 is allowed.

This module is the one place that knows the general pencil:
:func:`factor_pencil` triangularizes it by complex QZ, so a singular N^T
gives an infinite eigenvalue rather than a failure.  Both routes take only
real, finite, square M, N and C of one shape with n >= 1 (``ValueError``) and
report a singular or near-singular map as ``tsylv-near-singular``, which
:func:`tsylv_solve` reads off the back substitution, not off the computed
eigenvalues, which a large off-diagonal can move off a reciprocal pair: an
exactly zero pivot (a singular pencil's 0/0 eigenvalue gives one), a
non-finite X, or a growth ||X||_F (||M||_F + ||N||_F) / ||C||_F above
1 / ``SOLVABLE_RTOL``.  That growth is a lower bound on the condition
number of the map, so it certifies a relative distance to a singular map
below ``SOLVABLE_RTOL``.  The residual check on Re X, which solves the
equation whenever X does (M, N and C are real), is the one accuracy verdict.

Two routes are provided: a Kronecker-vectorized dense solve (the reference
oracle, O(n^6)) and a Schur-reduction solver (O(n^3)) that back-substitutes
unknowns in (i, j)/(j, i) pairs.  The pairwise substitution is
cross-validated against the oracle in the test suite rather than assumed
correct.  The preconditioner uses neither: its map splits into a Lyapunov
equation and a closed-form skew part, and its solvability rule is in
:mod:`delaylyap.precond`.  Only that rule's tolerance, :func:`pairing_free`,
is here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverError
from .linalg import frobenius, lu_solve, matrix_of, unvec, vec

KRON_MAX_N = 60
SOLVABLE_RTOL = 1e-10


@dataclass(frozen=True)
class TsylvPencil:
    """Triangularized pencil M - lambda N^T.

    Q, Z are unitary with Q* M Z = TM and Q* N^T Z = TN upper triangular;
    TN[i,i] = 0 is an infinite eigenvalue (N^T need not be invertible).
    The factors are immutable and safe to reuse across right-hand sides.
    """

    Q: np.ndarray
    Z: np.ndarray
    TM: np.ndarray
    TN: np.ndarray


def factor_pencil(M, N):
    """Factor the pencil M - lambda N^T for repeated T-Sylvester solves.

    One route, complex QZ (``scipy.linalg.qz``), so N^T need not be
    invertible: an eigenvalue may be infinite, or 0/0 (a singular pencil).

    Raises
    ------
    ValueError
        From ``scipy.linalg.qz``, when M or N is not finite.
    """
    TM, TN, Q, Z = scipy.linalg.qz(M, np.asarray(N).T, output="complex")
    return TsylvPencil(Q=Q, Z=Z, TM=TM, TN=TN)


def _check_input(M, N, C):
    """The input rule of both routes: M, N and C as float64, or ``ValueError``
    unless they are real, finite and square of one shape with n >= 1."""
    M, N, C = (np.asarray(A) for A in (M, N, C))
    if (any(np.iscomplexobj(A) for A in (M, N, C)) or M.ndim != 2 or not M.size
            or M.shape[0] != M.shape[1] or not M.shape == N.shape == C.shape):
        raise ValueError(f"M, N and C must be real and square of one shape with n >= 1, got "
                         f"{M.dtype} {M.shape}, {N.dtype} {N.shape}, {C.dtype} {C.shape}")
    M, N, C = (np.asarray(A, dtype=float) for A in (M, N, C))
    if not all(np.isfinite(A).all() for A in (M, N, C)):
        raise ValueError("M, N and C must be finite")
    return M, N, C


def _solve_reduced(TM, TN, C):
    """Solve TM Y + Y^T TN^T = C with TM, TN upper triangular.

    Sweeps index groups m = n-1 .. 0.  Within a group the diagonal unknown
    comes from the scalar equation, and the pair unknowns (Y[i,m], Y[m,i])
    come from the 2x2 systems [[TM_ii, TN_mm], [TN_ii, TM_mm]]; all pairs of
    a group are solved at once by eliminating one unknown with the larger of
    the two pivots and solving the remaining triangular system.
    """
    n = TM.shape[0]
    Y = np.zeros((n, n), dtype=complex)
    for m in range(n - 1, -1, -1):
        Y[m, m] = (C[m, m] - (TM[m, m + 1:] + TN[m, m + 1:]) @ Y[m + 1:, m]) \
            / (TM[m, m] + TN[m, m])
        if m == 0:
            break
        r1 = C[0:m, m] - TM[0:m, m:] @ Y[m:, m] - TN[m, m + 1:] @ Y[m + 1:, 0:m]
        r2 = C[m, 0:m] - TN[0:m, m:] @ Y[m:, m] - TM[m, m + 1:] @ Y[m + 1:, 0:m]
        TMs = TM[0:m, 0:m]
        TNs = TN[0:m, 0:m]
        tm = TM[m, m]
        tn = TN[m, m]
        if abs(tn) >= abs(tm):
            g = tm / tn
            u = scipy.linalg.solve_triangular(TNs - g * TMs, r2 - g * r1, lower=False,
                                              check_finite=False)
            v = (r1 - TMs @ u) / tn
        else:
            g = tn / tm
            u = scipy.linalg.solve_triangular(TMs - g * TNs, r1 - g * r2, lower=False,
                                              check_finite=False)
            v = (r2 - TNs @ u) / tm
        Y[0:m, m] = u
        Y[m, 0:m] = v
    return Y


def solve_with_factors(pencil, C):
    """Solve M X + X^T N = C with a factored pencil; returns complex X.

    No pivot is checked: an exactly zero one raises ``LinAlgError`` from
    ``solve_triangular`` or makes X non-finite (later groups carry the
    non-finite entries on, since ``check_finite`` is off), with NumPy
    warnings that :func:`tsylv_solve` silences and reads as
    ``tsylv-near-singular``.
    """
    Ct = pencil.Q.conj().T @ C @ pencil.Q.conj()
    Y = _solve_reduced(pencil.TM, pencil.TN, Ct)
    return pencil.Z @ Y @ pencil.Q.T


def tsylv_solve(M, N, C):
    """Solve the real T-Sylvester equation by the Schur-reduction route.

    Parameters
    ----------
    M, N, C : (n, n) real arrays, n >= 1.

    Returns
    -------
    X : (n, n) float array with ``M X + X^T N = C`` to a relative residual
        of 1e-8.

    Raises
    ------
    ValueError
        When M, N and C are not real and square of one shape with n >= 1,
        or not finite.
    SolverError
        ``"tsylv-near-singular"`` when the back substitution meets an
        exactly zero pivot, or its X is not finite or has a growth
        ||X||_F (||M||_F + ||N||_F) / ||C||_F above 1 / ``SOLVABLE_RTOL``;
        ``"tsylv-residual-fail"`` when the real part of X fails the
        defining-equation check.
    """
    M, N, C = _check_input(M, N, C)
    pencil = factor_pencil(M, N)
    # M, N and C are normed scaled to a largest entry of 1, so no norm overflows
    s = float(max(np.abs(M).max(), np.abs(N).max())) or 1.0
    c = float(np.abs(C).max()) or 1.0
    norm_c = max(frobenius(C / c), 1e-300)
    with np.errstate(all="ignore"):
        try:
            X = solve_with_factors(pencil, C)
        except np.linalg.LinAlgError as exc:
            raise SolverError("tsylv-near-singular", f"zero pivot: {exc}") from exc
        growth = frobenius(X / c) * s * (frobenius(M / s) + frobenius(N / s)) / norm_c
        if not growth <= 1.0 / SOLVABLE_RTOL:  # also a non-finite X
            raise SolverError("tsylv-near-singular", f"solution growth {growth:.3g}")
        X = X.real.copy()
        res = frobenius((M @ X + X.T @ N - C) / c) / norm_c
    if res > 1e-8:
        raise SolverError("tsylv-residual-fail", f"relative residual {res:.3g}")
    return X


def tsylv_solve_kron(M, N, C):
    """Reference solve through the n^2 x n^2 Kronecker system.

    The matrix of Y -> M Y + Y^T N, which is I (x) M + (N^T (x) I) P with P
    the commutation matrix, is assembled by
    :func:`delaylyap.linalg.matrix_of` and solved for vec C by dense LU.
    Raises ``ValueError`` under :func:`tsylv_solve`'s input rule,
    ``SolverError("oracle-too-large")`` when n exceeds ``KRON_MAX_N``, before
    anything is allocated, and ``"tsylv-near-singular"`` when
    ``linalg.lu_solve`` refuses the matrix.
    """
    M, N, C = _check_input(M, N, C)
    n = M.shape[0]
    if n > KRON_MAX_N:
        raise SolverError("oracle-too-large", f"n={n} exceeds the dense oracle cap {KRON_MAX_N}")
    K = matrix_of(lambda Y: M @ Y + Y.swapaxes(-1, -2) @ N, n)
    try:
        x = lu_solve(K, vec(C))
    except SolverError as exc:
        raise SolverError("tsylv-near-singular", str(exc)) from exc
    return unvec(x)


def pairing_free(lam):
    """True iff no lambda_i + conj(lambda_j) lies within 1e-10 (1 + max |lambda|) of 0."""
    tol = SOLVABLE_RTOL * (1.0 + float(np.abs(lam).max(initial=0.0)))
    with np.errstate(over="ignore"):  # an infinite sum is no pairing
        s = np.abs(lam[:, None] + lam[None, :].conj())
    return bool(s.min() > tol)
