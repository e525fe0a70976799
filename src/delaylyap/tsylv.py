"""Direct solution of the real T-Sylvester equation M X + X^T N = C.

Two routes are provided: a Kronecker-vectorized dense solve (the reference
oracle, O(n^6)) and a Schur-reduction solver (O(n^3)) that triangularizes the
pencil M - lambda N^T once and back-substitutes unknowns in (i, j)/(j, i)
pairs.  A generic pencil is triangularized by complex QZ, so a singular N^T
(an infinite pencil eigenvalue) is solved rather than rejected; the
preconditioner's pencil, a pair of shifts of A0^T, is triangularized by one
Schur form of A0^T instead.  The pairwise substitution is cross-validated
against the oracle in the test suite rather than assumed correct.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverError
from .linalg import (
    commutation_matrix,
    eigenvalues,
    frobenius,
    kron,
    lu_solve,
    require_real,
    unvec,
    vec,
)

KRON_MAX_N = 60
PAIR_DET_RTOL = 1e-12
SOLVABLE_RTOL = 1e-10


@dataclass(frozen=True)
class TsylvPencil:
    """Triangularized pencil M - lambda N^T with its eigenvalues.

    Q, Z are unitary with Q* M Z = TM and Q* N^T Z = TN upper triangular;
    mu[i] = TM[i,i]/TN[i,i], which is infinite where TN[i,i] = 0 (N^T need
    not be invertible).  The factors are immutable and safe to reuse across
    many right-hand sides.
    """

    Q: np.ndarray
    Z: np.ndarray
    TM: np.ndarray
    TN: np.ndarray

    @property
    def mu(self):
        dM, dN = np.diag(self.TM), np.diag(self.TN)
        mu = np.full(dM.shape, np.inf, dtype=complex)
        finite = dN != 0
        mu[finite] = dM[finite] / dN[finite]
        return mu


def factor_pencil(M, N):
    """Factor the pencil M - lambda N^T for repeated T-Sylvester solves.

    One route, complex QZ (``scipy.linalg.qz``), so N^T need not be
    invertible and ``mu`` may be infinite.  The preconditioner's pencil, whose
    M and N^T are shifts of one matrix, is built from a Schur form instead
    (:func:`delaylyap.precond.build_preconditioner`).

    Raises
    ------
    SolverError
        ``"pencil-reduction-failed"`` when the pencil is singular: some
        TM[i,i] and TN[i,i] are both zero to working precision, so mu[i] is
        undetermined.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    TM, TN, Q, Z = scipy.linalg.qz(M, N.T, output="complex")
    dM = np.diag(TM)
    dN = np.diag(TN)
    eps = M.shape[0] * np.finfo(float).eps
    undetermined = (np.abs(dM) <= eps * frobenius(M)) & (np.abs(dN) <= eps * frobenius(N))
    if np.any(undetermined):
        raise SolverError(
            "pencil-reduction-failed",
            f"singular pencil: {int(undetermined.sum())} eigenvalue(s) 0/0",
        )
    return TsylvPencil(Q=Q, Z=Z, TM=TM, TN=TN)


def _check_pair_determinants(TM, TN):
    """Guard the 2x2 pair systems [[TM_ii, TN_jj], [TN_ii, TM_jj]].

    Off-diagonal pairs are singular when TM_ii TM_jj = TN_ii TN_jj; the
    diagonal (i = j) unknown is solved by the scalar pivot TM_ii + TN_ii.
    """
    dM = np.diag(TM)
    dN = np.diag(TN)
    det = np.abs(np.outer(dM, dM) - np.outer(dN, dN))
    scale = np.maximum(np.abs(np.outer(dM, dM)), np.abs(np.outer(dN, dN)))
    off = ~np.eye(len(dM), dtype=bool)
    bad = det[off] < PAIR_DET_RTOL * np.maximum(scale[off], 1e-300)
    if np.any(bad):
        raise SolverError(
            "tsylv-near-singular",
            f"{int(bad.sum())} eigenvalue pair(s) with mu_i*mu_j ~ 1",
        )
    piv = np.abs(dM + dN)
    bad_diag = piv < PAIR_DET_RTOL * np.maximum(np.maximum(np.abs(dM), np.abs(dN)), 1e-300)
    if np.any(bad_diag):
        raise SolverError(
            "tsylv-near-singular",
            f"{int(bad_diag.sum())} diagonal pivot(s) TM_ii + TN_ii ~ 0",
        )


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
            u = scipy.linalg.solve_triangular(TNs - g * TMs, r2 - g * r1, lower=False)
            v = (r1 - TMs @ u) / tn
        else:
            g = tn / tm
            u = scipy.linalg.solve_triangular(TMs - g * TNs, r1 - g * r2, lower=False)
            v = (r2 - TNs @ u) / tm
        Y[0:m, m] = u
        Y[m, 0:m] = v
    return Y


def solve_with_factors(pencil, C):
    """Solve M X + X^T N = C with a factored, pair-checked pencil; returns complex X."""
    Ct = pencil.Q.conj().T @ C @ pencil.Q.conj()
    Y = _solve_reduced(pencil.TM, pencil.TN, Ct)
    return pencil.Z @ Y @ pencil.Q.T


def tsylv_solve(M, N, C):
    """Solve the real T-Sylvester equation by the Schur-reduction route.

    Parameters
    ----------
    M, N, C : (n, n) real arrays.

    Returns
    -------
    X : (n, n) float array with ``M X + X^T N = C`` to a relative residual
        of 1e-8.

    Raises
    ------
    SolverError
        ``"pencil-reduction-failed"`` when the pencil M - lambda N^T is
        singular, ``"tsylv-near-singular"`` when an eigenvalue pair makes a
        2x2 block numerically singular, ``"tsylv-residual-fail"`` when the
        computed solution fails the defining-equation check.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    C = np.asarray(C, dtype=float)
    pencil = factor_pencil(M, N)
    _check_pair_determinants(pencil.TM, pencil.TN)
    X = require_real(solve_with_factors(pencil, C))
    res = frobenius(M @ X + X.T @ N - C)
    if res > 1e-8 * max(frobenius(C), 1e-300):
        raise SolverError(
            "tsylv-residual-fail",
            f"relative residual {res / max(frobenius(C), 1e-300):.3g}",
        )
    return X


def tsylv_solve_kron(M, N, C, max_n=KRON_MAX_N):
    """Reference solve through the n^2 x n^2 Kronecker system.

    Vectorizes the equation as (I (x) M + (N^T (x) I) P) vec X = vec C with
    P the commutation matrix.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    C = np.asarray(C, dtype=float)
    n = M.shape[0]
    if n > max_n:
        raise ValueError(f"n={n} exceeds the dense oracle cap {max_n}")
    P = commutation_matrix(n)
    K = kron(np.eye(n), M) + kron(N.T, np.eye(n)) @ P
    try:
        x = lu_solve(K, vec(C))
    except SolverError as exc:
        raise SolverError("tsylv-singular", str(exc)) from exc
    return unvec(x, n)


def tsylv_solvable(M, N):
    """Unique-solvability predicate for M X + X^T N = C.

    True iff every eigenvalue pair of the pencil M - lambda N^T keeps
    |mu_i conj(mu_j) - 1| above 1e-10 (1 + |mu_i mu_j|); an infinite
    eigenvalue violates the condition only when paired with a zero one.  The
    bound is relative to each pair, so one huge finite mu (a nearly singular
    N^T) does not blur the test for the others.
    """
    mu = factor_pencil(M, N).mu
    mf = mu[np.isfinite(mu)]
    bound = SOLVABLE_RTOL * (1.0 + np.abs(np.outer(mf, mf)))
    if np.any(np.abs(np.outer(mf, mf.conj()) - 1.0) <= bound):
        return False
    if mf.size < mu.size and np.any(np.abs(mf) <= SOLVABLE_RTOL):
        return False
    return True


def has_no_hamiltonian_pairing(A0):
    """True iff no eigenvalue pair of A0 satisfies lambda_i + conj(lambda_j) = 0.

    This is exactly the (shift-independent) solvability condition of the
    T-Sylvester equation with M = A0^T + cI, N = A0 - cI; it holds in
    particular whenever every eigenvalue of A0 has negative real part.
    """
    return pairing_free(eigenvalues(np.asarray(A0, dtype=float)))


def pairing_free(lam):
    """True iff no lambda_i + conj(lambda_j) lies within 1e-10 (1 + max |lambda|) of 0."""
    tol = SOLVABLE_RTOL * (1.0 + float(np.abs(lam).max(initial=0.0)))
    s = np.abs(lam[:, None] + lam[None, :].conj())
    return bool(s.min() > tol)
