"""Preconditioner that inverts the zero-coupling part of the operator.

Dropping A1 leaves Ltilde(X) = T(X exp(-tau A0 / 2)), where the T-Sylvester
map T(Y) = (A0^T + cI) Y + Y^T (A0 - cI) = (A0^T Y + Y^T A0) + c (Y - Y^T)
splits into a symmetric and an antisymmetric bracket.  So T(Y) = C has
Y = S + K with K = (C - C^T) / (4c) and S the symmetric solution of the
Lyapunov equation A0^T S + S A0 = sym(C) - (A0^T K - K A0), solved by
Bartels-Stewart on one cached real Schur form A0^T = U T U^T.  S is
symmetrized, since it can be far larger than K and its rounding asymmetry
would leak into the skew part, and corrected by one more solve on its
residual, which recovers the digits the Schur form loses.  The step count
is fixed, so an application is an exactly linear map.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrsyl

from .errors import SolverError
from .linalg import expm, frobenius, unvec, vec
from .operators import apply_operator, assemble_operator
from .tsylv import pairing_free
from .linalg import eigenvalues  # noqa: F401 -- unused; bench/tracing.py wraps these here
from .tsylv import factor_pencil, has_no_hamiltonian_pairing, solve_with_factors  # noqa: F401


@dataclass(frozen=True)
class PrecondFactors:
    """Cached factorization enabling cheap repeated preconditioner solves."""

    U: np.ndarray  # orthogonal, A0^T = U T U^T
    T: np.ndarray  # real Schur form of A0^T
    A0: np.ndarray
    shift: float
    exp_forward: np.ndarray  # expm(tau * A0 / 2)


def build_preconditioner(A0, shift=1.0, tau=1.0):
    """Factor the preconditioner for the given system matrix, shift and delay.

    Raises
    ------
    SolverError
        ``"precond-unsolvable"`` when A0 has a Hamiltonian eigenpairing (the
        T-Sylvester step would be singular for every shift);
        ``"schur-no-convergence"`` when the Schur iteration fails.
    """
    A0 = np.array(A0, dtype=float)  # a copy: the factors keep it
    if shift == 0.0:
        raise ValueError("shift must be nonzero")
    try:
        T, U = scipy.linalg.schur(A0.T, output="real")
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("schur-no-convergence", str(exc)) from exc
    if not pairing_free(_schur_eigenvalues(T)):
        raise SolverError(
            "precond-unsolvable",
            "A0 has a Hamiltonian eigenpairing: lambda_i + conj(lambda_j) = 0",
        )
    return PrecondFactors(U=U, T=T, A0=A0, shift=float(shift),
                          exp_forward=expm((0.5 * tau) * A0))


def _schur_eigenvalues(T):
    """Eigenvalues of a real Schur form; a 2x2 block [[a, b], [c, a]] gives a +- sqrt(bc)."""
    lam = np.diag(T).astype(complex)
    k = np.flatnonzero(np.diag(T, -1))
    root = np.sqrt((T[k, k + 1] * T[k + 1, k]).astype(complex))
    lam[k] += root
    lam[k + 1] -= root
    return lam


def _sym(X):
    return 0.5 * (X + X.T)


def _lyapunov(factors, R):
    """Symmetric S with A0^T S + S A0 = R, R symmetric, by Bartels-Stewart."""
    U = factors.U
    X, scale, info = dtrsyl(factors.T, factors.T, _sym(U.T @ R @ U), tranb="T")
    if info != 0:  # 1: LAPACK perturbed a near-singular pair; < 0: illegal argument
        raise SolverError("tsylv-near-singular", f"dtrsyl returned info = {info}")
    return _sym(U @ _sym(X / scale) @ U.T)


def apply_preconditioner(factors, Z):
    """Apply the inverse of the zero-coupling operator to Z.

    Raises ``SolverError("tsylv-near-singular")`` when ``dtrsyl`` fails.
    """
    Z = np.asarray(Z, dtype=float)
    At = factors.A0.T
    K = (Z - Z.T) / (4.0 * factors.shift)
    R = _sym(Z) - 2.0 * _sym(At @ K)
    S = _lyapunov(factors, R)
    S += _lyapunov(factors, R - 2.0 * _sym(At @ S))
    return (S + K) @ factors.exp_forward


def preconditioner_quality(ctx, factors, trials=20, seed=0):
    """Largest observed deviation of the preconditioned operator from identity.

    Returns max over random unit-Frobenius X of
    ||apply_preconditioner(apply_operator(X)) - X||_F, a lower bound on the
    operator-norm deviation of the preconditioned system from the identity.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    X = np.random.default_rng(seed).standard_normal((trials, ctx.problem.n, ctx.problem.n))
    X /= np.linalg.norm(X, axis=(-2, -1), keepdims=True)
    return max(frobenius(apply_preconditioner(factors, Y) - Xk)
               for Xk, Y in zip(X, apply_operator(ctx, X)))


def preconditioned_spectrum(ctx, factors):
    """Eigenvalues of the preconditioned operator, assembled densely.

    Builds the n^2 x n^2 matrix of X -> apply_preconditioner(apply_operator(X))
    from the batched :func:`assemble_operator`, preconditioning column by
    column, and returns its eigenvalue multiset (sorted by real part, then
    imaginary, for reproducible output).  Above the dense-assembly cap of
    :func:`assemble_operator` it raises ``ValueError``.
    """
    PA = np.column_stack([vec(apply_preconditioner(factors, unvec(a)))
                          for a in assemble_operator(ctx).T])
    ev = np.linalg.eigvals(PA)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
