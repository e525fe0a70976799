"""Preconditioner that inverts the zero-coupling part of the operator.

Dropping A1 from the operator leaves a map that factors exactly into a
T-Sylvester solve followed by a matrix exponential:

    Ltilde(X) = T(X exp(-tau A0 / 2)),   T(Y) = (A0^T + cI) Y + Y^T (A0 - cI),

so its inverse is one cached triangular T-Sylvester solve and one
multiplication by exp(tau A0 / 2) per application.  The factorization is
computed once (O(n^3)) and amortized across all Krylov iterations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .linalg import complex_schur, expm, frobenius, require_real, unvec, vec
from .operators import apply_operator, assemble_operator
from .tsylv import TsylvPencil, _check_pair_determinants, pairing_free, solve_with_factors
from .linalg import eigenvalues  # noqa: F401 -- unused; bench/tracing.py wraps it here
from .tsylv import factor_pencil, has_no_hamiltonian_pairing  # noqa: F401 -- likewise


@dataclass(frozen=True)
class PrecondFactors:
    """Cached factorization enabling cheap repeated preconditioner solves."""

    pencil: TsylvPencil
    exp_forward: np.ndarray  # expm(tau * A0 / 2)


def build_preconditioner(A0, shift=1.0, tau=1.0):
    """Factor the preconditioner for the given system matrix, shift and delay.

    One complex Schur form A0^T = U R U* gives the eigenvalues of A0 and
    triangularizes both M = A0^T + cI and N^T = A0^T - cI (Q = Z = U).

    Raises
    ------
    SolverError
        ``"precond-unsolvable"`` when A0 has a Hamiltonian eigenpairing (the
        T-Sylvester step would be singular for every shift);
        ``"precond-shift-degenerate"`` when the shift collides with an
        eigenvalue of A0, so that A0 - cI is singular (the caller may perturb
        the shift and retry); ``"tsylv-near-singular"`` from the pair check.
        The pencil itself cannot fail to factor.
    """
    A0 = np.asarray(A0, dtype=float)
    if shift == 0.0:
        raise ValueError("shift must be nonzero")
    n = A0.shape[0]
    U, R = complex_schur(A0.T)
    lam = np.diag(R)
    if not pairing_free(lam):
        raise SolverError(
            "precond-unsolvable",
            "A0 has a Hamiltonian eigenpairing: lambda_i + conj(lambda_j) = 0",
        )
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if np.abs(lam - shift).min() <= 1e-10 * scale:
        raise SolverError(
            "precond-shift-degenerate",
            f"shift {shift} collides with an eigenvalue of A0",
        )
    # U* A0^T U keeps more digits than R from the Schur iteration
    P = U.conj().T @ A0.T @ U
    I = np.eye(n)
    pencil = TsylvPencil(Q=U, Z=U, TM=np.triu(P + shift * I), TN=np.triu(P - shift * I))
    _check_pair_determinants(pencil.TM, pencil.TN)
    return PrecondFactors(pencil=pencil, exp_forward=expm((0.5 * tau) * A0))


def apply_preconditioner(factors, Z):
    """Apply the inverse of the zero-coupling operator to Z.

    One pairwise triangular substitution with the cached factors, then the
    multiplication by exp(tau A0 / 2); no refactorization takes place.
    """
    Y = require_real(solve_with_factors(factors.pencil, np.asarray(Z, dtype=float)))
    return Y @ factors.exp_forward


def preconditioner_quality(ctx, factors, trials=20, seed=0):
    """Largest observed deviation of the preconditioned operator from identity.

    Returns max over random unit-Frobenius X of
    ||apply_preconditioner(apply_operator(X)) - X||_F, a lower bound on the
    operator-norm deviation of the preconditioned system from the identity.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = ctx.problem.n
    worst = 0.0
    for _ in range(trials):
        X = rng.standard_normal((n, n))
        X /= frobenius(X)
        dev = apply_preconditioner(factors, apply_operator(ctx, X)) - X
        worst = max(worst, frobenius(dev))
    return worst


def preconditioned_spectrum(ctx, factors):
    """Eigenvalues of the preconditioned operator, assembled densely.

    Builds the n^2 x n^2 matrix of X -> apply_preconditioner(apply_operator(X))
    column by column and returns its eigenvalue multiset (sorted by real part,
    then imaginary, for reproducible output).  Above the dense-assembly cap
    of :func:`assemble_operator` it raises ``ValueError``.
    """
    n = ctx.problem.n
    A = assemble_operator(ctx)
    PA = np.empty_like(A)
    for j in range(n * n):
        PA[:, j] = vec(apply_preconditioner(factors, unvec(A[:, j], n)))
    ev = np.linalg.eigvals(PA)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
