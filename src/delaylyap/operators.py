"""The linear operator whose solution is the delay Lyapunov matrix
at the half-delay, together with its dense oracles (the assembled operator
and the preconditioned spectrum, under one cap: :func:`_check_dense_cap`),
reconstruction of the full solution curve, and the boundary-value residuals
of the original equation.
"""

import math
from dataclasses import InitVar, dataclass
from functools import partial

import numpy as np

from .errors import SolverError
from .linalg import frobenius, matmul, matrix_of
from .precond import _check_shift, apply_preconditioner
from .propagation import (PropagationPlan, PropagationResult, _chebyshev_steps, _check_tau,
                          plan_propagations, rk4_propagate)

ORACLE_MAX_N = 20


@dataclass(frozen=True)
class TdsProblem:
    """Single-delay time-delay system data (A0, A1, tau, W), optionally B0, C0.

    W is the symmetric cost matrix of the associated delay Lyapunov equation.
    tau = 0 is accepted and means zero-length propagation, which reduces the
    equation to the standard Lyapunov equation for A0 + A1.
    """

    A0: np.ndarray
    A1: np.ndarray
    tau: float
    W: np.ndarray
    B0: np.ndarray = None
    C0: np.ndarray = None

    def __post_init__(self):
        """Check every matrix for realness, shape and finiteness and store it
        as float64; B0 must be 2-D with n rows and C0 2-D with n columns."""
        arrays = {}
        for name in ("A0", "A1", "W", "B0", "C0"):
            M = getattr(self, name)
            if M is None and name in ("B0", "C0"):
                continue
            if np.iscomplexobj(M):
                raise ValueError(f"{name} must be real")
            arrays[name] = np.asarray(M, dtype=float)
        A0 = arrays["A0"]
        n = A0.shape[0] if A0.ndim else 0
        if n == 0:
            raise ValueError(f"A0 must be n x n with n >= 1, got {A0.shape}")
        for name, M in arrays.items():
            if name in ("B0", "C0"):
                axis, what = (0, "rows") if name == "B0" else (1, "columns")
                if M.ndim != 2 or M.shape[axis] != n:
                    raise ValueError(f"{name} must have n {what} (2-D, n = {n}), got {M.shape}")
            elif M.ndim != 2 or M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} has non-finite entries")
        _check_tau(self.tau)
        W = arrays["W"]
        defect = frobenius(W - W.T)
        if defect > 1e-12 * max(frobenius(W), 1e-300):
            raise ValueError(f"W must be symmetric; defect {defect:.3g}")
        for name, M in arrays.items():
            object.__setattr__(self, name, M)

    @property
    def n(self):
        return self.A0.shape[0]


@dataclass(frozen=True)
class OperatorContext:
    """Problem plus the propagation plan: the realized (discretized) operator.

    Every apply, residual and reconstruction of this context runs ``plan``;
    without one, the one planner's default plan is made once, at
    construction.  Pass ``plan_propagations(A0, A1, tau, cfg)[0]``, or
    ``SolveReport.plan`` of an earlier solve, for any other;
    ``SolveReport.krylov_plan`` gives the operator its Krylov solves applied.
    ``shift`` is not stored; any value but the constant c = 1 raises.
    """

    problem: TdsProblem
    shift: InitVar[float] = 1.0
    plan: PropagationPlan = None

    def __post_init__(self, shift):
        _check_shift(shift)
        if self.plan is None:
            p = self.problem
            object.__setattr__(self, "plan", plan_propagations(p.A0, p.A1, p.tau)[0])


def apply_operator(ctx, X, *, return_pair=False):
    """Apply the delay Lyapunov operator to X, n x n or a batch (..., n, n).

    Propagates the coupled pair from X and evaluates

        Z2^T (A0 - I) + (A0^T + I) Z2 + Z1^T A1 + A1^T Z1

    at t = tau/2.  The propagation runs the context's fixed Taylor plan
    with no data-dependent stopping, so the realized operator is exactly
    linear in X.  With ``return_pair`` it returns (value, pair), pair being
    the terminal ``PropagationResult`` the value was read from.  The map
    X -> pair is linear too, so the pair of a combination of a batch's
    matrices is the same combination of their pairs.
    """
    p = ctx.problem
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (p.n, p.n):
        raise ValueError(f"X must be (..., {p.n}, {p.n}), got {X.shape}")
    pair = rk4_propagate(p.A0, p.A1, X, p.tau, plan=ctx.plan)
    value = combine_pair(ctx, pair)
    return (value, pair) if return_pair else value


def combine_pair(ctx, pair):
    """The operator's value from the terminal pair propagated from its argument."""
    A0, A1 = ctx.problem.A0, ctx.problem.A1
    Z1, Z2 = pair.Z1_end, pair.Z2_end
    I = np.eye(A0.shape[0])
    return (matmul(Z2.swapaxes(-1, -2), A0 - I) + matmul(A0.T + I, Z2)
            + matmul(Z1.swapaxes(-1, -2), A1) + matmul(A1.T, Z1))


def assemble_operator(ctx):
    """Dense n^2 x n^2 matrix A of the operator, A vec(X) = vec(apply(X)).

    Built by :func:`delaylyap.linalg.matrix_of`: one batched apply on all
    n^2 unit matrices.  Raises as :func:`_check_dense_cap`.
    """
    n = ctx.problem.n
    _check_dense_cap(n)
    return matrix_of(partial(apply_operator, ctx), n)


def preconditioned_spectrum(ctx, factors):
    """Eigenvalues of the preconditioned operator, assembled densely.

    Builds the n^2 x n^2 matrix of X -> apply_preconditioner(apply_operator(X))
    by :func:`delaylyap.linalg.matrix_of` (one batched operator apply, then
    the preconditioner on each of its n^2 results) and returns its
    eigenvalue multiset (sorted by real part, then imaginary, for
    reproducible output).  Raises as :func:`_check_dense_cap`.
    """
    n = ctx.problem.n
    _check_dense_cap(n)
    PA = matrix_of(lambda X: np.stack([apply_preconditioner(factors, Y)
                                       for Y in apply_operator(ctx, X)]), n)
    ev = np.linalg.eigvals(PA)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def _check_dense_cap(n):
    """Raise ``SolverError("oracle-too-large")`` above n = ``ORACLE_MAX_N``."""
    if n > ORACLE_MAX_N:
        raise SolverError("oracle-too-large", f"n={n} exceeds the dense cap {ORACLE_MAX_N}")


def reconstruct_solution(ctx, X, samples):
    """Sample the delay Lyapunov matrix on a uniform grid of [-tau, tau].

    X must be the converged midpoint value; the curve is read off the
    propagated pair as

        U(t) = Z2(tau/2 - t)   for 0 <= t < tau/2,
        U(t) = Z1(t - tau/2)   for tau/2 <= t <= tau,
        U(t) = U(-t)^T         for t < 0.

    With N samples and M = N - 1, sample i sits at t_i = -tau + 2 tau i / M,
    and its propagation time ||t_i| - tau/2| is an integer multiple j_i of
    (tau/2)/M, with j_i = |2 |2i - M| - M|.  With g = gcd(j_i) and
    J = M / g, the pair is propagated once, by J r steps of length
    (tau/2)/(J r) and the context plan's degree m, r = ceil(s / J), so no
    step is longer than the plan's; sample i is read at step (j_i / g) r.
    At tau = 0 the steps have h = 0, so every t is +0.0 and every sample is
    a copy of X.  Returns a list of (t, U(t)) pairs in increasing t order;
    raises ``SolverError("exp-overflow")`` at the first step whose pair is
    not finite.
    """
    if samples < 3:
        raise ValueError("samples must be >= 3")
    p = ctx.problem
    X = np.asarray(X, dtype=float)
    ts = np.linspace(-p.tau, p.tau, samples)
    M = samples - 1
    a = [abs(2 * i - M) for i in range(samples)]  # |t_i| = a_i tau / M
    j = [abs(2 * ai - M) for ai in a]
    g = math.gcd(*j)
    J = M // g
    r = -(-ctx.plan.steps // J)
    at = [ji // g * r for ji in j]  # the step sample i is read at
    states = {0: PropagationResult(X, X)}
    steps = _chebyshev_steps(p.A0, p.A1, X, 0.5 * p.tau / (J * r), ctx.plan.degree, J * r)
    with np.errstate(over="ignore", invalid="ignore"):
        states.update((k, pair) for k, pair in enumerate(steps, 1) if k in at)

    out = []
    for t, ai, k in zip(ts, a, at):
        U = states[k].Z2_end if 2 * ai < M else states[k].Z1_end
        out.append((float(t), U.T.copy() if t < 0 else U.copy()))
    return out


def boundary_residuals(problem, U0, Utau):
    """Relative algebraic residual and symmetry defect of the boundary values.

    r_alg = ||W + U0 A0 + A0^T U0 + Utau^T A1 + A1^T Utau||_F / ||W||_F
    r_sym = ||U0 - U0^T||_F / max(1, ||U0||_F)
    """
    A0, A1, W = problem.A0, problem.A1, problem.W
    R = W + matmul(U0, A0) + matmul(A0.T, U0) + matmul(Utau.T, A1) + matmul(A1.T, Utau)
    r_alg = frobenius(R) / max(frobenius(W), 1e-300)
    r_sym = frobenius(U0 - U0.T) / max(1.0, frobenius(U0))
    return r_alg, r_sym
