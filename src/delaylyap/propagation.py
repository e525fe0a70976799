"""Propagation of the coupled matrix initial-value problem.

Starting from Z1(0) = Z2(0) = X, the pair evolves on [0, tau/2] under

    Z1' =  Z1 A0 + Z2^T A1,
    Z2' = -Z1^T A1 - Z2 A0,

and only the terminal values are needed by the linear operator.  The state
is one array Z of shape (..., 2, n, n) with Z1 = Z[..., 0, :, :] and
Z2 = Z[..., 1, :, :]; leading axes, when present, are a batch of independent
states, each propagated as if alone.  The system
is linear and autonomous with generator G, so the terminal pair is
exp((tau/2) G) applied to (X, X).  It is computed by one truncated Taylor
loop: s steps of length h = (tau/2)/s, each adding the terms
(h^j / j!) G^j Z for j = 1..m, one right-hand-side evaluation per term.
The plan (m, s) is fixed per problem, before any X is seen -- from the
Al-Mohy & Higham (2011) bound for a double-precision target, or as
(4, steps), which is classic RK4 -- and the loop never stops early, so every
propagation is the same polynomial in G and the discretized operator stays
exactly linear.  The dense exponential of the vectorized generator serves as
a small-size oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .linalg import expm, kron, unvec, vec

EXACT_MAX_N = 12
RK4_DEGREE = 4      # degree-4 Taylor steps of a linear autonomous ODE are classic RK4
PLAN_TOL = 2.0 ** -53
PLAN_SEED = 0       # onenormest draws its start vectors from the global NumPy RNG


@dataclass(frozen=True)
class OdeConfig:
    """Integrator configuration.

    ``steps=None`` (the default) plans the Taylor degree and step count from
    the generator's norms for a double-precision target; ``steps=N`` runs N
    uniform classic RK4 steps on [0, tau/2].
    """

    steps: int = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class PropagationPlan:
    """Taylor degree and step count of one propagation over [0, tau/2]."""

    degree: int
    steps: int

    @property
    def rhs_evals(self):
        """Right-hand-side evaluations per propagation over [0, tau/2]."""
        return self.degree * self.steps


@dataclass(frozen=True)
class PropagationResult:
    """Terminal values of the coupled pair at t = tau/2."""

    Z1_end: np.ndarray
    Z2_end: np.ndarray


def coupled_rhs(Z, A0, A1):
    """Right-hand side [Z1 A0 + Z2^T A1, -Z1^T A1 - Z2 A0] of the state Z, shaped like Z."""
    n = A0.shape[0]
    if Z.shape[-3:] != (2, n, n) or A0.shape != (n, n) or A1.shape != (n, n):
        raise ValueError("Z must be (..., 2, n, n) with A0, A1 n x n")
    return _rhs(Z, A0, A1)


_SIGN = np.array([1.0, -1.0])[:, None, None]


def _rhs(Z, A0, A1):
    # coupled_rhs without the shape check; the planner's operator calls it,
    # so coupled_rhs is called only for propagation terms.
    return (Z @ A0 + Z[..., ::-1, :, :].swapaxes(-1, -2) @ A1) * _SIGN


def plan_propagation(A0, A1, tau, cfg=None):
    """Choose the Taylor degree m and step count s for a propagation to tau/2.

    With ``cfg.steps`` set the plan is (4, steps), classic RK4.  Otherwise
    (m, s) minimizes m * s subject to the Al-Mohy & Higham (2011) backward
    error bound 2^-53, using the exact 1-norm ||G||_1 = ||A0||_inf +
    ||A1||_inf and estimates of ||G^p||_1^(1/p) from ``onenormest`` on a
    matrix-free operator (O(n^2) memory).  The estimate runs under a fixed
    seed and restores the caller's global NumPy RNG state, so the plan
    depends only on (A0, A1, tau).
    """
    cfg = cfg or OdeConfig()
    if cfg.steps is not None:
        return PropagationPlan(RK4_DEGREE, cfg.steps)
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    t = 0.5 * tau
    # A unit matrix in Z1 or Z2 maps to one row of A0 plus one row of A1.
    norm1 = t * (np.abs(A0).sum(axis=1).max() + np.abs(A1).sum(axis=1).max())
    if norm1 == 0.0:
        return PropagationPlan(0, 1)
    # Imported here, so that the preconditioner-only paths, which plan no
    # propagation, do not load scipy.sparse.linalg (about 2 MB resident).
    from scipy.sparse.linalg._expm_multiply import LazyOperatorNormInfo, _fragment_3_1

    saved = np.random.get_state()
    np.random.seed(PLAN_SEED)
    try:
        info = LazyOperatorNormInfo(_generator_operator(A0, A1, t), A_1_norm=norm1)
        m, s = _fragment_3_1(info, 1, PLAN_TOL)
    finally:
        np.random.set_state(saved)
    return PropagationPlan(int(m), int(s))


def _generator_operator(A0, A1, t):
    """t G as a LinearOperator on the raveled state Z.ravel()."""
    from scipy.sparse.linalg import LinearOperator

    n = A0.shape[0]

    def matvec(v):
        return t * _rhs(v.reshape(2, n, n), A0, A1).ravel()

    def rmatvec(v):
        W = v.reshape(2, n, n)
        return t * (_SIGN * (W @ A0.T - (A1 @ W.swapaxes(-1, -2))[::-1])).ravel()

    return LinearOperator((2 * n * n, 2 * n * n), matvec=matvec, rmatvec=rmatvec,
                          dtype=float)


def taylor_steps(A0, A1, Z, h, degree, steps):
    """Advance the state Z (shape (..., 2, n, n)) by ``steps`` Taylor steps of length h.

    Each step adds (h^j / j!) G^j Z for j = 1..degree, every term one
    ``coupled_rhs`` call.  The input is not modified.
    """
    Z = np.array(Z, dtype=float)
    for _ in range(steps):
        B = Z
        for j in range(1, degree + 1):
            B = coupled_rhs(B, A0, A1)
            B *= h / j
            Z += B
    return Z


def rk4_propagate(A0, A1, X, tau, cfg=None, plan=None):
    """Propagate Z1, Z2 from the common initial value X to t = tau/2.

    X is n x n or a batch (..., n, n).  Runs the Taylor loop of ``plan``
    (made from ``cfg`` by ``plan_propagation`` when not given).  The map
    X -> (Z1_end, Z2_end) is linear, since every step applies the same fixed
    polynomial in G.  tau = 0 is accepted and returns (X, X).  The name is
    kept because it is the package's one propagation entry point, and
    ``OdeConfig(steps=N)`` still makes it classic RK4.
    """
    X = np.asarray(X, dtype=float)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return PropagationResult(X.copy(), X.copy())
    plan = plan or plan_propagation(A0, A1, tau, cfg)
    h = (0.5 * tau) / plan.steps
    Z = taylor_steps(A0, A1, np.stack((X, X), axis=-3), h, plan.degree, plan.steps)
    return PropagationResult(Z[..., 0, :, :], Z[..., 1, :, :])


def coupled_generator(A0, A1):
    """The 2n^2 x 2n^2 generator of the vectorized coupled system.

    Acts on [vec Z1; vec Z2^T] with blocks
    [[A0^T (x) I, A1^T (x) I], [-I (x) A1^T, -I (x) A0^T]].
    """
    n = A0.shape[0]
    I = np.eye(n)
    top = np.hstack([kron(A0.T, I), kron(A1.T, I)])
    bot = np.hstack([-kron(I, A1.T), -kron(I, A0.T)])
    return np.vstack([top, bot])


def exact_propagate(A0, A1, X, tau):
    """Terminal pair via the dense exponential of the vectorized generator.

    Exact up to the matrix exponential; intended as an oracle for small n
    since the generator is 2n^2 x 2n^2.

    Raises
    ------
    SolverError
        ``"oracle-too-large"`` when n exceeds ``EXACT_MAX_N``.
    """
    A0 = np.asarray(A0, dtype=float)
    X = np.asarray(X, dtype=float)
    n = A0.shape[0]
    if n > EXACT_MAX_N:
        raise SolverError("oracle-too-large", f"n={n} exceeds the dense cap {EXACT_MAX_N}")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    G = coupled_generator(A0, A1)
    state = np.concatenate([vec(X), vec(X.T)])
    out = expm((0.5 * tau) * G) @ state
    Z1 = unvec(out[: n * n], n)
    Z2 = unvec(out[n * n:], n).T
    return PropagationResult(Z1, Z2)
