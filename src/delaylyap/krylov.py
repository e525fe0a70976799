"""Matrix-free iterative solvers on the space of n x n matrices.

Both solvers work with the trace (Frobenius) inner product, take the operator
and optional left preconditioner as callables on matrices, start from the
zero initial guess, and report the relative preconditioned residual history.
The kernels time only themselves (total and per-iteration wall time); a
caller that wants operator or preconditioner time times its own callables.
GMRES is full (non-restarted) with classical Gram-Schmidt applied twice
(CGS2, which keeps the basis orthonormal to working precision) and
Givens-rotation least-squares updates.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SolverError

_TINY = 1e-300
_BASIS_INITIAL_ROWS = 32


@dataclass(frozen=True)
class KrylovConfig:
    """Iterative-solver settings.

    ``maxit=None`` lets the caller default to n^2, the dimension bound of
    the matrix space.
    """

    method: str = "gmres"
    tol: float = 1e-12
    maxit: int = None

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.maxit is not None and self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if self.method not in ("gmres", "bicgstab"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class SolveTimings:
    """Wall seconds of one solve.  In a ``solve_delay_lyapunov`` report, setup
    is the preconditioner build plus the propagation plan, apply every
    propagation the driver makes, precond every preconditioner apply, and
    total the whole solve; a Krylov kernel fills in only its own total."""

    setup_seconds: float = 0.0
    apply_seconds: float = 0.0
    precond_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class SolveReport:
    """Outcome of one iterative solve.

    ``residual_history`` has one entry per iteration plus the initial 1.0;
    for GMRES it is non-increasing.  ``iteration_seconds`` holds, for each
    history entry, the ``perf_counter`` time elapsed since the solve started
    when that entry was recorded.  The propagation plan and the
    boundary-value residuals are filled in by ``solve_delay_lyapunov``, not
    by the Krylov kernels.
    """

    X: np.ndarray
    residual_history: list
    iteration_seconds: list
    iterations: int
    converged: bool
    method: str
    timings: SolveTimings = field(default_factory=SolveTimings)
    plan: object = None
    r_alg: float = None
    r_sym: float = None
    refinement_passes: int = 0
    refinement_iterations: int = 0
    basis: list = None


def _finite(out, name):
    out = np.asarray(out).flatten()
    if not np.all(np.isfinite(out)):
        raise SolverError("krylov-nonfinite", f"{name} returned non-finite entries")
    return out


def _wrap(op, precond, shape):
    """Flatten matrix callables to vector callables, untimed: callers time their own.

    The outputs are copies, so a callable that returns its input (or a view
    of it) cannot alias the caller's basis vectors.  A non-finite output
    raises ``"krylov-nonfinite"`` at once instead of iterating on NaN.
    """

    def operator(v):
        return _finite(op(v.reshape(shape)), "operator")

    if precond is None:
        return operator, lambda v: v

    def preconditioner(v):
        return _finite(precond(v.reshape(shape)), "preconditioner")

    return operator, preconditioner


def gmres(op, b, precond=None, cfg=None, collect_basis=False):
    """Full GMRES for op(X) = b over n x n matrices.

    Each new Arnoldi vector is orthogonalized against the basis by classical
    Gram-Schmidt applied twice (CGS2), each pass two matrix-vector products.

    Parameters
    ----------
    op : callable
        Linear map on n x n matrices.
    b : (n, n) array
        Nonzero right-hand side.
    precond : callable, optional
        Left preconditioner applied to the operator output and to b;
        convergence is measured in the preconditioned residual norm.
    cfg : KrylovConfig
    collect_basis : bool
        Keep the Arnoldi basis on the report (diagnostics only).

    Raises
    ------
    SolverError
        ``"krylov-breakdown"`` when an Arnoldi vector vanishes while the
        residual is still above tolerance (a vanishing vector at tolerance is
        the happy breakdown and returns the exact solution);
        ``"krylov-nonfinite"`` when the operator or the preconditioner
        returns a NaN or infinite entry.
    """
    cfg = cfg or KrylovConfig()
    b = np.asarray(b, dtype=float)
    shape = b.shape
    maxit = cfg.maxit or b.size
    t_start = time.perf_counter()
    operator, preconditioner = _wrap(op, precond, shape)

    r0 = preconditioner(b.ravel().copy())
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        raise ValueError("right-hand side is zero")

    # The rotated Hessenberg columns grow one iteration at a time and the
    # basis doubles its rows when full; nothing is sized by maxit, which
    # defaults to n^2.
    V = np.empty((min(maxit + 1, _BASIS_INITIAL_ROWS), r0.size))
    V[0] = r0 / beta
    filled = 1
    R = []
    cs = []
    sn = []
    g = [beta]
    history = [1.0]
    stamps = [time.perf_counter() - t_start]
    iterations = maxit
    converged = False

    for j in range(maxit):
        w = preconditioner(operator(V[j]))
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        h_new = np.linalg.norm(w)
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
        d = np.hypot(h[j], h_new)
        if d == 0.0:  # a zero Hessenberg column: no rotation, the residual cannot move
            raise SolverError("krylov-breakdown", f"zero Hessenberg column at iteration {j + 1}")
        cs.append(h[j] / d)
        sn.append(h_new / d)
        h[j] = d
        R.append(h)
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]
        relres = abs(g[j + 1]) / beta
        history.append(relres)
        stamps.append(time.perf_counter() - t_start)
        if relres <= cfg.tol:
            iterations = j + 1
            converged = True
            break
        if h_new <= _TINY:
            raise SolverError(
                "krylov-breakdown",
                f"Arnoldi vector vanished at iteration {j + 1} "
                f"with residual {relres:.3g} above tolerance",
            )
        if filled == V.shape[0]:
            grow = min(filled, maxit + 1 - filled)
            V = np.concatenate([V, np.empty((grow, V.shape[1]))])
        V[j + 1] = w / h_new
        filled += 1
    else:
        iterations = maxit

    m = iterations
    H = np.zeros((m, m))
    for j in range(m):
        H[:j + 1, j] = R[j]
    y = scipy.linalg.solve_triangular(H, g[:m], lower=False)
    x = y @ V[:m]
    return SolveReport(
        X=x.reshape(shape),
        residual_history=history,
        iteration_seconds=stamps,
        iterations=iterations,
        converged=converged,
        method="gmres",
        timings=SolveTimings(total_seconds=time.perf_counter() - t_start),
        basis=[v.reshape(shape) for v in V[:filled]] if collect_basis else None,
    )


def bicgstab(op, b, precond=None, cfg=None):
    """BiCGStab for op(X) = b over n x n matrices.

    Same calling convention as :func:`gmres`.  The stabilization parameters
    breaking down (rho or omega vanishing) raises ``"bicgstab-breakdown"``;
    a non-finite operator or preconditioner output raises
    ``"krylov-nonfinite"`` as in :func:`gmres`.
    """
    cfg = cfg or KrylovConfig(method="bicgstab")
    b = np.asarray(b, dtype=float)
    shape = b.shape
    maxit = cfg.maxit or b.size
    t_start = time.perf_counter()
    operator, preconditioner = _wrap(op, precond, shape)

    def K(v):
        return preconditioner(operator(v))

    r = preconditioner(b.ravel().copy())
    nb = np.linalg.norm(r)
    if nb == 0.0:
        raise ValueError("right-hand side is zero")
    x = np.zeros_like(r)
    r_shadow = r.copy()
    rho = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    history = [1.0]
    stamps = [time.perf_counter() - t_start]
    converged = False
    iterations = 0

    for j in range(1, maxit + 1):
        rho_new = r_shadow @ r
        if abs(rho_new) <= _TINY or abs(omega) <= _TINY:
            raise SolverError(
                "bicgstab-breakdown",
                f"rho={rho_new:.3g}, omega={omega:.3g} at iteration {j}",
            )
        if j == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        v = K(p)
        denom = r_shadow @ v
        if abs(denom) <= _TINY:
            raise SolverError("bicgstab-breakdown", f"<r0, v> = {denom:.3g} at iteration {j}")
        alpha = rho / denom
        s = r - alpha * v
        iterations = j
        if np.linalg.norm(s) / nb <= cfg.tol:
            x += alpha * p
            history.append(np.linalg.norm(s) / nb)
            stamps.append(time.perf_counter() - t_start)
            converged = True
            break
        t = K(s)
        tt = t @ t
        if tt <= _TINY:
            raise SolverError("bicgstab-breakdown", f"||t|| = 0 at iteration {j}")
        omega = (t @ s) / tt
        x += alpha * p + omega * s
        r = s - omega * t
        relres = np.linalg.norm(r) / nb
        history.append(relres)
        stamps.append(time.perf_counter() - t_start)
        if relres <= cfg.tol:
            converged = True
            break

    return SolveReport(
        X=x.reshape(shape),
        residual_history=history,
        iteration_seconds=stamps,
        iterations=iterations,
        converged=converged,
        method="bicgstab",
        timings=SolveTimings(total_seconds=time.perf_counter() - t_start),
    )
