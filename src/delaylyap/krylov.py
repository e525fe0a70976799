"""Matrix-free GMRES on the space of n x n matrices.

The kernel works with the trace (Frobenius) inner product, takes the
operator and optional left preconditioner as callables on matrices, starts
from the zero initial guess, and returns X, the relative preconditioned
residual history with its wall-time stamps, the counts and its Arnoldi
relation (:class:`KrylovResult`); a caller that wants operator or
preconditioner time times its own callables.  GMRES is full
(non-restarted) with classical Gram-Schmidt applied twice (CGS2, which
keeps the basis orthonormal to working precision) and Givens-rotation
least-squares updates.  A later GMRES solve with the same operator and
preconditioner can take the returned relation as a fixed recycled space
(GCRO; de Sturler 1999, Parks et al. 2006), so that it iterates only on
what the earlier space does not capture.  The norms and inner products the
kernel forms are checked: one that overflows raises ``"krylov-nonfinite"``
instead of a NumPy warning.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverError
from .linalg import matmul, norm

_TINY = 1e-300
_BASIS_INITIAL_ROWS = 32


@dataclass(frozen=True)
class KrylovConfig:
    """Settings of a GMRES solve.

    ``tol``, in (0, 1), is the relative preconditioned residual at which a
    solve stops.  ``maxit``, an integer >= 1, caps the iterations;
    ``maxit=None`` lets the caller default to n^2, the dimension bound of
    the matrix space.
    """

    tol: float = 1e-12
    maxit: int = None

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.maxit is not None and (not isinstance(self.maxit, numbers.Integral)
                                       or self.maxit < 1):
            raise ValueError(f"maxit must be an integer >= 1, got {self.maxit!r}")


def _rotate(t, cs, sn):
    """Apply the Givens rotations (cs[i], sn[i]) to t[i], t[i + 1] in place, i ascending.

    The scalar loop runs on Python floats (``cs`` and ``sn`` hold floats), a
    few times faster than on NumPy scalars and with the same rounding.
    """
    u = t.tolist()
    for i, (c, s) in enumerate(zip(cs, sn)):
        u[i], u[i + 1] = c * u[i] + s * u[i + 1], -s * u[i] + c * u[i + 1]
    t[:] = u


@dataclass(frozen=True)
class ArnoldiRelation:
    """The Arnoldi relation K V_k = V_{k+1} Hbar_k of a GMRES solve, with K
    the preconditioned operator, kept in the factored form Hbar_k = Q_k R_k
    that the solve's Givens rotations give.

    ``V`` holds the k + 1 basis vectors as rows, ``R`` the k x k upper
    triangle, and ``cs``, ``sn`` the k rotations.  C = V_{k+1} Q_k has
    orthonormal columns and U = V_k R_k^-1 satisfies K U = C.  Neither is
    formed: a product with C, C^T or U costs O(k n^2) and allocates one
    vector.  k = 0, a single zero row and no rotations, is the empty space.
    """

    V: np.ndarray
    R: np.ndarray
    cs: np.ndarray
    sn: np.ndarray

    @classmethod
    def empty(cls, size):
        """The k = 0 relation on vectors of length ``size``: C and U have no columns."""
        return cls(np.zeros((1, size)), np.zeros((0, 0)), np.zeros(0), np.zeros(0))

    def ct(self, w):
        """C^T w: the rotations applied to V_{k+1} w (an empty vector when k = 0)."""
        if not self.cs.size:
            return np.zeros(0)
        t = matmul(self.V, w)
        _rotate(t, self.cs.tolist(), self.sn.tolist())
        return t[:-1]

    def c(self, y):
        """C y: the transposed rotations, in reverse, applied to (y, 0), times
        V_{k+1}; the scalar 0.0, which broadcasts as the zero vector, when k = 0."""
        if not self.cs.size:
            return 0.0
        t = y.tolist() + [0.0]
        cs, sn = self.cs.tolist(), self.sn.tolist()
        for i in reversed(range(len(cs))):
            c, s = cs[i], sn[i]
            t[i], t[i + 1] = c * t[i] - s * t[i + 1], s * t[i] + c * t[i + 1]
        return matmul(np.array(t), self.V)

    def u(self, z):
        """U z: R_k^-1 z times V_k."""
        return matmul(scipy.linalg.solve_triangular(self.R, z, lower=False), self.V[:-1])


@dataclass(frozen=True)
class KrylovResult:
    """Outcome of one Krylov kernel solve.

    ``residual_history`` has one entry per iteration plus the initial one,
    1.0 unless a recycled space already reduces the residual; for GMRES it
    is non-increasing.  ``iteration_seconds`` holds, for each history entry,
    the ``perf_counter`` time elapsed since the solve started when that
    entry was recorded.  ``relation`` is the solve's Arnoldi relation;
    None on a result the driver builds without a Krylov solve.
    """

    X: np.ndarray
    residual_history: list
    iteration_seconds: list
    iterations: int
    converged: bool
    relation: ArnoldiRelation = None


def _finite(out, name):
    out = np.asarray(out).flatten()
    if not np.all(np.isfinite(out)):
        raise SolverError("krylov-nonfinite", f"{name} returned non-finite entries")
    return out


def _require_finite(iteration, *named):
    """Raise ``"krylov-nonfinite"`` naming the first (name, value) pair with a
    non-finite entry; the values come from BLAS, which warns of nothing, or
    are computed under ``np.errstate``, so an overflow surfaces here and not
    as a NumPy warning.  The values are scalars or 1-D arrays, tested by one
    ``isfinite`` over all of them; the names are searched only when that
    test fails."""
    values = np.concatenate([v if getattr(v, "ndim", 0) else (v,) for _, v in named])
    if np.isfinite(values).all():
        return
    for name, value in named:
        if not np.isfinite(value).all():
            raise SolverError("krylov-nonfinite",
                              f"{name} is not finite at iteration {iteration}")


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


def gmres(op, b, precond=None, cfg=None, recycle=None):
    """Full GMRES for op(X) = b over n x n matrices, optionally recycling the
    Arnoldi relation of an earlier solve (GCRO with a fixed space).

    Each new Arnoldi vector is orthogonalized against the recycled space C
    and the basis by classical Gram-Schmidt applied twice (CGS2), each pass
    two matrix-vector products.  With K = P^-1 op and c = P^-1 b, the solve
    starts from x0 = U C^T c, whose residual (I - C C^T) c is orthogonal to
    C, runs Arnoldi on (I - C C^T) K, keeps B = C^T K W for the basis W,
    and returns x = x0 + W y - U B y, where y is the usual GMRES
    least-squares solution.  Convergence is measured against |c| as
    without a recycled space, so zero new iterations is a converged solve
    when C already holds the solution.

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
    recycle : ArnoldiRelation, optional
        ``KrylovResult.relation`` of an earlier GMRES solve with the same op
        and precond; None recycles nothing (the empty space, k = 0).

    Returns
    -------
    KrylovResult
        ``iterations`` counts new Arnoldi iterations.  ``relation`` is the
        Arnoldi relation of this solve, of K itself when nothing was
        recycled and of the projected (I - C C^T) K otherwise; its basis
        rows include the last vector v_{k+1}.

    Raises
    ------
    SolverError
        ``"krylov-breakdown"`` when an Arnoldi vector vanishes while the
        residual is still above tolerance (a vanishing vector at tolerance is
        the happy breakdown and returns the exact solution);
        ``"krylov-nonfinite"`` when the operator or the preconditioner
        returns a NaN or infinite entry, or a norm, projection or rotation
        of the kernel overflows.
    """
    cfg = cfg or KrylovConfig()
    b = np.asarray(b, dtype=float)
    shape = b.shape
    maxit = cfg.maxit or b.size
    t_start = time.perf_counter()
    operator, preconditioner = _wrap(op, precond, shape)
    space = recycle if recycle is not None else ArnoldiRelation.empty(b.size)

    r0 = preconditioner(b.ravel().copy())
    with np.errstate(over="ignore", invalid="ignore"):
        bnorm = norm(r0)
        z = 0.0  # C^T c, so that x0 = U z
        for _ in range(2):  # CGS2 against C
            t = space.ct(r0)
            r0 -= space.c(t)
            z = z + t
        beta = norm(r0)
    _require_finite(0, ("norm of the preconditioned right-hand side", bnorm),
                    ("projection onto the recycled space", z),
                    ("initial residual norm", beta))
    if bnorm == 0.0:
        raise ValueError("right-hand side is zero")

    # The rotated Hessenberg columns grow one iteration at a time and the
    # basis doubles its rows when full; nothing is sized by maxit, which
    # defaults to n^2.
    V = np.empty((min(maxit + 1, _BASIS_INITIAL_ROWS), r0.size))
    V[0] = r0 / beta if beta > 0.0 else 0.0
    R = []
    B = []
    cs = []
    sn = []
    g = [beta]
    history = [beta / bnorm]
    stamps = [time.perf_counter() - t_start]
    iterations = 0
    converged = history[0] <= cfg.tol

    while not converged and iterations < maxit:
        j = iterations
        w = preconditioner(operator(V[j]))
        basis = V[:j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            hc = h = 0.0
            for _ in range(2):  # CGS2 against C and the basis
                hc_pass, h_pass = space.ct(w), matmul(basis, w)
                w -= space.c(hc_pass) + matmul(h_pass, basis)
                hc, h = hc + hc_pass, h + h_pass
            h_new = norm(w)
            _rotate(h, cs, sn)
            d = np.hypot(h[j], h_new)
        _require_finite(j + 1, ("projection onto the recycled space", hc),
                        ("Hessenberg column", h), ("Arnoldi norm", h_new),
                        ("Givens norm", d))
        if d == 0.0:  # a zero Hessenberg column: no rotation, the residual cannot move
            raise SolverError("krylov-breakdown", f"zero Hessenberg column at iteration {j + 1}")
        cs.append(float(h[j] / d))
        sn.append(float(h_new / d))
        h[j] = d
        R.append(h)
        B.append(hc)
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]
        relres = abs(g[j + 1]) / bnorm
        history.append(relres)
        stamps.append(time.perf_counter() - t_start)
        iterations = j + 1
        converged = relres <= cfg.tol
        if not converged and h_new <= _TINY:
            raise SolverError(
                "krylov-breakdown",
                f"Arnoldi vector vanished at iteration {j + 1} "
                f"with residual {relres:.3g} above tolerance",
            )
        # stored on convergence too: the relation needs v_{k+1}
        if j + 1 == V.shape[0]:
            grow = min(j + 1, maxit - j)
            V = np.concatenate([V, np.empty((grow, V.shape[1]))])
        V[j + 1] = w / h_new if h_new > _TINY else 0.0

    m = iterations
    H = np.zeros((m, m))
    for j in range(m):
        H[:j + 1, j] = R[j]
    y = scipy.linalg.solve_triangular(H, g[:m], lower=False)
    x = matmul(y, V[:m]) + space.u(z - matmul(np.reshape(B, (m, len(space.cs))).T, y))
    return KrylovResult(
        X=x.reshape(shape),
        residual_history=history,
        iteration_seconds=stamps,
        iterations=iterations,
        converged=converged,
        relation=ArnoldiRelation(V[:m + 1], H, np.array(cs), np.array(sn)),
    )
