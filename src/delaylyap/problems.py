"""Reference problem generators.

Two families: a fixed 4x4 system with a tunable diagonal delay coupling, and
the finite-difference semi-discretization of a damped 2D wave equation with
delayed convective feedback on the unit square.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .operators import TdsProblem


def tridiag(n, lo, diag, hi):
    """Constant tridiagonal matrix with the given sub/main/super values."""
    M = diag * np.eye(n)
    if n > 1:
        M += lo * np.diag(np.ones(n - 1), -1) + hi * np.diag(np.ones(n - 1), 1)
    return M


@dataclass(frozen=True)
class SmallExample:
    """The fixed 4x4 benchmark problem with coupling strength alpha."""

    problem: TdsProblem
    alpha: float


@dataclass(frozen=True)
class PddeSystem:
    """Semi-discretized wave system with n = 2 nx ny states."""

    problem: TdsProblem
    nx: int
    ny: int
    f0: float
    hx: float
    hy: float

    @property
    def n(self):
        return self.problem.n


_SMALL_A0 = np.array([
    [-26.0, 22.0, -1.0, -4.0],
    [2.0, -24.0, -4.0, 1.0],
    [7.0, 11.0, -24.0, -22.0],
    [-13.0, 15.0, -1.0, -9.0],
])


def small_example(alpha=1.0):
    """4x4 system with A1 = alpha * diag(-1, -0.5, 0, 0.5), W = I, tau = 1.

    Stable for coupling strengths up to about 10 (documented, not enforced).
    """
    A1 = alpha * np.diag([-1.0, -0.5, 0.0, 0.5])
    problem = TdsProblem(A0=_SMALL_A0.copy(), A1=A1, tau=1.0, W=np.eye(4))
    return SmallExample(problem=problem, alpha=float(alpha))


def pdde_generate(nx, ny, f0=5.0, tau=1.0):
    """Finite-difference discretization of the delayed-feedback wave equation.

    nx, ny interior points per direction (both odd, so the observation
    functional sits on the grid center); the feedback coefficient is
    f(x, y) = f0 cos(xy) sin(pi x) applied to the delayed x-derivative.

    Returns a PddeSystem whose problem carries W = C0^T C0 along with the
    input/output maps B0 and C0.

    Raises
    ------
    SolverError
        ``"grid-center-undefined"`` for even nx or ny.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    if nx % 2 == 0 or ny % 2 == 0:
        raise SolverError(
            "grid-center-undefined",
            f"odd grid sizes required for the centered observation, got {nx}x{ny}",
        )
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    Dxx = tridiag(nx, 1.0, -2.0, 1.0) / hx ** 2
    Dyy = tridiag(ny, 1.0, -2.0, 1.0) / hy ** 2
    Dx = tridiag(nx, -1.0, 0.0, 1.0) / (2.0 * hx)

    x = hx * np.arange(1, nx + 1)
    y = hy * np.arange(1, ny + 1)
    fgrid = f0 * np.cos(np.outer(x, y)) * np.sin(np.pi * x)[:, None]
    F = fgrid.flatten(order="F")  # x index fastest, matching I (x) Dxx

    m = nx * ny
    lap = np.kron(np.eye(ny), Dxx) + np.kron(Dyy, np.eye(nx))
    A0 = np.block([[np.zeros((m, m)), np.eye(m)], [lap, -np.eye(m)]])
    A1 = np.zeros((2 * m, 2 * m))
    A1[m:, :m] = F[:, None] * np.kron(np.eye(ny), Dx)

    B0 = np.zeros((2 * m, 1))
    B0[:m, 0] = 1.0
    ex = np.zeros(nx)
    ex[(nx + 1) // 2 - 1] = 1.0
    ey = np.zeros(ny)
    ey[(ny + 1) // 2 - 1] = 1.0
    C0 = np.zeros((1, 2 * m))
    C0[0, :m] = np.kron(ey, ex)

    problem = TdsProblem(A0=A0, A1=A1, tau=float(tau), W=C0.T @ C0, B0=B0, C0=C0)
    return PddeSystem(problem=problem, nx=nx, ny=ny, f0=float(f0), hx=hx, hy=hy)


def bench_table(rows, f0=5.0, tau=1.0, krylov=None):
    """Solve one PDDE instance per (nx, ny) row and tabulate the outcomes.

    Returns a list of dicts with keys n, seconds, iterations, r_alg, and
    error (empty on success).  Per-row failures are recorded, not raised.
    """
    from .solver import solve_delay_lyapunov

    out = []
    for nx, ny in rows:
        row = {"nx": nx, "ny": ny, "n": 2 * nx * ny, "seconds": float("nan"),
               "iterations": -1, "r_alg": float("nan"), "error": ""}
        t0 = time.perf_counter()
        try:
            system = pdde_generate(nx, ny, f0=f0, tau=tau)
            report = solve_delay_lyapunov(system.problem, krylov=krylov)
            row["seconds"] = time.perf_counter() - t0
            row["iterations"] = report.iterations
            row["r_alg"] = report.r_alg
            if not report.converged:
                row["error"] = "krylov-maxit"
        except SolverError as exc:
            row["seconds"] = time.perf_counter() - t0
            row["error"] = exc.code
        out.append(row)
    return out
