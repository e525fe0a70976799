"""End-to-end driver: preconditioner setup, Krylov solve, boundary residuals.

The driver runs iterative refinement passes (a correction solve on the true
residual) when the boundary-value residuals of the converged iterate exceed
the target.  Refinement never changes the reported main-solve iteration
count.
"""

import time

from .krylov import KrylovConfig, bicgstab, gmres
from .operators import OperatorContext, apply_operator, boundary_residuals, combine_pair
from .precond import apply_preconditioner, build_preconditioner
from .propagation import OdeConfig, rk4_propagate

BV_TARGET = 1e-8
REFINE_MAX = 2


def solve_delay_lyapunov(problem, ode=None, krylov=None, max_refinements=REFINE_MAX):
    """Solve the delay Lyapunov equation for the midpoint matrix U(tau/2).

    The operator and its preconditioner use the shift c = 1.  There is no
    shift argument because c cancels: it scales only the antisymmetric part
    of both, L_c = D_c L_1 and P_c = D_c P_1 with D_c scaling the skew
    subspace by c, so P_c^-1 L_c = P_1^-1 L_1, and the right-hand side -W is
    symmetric.  A refinement pass runs while a boundary-value residual
    exceeds ``BV_TARGET``.

    Parameters
    ----------
    problem : TdsProblem
    ode : OdeConfig
    krylov : KrylovConfig
    max_refinements : int
        Cap on correction solves appended after the main solve.

    Returns
    -------
    SolveReport
        With the solution X = U(tau/2), the main-solve residual history and
        iteration count, timings (apply and preconditioner times include
        the refinement passes), the propagation plan every apply used, and
        the final boundary residuals r_alg, r_sym computed from the same
        fixed-plan propagation the operator used.
    """
    ode = ode or OdeConfig()
    krylov = krylov or KrylovConfig()
    t_start = time.perf_counter()
    factors = build_preconditioner(problem.A0, tau=problem.tau)
    setup_seconds = time.perf_counter() - t_start

    ctx = OperatorContext(problem=problem, ode=ode)

    def op(X):
        return apply_operator(ctx, X)

    def pc(X):
        return apply_preconditioner(factors, X)

    solve = gmres if krylov.method == "gmres" else bicgstab
    report = solve(op, -problem.W, precond=pc, cfg=krylov)
    report.timings.setup_seconds = setup_seconds
    report.plan = ctx.plan

    (r_alg, r_sym), pair, pair_seconds = _residuals(ctx, report.X)
    if report.converged:
        passes = 0
        while (r_alg > BV_TARGET or r_sym > BV_TARGET) and passes < max_refinements:
            # the true residual reuses the propagation of the boundary residuals
            t0 = time.perf_counter()
            residual = -problem.W - combine_pair(ctx, pair)
            report.timings.apply_seconds += pair_seconds + time.perf_counter() - t0
            correction = solve(op, residual, precond=pc, cfg=krylov)
            report.timings.apply_seconds += correction.timings.apply_seconds
            report.timings.precond_seconds += correction.timings.precond_seconds
            if not correction.converged:
                break
            report.X = report.X + correction.X
            report.refinement_passes += 1
            report.refinement_iterations += correction.iterations
            passes += 1
            (r_alg, r_sym), pair, pair_seconds = _residuals(ctx, report.X)
    report.r_alg = r_alg
    report.r_sym = r_sym
    report.timings.total_seconds = time.perf_counter() - t_start
    return report


def _residuals(ctx, X):
    """Boundary residuals of X, the terminal pair they were read from, and
    the seconds its propagation took."""
    p = ctx.problem
    t0 = time.perf_counter()
    pair = rk4_propagate(p.A0, p.A1, X, p.tau, plan=ctx.plan)
    seconds = time.perf_counter() - t0
    return boundary_residuals(p, pair.Z2_end, pair.Z1_end), pair, seconds
