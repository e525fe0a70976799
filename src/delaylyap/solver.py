"""End-to-end driver: preconditioner setup, Krylov solve, boundary residuals.

The driver retries a degenerate shift with small perturbations, and runs
iterative refinement passes (a correction solve on the true residual) when
the boundary-value residuals of the converged iterate exceed the target.
Refinement never changes the reported main-solve iteration count.
"""

import time

import numpy as np

from .errors import SolverError
from .krylov import KrylovConfig, bicgstab, gmres
from .operators import OperatorContext, apply_operator, boundary_residuals
from .precond import apply_preconditioner, build_preconditioner
from .propagation import OdeConfig, rk4_propagate

SHIFT_RETRIES = 3
BV_TARGET = 1e-8
REFINE_MAX = 2


def solve_delay_lyapunov(problem, shift=1.0, ode=None, krylov=None,
                         bv_target=BV_TARGET, max_refinements=REFINE_MAX):
    """Solve the delay Lyapunov equation for the midpoint matrix U(tau/2).

    Parameters
    ----------
    problem : TdsProblem
    shift : float
        Nonzero shift of the operator; perturbed by 1e-8 ||A0||_F and
        retried (at most three times) if it collides with an eigenvalue.
    ode : OdeConfig
    krylov : KrylovConfig
    bv_target : float
        Boundary-value residual level that triggers a refinement pass.
    max_refinements : int
        Cap on correction solves appended after the main solve.

    Returns
    -------
    SolveReport
        With the solution X = U(tau/2), the main-solve residual history and
        iteration count, timings, the propagation plan every apply used, and
        the final boundary residuals r_alg, r_sym computed from the same
        fixed-plan propagation the operator used.
    """
    ode = ode or OdeConfig()
    krylov = krylov or KrylovConfig()
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    factors, shift_used = _setup_with_retry(problem.A0, shift, problem.tau)
    setup_seconds = time.perf_counter() - t0

    ctx = OperatorContext(problem=problem, shift=shift_used, ode=ode)

    def op(X):
        return apply_operator(ctx, X)

    def pc(X):
        return apply_preconditioner(factors, X)

    solve = gmres if krylov.method == "gmres" else bicgstab
    report = solve(op, -problem.W, precond=pc, cfg=krylov)
    report.timings.setup_seconds = setup_seconds
    report.plan = ctx.plan

    r_alg, r_sym = _residuals(ctx, report.X)
    if report.converged:
        passes = 0
        while (r_alg > bv_target or r_sym > bv_target) and passes < max_refinements:
            residual = -problem.W - apply_operator(ctx, report.X)
            correction = solve(op, residual, precond=pc, cfg=krylov)
            if not correction.converged:
                break
            report.X = report.X + correction.X
            report.refinement_passes += 1
            report.refinement_iterations += correction.iterations
            passes += 1
            r_alg, r_sym = _residuals(ctx, report.X)
    report.r_alg = r_alg
    report.r_sym = r_sym
    report.timings.total_seconds = time.perf_counter() - t_start
    return report


def _setup_with_retry(A0, shift, tau):
    scale = float(np.linalg.norm(A0, "fro"))
    current = shift
    for attempt in range(SHIFT_RETRIES + 1):
        try:
            return build_preconditioner(A0, shift=current, tau=tau), current
        except SolverError as exc:
            if exc.code != "precond-shift-degenerate" or attempt == SHIFT_RETRIES:
                raise
            current = current + 1e-8 * max(scale, 1.0)
    raise AssertionError("unreachable")


def _residuals(ctx, X):
    p = ctx.problem
    res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=ctx.plan)
    return boundary_residuals(p, res.Z2_end, res.Z1_end)
