"""End-to-end driver: preconditioner setup, Krylov solve, boundary residuals.

The driver runs iterative refinement passes (a correction solve on the true
residual) when the boundary-value residuals of the converged iterate exceed
the target.  A GMRES correction solve recycles the main solve's Krylov space
(its Arnoldi relation, as a fixed GCRO space), so it iterates only on what
that space misses; a BiCGStab correction starts afresh, since BiCGStab
builds no Arnoldi relation.  Refinement never changes the reported
main-solve iteration count.

The Krylov solves apply the operator on a plan for a backward error of
2^-24, the solver's checks run on the 2^-53 plan: GMRES-based iterative
refinement (Carson & Higham 2018), with the Krylov solve as the inner,
less accurate one.

At n <= ``ASSEMBLE_MAX_N`` the Krylov operator is assembled once per solve
into its dense n^2 x n^2 matrix M, by one batched propagation of all n^2
unit matrices on the Krylov plan (the small-n Kronecker route of
Jarlebring, Vanbiervliet & Michiels 2011), and every Krylov apply is the
product M vec(X).  At such n a propagation costs NumPy call overhead
whatever its batch, so the assembly costs about one apply.  M is a fixed
matrix, so the operator stays exactly linear, and the recycled Arnoldi
relation belongs to it.  Above the constant every Krylov apply propagates.
The report's apply time counts the assembly and the dense products.
"""

import time

import numpy as np

from .krylov import KrylovConfig, SolveReport, SolveTimings, bicgstab, gmres
from .linalg import matrix_of, unvec, vec
from .operators import OperatorContext, apply_operator, boundary_residuals, combine_pair
from .precond import apply_preconditioner, build_preconditioner
from .propagation import plan_propagations, rk4_propagate

# read off a 2^-53 propagation, whichever plan the Krylov solve ran: the
# accuracy of X that the report claims and the bench gates
BV_TARGET = 1e-8
REFINE_MAX = 2  # cap on the correction solves appended after the main solve
# largest n whose Krylov operator is assembled, at most 8^4 doubles (32 KB);
# set by timing both routes (CHANGES.md)
ASSEMBLE_MAX_N = 8


def solve_delay_lyapunov(problem, ode=None, krylov=None):
    """Solve the delay Lyapunov equation for the midpoint matrix U(tau/2).

    The operator and its preconditioner use the shift c = 1.  There is no
    shift argument because c cancels: it scales only the antisymmetric part
    of both, L_c = D_c L_1 and P_c = D_c P_1 with D_c scaling the skew
    subspace by c, so P_c^-1 L_c = P_1^-1 L_1, and the right-hand side -W is
    symmetric.  Up to ``REFINE_MAX`` refinement passes run while a
    boundary-value residual exceeds ``BV_TARGET``; with GMRES, each
    recycles the main solve's Arnoldi relation.  A zero W returns the exact
    X = 0 with no Krylov solve: converged, 0 iterations, r_alg = r_sym = 0.

    Two fixed plans, read off one set of bounds (``plan_propagations``),
    serve the solve.  The main solve and every correction solve apply the
    operator on the Krylov plan, for a backward error of 2^-24
    (``report.krylov_plan``).  The boundary residuals and the true residual
    of each refinement pass propagate on the 2^-53 plan (``report.plan``),
    as does the solution curve read off the report.  Each operator is a
    fixed polynomial in G, so it is exactly linear, and a recycled Arnoldi
    relation belongs to the operator it is used with.  The accuracy the
    report claims is thus checked at double precision, and refinement
    corrects what the Krylov operator misses.  Under ``OdeConfig(steps=N)``
    both plans are (4, N).

    At n <= ``ASSEMBLE_MAX_N`` the Krylov operator is assembled once, after
    the zero-W return, into its n^2 x n^2 matrix M by one batched apply on
    the n^2 unit matrices, and the main and correction solves apply M; the
    residual propagations and the preconditioner do not change.

    Parameters
    ----------
    problem : TdsProblem
    ode : OdeConfig
        Read once, by ``plan_propagations``, into the two plans of the
        solve; None plans from the generator's power bounds.
    krylov : KrylovConfig

    Returns
    -------
    SolveReport
        With the solution X = U(tau/2), the main-solve residual history and
        iteration count, the 2^-53 plan and the Krylov plan, the final
        boundary residuals r_alg, r_sym read off a 2^-53 propagation, the
        refinement passes and their new Krylov iterations,
        and the timings of the whole solve (``SolveTimings``; apply time
        includes the assembly of M and its products).  It holds no
        Krylov basis (``relation`` is None).
    """
    krylov = krylov or KrylovConfig()
    timings = SolveTimings()
    t_start = time.perf_counter()
    factors = build_preconditioner(problem.A0, tau=problem.tau)
    plan, krylov_plan = plan_propagations(problem.A0, problem.A1, problem.tau, ode)
    ctx = OperatorContext(problem, plan=plan)
    krylov_ctx = OperatorContext(problem, plan=krylov_plan)
    timings.setup_seconds = time.perf_counter() - t_start
    if not problem.W.any():  # X = 0 is exact; the kernels reject a zero right-hand side
        timings.total_seconds = timings.setup_seconds
        return SolveReport(np.zeros_like(problem.W), [0.0], [0.0], 0, True, krylov.method,
                           timings=timings, plan=plan, krylov_plan=krylov_plan,
                           r_alg=0.0, r_sym=0.0)

    if problem.n <= ASSEMBLE_MAX_N:
        # apply_operator is looked up here at call time, like every driver call
        M = _timed(timings, "apply_seconds", matrix_of,
                   lambda B: apply_operator(krylov_ctx, B), problem.n)

        def op(X):
            return _timed(timings, "apply_seconds", _dense_apply, M, X)
    else:
        def op(X):
            return _timed(timings, "apply_seconds", apply_operator, krylov_ctx, X)

    def pc(X):
        return _timed(timings, "precond_seconds", apply_preconditioner, factors, X)

    def residuals(X):
        """Boundary residuals of X and the terminal pair they were read from."""
        pair = _timed(timings, "apply_seconds", rk4_propagate,
                      problem.A0, problem.A1, X, problem.tau, plan=plan)
        return boundary_residuals(problem, pair.Z2_end, pair.Z1_end), pair

    solve = gmres if krylov.method == "gmres" else bicgstab
    report = solve(op, -problem.W, precond=pc, cfg=krylov)
    report.plan, report.krylov_plan = plan, krylov_plan
    # the basis is dropped from the report: at n = 882 it is about 500 MB
    relation, report.relation = report.relation, None
    recycle = {} if relation is None else {"recycle": relation}
    (r_alg, r_sym), pair = residuals(report.X)
    while (report.converged and (r_alg > BV_TARGET or r_sym > BV_TARGET)
           and report.refinement_passes < REFINE_MAX):
        # the true residual reuses the 2^-53 propagation of the boundary residuals
        residual = -problem.W - combine_pair(ctx, pair)
        correction = solve(op, residual, precond=pc, cfg=krylov, **recycle)
        if not correction.converged:
            break
        report.X = report.X + correction.X
        report.refinement_passes += 1
        report.refinement_iterations += correction.iterations
        (r_alg, r_sym), pair = residuals(report.X)
    report.r_alg, report.r_sym = r_alg, r_sym
    timings.total_seconds = time.perf_counter() - t_start
    report.timings = timings
    return report


def _dense_apply(M, X):
    """unvec(M vec(X)): the assembled operator applied to the n x n matrix X."""
    return unvec(M @ vec(X))


def _timed(timings, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time added to the timings field ``name``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    setattr(timings, name, getattr(timings, name) + time.perf_counter() - t0)
    return out
