"""End-to-end driver: LU on the assembled operator at small n, a
preconditioned Krylov solve with refinement above; n alone picks the route.

The delay Lyapunov equation is one linear system L(X) = -W in the n^2
entries of X = U(tau/2), with L known through its action.  At n <=
``DIRECT_MAX_N`` L is assembled from one batched propagation of the n^2
unit matrices, one 2-D product per Taylor term for the whole batch, which
costs about one apply at n = 4 and a dozen at n = 11, and LU on that
matrix is the small-n Kronecker route of Jarlebring, Vanbiervliet &
Michiels (2011).  It builds no preconditioner: its one solvability rule
is the LAPACK condition estimate of ``linalg.lu_solve``.  Its one
propagation is the assembly's; X's terminal pair, which the boundary
residuals are read off, combines the unit matrices' pairs.  Above the switch
the solve is GMRES-based iterative refinement (Carson & Higham 2018): the
preconditioned Krylov solve on a 2^-24 plan is the inner, less accurate
one, and the boundary-residual checks propagate X on the 2^-53 plan.  The
main solve and every correction solve are GMRES, and a correction
recycles the main solve's Arnoldi relation as a fixed GCRO space, so it
iterates only on what that space misses.  Refinement never changes the
reported main-solve iteration count.  Both routes plan, answer a zero W
with the exact X = 0, then solve; the Krylov route alone builds a
preconditioner, in its own setup (:func:`preconditioner_for`).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError
from .krylov import bicgstab  # noqa: F401 -- bench/tracing.py wraps it
from .krylov import KrylovConfig, KrylovResult, gmres
from .linalg import frobenius, lu_solve, matmul, matrix_of, norm, unvec, vec
from .operators import OperatorContext, apply_operator, boundary_residuals, combine_pair
from .precond import apply_preconditioner, build_preconditioner, has_no_hamiltonian_pairing
from .propagation import PropagationPlan, plan_propagations, rk4_propagate

# read off X's terminal pair on the 2^-53 plan, whichever route solved (on
# the LU route, contracted from the assembly's pairs): the accuracy of X
# that the report claims (``target_met``) and the bench gates
BV_TARGET = 1e-8
REFINE_MAX = 2  # cap on the correction solves appended after the main solve
# largest n solved by LU on the assembled operator, at most 11^4 doubles
# (117 KB); set by timing both routes (CHANGES.md)
DIRECT_MAX_N = 11


@dataclass
class SolveTimings:
    """Wall seconds of one ``solve_delay_lyapunov`` call, added up as it runs:
    setup (the plans and any preconditioner builds), apply (every propagation
    the driver makes; on the LU route, the assembly alone), precond (every
    preconditioner apply) and total (the whole solve)."""

    setup_seconds: float = 0.0
    apply_seconds: float = 0.0
    precond_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one ``solve_delay_lyapunov`` call, built at its end.

    The history, its stamps, ``iterations`` and ``converged`` are the main
    solve's ``KrylovResult``'s, and X is its X plus the accepted corrections.
    On the LU route (``method="lu"``) that result has 0 iterations and the
    one history entry ||M vec(X) + vec(W)|| / ||W|| of the assembled matrix
    M.  ``plan`` is the 2^-53 plan of the boundary residuals r_alg, r_sym
    and of refinement, ``krylov_plan`` that of every operator apply, 2^-24
    on the Krylov route.  ``target_met`` is False when r_alg or r_sym
    exceeds ``BV_TARGET`` (or is not finite).  ``refinement_iterations``
    counts the new Arnoldi iterations of the correction solves.  No Krylov
    basis is kept: at n = 882 it is about 500 MB.
    """

    X: np.ndarray
    residual_history: list
    iteration_seconds: list
    iterations: int
    converged: bool
    method: str
    timings: SolveTimings
    plan: PropagationPlan
    krylov_plan: PropagationPlan
    r_alg: float
    r_sym: float
    target_met: bool
    refinement_passes: int
    refinement_iterations: int


def solve_delay_lyapunov(problem, ode=None, krylov=None):
    """Solve the delay Lyapunov equation for the midpoint matrix U(tau/2).

    At n <= ``DIRECT_MAX_N`` the operator is assembled on the 2^-53 plan
    into its n^2 x n^2 matrix M, by one batched apply on the n^2 unit
    matrices, and M vec(X) = -vec(W) is solved by LU.  ``krylov`` is not
    read there and no preconditioner is built, so the one solvability rule
    is ``linalg.lu_solve``'s rcond check (``"singular-matrix"``): an A0
    with a Hamiltonian eigenpairing is solved when L is nonsingular.

    Above the switch :func:`preconditioner_for` builds the preconditioner.
    Two fixed plans, read off one set of bounds (``plan_propagations``),
    serve the solve.  The main solve and every correction solve apply the
    operator on the Krylov plan, for a backward error of 2^-24
    (``report.krylov_plan``).  The true residual of each refinement pass
    propagates on the 2^-53 plan (``report.plan``).  Each operator is a
    fixed polynomial in G, so it is exactly linear, and a recycled Arnoldi
    relation belongs to the operator it is used with.  Up to
    ``REFINE_MAX`` refinement passes run while a boundary-value residual
    exceeds ``BV_TARGET``.

    On both routes the boundary residuals are read off X's terminal pair on
    the 2^-53 plan, so the accuracy the report claims is checked at double
    precision.  Above the switch that pair is a propagation of X.  On the LU
    route it is contracted, Z(X) = sum_j x_j Z(E_j) with x = vec(X), from
    the unit matrices' pairs, which differs from a propagation of X only by
    rounding, since every propagation on a plan applies the same fixed
    polynomial in G; that route propagates nothing after the assembly.  The
    solution curve read off the report propagates X on the 2^-53 plan.
    Both routes plan first, so a planner's refusal comes before the
    preconditioner's, and a zero W then returns the exact X = 0 with no
    solve and no preconditioner: converged, 0 iterations, r_alg = r_sym =
    0, even for a singular L or a pairing A0.
    Under ``OdeConfig(steps=N)`` both plans are (4, N), or (0, 1) over zero
    time.

    Parameters
    ----------
    problem : TdsProblem
    ode : OdeConfig
        Read once, by ``plan_propagations``, the one planner, into the
        plans of the solve; None plans from the generator's power bounds.
    krylov : KrylovConfig
        Read only above ``DIRECT_MAX_N``.

    Returns
    -------
    SolveReport
    """
    krylov = krylov or KrylovConfig()
    timings = SolveTimings()
    t_start = time.perf_counter()
    plan, krylov_plan = plan_propagations(problem.A0, problem.A1, problem.tau, ode)
    ctx = OperatorContext(problem, plan=plan)
    timings.setup_seconds = time.perf_counter() - t_start
    direct = problem.n <= DIRECT_MAX_N
    passes = refined = 0
    if not problem.W.any():  # X = 0 is exact; the kernels reject a zero right-hand side
        result = KrylovResult(np.zeros_like(problem.W), [0.0], [0.0], 0, True)
        r_alg = r_sym = 0.0
    elif direct:
        result, (r_alg, r_sym) = _solve_direct(ctx, timings)
    else:
        result, (passes, refined), (r_alg, r_sym) = _solve_krylov(
            ctx, krylov_plan, krylov, timings)
    timings.total_seconds = time.perf_counter() - t_start
    return SolveReport(
        X=result.X, residual_history=result.residual_history,
        iteration_seconds=result.iteration_seconds, iterations=result.iterations,
        converged=result.converged, method="lu" if direct else "gmres", timings=timings,
        plan=plan, krylov_plan=plan if direct else krylov_plan, r_alg=r_alg, r_sym=r_sym,
        target_met=r_alg <= BV_TARGET and r_sym <= BV_TARGET,
        refinement_passes=passes, refinement_iterations=refined)


def preconditioner_for(problem):
    """The preconditioner of ``problem``'s Krylov solve, built from A0 but
    from A0 + A1 at tau = 0, where the operator is the T-Sylvester map of
    A0 + A1, and when A0 has a Hamiltonian eigenpairing, which makes the map
    of A0 singular.  A0 + A1 is tried only after A0 is refused, so an A0
    that does not pair makes one Schur form; when both pair, A0's
    ``"precond-unsolvable"`` is raised."""
    A0, A1, tau = problem.A0, problem.A1, problem.tau
    if tau == 0:
        return build_preconditioner(A0 + A1, tau=tau)
    try:
        return build_preconditioner(A0, tau=tau)
    except SolverError as refusal:
        if refusal.code != "precond-unsolvable" or not has_no_hamiltonian_pairing(A0 + A1):
            raise
    return build_preconditioner(A0 + A1, tau=tau)


def _solve_direct(ctx, timings):
    """LU on the operator assembled on ``ctx``'s plan: the result of a
    0-iteration solve and the boundary residuals of its X."""
    problem = ctx.problem
    units = None

    def assemble(E):
        nonlocal units
        # apply_operator is looked up here at call time, like every driver call
        value, units = apply_operator(ctx, E, return_pair=True)
        return value

    M = _timed(timings, "apply_seconds", matrix_of, assemble, problem.n)
    t0 = time.perf_counter()
    b = -vec(problem.W)
    x = lu_solve(M, b)
    relres = norm(matmul(M, x) - b) / frobenius(problem.W)
    result = KrylovResult(unvec(x), [relres], [time.perf_counter() - t0], 0, True)
    # X = sum_j x_j E_j and the pair map is linear (one fixed polynomial in
    # G), so X's terminal pair is the same sum of the unit matrices' pairs
    Z1, Z2 = (matmul(x, Z.reshape(x.size, -1)).reshape(problem.W.shape)
              for Z in (units.Z1_end, units.Z2_end))
    return result, boundary_residuals(problem, Z2, Z1)


def _solve_krylov(ctx, krylov_plan, krylov, timings):
    """Preconditioned GMRES on ``krylov_plan``, its preconditioner's build timed
    into setup, and up to ``REFINE_MAX`` refinement passes: the main solve's
    result with the refined X, the passes and their new iterations, and the
    final boundary residuals."""
    problem = ctx.problem
    factors = _timed(timings, "setup_seconds", preconditioner_for, problem)
    krylov_ctx = OperatorContext(problem, plan=krylov_plan)

    def residuals(X):
        """Boundary residuals of X and the terminal pair they were read from."""
        pair = _timed(timings, "apply_seconds", rk4_propagate,
                      problem.A0, problem.A1, X, problem.tau, plan=ctx.plan)
        return boundary_residuals(problem, pair.Z2_end, pair.Z1_end), pair

    def op(X):
        return _timed(timings, "apply_seconds", apply_operator, krylov_ctx, X)

    def pc(X):
        return _timed(timings, "precond_seconds", apply_preconditioner, factors, X)

    main = gmres(op, -problem.W, precond=pc, cfg=krylov)
    X, passes, iterations = main.X, 0, 0
    (r_alg, r_sym), pair = residuals(X)
    while main.converged and (r_alg > BV_TARGET or r_sym > BV_TARGET) and passes < REFINE_MAX:
        # the true residual reuses the 2^-53 propagation of the boundary residuals
        residual = -problem.W - combine_pair(ctx, pair)
        correction = gmres(op, residual, precond=pc, cfg=krylov, recycle=main.relation)
        if not correction.converged:
            break
        X = X + correction.X
        passes += 1
        iterations += correction.iterations
        (r_alg, r_sym), pair = residuals(X)
    return replace(main, X=X), (passes, iterations), (r_alg, r_sym)


def _timed(timings, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time added to the timings field ``name``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    setattr(timings, name, getattr(timings, name) + time.perf_counter() - t0)
    return out
