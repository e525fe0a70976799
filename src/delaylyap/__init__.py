"""Solver library for the delay Lyapunov equation.

The midpoint value U(tau/2) of the delay Lyapunov matrix satisfies a linear
matrix equation whose action is computed by integrating a coupled matrix ODE;
this package solves it by LU on the assembled operator at small n and with
preconditioned matrix-free GMRES, its one Krylov kernel, above, where the
preconditioner is a T-Sylvester solve on a cached real Schur form combined
with a matrix exponential.
"""

from .errors import SolverError
from .krylov import KrylovConfig, gmres
from .linalg import eigenvalues, expm, frobenius, lu_solve, matrix_of, real_schur, unvec, vec
from .matio import read_matrix, write_matrix
from .operators import (
    OperatorContext,
    TdsProblem,
    apply_operator,
    assemble_operator,
    boundary_residuals,
    preconditioned_spectrum,
    reconstruct_solution,
)
from .precond import (
    PrecondFactors,
    apply_preconditioner,
    build_preconditioner,
    has_no_hamiltonian_pairing,
)
from .problems import PddeSystem, SmallExample, bench_table, pdde_generate, small_example
from .propagation import (
    OdeConfig,
    PropagationPlan,
    PropagationResult,
    coupled_rhs,
    exact_propagate,
    plan_propagations,
    rk4_propagate,
    term_operands,
)
from .solver import SolveReport, SolveTimings, solve_delay_lyapunov
from .tsylv import (
    TsylvPencil,
    factor_pencil,
    tsylv_solve,
    tsylv_solve_kron,
)

__version__ = "0.1.0"

__all__ = [
    "KrylovConfig", "OdeConfig", "OperatorContext", "PddeSystem",
    "PrecondFactors", "PropagationPlan", "PropagationResult", "SmallExample",
    "SolveReport", "SolveTimings", "SolverError", "TdsProblem", "TsylvPencil",
    "apply_operator", "apply_preconditioner", "assemble_operator",
    "bench_table", "boundary_residuals", "build_preconditioner",
    "coupled_rhs", "eigenvalues", "exact_propagate", "expm",
    "factor_pencil", "frobenius", "gmres",
    "has_no_hamiltonian_pairing", "lu_solve", "matrix_of", "pdde_generate",
    "plan_propagations", "preconditioned_spectrum",
    "read_matrix", "real_schur", "reconstruct_solution", "rk4_propagate",
    "small_example", "solve_delay_lyapunov", "term_operands", "tsylv_solve",
    "tsylv_solve_kron", "unvec", "vec", "write_matrix",
]
