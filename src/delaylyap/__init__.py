"""Solver library for the delay Lyapunov equation.

The midpoint value U(tau/2) of the delay Lyapunov matrix satisfies a linear
matrix equation whose action is computed by integrating a coupled matrix ODE;
this package solves it with preconditioned matrix-free GMRES/BiCGStab, where
the preconditioner is a cached T-Sylvester factorization combined with a
matrix exponential.
"""

from .errors import SolverError
from .krylov import KrylovConfig, SolveReport, SolveTimings, bicgstab, gmres
from .linalg import (
    commutation_matrix,
    complex_schur,
    eigenvalues,
    expm,
    frobenius,
    generalized_schur_pencil,
    kron,
    lu_solve,
    pencil_eigenvalues,
    unvec,
    vec,
)
from .matio import read_matrix, write_matrix
from .operators import (
    OperatorContext,
    TdsProblem,
    apply_operator,
    assemble_operator,
    boundary_residuals,
    reconstruct_solution,
)
from .precond import (
    PrecondFactors,
    apply_preconditioner,
    build_preconditioner,
    preconditioned_spectrum,
    preconditioner_quality,
)
from .problems import PddeSystem, SmallExample, bench_table, pdde_generate, small_example
from .propagation import (
    OdeConfig,
    PropagationPlan,
    PropagationResult,
    coupled_generator,
    coupled_rhs,
    exact_propagate,
    plan_propagation,
    rk4_propagate,
)
from .solver import solve_delay_lyapunov
from .tsylv import (
    TsylvPencil,
    factor_pencil,
    has_no_hamiltonian_pairing,
    tsylv_solvable,
    tsylv_solve,
    tsylv_solve_kron,
)

__version__ = "0.1.0"

__all__ = [
    "KrylovConfig", "OdeConfig", "OperatorContext", "PddeSystem",
    "PrecondFactors", "PropagationPlan", "PropagationResult", "SmallExample",
    "SolveReport", "SolveTimings", "SolverError", "TdsProblem", "TsylvPencil",
    "apply_operator", "apply_preconditioner", "assemble_operator",
    "bench_table", "bicgstab", "boundary_residuals", "build_preconditioner",
    "commutation_matrix", "complex_schur", "coupled_generator", "coupled_rhs",
    "eigenvalues", "exact_propagate", "expm", "factor_pencil", "frobenius",
    "generalized_schur_pencil", "gmres", "has_no_hamiltonian_pairing", "kron",
    "lu_solve", "pdde_generate", "pencil_eigenvalues", "plan_propagation",
    "preconditioned_spectrum", "preconditioner_quality", "read_matrix",
    "reconstruct_solution", "rk4_propagate", "small_example",
    "solve_delay_lyapunov", "tsylv_solvable", "tsylv_solve",
    "tsylv_solve_kron", "unvec", "vec", "write_matrix",
]
