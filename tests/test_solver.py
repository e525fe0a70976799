import numpy as np
import pytest

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    SolverError,
    TdsProblem,
    frobenius,
    kron,
    lu_solve,
    small_example,
    solve_delay_lyapunov,
    unvec,
    vec,
)
from helpers import SMALL_EXAMPLE_MIDPOINT, random_stable_problem


def test_small_example_matches_reference():
    report = solve_delay_lyapunov(small_example(1.0).problem)
    assert report.converged
    assert np.abs(report.X - SMALL_EXAMPLE_MIDPOINT).max() <= 1e-6
    assert report.r_alg <= 1e-8
    assert report.r_sym <= 1e-8


def test_refinement_reduces_boundary_residuals():
    # the stiff 4x4 problem needs one correction pass to push the
    # boundary-value residuals below the target
    report = solve_delay_lyapunov(small_example(1.0).problem, max_refinements=0)
    assert report.r_alg > 1e-8
    refined = solve_delay_lyapunov(small_example(1.0).problem)
    assert refined.refinement_passes >= 1
    assert refined.r_alg <= 1e-8
    assert refined.iterations == report.iterations


def test_tau_zero_reduces_to_standard_lyapunov():
    rng = np.random.default_rng(0)
    for _ in range(5):
        base = random_stable_problem(int(rng.integers(2, 6)), rng)
        p = TdsProblem(A0=base.A0, A1=base.A1, tau=0.0, W=base.W)
        report = solve_delay_lyapunov(p, ode=OdeConfig(steps=1))
        S = p.A0 + p.A1
        K = kron(np.eye(p.n), S.T) + kron(S.T, np.eye(p.n))
        U = unvec(lu_solve(K, -vec(p.W)), p.n)
        assert frobenius(report.X - U) <= 1e-8 * frobenius(U)


def test_shift_collision_retried():
    rng = np.random.default_rng(1)
    base = random_stable_problem(3, rng)
    lam = np.linalg.eigvals(base.A0)
    real = lam[np.abs(lam.imag) < 1e-12].real
    assert real.size  # generator always leaves at least one real eigenvalue here
    report = solve_delay_lyapunov(base, shift=float(real[0]),
                                  krylov=KrylovConfig(tol=1e-10))
    assert report.converged


def test_unsolvable_preconditioner_propagates():
    p = TdsProblem(A0=np.diag([1.0, -1.0]), A1=np.zeros((2, 2)), tau=1.0, W=np.eye(2))
    with pytest.raises(SolverError) as err:
        solve_delay_lyapunov(p)
    assert err.value.code == "precond-unsolvable"


def test_report_fields_filled():
    report = solve_delay_lyapunov(small_example(0.5).problem)
    assert report.method == "gmres"
    assert len(report.residual_history) == report.iterations + 1
    assert report.timings.total_seconds > 0
    assert report.timings.apply_seconds > 0
    assert report.timings.precond_seconds > 0


def test_bicgstab_path():
    report = solve_delay_lyapunov(small_example(0.5).problem,
                                  krylov=KrylovConfig(method="bicgstab", tol=1e-12, maxit=64))
    assert report.converged
    assert report.r_alg <= 1e-8


def test_cli_summary_reports_plan(tmp_path):
    from delaylyap.cli import main

    assert main(["solve", "--small-example", "--samples", "5",
                 "--outdir", str(tmp_path)]) == 0
    summary = dict(line.split("=", 1)
                   for line in (tmp_path / "summary.txt").read_text().splitlines())
    assert "steps" not in summary
    degree, steps = int(summary["propagation_degree"]), int(summary["propagation_steps"])
    assert int(summary["rhs_evals_per_apply"]) == degree * steps <= 220
    assert (tmp_path / "U_004.mtx").is_file()
