import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    OperatorContext,
    PropagationPlan,
    SolveReport,
    SolverError,
    TdsProblem,
    apply_operator,
    apply_preconditioner,
    boundary_residuals,
    build_preconditioner,
    exact_propagate,
    expm,
    frobenius,
    lu_solve,
    pdde_generate,
    rk4_propagate,
    small_example,
    solve_delay_lyapunov,
    tsylv_solve_kron,
    unvec,
    vec,
)
from delaylyap.operators import combine_pair
from delaylyap.propagation import plan_propagations
from helpers import SMALL_EXAMPLE_MIDPOINT, random_stable_problem


def test_small_example_matches_reference():
    report = solve_delay_lyapunov(small_example(1.0).problem)
    assert report.converged
    assert np.abs(report.X - SMALL_EXAMPLE_MIDPOINT).max() <= 1e-6
    assert report.r_alg <= 1e-8
    assert report.r_sym <= 1e-8


@pytest.mark.parametrize("problem", [small_example(1.0).problem, pdde_generate(3, 3).problem],
                         ids=["small4", "pdde-3x3"])
def test_zero_delay_plans_no_terms_under_fixed_steps(problem, monkeypatch):
    # tau = 0 plans (0, 1) under every setting, so OdeConfig(steps=2000)
    # runs no Taylor term, where it ran 2000 degree-4 steps of length 0
    # that gave the same X.  U(0) then solves the Lyapunov equation of
    # A0 + A1, which LU (n = 4) and GMRES (n = 18) reach to rounding
    import delaylyap.propagation

    p = dataclasses.replace(problem, tau=0.0)
    default = solve_delay_lyapunov(p)
    terms = []
    counted = delaylyap.propagation.coupled_rhs

    def counting(*args):
        terms.append(args)
        return counted(*args)

    monkeypatch.setattr(delaylyap.propagation, "coupled_rhs", counting)
    report = solve_delay_lyapunov(p, ode=OdeConfig(steps=2000))
    assert report.plan == report.krylov_plan == default.plan == PropagationPlan(0, 1)
    assert not terms
    assert report.X.tobytes() == default.X.tobytes()
    lyap = scipy.linalg.solve_continuous_lyapunov((p.A0 + p.A1).T, -p.W)
    assert frobenius(report.X - lyap) <= 1e-10 * frobenius(lyap)


def test_refinement_reduces_boundary_residuals(monkeypatch, krylov_route):
    # the stiff 4x4 problem needs one correction pass to push the
    # boundary-value residuals below the target
    import delaylyap.solver

    with monkeypatch.context() as m:
        m.setattr(delaylyap.solver, "REFINE_MAX", 0)
        report = solve_delay_lyapunov(small_example(1.0).problem)
    assert report.r_alg > 1e-8
    refined = solve_delay_lyapunov(small_example(1.0).problem)
    assert refined.refinement_passes >= 1
    assert refined.r_alg <= 1e-8
    assert refined.iterations == report.iterations


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_refinement_recycles_the_main_krylov_space(alpha, krylov_route):
    # a fresh correction solve takes 12 (alpha = 1) and 14 (alpha = 5)
    # iterations; recycling the main solve's Arnoldi relation leaves a few
    report = solve_delay_lyapunov(small_example(alpha).problem)
    assert report.refinement_passes >= 1
    assert report.refinement_iterations <= 4
    assert report.r_alg <= 1e-8


@pytest.mark.parametrize("grid, main", [(3, 33), (5, 45)])
def test_pdde_iteration_counts(grid, main):
    # the preconditioner's accuracy shows in these counts: more main
    # iterations, or any refinement, means it lost digits that mattered
    report = solve_delay_lyapunov(pdde_generate(grid, grid).problem)
    assert report.converged
    assert report.iterations <= main
    assert report.refinement_passes == 0


def test_strong_coupling_ends_within_the_rank_bound():
    # P^-1 L - I has rank n rank(A1), so GMRES ends within n rank(A1) + 1
    # steps.  PDDE 3x3 (n = 18, rank(A1) = 6) takes 33 iterations at f0 = 5
    # and the bound itself, 109, at f0 = 20
    weak = solve_delay_lyapunov(pdde_generate(3, 3).problem)
    p = pdde_generate(3, 3, f0=20.0).problem
    report = solve_delay_lyapunov(p)
    assert report.method == "gmres" and report.converged
    assert 3 * weak.iterations < report.iterations <= p.n * np.linalg.matrix_rank(p.A1) + 1
    assert report.target_met


def test_strong_coupling_regime_at_pdde_5x5(monkeypatch):
    # outside the weak-coupling regime: PDDE 5x5 (n = 50, rank(A1) = 20) at
    # f0 = 12 takes 428 main-solve iterations where f0 = 5 takes 45, and full
    # GMRES keeps every basis vector, 429 of length n^2 = 2500 (8.6 MB)
    import delaylyap.solver

    relations = []
    solve = delaylyap.solver.gmres

    def keep_relation(*args, **kwargs):
        report = solve(*args, **kwargs)
        relations.append(report.relation)
        return report

    monkeypatch.setattr(delaylyap.solver, "gmres", keep_relation)
    p = pdde_generate(5, 5, f0=12.0).problem
    report = solve_delay_lyapunov(p)
    assert report.method == "gmres" and report.converged and report.target_met
    assert 300 <= report.iterations <= 600
    assert report.refinement_passes == 0 and len(relations) == 1
    assert relations[0].V.shape == (report.iterations + 1, p.n * p.n)


@pytest.mark.parametrize("grid", [3, 5])
def test_h2_norm_matches_the_frequency_domain(grid):
    # with W = C0^T C0 the H2 norm of y = C0 x, x' = A0 x + A1 x(t - tau)
    # + B0 u is tr(B0^T U(0) B0), U(0) read off X's pair, and also
    # (1/pi) int_0^inf ||C0 (i w I - A0 - A1 e^(-i w tau))^-1 B0||^2 dw,
    # integrated in w = tan(theta): 1.9e-11 and 1.8e-11 relative apart
    import scipy.integrate
    import scipy.sparse
    import scipy.sparse.linalg

    p = pdde_generate(grid, grid).problem
    report = solve_delay_lyapunov(p)
    assert report.method == "gmres"
    U0 = rk4_propagate(p.A0, p.A1, report.X, p.tau, plan=report.plan).Z2_end
    lyapunov = np.trace(p.B0.T @ U0 @ p.B0)
    A0, A1, eye = (scipy.sparse.csc_matrix(M) for M in (p.A0, p.A1, np.eye(p.n)))

    def integrand(theta):
        w = np.tan(theta)
        x = scipy.sparse.linalg.spsolve(1j * w * eye - A0 - np.exp(-1j * w * p.tau) * A1,
                                        p.B0[:, 0])
        return abs(p.C0[0] @ x) ** 2 * (1.0 + w * w)

    value, _ = scipy.integrate.quad(integrand, 0.0, np.pi / 2, epsrel=1e-12, limit=500)
    assert abs(lyapunov - value / np.pi) <= 1e-10 * lyapunov


@pytest.mark.parametrize("problem, norm_plan", [
    (small_example(1.0).problem, (50, 4)), (small_example(5.0).problem, (55, 4)),
    (pdde_generate(3, 3).problem, (55, 1)), (pdde_generate(5, 5).problem, (40, 2)),
], ids=["small4-alpha1", "small4-alpha5", "pdde-3x3", "pdde-5x5"])
def test_power_bound_plan_keeps_the_solution(problem, norm_plan, monkeypatch, krylov_route):
    # the plan from the generator's power bounds runs fewer Taylor terms than
    # the one from its 1-norm alone, and the solution does not move; refined
    # to 1e-12 on the Krylov route (the LU route's X moves 1.4e-10 at small4)
    import delaylyap.solver

    X = solve_delay_lyapunov(problem).X
    monkeypatch.setattr(delaylyap.solver, "plan_propagations",
                        lambda *args: (PropagationPlan(*norm_plan),) * 2)
    reference = solve_delay_lyapunov(problem)
    assert reference.plan == PropagationPlan(*norm_plan)
    assert frobenius(X - reference.X) <= 1e-12 * frobenius(reference.X)


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_small_example_iteration_total(alpha, krylov_route):
    # only the total is pinned: alpha = 5 splits 13 + 2 or 14 + 1 between
    # the main solve and refinement depending on rounding
    report = solve_delay_lyapunov(small_example(alpha).problem)
    assert report.converged
    assert report.iterations + report.refinement_iterations <= 15


def test_report_holds_no_krylov_basis():
    # the basis is n^2 x iterations: about 500 MB at n = 882
    assert "relation" not in {f.name for f in dataclasses.fields(SolveReport)}


def test_overflowing_kernel_norm_is_nonfinite(krylov_route):
    # alpha = 1000 has a finite plan, but the preconditioned operator output
    # is so large that GMRES's norms overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            solve_delay_lyapunov(small_example(1000.0).problem)
    assert err.value.code == "krylov-nonfinite"


def test_tau_zero_reduces_to_standard_lyapunov():
    rng = np.random.default_rng(0)
    for _ in range(5):
        base = random_stable_problem(int(rng.integers(2, 6)), rng)
        p = TdsProblem(A0=base.A0, A1=base.A1, tau=0.0, W=base.W)
        report = solve_delay_lyapunov(p, ode=OdeConfig(steps=1))
        S = p.A0 + p.A1
        K = np.kron(np.eye(p.n), S.T) + np.kron(S.T, np.eye(p.n))
        U = unvec(lu_solve(K, -vec(p.W)))
        assert frobenius(report.X - U) <= 1e-8 * frobenius(U)


@pytest.mark.parametrize("problem", [small_example(5.0).problem,
                                     random_stable_problem(5, np.random.default_rng(1))])
def test_shift_cancels_from_the_preconditioned_operator(problem):
    # the package fixes c = 1: c scales only the skew part of both L_c and
    # Ltilde_c, so Ltilde_c^-1 L_c is one map for every nonzero c.  Here L_c
    # is read off the pair and Ltilde_c^-1 is the Kronecker T-Sylvester solve
    A0, A1, n = problem.A0, problem.A1, problem.n
    X = np.random.default_rng(2).standard_normal((n, n))
    L, pair = apply_operator(OperatorContext(problem=problem), X, return_pair=True)
    want = apply_preconditioner(build_preconditioner(A0, tau=problem.tau), L)
    Z1, Z2, I = pair.Z1_end, pair.Z2_end, np.eye(n)
    for c in (0.3, -2.0):
        Lc = Z2.T @ (A0 - c * I) + (A0.T + c * I) @ Z2 + Z1.T @ A1 + A1.T @ Z1
        out = tsylv_solve_kron(A0.T + c * I, A0 - c * I, Lc) @ expm(0.5 * problem.tau * A0)
        assert frobenius(out - want) <= 1e-11 * frobenius(want)


@pytest.mark.parametrize("ode", [None, OdeConfig(steps=7)], ids=["planned", "steps-7"])
def test_report_plan_is_the_plan_of_ode(ode, krylov_route):
    p = small_example(1.0).problem
    report = solve_delay_lyapunov(p, ode=ode)
    assert (report.plan, report.krylov_plan) == plan_propagations(p.A0, p.A1, p.tau, ode)


@pytest.mark.parametrize("problem, plan, krylov_plan", [
    (small_example(1.0).problem, (50, 3), (50, 2)), (small_example(5.0).problem, (50, 3), (55, 2)),
    (pdde_generate(3, 3).problem, (45, 1), (35, 1)), (pdde_generate(5, 5).problem, (55, 1), (45, 1)),
], ids=["small4-alpha1", "small4-alpha5", "pdde-3x3", "pdde-5x5"])
def test_report_carries_both_plans(problem, plan, krylov_plan, krylov_route):
    # the 2^-24 plan runs fewer Taylor terms per Krylov apply, or as many
    report = solve_delay_lyapunov(problem)
    assert report.plan == PropagationPlan(*plan)
    assert report.krylov_plan == PropagationPlan(*krylov_plan)
    assert report.krylov_plan.rhs_evals <= report.plan.rhs_evals


def test_krylov_plan_at_pdde_9x9():
    # planned, not solved: the solve takes seconds
    p = pdde_generate(9, 9).problem
    plan, krylov_plan = plan_propagations(p.A0, p.A1, p.tau)
    assert (plan, krylov_plan) == (PropagationPlan(50, 2), PropagationPlan(40, 2))
    assert krylov_plan.rhs_evals <= plan.rhs_evals


@pytest.mark.parametrize("problem", [small_example(5.0).problem, pdde_generate(3, 3).problem],
                         ids=["small4-alpha5", "pdde-3x3"])
def test_krylov_applies_and_checks_run_their_own_plans(problem, monkeypatch, krylov_route):
    # every Krylov apply, main and correction solves alike, propagates on
    # the 2^-24 plan; the boundary and refinement residuals on the 2^-53 one
    import delaylyap.operators
    import delaylyap.solver

    plans = {"krylov": set(), "check": set()}

    def recording(key):
        def propagate(*args, plan, **kwargs):
            plans[key].add(plan)
            return rk4_propagate(*args, plan=plan, **kwargs)
        return propagate

    monkeypatch.setattr(delaylyap.operators, "rk4_propagate", recording("krylov"))
    monkeypatch.setattr(delaylyap.solver, "rk4_propagate", recording("check"))
    report = solve_delay_lyapunov(problem)
    assert report.krylov_plan != report.plan
    assert plans == {"krylov": {report.krylov_plan}, "check": {report.plan}}


def test_zero_cost_returns_exact_zero(monkeypatch, krylov_route):
    # X = 0 solves the equation exactly; the kernels, which reject a zero
    # right-hand side, are not called
    import delaylyap.solver

    def no_kernel(*args, **kwargs):
        raise AssertionError("a Krylov kernel ran on a zero right-hand side")

    monkeypatch.setattr(delaylyap.solver, "gmres", no_kernel)
    monkeypatch.setattr(delaylyap.solver, "bicgstab", no_kernel)
    p = dataclasses.replace(small_example(1.0).problem, W=np.zeros((4, 4)))
    report = solve_delay_lyapunov(p)
    assert report.converged and report.iterations == 0 and report.method == "gmres"
    assert report.X.shape == (4, 4) and not report.X.any()
    assert report.r_alg == 0.0 and report.r_sym == 0.0
    assert (report.plan, report.krylov_plan) == plan_propagations(p.A0, p.A1, p.tau)
    assert 0.0 < report.timings.setup_seconds <= report.timings.total_seconds


def test_unsolvable_preconditioner_propagates(monkeypatch):
    # A1 = 0 and A0 = diag(1, -1) make L singular.  The LU route builds no
    # preconditioner, so lu_solve's rcond check refuses the assembled
    # matrix; on the Krylov route A0 and A0 + A1 both pair, and A0's
    # refusal is raised
    import delaylyap.solver as solver

    p = TdsProblem(A0=np.diag([1.0, -1.0]), A1=np.zeros((2, 2)), tau=1.0, W=np.eye(2))
    with pytest.raises(SolverError) as err:
        solve_delay_lyapunov(p)
    assert err.value.code == "singular-matrix"
    monkeypatch.setattr(solver, "DIRECT_MAX_N", 0)
    with pytest.raises(SolverError) as err:
        solve_delay_lyapunov(p)
    assert err.value.code == "precond-unsolvable"
    assert str(err.value) == ("precond-unsolvable: A0 has a Hamiltonian eigenpairing: "
                              "lambda_i + conj(lambda_j) = 0")


# A0 = diag(0.5, -0.5) pairs its eigenvalues, yet the system is exponentially
# stable: the modes x' = +-0.5 x - x(t - 1) stay stable up to delays of 1.21
# and 2.42, and cond(L) is about 11
PAIRING_BUT_STABLE = TdsProblem(A0=np.diag([0.5, -0.5]), A1=-np.eye(2), tau=1.0, W=np.eye(2))


def test_lu_route_solves_a_nonsingular_operator_with_a_pairing_a0():
    # the reference solves the operator assembled column by column from
    # exact_propagate (SciPy's expm_multiply), sharing no propagation code
    p = PAIRING_BUT_STABLE
    ctx = OperatorContext(p)
    columns = []
    for j in range(p.n * p.n):
        pair = exact_propagate(p.A0, p.A1, unvec(np.eye(p.n * p.n)[j]), p.tau)
        columns.append(vec(combine_pair(ctx, pair)))
    want = unvec(np.linalg.solve(np.column_stack(columns), -vec(p.W)))
    report = solve_delay_lyapunov(p)
    assert report.method == "lu" and report.target_met
    assert np.abs(report.X - want).max() <= 1e-10
    assert np.abs(np.diag(report.X) - [5.527168, 0.500918]).max() <= 1e-6


# PAIRING_BUT_STABLE beside three copies of the 4x4 example at alpha = 1:
# n = 14 runs the Krylov route
_SMALL4 = small_example(1.0).problem
PAIRING_AT_N14 = TdsProblem(A0=scipy.linalg.block_diag(PAIRING_BUT_STABLE.A0, *[_SMALL4.A0] * 3),
                            A1=scipy.linalg.block_diag(PAIRING_BUT_STABLE.A1, *[_SMALL4.A1] * 3),
                            tau=1.0, W=np.eye(14))


@pytest.mark.parametrize("problem", [PAIRING_BUT_STABLE, PAIRING_AT_N14],
                         ids=["pairing-2x2", "pairing-14x14"])
def test_krylov_route_solves_a_pairing_a0(problem, monkeypatch):
    # A0 pairs, so its T-Sylvester map is singular, and A0 + A1 does not:
    # the preconditioner is built from A0 + A1 after A0 is refused, and the
    # Krylov route reaches the LU route's X (n = 14: 50 + 57 iterations,
    # 3.2e-13 apart)
    import delaylyap.solver as solver

    monkeypatch.setattr(solver, "DIRECT_MAX_N", 20)
    lu = solve_delay_lyapunov(problem)
    monkeypatch.setattr(solver, "DIRECT_MAX_N", 0)
    built = []
    build = solver.build_preconditioner

    def recording(A0, *args, **kwargs):
        built.append(A0)
        return build(A0, *args, **kwargs)

    monkeypatch.setattr(solver, "build_preconditioner", recording)
    report = solve_delay_lyapunov(problem)
    assert (lu.method, report.method) == ("lu", "gmres")
    assert report.converged and report.target_met
    assert frobenius(report.X - lu.X) <= 1e-9 * frobenius(lu.X)
    assert len(built) == 2
    assert np.array_equal(built[0], problem.A0)
    assert np.array_equal(built[1], problem.A0 + problem.A1)


@pytest.mark.parametrize("scale, code", [(1e20, "plan-too-large"), (1e308, "exp-overflow")])
def test_krylov_route_plans_before_it_builds(scale, code, krylov_route):
    # A0 = diag(s, -s) pairs and cannot be planned: both routes plan first,
    # so the Krylov route ends with the planner's code, as the LU route does
    p = TdsProblem(A0=np.diag([scale, -scale]), A1=np.zeros((2, 2)), tau=1.0, W=np.eye(2))
    with pytest.raises(SolverError) as err:
        solve_delay_lyapunov(p)
    assert err.value.code == code


@pytest.mark.parametrize("problem", [PAIRING_AT_N14, pdde_generate(3, 3).problem],
                         ids=["pairing-14x14", "pdde-3x3"])
def test_zero_cost_on_the_krylov_route_builds_no_preconditioner(problem, monkeypatch):
    # X = 0 is answered after planning and before the route's setup, so a
    # zero W builds no preconditioner, and a pairing A0 is no refusal
    import delaylyap.solver as solver

    monkeypatch.setattr(solver, "build_preconditioner", _unreachable)
    p = dataclasses.replace(problem, W=np.zeros_like(problem.W))
    report = solve_delay_lyapunov(p)
    assert report.method == "gmres" and report.converged and report.iterations == 0
    assert not report.X.any() and report.target_met
    assert (report.plan, report.krylov_plan) == plan_propagations(p.A0, p.A1, p.tau)


def test_lu_route_makes_no_pairing_or_schur_call(monkeypatch):
    # lu_solve's rcond check is the LU route's one solvability rule
    import delaylyap.linalg
    import delaylyap.precond
    import delaylyap.solver

    monkeypatch.setattr(delaylyap.precond, "has_no_hamiltonian_pairing", _unreachable)
    monkeypatch.setattr(delaylyap.precond, "real_schur", _unreachable)
    monkeypatch.setattr(delaylyap.linalg, "real_schur", _unreachable)
    monkeypatch.setattr(delaylyap.solver, "build_preconditioner", _unreachable)
    report = solve_delay_lyapunov(small_example(5.0).problem)
    assert report.method == "lu" and report.target_met


def test_zero_delay_preconditioner_inverts_the_operator():
    # at tau = 0 the operator is the T-Sylvester map of A0 + A1, which the
    # preconditioner built from A0 + A1 inverts: GMRES converges in one
    # iteration (30 with the preconditioner of A0), and X agrees with
    # SciPy's Lyapunov solve to 2.0e-14 (3.1e-13 with that of A0)
    p = dataclasses.replace(pdde_generate(3, 3).problem, tau=0.0)
    report = solve_delay_lyapunov(p)
    assert report.method == "gmres" and report.iterations == 1
    want = scipy.linalg.solve_continuous_lyapunov((p.A0 + p.A1).T, -p.W)
    assert frobenius(report.X - want) <= 1e-13 * frobenius(want)


def test_report_fields_filled(krylov_route):
    report = solve_delay_lyapunov(small_example(0.5).problem)
    assert report.method == "gmres"
    assert len(report.residual_history) == report.iterations + 1
    assert report.timings.total_seconds > 0
    assert report.timings.apply_seconds > 0
    assert report.timings.precond_seconds > 0


def test_timings_include_refinement(monkeypatch, krylov_route):
    import time

    import delaylyap.solver

    measured = {"apply": 0.0, "precond": 0.0}

    def timed(name, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            measured[name] += time.perf_counter() - t0
            return out
        return wrapper

    monkeypatch.setattr(delaylyap.solver, "apply_operator",
                        timed("apply", delaylyap.solver.apply_operator))
    monkeypatch.setattr(delaylyap.solver, "apply_preconditioner",
                        timed("precond", delaylyap.solver.apply_preconditioner))
    report = solve_delay_lyapunov(small_example(5.0).problem)
    assert report.refinement_passes > 0
    assert report.timings.apply_seconds >= 0.8 * measured["apply"]
    assert report.timings.precond_seconds >= 0.8 * measured["precond"]


@pytest.mark.parametrize("problem", [small_example(5.0).problem, pdde_generate(3, 3).problem],
                         ids=["small4-alpha5", "pdde-3x3"])
def test_driver_times_planning_and_every_propagation(problem, monkeypatch):
    # setup covers the propagation plans and the preconditioner build (at
    # n = 4 the plans alone); apply covers the operator applies (at n = 4
    # the assembly) and the driver's own propagations
    import time

    import delaylyap.operators
    import delaylyap.solver

    measured = {"setup": 0.0, "apply": 0.0}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            measured[name] += time.perf_counter() - t0
            return out
        return wrapper

    for module, attr, name in ((delaylyap.solver, "plan_propagations", "setup"),
                               (delaylyap.solver, "build_preconditioner", "setup"),
                               (delaylyap.solver, "apply_operator", "apply"),
                               (delaylyap.solver, "rk4_propagate", "apply")):
        monkeypatch.setattr(module, attr, timed(name, getattr(module, attr)))
    report = solve_delay_lyapunov(problem)
    assert report.converged
    timings = report.timings
    assert timings.setup_seconds >= 0.8 * measured["setup"]
    assert timings.apply_seconds >= 0.8 * measured["apply"]
    parts = timings.setup_seconds + timings.apply_seconds + timings.precond_seconds
    assert parts <= timings.total_seconds


def test_unconverged_correction_is_discarded(monkeypatch, krylov_route):
    # a refinement correction that does not converge ends refinement and
    # leaves the main solve's X as it was
    import delaylyap.solver

    problem = small_example(5.0).problem
    with monkeypatch.context() as m:
        m.setattr(delaylyap.solver, "REFINE_MAX", 0)
        main_x = solve_delay_lyapunov(problem).X
    gmres = delaylyap.solver.gmres
    calls = 0

    def second_fails(*args, **kwargs):
        nonlocal calls
        calls += 1
        result = gmres(*args, **kwargs)
        return dataclasses.replace(result, converged=result.converged and calls != 2)

    monkeypatch.setattr(delaylyap.solver, "gmres", second_fails)
    report = solve_delay_lyapunov(problem)
    assert calls == 2
    assert report.converged
    assert report.refinement_passes == 0
    assert report.refinement_iterations == 0
    assert np.array_equal(report.X, main_x)


def test_one_propagation_per_refinement_iterate(monkeypatch, krylov_route):
    # The driver propagates each iterate once: the boundary residuals and the
    # true residual of the next refinement pass share that propagation.  The
    # Krylov applies are not the driver's own.
    import delaylyap.solver as solver

    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rk4_propagate(*args, **kwargs)

    monkeypatch.setattr(solver, "rk4_propagate", counting)
    report = solve_delay_lyapunov(small_example(5.0).problem)
    assert report.refinement_passes > 0
    assert calls == report.refinement_passes + 1


def _solve_both_routes(problem, monkeypatch, **kwargs):
    """The reports of one problem solved by LU and, forced, by Krylov."""
    import delaylyap.solver

    direct = solve_delay_lyapunov(problem, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(delaylyap.solver, "DIRECT_MAX_N", 0)
        krylov = solve_delay_lyapunov(problem, **kwargs)
    return direct, krylov


@pytest.mark.parametrize("problem", [
    small_example(1.0).problem, small_example(5.0).problem,
    random_stable_problem(8, np.random.default_rng(3)),
], ids=["small4-alpha1", "small4-alpha5", "random-n8"])
def test_direct_and_krylov_routes_agree(problem, monkeypatch):
    # LU on the assembled 2^-53 operator and the refined Krylov solve reach
    # one X; cond(M) = 1.6e7 at small4 leaves them about 1e-10 apart
    direct, krylov = _solve_both_routes(problem, monkeypatch)
    assert (direct.method, krylov.method) == ("lu", "gmres")
    assert frobenius(direct.X - krylov.X) <= 1e-9 * frobenius(krylov.X)
    assert direct.r_alg <= 1e-8 and krylov.r_alg <= 1e-8
    assert direct.target_met and krylov.target_met


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_assembled_and_propagated_operators_agree(alpha, monkeypatch):
    # the matrix that LU factors is the propagated operator on the report's
    # 2^-53 plan up to rounding
    import delaylyap.solver as solver

    problem = small_example(alpha).problem
    factored = []

    def recording(M, b):
        factored.append(M)
        return lu_solve(M, b)

    monkeypatch.setattr(solver, "lu_solve", recording)
    report = solve_delay_lyapunov(problem)
    (M,) = factored
    ctx = OperatorContext(problem, plan=report.plan)
    X = np.random.default_rng(4).standard_normal((4, 4))
    want = apply_operator(ctx, X)
    assert frobenius(unvec(M @ vec(X)) - want) <= 1e-13 * frobenius(want)


@pytest.mark.parametrize("problem, met", [
    (small_example(1.0).problem, True),
    (small_example(5.0).problem, True),
    (small_example(12.0).problem, False),
    (random_stable_problem(8, np.random.default_rng(3)), True),
    (random_stable_problem(9, np.random.default_rng(3)), True),
    (random_stable_problem(10, np.random.default_rng(3)), True),
    (random_stable_problem(11, np.random.default_rng(3)), True),
], ids=["small4-alpha1", "small4-alpha5", "small4-alpha12", "random-n8", "random-n9",
        "random-n10", "random-n11"])
def test_direct_residuals_read_off_the_assembly_pairs(problem, met, monkeypatch):
    # the LU route reads r_alg, r_sym off X's pair contracted from the
    # assembly's unit-matrix pairs; a fresh 2^-53 propagation of X gives
    # them to within a factor of 2 and the same verdict, and X is the LU
    # solution of the factored matrix to the bit
    import delaylyap.solver as solver

    factored = []

    def recording(M, b):
        factored.append(M)
        return lu_solve(M, b)

    monkeypatch.setattr(solver, "lu_solve", recording)
    report = solve_delay_lyapunov(problem)
    assert report.method == "lu"
    (M,) = factored
    assert np.array_equal(report.X, unvec(lu_solve(M, -vec(problem.W))))
    pair = rk4_propagate(problem.A0, problem.A1, report.X, problem.tau, plan=report.plan)
    fresh = boundary_residuals(problem, pair.Z2_end, pair.Z1_end)
    for got, want in zip((report.r_alg, report.r_sym), fresh):
        assert 0.5 * want <= got <= 2.0 * want
    assert report.target_met == (max(fresh) <= solver.BV_TARGET) == met


def _record_calls(monkeypatch):
    """Record the argument shape and plan of every ``solver.apply_operator``
    call, count the ``solver.rk4_propagate`` calls and the operator calls
    each Krylov kernel makes."""
    import delaylyap.solver as solver

    seen = {"shapes": [], "plans": [], "krylov": 0, "propagations": 0}

    def apply(ctx, X, **kwargs):
        seen["shapes"].append(np.shape(X))
        seen["plans"].append(ctx.plan)
        return apply_operator(ctx, X, **kwargs)

    def propagate(*args, **kwargs):
        seen["propagations"] += 1
        return rk4_propagate(*args, **kwargs)

    def counting_kernel(kernel):
        def run(op, *args, **kwargs):
            def counted(X):
                seen["krylov"] += 1
                return op(X)
            return kernel(counted, *args, **kwargs)
        return run

    monkeypatch.setattr(solver, "apply_operator", apply)
    monkeypatch.setattr(solver, "rk4_propagate", propagate)
    monkeypatch.setattr(solver, "gmres", counting_kernel(solver.gmres))
    monkeypatch.setattr(solver, "bicgstab", _unreachable)  # the driver runs GMRES alone
    return seen


@pytest.mark.parametrize("problem, direct", [
    (small_example(5.0).problem, True),
    (random_stable_problem(8, np.random.default_rng(3)), True),
    (random_stable_problem(9, np.random.default_rng(3)), True),
    (random_stable_problem(10, np.random.default_rng(3)), True),
    (random_stable_problem(11, np.random.default_rng(3)), True),
    (random_stable_problem(12, np.random.default_rng(3)), False),
    (pdde_generate(3, 3).problem, False),
], ids=["small4-alpha5", "random-n8", "random-n9", "random-n10", "random-n11", "random-n12",
        "pdde-3x3"])
def test_krylov_operator_assembled_at_small_n(problem, direct, monkeypatch):
    # the operator that the Krylov route propagates apply by apply is
    # assembled at n <= DIRECT_MAX_N = 11, for LU: one batched apply on the
    # n^2 unit matrices, on the 2^-53 plan, serves the solve, and the
    # residuals are read off its pairs with no propagation of X.  Above the
    # switch each Krylov apply propagates its own n x n argument on the
    # Krylov plan
    seen = _record_calls(monkeypatch)
    report = solve_delay_lyapunov(problem)
    assert report.converged
    n = problem.n
    if direct:
        assert seen["shapes"] == [(n * n, n, n)]
        assert seen["plans"] == [report.plan]
        assert (seen["krylov"], seen["propagations"]) == (0, 0)
    else:
        assert seen["krylov"] >= report.iterations + report.refinement_iterations
        assert seen["shapes"] == [(n, n)] * seen["krylov"]
        assert seen["plans"] == [report.krylov_plan] * seen["krylov"]
        assert seen["propagations"] == report.refinement_passes + 1


def _unreachable(*args, **kwargs):
    raise AssertionError("a call that the solve must not make")


def test_direct_route_runs_no_krylov_solve(monkeypatch):
    # whatever Krylov cap is asked for, the LU route builds and applies no
    # preconditioner and calls no Krylov kernel: one batched apply, no
    # other propagation, and the same X
    import delaylyap.solver as solver

    problem = small_example(1.0).problem
    reference = solve_delay_lyapunov(problem)
    for name in ("gmres", "bicgstab", "build_preconditioner", "apply_preconditioner"):
        monkeypatch.setattr(solver, name, _unreachable)
    seen = _record_calls(monkeypatch)
    report = solve_delay_lyapunov(problem, krylov=KrylovConfig(maxit=1))
    assert report.method == "lu" and report.converged
    assert seen["shapes"] == [(16, 4, 4)] and seen["propagations"] == 0
    assert np.array_equal(report.X, reference.X)


def test_direct_report_is_a_zero_iteration_solve():
    # one history entry, as convergence.csv writes it: the residual of the
    # LU solution in the assembled system, at 0 iterations; the operator
    # ran the 2^-53 plan, which the report gives as both plans
    p = small_example(1.0).problem
    report = solve_delay_lyapunov(p)
    assert report.method == "lu" and report.converged and report.iterations == 0
    assert len(report.residual_history) == report.iterations + 1
    assert len(report.iteration_seconds) == len(report.residual_history)
    assert 0.0 < report.residual_history[0] <= 1e-8
    assert report.refinement_passes == report.refinement_iterations == 0
    assert report.krylov_plan == report.plan == plan_propagations(p.A0, p.A1, p.tau)[0]
    timings = report.timings
    assert timings.precond_seconds == 0.0
    assert 0.0 < timings.setup_seconds + timings.apply_seconds <= timings.total_seconds


def test_zero_cost_on_the_direct_route(monkeypatch):
    import delaylyap.solver as solver

    monkeypatch.setattr(solver, "matrix_of", _unreachable)
    p = dataclasses.replace(small_example(1.0).problem, W=np.zeros((4, 4)))
    report = solve_delay_lyapunov(p)
    assert report.method == "lu" and report.converged and report.iterations == 0
    assert not report.X.any() and report.target_met
    assert report.krylov_plan == report.plan == plan_propagations(p.A0, p.A1, p.tau)[0]


def test_zero_cost_return_on_the_lu_route_reads_no_pairing_rule(monkeypatch):
    # X = 0 solves L(X) = 0 whether or not L is singular, so a zero W with
    # a pairing A0 returns it, with no assembly and no preconditioner
    import delaylyap.solver as solver

    monkeypatch.setattr(solver, "matrix_of", _unreachable)
    monkeypatch.setattr(solver, "build_preconditioner", _unreachable)
    p = TdsProblem(A0=np.diag([1.0, -1.0]), A1=np.zeros((2, 2)), tau=1.0, W=np.zeros((2, 2)))
    report = solve_delay_lyapunov(p)
    assert report.method == "lu" and report.converged and report.target_met
    assert report.X.shape == (2, 2) and not report.X.any()


@pytest.mark.parametrize("direct", [True, False], ids=["lu", "krylov"])
def test_missed_accuracy_target_is_reported(direct, monkeypatch):
    # small4 at alpha 12 (cond(L) = 4.7e9) ends above BV_TARGET on both
    # routes, r_alg 1.1e-6 by LU and 2.3e-8 by refined Krylov: converged,
    # with the target reported missed
    import delaylyap.solver as solver

    if not direct:
        monkeypatch.setattr(solver, "DIRECT_MAX_N", 0)
    report = solve_delay_lyapunov(small_example(12.0).problem)
    assert report.method == ("lu" if direct else "gmres")
    assert report.converged
    assert report.r_alg > solver.BV_TARGET
    assert report.target_met is False


@pytest.mark.parametrize("residuals, met", [((0.0, 0.0), True), ((1e-8, 1e-8), True),
                                            ((2e-8, 0.0), False), ((0.0, 2e-8), False),
                                            ((np.nan, 0.0), False)])
def test_target_reads_both_boundary_residuals(residuals, met, monkeypatch):
    import delaylyap.solver as solver

    monkeypatch.setattr(solver, "boundary_residuals", lambda *args: residuals)
    report = solve_delay_lyapunov(small_example(1.0).problem)
    assert report.target_met is met


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
