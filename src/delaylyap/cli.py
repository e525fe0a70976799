"""Command-line front end.

Subcommands: solve, bench, spectrum, tsylv, pdde.  Matrices travel as
Matrix Market files, histories and spectra as CSV with a header row, run
summaries as key=value text.  Failures exit nonzero with the error code on
stderr; unreadable or inconsistent input gives ``invalid-input`` (in
``tsylv``, by the solvers' own input rule).  ``spectrum`` plans, then builds
the preconditioner as the Krylov route does.  In
``solve``'s summary.txt, ``setup_seconds`` includes the propagation plans;
``propagation_*`` and ``rhs_evals_per_apply`` give the 2^-53 plan of the
residual checks and the solution samples, and the ``krylov_`` keys the
2^-24 plan of the Krylov operator applies; at n <= ``DIRECT_MAX_N``, where
the solve is LU on the assembled operator (``method=lu``), they repeat the
2^-53 plan that operator ran.  Both plans are read off the generator's
power bounds; at tau = 0 both are (0, 1), so the summary reads
``propagation_degree=0``, ``propagation_steps=1`` and
``rhs_evals_per_apply=0``, and the ``krylov_`` keys the same.
``target_met`` is False when r_alg or r_sym ends above 1e-8; such a solve
still exits 0, since the accuracy it reached is in the summary.
"""

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import SolverError
from .krylov import KrylovConfig
from .matio import read_matrix, write_matrix
from .operators import (OperatorContext, TdsProblem, _check_dense_cap, preconditioned_spectrum,
                        reconstruct_solution)
from .problems import bench_table, pdde_generate, small_example
from .propagation import _check_tau, plan_propagations
from .solver import DIRECT_MAX_N, preconditioner_for, solve_delay_lyapunov
from .tsylv import tsylv_solve, tsylv_solve_kron


def _add_problem_args(p):
    p.add_argument("--a0", help="A0 as a Matrix Market file")
    p.add_argument("--a1", help="A1 as a Matrix Market file")
    p.add_argument("--w", help="W as a Matrix Market file")
    p.add_argument("--small-example", action="store_true",
                   help="use the built-in 4x4 benchmark problem")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="coupling strength of the 4x4 benchmark (default 1)")
    p.add_argument("--pdde", nargs=2, type=int, metavar=("NX", "NY"),
                   help="generate the wave-equation problem on an NX x NY grid")
    p.add_argument("--f0", type=float, default=5.0,
                   help="feedback amplitude of the PDDE problem (default 5)")
    p.add_argument("--tau", type=float, default=1.0, help="delay (default 1)")


def _add_solver_args(p):
    above = f"; read only at n > {DIRECT_MAX_N}, where the solve is GMRES, LU below"
    p.add_argument("--tol", type=float, default=1e-12,
                   help=f"relative residual tolerance (default 1e-12){above}")
    p.add_argument("--maxit", type=int, default=None,
                   help=f"iteration cap (default n^2){above}")


@contextlib.contextmanager
def _input_errors():
    """Map file, format, shape and option errors of the input to ``invalid-input``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise SolverError("invalid-input", str(exc)) from exc


def _load_problem(args):
    with _input_errors():
        if args.small_example:
            return dataclasses.replace(small_example(args.alpha).problem, tau=args.tau)
        if args.pdde:
            nx, ny = args.pdde
            return pdde_generate(nx, ny, f0=args.f0, tau=args.tau).problem
        if not (args.a0 and args.a1 and args.w):
            raise ValueError("provide --small-example, --pdde, or --a0/--a1/--w files")
        return TdsProblem(A0=read_matrix(args.a0), A1=read_matrix(args.a1),
                          tau=args.tau, W=read_matrix(args.w))


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_summary(path, pairs):
    Path(path).write_text("".join(f"{k}={_fmt(v)}\n" for k, v in pairs))


def cmd_solve(args):
    problem = _load_problem(args)
    with _input_errors():  # before any solve or file write
        krylov = KrylovConfig(tol=args.tol, maxit=args.maxit)
        if args.samples < 3:
            raise ValueError("samples must be >= 3")
    report = solve_delay_lyapunov(problem, krylov=krylov)
    outdir = Path(args.outdir)  # made after the solve, so a failed one leaves none
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix(outdir / "X.mtx", report.X, comment="U(tau/2)")

    ctx = OperatorContext(problem=problem, plan=report.plan)
    grid = reconstruct_solution(ctx, report.X, args.samples)
    for k, (t, U) in enumerate(grid):
        write_matrix(outdir / f"U_{k:03d}.mtx", U, comment=f"t={t!r}")
    _write_csv(outdir / "U_grid.csv", ["index", "t", "file"],
               [(k, t, f"U_{k:03d}.mtx") for k, (t, _) in enumerate(grid)])

    _write_csv(outdir / "convergence.csv", ["iter", "relres", "cumulative_seconds"],
               [(i, r, t) for i, (r, t) in
                enumerate(zip(report.residual_history, report.iteration_seconds))])

    _write_summary(outdir / "summary.txt", [
        ("n", problem.n),
        ("method", report.method),
        ("converged", report.converged),
        ("iterations", report.iterations),
        ("refinement_passes", report.refinement_passes),
        ("refinement_iterations", report.refinement_iterations),
        ("r_alg", report.r_alg),
        ("r_sym", report.r_sym),
        ("target_met", report.target_met),
        ("tol", args.tol),
        ("propagation_degree", report.plan.degree),
        ("propagation_steps", report.plan.steps),
        ("rhs_evals_per_apply", report.plan.rhs_evals),
        ("krylov_propagation_degree", report.krylov_plan.degree),
        ("krylov_propagation_steps", report.krylov_plan.steps),
        ("krylov_rhs_evals_per_apply", report.krylov_plan.rhs_evals),
        ("tau", problem.tau),
        ("setup_seconds", report.timings.setup_seconds),
        ("apply_seconds", report.timings.apply_seconds),
        ("precond_seconds", report.timings.precond_seconds),
        ("total_seconds", report.timings.total_seconds),
    ])
    if not report.converged:
        print("krylov-maxit: no convergence within the iteration cap", file=sys.stderr)
        return 1
    how = ("solved by LU" if report.method == "lu"
           else f"converged in {report.iterations} iterations")
    print(f"{how}; r_alg={report.r_alg:.3e} r_sym={report.r_sym:.3e} "
          f"target_met={report.target_met}; wrote {outdir}")
    return 0


def cmd_bench(args):
    rows = []
    with _input_errors():  # before any solve or file write
        for token in args.grids.split(","):
            nx, ny = token.lower().split("x")
            rows.append((int(nx), int(ny)))
            if min(rows[-1]) < 1:
                raise ValueError(f"grid sizes must be >= 1, got {token}")
        _check_tau(args.tau)
        if not np.isfinite(args.f0):
            raise ValueError("f0 must be finite")
        krylov = KrylovConfig(tol=args.tol, maxit=args.maxit)
    table = bench_table(rows, f0=args.f0, tau=args.tau, krylov=krylov)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "bench.csv",
               ["n", "seconds", "iterations", "r_alg", "error"],
               [(r["n"], r["seconds"], r["iterations"], r["r_alg"], r["error"])
                for r in table])
    for r in table:
        status = r["error"] or "ok"
        print(f"n={r['n']}: iterations={r['iterations']} "
              f"seconds={r['seconds']:.1f} r_alg={r['r_alg']:.2e} [{status}]")
    return 1 if any(r["error"] for r in table) else 0


def cmd_spectrum(args):
    problem = _load_problem(args)
    _check_dense_cap(problem.n)  # before the plan and the preconditioner
    plan = plan_propagations(problem.A0, problem.A1, problem.tau)[0]
    factors = preconditioner_for(problem)
    ev = preconditioned_spectrum(OperatorContext(problem, plan=plan), factors)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "spectrum.csv", ["re", "im"],
               [(z.real, z.imag) for z in ev])
    print(f"wrote {len(ev)} eigenvalues to {outdir / 'spectrum.csv'}")
    return 0


def cmd_tsylv(args):
    with _input_errors():  # the solvers' ValueError is their input rule's
        M, N, C = (read_matrix(path) for path in (args.m, args.n, args.c_file))
        X = (tsylv_solve_kron if args.oracle else tsylv_solve)(M, N, C)
    write_matrix(args.out, X)
    print(f"wrote {args.out}")
    return 0


def cmd_pdde(args):
    with _input_errors():
        system = pdde_generate(args.nx, args.ny, f0=args.f0, tau=args.tau)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    p = system.problem
    for name, M in (("A0", p.A0), ("A1", p.A1), ("W", p.W), ("B0", p.B0), ("C0", p.C0)):
        write_matrix(outdir / f"{name}.mtx", M)
    _write_summary(outdir / "metadata.txt", [
        ("nx", system.nx), ("ny", system.ny), ("f0", system.f0),
        ("tau", p.tau), ("n", p.n),
    ])
    print(f"wrote A0/A1/W/B0/C0 and metadata to {outdir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaylyap",
        description="Delay Lyapunov equation solver "
                    "(LU on the assembled operator at small n, "
                    "preconditioned matrix-free Krylov iteration above)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem and write artifacts")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--outdir", default="out", help="output directory")
    p.add_argument("--samples", type=int, default=9,
                   help="solution samples on [-tau, tau] (default 9)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run the PDDE benchmark table")
    p.add_argument("--grids", default="5x5,11x11",
                   help="comma-separated NXxNY rows (default 5x5,11x11)")
    p.add_argument("--f0", type=float, default=5.0)
    p.add_argument("--tau", type=float, default=1.0)
    _add_solver_args(p)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("spectrum", help="eigenvalues of the preconditioned operator")
    _add_problem_args(p)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tsylv", help="solve M X + X^T N = C from files")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--c", dest="c_file", required=True)
    p.add_argument("--out", default="X.mtx")
    p.add_argument("--oracle", action="store_true",
                   help="force the dense Kronecker route")
    p.set_defaults(func=cmd_tsylv)

    p = sub.add_parser("pdde", help="write the PDDE problem matrices")
    p.add_argument("nx", type=int)
    p.add_argument("ny", type=int)
    p.add_argument("--f0", type=float, default=5.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_pdde)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
