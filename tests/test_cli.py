import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import delaylyap
from delaylyap import (
    OperatorContext,
    TdsProblem,
    build_preconditioner,
    pdde_generate,
    preconditioned_spectrum,
    read_matrix,
    small_example,
    tsylv_solve,
    tsylv_solve_kron,
    write_matrix,
)
from delaylyap.cli import main


def write_all(tmp_path, **matrices):
    paths = {}
    for name, M in matrices.items():
        paths[name] = str(tmp_path / f"{name}.mtx")
        write_matrix(paths[name], M)
    return paths


def assert_invalid_input(status, capsys):
    assert status == 1
    assert capsys.readouterr().err.startswith("error: invalid-input: ")


def test_solve_mismatched_shapes(tmp_path, capsys):
    f = write_all(tmp_path, A0=-np.eye(3), A1=np.zeros((2, 2)), W=np.eye(3))
    status = main(["solve", "--a0", f["A0"], "--a1", f["A1"], "--w", f["W"],
                   "--outdir", str(tmp_path / "out")])
    assert_invalid_input(status, capsys)


def _rotated_hidden_pair():
    """mu = {10, 0.1} behind a 1e5 off-diagonal, rotated: the computed
    eigenvalues miss the reciprocal pair, the growth of X does not."""
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
    return {"M": q @ np.array([[10.0, 1e5], [0.0, 1.0]]) @ q.T,
            "N": (q @ np.array([[1.0, 1e5], [0.0, 10.0]]) @ q.T).T,
            "C": np.array([[1.0, 2.0], [3.0, 4.0]])}


def _complex(name):
    data = {"M": 2.0 * np.eye(3), "N": np.eye(3), "C": np.eye(3)}
    data[name] = data[name] + 1j * np.eye(3)
    return data


# M and N^T share the null vector e_1: the pencil's mu_1 is 0/0
SINGULAR_PENCIL = {"M": np.diag([0.0, 1.0]), "N": np.diag([0.0, 2.0]), "C": np.ones((2, 2))}


# Malformed and degenerate T-Sylvester input.  A row runs `tsylv` through
# main() on the "schur" or "oracle" route and expects an error code, or None
# for a solve written to --out; or it calls a solver from Python and
# expects an exception.
@pytest.mark.parametrize("route, data, expected", [
    pytest.param("schur", {"M": np.eye(3), "N": np.eye(2), "C": np.eye(3)}, "invalid-input",
                 id="mismatched-shapes"),
    *(pytest.param("schur", _complex(name), "invalid-input", id=f"complex-{name}")
      for name in "MNC"),
    pytest.param("schur", SINGULAR_PENCIL, "tsylv-near-singular", id="singular-pencil"),
    pytest.param("oracle", SINGULAR_PENCIL, "tsylv-near-singular", id="singular-pencil-oracle"),
    # norms of M overflow unless scaled: solved, with no warning and no nan
    pytest.param("schur", {"M": -1e308 * np.eye(2), "N": np.eye(2), "C": np.eye(2)}, None,
                 id="huge-M"),
    pytest.param("oracle", {"M": 2.0 * np.eye(61), "N": np.eye(61), "C": np.eye(61)},
                 "oracle-too-large", id="oracle-above-cap"),
    pytest.param("schur", _rotated_hidden_pair(), "tsylv-near-singular",
                 id="hidden-reciprocal-pair"),
    *(pytest.param(solve, dict.fromkeys("MNC", np.zeros((0, 0))), ValueError, id=f"empty-{name}")
      for name, solve in (("python", tsylv_solve), ("python-oracle", tsylv_solve_kron))),
    # a non-finite entry breaks the input rule on both routes, before QZ or
    # the Kronecker matrix sees it
    *(pytest.param(solve, {"M": np.array([[1.0, bad], [0.0, 1.0]]), "N": np.eye(2),
                           "C": np.eye(2)}, ValueError, id=f"{bad}-{name}")
      for bad in (np.nan, np.inf)
      for name, solve in (("python", tsylv_solve), ("python-oracle", tsylv_solve_kron))),
])
def test_tsylv_input(route, data, expected, tmp_path, capsys):
    out = tmp_path / "X.mtx"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if callable(route):
            with pytest.raises(expected):
                route(data["M"], data["N"], data["C"])
            return
        f = write_all(tmp_path, **data)
        status = main(["tsylv", "--m", f["M"], "--n", f["N"], "--c", f["C"], "--out", str(out),
                       *(["--oracle"] if route == "oracle" else [])])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    if expected is None:
        assert (status, captured.err) == (0, "")
        X = read_matrix(out)
        M, N, C = data["M"], data["N"], data["C"]
        assert np.linalg.norm(M @ X + X.T @ N - C) <= 1e-15 * np.linalg.norm(C)
    else:
        assert status == 1
        assert captured.err.startswith(f"error: {expected}: ")
        assert not out.exists()


EMPTY_HEADERS = {"array": "%%MatrixMarket matrix array real general\n0 0\n",
                 "coordinate": "%%MatrixMarket matrix coordinate real general\n0 0 0\n"}


def test_solve_empty_array_file_is_invalid_input(tmp_path):
    # mmread of a 0 x 0 array file dies of SIGFPE, so the CLI runs in a
    # child process, where such a crash fails the test instead of pytest
    path = tmp_path / "empty.mtx"
    path.write_text(EMPTY_HEADERS["array"])
    src = str(Path(delaylyap.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "delaylyap.cli", "solve", "--a0", str(path),
                           "--a1", str(path), "--w", str(path), "--outdir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: invalid-input: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "spectrum", "tsylv"])
def test_empty_coordinate_file_is_invalid_input(command, tmp_path, capsys):
    path = tmp_path / "empty.mtx"
    path.write_text(EMPTY_HEADERS["coordinate"])
    if command == "tsylv":
        argv = ["tsylv", "--m", str(path), "--n", str(path), "--c", str(path),
                "--out", str(tmp_path / "out")]
    else:
        argv = [command, "--a0", str(path), "--a1", str(path), "--w", str(path),
                "--outdir", str(tmp_path / "out")]
    assert_invalid_input(main(argv), capsys)
    assert not (tmp_path / "out").exists()


def test_missing_matrix_file(tmp_path, capsys):
    f = write_all(tmp_path, A1=np.zeros((3, 3)), W=np.eye(3))
    status = main(["solve", "--a0", str(tmp_path / "missing.mtx"), "--a1", f["A1"],
                   "--w", f["W"], "--outdir", str(tmp_path / "out")])
    assert_invalid_input(status, capsys)


def test_convergence_csv_carries_measured_times(tmp_path):
    assert main(["solve", "--small-example", "--samples", "3",
                 "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0] == "iter,relres,cumulative_seconds"
    seconds = [float(row.split(",")[2]) for row in rows[1:]]
    summary = dict(line.split("=", 1)
                   for line in (tmp_path / "summary.txt").read_text().splitlines())
    assert len(seconds) == int(summary["iterations"]) + 1
    assert all(0.0 <= a <= b for a, b in zip(seconds, seconds[1:]))
    assert seconds[-1] <= float(summary["total_seconds"])


def test_spectrum_above_dense_cap(tmp_path, capsys, monkeypatch):
    import delaylyap.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("called above the dense-assembly cap")

    monkeypatch.setattr(delaylyap.cli, "preconditioner_for", unreachable)
    monkeypatch.setattr(delaylyap.cli, "OperatorContext", unreachable)
    status = main(["spectrum", "--pdde", "5", "5", "--outdir", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: oracle-too-large: ")
    assert not (tmp_path / "out").exists()


def test_planner_overflow_is_exp_overflow(tmp_path, capsys):
    status = main(["solve", "--small-example", "--alpha", "1e308",
                   "--outdir", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: exp-overflow: ")


def test_propagation_overflow_is_exp_overflow(tmp_path, capsys):
    # the plan is affordable, the propagated pair overflows in the first apply
    status = main(["solve", "--small-example", "--alpha", "1e4",
                   "--outdir", str(tmp_path / "out")])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exp-overflow: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bench_malformed_grid(tmp_path, capsys):
    status = main(["bench", "--grids", "5", "--outdir", str(tmp_path / "out")])
    assert_invalid_input(status, capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    # spectrum runs no Krylov solve, so it takes no method, tolerance or cap
    ["spectrum", "--small-example", "--method", "bicgstab"],
    ["spectrum", "--small-example", "--tol", "1e-8"],
    ["spectrum", "--small-example", "--maxit", "5"],
    # the shift is the constant c = 1, so no subcommand takes it
    ["spectrum", "--small-example", "--shift", "2"],
    ["solve", "--small-example", "-c", "2"],
    ["bench", "--shift", "2"],
    # every solve runs GMRES on the planned propagation, so no subcommand
    # takes a Krylov method or a fixed step count
    ["solve", "--small-example", "--steps", "7"],
    ["bench", "--steps", "7"],
    ["spectrum", "--small-example", "--steps", "7"],
    ["solve", "--small-example", "--method", "bicgstab"],
    ["bench", "--method", "bicgstab"],
])
def test_option_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def read_summary(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


@pytest.mark.parametrize("argv", [
    ["solve", "--small-example", "--samples", "2"],
    ["solve", "--small-example", "--tol", "2"],
    ["solve", "--small-example", "--maxit", "0"],
    ["solve", "--pdde", "3", "3", "--tau", "nan"],
    ["solve", "--pdde", "3", "3", "--tau", "inf"],
    ["solve", "--small-example", "--tau", "nan"],
    ["spectrum", "--small-example", "--tau", "nan"],
    ["bench", "--grids", "3x3", "--tol", "5"],
    ["bench", "--grids", "3x3", "--maxit", "0"],
    ["pdde", "0", "3"],
    ["bench", "--grids", "0x3"],
    ["bench", "--grids", "3x3", "--tau", "nan"],
    ["bench", "--grids", "3x3", "--f0", "inf"],
])
def test_configuration_error_is_invalid_input(argv, tmp_path, capsys):
    outdir = tmp_path / "out"
    status = main(argv + ["--outdir", str(outdir)])
    assert_invalid_input(status, capsys)
    assert not outdir.exists()  # rejected before any solve or file write


def test_summary_reports_the_krylov_plan(tmp_path):
    # the Krylov applies run the 2^-24 plan, never more terms than the
    # 2^-53 plan of the residual checks.  PDDE 3x3 (n = 18) lies above the
    # LU switch
    assert main(["solve", "--pdde", "3", "3", "--samples", "3",
                 "--outdir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.txt")
    degree = int(summary["krylov_propagation_degree"])
    steps = int(summary["krylov_propagation_steps"])
    assert (degree, steps) == (35, 1)
    assert int(summary["krylov_rhs_evals_per_apply"]) == degree * steps
    assert degree * steps <= int(summary["rhs_evals_per_apply"])


def test_zero_delay_summary_ignores_steps(tmp_path):
    # tau = 0 plans (0, 1): no Taylor term on either plan
    assert main(["solve", "--pdde", "3", "3", "--tau", "0",
                 "--samples", "3", "--outdir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.txt")
    for prefix in ("", "krylov_"):
        assert (summary[f"{prefix}propagation_degree"], summary[f"{prefix}propagation_steps"],
                summary[f"{prefix}rhs_evals_per_apply"]) == ("0", "1", "0")


def test_solve_without_problem_source_is_invalid_input(tmp_path, capsys):
    outdir = tmp_path / "out"
    status = main(["solve", "--outdir", str(outdir)])
    assert_invalid_input(status, capsys)
    assert not outdir.exists()


def test_direct_route_summary(tmp_path):
    # at n = 4 the solve is LU on the operator assembled on the 2^-53 plan:
    # no Krylov iteration, and the krylov_ keys give that plan
    assert main(["solve", "--small-example", "--samples", "3",
                 "--outdir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.txt")
    assert (summary["method"], summary["converged"], summary["iterations"]) == ("lu", "True", "0")
    assert (summary["refinement_passes"], summary["target_met"]) == ("0", "True")
    for key in ("propagation_degree", "propagation_steps", "rhs_evals_per_apply"):
        assert summary[f"krylov_{key}"] == summary[key]


@pytest.mark.parametrize("alpha, met", [("12", "False"), ("5", "True")])
def test_summary_reports_a_missed_target(alpha, met, tmp_path, capsys):
    # alpha 12 ends with r_alg above 1e-8: the summary says so, and the
    # exit code stays 0, as for any converged solve
    assert main(["solve", "--small-example", "--alpha", alpha, "--samples", "3",
                 "--outdir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.txt")
    assert summary["target_met"] == met
    assert (float(summary["r_alg"]) <= 1e-8) == (met == "True")


def test_small_example_honours_tau(tmp_path):
    assert main(["solve", "--small-example", "--tau", "2", "--samples", "3",
                 "--outdir", str(tmp_path)]) == 0
    assert read_summary(tmp_path / "summary.txt")["tau"] == "2"


def test_spectrum_small_example(tmp_path):
    assert main(["spectrum", "--small-example", "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "re,im"
    got = np.array([complex(*map(float, row.split(","))) for row in rows[1:]])
    problem = small_example(1.0).problem
    want = preconditioned_spectrum(OperatorContext(problem=problem),
                                   build_preconditioner(problem.A0, tau=problem.tau))
    assert len(got) == 16
    assert np.array_equal(got, want)


def test_spectrum_at_zero_delay_is_one(tmp_path):
    # at tau = 0 the operator is the T-Sylvester map of A0 + A1, which the
    # preconditioner built from A0 + A1 inverts, as on the Krylov route
    assert main(["spectrum", "--small-example", "--tau", "0", "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    got = np.array([complex(*map(float, row.split(","))) for row in rows])
    assert len(got) == 16
    assert np.abs(got - 1.0).max() <= 1e-12


def test_spectrum_of_a_pairing_a0(tmp_path):
    # A0 = diag(0.5, -0.5) pairs and A0 + A1 does not: spectrum builds the
    # preconditioner from A0 + A1, as the Krylov route does
    A0, A1 = np.diag([0.5, -0.5]), -np.eye(2)
    f = write_all(tmp_path, A0=A0, A1=A1, W=np.eye(2))
    assert main(["spectrum", "--a0", f["A0"], "--a1", f["A1"], "--w", f["W"],
                 "--outdir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    got = np.array([complex(*map(float, row.split(","))) for row in rows])
    problem = TdsProblem(A0=A0, A1=A1, tau=1.0, W=np.eye(2))
    want = preconditioned_spectrum(OperatorContext(problem=problem),
                                   build_preconditioner(A0 + A1, tau=1.0))
    assert np.array_equal(got, want)


def test_spectrum_plans_before_building(tmp_path, capsys, monkeypatch):
    # A0 = -1e308 I: the planner refuses it, silently, before the
    # preconditioner is built, as solve does
    import delaylyap.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the preconditioner was built before the plan")

    monkeypatch.setattr(delaylyap.cli, "preconditioner_for", unreachable)
    f = write_all(tmp_path, A0=-1e308 * np.eye(2), A1=np.zeros((2, 2)), W=np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["spectrum", "--a0", f["A0"], "--a1", f["A1"], "--w", f["W"],
                       "--outdir", str(tmp_path / "out")])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exp-overflow: ")
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_zero_cost_solve_writes_zero_solution(tmp_path, capsys):
    assert main(["pdde", "3", "3", "--outdir", str(tmp_path)]) == 0
    write_matrix(tmp_path / "zero.mtx", np.zeros((18, 18)))
    outdir = tmp_path / "out"
    status = main(["solve", "--a0", str(tmp_path / "A0.mtx"), "--a1", str(tmp_path / "A1.mtx"),
                   "--w", str(tmp_path / "zero.mtx"), "--samples", "3", "--outdir", str(outdir)])
    assert status == 0
    assert "error" not in capsys.readouterr().err
    X = read_matrix(outdir / "X.mtx")
    assert X.shape == (18, 18) and not X.any()
    summary = read_summary(outdir / "summary.txt")
    assert (summary["converged"], summary["iterations"], summary["r_alg"]) == ("True", "0", "0")


@pytest.mark.parametrize("alpha, code", [("1e308", "exp-overflow"), ("1e20", "plan-too-large"),
                                         ("1000", "singular-matrix")])
def test_failed_solve_leaves_no_outdir(alpha, code, tmp_path, capsys):
    outdir = tmp_path / "out"
    status = main(["solve", "--small-example", "--alpha", alpha, "--outdir", str(outdir)])
    assert status == 1
    assert capsys.readouterr().err.startswith(f"error: {code}: ")
    assert not outdir.exists()


def test_solve_complex_matrix_is_invalid_input(tmp_path, capsys):
    f = write_all(tmp_path, A0=-np.eye(3) + 0.5j * np.eye(3), A1=np.zeros((3, 3)),
                  W=np.eye(3))
    status = main(["solve", "--a0", f["A0"], "--a1", f["A1"], "--w", f["W"],
                   "--outdir", str(tmp_path / "out")])
    assert_invalid_input(status, capsys)
    assert not (tmp_path / "out").exists()


def test_solve_maxit_reports_krylov_maxit(tmp_path, capsys):
    # PDDE 3x3 (n = 18) lies above the LU switch, which reads no --maxit
    status = main(["solve", "--pdde", "3", "3", "--maxit", "1", "--samples", "3",
                   "--outdir", str(tmp_path)])
    assert status == 1
    assert "krylov-maxit" in capsys.readouterr().err
    assert read_summary(tmp_path / "summary.txt")["converged"] == "False"


@pytest.mark.parametrize("extra, status, error",
                         [([], 0, ""), (["--maxit", "1"], 1, "krylov-maxit")])
def test_bench_writes_one_row_per_grid(extra, status, error, tmp_path):
    assert main(["bench", "--grids", "3x3", "--outdir", str(tmp_path)] + extra) == status
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == "n,seconds,iterations,r_alg,error"
    assert len(rows) == 2
    n, seconds, iterations, r_alg, got = rows[1].split(",")
    assert (n, got) == ("18", error)
    assert float(seconds) > 0.0 and int(iterations) >= 1


def test_pdde_writes_matrices_and_metadata(tmp_path):
    assert main(["pdde", "3", "3", "--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "A0.mtx", "A1.mtx", "B0.mtx", "C0.mtx", "W.mtx", "metadata.txt"]
    problem = pdde_generate(3, 3).problem
    assert np.array_equal(read_matrix(tmp_path / "A0.mtx"), problem.A0)
    assert read_summary(tmp_path / "metadata.txt")["n"] == "18"


def test_tsylv_default_route_agrees_with_oracle(tmp_path):
    rng = np.random.default_rng(3)
    f = write_all(tmp_path, M=rng.standard_normal((4, 4)) + 3.0 * np.eye(4),
                  N=rng.standard_normal((4, 4)), C=rng.standard_normal((4, 4)))
    out = {}
    for route, extra in (("schur", []), ("oracle", ["--oracle"])):
        out[route] = str(tmp_path / f"X_{route}.mtx")
        assert main(["tsylv", "--m", f["M"], "--n", f["N"], "--c", f["C"],
                     "--out", out[route]] + extra) == 0
    X, ref = read_matrix(out["schur"]), read_matrix(out["oracle"])
    assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)
