import numpy as np

from delaylyap import write_matrix
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


def test_tsylv_mismatched_shapes(tmp_path, capsys):
    f = write_all(tmp_path, M=np.eye(3), N=np.eye(2), C=np.eye(3))
    status = main(["tsylv", "--m", f["M"], "--n", f["N"], "--c", f["C"],
                   "--out", str(tmp_path / "X.mtx")])
    assert_invalid_input(status, capsys)
    assert not (tmp_path / "X.mtx").exists()


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


def test_tsylv_oracle_above_cap(tmp_path, capsys):
    f = write_all(tmp_path, M=2.0 * np.eye(61), N=np.eye(61), C=np.eye(61))
    status = main(["tsylv", "--m", f["M"], "--n", f["N"], "--c", f["C"],
                   "--out", str(tmp_path / "X.mtx"), "--oracle"])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: oracle-too-large: ")
    assert not (tmp_path / "X.mtx").exists()


def test_bench_malformed_grid(tmp_path, capsys):
    status = main(["bench", "--grids", "5", "--outdir", str(tmp_path / "out")])
    assert_invalid_input(status, capsys)
    assert not (tmp_path / "out").exists()
