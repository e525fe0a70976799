#!/usr/bin/env python3
"""Benchmark of delaylyap: wall time to a fixed accuracy in X = U(tau/2).

Run from the repository root:

    python3 bench/run.py --workload pdde --seed 1 --seconds 15 --trace 0

A run imports ``delaylyap`` from ``src/`` of the same checkout, generates
the workload's inputs, runs one warm-up pass, then repeats passes over the
inputs for ``--seconds`` seconds (closed loop, one client).  Every output is
checked against an independent reference; an instance fails on a
``SolverError``, on ``converged=False`` or on an error above the workload's
target, and the run carries on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured without
tracing; with ``--trace 1`` they are its per-layer metrics, taken from a
traced run (see tracing.py).  Earlier lines carry the environment and each
failed instance as JSON.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and scipy are imported inside functions: they load with delaylyap,
# after the set-up clock has started, and their import belongs to setup_s.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SOLVE_TARGET = 1e-8     # relative Frobenius error of X against the reference
PRECOND_TARGET = 1e-12  # normwise backward error of the T-Sylvester step
PRECOND_RHS = 8
SETUP_REPEATS = 3       # set-ups timed per run (this process plus fresh ones)
CHILD_TIMEOUT = 150

# Labels and problem arguments of each workload; the seed feeds only the
# precond-pdde right-hand sides.
SOLVE_WORKLOADS = {
    "small4": [("small4-a1", "small", 1.0), ("small4-a5", "small", 5.0)],
    "pdde": [("pdde-3x3", "pdde", 3), ("pdde-5x5", "pdde", 5)],
}
PRECOND_GRIDS = {"precond-pdde": (11, 15)}
WORKLOADS = (*SOLVE_WORKLOADS, *PRECOND_GRIDS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, used by the run itself in child processes.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "delaylyap" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'delaylyap'}")
    sys.path.insert(0, str(SRC))

    t_start = time.perf_counter()
    import delaylyap
    if Path(delaylyap.__file__).resolve().parent != SRC / "delaylyap":
        sys.exit(f"bench: imported delaylyap from {delaylyap.__file__}, not {SRC}")
    if args.write_reference:
        import reference
        reference.store({label: p for name in SOLVE_WORKLOADS
                         for label, p in generate(delaylyap, name, 0)})
        return 0

    t0 = time.perf_counter()
    instances = generate(delaylyap, args.workload, args.seed)
    generate_s = time.perf_counter() - t0
    warmup = run_pass(delaylyap, args.workload, instances, _no_span)
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(args.workload, instances)
    checker.check(warmup)
    del warmup  # outputs held across passes would show in peak_rss_mb
    print(json.dumps({"environment": environment(args.seed)}))

    if args.trace == 0:
        # The fresh set-up processes run between measured blocks, so the
        # passes sample the machine's drifting speed across the whole run.
        walls, setups = [], [setup_s]
        for block in range(SETUP_REPEATS):
            if block:
                setups.append(setup_child(args))
            walls += measure(delaylyap, args, instances, checker,
                             args.seconds / SETUP_REPEATS)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "err_digits": -math.log10(max(checker.worst, 1e-300)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        values = traced_run(delaylyap, args, instances, checker)
        values["problems.generate_s"] = generate_s
        declared = spec["per_layer"]

    names = {m["name"] for m in declared}
    if names != set(values):
        sys.exit(f"bench: metrics {sorted(set(values) ^ names)} differ from BENCHMARK.json")
    for record in checker.failures:
        print(json.dumps({"failure": record}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def generate(d, workload, seed):
    """The workload's inputs: [(label, problem)] for the solve workloads,
    [(label, problem, right-hand sides)] for precond-pdde."""
    if workload in SOLVE_WORKLOADS:
        return [(label, d.small_example(arg).problem if kind == "small"
                 else d.pdde_generate(arg, arg).problem)
                for label, kind, arg in SOLVE_WORKLOADS[workload]]
    import numpy as np
    rng = np.random.default_rng(seed)
    out = []
    for k in PRECOND_GRIDS[workload]:
        p = d.pdde_generate(k, k).problem
        out.append((f"precond-{k}x{k}", p,
                    [rng.standard_normal((p.n, p.n)) for _ in range(PRECOND_RHS)]))
    return out


def _no_span(name, solve_id=None):
    return contextlib.nullcontext()


def run_pass(d, workload, instances, span):
    """One pass over the inputs through the public entry points.

    Returns [(label, outputs or None, SolverError code or None)].  ``span``
    opens a trace span around each call into the package.
    """
    out = []
    for label, p, *rhs in instances:
        try:
            if workload in SOLVE_WORKLOADS:
                with span("solver.solve", solve_id=label):
                    result = d.solve_delay_lyapunov(p)
            else:
                with span("precond.build"):
                    factors = d.build_preconditioner(p.A0, shift=1.0, tau=p.tau)
                result = []
                for Z in rhs[0]:
                    with span("precond.apply"):
                        result.append(d.apply_preconditioner(factors, Z))
        except d.SolverError as exc:
            out.append((label, None, exc.code))
        else:
            out.append((label, result, None))
    return out


class Checker:
    """Accuracy gate and failure accounting over all passes of a run.

    Solve instances are compared with the SciPy reference of reference.py;
    each precond-pdde right-hand side is one instance, gated on the normwise
    backward error of T(Y) = Z with Y = P expm(-tau A0 / 2),
    T(Y) = (A0^T + I) Y + Y^T (A0 - I).
    """

    def __init__(self, workload, instances):
        import numpy as np
        import scipy.linalg

        self.solve = workload in SOLVE_WORKLOADS
        self.target = SOLVE_TARGET if self.solve else PRECOND_TARGET
        self.passes = 0  # pass 0 is the warm-up
        self.attempted = 0
        self.failures = []
        self.worst = 0.0
        if self.solve:
            self.refs = load_references({label: p for label, p in instances})
            return
        self.rhs = {label: rhs for label, _, rhs in instances}
        self.refs = {}
        for label, p, _ in instances:
            I = np.eye(p.n)
            self.refs[label] = (p.A0.T + I, p.A0 - I,
                                scipy.linalg.expm((-0.5 * p.tau) * p.A0))

    def check(self, outcomes):
        pass_id = self.passes
        self.passes += 1
        for label, result, code in outcomes:
            for name, err, why in self._cases(label, result, code):
                self.attempted += 1
                if math.isfinite(err):
                    self.worst = max(self.worst, err)
                if why is None and not err <= self.target:
                    why = "accuracy"
                if why is not None:
                    self.failures.append({"instance": name, "pass": pass_id, "code": why,
                                          "error": err if math.isfinite(err) else None})

    def _cases(self, label, result, code):
        """[(instance, error, failure code or None)] of one call's outputs."""
        if self.solve:
            if result is None:
                return [(label, math.nan, code)]
            return [(label, self._solve_error(label, result.X),
                     None if result.converged else "not-converged")]
        names = [f"{label}/rhs{j}" for j in range(PRECOND_RHS)]
        if result is None:
            return [(name, math.nan, code) for name in names]
        return [(name, self._backward_error(label, Z, P), None)
                for name, Z, P in zip(names, self.rhs[label], result)]

    def _solve_error(self, label, X):
        import numpy as np
        Xref = self.refs[label]
        return float(np.linalg.norm(X - Xref) / np.linalg.norm(Xref))

    def _backward_error(self, label, Z, P):
        from numpy.linalg import norm
        M, N, E = self.refs[label]
        Y = P @ E
        R = M @ Y + Y.T @ N - Z
        return float(norm(R) / ((norm(M) + norm(N)) * norm(Y) + norm(Z)))


def load_references(problems):
    """Reference X per label from the cache, recomputed in a child process
    (so its memory stays out of this process's peak RSS) when stale."""
    import reference
    refs = reference.load(problems)
    if any(x is None for x in refs.values()):
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                        "small4", "--seed", "0", "--seconds", "0", "--write-reference"],
                       cwd=ROOT, check=True, timeout=600)
        refs = reference.load(problems)
        if any(x is None for x in refs.values()):
            sys.exit("bench: reference cache does not match the problems")
    return refs


def measure(d, args, instances, checker, seconds, span=_no_span, after_pass=None):
    """Timed passes until ``seconds`` have elapsed (at least one); the
    outputs are checked after each pass, outside its timing."""
    walls = []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        outcomes = run_pass(d, args.workload, instances, span)
        walls.append(time.perf_counter() - t0)
        checker.check(outcomes)
        if after_pass is not None:
            after_pass(outcomes)
        del outcomes  # not alive during the next pass
    return walls


def traced_run(d, args, instances, checker):
    """Per-layer metrics: half the time untraced, half traced.

    Times are medians per pass; counts repeat exactly from pass to pass.
    The tracing overhead is the traced minus the untraced pass time.
    """
    import numpy as np
    import tracing

    untraced = measure(d, args, instances, checker, 0.5 * args.seconds)
    tracer = tracing.Tracer()
    sizes = {label: p.n for label, p, *_ in instances}
    per_pass = []
    last = {}

    def record_pass(outcomes):
        per_pass.append(tracing.layer_metrics(tracer, sizes))
        last.update({label: res for label, res, _ in outcomes})
        tracer.reset()

    tracer.install()
    try:
        tracer.reset()
        traced = measure(d, args, instances, checker, 0.5 * args.seconds,
                         span=tracer.span, after_pass=record_pass)
    finally:
        tracer.uninstall()

    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    r_alg = relres = 0.0
    if checker.solve:
        for label, p in instances:
            report = last.get(label)
            if report is None:
                continue
            r_alg = max(r_alg, report.r_alg)
            ctx = d.OperatorContext(problem=p, shift=1.0)
            resid = d.apply_operator(ctx, report.X) + p.W
            relres = max(relres, float(np.linalg.norm(resid) / np.linalg.norm(p.W)))
    values["solver.r_alg"] = r_alg
    values["krylov.true_relres"] = relres
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values


def setup_child(args):
    """Set-up time of a fresh process: import, input generation, warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _blas_threads(numpy):
    """OpenBLAS thread count of the library numpy loaded, or None."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
