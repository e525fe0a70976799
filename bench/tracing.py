"""Span tracing of the solver's layers from outside the package.

``Tracer.install`` replaces module attributes of ``delaylyap`` with timing
wrappers; the package sources are not touched.  Each wrapped call records a
span (name, start, end, parent span, solve id) and a count; the benchmark
opens its own spans around the calls it makes into the package.  Spans stay
in memory; ``layer_metrics`` reduces the spans of one pass to the per-layer
metrics named in BENCHMARK.json.
"""

import contextlib
import time
from collections import Counter
from importlib import import_module

# (module, attribute, span name).  A wrapper only sees calls that go through
# the module attribute, which is how these functions reach each other.
WRAPPED = (
    ("delaylyap.solver", "build_preconditioner", "precond.build"),
    ("delaylyap.solver", "apply_operator", "operators.apply"),
    ("delaylyap.solver", "apply_preconditioner", "precond.apply"),
    ("delaylyap.solver", "gmres", "krylov.solve"),
    ("delaylyap.solver", "bicgstab", "krylov.solve"),
    ("delaylyap.solver", "rk4_propagate", "solver.residual_rk4"),
    ("delaylyap.solver", "boundary_residuals", "solver.boundary_residuals"),
    ("delaylyap.precond", "eigenvalues", "linalg.eigenvalues"),
    ("delaylyap.precond", "has_no_hamiltonian_pairing", "tsylv.pairing_check"),
    ("delaylyap.precond", "factor_pencil", "tsylv.factor"),
    ("delaylyap.precond", "expm", "linalg.expm"),
    ("delaylyap.precond", "solve_with_factors", "tsylv.solve"),
    ("delaylyap.operators", "rk4_propagate", "propagation.rk4"),
)
# About 2000 calls per operator apply: counted per solve, without a span,
# so the trace stays small and its overhead low.
COUNTED = (("delaylyap.propagation", "coupled_rhs", "propagation.rhs"),)


class Tracer:
    """In-memory spans and per-solve call counts.

    A span is the list [name, start, end, parent index, solve id, iterations];
    ``iterations`` is filled for Krylov spans from the returned report.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.solve_id = None
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name in WRAPPED:
            self._replace(module, attr, self._timed(name))
        for module, attr, name in COUNTED:
            self._replace(module, attr, self._counted(name))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _replace(self, module, attr, make_wrapper):
        mod = import_module(module)
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make_wrapper(fn))

    @contextlib.contextmanager
    def span(self, name, solve_id=None):
        """Record a span around a block; ``solve_id`` tags it and its children."""
        outer = self.solve_id
        if solve_id is not None:
            self.solve_id = solve_id
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            self.solve_id = outer

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                rec[5] = getattr(out, "iterations", None)
                return out
            return wrapper
        return make

    def _counted(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name, self.solve_id] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def layer_metrics(tracer, sizes):
    """Per-layer numbers of the spans recorded since the last reset.

    ``sizes`` maps a solve id to its state dimension n, for the computed
    GEMM flop count of the propagation (8 n^3 per right-hand-side evaluation:
    four n x n products).
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(idx):
        return sum(dur[i] for i in idx)

    solves = of("solver.solve")
    solve_set = set(solves)
    main, refine = [], []
    seen = set()
    for i in of("krylov.solve"):
        # Within one solve every Krylov call after the first is refinement.
        (refine if spans[i][4] in seen else main).append(i)
        seen.add(spans[i][4])
    refine_residual = [i for i in of("operators.apply") if spans[i][3] in solve_set]
    rk4 = of("propagation.rk4") + of("solver.residual_rk4")
    rhs = sum(c for (name, _), c in tracer.counts.items() if name == "propagation.rhs")
    gflop = sum(8.0 * sizes[sid] ** 3 * c
                for (name, sid), c in tracer.counts.items()
                if name == "propagation.rhs") / 1e9
    applies = of("operators.apply")
    papplies = of("precond.apply")
    builds = of("precond.build")
    krylov = main + refine
    rk4_s = total(rk4)
    return {
        "operators.apply_calls": len(applies),
        "operators.apply_s": total(applies),
        "operators.apply_ms": 1e3 * total(applies) / max(len(applies), 1),
        "propagation.rk4_calls": len(rk4),
        "propagation.rhs_evals": rhs,
        "propagation.gflop": gflop,
        "propagation.gflop_per_s": gflop / rk4_s if rk4_s > 0 else 0.0,
        "solver.solves": len(solves),
        "solver.self_s": sum(dur[i] - child[i] for i in solves),
        "solver.refine_passes": len(refine),
        "solver.refine_iters": sum(spans[i][5] for i in refine),
        "solver.refine_s": total(refine) + total(refine_residual),
        "solver.residual_calls": len(of("solver.boundary_residuals")),
        "solver.residual_s": total(of("solver.residual_rk4"))
        + total(of("solver.boundary_residuals")),
        "krylov.calls": len(krylov),
        "krylov.iters": sum(spans[i][5] for i in main),
        "krylov.self_s": sum(dur[i] - child[i] for i in krylov),
        "precond.build_calls": len(builds),
        "precond.build_s": total(builds),
        "linalg.eig_s": total(of("linalg.eigenvalues")) + total(of("tsylv.pairing_check")),
        "tsylv.factor_s": total(of("tsylv.factor")),
        "linalg.expm_s": total(of("linalg.expm")),
        "precond.apply_calls": len(papplies),
        "precond.apply_s": total(papplies),
        "precond.apply_ms": 1e3 * total(papplies) / max(len(papplies), 1),
        "tsylv.solve_s": total(of("tsylv.solve")),
    }


def solve_breakdown(tracer):
    """Per solve id: Krylov iterations of the main solve, refinement passes
    and iterations, and operator applications, for the count self-test."""
    out = {}
    for name, _, _, _, sid, iters in tracer.spans:
        row = out.setdefault(sid, {"krylov_iters": None, "refine_passes": 0,
                                   "refine_iters": 0, "apply_calls": 0})
        if name == "krylov.solve":
            if row["krylov_iters"] is None:
                row["krylov_iters"] = iters
            else:
                row["refine_passes"] += 1
                row["refine_iters"] += iters
        elif name == "operators.apply":
            row["apply_calls"] += 1
    return out
