#!/usr/bin/env python3
"""Self-tests of the benchmark: accuracy gate, exact counts, reference.

Run from the repository root (about a minute on two cores):

    python3 bench/selftest.py -v

- The accuracy gate fails an X or a preconditioner output perturbed by a
  relative 1e-6, and records SolverError codes and non-convergence.
- The traced counts of the solve workloads repeat exactly from pass to pass
  and match the counts of the package at the time the benchmark was defined.
- The SciPy reference agrees with the package's dense ``exact_propagate``
  oracle at n = 4 and with a 2000-step RK4 solve at n = 18 and n = 50.
- The traced split: operator apply is at least 85 % of a pdde pass, and
  about half of a small4 pass lies outside the main solve's operator and
  preconditioner applications.
"""

import sys
import time
import unittest
from types import SimpleNamespace

import numpy as np

import run
import tracing

sys.path.insert(0, str(run.SRC))
import delaylyap as d  # noqa: E402

# Per solve instance: main Krylov iterations, refinement passes and their
# iterations, operator applications.
EXPECTED_COUNTS = {
    "small4-a1": (11, 1, 12, 24),
    "small4-a5": (14, 1, 14, 29),
    "pdde-3x3": (33, 0, 0, 33),
    "pdde-5x5": (45, 0, 0, 45),
}


def traced_passes(workload, passes):
    """Per pass: (wall time, tracer spans, per-solve breakdown)."""
    instances = run.generate(d, workload, 0)
    run.run_pass(d, workload, instances, run._no_span)
    tracer = tracing.Tracer()
    tracer.install()
    out = []
    try:
        for _ in range(passes):
            tracer.reset()
            t0 = time.perf_counter()
            run.run_pass(d, workload, instances, tracer.span)
            wall = time.perf_counter() - t0
            out.append((wall, list(tracer.spans), tracing.solve_breakdown(tracer)))
    finally:
        tracer.uninstall()
    return out


class AccuracyGate(unittest.TestCase):
    def test_solve_gate(self):
        instances = run.generate(d, "small4", 0)
        checker = run.Checker("small4", instances)
        ok, bad, unconverged = [], [], []
        rng = np.random.default_rng(0)
        for label, _ in instances:
            X = checker.refs[label]
            E = rng.standard_normal(X.shape)
            Xbad = X + 1e-6 * np.linalg.norm(X) / np.linalg.norm(E) * E
            ok.append((label, SimpleNamespace(X=X.copy(), converged=True), None))
            bad.append((label, SimpleNamespace(X=Xbad, converged=True), None))
            unconverged.append((label, SimpleNamespace(X=X.copy(), converged=False), None))
        checker.check(ok)
        self.assertEqual(checker.failures, [])
        checker.check(bad)
        checker.check(unconverged)
        checker.check([(instances[0][0], None, "krylov-breakdown")])
        self.assertEqual(checker.attempted, 7)
        self.assertEqual([f["code"] for f in checker.failures],
                         ["accuracy", "accuracy", "not-converged", "not-converged",
                          "krylov-breakdown"])
        self.assertTrue(all(9e-7 < f["error"] < 1.1e-6 for f in checker.failures[:2]))

    def test_precond_gate(self):
        instances = run.generate(d, "precond-pdde", 3)[:1]
        label, p, rhs = instances[0]
        checker = run.Checker("precond-pdde", instances)
        factors = d.build_preconditioner(p.A0, shift=1.0, tau=p.tau)
        outs = [d.apply_preconditioner(factors, Z) for Z in rhs]
        checker.check([(label, outs, None)])
        self.assertEqual(checker.failures, [])
        self.assertLess(checker.worst, run.PRECOND_TARGET)
        # A random direction: scaling P alone moves the residual only by
        # 1e-6 ||Z||, far below ||T|| ||Y||.
        E = np.random.default_rng(0).standard_normal(outs[0].shape)
        outs[0] = outs[0] + 1e-6 * np.linalg.norm(outs[0]) / np.linalg.norm(E) * E
        checker.check([(label, outs, None)])
        self.assertEqual([(f["instance"], f["code"]) for f in checker.failures],
                         [(f"{label}/rhs0", "accuracy")])


class Counts(unittest.TestCase):
    def test_counts_repeat_and_match(self):
        for workload in ("small4", "pdde"):
            (_, _, first), (_, _, second) = traced_passes(workload, 2)
            self.assertEqual(first, second)
            for label, row in first.items():
                got = (row["krylov_iters"], row["refine_passes"],
                       row["refine_iters"], row["apply_calls"])
                self.assertEqual(got, EXPECTED_COUNTS[label], label)


class Reference(unittest.TestCase):
    def setUp(self):
        self.problems = {label: p for w in run.SOLVE_WORKLOADS
                         for label, p in run.generate(d, w, 0)}
        self.refs = run.load_references(self.problems)

    @staticmethod
    def rel(X, Y):
        return np.linalg.norm(X - Y) / np.linalg.norm(Y)

    def test_matches_exact_propagate_at_n4(self):
        # The operator's condition number is about 1.6e7 at both couplings,
        # so operators agreeing to ~4e-15 give solutions agreeing to ~1e-10.
        for label in ("small4-a1", "small4-a5"):
            p = self.problems[label]
            n = p.n
            L = np.empty((n * n, n * n))
            I = np.eye(n)
            for j in range(n * n):
                E = np.zeros(n * n)
                E[j] = 1.0
                res = d.exact_propagate(p.A0, p.A1, E.reshape(n, n).T, p.tau)
                Z1, Z2 = res.Z1_end, res.Z2_end
                Lj = Z2.T @ (p.A0 - I) + (p.A0.T + I) @ Z2 + Z1.T @ p.A1 + p.A1.T @ Z1
                L[:, j] = Lj.T.ravel()
            X = np.linalg.solve(L, -p.W.T.ravel()).reshape(n, n).T
            self.assertLess(self.rel(X, self.refs[label]), 1e-9, label)

    def test_matches_fine_rk4(self):
        for label in ("pdde-3x3", "pdde-5x5"):
            report = d.solve_delay_lyapunov(self.problems[label],
                                            ode=d.OdeConfig(steps=2000))
            err = self.rel(report.X, self.refs[label])
            print(f"\n  {label}: 2000-step RK4 vs reference {err:.2e}", end="")
            self.assertLess(err, 1e-10, label)


class Split(unittest.TestCase):
    def test_apply_dominates_pdde(self):
        (wall, spans, _), = traced_passes("pdde", 1)
        apply_s = sum(s[2] - s[1] for s in spans if s[0] == "operators.apply")
        print(f"\n  pdde: apply {apply_s / wall:.1%} of the pass", end="")
        self.assertGreaterEqual(apply_s / wall, 0.85)

    def test_small4_half_outside_main_solve(self):
        (wall, spans, _), = traced_passes("small4", 1)
        main, seen = set(), set()
        for i, s in enumerate(spans):
            if s[0] == "krylov.solve" and s[4] not in seen:
                main.add(i)
                seen.add(s[4])
        inside = sum(s[2] - s[1] for s in spans
                     if s[3] in main and s[0] in ("operators.apply", "precond.apply"))
        outside = 1.0 - inside / wall
        print(f"\n  small4: {outside:.1%} outside the main solve's applies", end="")
        self.assertTrue(0.3 <= outside <= 0.7, outside)


if __name__ == "__main__":
    unittest.main()
