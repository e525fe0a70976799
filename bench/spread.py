#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out spread.json

Each (workload, seed) is one ``bench/run.py --trace 0`` run of
``run_seconds`` from BENCHMARK.json, run one after another.  For every
end-to-end metric this prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, "run_s": time.perf_counter() - t0,
                         "correct": result["correct"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
        rows = {}
        print(f"{workload}: {len(runs)} runs, "
              f"longest {max(r['run_s'] for r in runs):.1f} s")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"]}
            print(f"  {m['name']:12s} median {med:.5g} {m['unit']:6s} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                  f"(bound {m['bound']}, a third {m['bound'] / 3:.3f})")
        summary[workload] = {"metrics": rows, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
