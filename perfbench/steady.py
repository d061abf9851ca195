"""Steadiness self-check: two sets of runs of the same code, compared.

Usage (from the root of the checkout)::

    python3 perfbench/steady.py

Two sets of ten runs of every workload, each run
``perfbench/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json`` with its own seed (1-10, then 11-20); the workloads
are interleaved run by run so slow drift of the host touches all of
them alike.  For every end-to-end metric of every workload it prints
each set's median and quartiles, the spread (Q3 - Q1 as a share of the
median, as ``statistics.quantiles(n=4)`` gives the quartiles), how far
the second median is from the first (positive: worse), and the bound
from ``BENCHMARK.json``.  A metric passes when both spreads and the
drift, either way, stay within the bound; a workload passes when every
run is correct and the share of failed operations is the same in every
run.  Raw results go to ``.perfbench/steady-<time>.json``.  Exit code 0
only if all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK_ROOT, quartiles  # noqa: E402

SETS, RUNS = 2, 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    print(
        f"  {workload:13s} seed {seed:3d} {wall:5.1f}s "
        + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
        flush=True,
    )
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for r in range(RUNS):
            seed = 1 + s * RUNS + r
            for name in names:
                results[name][s].append(one_run(name, seed, spec["run_seconds"]))

    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1))

    passed = True
    print(f"\n{'workload':13s} {'metric':22s} {'bound':>5s}  "
          + "  ".join(f"{'set' + str(s + 1) + ' median [Q1, Q3] spread':>40s}" for s in range(SETS))
          + "  drift")
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        correct = all(r["correct"] for rs in runs for r in rs)
        ok = correct and len(shares) == 1
        passed &= ok
        print(f"{name}: correct={correct} failed share={sorted(shares)} "
              f"run wall {min(r['wall_s'] for rs in runs for r in rs):.1f}-"
              f"{max(r['wall_s'] for rs in runs for r in rs):.1f}s")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            cells, medians, verdict = [], [], True
            for rs in runs:
                q1, q2, q3 = quartiles([r["metrics"][key]["value"] for r in rs])
                spread = (q3 - q1) / q2
                medians.append(q2)
                verdict &= spread <= metric["bound"]
                cells.append(f"{q2:12.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%}")
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict &= abs(worse) <= metric["bound"]
            passed &= verdict
            print(f"{'':13s} {key:22s} {metric['bound']:5.2f}  " + "  ".join(cells)
                  + f"  {worse:+6.1%}" + ("" if verdict else "  FAIL"))
    print(f"\nraw results: {out}\n{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
