"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of the checkout)::

    python3 perfbench/run.py --workload defaults --seed 1 --seconds 40 --trace 0

Every workload runs the same three user paths, one after the other in
each round: remote queries to a warm daemon, fresh ``servet run``
processes on Dunnington and 2-node Finis Terrae, and a fresh fleet
survey.  The workloads differ in their inputs (``WORKLOADS``).  A run
sets the workload up several times (``SETUPS``; ``setup_s`` is the
median), then measures whole rounds while the next round would end
within ``--seconds``, give or take half a round.  With ``--trace 0`` it
prints every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it spends the first half of the time on untraced rounds
and the second half on rounds through the traced launcher
(``launch.py``), and prints every per-layer metric, including
``unattributed_s`` and ``trace_overhead_s``.  The last line of
standard output is always the result object; a provenance line
precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import PINNED_ENV, ROOT, WORK_ROOT, BenchError, Workload, median, provenance  # noqa: E402

#: Complete set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Workload name -> whether its cold runs add ``--prune topology``.
WORKLOADS = {"defaults": False, "pruned": True}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    from cold_run import ColdRun
    from fleet_survey import FleetSurvey
    from serve_remote import ServeRemote

    parts = [
        ServeRemote(seed, workdir),
        ColdRun(seed, workdir, prune=WORKLOADS[name]),
        FleetSurvey(seed, workdir),
    ]
    return Workload(name, parts)


def run_rounds(bench, traced: bool, budget: float) -> None:
    """Whole rounds while the next one would end by ``budget`` seconds,
    give or take half a round."""
    bench.begin(traced)
    start = time.perf_counter()
    index, durations = 0, []
    while True:
        t = time.perf_counter()
        bench.round(index if not traced else 1000 + index, traced)
        durations.append(time.perf_counter() - t)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + sum(durations) / len(durations) / 2 > budget:
            return


def measure(bench, seconds: float, trace: bool) -> dict[str, float]:
    setups = []
    for index in range(SETUPS):
        t = time.perf_counter()
        bench.setup(index, final=index == SETUPS - 1)
        setups.append(time.perf_counter() - t)
    if not trace:
        run_rounds(bench, traced=False, budget=seconds)
        return {"setup_s": median(setups), **bench.end_to_end()}
    run_rounds(bench, traced=False, budget=seconds / 2)
    run_rounds(bench, traced=True, budget=seconds / 2)
    return bench.per_layer()


def _terminate(signum, frame):
    # Unwind through the ``finally`` below so the children are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = make_workload(args.workload, args.seed, workdir)
    try:
        values = measure(bench, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # A run measures some metrics of both sections (the untraced rounds
    # of a traced run take the end-to-end samples too); print this one's.
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if len(bench.problems) > 20:
        print(f"[{args.workload}] ... {len(bench.problems) - 20} more failed checks", file=sys.stderr)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
