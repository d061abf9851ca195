"""Shared plumbing for the benchmark: environment, child processes, stats.

Every timed program operation runs in a fresh child process started
from the root of the checkout, so no in-process cache of an earlier
sample can make a later one warm.  Children are reaped with
``os.wait4`` so each one's own peak resident memory is known.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout (the benchmark lives one directory below it).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for reports, stores and ledgers; removed after each run.
WORK_ROOT = ROOT / ".perfbench"
#: The traced launcher (wraps layer entry points, then runs the CLI).
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Environment every child (and this process) runs with: one BLAS
#: thread, a fixed hash seed, the package from ``src``.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PERFBENCH_LEDGER", None)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class BenchError(Exception):
    """A check failed or the program could not be driven."""


@dataclass
class Child:
    """One finished child process."""

    argv: list[str]
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    ledger: dict = field(default_factory=dict)


def servet_argv(args: list[str], traced: bool, ledger: Path | None = None) -> list[str]:
    """The command line running ``servet <args>`` plain or traced."""
    if traced:
        return [sys.executable, str(LAUNCHER), str(ledger), *args]
    return [sys.executable, "-m", "repro", *args]


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``): (exit code, MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM unwinds as SystemExit): stop the child too.
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_servet(
    args: list[str],
    workdir: Path,
    tag: str,
    traced: bool = False,
    timeout: float = 120.0,
) -> Child:
    """Run one fresh ``servet`` process to completion and time it."""
    ledger = workdir / f"{tag}.ledger.json" if traced else None
    argv = servet_argv(args, traced, ledger)
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        code, rss = _reap(proc, timeout)
        wall = time.perf_counter() - start
    child = Child(
        argv=argv,
        returncode=code,
        wall_s=wall,
        rss_mb=rss,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )
    if ledger is not None and ledger.exists():
        child.ledger = json.loads(ledger.read_text())
    return child


class Daemon:
    """A ``servet serve --listen`` child, up until :meth:`stop`."""

    def __init__(self, args: list[str], workdir: Path, tag: str, traced: bool) -> None:
        self.ledger_path = workdir / f"{tag}.ledger.json" if traced else None
        self.argv = servet_argv(args, traced, self.ledger_path)
        self._err = open(workdir / f"{tag}.err", "wb")
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._err
        )
        self.host, self.port = self._await_listening(deadline=time.monotonic() + 60.0)

    def _await_listening(self, deadline: float) -> tuple[str, int]:
        # Raw reads: a buffered readline could hold the line in Python's
        # buffer where select() cannot see it.
        fd, seen = self.proc.stdout.fileno(), b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            for line in seen.decode().splitlines(keepends=True):
                if line.startswith("listening on ") and line.endswith("\n"):
                    host, _, port = line.split()[-1].rpartition(":")
                    return host, int(port)
        self.kill()
        raise BenchError(f"daemon never printed 'listening on': {self.argv}")

    def stop(self, timeout: float = 60.0) -> tuple[int, float, dict]:
        """Graceful drain: (exit code, peak RSS MB, ledger).

        The ``drain`` control verb, not SIGTERM: the daemon prints its
        ``listening on`` line before it installs its signal handlers, so
        an early SIGTERM would kill it instead of draining it.
        """
        from repro.serviced import ServicedClient

        with ServicedClient(self.host, self.port) as client:
            client.drain()
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            self.proc.stdout.read()
        finally:
            timer.cancel()
        code, rss = _reap(self.proc, timeout)
        self.proc.stdout.close()
        self._err.close()
        ledger = {}
        if self.ledger_path is not None and self.ledger_path.exists():
            ledger = json.loads(self.ledger_path.read_text())
        return code, rss, ledger

    def kill(self) -> None:
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


# -- statistics ------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- provenance ------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    """What a reader needs to tell two runs' code and host apart."""
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "pinned_env": dict(PINNED_ENV),
    }


# -- workload skeleton -----------------------------------------------------


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def without_wall(report: dict) -> dict:
    """A report dict minus its host-time (wall) timing components."""
    out = dict(report)
    out["timings"] = {phase: vw[0] for phase, vw in report.get("timings", {}).items()}
    return out


class Workload:
    """One benchmark workload: the three user paths, run as parts of one round.

    A workload is a list of :class:`Part` objects (the served queries,
    the cold runs, the fleet survey), each configured for the workload's
    inputs.  A set-up sets every part up; a round runs every part once,
    one after the other; the metrics are the medians of the timed
    samples the untraced rounds took, and the parts' per-layer values
    merged.  Every operation a part attempts goes through
    :meth:`attempt`; a failed check that is not a named fault goes
    through :meth:`problem` and makes the run incorrect.
    """

    def __init__(self, name: str, parts: list) -> None:
        self.name = name
        self.parts = parts
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: End-to-end seconds of each round, by traced flag.
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        #: Timed samples of the untraced rounds, by metric.
        self.samples: dict[str, list[float]] = defaultdict(list)
        for part in parts:
            part.owner = self

    def attempt(self, ok: bool, known_fault: bool = False, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.problem(f"operation failed: {what}")

    def problem(self, message: str) -> None:
        self.problems.append(message)
        if len(self.problems) <= 20:
            print(f"[{self.name}] CHECK FAILED: {message}", file=sys.stderr, flush=True)

    def sample(self, name: str, value: float) -> None:
        """One timed sample of an untraced round."""
        self.samples[name].append(value)

    def setup(self, index: int, final: bool) -> None:
        for part in self.parts:
            part.setup(index, final)

    def begin(self, traced: bool) -> None:
        for part in self.parts:
            part.begin(traced)

    def round(self, index: int, traced: bool) -> float:
        total = sum(part.round(index, traced) for part in self.parts)
        self.round_s[traced].append(total)
        return total

    def sample_medians(self) -> dict[str, float]:
        return {name: median(samples) for name, samples in self.samples.items()}

    def end_to_end(self) -> dict[str, float]:
        values = self.sample_medians()
        values["peak_rss_mb"] = max(part.finish() for part in self.parts)
        return values

    def per_layer(self) -> dict[str, float]:
        """The parts' per-layer values: summed, except ``cli.import_s``
        (the median over the parts' fresh processes); and the medians
        of the untraced rounds' samples."""
        values = self.sample_medians()
        imports = []
        for part in self.parts:
            for key, value in part.per_layer().items():
                if key == "cli.import_s":
                    imports.append(value)
                else:
                    values[key] = values.get(key, 0) + value
        values["cli.import_s"] = median(imports)
        values["trace_overhead_s"] = median(self.round_s[True]) - median(self.round_s[False])
        return values

    def close(self) -> None:
        """Stop whatever the parts still have running."""
        for part in self.parts:
            part.close()


class Part:
    """One user path of a workload: set-up, one round, metrics.

    Subclasses define :meth:`setup` (one complete set-up; the last one
    is kept), :meth:`round` (the path's timed operations, returning
    their end-to-end seconds; an untraced round hands each timed
    end-to-end sample to :meth:`sample`) and :meth:`finish`; their
    traced rounds' per-layer values go to ``traced_rounds`` (one dict
    per round) unless they override :meth:`per_layer`.
    """

    owner: Workload

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced_rounds: list[dict] = []

    def attempt(self, ok: bool, known_fault: bool = False, what: str = "") -> None:
        self.owner.attempt(ok, known_fault, what)

    def problem(self, message: str) -> None:
        self.owner.problem(message)

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problem(message)
        return condition

    def sample(self, name: str, value: float) -> None:
        self.owner.sample(name, value)

    def setup(self, index: int, final: bool) -> None:
        """One complete set-up (its work counts in ``setup_s``)."""

    def begin(self, traced: bool) -> None:
        """Hook run (untimed) before the untraced and the traced rounds."""

    def round(self, index: int, traced: bool) -> float:
        raise NotImplementedError

    def finish(self) -> float:
        """End the untraced rounds: the peak RSS (MB) of the part's
        program processes."""
        raise NotImplementedError

    def per_layer(self) -> dict[str, float]:
        if not self.traced_rounds:
            raise BenchError(f"{type(self).__name__}: no traced round ran to its end")
        keys = self.traced_rounds[0].keys()
        return {k: median(r[k] for r in self.traced_rounds) for k in keys}

    def close(self) -> None:
        """Stop whatever the part still has running."""
