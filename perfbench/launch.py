"""Traced ``servet``: wrap each layer's public entry points, then run the CLI.

Usage (from the root of the checkout, ``PYTHONPATH=src``)::

    python3 perfbench/launch.py LEDGER.json <servet arguments...>

The wrappers only count calls and time them; they never change an
argument or a result, so a traced run's outputs equal an untraced
run's.  Each wrapped call's *self* time is its duration minus the
wrapped calls nested inside it (per thread), so the layers' self times
add up without double counting.  When the CLI returns, the ledger is
written as JSON to ``LEDGER.json``; its layers are:

- ``core``: ``ServetSuite.run`` (one call per suite);
- ``memsim``: ``SimulatedBackend.traversal_cycles``;
- ``simmpi``: ``SimulatedBackend.message_latency`` and
  ``concurrent_message_latency``;
- ``service``: ``TuningService.query``;
- ``autotune``: ``repro.service.server.answer`` (uncached answers);
- ``workload.profile``: ``profile_workload`` as the co-scheduler calls
  it; ``workload.rank``: ``CoScheduler.rank``;
- ``fleet.survey``: ``FleetCoordinator.survey``; ``fleet.store``:
  ``ShardedFleetStore.put``.

Besides the layers it records the import time of ``repro.cli``, the
reuse recorder's streamed accesses, every durable file write, and the
process-wide traversal and communication outcome-cache counters.

A traced daemon also writes the ledger so far to ``LEDGER.json.stats``
each time it answers a ``stats`` request, before it replies, so a
client can take the ledger over any window it brackets with two
``stats`` requests.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_START = time.perf_counter()
_t = time.perf_counter()
import repro.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t

from repro import ioutils  # noqa: E402
from repro.backends.simulated import SimulatedBackend  # noqa: E402
from repro.core import ServetSuite  # noqa: E402
from repro.fleet.coordinator import FleetCoordinator  # noqa: E402
from repro.fleet.store import ShardedFleetStore  # noqa: E402
from repro.memsim.outcome import GLOBAL_COMM_CACHE, GLOBAL_OUTCOME_CACHE  # noqa: E402
from repro.service import server  # noqa: E402
from repro.serviced.daemon import TuningDaemon  # noqa: E402
from repro.workload import coschedule  # noqa: E402
from repro.workload.recorder import ReuseDistanceRecorder  # noqa: E402


class Ledger:
    """Per-layer call counts, inclusive and self seconds."""

    def __init__(self) -> None:
        self.layers: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    entry = self.layers.setdefault(
                        layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                    )
                    entry["calls"] += 1
                    entry["total_s"] += elapsed
                    entry["self_s"] += elapsed - children

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def document(self) -> dict:
        """Everything recorded so far, as written to the ledger file."""
        with self._lock:
            layers = {name: dict(entry) for name, entry in self.layers.items()}
            counts = dict(self.counts)
        return {
            "import_s": IMPORT_S,
            "wall_s": time.perf_counter() - _START,
            "layers": layers,
            "counts": counts,
            "outcome_cache": GLOBAL_OUTCOME_CACHE.stats(),
            "comm_cache": GLOBAL_COMM_CACHE.stats(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.document(), handle, sort_keys=True)


LEDGER = Ledger()


def _patch(owner, name: str, layer: str) -> None:
    setattr(owner, name, LEDGER.wrap(layer, getattr(owner, name)))


def install(ledger_path: str) -> None:
    _patch(ServetSuite, "run", "core")
    _patch(SimulatedBackend, "traversal_cycles", "memsim")
    _patch(SimulatedBackend, "message_latency", "simmpi")
    _patch(SimulatedBackend, "concurrent_message_latency", "simmpi")
    _patch(server.TuningService, "query", "service")
    _patch(server, "answer", "autotune")
    _patch(coschedule, "profile_workload", "workload.profile")
    _patch(coschedule.CoScheduler, "rank", "workload.rank")
    _patch(FleetCoordinator, "survey", "fleet.survey")
    _patch(ShardedFleetStore, "put", "fleet.store")

    observe = ReuseDistanceRecorder.observe

    def counted_observe(self, lines):
        LEDGER.count("workload.accesses", len(lines))
        return observe(self, lines)

    ReuseDistanceRecorder.observe = counted_observe

    write = ioutils.atomic_write_text

    def counted_write(*args, **kwargs):
        LEDGER.count("files_written", 1)
        return write(*args, **kwargs)

    # Modules bind the writer by name at import, so rebind it everywhere.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "atomic_write_text", None) is write
        ):
            module.atomic_write_text = counted_write

    stats = TuningDaemon.stats

    def stats_with_ledger(self):
        body = stats(self)
        LEDGER.save(ledger_path + ".stats")
        return body

    TuningDaemon.stats = stats_with_ledger


def main() -> int:
    ledger_path, argv = sys.argv[1], sys.argv[2:]
    install(ledger_path)
    code = repro.cli.main(argv)
    LEDGER.save(ledger_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
