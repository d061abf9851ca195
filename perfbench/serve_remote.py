"""Remote serving: a warm tuning daemon answering one client connection.

Set-up stores a noise-0 Dunnington report in a fresh registry (through
``servet run --registry``, which also imports the package and compiles
its bytecode), starts ``servet serve --listen`` on it and asks one
untimed warm-up query.  The daemon stays up for the whole run.  Each
round then times:

- a pipelined stream of ``BATCHES`` x ``BATCH`` queries, a seeded Zipf
  draw over ``default_query_pool`` of the served report;
- ``ROUNDTRIPS`` closed-loop queries, one at a time;
- ``CLI_PER_ROUND`` fresh ``servet query - latency --remote HOST:PORT``
  processes, each for a seeded core pair and message size;
- one ``co-schedule`` question the daemon has not seen (a fresh
  workload seed), on the open connection.

Every answer is compared with the same question answered directly from
the stored report file, with no cache, daemon or wire in between (the
co-schedule answers after the timed rounds).

The traced rounds run against a second, traced daemon whose answer
cache is first filled with the query pool.  Its ``stats`` counters and
its ledger are read just before and just after the traced rounds, and
the per-layer values are the differences per round, so neither the
warm-up nor anything after the rounds counts.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from common import (
    BenchError,
    Daemon,
    Part,
    canonical,
    median,
    nproc,
    run_servet,
)

BATCHES, BATCH = 10, 1000
#: Fresh ``servet query --remote`` processes per round.
CLI_PER_ROUND = 2
ZIPF_S = 1.1
#: The co-scheduling golden mix at a quarter of its size: a streaming
#: hog, a blocked kernel, a Zipf pointer chase and a stencil, placed
#: onto two shared-L2 instances (three partitions).
MIX = (
    "streaming:lines=20480,rounds=2",
    "blocked:lines=512,block=256,repeats=16,rounds=5",
    "zipf:accesses=40960,lines=8192,s=1.1",
    "stencil:lines=4096,halo=2,sweeps=2",
)
COSCHEDULE_LEVEL, COSCHEDULE_INSTANCES = 2, 2
LATENCY_SIZES = (512, 4096, 65536)
ROUNDTRIPS = 200


def codec_seconds(batch, reference: dict, version: int) -> tuple[float, float]:
    """Seconds to encode ``batch``'s request frames and to decode the
    matching response frames from memory (no socket, no waiting)."""
    import io

    from repro.serviced.protocol import encode_frame, ok_response, query_request, read_frame

    t = time.perf_counter()
    for i, query in enumerate(batch):
        encode_frame(query_request(query, i))
    encode = time.perf_counter() - t
    stream = io.BytesIO(
        b"".join(
            encode_frame(ok_response(i, answer=reference[q], version=version))
            for i, q in enumerate(batch)
        )
    )
    t = time.perf_counter()
    for _ in batch:
        read_frame(stream.read)
    return encode, time.perf_counter() - t


def jsonable(data):
    """``data`` as it reads after a trip through JSON."""
    return json.loads(json.dumps(data))


class ServeRemote(Part):
    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.daemon = None
        self.client = None
        self.pool = None
        self.imports: list[float] = []
        self.roundtrip_ms: list[float] = []
        self.daemon_rss: list[float] = []
        #: Seconds of each traced round.
        self.traced_s: list[float] = []
        #: (stats, ledger) of the traced daemon when its rounds began.
        self.window_start = None
        #: Co-schedule answers awaiting their reference (computed after
        #: the timed rounds: it costs as much as the daemon's answer).
        self.pending: list[tuple] = []

    # -- set-up --------------------------------------------------------------

    def setup(self, index: int, final: bool) -> None:
        registry = self.workdir / f"registry-{index}"
        child = run_servet(
            ["run", "--machine", "dunnington", "--noise", "0", "--prune", "topology",
             "--registry", str(registry)],
            self.workdir,
            f"publish-{index}",
        )
        if child.returncode != 0:
            raise BenchError(f"publishing the served report exited {child.returncode}")
        self.registry = registry
        self.start_daemon(traced=False, tag=f"daemon-{index}")
        if not final:
            self.stop_daemon()

    def start_daemon(self, traced: bool, tag: str) -> None:
        from repro.serviced import ServicedClient

        self.daemon = Daemon(
            ["serve", "--listen", "127.0.0.1:0", "--registry", str(self.registry),
             "--workers", str(nproc())],
            self.workdir,
            tag,
            traced,
        )
        self.client = ServicedClient(self.daemon.host, self.daemon.port, timeout=60.0)
        if self.pool is None:
            self.load_reference()
        if traced:
            # As warm as the untraced daemon after its rounds: every pool
            # answer cached.
            self.client.query_many(self.pool)
        else:
            self.client.query_versioned(self.pool[0])

    def traced_stats(self) -> tuple[dict, dict]:
        """The traced daemon's ``stats`` reply and its ledger so far."""
        stats = self.client.stats()
        ledger = json.loads(Path(f"{self.daemon.ledger_path}.stats").read_text())
        return stats, ledger

    def stop_daemon(self) -> tuple[float, dict]:
        self.client.close()
        self.client = None
        code, rss, ledger = self.daemon.stop()
        self.daemon = None
        if code != 0:
            self.problem(f"daemon exited {code} on drain")
        return rss, ledger

    def load_reference(self) -> None:
        """The served report, read straight from its registry file."""
        from repro.autotune import Advisor
        from repro.core import ServetReport
        from repro.service.server import answer, default_query_pool

        (path,) = self.registry.glob("*/v*.json")
        stored = json.loads(path.read_text())
        self.version = int(stored["version"])
        self.report = ServetReport.from_dict(stored["report"])
        self.answer = lambda q: jsonable(answer(Advisor(self.report), q))
        self.pool = default_query_pool(self.report)
        self.reference = {q: self.answer(q) for q in self.pool}
        order = list(range(len(self.pool)))
        self.rng.shuffle(order)
        self.weights = [0.0] * len(self.pool)
        for rank, i in enumerate(order):
            self.weights[i] = 1.0 / (rank + 1) ** ZIPF_S
        self.pairs = sorted(
            tuple(p) for layer in self.report.comm_layers for p in layer.pairs
        )

    def begin(self, traced: bool) -> None:
        if traced:
            self.daemon_rss.append(self.stop_daemon()[0])
            self.start_daemon(traced=True, tag="daemon-traced")
            self.window_start = self.traced_stats()

    def closed_loop(self, traced: bool) -> float:
        """``ROUNDTRIPS`` queries one at a time: their seconds."""
        busy = 0.0
        for _ in range(ROUNDTRIPS):
            query = self.rng.choice(self.pool)
            t = time.perf_counter()
            got, version = self.client.query_versioned(query)
            elapsed = time.perf_counter() - t
            busy += elapsed
            if not traced:
                self.roundtrip_ms.append(elapsed * 1e3)
            self.attempt(
                self.expect(got == self.reference[query], f"answer to {query} differs")
                and self.expect(version == self.version, f"served version {version}"),
                what=f"closed-loop query {query}",
            )
        return busy

    # -- rounds --------------------------------------------------------------

    def round(self, index: int, traced: bool) -> float:
        from repro.service.server import CoScheduleQuery, CommLatencyQuery

        queries = self.rng.choices(self.pool, self.weights, k=BATCHES * BATCH)
        busy = 0.0
        for b in range(BATCHES):
            batch = queries[b * BATCH:(b + 1) * BATCH]
            t = time.perf_counter()
            answers = self.client.query_many(batch)
            elapsed = time.perf_counter() - t
            busy += elapsed
            if not traced:
                self.sample("remote_queries_per_s", BATCH / elapsed)
            for query, (got, version) in zip(batch, answers):
                self.attempt(
                    self.expect(got == self.reference[query], f"answer to {query} differs")
                    and self.expect(version == self.version, f"served version {version}"),
                    what=f"query {query}",
                )
        roundtrips = self.closed_loop(traced)

        total = busy + roundtrips
        for j in range(CLI_PER_ROUND):
            a, b = self.rng.choice(self.pairs)
            size = self.rng.choice(LATENCY_SIZES)
            child = run_servet(
                ["query", "-", "latency", "--remote", f"{self.daemon.host}:{self.daemon.port}",
                 "--pair", f"{a},{b}", "--size", str(size)],
                self.workdir,
                f"query-{index}-{j}",
                traced,
            )
            ok = child.returncode == 0 and self.expect(
                json.loads(child.stdout) == self.answer(CommLatencyQuery(a, b, size)),
                f"remote CLI latency answer for ({a},{b},{size}) differs",
            )
            self.attempt(ok, what=f"servet query --remote (exit {child.returncode})")
            total += child.wall_s
            if traced:
                self.imports.append(child.ledger["import_s"])
            else:
                self.sample("remote_cli_s", child.wall_s)

        question = CoScheduleQuery(
            workloads=MIX,
            seed=(self.seed * 1000 + index) % 2**31,
            level=COSCHEDULE_LEVEL,
            instances=COSCHEDULE_INSTANCES,
        )
        t = time.perf_counter()
        advice, version = self.client.query_versioned(question)
        cosched = time.perf_counter() - t
        self.pending.append((question, advice, version))
        total += cosched
        if traced:
            self.traced_s.append(total)
        else:
            self.sample("coschedule_s", cosched)
        return total

    def check_pending(self) -> None:
        for question, advice, version in self.pending:
            self.attempt(self.check_advice(question, advice, version), what="co-schedule")
        self.pending.clear()

    def check_advice(self, question, advice: dict, version: int) -> bool:
        ok = self.expect(version == self.version, f"co-schedule served version {version}")
        ok &= self.expect(
            canonical(advice) == canonical(self.answer(question)),
            f"co-schedule answer for seed {question.seed} differs from the report's",
        )
        keys = []
        for option in advice["ranked"]:
            placed = sorted(w for block in option["blocks"] for w in block)
            ok &= self.expect(
                placed == sorted(advice["workloads"]),
                f"placement {option['blocks']} does not place each workload once",
            )
            slowdowns = [
                w["slowdown"] for block in option["per_block"] for w in block["workloads"]
            ]
            ok &= self.expect(
                min(slowdowns) >= 1.0, f"predicted slowdown below 1.0: {slowdowns}"
            )
            keys.append((option["worst_slowdown"], option["mean_slowdown"]))
        return ok & self.expect(keys == sorted(keys), "options not sorted by (worst, mean)")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.daemon is not None:
            self.daemon.kill()

    # -- metrics -------------------------------------------------------------

    def finish(self) -> float:
        self.daemon_rss.append(self.stop_daemon()[0])
        self.check_pending()
        return max(self.daemon_rss)

    def per_layer(self) -> dict[str, float]:
        from repro.autotune import Advisor
        from repro.service.server import answer

        stats, ledger = self.traced_stats()
        self.stop_daemon()
        self.check_pending()

        answer_us, encode_us, decode_us = [], [], []
        batch = self.rng.choices(self.pool, self.weights, k=BATCH)
        for _ in range(5):
            t = time.perf_counter()
            for query in self.pool:
                answer(Advisor(self.report), query)
            answer_us.append((time.perf_counter() - t) / len(self.pool) * 1e6)
            encode, decode = codec_seconds(batch, self.reference, self.version)
            encode_us.append(encode / len(batch) * 1e6)
            decode_us.append(decode / len(batch) * 1e6)

        # Differences over the traced rounds only, per round (one round
        # asks one co-schedule question).
        (stats0, ledger0), rounds = self.window_start, len(self.traced_s)
        layers = {
            name: {k: v - ledger0["layers"].get(name, {}).get(k, 0) for k, v in entry.items()}
            for name, entry in ledger["layers"].items()
        }
        accesses = ledger["counts"].get("workload.accesses", 0) - ledger0["counts"].get(
            "workload.accesses", 0
        )
        self_s = sum(layer["self_s"] for layer in layers.values())
        daemon, daemon0 = stats["daemon"], stats0["daemon"]
        batches = daemon["histograms"]["serviced.batch_size"]
        batches0 = daemon0["histograms"]["serviced.batch_size"]
        # The latency percentiles cover the daemon's newest 8192
        # requests, all inside the window (a round sends 10203).
        latency = daemon["histograms"]["serviced.request_latency_seconds"]
        coalesced = (
            daemon["counters"]["serviced.coalesced_requests"]
            - daemon0["counters"]["serviced.coalesced_requests"]
        )
        return {
            "cli.import_s": median(self.imports),
            "autotune.answer_us": median(answer_us),
            "service.cache_hits": (stats["service"]["hits"] - stats0["service"]["hits"])
            / rounds,
            "service.cache_misses": (stats["service"]["misses"] - stats0["service"]["misses"])
            / rounds,
            "serviced.batch_mean": (batches["sum"] - batches0["sum"])
            / (batches["count"] - batches0["count"]),
            "serviced.coalesced": coalesced / rounds,
            "serviced.request_p50_ms": latency["p50"] * 1e3,
            "serviced.request_p99_ms": latency["p99"] * 1e3,
            "serviced.roundtrip_p50_ms": median(self.roundtrip_ms),
            "protocol.encode_us": median(encode_us),
            "protocol.decode_us": median(decode_us),
            "workload.accesses": accesses / rounds,
            "workload.profile_s": layers.get("workload.profile", {}).get("total_s", 0.0)
            / rounds,
            "workload.rank_s": layers.get("workload.rank", {}).get("total_s", 0.0) / rounds,
            "unattributed_s": (sum(self.traced_s) - sum(self.imports) - self_s) / rounds,
        }
