"""Cold runs: fresh ``servet run`` processes on Dunnington and 2-node Finis Terrae.

Every CLI user pays this path: a new interpreter imports the package,
runs the whole suite on a simulated machine with the CLI defaults
(noise 0.01, seed 42) and writes its report.  The ``defaults`` workload
runs it unpruned, as the CLI does by default; the ``pruned`` workload
adds ``--prune topology``.  ``--seed`` does not change these inputs.
"""

from __future__ import annotations

import json

from common import Part, canonical, median, run_servet, without_wall

KiB, MiB = 1024, 1024 * 1024

MACHINES = {
    "dunnington": ["--machine", "dunnington"],
    "ft2": ["--machine", "finis_terrae", "--nodes", "2"],
}

#: Report phase name -> per-layer metric stem.
PHASES = {
    "cache_size": "cache_size",
    "shared_caches": "shared_caches",
    "tlb_detection": "tlb",
    "memory_overhead": "memory_overhead",
    "communication_costs": "comm_costs",
}


def groups_of(level) -> list[list[int]]:
    return sorted(sorted(g) for g in level.groups if len(g) > 1)


def phase_metrics(reports: list[dict]) -> dict[str, float]:
    """core.* and planner.* per-layer values summed over ``reports``."""
    out: dict[str, float] = {}
    for report in reports:
        for phase, (virtual, wall) in report["timings"].items():
            stem = PHASES[phase]
            out[f"core.{stem}_s"] = out.get(f"core.{stem}_s", 0.0) + wall
            key = f"core.{stem}.virtual_s"
            out[key] = out.get(key, 0.0) + virtual
            out["virtual_s"] = out.get("virtual_s", 0.0) + virtual
        planner = report.get("planner", {})
        for name, key in (
            ("planner.probes_issued", "issued"),
            ("planner.pairwise_measured", "pairwise_measured"),
            ("planner.saved", "saved"),
        ):
            out[name] = out.get(name, 0) + planner.get(key, 0)
    return out


def ledger_metrics(ledgers: list[dict]) -> dict[str, float]:
    """memsim.*, simmpi.* and self-time totals summed over ``ledgers``."""
    out = {
        "memsim.traversals": 0, "memsim.traversal_s": 0.0,
        "memsim.outcome_hits": 0, "memsim.outcome_misses": 0,
        "simmpi.comm_calls": 0, "simmpi.comm_s": 0.0,
        "simmpi.comm_hits": 0, "simmpi.comm_misses": 0,
        "self_s": 0.0,
    }
    for ledger in ledgers:
        layers = ledger["layers"]
        memsim = layers.get("memsim", {})
        simmpi = layers.get("simmpi", {})
        out["memsim.traversals"] += memsim.get("calls", 0)
        out["memsim.traversal_s"] += memsim.get("total_s", 0.0)
        out["memsim.outcome_hits"] += ledger["outcome_cache"]["hits"]
        out["memsim.outcome_misses"] += ledger["outcome_cache"]["misses"]
        out["simmpi.comm_calls"] += simmpi.get("calls", 0)
        out["simmpi.comm_s"] += simmpi.get("total_s", 0.0)
        out["simmpi.comm_hits"] += ledger["comm_cache"]["hits"]
        out["simmpi.comm_misses"] += ledger["comm_cache"]["misses"]
        out["self_s"] += ledger["import_s"] + sum(
            layer["self_s"] for layer in layers.values()
        )
    return out


class ColdRun(Part):
    def __init__(self, seed, workdir, prune: bool) -> None:
        super().__init__(seed, workdir)
        self.prune = ["--prune", "topology"] if prune else []
        from repro.topology.builders import dunnington, finis_terrae

        self.dunnington = dunnington()
        self.ft2 = finis_terrae(2)
        self.rss: list[float] = []
        self.first: dict[str, str] = {}

    def round(self, index: int, traced: bool) -> float:
        total, reports, ledgers, imports = 0.0, [], [], []
        for tag, args in MACHINES.items():
            out = self.workdir / f"{tag}-{index}.json"
            child = run_servet(
                ["run", *args, *self.prune, "-o", str(out)], self.workdir, f"{tag}-{index}", traced
            )
            total += child.wall_s
            ran = child.returncode == 0 and out.exists()
            report = json.loads(out.read_text()) if ran else None
            ok = ran and self.check(tag, report)
            self.attempt(ok, what=f"servet run {' '.join(args)} (exit {child.returncode})")
            if not ran:
                continue
            out.unlink()
            if traced:
                reports.append(report)
                ledgers.append(child.ledger)
                imports.append(child.ledger["import_s"])
            else:
                self.sample(f"run_{tag}_s", child.wall_s)
                self.rss.append(child.rss_mb)
        if traced and len(reports) == len(MACHINES):
            values = {**phase_metrics(reports), **ledger_metrics(ledgers)}
            values["cli.import_s"] = median(imports)
            values["unattributed_s"] = total - values.pop("self_s")
            self.traced_rounds.append(values)
        return total

    # -- checks --------------------------------------------------------------

    def check(self, tag: str, report: dict) -> bool:
        ok = self.expect(
            all(s == "ok" for s in report["phase_status"].values()),
            f"{tag}: phases not all ok: {report['phase_status']}",
        )
        caches = report["caches"]
        model = self.dunnington if tag == "dunnington" else self.ft2.node
        sizes = tuple(c["size"] for c in caches)
        ok &= self.expect(
            sizes == model.cache_sizes,
            f"{tag}: cache sizes {sizes} != model {model.cache_sizes}",
        )
        for cache in caches:
            expected = groups_of(model.level(cache["level"]))
            ok &= self.expect(
                sorted(cache["sharing_groups"]) == expected,
                f"{tag}: L{cache['level']} sharing groups differ from the model",
            )
        if tag == "dunnington":
            # The paper's Dunnington figures, independent of the model.
            if not self.expect(
                sizes == (32 * KiB, 3 * MiB, 12 * MiB), f"dunnington: sizes {sizes}"
            ):
                return False
            ok &= self.expect(
                sorted(caches[1]["sharing_groups"]) == [[c, c + 12] for c in range(12)],
                "dunnington: L2 pairs are not (c, c+12)",
            )
            ok &= self.expect(
                len(caches[2]["sharing_groups"]) == 4
                and all(len(g) == 6 for g in caches[2]["sharing_groups"]),
                "dunnington: L3 is not four six-core sockets",
            )
        else:
            ok &= self.check_layers(report)
        # Every run of the same machine must report the same measurements
        # (traced or not): the tracing wrappers change nothing.
        body = canonical(without_wall(report))
        ok &= self.expect(
            self.first.setdefault(tag, body) == body,
            f"{tag}: report differs from this run's first report",
        )
        return ok

    def check_layers(self, report: dict) -> bool:
        inter, intra = set(), set()
        for layer in report["comm_layers"]:
            for a, b in layer["pairs"]:
                same = self.ft2.node_of(a) == self.ft2.node_of(b)
                (intra if same else inter).add(layer["index"])
        return self.expect(
            bool(inter) and bool(intra) and not inter & intra,
            f"ft2: inter-node layers {sorted(inter)} overlap intra-node {sorted(intra)}",
        )

    # -- metrics -------------------------------------------------------------

    def finish(self) -> float:
        return max(self.rss)
