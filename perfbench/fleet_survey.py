"""Fleet survey: a fresh ``servet fleet survey`` process over a fixed fleet.

The fleet is ``generate_fleet(50, 10, seed=7, name="bench-50")``: 50
machines of 2 and 4 cores in 10 hardware classes.  It does not depend
on ``--seed``: each class is measured on one member whose RNG stream
derives from the fleet seed and the machine id, and whether the L1
fault below shows depends on that stream.  Set-up writes the fleet
spec with ``generate_fleet`` (what ``servet fleet generate`` calls);
each round surveys it into a fresh on-disk store.

Operations are the (class, phase) pairs of a survey.  Two faults of the
program fail on one class, ``hw-b609fcb4`` (64 KiB 4-way L1, 256 KiB
L2), every time, and are counted as failed operations:

- ``cache_size`` reports its L1 as 128 KiB;
- ``communication_costs`` then probes with 128 KiB messages, above the
  64 KiB eager threshold, and ``concurrent_exchanges`` deadlocks
  (both ranks send before they receive).
"""

from __future__ import annotations

import json

from common import BenchError, Part, canonical, run_servet, without_wall
from cold_run import phase_metrics, ledger_metrics

FLEET = {"n_machines": 50, "n_classes": 10, "seed": 7, "name": "bench-50"}
EAGER_THRESHOLD = 64 * 1024


def known_fault(phase: str, levels: list, report: dict) -> bool:
    """Whether a failed (class, phase) is one of the two named faults."""
    if phase == "cache_size":
        l1 = report["caches"][0]["size"] if report["caches"] else None
        return levels[0][0] == 64 * 1024 and l1 == 2 * levels[0][0]
    if phase == "communication_costs":
        error = report.get("phase_errors", {}).get(phase, "")
        return (
            error.startswith("deadlock at virtual time 0s")
            and report["comm_probe_size"] > EAGER_THRESHOLD
        )
    return False


class FleetSurvey(Part):
    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self.rss: list[float] = []
        self.first = None

    def setup(self, index: int, final: bool) -> None:
        from repro.fleet.spec import generate_fleet

        self.spec = generate_fleet(**FLEET)
        self.spec_path = self.workdir / f"fleet-{index}.json"
        self.spec.save(self.spec_path)
        self.classes = {hw.key(): hw for hw in (m.hardware for m in self.spec.machines)}

    def round(self, index: int, traced: bool) -> float:
        store, out = self.workdir / f"store-{index}", self.workdir / f"survey-{index}.json"
        child = run_servet(
            ["fleet", "survey", str(self.spec_path), "--store", str(store), "-o", str(out)],
            self.workdir,
            f"survey-{index}",
            traced,
        )
        self.expect(child.returncode == 0, f"'servet fleet survey' exited {child.returncode}")
        if not out.exists():
            raise BenchError("'servet fleet survey' wrote no report")
        survey = json.loads(out.read_text())
        self.check(survey)
        machines = len(self.spec.machines)
        if traced:
            self.traced_rounds.append(self.layer_values(survey, child))
        else:
            self.sample("survey_machines_per_s", machines / child.wall_s)
            self.rss.append(child.rss_mb)
        return child.wall_s

    def check(self, survey: dict) -> None:
        machines, classes = len(self.spec.machines), len(self.classes)
        self.expect(
            survey["dedup"]["ratio"] == machines / classes,
            f"dedup ratio {survey['dedup']['ratio']} != {machines}/{classes}",
        )
        self.expect(
            sorted(survey["classes"]) == sorted(self.classes),
            "surveyed classes differ from the fleet's",
        )
        for key, entry in survey["classes"].items():
            hw, report = self.classes[key], entry["report"]
            levels = [list(level) for level in hw.levels]
            model = hw.build()
            for phase, status in report["phase_status"].items():
                ok = status == "ok"
                if phase == "cache_size":
                    sizes = [c["size"] for c in report["caches"]]
                    ok &= sizes == [level[0] for level in levels]
                if phase == "shared_caches" and ok:
                    for cache in report["caches"]:
                        expected = sorted(
                            sorted(g) for g in model.level(cache["level"]).groups if len(g) > 1
                        )
                        ok &= sorted(cache["sharing_groups"]) == expected
                self.attempt(
                    ok,
                    known_fault=known_fault(phase, levels, report),
                    what=f"{hw.name} {phase} ({status})",
                )
        body = canonical(
            {
                k: v if k != "classes" else {
                    c: {**e, "report": without_wall(e["report"])} for c, e in v.items()
                }
                for k, v in survey.items()
                if k != "timing"
            }
        )
        if self.first is None:
            self.first = body
        self.expect(body == self.first, "survey differs from this run's first survey")

    def layer_values(self, survey: dict, child) -> dict[str, float]:
        reports = [entry["report"] for entry in survey["classes"].values()]
        ledger = child.ledger
        layers = ledger["layers"]
        values = {**phase_metrics(reports), **ledger_metrics([ledger])}
        suite = layers.get("core", {})
        store = layers.get("fleet.store", {}).get("total_s", 0.0)
        survey_s = layers["fleet.survey"]["total_s"]
        values.update(
            {
                "cli.import_s": ledger["import_s"],
                "fleet.suite_s": suite.get("total_s", 0.0),
                "fleet.store_s": store,
                "fleet.files_written": ledger["counts"].get("files_written", 0),
                "fleet.coordinator_s": survey_s - suite.get("total_s", 0.0) - store,
                "fleet.classes_measured": suite.get("calls", 0),
                "fleet.dispatches": survey["protocol"]["dispatches"],
                "fleet.virtual_s": values.pop("virtual_s"),
                "unattributed_s": child.wall_s - values.pop("self_s"),
            }
        )
        return values

    def finish(self) -> float:
        return max(self.rss)
