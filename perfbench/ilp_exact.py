"""``ilp-exact``: cold exact-ILP synthesis jobs through ``synthesize``.

One closed-loop client runs passes of three jobs through
:func:`repro.synthesis.flow.synthesize` with no cache, so every job pays
its scheduling solve: IVD, PCR, and one freshly drawn seeded
``random_assay`` graph of six to eight device operations under the paper's
random-assay device set (four mixers).  This is the workload where the
scheduling ILP dominates: IVD and PCR are about a second of HiGHS time per
pass, while archsyn and physical design take milliseconds.

Generated graphs this small solve in 10-130 ms, always faster than PCR;
ten to twelve operations range from 0.02 s to the time limit.  A new draw
every pass averages the seed's effect over every pass of a run, and with
the three jobs in equal shares the median latency falls on PCR jobs and
the 90th percentile on IVD jobs, whatever the seed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from harness import Check, Op, Workload, chip_summary, design_problems, quality_totals
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.keys import derive_seed
from repro.obs.trace import span
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import synthesize
from repro.synthesis.pipeline import graph_fingerprint

GOLDENS = {"IVD": 280, "PCR": 330}
SIZES = (6, 7, 8)
#: Generated graphs drawn at set-up; pass ``i`` uses graph ``i % POOL``.
POOL = 64
#: Passes whose outputs make up the quality totals (always run).
QUALITY_PASSES = 12
TIME_LIMIT_S = 20.0


class _StatusProbe:
    """Records the status of every ``Model.solve`` (the OPTIMAL check).

    The flow keeps no solver status on its artifacts, so the only way to
    see it from outside is at the solve call; the probe costs one list
    append per solve.
    """

    def __init__(self) -> None:
        self.statuses: List[str] = []
        self._original = None

    def install(self) -> "_StatusProbe":
        from repro.ilp.model import Model

        original = self._original = Model.__dict__["solve"]

        def solve(model: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(model, *args, **kwargs)
            self.statuses.append(result.status.value)
            return result

        Model.solve = solve
        return self

    def uninstall(self) -> None:
        from repro.ilp.model import Model

        Model.solve = self._original


class IlpExact(Workload):
    name = "ilp-exact"
    why = "cold exact-ILP synthesis of IVD, PCR and small generated assays: the scheduling solve dominates"

    def setup(self) -> None:
        self.fixed = []
        for assay in ("IVD", "PCR"):
            config = FlowConfig.paper_defaults_for(assay)
            config.ilp_time_limit_s = TIME_LIMIT_S
            self.fixed.append({"id": assay, "graph": assay_by_name(assay), "config": config})
        self.generated = []
        for index in range(POOL):
            size = SIZES[index % len(SIZES)]
            seed = derive_seed(self.seed, f"ilp-exact/{index}")
            graph = random_assay(RandomAssayConfig(num_operations=size, seed=seed))
            config = FlowConfig.paper_defaults_for(graph.name)
            config.ilp_time_limit_s = TIME_LIMIT_S
            self.generated.append({"id": f"RA{size}~{index}", "graph": graph, "config": config,
                                   "generator": {"num_operations": size, "seed": seed}})
        self.probe = _StatusProbe().install()
        self.failures: List[str] = []
        self.outputs: Dict[str, Tuple[int, int, int]] = {}
        self.results: Dict[str, Any] = {}
        self.quality_ids: List[str] = []
        self.passes = POOL - 1  # the warm-up pass takes the last generated graph
        self.block(False)
        self.passes = 0

    def teardown(self) -> None:
        self.probe.uninstall()

    def must_continue(self) -> bool:
        return self.passes < QUALITY_PASSES

    def block(self, traced: bool) -> List[Op]:
        ops: List[Op] = []
        for item in self.fixed + [self.generated[self.passes % POOL]]:
            solves_before = len(self.probe.statuses)
            start = time.perf_counter()
            with span("op", category="bench", kind=item["id"]):
                try:
                    result = synthesize(item["graph"], item["config"])
                    problem = self._check(item, result, self.probe.statuses[solves_before:])
                except Exception as exc:  # noqa: BLE001 - a failed job is a counted failure
                    result, problem = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if problem:
                self.failures.append(f"{item['id']}: {problem}")
            else:
                self.outputs.setdefault(item["id"], chip_summary(result))
                self.results[item["id"]] = result
                if self.passes < QUALITY_PASSES:
                    self.quality_ids.append(item["id"])
            ops.append(Op(latency, not problem, 1, item["id"]))
        self.passes += 1
        return ops

    def _check(self, item: Dict[str, Any], result: Any, statuses: List[str]) -> str:
        if result.scheduler_engine != "ilp":
            return f"scheduled by {result.scheduler_engine}, not the ILP"
        if not statuses or any(s != "optimal" for s in statuses):
            return f"solver statuses {statuses}"
        golden = GOLDENS.get(item["id"])
        if golden is not None and result.execution_time != golden:
            return f"tE {result.execution_time} != golden {golden}"
        seen = self.outputs.get(item["id"])
        if seen is not None and chip_summary(result) != seen:
            return f"outputs {chip_summary(result)} differ from an earlier run {seen}"
        return ""

    def checks(self) -> List[Check]:
        out = [Check("every job passed its in-loop checks", not self.failures, "; ".join(self.failures[:3]))]
        for key, result in self.results.items():
            problems = design_problems(result)
            out.append(Check(f"{key} validates and replays", not problems, "; ".join(problems[:3])))
        for item in self.generated[:min(self.passes, QUALITY_PASSES)]:
            again = chip_summary(synthesize(item["graph"], item["config"]))
            out.append(Check(f"{item['id']} synthesizes to the same chip twice",
                             again == self.outputs.get(item["id"]), f"{again} vs {self.outputs.get(item['id'])}"))
        return out

    def quality(self) -> Dict[str, float]:
        return quality_totals([self.outputs[key] for key in self.quality_ids])

    def intended(self, layer: str) -> bool:
        return layer == "ilp.solve"

    def record(self) -> Dict[str, Any]:
        used = self.fixed + self.generated[: min(POOL, max(self.passes, 1))]
        return {
            "inputs": [
                {"id": item["id"], "fingerprint": graph_fingerprint(item["graph"]),
                 "generator": item.get("generator"), "config": item["config"].to_dict()}
                for item in used
            ],
            "passes": self.passes,
            "quality_passes": QUALITY_PASSES,
        }
