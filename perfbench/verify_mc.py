"""``verify-mc``: Monte-Carlo verification requests at a fixed trial count.

Set-up synthesizes five designs — IVD, PCR, CPA, RA100 and one seeded
generated assay — and the closed-loop client then cycles
``MonteCarloEngine.run()`` requests over them, three kinds per schedule:
uniform jitter, normal jitter, and fault-injected.  Fifteen request types
of distinct cost put the median and the 90th latency percentile in the
middle of one type's latencies (the 8th and 14th of 15), not on the edge
between two types, where they would follow both types' tails.  It is the only workload that exercises the
simulation layer.  Jitter-only and fault-injected requests sit side by
side, so a gain on one kernel that costs the other shows up in the same
run (split out in the ``verify.jitter.*`` and ``verify.fault.*`` layer
metrics).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

from harness import BlockResult, Check, Op, Workload, chip_summary, design_problems, quality_totals
from repro.archsyn.router import SynthesisError
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.keys import derive_seed
from repro.obs.trace import span
from repro.simulation.montecarlo import MonteCarloConfig, MonteCarloEngine
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import synthesize
from repro.synthesis.pipeline import graph_fingerprint

TRIALS = 1024
GENERATED_OPS = 20
#: Request kinds: name -> (kind used for the layer split, engine knobs).
KINDS = {
    "uniform": ("jitter", {"jitter": "uniform", "jitter_spread": 0.2, "wash_time": 12}),
    "normal": ("jitter", {"jitter": "normal", "jitter_spread": 0.2, "wash_time": 12}),
    "fault": ("fault", {"jitter": "uniform", "jitter_spread": 0.2, "wash_time": 12,
                        "fault_rate": 0.3, "channel_fault_rate": 0.1}),
}


def _report_bytes(report: Any) -> bytes:
    return json.dumps(report.as_dict(), sort_keys=True).encode("utf-8")


class VerifyMc(Workload):
    name = "verify-mc"
    why = "Monte-Carlo jitter and fault replays of five synthesized schedules: only workload on the simulation layer"

    def setup(self) -> None:
        self.designs = []
        for name in ("IVD", "PCR", "CPA", "RA100"):
            config = FlowConfig.paper_defaults_for(name)
            config.ilp_time_limit_s = 20.0
            self.designs.append((name, synthesize(assay_by_name(name), config)))
        # The heuristic router fails on about one generated graph in a
        # hundred; such a draw is skipped for the next seed.
        for attempt in range(100):
            self.generator = {"num_operations": GENERATED_OPS,
                              "seed": derive_seed(self.seed, f"verify-mc/generated/{attempt}")}
            graph = random_assay(RandomAssayConfig(**self.generator))
            try:
                result = synthesize(graph, FlowConfig.paper_defaults_for(graph.name))
            except SynthesisError:
                continue
            self.designs.append((f"RA{GENERATED_OPS}~gen", result))
            break
        self.requests = [
            (name, request_kind, result)
            for name, result in self.designs
            for request_kind in KINDS
        ]
        self.counter = 0
        self.failures: List[str] = []
        self.first_reports: Dict[str, Any] = {}
        self.block(False)  # warm-up cycle

    def _config(self, request_kind: str) -> MonteCarloConfig:
        seed = derive_seed(self.seed, f"verify-mc/request/{self.counter}")
        return MonteCarloConfig(trials=TRIALS, seed=seed, **KINDS[request_kind][1])

    def block(self, traced: bool) -> List[Op]:
        ops: List[Op] = []
        for name, request_kind, result in self.requests:
            config = self._config(request_kind)
            self.counter += 1
            kind = KINDS[request_kind][0]
            start = time.perf_counter()
            with span("op", category="bench", kind=kind):
                report = MonteCarloEngine(result.schedule, result.library, config).run()
                problem = self._check(report, result, kind)
            latency = time.perf_counter() - start
            if problem:
                self.failures.append(f"{name}/{request_kind}: {problem}")
            if name == "PCR" and request_kind not in self.first_reports:
                self.first_reports[request_kind] = (config, report)
            ops.append(Op(latency, not problem, 1, kind))
        return ops

    @staticmethod
    def _check(report: Any, result: Any, kind: str) -> str:
        if report.trial_count != TRIALS:
            return f"{report.trial_count} trials, asked for {TRIALS}"
        if report.makespan_p50 < result.execution_time:
            return "sampled median below the deterministic makespan"
        if (report.faults_injected > 0) != (kind == "fault"):
            return f"{report.faults_injected} faults injected on a {kind} request"
        return ""

    def checks(self) -> List[Check]:
        out = [Check("every request passed its in-loop checks", not self.failures,
                     "; ".join(self.failures[:3]))]
        for request_kind, (config, report) in sorted(self.first_reports.items()):
            pcr = dict(self.designs)["PCR"]
            os.environ["REPRO_MC_SCALAR"] = "1"
            try:
                reference = MonteCarloEngine(pcr.schedule, pcr.library, config).run()
            finally:
                del os.environ["REPRO_MC_SCALAR"]
            out.append(Check(f"PCR {request_kind} report matches the scalar reference",
                             _report_bytes(report) == _report_bytes(reference)))
        for name, result in self.designs:
            problems = design_problems(result)
            still = MonteCarloEngine(result.schedule, result.library, MonteCarloConfig(trials=8)).run()
            if still.makespan_max != result.execution_time or still.makespan_p50 != result.execution_time:
                problems.append("a zero-perturbation request moved the makespan")
            out.append(Check(f"{name} validates and replays", not problems, "; ".join(problems[:3])))
        return out

    def quality(self) -> Dict[str, float]:
        return quality_totals([chip_summary(result) for _, result in self.designs])

    def intended(self, layer: str) -> bool:
        return layer.startswith("verify.")

    def layer_metrics(self, untraced: List[BlockResult]) -> Dict[str, Any]:
        # Throughput per kernel from the untraced blocks: request latency
        # covers engine construction and plan compile, as a caller sees it.
        out = {}
        for kind in ("jitter", "fault"):
            ops = [op for block in untraced for op in block.ops if op.kind == kind]
            seconds = sum(op.latency_s for op in ops)
            out[f"verify.{kind}.trials_per_s"] = (TRIALS * len(ops) / seconds if seconds else 0.0, "1/s")
        return out

    def record(self) -> Dict[str, Any]:
        return {
            "inputs": [{"id": name, "fingerprint": graph_fingerprint(result.graph),
                        "config": result.config.to_dict()} for name, result in self.designs],
            "generator": self.generator,
            "trials": TRIALS,
            "kinds": {name: knobs for name, (_, knobs) in KINDS.items()},
        }
