#!/usr/bin/env python3
"""Summarize run reports into the recorded baseline.

Usage (from the repository root, after runs of ``qbench/run.py``):

    python3 qbench/summarize.py > qbench/baseline.json

Reads every ``.qbench/report-*.json``.  For each workload it gives the
median and quartiles of each end-to-end metric over the untraced runs, the
failed share of all ops, the median of each per-layer metric over the traced
runs, and the traced self-time share of each layer next to the share that
profiling predicted before the benchmark existed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402

# (workload, layer, low, high, prediction): the layer's traced share of op
# time matches when it lies in [low, high].  "About X" allows X +/- 0.10.
PREDICTIONS = [
    ("verify_gate", "statevec", 0.75, 0.95, "about 85% (cProfile: apply_u_pm 1.23 s of a 1.49 s call)"),
    ("sweep_enum", "cost", 0.50, 1.00, "more than half (cold cost table)"),
    ("sweep_enum", "ensemble", 0.23, 0.43, "about a third (log cos over 2^20 states, 43 times)"),
    ("load_compare", "circuit", 0.30, 0.50, "about 40% (closed-form sampler, trial_rng about 60% of it)"),
    ("load_compare", "cli", 0.20, 0.40, "about 30% (JSON encoding of 20k sample records)"),
    ("load_compare", "baseline", 0.15, 0.35, "about 25% (80k Metropolis steps)"),
]


NOTES = [
    "fail_frac is failed/attempted from the result line; it is not an end_to_end metric in "
    "BENCHMARK.json because it is 0 on a correct program and metrics there must be nonzero.",
    "A per-layer metric of a layer the workload never calls is printed as 0 by run.py and "
    "recorded as null here.",
    "Layer shares are self time over the traced op time.  The traced statevec share on "
    "verify_gate includes the Hadamards, the 92 apply_diagonal calls of the product check and "
    "the tracemalloc cost around top-level statevec calls (see trace.overhead_frac); the "
    "prediction counted apply_u_pm alone.  statevec dominates either way.",
    "Run-to-run spreads here are dominated by host speed drift: setup_s, which does the same "
    "work in every op, moves together with op_s.",
]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def summarize(reports: list[dict]) -> dict:
    out = {"notes": NOTES, "provenance": reports[0]["provenance"] if reports else None,
           "workloads": {}}
    for name, workload in WORKLOADS.items():
        mine = [r for r in reports if r["workload"] == name and r["v"] == workload.v]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {
            "v": workload.v,
            "commands": [" ".join(c) for c in workload.commands],
            "why": workload.why,
            "seeds": sorted(r["seed"] for r in plain),
            "fail_frac": (sum(r["result"]["failed"] for r in mine)
                          / max(1, sum(r["result"]["attempted"] for r in mine))),
        }
        if plain:
            entry["end_to_end"] = {
                metric: _quartiles([r["result"]["metrics"][metric]["value"] for r in plain])
                for metric in plain[0]["result"]["metrics"]
            }
        if traced:
            absent = set.intersection(*(set(r["absent"]) for r in traced))
            entry["per_layer"] = {
                metric: None if metric in absent else statistics.median(
                    r["result"]["metrics"][metric]["value"] for r in traced)
                for metric in traced[0]["result"]["metrics"]
            }
            entry["layer_self_share"] = {
                layer: statistics.median(r["layer_self_share"][layer] for r in traced)
                for layer in traced[0]["layer_self_share"]
            }
        out["workloads"][name] = entry
    out["predictions"] = []
    for name, layer, low, high, text in PREDICTIONS:
        share = out["workloads"][name].get("layer_self_share", {}).get(layer)
        out["predictions"].append({
            "workload": name,
            "layer": layer,
            "predicted": text,
            "traced_share": share,
            "matches": share is not None and low <= share <= high,
        })
    return out


def main() -> int:
    paths = sorted((ROOT / ".qbench").glob("report-*.json"))
    reports = [json.loads(p.read_text()) for p in paths]
    json.dump(summarize(reports), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
