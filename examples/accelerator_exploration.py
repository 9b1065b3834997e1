#!/usr/bin/env python3
"""Accelerator design-space exploration for a fixed network.

This is the classic *second stage* of a two-stage flow, exposed as a tool:
take a published architecture (default: the DARTS-like baseline), sweep the
entire systolic-array configuration space (Table 1 of the paper), and report

* the best configuration per optimisation objective (energy / latency /
  Eq. 2 composite),
* the latency-energy Pareto front over all 800 configurations,
* a per-dataflow summary showing why no single dataflow dominates.

Usage:
    python examples/accelerator_exploration.py [--model Darts_v1]
        [--cells 6] [--channels 8] [--image-size 16]
"""

from __future__ import annotations

import argparse
from collections import defaultdict

from repro.accel.config import enumerate_configs
from repro.accel.simulator import SystolicArraySimulator
from repro.accel.workload import network_workloads
from repro.baselines.genotypes import TWO_STAGE_BASELINES, baseline_by_name
from repro.experiments.common import format_table
from repro.experiments.fig6 import pareto_front
from repro.search.reward import BALANCED
from repro.search.two_stage import best_config_for


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="Darts_v1",
                        choices=[m.name for m in TWO_STAGE_BASELINES])
    parser.add_argument("--cells", type=int, default=6)
    parser.add_argument("--channels", type=int, default=8)
    parser.add_argument("--image-size", type=int, default=16)
    args = parser.parse_args()

    model = baseline_by_name(args.model)
    sim = SystolicArraySimulator()
    geometry = dict(num_cells=args.cells, stem_channels=args.channels,
                    image_size=args.image_size)

    print(f"Sweeping all accelerator configurations for {model.name} ...")
    configs = list(enumerate_configs())
    # One batched sweep of the network's layers over every configuration;
    # only the final profile needs a per-layer report.
    sweep = sim.simulate_many(network_workloads(model.genotype, **geometry), configs)
    reports = [
        (cfg, float(latency), float(energy))
        for cfg, latency, energy in zip(configs, sweep.latency_ms, sweep.energy_mj)
    ]
    print(f"simulated {len(reports)} configurations")

    # Best per objective.
    print("\n=== Best configuration per objective ===")
    for objective in ("energy", "latency", "reward"):
        cfg, energy, latency = best_config_for(
            model.genotype, sim, objective=objective,
            reward_spec=BALANCED if objective == "reward" else None,
            **geometry,
        )
        print(f"{objective:8s}: {cfg.describe():28s} "
              f"energy={energy:.4f} mJ latency={latency:.4f} ms")

    # Pareto front.
    import numpy as np

    points = np.asarray([(latency, -energy) for _, latency, energy in reports])
    front = pareto_front(points)
    print(f"\n=== Latency-energy Pareto front ({len(front)} points) ===")
    front_set = {(round(c, 9), round(q, 9)) for c, q in front}
    rows = []
    for cfg, latency, energy in reports:
        key = (round(latency, 9), round(-energy, 9))
        if key in front_set:
            rows.append([cfg.describe(), f"{latency:.4f}", f"{energy:.4f}"])
    rows.sort(key=lambda row: float(row[1]))
    print(format_table(["configuration", "latency (ms)", "energy (mJ)"], rows))

    # Per-dataflow summary.
    print("\n=== Per-dataflow summary ===")
    by_flow: dict[str, list] = defaultdict(list)
    for cfg, latency, energy in reports:
        by_flow[cfg.dataflow].append((latency, energy))
    rows = []
    for flow, rs in sorted(by_flow.items()):
        rows.append([
            flow,
            f"{min(lat for lat, _ in rs):.4f}",
            f"{min(eer for _, eer in rs):.4f}",
            f"{sum(eer for _, eer in rs) / len(rs):.4f}",
        ])
    print(format_table(
        ["dataflow", "best latency (ms)", "best energy (mJ)", "mean energy (mJ)"],
        rows,
    ))
    # Energy breakdown of the composite-best configuration.
    best_cfg, _, _ = best_config_for(
        model.genotype, sim, objective="reward", reward_spec=BALANCED, **geometry
    )
    report = sim.simulate_genotype(model.genotype, best_cfg, **geometry)
    print(f"\n=== Profile of the composite-best configuration "
          f"({best_cfg.describe()}) ===")
    print(report.to_text(top=5))
    fractions = report.energy_breakdown().fractions()
    print("energy breakdown: " + ", ".join(
        f"{name} {100 * frac:.1f}%" for name, frac in fractions.items()
    ))

    print("\nNote how the best dataflow depends on the objective — this is "
          "exactly the coupling YOSO exploits by searching hardware jointly "
          "with the architecture.")


if __name__ == "__main__":
    main()
