#!/usr/bin/env python3
"""Multi-objective co-design: steer the search with reward coefficients.

Runs two single-stage searches over the same joint space with the paper's
two reward presets — energy-focused (Fig. 6(b)) and latency-focused
(Fig. 6(c)) — and shows how the coefficients of Eq. 2 move the solutions to
different regions of the design space, mirroring the Yoso_eer / Yoso_lat
rows of Table 2.

Usage:
    python examples/codesign_tradeoff.py [--iterations 120] [--seed 0]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.common import format_table, get_context, scaled_reward
from repro.experiments.fig6 import search_lr
from repro.search.controller import Controller
from repro.search.reinforce import ReinforceSearch
from repro.search.reward import ENERGY_FOCUS, LATENCY_FOCUS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "demo"])
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"Building the fast evaluator ({args.scale} scale) ...")
    context = get_context(args.scale, args.seed)
    iterations = args.iterations or context.scale.search_iterations

    rows = []
    for preset in (ENERGY_FOCUS, LATENCY_FOCUS):
        spec = scaled_reward(preset, context)
        print(f"\nSearching with the {preset.name} reward "
              f"(alpha1={spec.alpha1}, omega1={spec.omega1}, "
              f"alpha2={spec.alpha2}, omega2={spec.omega2}) ...")
        search = ReinforceSearch(
            Controller(seed=args.seed),
            context.batch_evaluator.evaluate,
            spec,
            lr=search_lr(context, None),
            seed=args.seed,
            evaluate_batch=context.batch_evaluator.evaluate_many,
        )
        history = search.run(iterations)
        best = history.best()
        tail = history.samples[-max(1, iterations // 4):]
        rows.append([
            preset.name,
            f"{best.reward:.4f}",
            f"{best.accuracy:.3f}",
            f"{best.energy_mj:.4f}",
            f"{best.latency_ms:.4f}",
            f"{np.mean([s.energy_mj for s in tail]):.4f}",
            f"{np.mean([s.latency_ms for s in tail]):.4f}",
            best.point().config.describe(),
        ])

    print("\n=== Reward steering (Eq. 2 coefficients) ===")
    print(format_table(
        ["preset", "best R", "acc", "energy mJ", "latency ms",
         "tail mean eer", "tail mean lat", "best HW config"],
        rows,
    ))
    print("\nThe energy-focused search converges to lower-energy designs and "
          "the latency-focused search to lower-latency designs — the "
          "user-steerable trade-off the paper demonstrates in Fig. 6(b)/(c).")


if __name__ == "__main__":
    main()
