#!/usr/bin/env python3
"""Quickstart: run the full single-stage YOSO co-design pipeline.

This is the 60-second tour: build the fast evaluator (Step 1), run the
RL search over the joint DNN x accelerator space (Step 2), rescore the
top candidates accurately and print the final co-design (Step 3).

Usage:
    python examples/quickstart.py [--scale smoke|demo] [--seed 0] [--workers N]
"""

from __future__ import annotations

import argparse

from repro import quick_codesign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "demo"],
                        help="experiment scale (smoke: ~30 s, demo: minutes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for Step-2 candidate scoring "
                             "(bit-identical results at any count)")
    args = parser.parse_args()

    print(f"Running YOSO end to end at {args.scale!r} scale ...")
    result = quick_codesign(args.scale, seed=args.seed, workers=args.workers)

    best = result.best
    point = best.point()
    print("\n=== Final co-design ===")
    print(f"architecture : {point.genotype.name}")
    print(f"  normal cell: {point.genotype.normal.to_dict()['nodes']}")
    print(f"  reduce cell: {point.genotype.reduce.to_dict()['nodes']}")
    print(f"accelerator  : {point.config.describe()}")
    print(f"accuracy     : {best.accurate.accuracy:.3f}")
    print(f"latency      : {best.accurate.latency_ms:.4f} ms "
          f"(threshold {result.reward_spec.t_lat_ms:.4f})")
    print(f"energy       : {best.accurate.energy_mj:.4f} mJ "
          f"(threshold {result.reward_spec.t_eer_mj:.4f})")
    print(f"composite R  : {best.reward:.4f} "
          f"(meets thresholds: {best.meets_thresholds})")

    print("\n=== Search statistics ===")
    rewards = result.history.rewards()
    print(f"iterations   : {len(result.history)}")
    print(f"reward range : {rewards.min():.4f} .. {rewards.max():.4f}")
    for step, seconds in result.wall_seconds.items():
        print(f"{step:22s}: {seconds:.1f} s")

    print("\nTop rescored candidates:")
    for i, cand in enumerate(result.rescored):
        print(f"  #{i + 1}: R={cand.reward:.4f} "
              f"acc={cand.accurate.accuracy:.3f} "
              f"lat={cand.accurate.latency_ms:.4f}ms "
              f"eer={cand.accurate.energy_mj:.4f}mJ "
              f"@ {cand.point().config.describe()}")


if __name__ == "__main__":
    main()
