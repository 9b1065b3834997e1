"""Command-line interface: regenerate any paper artefact from the shell.

Usage (installed as ``python -m repro.cli`` or the ``yoso`` console script):

    yoso run      [--scale demo] [--seed 0]       # full 3-step pipeline
    yoso fig4     [--scale demo]                  # predictor comparison
    yoso fig5     [--scale demo] [--models 10]    # HyperNet effectiveness
    yoso fig6     [--scale demo] [--iterations N] # search strategy figures
    yoso table2   [--scale demo] [--iterations N] # two-stage comparison
    yoso space                                     # search-space statistics
    yoso serve    [--scale demo] [--port 7777]    # search-evaluation service
    yoso stats    HOST:PORT [--json]              # live service telemetry
    yoso lint     [PATHS] [--json] [--rule ID]    # invariant checker (repro.analysis)
"""

from __future__ import annotations

import argparse
import sys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="demo", choices=["smoke", "demo", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for candidate scoring and stand-alone "
             "training (1 = serial; search/training-driven commands "
             "only, results are bit-identical)")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="durable result-store file (repro.store): persisted "
             "simulator samples, fast evaluations and trained accuracies "
             "are replayed bit-identically and fresh results appended, so "
             "repeat runs and service restarts are warm (default: no "
             "store, byte-identical to store-less behaviour)")


def cmd_run(args: argparse.Namespace) -> int:
    from repro import quick_codesign

    result = quick_codesign(args.scale, seed=args.seed, workers=args.workers,
                            store=args.store)
    best = result.best
    print(f"final co-design : {best.point().describe()}")
    print(f"accuracy        : {best.accurate.accuracy:.3f}")
    print(f"latency         : {best.accurate.latency_ms:.4f} ms")
    print(f"energy          : {best.accurate.energy_mj:.4f} mJ")
    print(f"composite reward: {best.reward:.4f}")
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.fig4 import run_fig4

    result = run_fig4(args.scale, seed=args.seed)
    print(result.to_text())
    best = result.best("energy")
    print(f"\nbest energy predictor: {best.model} (mse {best.mse:.3e})")
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_context
    from repro.experiments.fig5 import run_fig5a, run_fig5b
    from repro.experiments.plotting import line_chart, scatter_chart

    context = get_context(args.scale, args.seed, workers=args.workers,
                          store_path=args.store)
    curve = run_fig5a(args.scale, args.seed, context=context)
    print(line_chart({"hypernet": curve.accuracy},
                     title="Fig 5(a): HyperNet training accuracy",
                     x_label="epoch", y_label="accuracy"))
    corr = run_fig5b(args.scale, args.seed, context=context, n_models=args.models)
    print()
    print(scatter_chart(corr.hypernet_accuracy, corr.standalone_accuracy,
                        title="Fig 5(b): inherited vs stand-alone accuracy",
                        x_label="hypernet", y_label="stand-alone"))
    print(f"\npearson r = {corr.pearson_r:.3f}, spearman rho = {corr.spearman_rho:.3f}")
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_context
    from repro.experiments.fig6 import run_fig6_tradeoff, run_fig6a
    from repro.experiments.plotting import line_chart, scatter_chart

    context = get_context(args.scale, args.seed, workers=args.workers,
                          store_path=args.store)
    a = run_fig6a(args.scale, args.seed, context=context,
                  iterations=args.iterations)
    print(line_chart(
        {"RL": a.rl.running_best_rewards(), "random": a.random.running_best_rewards()},
        title="Fig 6(a): running-best composite score",
        x_label="iteration", y_label="reward",
    ))
    for which, label in (("energy", "Fig 6(b)"), ("latency", "Fig 6(c)")):
        t = run_fig6_tradeoff(which, args.scale, args.seed, context=context,
                              iterations=args.iterations)
        pts = t.scatter()
        front = t.front()
        print()
        print(scatter_chart(
            pts[:, 0], pts[:, 1],
            title=f"{label}: accuracy vs {which} (●=Pareto front)",
            x_label=which, y_label="accuracy",
            highlight=[tuple(p) for p in front],
        ))
        distances = t.front_distance_by_phase()
        print(f"distance to front by phase: "
              + " -> ".join(f"{d:.4f}" for d in distances))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_context
    from repro.experiments.table2 import run_table2

    context = get_context(args.scale, args.seed, workers=args.workers,
                          store_path=args.store)
    result = run_table2(args.scale, args.seed, context=context,
                        iterations=args.iterations,
                        rescore_training=args.rescore_training)
    print(result.to_text())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_context
    from repro.service import SearchService

    if args.trace_out:
        from repro.obs import configure_tracing

        configure_tracing(enabled=True, sink_path=args.trace_out)
    context = get_context(args.scale, args.seed, workers=args.workers,
                          store_path=args.store)
    service = SearchService(
        context.batch_evaluator,
        host=args.host,
        port=args.port,
        tick_s=args.tick_s,
        max_inflight_points=args.max_inflight,
        idle_timeout_s=args.idle_timeout_s,
        # The context opened the store (shared with sample collection) and
        # its atexit cleanup closes it; the service syncs it on drain.
        store=context.store,
    )
    # The context owns the evaluator (and its worker pool); the atexit
    # cleanup in repro.experiments.common closes it after the drain.
    service.run()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_stats
    from repro.service.client import ServiceClient

    retry = None
    if args.retry_max is not None:
        from repro.resilience import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retry_max)
    with ServiceClient.connect(
        args.endpoint,
        timeout=args.timeout,
        retry=retry,
        deadline_s=args.deadline_s,
    ) as client:
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(render_stats(stats))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args.paths, json_output=args.json, rules=args.rule or None)


def cmd_space(args: argparse.Namespace) -> int:
    from repro.accel.config import hw_space_size
    from repro.nas.encoding import token_vocab_sizes
    from repro.nas.space import DnnSpace, paper_space_size

    space = DnnSpace()
    print(f"DNN cell encodings       : {space.cell_count():.3e}")
    print(f"DNN genotypes            : {space.size():.3e}")
    print(f"paper's closed-form size : {paper_space_size():.3e}")
    print(f"hardware configurations  : {hw_space_size()}")
    print(f"joint co-design points   : {space.size() * hw_space_size():.3e}")
    vocab = token_vocab_sizes()
    print(f"action sequence          : {len(vocab)} tokens, vocab sizes {list(vocab)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="yoso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full 3-step co-design pipeline")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fig4", help="predictor comparison (Fig. 4)")
    _add_common(p)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("fig5", help="HyperNet effectiveness (Fig. 5)")
    _add_common(p)
    p.add_argument("--models", type=int, default=10)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("fig6", help="search-strategy figures (Fig. 6)")
    _add_common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("table2", help="two-stage comparison (Table 2 / Fig. 7)")
    _add_common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument(
        "--rescore-training", action="store_true",
        help="rescore the YOSO rows' top-N by stand-alone training "
             "(sharded across --workers) instead of the HyperNet "
             "re-measurement")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "serve",
        help="long-lived search-evaluation service (repro.service)")
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7777,
                   help="TCP port (0 = OS-assigned, printed on startup)")
    p.add_argument("--tick-s", type=float, default=0.002,
                   help="coalescing window: how long the scheduler waits "
                        "after cold traffic arrives before batching (latency "
                        "floor vs batch size; all-cached requests skip it "
                        "— see docs/PERFORMANCE.md)")
    p.add_argument("--max-inflight", type=int, default=4096,
                   help="backpressure budget: points admitted concurrently "
                        "before further requests queue")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="enable span tracing and append one JSON line per "
                        "span to PATH (default: tracing off — zero-cost; "
                        "see docs/OBSERVABILITY.md)")
    p.add_argument("--idle-timeout-s", type=float, default=None,
                   help="disconnect a peer that sends nothing for this many "
                        "seconds (default: never) so dead clients cannot "
                        "pin server resources — see docs/RESILIENCE.md")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "stats",
        help="fetch and render a running service's telemetry "
             "(stats verb v2: counters, queue depths, latency histograms)")
    p.add_argument("endpoint", metavar="HOST:PORT",
                   help="service endpoint, e.g. 127.0.0.1:7777")
    p.add_argument("--json", action="store_true",
                   help="print the raw stats JSON instead of the rendering")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retry-max", type=int, default=None,
                   help="max attempts for the stats request (default: the "
                        "client's standard retry policy; 1 disables retries "
                        "— see docs/RESILIENCE.md)")
    p.add_argument("--deadline-s", type=float, default=None,
                   help="total time budget for the request (connect + write "
                        "+ read + retries); a blown budget raises a typed "
                        "DeadlineExceeded instead of hanging")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant checker (determinism, "
             "metric handles, lock discipline, error taxonomy, wire "
             "floats — see docs/ANALYSIS.md)")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files/directories to lint (default: src tests "
                        "benchmarks)")
    p.add_argument("--json", action="store_true",
                   help="emit the stable sorted finding schema for CI diffing")
    p.add_argument("--rule", action="append", metavar="ID",
                   help="restrict to the given rule id (repeatable)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("space", help="search-space statistics")
    p.set_defaults(func=cmd_space)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
