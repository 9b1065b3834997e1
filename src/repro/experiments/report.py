"""One-shot report generator: every experiment, one markdown document.

``python -m repro.experiments.report --scale smoke`` regenerates all paper
artefacts at the chosen scale and emits a self-contained markdown report —
the executable counterpart of EXPERIMENTS.md.  Useful for re-validating the
reproduction on a new machine or after model changes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from .ablation import STRATEGIES, run_search_strategy_ablation
from .common import ExperimentContext, format_table, get_context
from .fig4 import run_fig4
from .fig5 import run_fig5a, run_fig5b
from .fig6 import run_fig6_tradeoff, run_fig6a
from .table2 import run_table2

__all__ = ["generate_report"]


def generate_report(
    scale_name: str = "smoke",
    seed: int = 0,
    context: ExperimentContext | None = None,
    iterations: int | None = None,
    correlation_models: int | None = None,
    workers: int = 1,
    endpoint: str | None = None,
    store_path: str | None = None,
    retry_max: int | None = None,
    deadline_s: float | None = None,
    fallback_local: bool = False,
) -> str:
    """Run every experiment and return the combined markdown report.

    Besides the paper artefacts, the report ends with an **evaluator
    efficiency** section: wall-clock seconds per stage plus the shared
    :class:`~repro.search.evaluator.BatchEvaluator` cache accounting
    (lookups / hits / hit-rate per stage, cumulative hit rate overall) —
    see EXPERIMENTS.md for how to read the columns.  ``workers > 1``
    shards candidate scoring across that many worker threads (results
    are bit-identical; a parallel-engine line is appended to the
    efficiency section).  ``workers`` only applies when ``context`` is
    None — an explicit context brings its own evaluator, and the report
    describes THAT context's engine.

    ``endpoint`` (``"host:port"``) switches candidate scoring to a live
    :mod:`repro.service` search service: the local Step-1 artefacts
    (HyperNet, thresholds) are still built, but every ``evaluate_many``
    goes over the wire through a
    :class:`~repro.service.client.RemoteEvaluator` — results are
    bit-identical to local scoring, and the efficiency section reports
    the *service's* scheduler/coalescing stats instead of a local pool.

    ``store_path`` (``--store``) opens a durable result store behind the
    evaluator LRU; the efficiency section then adds the tier-2 accounting
    line (store hits / eligible misses and the on-disk record count), and
    a report re-run on the same path replays persisted results
    bit-identically.  Only applies when ``context`` is None, like
    ``workers``.

    Endpoint-mode resilience knobs (see docs/RESILIENCE.md):
    ``retry_max`` overrides the client's max attempts per request
    (``1`` disables retries), ``deadline_s`` sets a per-request time
    budget, and ``fallback_local`` keeps the report running through a
    dead service by scoring on the local evaluator while the circuit
    breaker is open — results are identical either way, because
    evaluation is deterministic.
    """
    if endpoint is not None:
        from dataclasses import replace

        from ..service import RemoteEvaluator

        # ``workers`` still matters with an endpoint: candidate scoring
        # goes remote, but the harnesses' local stand-alone trainings
        # (table2's rescore path) shard by context.workers.
        base = context or get_context(
            scale_name, seed, workers=workers, store_path=store_path
        )
        retry = None
        if retry_max is not None:
            from ..resilience import RetryPolicy

            retry = RetryPolicy(max_attempts=retry_max)
        fallback = base.batch_evaluator if fallback_local else None
        # Close the connection on every exit path — a failing experiment
        # must not leak the client socket (and the server's reader task).
        with RemoteEvaluator(
            endpoint, retry=retry, deadline_s=deadline_s, fallback=fallback
        ) as remote:
            return _generate(
                replace(base, batch_evaluator=remote),
                seed, scale_name, iterations, correlation_models,
                remote=remote, endpoint=endpoint,
            )
    context = context or get_context(
        scale_name, seed, workers=workers, store_path=store_path
    )
    return _generate(
        context, seed, scale_name, iterations, correlation_models,
        remote=None, endpoint=None,
    )


def _generate(
    context: ExperimentContext,
    seed: int,
    scale_name: str,
    iterations: int | None,
    correlation_models: int | None,
    remote,
    endpoint: str | None,
) -> str:
    scale = context.scale
    evaluator = context.batch_evaluator
    n_iter = iterations if iterations is not None else scale.search_iterations
    n_corr = (
        correlation_models
        if correlation_models is not None
        else scale.correlation_models
    )
    stage_rows: list[list[str]] = []

    def counters() -> tuple[int, int]:
        """(hits, misses) — one consistent snapshot per observation (a
        remote evaluator answers from a single stats round-trip)."""
        if remote is not None:
            return remote.counters()
        return evaluator.hits, evaluator.misses

    def staged(name: str, fn: Callable):
        """Run one report stage, recording duration and cache deltas."""
        hits0, misses0 = counters()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        hits1, misses1 = counters()
        hits = hits1 - hits0
        lookups = hits + misses1 - misses0
        rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "-"
        stage_rows.append(
            [name, f"{seconds:.2f}", str(lookups), str(hits), rate]
        )
        return result

    parts: list[str] = [
        f"# YOSO reproduction report — scale `{scale.name}`, seed {seed}",
        "",
        f"Thresholds: t_lat = {context.t_lat_ms:.4f} ms, "
        f"t_eer = {context.t_eer_mj:.4f} mJ.",
    ]

    # Fig. 4.
    fig4 = staged("fig4", lambda: run_fig4(scale_name, seed=seed))
    parts += ["", "## Fig. 4 — performance-predictor comparison", "",
              "```", fig4.to_text(), "```",
              f"Best energy predictor: **{fig4.best('energy').model}**; "
              f"best latency predictor: **{fig4.best('latency').model}**."]

    # Fig. 5.
    fig5a = staged("fig5a", lambda: run_fig5a(scale_name, seed, context=context))
    parts += ["", "## Fig. 5(a) — HyperNet training", "",
              "epoch accuracies: "
              + ", ".join(f"{a:.3f}" for a in fig5a.accuracy)]
    fig5b = staged(
        "fig5b",
        lambda: run_fig5b(scale_name, seed, context=context, n_models=n_corr),
    )
    parts += ["", "## Fig. 5(b) — inherited vs stand-alone accuracy", "",
              f"pearson r = {fig5b.pearson_r:.3f}, "
              f"spearman rho = {fig5b.spearman_rho:.3f} over {n_corr} models"]

    # Fig. 6.
    fig6a = staged(
        "fig6a",
        lambda: run_fig6a(scale_name, seed, context=context, iterations=n_iter),
    )
    parts += ["", "## Fig. 6(a) — RL vs random search", "",
              f"RL: best {fig6a.rl_best:.4f}, tail-mean {fig6a.rl_tail_mean():.4f}; "
              f"random: best {fig6a.random_best:.4f}, "
              f"tail-mean {fig6a.random_tail_mean():.4f}"]
    for which, label in (("energy", "Fig. 6(b)"), ("latency", "Fig. 6(c)")):
        tr = staged(
            f"fig6-{which}",
            lambda which=which: run_fig6_tradeoff(
                which, scale_name, seed, context=context, iterations=n_iter
            ),
        )
        distances = tr.front_distance_by_phase()
        parts += ["", f"## {label} — accuracy-{which} trade-off", "",
                  "distance to Pareto front by phase: "
                  + " -> ".join(f"{d:.4f}" for d in distances)]

    # Table 2 / Fig. 7.
    table2 = staged(
        "table2",
        lambda: run_table2(scale_name, seed, context=context, iterations=n_iter),
    )
    parts += ["", "## Table 2 / Fig. 7 — two-stage comparison", "",
              "```", table2.to_text(), "```",
              f"executed two-stage / Yoso_eer energy ratio: "
              f"{table2.nas_energy_ratio():.2f}x; "
              f"latency ratio: {table2.nas_latency_ratio():.2f}x"]

    # Search-strategy ablation.
    ablation = staged(
        "ablation",
        lambda: run_search_strategy_ablation(
            scale_name, seed, context=context, iterations=max(10, n_iter // 2)
        ),
    )
    rows = [
        [which, f"{ablation.best(which):.4f}", f"{ablation.tail_mean(which):.4f}"]
        for which in STRATEGIES
    ]
    parts += ["", "## Search-strategy ablation", "", "```",
              format_table(["strategy", "best", "tail-mean"], rows), "```"]

    # Evaluator efficiency (ROADMAP item: surface hit_rate + durations).
    final_hits, final_misses = counters()
    total = final_hits + final_misses
    rate = final_hits / total if total else 0.0
    parts += ["", "## Evaluator efficiency", "",
              f"BatchEvaluator cumulative hit rate: "
              f"{100.0 * rate:.1f}% "
              f"({final_hits} hits / {total} lookups; "
              f"cache size {evaluator.cache_size})",
              "", "```",
              format_table(
                  ["stage", "seconds", "lookups", "hits", "hit-rate"],
                  stage_rows,
              ),
              "```"]
    store = getattr(evaluator, "store", None)
    if store is not None:
        s_hits = evaluator.store_hits
        s_total = s_hits + evaluator.store_misses
        s_rate = 100.0 * s_hits / s_total if s_total else 0.0
        parts += ["",
                  f"Durable store (tier 2): {s_hits} of {s_total} eligible "
                  f"LRU misses served from disk ({s_rate:.1f}% tier-2 hit "
                  f"rate); {len(store)} records in {store.path} "
                  f"({store.size_bytes} bytes, {store.appends} appended "
                  f"this run)."]
    if remote is not None:
        # A dead backend must not fail the report when a fallback served
        # the run — degrade the service line like the scoring calls did
        # (see docs/RESILIENCE.md, "--fallback-local").
        try:
            stats = remote.service_stats()
        except (ConnectionError, TimeoutError, OSError) as exc:
            res = remote.resilience_stats()
            breaker = res.get("breaker") or {}
            parts += ["",
                      f"Search service: endpoint {endpoint} unreachable "
                      f"({type(exc).__name__}); {res['fallback_calls']} "
                      f"scoring calls served by the local fallback "
                      f"evaluator (circuit breaker "
                      f"{breaker.get('state', 'n/a')}, "
                      f"{breaker.get('opens', 0)} opens, "
                      f"{res['retries']} request retries)."]
        else:
            sched = stats["scheduler"]
            service = stats["service"]
            ratio = sched["coalescing_ratio"]
            parts += ["",
                      f"Search service: endpoint {endpoint}, "
                      f"{service['requests']} requests over "
                      f"{service['connections']} connections; scheduler ran "
                      f"{sched['ticks']} ticks for {sched['requests']} submitted "
                      f"requests ({sched['points_in']} points, "
                      f"largest batch {sched['largest_batch']}, "
                      f"{sched['errors']} errors"
                      + (f", {ratio:.2f} requests/tick" if ratio else "")
                      + f"); peak in-flight {service['peak_inflight_points']} / "
                      f"{service['max_inflight_points']} budget points."]
    elif context.workers > 1:
        pool = getattr(evaluator, "pool", None)
        batches = pool.batches if pool is not None else 0
        items = pool.items if pool is not None else 0
        parts += ["",
                  f"Parallel engine: {context.workers} worker threads, "
                  f"{batches} sharded batches ({items} cold genotypes); "
                  f"batches with fewer than two cold genotypes run inline "
                  f"(see docs/PERFORMANCE.md)."]

    # Machine-readable metrics (repro.obs registry snapshot — the
    # service's own registry in endpoint mode, this process's otherwise).
    # Inside a json fence so downstream tooling can parse the block
    # straight out of the report.
    import json as _json

    from ..obs import get_registry
    if remote is not None:
        metrics = remote.metrics()
    else:
        metrics = get_registry().snapshot()
    parts += ["", "## Metrics", "",
              "Registry snapshot (see docs/OBSERVABILITY.md for the "
              "schema" + (", sampled from the remote service" if remote
                          is not None else "") + "):",
              "", "```json",
              _json.dumps(metrics, indent=2, sort_keys=True),
              "```"]
    return "\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "demo"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for candidate scoring "
                             "(1 = serial; results are bit-identical)")
    parser.add_argument("--endpoint", default=None, metavar="HOST:PORT",
                        help="score candidates against a running "
                             "`yoso serve` search service instead of "
                             "in-process (bit-identical results)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="durable result-store file (repro.store): "
                             "persisted results are replayed bit-identically "
                             "and the efficiency section reports the tier-2 "
                             "hit accounting")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable span tracing and append one JSON line "
                             "per span to PATH (default: tracing off)")
    parser.add_argument("--retry-max", type=int, default=None,
                        help="endpoint mode: max attempts per request "
                             "(default: the client's standard retry policy; "
                             "1 disables retries — docs/RESILIENCE.md)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="endpoint mode: per-request time budget; a "
                             "blown budget raises DeadlineExceeded instead "
                             "of hanging")
    parser.add_argument("--fallback-local", action="store_true",
                        help="endpoint mode: when the service is unreachable "
                             "(circuit breaker open), score on the local "
                             "evaluator instead of failing — results are "
                             "identical, only latency changes")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    if args.trace_out:
        from ..obs import configure_tracing

        configure_tracing(enabled=True, sink_path=args.trace_out)
    report = generate_report(args.scale, args.seed, iterations=args.iterations,
                             workers=args.workers, endpoint=args.endpoint,
                             store_path=args.store,
                             retry_max=args.retry_max,
                             deadline_s=args.deadline_s,
                             fallback_local=args.fallback_local)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
