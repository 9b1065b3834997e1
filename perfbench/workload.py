"""One benchmark workload, run in its own process.

``run.py`` starts this file, waits for the ``READY`` line that marks the
end of set-up, and reads the ``RESULT`` JSON line printed at the end::

    python3 perfbench/workload.py --workload search_rl --seed 1 --seconds 10 --trace 0

``--setup-only`` stops after ``READY`` and the host reference
(``run.py`` repeats set-up this way to take a median set-up time).  Every
input comes from ``--seed``; the repro library sees only the generated
inputs.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every process it starts.  Set before
# numpy is imported; pool workers and the server child inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.accel.config import random_config
from repro.accel.simulator import SystolicArraySimulator
from repro.experiments.common import demo_thresholds
from repro.nas.encoding import CoDesignPoint
from repro.nas.hypernet import HyperNet, HyperNetTrainer
from repro.nas.space import DnnSpace
from repro.nn.data import SyntheticCifar
from repro.obs import configure_tracing, get_tracer
from repro.parallel import create_evaluator
from repro.predict.dataset import collect_samples
from repro.scale import get_scale
from repro.search.controller import Controller
from repro.search.evaluator import FastEvaluator
from repro.search.reinforce import ReinforceSearch
from repro.search.reward import BALANCED
from repro.service import ServiceClient

from layers import TIMED_LAYERS, Recorder, WorkerLayers

HERE = Path(__file__).resolve().parent
VALIDATION_IMAGES = 96
HELD_OUT_SAMPLES = 48
CHECK_SAMPLE = 2
POPULATION_SEED_OFFSET = 40
#: Steps whose best reward is reported (a fixed prefix of every run, so
#: the figure does not depend on how fast the host is).
REWARD_STEPS = 20


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def host_ref_s(rounds: int = 5) -> float:
    """Median seconds of a fixed kernel mix the benchmark owns.

    A 3x3 window copy, a GEMM, a ReLU and batch statistics over a
    96x16x16x16 float32 activation, plus a Python dict loop: the shapes
    and the interpreter work the workloads spend their time on, in code
    no change to ``src/`` can touch.  The launcher scales each run's
    timings by it, so a host running slower or faster for a while moves
    both alike.
    """
    x = np.linspace(-1.0, 1.0, 96 * 16 * 18 * 18, dtype=np.float32).reshape(96, 16, 18, 18)
    w = np.linspace(-1.0, 1.0, 144 * 32, dtype=np.float32).reshape(144, 32)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(3):
            windows = sliding_window_view(x, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
            y = np.maximum(np.ascontiguousarray(windows).reshape(-1, 144) @ w, 0.0)
            y.mean(axis=0), y.var(axis=0)
            table = {}
            for i in range(3000):
                table[i] = (i, 2 * i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# Shared set-up: the demo-shape Step-1 artefacts with a random-init HyperNet
# ---------------------------------------------------------------------------


@dataclass
class Context:
    seed: int
    dataset: SyntheticCifar
    hypernet: HyperNet
    fast: FastEvaluator
    reward: object
    predictor_mape_pct: float


def build_context(seed: int) -> Context:
    """Dataset, HyperNet, simulator samples and the two GP fits.

    Step-1 HyperNet training is replaced by random initialisation: an
    op's cost does not depend on its weights, so timings are unchanged.
    """
    scale = get_scale("demo")
    dataset = SyntheticCifar(
        image_size=scale.image_size,
        train_size=scale.train_size,
        val_size=scale.val_size,
        test_size=scale.test_size,
        seed=seed,
    )
    simulator = SystolicArraySimulator()
    shape = dict(
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        num_classes=dataset.num_classes,
    )
    hypernet = HyperNet(rng=np.random.default_rng(seed), **shape)
    samples = collect_samples(
        scale.predictor_samples, seed=seed + 1, simulator=simulator,
        image_size=scale.image_size, **shape,
    )
    fast = FastEvaluator.from_samples(
        hypernet, dataset, samples, seed=seed, image_size=scale.image_size,
        eval_batch=VALIDATION_IMAGES, **shape,
    )
    fast.val_images = dataset.val.images[:VALIDATION_IMAGES]
    fast.val_labels = dataset.val.labels[:VALIDATION_IMAGES]
    t_lat, t_eer = demo_thresholds(scale, simulator=simulator, seed=seed + 2)
    held_out = collect_samples(
        HELD_OUT_SAMPLES, seed=seed + 3, simulator=simulator,
        image_size=scale.image_size, **shape,
    )
    errors = [
        np.abs(gp.predict_batch(held_out.x) - truth) / truth
        for gp, truth in (
            (fast.latency_gp, held_out.latency_ms),
            (fast.energy_gp, held_out.energy_mj),
        )
    ]
    return Context(
        seed=seed,
        dataset=dataset,
        hypernet=hypernet,
        fast=fast,
        reward=BALANCED.scaled(t_lat, t_eer),
        predictor_mape_pct=100.0 * float(np.mean(np.concatenate(errors))),
    )


def fresh_points(
    rng: np.random.Generator, count: int, seen: set, configs_each: int = 1
) -> list[CoDesignPoint]:
    """``count`` seeded points over genotypes not in ``seen``, each genotype
    paired with ``configs_each`` hardware configurations."""
    space = DnnSpace()
    points: list[CoDesignPoint] = []
    while len(points) < count:
        genotype = space.sample(rng, name=f"p{len(seen)}")
        key = (genotype.normal, genotype.reduce)
        if key in seen:
            continue
        seen.add(key)
        points.extend(
            CoDesignPoint(genotype=genotype, config=random_config(rng))
            for _ in range(min(configs_each, count - len(points)))
        )
    return points


def check_points(ctx: Context, points, results) -> tuple[int, int]:
    """Output checks on scored points: accuracy ``==`` the scalar HyperNet
    oracle, latency/energy within relative 1e-9 of ``FastEvaluator.evaluate``.
    Returns ``(checked, failed)``."""
    failed = 0
    for point, got in zip(points, results):
        oracle = ctx.hypernet.evaluate(
            point.genotype, ctx.fast.val_images, ctx.fast.val_labels,
            batch_size=VALIDATION_IMAGES,
        )
        scalar = ctx.fast.evaluate(point)
        ok = (
            got.accuracy == oracle
            and math.isclose(got.latency_ms, scalar.latency_ms, rel_tol=1e-9)
            and math.isclose(got.energy_mj, scalar.energy_mj, rel_tol=1e-9)
        )
        if not ok:
            log(f"check failed for {point.genotype.name}: {got} vs acc {oracle}, {scalar}")
            failed += 1
    return len(points), failed


# ---------------------------------------------------------------------------
# Workloads.  Each sets itself up in __init__ (warm-up included), does one
# unit of work per op() and returns how many points/requests/images it was.
# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the four workloads."""

    unit = "points"
    #: Closed-loop callers, one thread each.
    callers = 1
    #: Operations a run completes even when ``--seconds`` runs out first.
    min_ops = 1
    #: Whether the timed phase is computation, which the launcher scales
    #: by the host reference (see ``host_ref_s``).
    compute_bound = True
    #: Per-layer figures measured during set-up (traced runs).
    setup_layers: dict = {}
    #: What other processes report back (the server child).
    report: dict = {}

    def quality(self) -> dict:
        """Deterministic quality figures: name -> (value, unit)."""
        return {}

    def pool_layers(self) -> dict:
        return {}

    #: Peak memory (MB) of the processes this workload started, known
    #: after :meth:`close`.
    children_rss_mb = 0.0

    def close(self) -> None:
        pass


class SearchRL(Workload):
    """Step 2: REINFORCE over an in-process BatchEvaluator, one episode
    per update, one caller in a closed loop."""

    min_ops = REWARD_STEPS

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.evaluator = create_evaluator(ctx.fast, workers=1)
        self.search = self._search(ctx.seed)
        warm = self._search(ctx.seed + 10)
        for _ in range(2):
            warm.step()

    def _search(self, seed: int) -> ReinforceSearch:
        return ReinforceSearch(
            Controller(hidden_dim=120, seed=seed),
            self.evaluator.evaluate,
            self.ctx.reward,
            seed=seed,
            evaluate_batch=self.evaluator.evaluate_many,
        )

    def op(self, _caller: int) -> int:
        self.search.step()
        return 1

    def check(self, rng: np.random.Generator) -> tuple[int, int]:
        samples = self.search.history.samples
        picks = sorted(rng.choice(len(samples), size=CHECK_SAMPLE, replace=False))
        points = [samples[i].point() for i in picks]
        results = [samples[i] for i in picks]
        return check_points(self.ctx, points, results)

    def quality(self) -> dict:
        best = max(s.reward for s in self.search.history.samples[:REWARD_STEPS])
        return {"best_reward": (best, "score"), "predictor_mape_pct": (self.ctx.predictor_mape_pct, "%")}


class PopulationCold(Workload):
    """Fresh 32-genotype populations through create_evaluator(workers=2)."""

    min_ops = 3
    population = 32
    workers = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed + 20)
        self.seen: set = set()
        self.evaluator = create_evaluator(ctx.fast, workers=self.workers)
        # Warm-up on a disjoint population: the first cold batch calibrates
        # in-process, the second spawns the pool, the third is a warm
        # dispatch.  Timed populations then always go to the pool.
        warm_points = [fresh_points(self.rng, 4, self.seen) for _ in range(3)]
        durations = []
        for points in warm_points:
            t0 = time.perf_counter()
            self.evaluator.evaluate_many(points)
            durations.append(time.perf_counter() - t0)
        pool = getattr(self.evaluator, "pool", None)
        self.setup_layers = {
            "parallel.pool.spawn_s": max(0.0, durations[1] - durations[2]),
            "parallel.pool.payload_mb": getattr(pool, "payload_bytes", 0) / 1e6,
        }
        self.items0 = getattr(pool, "items", 0)
        self.restarts0 = getattr(pool, "restarts", 0)
        self.populations = [
            fresh_points(self.rng, self.population, self.seen) for _ in range(8)
        ]
        self.scored: list[tuple[CoDesignPoint, object]] = []

    def op(self, _caller: int) -> int:
        if not self.populations:
            self.populations.append(fresh_points(self.rng, self.population, self.seen))
        points = self.populations.pop(0)
        results = self.evaluator.evaluate_many(points)
        self.scored.extend(zip(points, results))
        self.populations.append(fresh_points(self.rng, self.population, self.seen))
        return len(points)

    def check(self, rng: np.random.Generator) -> tuple[int, int]:
        picks = sorted(rng.choice(len(self.scored), size=CHECK_SAMPLE, replace=False))
        return check_points(
            self.ctx, [self.scored[i][0] for i in picks], [self.scored[i][1] for i in picks]
        )

    def quality(self) -> dict:
        return {"predictor_mape_pct": (self.ctx.predictor_mape_pct, "%")}

    def pool_layers(self) -> dict:
        pool = getattr(self.evaluator, "pool", None)
        return {
            "parallel.pool.items": getattr(pool, "items", 0) - self.items0,
            "parallel.pool.restarts": getattr(pool, "restarts", 0) - self.restarts0,
        }

    def close(self) -> None:
        pool = getattr(self.evaluator, "pool", None)
        pids = pool.worker_pids() if pool is not None else []
        self.children_rss_mb = sum(peak_rss_mb(pid) for pid in pids)
        self.evaluator.close()


class TrainHypernet(Workload):
    """Step 1: HyperNetTrainer.train_epoch over seeded augmented batches."""

    unit = "images"
    min_ops = 5
    batch = 64

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = np.random.default_rng(ctx.seed + 30)
        self.trainer = HyperNetTrainer(ctx.hypernet, epochs=12, seed=ctx.seed + 31)
        self.batches = list(
            ctx.dataset.batches("train", batch_size=self.batch, shuffle=True, augment=True, rng=rng)
        )
        self.step = 0
        self.losses: list[float] = []
        for _ in range(2):
            self.op(0)
        self.losses.clear()
        self.before = [p.data.copy() for p in ctx.hypernet.stem.parameters()]

    def op(self, _caller: int) -> int:
        x, y = self.batches[self.step % len(self.batches)]
        self.step += 1
        self.losses.append(self.trainer.train_epoch([(x, y)], epoch=0).loss)
        return len(y)

    def check(self, rng: np.random.Generator) -> tuple[int, int]:
        after = [p.data for p in self.ctx.hypernet.stem.parameters()]
        moved = any(not np.array_equal(a, b) for a, b in zip(self.before, after))
        finite = all(math.isfinite(loss) for loss in self.losses)
        if not (moved and finite):
            log(f"training check failed: moved={moved} finite={finite}")
        return 2, int(not moved) + int(not finite)



class ServeWarm(Workload):
    """A SearchService child with a warm LRU; two closed-loop clients.

    The 64-point population pairs 8 genotypes with 8 configurations each:
    64 distinct LRU entries for the price of 8 HyperNet evaluations.
    """

    unit = "requests"
    callers = 2
    min_ops = 20
    # A warm request waits out the scheduler's 2 ms coalescing window, a
    # timer that host speed does not stretch the way it stretches
    # computation; scaled by host_ref_s its spread measured 0.215 against
    # 0.169 as timed.
    compute_bound = False
    population = 64
    configs_each = 8
    request_points = 4

    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.points = population_points(seed)
        line = self.child.stdout.readline()
        if not line.startswith("LISTENING "):
            raise RuntimeError(f"server child failed to start: {line!r}")
        port = int(line.split()[1])
        self.clients = [ServiceClient("127.0.0.1", port) for _ in range(self.callers)]
        self.rngs = [np.random.default_rng(seed + 41 + i) for i in range(self.callers)]
        #: (picked indices, response) per request, checked after the run.
        self.responses: list[tuple[np.ndarray, list]] = []
        self.roundtrips: list[tuple[str, float]] = []
        for caller in range(self.callers):
            self.op(caller)
        self.responses.clear()

    def op(self, caller: int) -> int:
        picks = self.rngs[caller].choice(self.population, size=self.request_points, replace=False)
        client = self.clients[caller]
        client.last_trace_id = None
        t0 = time.perf_counter()
        got = client.evaluate_many([self.points[i] for i in picks])
        elapsed = time.perf_counter() - t0
        if client.last_trace_id is not None:
            self.roundtrips.append((client.last_trace_id, elapsed))
        self.responses.append((picks, got))
        return 1

    def set_trace(self, on: bool) -> None:
        self.child.stdin.write(f"trace {int(on)}\n")
        self.child.stdin.flush()

    def check(self, rng: np.random.Generator) -> tuple[int, int]:
        """Every response ``==`` the local warm evaluation (one batched call
        over the population, as the server's warm-up makes), plus the
        scalar-oracle checks on a sample.  A differing response is a
        failed request."""
        ctx = build_context(self.seed)
        expected = create_evaluator(ctx.fast, workers=1).evaluate_many(self.points)
        mismatched = sum(
            1 for picks, got in self.responses if got != [expected[i] for i in picks]
        )
        if mismatched:
            log(f"{mismatched} service responses differ from the local warm evaluation")
        picks = sorted(rng.choice(self.population, size=CHECK_SAMPLE, replace=False))
        checked, failed = check_points(
            ctx, [self.points[i] for i in picks], [expected[i] for i in picks]
        )
        return checked, failed + mismatched

    def close(self) -> None:
        retries = sum(client.retries for client in self.clients)
        for client in self.clients:
            client.close()
        self.child.stdin.write("stop\n")
        self.child.stdin.flush()
        out, _ = self.child.communicate(timeout=60)
        self.report = json.loads(out.strip().splitlines()[-1])
        self.report["client_retries"] = retries
        self.children_rss_mb = self.report["peak_rss_mb"]


def population_points(seed: int) -> list[CoDesignPoint]:
    """serve_warm's seeded population (the server child builds the same)."""
    return fresh_points(
        np.random.default_rng(seed + POPULATION_SEED_OFFSET),
        ServeWarm.population, set(), ServeWarm.configs_each,
    )


WORKLOADS = {
    "search_rl": SearchRL,
    "population_cold": PopulationCold,
    "serve_warm": ServeWarm,
    "train_hypernet": TrainHypernet,
}


# ---------------------------------------------------------------------------
# The timed phase
# ---------------------------------------------------------------------------


def closed_loop(workload, seconds: float, toggle=None) -> dict:
    """Run ``workload.op`` from ``workload.callers`` threads until
    ``seconds`` have passed and every caller did its share of
    ``min_ops()``.  With ``toggle`` (traced runs) single-caller ops
    alternate untraced/traced; multi-caller runs alternate in 0.5 s slices.
    """
    per_caller = -(-workload.min_ops // workload.callers)
    records: list[list[tuple[bool, float, int, bool]]] = [[] for _ in range(workload.callers)]
    state = {"traced": False}
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def caller(index: int) -> None:
        mine = records[index]
        while time.perf_counter() < deadline or len(mine) < per_caller:
            if toggle is not None and workload.callers == 1:
                state["traced"] = not state["traced"]
                toggle(state["traced"])
            traced = state["traced"]
            t0 = time.perf_counter()
            try:
                work, ok = workload.op(index), True
            except Exception as exc:  # a failed op is counted, never fatal
                log(f"op failed: {exc!r}")
                work, ok = 0, False
            mine.append((traced, time.perf_counter() - t0, work, ok))

    if workload.callers == 1:
        caller(0)
    else:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(workload.callers)]
        for thread in threads:
            thread.start()
        if toggle is not None:
            while any(thread.is_alive() for thread in threads):
                state["traced"] = not state["traced"]
                toggle(state["traced"])
                time.sleep(0.5)
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - t_start
    if toggle is not None:
        toggle(False)
    flat = [r for caller_records in records for r in caller_records]
    return {"wall": wall, "records": flat}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
        recorder.active = True
        configure_tracing(ring_size=200_000)
    if args.workload == "serve_warm":
        # The benchmark process needs no context of its own until the
        # output checks: set-up is the server child's.
        workload = ServeWarm(args.seed, bool(args.trace))
    else:
        ctx = build_context(args.seed)
        if recorder is not None:
            # Pool workers run the kernels of population_cold; the layer
            # tracer rides along in the pool's replication payload.
            ctx.fast.perfbench_worker_layers = WorkerLayers()
        workload = WORKLOADS[args.workload](ctx)
    setup = {}
    if recorder is not None:
        recorder.active = False
        setup = {**setup_layers(recorder), **workload.setup_layers}
        recorder.reset()
    print("READY", flush=True)
    refs = [host_ref_s()]
    if args.setup_only:
        workload.close()
        print("RESULT " + json.dumps({"host_ref_s": refs[0]}), flush=True)
        return 0

    toggle = None
    if recorder is not None:
        def toggle(on: bool) -> None:
            recorder.active = on
            configure_tracing(enabled=on)
            if isinstance(workload, ServeWarm):
                workload.set_trace(on)

    loop = closed_loop(workload, args.seconds, toggle)
    refs.append(host_ref_s())
    pool_layers = workload.pool_layers()
    repro_spans = get_tracer().spans() if recorder is not None else []
    if recorder is not None:
        recorder.uninstall()
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        recorder.write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl")
    configure_tracing(enabled=False)
    # Peak memory of the workload itself, read before the output checks
    # (the scalar oracle's training-mode caches are not the workload's).
    own_rss_mb = peak_rss_mb()
    checked, check_failed = workload.check(np.random.default_rng(args.seed + 50))
    workload.close()

    records = loop["records"]
    result = {
        "workload": args.workload,
        "unit": workload.unit,
        "wall_s": loop["wall"],
        "ops": len(records),
        "work": sum(r[2] for r in records),
        "op_failed": sum(1 for r in records if not r[3]),
        "checked": checked,
        "check_failed": check_failed,
        "quality": workload.quality(),
        "peak_rss_mb": own_rss_mb + workload.children_rss_mb,
        "cpu_count": len(os.sched_getaffinity(0)),
        "host_ref_s": statistics.mean(refs),
        "compute_bound": workload.compute_bound,
    }
    if recorder is None:
        result["latencies"] = [r[1] for r in records]
    else:
        result["layers"] = traced_layers(
            recorder, records, setup, pool_layers, repro_spans, workload
        )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def setup_layers(recorder: Recorder) -> dict:
    """The per-layer figures that belong to set-up: GP fits and simulation."""
    self_times = recorder.self_times()
    return {
        "predict.gp_fit.self_s": self_times.get("predict.gp_fit", 0.0),
        "accel.simulate.self_s": self_times.get("accel.simulate", 0.0),
        "accel.simulate.points": recorder.counts.get("accel.simulate.points", 0.0),
    }


def evaluator_lookups(spans: list[dict]) -> dict:
    """LRU hits and misses of the traced evaluator calls (repro spans)."""
    calls = [s.get("attrs", {}) for s in spans if s["name"] == "evaluator.evaluate_many"]
    return {key: sum(attrs.get(key, 0) for attrs in calls) for key in ("hits", "misses")}


def traced_layers(recorder, records, setup, pool_layers, repro_spans, workload) -> dict:
    """Fold the traced run into the per-layer metric table."""
    traced = [r for r in records if r[0]]
    untraced = [r for r in records if not r[0]]
    traced_wall = sum(r[1] for r in traced)
    layers = {f"{name}.self_s": 0.0 for name in TIMED_LAYERS}
    self_times = recorder.self_times()
    # Other processes' layers (the server child, pool workers) add to the
    # table but not to coverage, which is over this process's wall time.
    report = workload.report
    others = [report] + [
        s["attrs"] for s in repro_spans if s["name"] == WorkerLayers.SPAN
    ]
    counts = dict(recorder.counts)
    for name, seconds in self_times.items():
        layers[f"{name}.self_s"] = layers.get(f"{name}.self_s", 0.0) + seconds
    for other in others:
        for name, seconds in other.get("self_times", {}).items():
            layers[f"{name}.self_s"] = layers.get(f"{name}.self_s", 0.0) + seconds
        for key, value in other.get("counts", {}).items():
            counts[key] = counts.get(key, 0.0) + value
    # With concurrent callers the base is the wall time summed over callers.
    named = sum(self_times.get(name, 0.0) for name in TIMED_LAYERS)
    layers["trace.coverage_frac"] = named / traced_wall if traced_wall else 0.0

    def throughput(rows):
        seconds = sum(r[1] for r in rows)
        return sum(r[2] for r in rows) / seconds if seconds else 0.0

    untraced_tput, traced_tput = throughput(untraced), throughput(traced)
    layers["trace.overhead_frac"] = untraced_tput / traced_tput - 1.0 if traced_tput else 0.0
    for key in (
        "nas.evaluate_many.calls", "nas.evaluate_many.genotypes",
        "nn.conv2d_infer.calls", "nn.conv2d_infer.out_mb",
        "nn.depthwise_conv2d_infer.calls", "nn.depthwise_conv2d_infer.out_mb",
        "nn.batchnorm_infer.calls", "nn.batchnorm_infer.out_mb",
        "nn.pool_infer.calls", "nn.pool_infer.out_mb",
        "predict.gp_predict.rows",
    ):
        layers[key] = counts.get(key, 0.0)
    layers["service.protocol.bytes"] = counts.get("service.protocol.encode.bytes", 0.0) + counts.get(
        "service.protocol.decode.bytes", 0.0
    )
    layers["service.protocol.encode_s"] = layers.pop("service.protocol.encode.self_s")
    layers["service.protocol.decode_s"] = layers.pop("service.protocol.decode.self_s")
    layers["parallel.pool.wait_s"] = layers.pop("parallel.pool.wait.self_s")
    layers["parallel.pool.shard_busy_s"] = sum(
        s["duration_s"] for s in repro_spans if s.get("name") == "pool.shard"
    )
    layers.update(report.get("setup_layers", setup))
    layers.setdefault("parallel.pool.spawn_s", 0.0)
    layers.setdefault("parallel.pool.payload_mb", 0.0)
    layers["parallel.pool.items"] = pool_layers.get("parallel.pool.items", 0)
    layers["parallel.pool.restarts"] = pool_layers.get("parallel.pool.restarts", 0)
    ev = report["evaluator"] if "evaluator" in report else evaluator_lookups(repro_spans)
    layers["search.evaluator.hits"] = ev.get("hits", 0)
    layers["search.evaluator.misses"] = ev.get("misses", 0)
    lookups = layers["search.evaluator.hits"] + layers["search.evaluator.misses"]
    layers["search.evaluator.hit_ratio"] = layers["search.evaluator.hits"] / lookups if lookups else 0.0
    for key in (
        "parallel.scheduler.queue_wait_p50_ms", "parallel.scheduler.queue_wait_p99_ms",
        "parallel.scheduler.coalescing_ratio", "parallel.scheduler.batch_points_p50",
        "service.server.request_p50_ms", "service.rejected",
    ):
        layers[key] = report.get(key, 0.0)
    layers["service.client.roundtrip_p50_ms"] = 0.0
    layers["service.wire_p50_ms"] = 0.0
    roundtrips = getattr(workload, "roundtrips", [])
    if roundtrips:
        layers["service.client.roundtrip_p50_ms"] = 1000.0 * statistics.median(t for _, t in roundtrips)
        server = report.get("server_s", {})
        wire = [t - server[tid] for tid, t in roundtrips if tid in server]
        if wire:
            layers["service.wire_p50_ms"] = 1000.0 * statistics.median(wire)
    layers["resilience.retries"] = report.get("client_retries", 0) + report.get("retried_batches", 0)
    return layers


if __name__ == "__main__":
    sys.exit(main())
