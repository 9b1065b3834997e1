"""Edge concurrency in the cell DAG (``repro.nas.network.run_tasks``).

``CellDag`` runs every forward and backward as a task graph on the
calling thread and one helper thread.  The serial reference here is a
test-side replacement runner that runs the same tasks in index order on
one thread; every result must be ``==`` it, never merely close:

* Step-1 ``HyperNetTrainer`` steps over hypothesis-sampled genotypes,
  aliased edges included: weights, BN running statistics, losses and
  input gradients;
* Step-3 ``train_network`` on a ``CellNetwork``;
* an op that raises in forward or in backward: the error reaches the
  caller, no task is still running afterwards, and the next step is
  exact;
* ``train_accuracies`` at ``workers=2``, whose two pool threads share
  the one helper, and a caller whose helper is busy elsewhere;
* the grouped ``HyperNet.forward_many`` / ``evaluate_many`` over
  hypothesis-sampled populations (shared first cells, aliased edges),
  which must also equal the scalar ``HyperNet.evaluate``.

CI runs this module in the parallel job, once with one BLAS thread and
once with default BLAS threading.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nas import network
from repro.nas.genotype import NUM_NODES, CellGenotype, Genotype, NodeSpec
from repro.nas.hypernet import HyperNet, HyperNetTrainer
from repro.nas.network import CellNetwork, run_tasks
from repro.nas.ops import OP_NAMES
from repro.nas.train import train_network
from repro.nn.data import SyntheticCifar
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Module

_DATASET = SyntheticCifar(image_size=8, train_size=48, val_size=16, test_size=16, seed=0)
_BATCHES = list(
    _DATASET.batches(
        "train", batch_size=16, shuffle=True, augment=True, rng=np.random.default_rng(1)
    )
)


def serial_run_tasks(tasks, keep=()):
    """The reference runner: every task in index order, on this thread,
    keeping every result."""
    results: list = []
    for fn, deps in tasks:
        results.append(fn(*[results[d] for d in deps]))
    return results


@st.composite
def cells(draw) -> CellGenotype:
    """Any valid cell; about half the nodes alias both slots onto one
    ``(input, op)`` edge, which the HyperNet serves with one module."""
    nodes = []
    for idx in range(2, NUM_NODES):
        in1 = draw(st.integers(0, idx - 1))
        op1 = draw(st.sampled_from(OP_NAMES))
        if draw(st.booleans()):
            in2, op2 = in1, op1
        else:
            in2 = draw(st.integers(0, idx - 1))
            op2 = draw(st.sampled_from(OP_NAMES))
        nodes.append(NodeSpec(in1, in2, op1, op2))
    return CellGenotype(nodes=tuple(nodes))


genotypes = st.builds(Genotype, normal=cells(), reduce=cells())


@st.composite
def populations(draw) -> list[Genotype]:
    """1-4 genotypes over at most two normal and two reduce cells, so
    paths share first-cell work (equal normal cells see equal identity
    tokens), repeat whole genotypes and alias edges."""
    normals = draw(st.lists(cells(), min_size=1, max_size=2))
    reduces = draw(st.lists(cells(), min_size=1, max_size=2))
    return [
        Genotype(normal=draw(st.sampled_from(normals)), reduce=draw(st.sampled_from(reduces)))
        for _ in range(draw(st.integers(1, 4)))
    ]


def _bn_stats(modules) -> list[np.ndarray]:
    return [
        a
        for m in modules
        if isinstance(m, BatchNorm2d)
        for a in (m.running_mean, m.running_var)
    ]


def _assert_same(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class _Trainer:
    """A small HyperNet trained on a fixed genotype sequence, recording
    every step's loss and input gradient."""

    def __init__(self, path: list[Genotype]) -> None:
        self.net = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(0))
        self.trainer = HyperNetTrainer(self.net, epochs=1, seed=2)
        path_iter = iter(path)
        self.net.sample_genotype = lambda rng, name="sampled": next(path_iter)
        self.losses: list[float] = []
        self.input_grads: list[np.ndarray] = []
        backward = self.net.backward

        def recording_backward(grad: np.ndarray) -> np.ndarray:
            self.input_grads.append(backward(grad))
            return self.input_grads[-1]

        self.net.backward = recording_backward

    def step(self, batch) -> None:
        self.losses.append(self.trainer.train_epoch([batch], epoch=0).loss)

    def state(self) -> dict:
        return {
            "weights": [p.data for p in self.net.parameters()],
            "bn": _bn_stats(self.net._all_modules),
            "losses": [np.array(self.losses)],
            "input_grads": self.input_grads,
        }


_STATE_KEYS = ("weights", "bn", "losses", "input_grads")


def _assert_same_state(got: dict, want: dict, keys=_STATE_KEYS) -> None:
    for key in keys:
        _assert_same(got[key], want[key])


def _train_hypernet(path: list[Genotype], serial: bool) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        if serial:
            mp.setattr(network, "run_tasks", serial_run_tasks)
        run = _Trainer(path)
        for i in range(len(path)):
            run.step(_BATCHES[i % len(_BATCHES)])
    return run.state()


# ---------------------------------------------------------------------------
# The runner itself
# ---------------------------------------------------------------------------


def _yielding_sum(i: int, *xs: int) -> int:
    time.sleep(0)  # a thread switch point, as a GIL-releasing kernel is
    return i + sum(xs)


class TestRunTasks:
    def test_results_in_task_order(self):
        tasks = [(lambda: 2, ()), (lambda: 3, ()), (lambda a, b: a * 10 + b, (0, 1)),
                 (lambda c, a: c - a, (2, 0))]
        assert run_tasks(tasks, range(4)) == [2, 3, 23, 21]

    def test_consumed_results_are_dropped_unless_kept(self):
        class Box:
            pass

        refs: dict[str, weakref.ref] = {}

        def make(name: str):
            def task() -> Box:
                box = Box()
                refs[name] = weakref.ref(box)
                return box

            return task

        def check(_) -> tuple[bool, bool]:
            return refs["dropped"]() is None, refs["kept"]() is not None

        tasks = [(make("dropped"), ()), (make("kept"), ()), (lambda a, b: None, (0, 1)),
                 (check, (2,))]
        results = run_tasks(tasks, keep={1})
        assert results[3] == (True, True)
        assert results[0] is None and results[2] is None
        assert results[1] is refs["kept"]()

    def test_independent_tasks_run_on_two_threads(self):
        # Task 0 waits until task 1 has started: only a second runner can
        # start task 1 while the caller is inside task 0.
        started = threading.Event()
        names: list[str] = []

        def first() -> bool:
            names.append(threading.current_thread().name)
            return started.wait(10.0)

        def second() -> None:
            names.append(threading.current_thread().name)
            started.set()

        assert run_tasks([(first, ()), (second, ())], ())[0] is True
        assert len(set(names)) == 2

    def test_error_is_raised_after_both_runners_stop(self):
        active = []

        def slow() -> None:
            active.append(1)
            time.sleep(0.05)
            active.pop()

        def boom() -> None:
            raise ValueError("task failed")

        for order in ([slow, boom], [boom, slow]):
            with pytest.raises(ValueError, match="task failed"):
                run_tasks([(fn, ()) for fn in order], ())
            assert active == []

    def test_helper_stays_out_while_another_graph_runs(self):
        # The helper is held busy until a second caller's graph is in
        # flight; once free it must leave both graphs to their callers.
        gate, other_started, other_release = (threading.Event() for _ in range(3))
        blocker = network._HELPER.submit(gate.wait, 60.0)

        def other_caller() -> None:
            run_tasks([(lambda: (other_started.set(), other_release.wait(60.0)), ())], ())

        other = threading.Thread(target=other_caller)

        def start_other() -> None:
            other.start()
            assert other_started.wait(10.0)
            gate.set()

        def named() -> str:
            time.sleep(0.02)
            return threading.current_thread().name

        tasks = [(start_other, ())] + [(lambda _: named(), (0,)) for _ in range(4)]
        try:
            names = run_tasks(tasks, ())[1:]
        finally:
            gate.set()
            other_release.set()
            blocker.result()
            if other.is_alive():
                other.join(timeout=60.0)
        assert not other.is_alive()
        assert set(names) == {threading.current_thread().name}

    def test_stress_three_callers_short_switch_interval(self):
        # Random DAGs of cheap tasks from three threads at once, sharing
        # the one helper, with frequent thread switches: a lost update to
        # the ready counts would leave a task unrun.
        rng = np.random.default_rng(8)
        graphs = []
        for _ in range(6):
            tasks = []
            for i in range(40):
                deps = tuple(sorted(set(rng.integers(0, i, size=min(i, 3)).tolist()))) if i else ()
                tasks.append((partial(_yielding_sum, i), deps))
            graphs.append(tasks)
        want = [serial_run_tasks(tasks) for tasks in graphs]
        failures: list = []

        def caller(k: int) -> None:
            try:
                for _ in range(50):
                    for tasks, expected in zip(graphs[k::3], want[k::3]):
                        assert run_tasks(tasks, range(len(tasks))) == expected
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


# ---------------------------------------------------------------------------
# Exactness against the serial reference
# ---------------------------------------------------------------------------


def _reference_walk(cell, s0, s1, spec):
    """The cell forward written as a plain serial loop."""
    pre = (cell.preprocess0[s0.shape[1]], cell.preprocess1[s1.shape[1]])
    states = [pre[0](s0), pre[1](s1)]
    for offset, node in enumerate(spec.nodes):
        op_a = cell.edge_ops[(offset + 2, node.input1, node.op1)]
        op_b = cell.edge_ops[(offset + 2, node.input2, node.op2)]
        if op_a is op_b:
            y = op_a(states[node.input1])
            states.append(y + y)
        else:
            states.append(op_a(states[node.input1]) + op_b(states[node.input2]))
    return pre, states, np.concatenate([states[i] for i in spec.loose_ends()], axis=1)


def _reference_backward(cell, pre, states, spec, grad_out):
    """The cell backward written as a plain serial loop: each state's
    gradient is its loose-end slice, then its contributions added in
    reverse node order, slot a before slot b."""
    c = cell.channels
    grads: list = [None] * NUM_NODES

    def accumulate(idx, value):
        grads[idx] = value if grads[idx] is None else grads[idx] + value

    for pos, idx in enumerate(spec.loose_ends()):
        grads[idx] = np.ascontiguousarray(grad_out[:, pos * c : (pos + 1) * c])
    for offset in range(len(spec.nodes) - 1, -1, -1):
        g, node = grads[offset + 2], spec.nodes[offset]
        op_a = cell.edge_ops[(offset + 2, node.input1, node.op1)]
        op_b = cell.edge_ops[(offset + 2, node.input2, node.op2)]
        if op_a is op_b:
            accumulate(node.input1, op_a.backward(g + g))
        else:
            accumulate(node.input1, op_a.backward(g))
            accumulate(node.input2, op_b.backward(g))
    g0 = grads[0] if grads[0] is not None else np.zeros_like(states[0])
    g1 = grads[1] if grads[1] is not None else np.zeros_like(states[1])
    return pre[0].backward(g0), pre[1].backward(g1)


class TestAgainstSerialWalk:
    """The task graphs keep the serial loop's operands and sum order."""

    @settings(deadline=None, max_examples=12)
    @given(cells(), st.booleans())
    def test_cell_forward_and_backward_equal_serial_loop(self, spec, reduction):
        from repro.nas.hypernet import MixedCell

        def build():
            return MixedCell(4, 4, (1,), (1,), 4, reduction, False, np.random.default_rng(6))

        rng = np.random.default_rng(7)
        s0, s1 = (rng.standard_normal((4, 4, 8, 8)).astype(np.float32) for _ in range(2))
        ours, ref = build(), build()
        out = ours(s0, s1, spec)
        pre, states, want = _reference_walk(ref, s0, s1, spec)
        assert np.array_equal(out, want)
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        got_grads = ours.backward(grad_out)
        want_grads = _reference_backward(ref, pre, states, spec, grad_out)
        _assert_same(list(got_grads), list(want_grads))
        _assert_same([p.grad for p in ours.parameters()], [p.grad for p in ref.parameters()])
        _assert_same(_bn_stats(ours._children(set())), _bn_stats(ref._children(set())))


class TestHyperNetTraining:
    @settings(deadline=None, max_examples=6)
    @given(st.lists(genotypes, min_size=3, max_size=3))
    def test_steps_equal_serial(self, path):
        _assert_same_state(_train_hypernet(path, serial=False), _train_hypernet(path, serial=True))

    def test_aliased_fixture_equals_serial(self, aliased_genotype, genotype):
        path = [aliased_genotype, genotype, aliased_genotype]
        _assert_same_state(_train_hypernet(path, serial=False), _train_hypernet(path, serial=True))


class TestCellNetworkTraining:
    @staticmethod
    def _train(geno: Genotype, serial: bool):
        with pytest.MonkeyPatch.context() as mp:
            if serial:
                mp.setattr(network, "run_tasks", serial_run_tasks)
            net = CellNetwork(geno, num_cells=3, stem_channels=4, rng=np.random.default_rng(3))
            result = train_network(net, _DATASET, epochs=1, batch_size=16, seed=4)
        modules = list(net._children(set()))
        return result, [p.data for p in net.parameters()], _bn_stats(modules)

    @settings(deadline=None, max_examples=4)
    @given(genotypes)
    def test_train_network_equals_serial(self, geno):
        result, weights, bn = self._train(geno, serial=False)
        want_result, want_weights, want_bn = self._train(geno, serial=True)
        assert result == want_result
        _assert_same(weights, want_weights)
        _assert_same(bn, want_bn)


# ---------------------------------------------------------------------------
# The grouped forward (HyperNet.forward_many / evaluate_many)
# ---------------------------------------------------------------------------

_GROUPED_NET = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(0))
_TEST = _DATASET.test


def _grouped(population: list[Genotype]) -> tuple[list[np.ndarray], list[float]]:
    logits = _GROUPED_NET.forward_many(_TEST.images, population)
    accs = _GROUPED_NET.evaluate_many(
        population, _TEST.images, _TEST.labels, batch_size=8, genotype_batch=2
    )
    return logits, accs


def _serial_grouped(population: list[Genotype]) -> tuple[list[np.ndarray], list[float]]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "run_tasks", serial_run_tasks)
        return _grouped(population)


class _Boom(Module):
    """An edge op that fails: ``forward_infer`` rejects its type."""


class TestGroupedForward:
    @settings(deadline=None, max_examples=10)
    @given(populations())
    def test_equals_serial_order_and_scalar_oracle(self, population):
        logits, accs = _grouped(population)
        want_logits, want_accs = _serial_grouped(population)
        _assert_same(logits, want_logits)
        assert accs == want_accs
        for geno, got in zip(population, logits):
            assert np.array_equal(got, _GROUPED_NET.forward(_TEST.images, geno))
        scalar = [
            _GROUPED_NET.evaluate(geno, _TEST.images, _TEST.labels, batch_size=8)
            for geno in population
        ]
        assert accs == scalar

    def test_edge_error_reaches_caller_with_no_task_running(self, genotype, aliased_genotype):
        population = [genotype, aliased_genotype]
        want = _serial_grouped(population)
        cell = _GROUPED_NET.cells[0]
        node = genotype.normal.nodes[2]
        key = (4, node.input1, node.op1)
        active: list = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "run_tasks", _slowed_runner(active))
            mp.setitem(cell.edge_ops, key, _Boom())
            with pytest.raises(TypeError):
                _GROUPED_NET.forward_many(_TEST.images, population)
            assert active == []
        got = _grouped(population)
        _assert_same(got[0], want[0])
        assert got[1] == want[1]

    def test_caller_never_waits_for_a_busy_helper(self, genotype, aliased_genotype):
        population = [genotype, aliased_genotype]
        want = _serial_grouped(population)
        gate = threading.Event()
        blocker = network._HELPER.submit(gate.wait, 60.0)
        try:
            got = _grouped(population)
            assert not blocker.done()
        finally:
            gate.set()
            blocker.result()
        _assert_same(got[0], want[0])
        assert got[1] == want[1]


# ---------------------------------------------------------------------------
# Failures and nesting
# ---------------------------------------------------------------------------


def _slowed_runner(active: list):
    """``run_tasks`` with every task slowed and counted while it runs."""

    def wrap(fn):
        def task(*args):
            active.append(1)
            try:
                time.sleep(0.002)
                return fn(*args)
            finally:
                active.pop()

        return task

    return lambda tasks, keep: run_tasks([(wrap(fn), deps) for fn, deps in tasks], keep)


class TestFailures:
    @staticmethod
    def _failing_run(path: list[Genotype], method: str, serial: bool) -> tuple[dict, list]:
        """Step 0 with one edge op raising in ``method``, then step 1."""
        active: list = []
        with pytest.MonkeyPatch.context() as mp:
            runner = serial_run_tasks if serial else _slowed_runner(active)
            mp.setattr(network, "run_tasks", runner)
            run = _Trainer(path)
            cell = run.net.cells[0]
            node = (path[0].reduce if cell.reduction else path[0].normal).nodes[2]
            op = cell.edge_ops[(4, node.input1, node.op1)]

            def boom(*args):
                raise RuntimeError(f"{method} failed")

            setattr(op, method, boom)
            with pytest.raises(RuntimeError, match=f"{method} failed"):
                run.step(_BATCHES[0])
            after_error = list(active)
            delattr(op, method)
            run.step(_BATCHES[1])
        return run.state(), after_error

    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_error_reaches_caller_and_next_step_is_exact(self, method, genotype):
        path = [genotype, genotype]
        state, after_error = self._failing_run(path, method, serial=False)
        want, _ = self._failing_run(path, method, serial=True)
        assert after_error == []
        # Step 1's loss and input gradient are the only ones recorded.
        keys = ["weights", "losses", "input_grads"]
        if method == "backward":
            # A forward cut short leaves the running statistics of whichever
            # modules ran before the error, which depends on the schedule;
            # a failed backward leaves a complete forward behind.
            keys.append("bn")
        _assert_same_state(state, want, keys)


class TestNesting:
    def test_train_accuracies_two_workers_equal_serial(self, tiny_dataset):
        from repro.accel.config import random_config
        from repro.nas.encoding import CoDesignPoint
        from repro.nas.space import DnnSpace
        from repro.search.evaluator import AccurateEvaluator

        rng = np.random.default_rng(5)
        points = [CoDesignPoint(DnnSpace().sample(rng), random_config(rng)) for _ in range(3)]
        accurate = AccurateEvaluator(
            tiny_dataset, num_cells=3, stem_channels=4, train_epochs=1, seed=0
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "run_tasks", serial_run_tasks)
            want = accurate.train_accuracies(points, workers=1)
        assert accurate.train_accuracies(points, workers=2) == want

    def test_caller_never_waits_for_a_busy_helper(self, genotype):
        want = _train_hypernet([genotype, genotype], serial=True)
        gate = threading.Event()
        blocker = network._HELPER.submit(gate.wait, 60.0)
        try:
            got = _train_hypernet([genotype, genotype], serial=False)
            assert not blocker.done()
        finally:
            gate.set()
            blocker.result()
        _assert_same_state(got, want)
