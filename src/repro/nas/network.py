"""Concrete (stand-alone) networks built from a genotype.

``CellNetwork`` mirrors the paper's evaluation networks: a 3x3 stem
convolution, ``num_cells`` cells with reduction cells at 1/3 and 2/3 depth
(the paper's HyperNet uses 6 cells = 4 normal + 2 reduction), global average
pooling and a linear classifier.  The cell DAG follows Eq. 5: every computed
node is the sum of two operations applied to two previous nodes, and the
cell output concatenates the loose-end nodes.
"""

from __future__ import annotations

import contextvars
import heapq
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from typing import Callable, Container, Sequence

import numpy as np

from ..accel.workload import reduction_positions
from ..nn.layers import (
    BatchNorm2d,
    Conv2d,
    FactorizedReduce,
    GlobalAvgPool,
    Linear,
    ReLUConvBN,
    Sequential,
)
from ..nn.module import Module
from .genotype import NUM_NODES, CellGenotype, Genotype
from .ops import build_op

__all__ = ["Cell", "CellNetwork"]

# The one helper thread every task graph shares (started on first use),
# and the number of graphs in flight on any thread (under its lock).
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-edge")
_graphs = 0
_graphs_lock = threading.Lock()


def run_tasks(
    tasks: Sequence[tuple[Callable, tuple[int, ...]]], keep: Container[int]
) -> list:
    """Run a task graph on the calling thread and the helper thread.

    Task ``i`` is ``(fn, deps)`` with every index in ``deps`` below ``i``;
    its result is ``fn(*(result[d] for d in deps))``.  Each of the two
    runners takes the lowest-index ready task.  A result is dropped once
    the last task reading it has run, unless its index is in ``keep``, so
    a graph holds only the intermediates still to be read.  The helper
    runs under a copy of the caller's :mod:`contextvars` context; if it
    has not started (it is busy with another caller's graph) when the
    caller is done, it is cancelled rather than waited for.  It takes a
    task only while this graph is the only one in flight: callers on
    other threads (pool threads sharding a population or a training
    list) already keep the CPUs busy, and a third runner among them
    stretches each graph's critical path.  A task error is raised once
    neither runner is still running a task.  Returns the results in task
    order: the kept ones, those no task reads, and ``None`` for the
    dropped ones.
    """
    global _graphs
    results: list = [None] * len(tasks)
    waiting = [len(deps) for _, deps in tasks]
    users: list[list[int]] = [[] for _ in tasks]
    for i, (_, deps) in enumerate(tasks):
        for d in deps:
            users[d].append(i)
    unread = [len(u) for u in users]
    ready = [i for i, n in enumerate(waiting) if n == 0]  # sorted: a heap
    running = 0
    errors: list[BaseException] = []
    cond = threading.Condition(threading.Lock())

    def runner(helper: bool) -> None:
        nonlocal running
        with cond:
            while True:
                while running and not ready and not errors:
                    cond.wait()
                if errors or not ready or (helper and _graphs > 1):
                    return
                i = heapq.heappop(ready)
                fn, deps = tasks[i]
                running += 1
                cond.release()
                try:
                    results[i] = fn(*[results[d] for d in deps])
                except BaseException as exc:
                    errors.append(exc)
                finally:
                    cond.acquire()
                    running -= 1
                for d in deps:
                    unread[d] -= 1
                    if not unread[d] and d not in keep:
                        results[d] = None
                for user in users[i]:
                    waiting[user] -= 1
                    if not waiting[user]:
                        heapq.heappush(ready, user)
                cond.notify_all()

    with _graphs_lock:
        _graphs += 1
    helper = _HELPER.submit(contextvars.copy_context().run, runner, True)
    try:
        runner(False)
    finally:
        if not helper.cancel():
            helper.result()
        with _graphs_lock:
            _graphs -= 1
    if errors:
        raise errors[0]
    return results


def _double(y: np.ndarray) -> np.ndarray:
    return y + y


def _double_backward(op: Module, g: np.ndarray) -> np.ndarray:
    return op.backward(g + g)


def _left_sum(*terms: np.ndarray) -> np.ndarray:
    return reduce(operator.add, terms)


class CellDag(Module):
    """The Eq. 5 cell DAG shared by :class:`Cell` and the HyperNet's
    ``MixedCell``, which differ only in which modules form the path.

    :meth:`_walk` runs a path forward — the two preprocessing modules,
    then per computed node the sum of its two edge ops over earlier
    states — and :meth:`backward` runs it in reverse.  Both build a small
    task graph (one task per module call, one per sum) and hand it to
    :func:`run_tasks`, so independent edges run on two threads.  The
    result is bitwise the serial one: every module runs the same kernels
    on the same arrays, each module is touched by one edge per step, and
    every sum keeps its serial operands and order — ``ya + yb`` forward,
    and per state a left fold over its loose-end slice and then its
    contributions, nodes in reverse order and slot a before slot b.  An
    edge module picked by both slots of a node (only in the HyperNet,
    where one module serves each ``(input, op)`` pair) runs once and its
    output is doubled, so its single cache pairs with one backward of the
    doubled gradient; doubling is exact, so its parameter gradients equal
    a two-pass sum.
    """

    channels: int
    _pre: tuple[Module, Module] | None = None
    _active: Sequence[tuple[Module, Module]] | None = None
    _spec: CellGenotype | None = None
    _states: list[np.ndarray] | None = None

    def _walk(
        self, s0: np.ndarray, s1: np.ndarray, pre: tuple[Module, Module],
        active: Sequence[tuple[Module, Module]], spec: CellGenotype,
    ) -> np.ndarray:
        tasks: list[tuple[Callable, tuple[int, ...]]] = [
            (partial(pre[0], s0), ()), (partial(pre[1], s1), ()),
        ]
        state_task = [0, 1]
        for (op_a, op_b), node in zip(active, spec.nodes):
            tasks.append((op_a, (state_task[node.input1],)))
            if op_a is op_b:
                tasks.append((_double, (len(tasks) - 1,)))
            else:
                tasks.append((op_b, (state_task[node.input2],)))
                tasks.append((operator.add, (len(tasks) - 2, len(tasks) - 1)))
            state_task.append(len(tasks) - 1)
        results = run_tasks(tasks, state_task)
        states = [results[t] for t in state_task]
        self._pre, self._active, self._spec, self._states = pre, active, spec, states
        return np.concatenate([states[i] for i in spec.loose_ends()], axis=1)

    def release_cache(self) -> None:
        self._states = None

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        """Backpropagate through the cell DAG.

        Returns gradients w.r.t. the two input states ``(s0, s1)``.
        """
        if self._states is None:
            raise RuntimeError("backward before forward")
        assert self._spec is not None and self._active is not None and self._pre
        spec, c, states = self._spec, self.channels, self._states
        tasks: list[tuple[Callable, tuple[int, ...]]] = []
        # Per state, the tasks whose values sum to its gradient, in order.
        terms: list[list[int]] = [[] for _ in range(NUM_NODES)]
        for pos, node_idx in enumerate(spec.loose_ends()):
            grad_slice = grad_out[:, pos * c : (pos + 1) * c]
            terms[node_idx].append(len(tasks))
            tasks.append((partial(np.ascontiguousarray, grad_slice), ()))

        def state_grad(idx: int) -> int:
            """Task index of state ``idx``'s gradient, once its terms are in."""
            if not terms[idx]:  # an input state no edge reads
                tasks.append((partial(np.zeros_like, states[idx]), ()))
            elif len(terms[idx]) > 1:
                tasks.append((_left_sum, tuple(terms[idx])))
            else:
                return terms[idx][0]
            return len(tasks) - 1

        # Reverse topological order over computed nodes.
        for offset in range(len(spec.nodes) - 1, -1, -1):
            g = state_grad(offset + 2)
            node = spec.nodes[offset]
            op_a, op_b = self._active[offset]
            if op_a is op_b:
                terms[node.input1].append(len(tasks))
                tasks.append((partial(_double_backward, op_a), (g,)))
            else:
                terms[node.input1].append(len(tasks))
                tasks.append((op_a.backward, (g,)))
                terms[node.input2].append(len(tasks))
                tasks.append((op_b.backward, (g,)))
        g0, g1 = state_grad(0), state_grad(1)
        tasks.append((self._pre[0].backward, (g0,)))
        tasks.append((self._pre[1].backward, (g1,)))
        results = run_tasks(tasks, (len(tasks) - 2, len(tasks) - 1))
        return results[-2], results[-1]


class Cell(CellDag):
    """One concrete cell instance with fixed operations: the same path
    through the shared :class:`CellDag` walk on every forward.

    Parameters
    ----------
    spec:
        The cell genotype to instantiate.
    c_prev_prev, c_prev:
        Channel counts of the two incoming states.
    channels:
        Internal channel count of this cell (every node has this width).
    reduction:
        Whether this is a reduction cell (input edges run at stride 2).
    reduction_prev:
        Whether the *previous* cell was a reduction cell, in which case the
        older input state has twice the spatial size and is aligned with a
        strided 1x1 (factorised reduce).
    """

    def __init__(
        self,
        spec: CellGenotype,
        c_prev_prev: int,
        c_prev: int,
        channels: int,
        reduction: bool,
        reduction_prev: bool,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.reduction = reduction
        if reduction_prev:
            self.preprocess0: Module = FactorizedReduce(c_prev_prev, channels, rng=rng)
        else:
            self.preprocess0 = ReLUConvBN(c_prev_prev, channels, kernel=1, rng=rng)
        self.preprocess1 = ReLUConvBN(c_prev, channels, kernel=1, rng=rng)
        # Two op modules per computed node, in genotype order.
        self.ops: list[tuple[Module, Module]] = []
        for offset, node in enumerate(spec.nodes):
            ops_pair = []
            for inp, op_name in ((node.input1, node.op1), (node.input2, node.op2)):
                stride = 2 if (reduction and inp < 2) else 1
                ops_pair.append(build_op(op_name, channels, channels, stride, rng))
            self.ops.append((ops_pair[0], ops_pair[1]))
        self.out_channels = channels * len(spec.loose_ends())
        self.channels = channels

    # ------------------------------------------------------------------
    def forward(self, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:  # type: ignore[override]
        return self._walk(
            s0, s1, (self.preprocess0, self.preprocess1), self.ops, self.spec
        )

    def __call__(self, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:  # type: ignore[override]
        return self.forward(s0, s1)


def _accumulate(grads: list, idx: int, value: np.ndarray) -> None:
    if grads[idx] is None:
        grads[idx] = value
    else:
        grads[idx] = grads[idx] + value


def network_backward(
    stem: Module, cells: Sequence[CellDag], global_pool: Module,
    classifier: Module, grad_out: np.ndarray,
) -> np.ndarray:
    """Backward of the stem -> cells -> pool -> classifier chain, shared by
    :class:`CellNetwork` and the HyperNet.

    State ``i`` is the ``s0`` input of cell ``i``: cell ``i`` consumed
    states ``(i, i+1)`` and produced state ``i+2``.
    """
    grads: list[np.ndarray | None] = [None] * (len(cells) + 2)
    grads[-1] = global_pool.backward(classifier.backward(grad_out))
    for idx in range(len(cells) - 1, -1, -1):
        g_out = grads[idx + 2]
        assert g_out is not None
        g0, g1 = cells[idx].backward(g_out)
        _accumulate(grads, idx, g0)
        _accumulate(grads, idx + 1, g1)
    assert grads[0] is not None and grads[1] is not None
    return stem.backward(grads[0] + grads[1])


class CellNetwork(Module):
    """Stand-alone trainable network built from a :class:`Genotype`."""

    def __init__(
        self,
        genotype: Genotype,
        num_cells: int = 6,
        stem_channels: int = 16,
        num_classes: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.genotype = genotype
        self.num_cells = num_cells
        self.stem_channels = stem_channels
        self.num_classes = num_classes
        self.stem = Sequential(
            Conv2d(3, stem_channels, kernel=3, rng=rng), BatchNorm2d(stem_channels)
        )
        reduction_at = set(reduction_positions(num_cells))
        channels = stem_channels
        c_prev_prev, c_prev = stem_channels, stem_channels
        reduction_prev = False
        self.cells: list[Cell] = []
        for idx in range(num_cells):
            reduction = idx in reduction_at
            if reduction:
                channels *= 2
            cell = Cell(
                genotype.reduce if reduction else genotype.normal,
                c_prev_prev,
                c_prev,
                channels,
                reduction,
                reduction_prev,
                rng,
            )
            self.cells.append(cell)
            c_prev_prev, c_prev = c_prev, cell.out_channels
            reduction_prev = reduction
        self.global_pool = GlobalAvgPool()
        self.classifier = Linear(c_prev, num_classes, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        s0 = s1 = self.stem(x)
        for cell in self.cells:
            s0, s1 = s1, cell(s0, s1)
        return self.classifier(self.global_pool(s1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return network_backward(
            self.stem, self.cells, self.global_pool, self.classifier, grad_out
        )
