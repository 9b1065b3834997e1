"""The one-shot HyperNet (Sec. III-D).

The HyperNet holds *every* candidate operation of *every* edge of every
cell; a candidate DNN architecture is a single path through it and inherits
its weights.  Training follows the paper's uniform single-path strategy
(Eq. 6): each step uniformly samples one sub-model and updates only the
parameters on its path.  Evaluation of a candidate is then a single test
run with inherited weights, replacing full training.

Implementation notes
--------------------
* Each edge ``(cell, node i, predecessor j, op)`` owns a distinct module, so
  stride assignment in reduction cells (stride 2 from cell inputs) is fixed
  per module.
* Because the cell output concatenates only *loose-end* nodes, the input
  width of the next cell's 1x1 preprocessing depends on the sampled
  genotype.  The HyperNet therefore keeps one preprocessing (and classifier)
  variant per possible width — all variants are created eagerly so the
  parameter ordering is deterministic.
* Sub-model accuracy is evaluated with batch statistics (training-mode
  batch norm): one-shot supernets share running statistics across paths,
  which would otherwise bias the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..accel.workload import reduction_positions
from ..nn.infer import forward_infer
from ..nn.layers import (
    BatchNorm2d,
    Conv2d,
    FactorizedReduce,
    GlobalAvgPool,
    Linear,
    ReLUConvBN,
    Sequential,
)
from ..nn.module import Module, Parameter
from ..nn.optim import SGD, CosineSchedule, clip_grad_norm
from . import network
from .genotype import NUM_COMPUTED, NUM_NODES, CellGenotype, Genotype
from .network import CellDag, network_backward
from .ops import OP_NAMES, build_op
from .space import DnnSpace

__all__ = ["MixedCell", "HyperNet", "HyperNetTrainer", "EpochStats"]


class MixedCell(CellDag):
    """A cell containing all candidate ops for all edges.

    :meth:`forward` picks one genotype's path (a preprocessing variant per
    input width, one edge module per node slot) and runs it through the
    Eq. 5 walk and backward it shares with the stand-alone
    :class:`~repro.nas.network.Cell` (:class:`~repro.nas.network.CellDag`).
    :meth:`forward_many` is the forward-only grouped path.
    """

    def __init__(
        self,
        c_prev_prev_base: int,
        c_prev_base: int,
        prev_prev_multiples: tuple[int, ...],
        prev_multiples: tuple[int, ...],
        channels: int,
        reduction: bool,
        reduction_prev: bool,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.reduction = reduction
        # One preprocessing variant per possible incoming width.
        self.preprocess0: dict[int, Module] = {}
        for mult in prev_prev_multiples:
            c_in = c_prev_prev_base * mult
            if reduction_prev:
                self.preprocess0[c_in] = FactorizedReduce(c_in, channels, rng=rng)
            else:
                self.preprocess0[c_in] = ReLUConvBN(c_in, channels, kernel=1, rng=rng)
        self.preprocess1: dict[int, Module] = {
            c_prev_base * mult: ReLUConvBN(c_prev_base * mult, channels, kernel=1, rng=rng)
            for mult in prev_multiples
        }
        # All candidate edge ops: keyed (node index, predecessor, op name).
        self.edge_ops: dict[tuple[int, int, str], Module] = {}
        for node_idx in range(2, NUM_NODES):
            for pred in range(node_idx):
                stride = 2 if (reduction and pred < 2) else 1
                for op_name in OP_NAMES:
                    self.edge_ops[(node_idx, pred, op_name)] = build_op(
                        op_name, channels, channels, stride, rng
                    )

    # ------------------------------------------------------------------
    def forward(self, s0: np.ndarray, s1: np.ndarray, spec: CellGenotype) -> np.ndarray:  # type: ignore[override]
        pre = (self.preprocess0[s0.shape[1]], self.preprocess1[s1.shape[1]])
        active = [
            (
                self.edge_ops[(offset + 2, node.input1, node.op1)],
                self.edge_ops[(offset + 2, node.input2, node.op2)],
            )
            for offset, node in enumerate(spec.nodes)
        ]
        return self._walk(s0, s1, pre, active, spec)

    def __call__(self, s0: np.ndarray, s1: np.ndarray, spec: CellGenotype) -> np.ndarray:  # type: ignore[override]
        return self.forward(s0, s1, spec)

    # ------------------------------------------------------------------
    @staticmethod
    def _run_grouped(
        modules: dict[int, Module],
        inputs: list[np.ndarray],
        input_ids: Sequence[object],
    ) -> np.ndarray:
        """Apply the width-keyed preprocessing to every path's input at once.

        ``inputs`` holds one ``(b, C_g, h, w)`` tensor per path (widths may
        differ); ``input_ids`` are hashable identity tokens — paths whose
        tokens are equal are guaranteed to hold identical tensors, so their
        preprocessing is computed ONCE and the result shared.  Distinct
        inputs of the same width are stacked and run through their
        preprocessing variant in one call with per-path batch statistics.
        Returns the stacked ``(G * b, channels, h', w')`` result in path
        order.
        """
        b = inputs[0].shape[0]
        by_width: dict[int, dict[object, list[int]]] = {}
        for g, x in enumerate(inputs):
            by_width.setdefault(x.shape[1], {}).setdefault(
                input_ids[g], []
            ).append(g)
        out: np.ndarray | None = None
        for width, by_id in sorted(by_width.items()):
            reps = [members[0] for members in by_id.values()]
            stacked = (
                [inputs[g] for g in reps] if len(reps) > 1 else inputs[reps[0]]
            )
            y = forward_infer(modules[width], stacked, segments=len(reps))
            if out is None:
                out = np.empty(
                    (len(inputs) * b, *y.shape[1:]), dtype=y.dtype
                )
            for j, members in enumerate(by_id.values()):
                seg = y[j * b : (j + 1) * b]
                for g in members:
                    out[g * b : (g + 1) * b] = seg
        assert out is not None
        return out

    def forward_many(
        self,
        s0_list: list[np.ndarray],
        s1_list: list[np.ndarray],
        specs: Sequence[CellGenotype],
        s0_ids: Sequence[object] | None = None,
        s1_ids: Sequence[object] | None = None,
    ) -> list[np.ndarray]:
        """Forward ``G`` sub-model paths through the cell in grouped calls.

        Inputs are one ``(b, C, h, w)`` tensor per path; the return value is
        one cell-output tensor per path (channel widths vary with each
        spec's loose ends).  Edges are grouped by their ``(predecessor,
        op)`` choice, so each candidate-op module runs once per cell over
        the stacked rows of every path that selected it, instead of once
        per path.  ``s0_ids`` / ``s1_ids`` are optional hashable identity
        tokens for the inputs (equal token == identical tensor): paths that
        agree on an edge's op AND its input compute that edge once and
        share the result — on the first cell, where every path sees the
        same stem activation, a whole population collapses to one segment
        per distinct ``(predecessor, op)`` choice.  Without tokens every
        path is treated as distinct.

        The cell runs as a task graph on the calling thread and the helper
        thread (:func:`~repro.nas.network.run_tasks`): one task per
        preprocessing, one per edge group, and per node a chain of
        accumulate tasks, one per group in sorted group order, that write
        or add the group's segments into the node's state.  The chain keeps
        every path's write-then-add order, so the schedule cannot change a
        bit, and a state that is no path's loose end is dropped once the
        last edge reading it has run.

        Batch-norm statistics stay per-path (segmented batch norm inside
        :func:`~repro.nn.infer.forward_infer`), and every kernel is
        per-sample maths, so each path's output is bitwise equal to the
        scalar :meth:`forward` result.  Forward-only: never call
        :meth:`backward` after it.
        """
        if not (len(s0_list) == len(s1_list) == len(specs)):
            raise ValueError("s0, s1 and specs must have equal lengths")
        b = s0_list[0].shape[0]
        num_paths = len(specs)
        if s0_ids is None:
            s0_ids = list(range(num_paths))
        if s1_ids is None:
            s1_ids = list(range(num_paths))
        tasks: list[tuple[Callable, tuple[int, ...]]] = [
            (partial(self._run_grouped, self.preprocess0, s0_list, s0_ids), ()),
            (partial(self._run_grouped, self.preprocess1, s1_list, s1_ids), ()),
        ]
        state_task = [0, 1]
        # Identity tokens per state: preprocessing is deterministic, so a
        # state's identity is its input's identity; computed nodes derive
        # theirs from their two (input identity, op) pairs.
        toks: list[list[object]] = [list(s0_ids), list(s1_ids)]
        for offset in range(len(specs[0].nodes)):
            node_idx = offset + 2
            # Both edge slots of every path, grouped by (predecessor, op)
            # and sub-grouped by input identity; a path picking the same
            # pair twice contributes twice (the scalar path runs the op
            # once and adds the result to itself).
            edges: dict[tuple[int, str], dict[object, list[int]]] = {}
            node_toks: list[object] = []
            for g, spec in enumerate(specs):
                node = spec.nodes[offset]
                for pred, op_name in (
                    (node.input1, node.op1),
                    (node.input2, node.op2),
                ):
                    edges.setdefault((pred, op_name), {}).setdefault(
                        toks[pred][g], []
                    ).append(g)
                # The predecessor INDEX is part of the identity: the edge
                # module (and its stride) is keyed by it, so two paths
                # reading equal tensors from different predecessors still
                # run different weights.
                node_toks.append(
                    (
                        node.input1,
                        toks[node.input1][g],
                        node.op1,
                        node.input2,
                        toks[node.input2][g],
                        node.op2,
                    )
                )
            # First contribution per path is written, the second added —
            # every node has exactly two edge slots, so no zero-fill pass.
            written = [False] * num_paths
            acc_task: int | None = None
            for (pred, op_name), by_id in sorted(edges.items()):
                op = self.edge_ops[(node_idx, pred, op_name)]
                reps = [members[0] for members in by_id.values()]
                tasks.append(
                    (partial(_edge_forward, op, b, reps), (state_task[pred],))
                )
                plan: list[tuple[int, int, bool]] = []
                for j, members in enumerate(by_id.values()):
                    for g in members:
                        plan.append((j, g, written[g]))
                        written[g] = True
                accumulate = partial(_accumulate, b, num_paths * b, plan)
                if acc_task is None:
                    tasks.append((accumulate, (len(tasks) - 1,)))
                else:
                    tasks.append((accumulate, (len(tasks) - 1, acc_task)))
                acc_task = len(tasks) - 1
            assert acc_task is not None and all(written)
            state_task.append(acc_task)
            toks.append(node_toks)
        loose_tasks = {state_task[i] for spec in specs for i in spec.loose_ends()}
        results = network.run_tasks(tasks, loose_tasks)
        states = [results[t] for t in state_task]
        # Cell outputs, deduplicated on identity: paths whose loose-end
        # states are all identical share one concatenated array object.
        outputs: dict[tuple, np.ndarray] = {}
        result: list[np.ndarray] = []
        for g, spec in enumerate(specs):
            loose = spec.loose_ends()
            key = tuple((i, toks[i][g]) for i in loose)
            out = outputs.get(key)
            if out is None:
                out = np.concatenate(
                    [states[i][g * b : (g + 1) * b] for i in loose], axis=1
                )
                outputs[key] = out
            result.append(out)
        return result


def _edge_forward(
    op: Module, b: int, reps: list[int], src: np.ndarray
) -> np.ndarray:
    """One edge group: ``op`` over the stacked ``b``-row blocks ``reps`` of
    its input state, one batch-norm segment per block."""
    # Row-block lists let the op's first kernel fuse the gather into its
    # padding/ReLU pass (no concatenate).
    stacked = (
        [src[g * b : (g + 1) * b] for g in reps]
        if len(reps) > 1
        else src[reps[0] * b : (reps[0] + 1) * b]
    )
    return forward_infer(op, stacked, segments=len(reps))


def _accumulate(
    b: int,
    rows: int,
    plan: list[tuple[int, int, bool]],
    out: np.ndarray,
    acc: np.ndarray | None = None,
) -> np.ndarray:
    """Write or add an edge group's output into a node's state ``acc``
    (allocated with ``rows`` rows when ``None``): ``plan`` holds
    ``(segment, path, add)`` per contribution, in order."""
    if acc is None:
        acc = np.empty((rows, *out.shape[1:]), dtype=out.dtype)
    for j, g, add in plan:
        seg = out[j * b : (j + 1) * b]
        if add:
            acc[g * b : (g + 1) * b] += seg
        else:
            acc[g * b : (g + 1) * b] = seg
    return acc


class HyperNet(Module):
    """The full weight-sharing supernet."""

    def __init__(
        self,
        num_cells: int = 6,
        stem_channels: int = 16,
        num_classes: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_cells = num_cells
        self.stem_channels = stem_channels
        self.num_classes = num_classes
        self.space = DnnSpace()
        self.stem = Sequential(
            Conv2d(3, stem_channels, kernel=3, rng=rng), BatchNorm2d(stem_channels)
        )
        reduction_at = set(reduction_positions(num_cells))
        loose_multiples = tuple(range(1, NUM_COMPUTED + 1))
        channels = stem_channels
        # (base channels, possible multiples) per produced state; the stem
        # state has a fixed width.
        bases = [(stem_channels, (1,)), (stem_channels, (1,))]
        reduction_prev = False
        self.cells: list[MixedCell] = []
        for idx in range(num_cells):
            reduction = idx in reduction_at
            if reduction:
                channels *= 2
            (c_pp, mult_pp), (c_p, mult_p) = bases[idx], bases[idx + 1]
            self.cells.append(
                MixedCell(
                    c_pp, c_p, mult_pp, mult_p, channels, reduction, reduction_prev, rng
                )
            )
            bases.append((channels, loose_multiples))
            reduction_prev = reduction
        final_base, final_multiples = bases[-1]
        self.global_pool = GlobalAvgPool()
        self.classifiers: dict[int, Linear] = {
            final_base * mult: Linear(final_base * mult, num_classes, rng=rng)
            for mult in final_multiples
        }
        self._active_classifier: Linear | None = None
        # The tree is fixed from here on: walk it once, so train()/eval()
        # set modes without re-walking every candidate op.
        self._all_modules: tuple[Module, ...] = tuple(self._children(set()))

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for module in self._all_modules:
            module.training = training

    def path_modules(self) -> list[Module]:
        """The modules the last :meth:`forward` ran: the stem, each cell's
        two preprocessing variants and active edge ops, the classifier.
        Only their parameters can receive gradient from :meth:`backward`."""
        if self._active_classifier is None:
            raise RuntimeError("path_modules before forward")
        modules: list[Module] = [self.stem]
        for cell in self.cells:
            assert cell._pre is not None and cell._active is not None
            modules.extend(cell._pre)
            for op_a, op_b in cell._active:
                modules.extend((op_a, op_b))
        modules.append(self._active_classifier)
        return modules

    # ------------------------------------------------------------------
    def sample_genotype(self, rng: np.random.Generator, name: str = "sampled") -> Genotype:
        """Uniformly sample a sub-model path (Eq. 6)."""
        return self.space.sample(rng, name=name)

    def forward(self, x: np.ndarray, genotype: Genotype) -> np.ndarray:  # type: ignore[override]
        s0 = s1 = self.stem(x)
        for cell in self.cells:
            spec = genotype.reduce if cell.reduction else genotype.normal
            s0, s1 = s1, cell(s0, s1, spec)
        pooled = self.global_pool(s1)
        self._active_classifier = self.classifiers[pooled.shape[1]]
        return self._active_classifier(pooled)

    def __call__(self, x: np.ndarray, genotype: Genotype) -> np.ndarray:  # type: ignore[override]
        return self.forward(x, genotype)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._active_classifier is None:
            raise RuntimeError("backward before forward")
        return network_backward(
            self.stem, self.cells, self.global_pool, self._active_classifier, grad_out
        )

    # ------------------------------------------------------------------
    def _forward_cells_many(
        self, stem: np.ndarray, genotypes: Sequence[Genotype]
    ) -> list[np.ndarray]:
        """Cells + classifier for ``G`` paths sharing one stem activation.

        Identity tokens start out equal for every path (they all see the
        stem), so first-cell work is deduplicated across the population;
        after each cell a path's token is re-interned from (inputs, spec),
        keeping tokens O(1) in size while preserving the invariant that
        equal tokens mean identical tensors.
        """
        count = len(genotypes)
        b = stem.shape[0]
        s0: list[np.ndarray] = [stem] * count
        s1: list[np.ndarray] = [stem] * count
        ids0: list[object] = [0] * count
        ids1: list[object] = [0] * count
        for cell in self.cells:
            specs = [
                g.reduce if cell.reduction else g.normal for g in genotypes
            ]
            outs = cell.forward_many(s0, s1, specs, ids0, ids1)
            interned: dict[tuple, int] = {}
            out_ids: list[object] = [
                interned.setdefault((ids0[g], ids1[g], specs[g]), len(interned))
                for g in range(count)
            ]
            s0, s1 = s1, outs
            ids0, ids1 = ids1, out_ids
        logits: list[np.ndarray | None] = [None] * count
        by_width: dict[int, dict[object, list[int]]] = {}
        for g, out in enumerate(s1):
            by_width.setdefault(out.shape[1], {}).setdefault(
                ids1[g], []
            ).append(g)
        for width, by_id in sorted(by_width.items()):
            reps = [members[0] for members in by_id.values()]
            stacked = (
                np.concatenate([s1[g] for g in reps])
                if len(reps) > 1
                else s1[reps[0]]
            )
            # One (b, F) GEMM per path, batched over a (paths, b, F) stack:
            # the scalar classifier's GEMM shape, so no GEMM height mixes
            # paths (BLAS rows depend on the height they were computed in).
            pooled = stacked.mean(axis=(2, 3)).reshape(len(reps), b, width)
            clf = self.classifiers[width]
            scores = np.matmul(pooled, clf.weight.data.T) + clf.bias.data
            for j, members in enumerate(by_id.values()):
                for g in members:
                    logits[g] = scores[j]
        # Every path must have been classified by its width group — a
        # silent drop here would credit accuracies to the wrong genotypes.
        assert all(lg is not None for lg in logits)
        return logits  # type: ignore[return-value]

    def forward_many(
        self, x: np.ndarray, genotypes: Sequence[Genotype]
    ) -> list[np.ndarray]:
        """Logits of ``G`` sub-models on one image batch, sharing work.

        The stem runs ONCE for the whole batch (it is genotype-independent),
        each mixed cell runs its candidate ops grouped over the stacked
        paths that selected them (:meth:`MixedCell.forward_many`), and the
        classifier runs one per-path GEMM per distinct output width.
        Returns one ``(len(x), num_classes)`` array per genotype, in input
        order, bitwise equal to per-genotype :meth:`forward` calls however
        the genotypes are split across calls.  Forward-only — do not call
        :meth:`backward` after it.
        """
        if not genotypes:
            return []
        return self._forward_cells_many(forward_infer(self.stem, x), genotypes)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        genotype: Genotype,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
    ) -> float:
        """Accuracy of a sub-model with inherited weights (single test run).

        Uses training-mode batch norm (batch statistics) — see module
        docstring for why this is required in a weight-sharing supernet.
        Nothing backpropagates these forwards, so each one's layer caches
        are released as soon as its logits are read.
        """
        correct = 0
        for start in range(0, len(labels), batch_size):
            x = images[start : start + batch_size]
            y = labels[start : start + batch_size]
            logits = self.forward(x, genotype)
            for module in self._all_modules:
                module.release_cache()
            correct += int((logits.argmax(axis=1) == y).sum())
        return correct / len(labels)

    def evaluate_many(
        self,
        genotypes: Sequence[Genotype],
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
        genotype_batch: int = 16,
    ) -> list[float]:
        """Accuracies of many sub-models in batched forwards (one test run).

        The batched counterpart of :meth:`evaluate`: genotypes are
        deduplicated on their (normal, reduce) cells, put in a canonical
        order, and evaluated ``genotype_batch`` at a time per image
        mini-batch — so a fresh population
        costs one grouped forward per chunk instead of one full forward
        per genotype, and the stem activation is computed once per image
        mini-batch regardless of population size.

        Returns one accuracy per input genotype, in input order.  Each
        accuracy equals the scalar :meth:`evaluate` result exactly: the
        grouped forward's logits are bitwise the scalar ones, whatever
        else a genotype is batched with (see :meth:`forward_many`).

        Like :meth:`evaluate` this uses training-mode batch norm with
        per-genotype batch statistics (segmented
        :func:`~repro.nn.functional.batchnorm_infer`), and is forward-only.
        """
        if genotype_batch < 1:
            raise ValueError("genotype_batch must be >= 1")
        unique: dict[tuple, Genotype] = {}
        for g in genotypes:
            unique.setdefault((g.normal, g.reduce), g)
        if not unique:
            return []
        # Canonical evaluation order: chunks group genotypes with shared
        # prefixes, whose work the grouped forward then shares.  Results
        # do not depend on it.
        order = sorted(unique, key=repr)
        correct = {key: 0 for key in order}
        for start in range(0, len(labels), batch_size):
            x = images[start : start + batch_size]
            y = labels[start : start + batch_size]
            stem = forward_infer(self.stem, x)
            for lo in range(0, len(order), genotype_batch):
                chunk = order[lo : lo + genotype_batch]
                batch_logits = self._forward_cells_many(
                    stem, [unique[key] for key in chunk]
                )
                for key, logits in zip(chunk, batch_logits):
                    correct[key] += int((logits.argmax(axis=1) == y).sum())
        total = len(labels)
        return [
            correct[(g.normal, g.reduce)] / total for g in genotypes
        ]


@dataclass
class EpochStats:
    """Summary of one HyperNet training epoch."""

    epoch: int
    loss: float
    accuracy: float
    lr: float


class HyperNetTrainer:
    """Uniform-sampling single-path trainer (paper recipe, Sec. IV-B).

    SGD with momentum 0.9, L2 weight decay 4e-5 and cosine learning-rate
    decay 0.05 -> 0.0001 over the training epochs.
    """

    def __init__(
        self,
        hypernet: HyperNet,
        epochs: int = 300,
        lr_max: float = 0.05,
        lr_min: float = 0.0001,
        momentum: float = 0.9,
        weight_decay: float = 4e-5,
        grad_clip: float = 5.0,
        seed: int = 0,
        sampling: str = "uniform",
    ) -> None:
        if sampling not in ("uniform", "biased"):
            raise ValueError("sampling must be 'uniform' or 'biased'")
        self.hypernet = hypernet
        self.sampling = sampling
        self.epochs = epochs
        self.optimiser = SGD(
            hypernet.parameters(), lr=lr_max, momentum=momentum, weight_decay=weight_decay
        )
        self.schedule = CosineSchedule(lr_max, lr_min, total_steps=max(epochs, 1))
        self.grad_clip = grad_clip
        self.rng = np.random.default_rng(seed)
        self.history: list[EpochStats] = []
        self._params_of: dict[int, tuple[Parameter, ...]] = {}

    def _clip_parameters(self) -> list[Parameter]:
        """The optimiser's parameters on the sampled path, in optimiser
        order.  Every other gradient is exactly zero, and dropping ``0.0``
        terms from a float sum of squares leaves it unchanged, so the
        clipped norm and gradients are bit-identical to clipping the
        whole list."""
        on_path: set[int] = set()
        for module in self.hypernet.path_modules():
            params = self._params_of.get(id(module))
            if params is None:
                params = self._params_of[id(module)] = tuple(module.parameters())
            on_path.update(id(p) for p in params)
        return [p for p in self.optimiser.parameters if id(p) in on_path]

    def train_epoch(self, batches, epoch: int) -> EpochStats:
        """One pass over ``batches`` with a fresh uniform path per batch."""
        from ..nn import functional as F

        lr = self.schedule.apply(self.optimiser, epoch)
        self.hypernet.train()
        total_loss = 0.0
        total_correct = 0
        total_seen = 0
        for x, y in batches:
            if self.sampling == "biased":
                genotype = self.hypernet.space.sample_biased(self.rng)
            else:
                genotype = self.hypernet.sample_genotype(self.rng)
            self.optimiser.zero_grad()
            logits = self.hypernet.forward(x, genotype)
            loss, grad = F.softmax_cross_entropy(logits, y)
            self.hypernet.backward(grad)
            clip_grad_norm(self._clip_parameters(), self.grad_clip)
            self.optimiser.step()
            total_loss += loss * len(y)
            total_correct += int((logits.argmax(axis=1) == y).sum())
            total_seen += len(y)
        stats = EpochStats(
            epoch=epoch,
            loss=total_loss / max(total_seen, 1),
            accuracy=total_correct / max(total_seen, 1),
            lr=lr,
        )
        self.history.append(stats)
        return stats

    def fit(self, dataset, batch_size: int = 64, augment: bool = True) -> list[EpochStats]:
        """Train for the configured number of epochs on ``dataset``."""
        for epoch in range(self.epochs):
            batches = dataset.batches(
                "train",
                batch_size=batch_size,
                shuffle=True,
                augment=augment,
                rng=self.rng,
            )
            self.train_epoch(batches, epoch)
        return self.history
