"""Tests for the one-shot HyperNet and its uniform-sampling trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nas.hypernet import HyperNet, HyperNetTrainer, MixedCell
from repro.nas.space import DnnSpace
from repro.nn import functional as F


def x32(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


@pytest.fixture(scope="module")
def hypernet():
    return HyperNet(num_cells=3, stem_channels=4, num_classes=10,
                    rng=np.random.default_rng(0))


class TestHyperNetStructure:
    def test_contains_all_edge_ops(self, hypernet):
        cell: MixedCell = hypernet.cells[0]
        # nodes 2..6, node i has i predecessors, 6 ops each.
        expected = sum(i for i in range(2, 7)) * 6
        assert len(cell.edge_ops) == expected

    def test_reduction_positions(self, hypernet):
        flags = [c.reduction for c in hypernet.cells]
        assert flags == [False, True, True] or sum(flags) >= 1

    def test_preprocess_variants_cover_all_loose_counts(self, hypernet):
        # Later cells must accept widths base*1 .. base*5.
        last = hypernet.cells[-1]
        assert len(last.preprocess1) == 5

    def test_classifier_variants(self, hypernet):
        assert len(hypernet.classifiers) == 5


class TestHyperNetForward:
    def test_forward_many_paths(self, hypernet):
        rng = np.random.default_rng(1)
        x = x32((2, 3, 8, 8))
        for _ in range(10):
            g = hypernet.sample_genotype(rng)
            logits = hypernet.forward(x, g)
            assert logits.shape == (2, 10)
            assert np.isfinite(logits).all()

    def test_same_path_same_output(self, hypernet):
        rng = np.random.default_rng(2)
        g = hypernet.sample_genotype(rng)
        x = x32((2, 3, 8, 8), seed=1)
        assert np.array_equal(hypernet.forward(x, g), hypernet.forward(x, g))

    def test_different_paths_differ(self, hypernet):
        rng = np.random.default_rng(3)
        g1 = hypernet.sample_genotype(rng)
        g2 = hypernet.sample_genotype(rng)
        assert g1.to_json() != g2.to_json()
        x = x32((2, 3, 8, 8), seed=2)
        assert not np.array_equal(hypernet.forward(x, g1), hypernet.forward(x, g2))

    def test_backward_before_forward_raises(self):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(4))
        with pytest.raises(RuntimeError):
            hn.backward(np.ones((2, 10), dtype=np.float32))

    def test_evaluate_returns_fraction(self, hypernet):
        rng = np.random.default_rng(5)
        g = hypernet.sample_genotype(rng)
        images = x32((16, 3, 8, 8), seed=3)
        labels = np.random.default_rng(6).integers(0, 10, 16)
        acc = hypernet.evaluate(g, images, labels, batch_size=8)
        assert 0.0 <= acc <= 1.0


    def test_evaluate_releases_forward_caches(self):
        """The scalar oracle never backpropagates, so afterwards no module
        holds forward state, and its accuracy is the argmax count of the
        training-mode forward it always was."""
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(7))
        twin = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(7))
        images = x32((24, 3, 8, 8), seed=8)
        labels = np.random.default_rng(9).integers(0, 10, 24)
        for seed in range(3):
            g = hn.sample_genotype(np.random.default_rng(seed))
            acc = hn.evaluate(g, images, labels, batch_size=8)
            correct = sum(
                int((twin.forward(images[i : i + 8], g).argmax(axis=1) == labels[i : i + 8]).sum())
                for i in range(0, 24, 8)
            )
            assert acc == correct / 24
            held = [
                type(m).__name__
                for m in [hn, *hn._children(set())]
                if getattr(m, "_cache", None) is not None
                or getattr(m, "_mask", None) is not None
                or getattr(m, "_states", None) is not None
            ]
            assert held == []


class TestEvaluateMany:
    """The batched accuracy path must be a drop-in for scalar evaluation."""

    def _population(self, n, seed=4):
        rng = np.random.default_rng(seed)
        space = DnnSpace()
        return [space.sample(rng) for _ in range(n)]

    def test_matches_scalar_evaluate(self, hypernet):
        genotypes = self._population(12)
        images = x32((24, 3, 8, 8), seed=5)
        labels = np.random.default_rng(5).integers(0, 10, size=24)
        scalar = [
            hypernet.evaluate(g, images, labels, batch_size=12) for g in genotypes
        ]
        batched = hypernet.evaluate_many(genotypes, images, labels, batch_size=12)
        # Exact equality is deliberate: a round-off tolerance of 1/len(y)
        # would have masked real grouping bugs during development, and the
        # fixtures are deterministic per environment.  If a platform's
        # BLAS ever flips a near-tied argmax, this failing loudly is the
        # desired signal, not noise.
        assert batched == scalar

    def test_batch_order_invariance(self, hypernet):
        """Same genotype set, any order -> identical accuracies."""
        genotypes = self._population(10, seed=6)
        images = x32((16, 3, 8, 8), seed=6)
        labels = np.random.default_rng(6).integers(0, 10, size=16)
        forward = hypernet.evaluate_many(genotypes, images, labels, batch_size=16)
        perm = list(reversed(range(10)))
        shuffled = hypernet.evaluate_many(
            [genotypes[i] for i in perm], images, labels, batch_size=16
        )
        assert [forward[i] for i in perm] == shuffled

    def test_duplicates_deduplicated(self, hypernet):
        genotypes = self._population(3, seed=7)
        images = x32((8, 3, 8, 8), seed=7)
        labels = np.random.default_rng(7).integers(0, 10, size=8)
        doubled = hypernet.evaluate_many(
            genotypes + genotypes, images, labels, batch_size=8
        )
        assert doubled[:3] == doubled[3:]

    def test_genotype_batch_chunking_invariant(self, hypernet):
        genotypes = self._population(9, seed=8)
        images = x32((8, 3, 8, 8), seed=8)
        labels = np.random.default_rng(8).integers(0, 10, size=8)
        whole = hypernet.evaluate_many(
            genotypes, images, labels, batch_size=8, genotype_batch=9
        )
        chunked = hypernet.evaluate_many(
            genotypes, images, labels, batch_size=8, genotype_batch=2
        )
        assert whole == chunked

    def test_forward_many_matches_forward(self, hypernet):
        """Stacked logits equal the scalar forward bit for bit."""
        genotypes = self._population(6, seed=9)
        x = x32((8, 3, 8, 8), seed=9)
        batched = hypernet.forward_many(x, genotypes)
        for g, logits in zip(genotypes, batched):
            assert np.array_equal(logits, hypernet.forward(x, g))

    def test_empty_and_single(self, hypernet):
        images = x32((8, 3, 8, 8), seed=10)
        labels = np.random.default_rng(10).integers(0, 10, size=8)
        assert hypernet.evaluate_many([], images, labels) == []
        (g,) = self._population(1, seed=10)
        single = hypernet.evaluate_many([g], images, labels, batch_size=8)
        assert single == [hypernet.evaluate(g, images, labels, batch_size=8)]

    def test_rejects_bad_genotype_batch(self, hypernet):
        images = x32((8, 3, 8, 8), seed=11)
        labels = np.random.default_rng(11).integers(0, 10, size=8)
        with pytest.raises(ValueError):
            hypernet.evaluate_many(
                self._population(2), images, labels, genotype_batch=0
            )


class TestPathIsolation:
    def test_backward_touches_only_path_parameters(self):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        g = hn.sample_genotype(rng)
        x = x32((4, 3, 8, 8), seed=4)
        hn.zero_grad()
        logits = hn.forward(x, g)
        _, grad = F.softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
        hn.backward(grad)
        # Count edge-op modules whose params received gradient: must equal
        # the number of ops on the sampled path (2 per computed node per cell
        # for ops with weights; pooling edges have only BN params which also
        # receive gradient).
        for cell in hn.cells:
            spec = g.reduce if cell.reduction else g.normal
            used = set()
            for offset, node in enumerate(spec.nodes):
                used.add((offset + 2, node.input1, node.op1))
                used.add((offset + 2, node.input2, node.op2))
            for key, op in cell.edge_ops.items():
                touched = any(np.any(p.grad != 0) for p in op.parameters())
                if key in used:
                    assert touched, f"on-path op {key} got no gradient"
                else:
                    assert not touched, f"off-path op {key} got gradient"


class TestHyperNetTrainer:
    def test_one_epoch_runs_and_records(self, tiny_dataset):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(9))
        trainer = HyperNetTrainer(hn, epochs=1, seed=0)
        history = trainer.fit(tiny_dataset, batch_size=32)
        assert len(history) == 1
        assert history[0].loss > 0
        assert 0.0 <= history[0].accuracy <= 1.0

    def test_train_step_releases_layer_caches(self, tiny_dataset, aliased_genotype):
        """After a training step no module holds forward state — including
        the edges an aliased node uses for both of its slots, whose single
        cache must pair with a single backward."""
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(12))
        hn.sample_genotype = lambda rng: aliased_genotype
        trainer = HyperNetTrainer(hn, epochs=1, seed=0)
        x, y = tiny_dataset.train.images[:16], tiny_dataset.train.labels[:16]
        stats = trainer.train_epoch([(x, y)], epoch=0)
        assert np.isfinite(stats.loss)
        held = [
            type(m).__name__
            for m in [hn, *hn._children(set())]
            if getattr(m, "_cache", None) is not None
            or getattr(m, "_mask", None) is not None
        ]
        assert held == []

    def test_path_clipping_matches_full_list_clipping(self, tiny_dataset, monkeypatch):
        """Clipping only the sampled path's parameters leaves every weight
        bit-identical to clipping the optimiser's whole list."""

        def train(full_list: bool) -> list[np.ndarray]:
            hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(13))
            # A tight clip so every step actually rescales.
            trainer = HyperNetTrainer(hn, epochs=1, grad_clip=0.05, seed=2)
            if full_list:
                monkeypatch.setattr(
                    trainer, "_clip_parameters", lambda: trainer.optimiser.parameters
                )
            images, labels = tiny_dataset.train.images, tiny_dataset.train.labels
            batches = [
                (images[i : i + 16], labels[i : i + 16]) for i in range(0, 96, 16)
            ]
            trainer.train_epoch(batches, epoch=0)
            return [p.data for p in hn.parameters()]

        restricted, full = train(False), train(True)
        assert len(restricted) == len(full)
        assert all(np.array_equal(a, b) for a, b in zip(restricted, full))

    def test_clip_parameters_cover_the_path_in_optimiser_order(self, tiny_dataset):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(14))
        trainer = HyperNetTrainer(hn, epochs=1, seed=0)
        x, y = tiny_dataset.train.images[:8], tiny_dataset.train.labels[:8]
        hn.zero_grad()
        _, grad = F.softmax_cross_entropy(hn.forward(x, hn.sample_genotype(trainer.rng)), y)
        hn.backward(grad)
        chosen = trainer._clip_parameters()
        order = {id(p): i for i, p in enumerate(trainer.optimiser.parameters)}
        ranks = [order[id(p)] for p in chosen]
        assert ranks == sorted(ranks)
        chosen_ids = {id(p) for p in chosen}
        for p in trainer.optimiser.parameters:
            if id(p) not in chosen_ids:
                assert not np.any(p.grad), "a parameter off the clip list got gradient"

    def test_mode_switch_reaches_every_module(self):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(15))
        hn.eval()
        assert not any(m.training for m in [hn, *hn._children(set())])
        hn.train()
        assert all(m.training for m in [hn, *hn._children(set())])

    def test_lr_follows_cosine(self, tiny_dataset):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(10))
        trainer = HyperNetTrainer(hn, epochs=3, lr_max=0.05, lr_min=0.001, seed=0)
        trainer.fit(tiny_dataset, batch_size=48)
        lrs = [h.lr for h in trainer.history]
        assert lrs[0] == pytest.approx(0.05)
        assert lrs[-1] == pytest.approx(0.001)
        assert lrs[0] > lrs[1] > lrs[2]

    def test_training_reduces_loss(self, tiny_dataset):
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(11))
        trainer = HyperNetTrainer(hn, epochs=4, lr_max=0.02, seed=0)
        trainer.fit(tiny_dataset, batch_size=48, augment=False)
        losses = [h.loss for h in trainer.history]
        assert losses[-1] < losses[0]


class TestUniformSampling:
    def test_sampling_matches_eq6_marginals(self):
        """Input choice ~ U{0..i-1} and op choice ~ U{ops} (Eq. 6)."""
        space = DnnSpace()
        rng = np.random.default_rng(12)
        n = 3000
        # Node index 2 (first computed): inputs in {0, 1}.
        first_inputs = []
        ops = []
        for _ in range(n):
            cell = space.sample_cell(rng)
            first_inputs.append(cell.nodes[0].input1)
            ops.append(cell.nodes[0].op1)
        frac0 = np.mean([i == 0 for i in first_inputs])
        assert abs(frac0 - 0.5) < 0.05
        from collections import Counter

        counts = Counter(ops)
        for name, c in counts.items():
            assert abs(c / n - 1 / 6) < 0.05, name
