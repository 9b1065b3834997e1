"""Documentation/code consistency checks.

Keeps README.md, DESIGN.md, EXPERIMENTS.md and docs/PERFORMANCE.md
honest: every module, symbol, example and benchmark they reference must
exist in ``src/``, and the paper constants quoted in prose must match the
code.  CI runs this file as a dedicated docs-consistency step, so a doc
referring to a renamed or deleted symbol fails the build.
"""

from __future__ import annotations

import functools
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every prose document whose code references are checked against src/.
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/PERFORMANCE.md",
    "docs/OBSERVABILITY.md",
    "docs/RESILIENCE.md",
    "docs/ANALYSIS.md",
]


def read(name: str) -> str:
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


@functools.lru_cache(maxsize=1)
def src_blob() -> str:
    """Concatenated source of every module under src/ (symbol lookups)."""
    parts = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        for filename in filenames:
            if filename.endswith(".py"):
                with open(os.path.join(dirpath, filename)) as handle:
                    parts.append(handle.read())
    return "\n".join(parts)


@functools.lru_cache(maxsize=1)
def perfbench_blob() -> str:
    """Concatenated source of the benchmark driver (its CLI flags)."""
    folder = os.path.join(ROOT, "perfbench")
    parts = []
    for filename in sorted(os.listdir(folder)):
        if filename.endswith(".py"):
            with open(os.path.join(folder, filename)) as handle:
                parts.append(handle.read())
    return "\n".join(parts)


class TestReferencedFilesExist:
    @pytest.mark.parametrize("doc", DOCS)
    def test_docs_present(self, doc):
        assert os.path.exists(os.path.join(ROOT, doc))

    def test_examples_referenced_in_readme_exist(self):
        readme = read("README.md")
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert os.path.exists(os.path.join(ROOT, "examples", match)), match

    def test_benchmarks_referenced_in_readme_exist(self):
        readme = read("README.md")
        for match in re.findall(r"(test_\w+\.py)", readme):
            assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match

    def test_design_bench_targets_exist(self):
        design = read("DESIGN.md")
        for match in re.findall(r"benchmarks/(test_\w+\.py)", design):
            assert os.path.exists(os.path.join(ROOT, "benchmarks", match)), match

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_repro_modules_exist(self, doc):
        """Every `repro.*` dotted reference must resolve to a module, and
        the first attribute after it must be defined (or, for a package,
        exported) there — so a doc naming a deleted function fails."""
        text = read(doc)
        for match in set(re.findall(r"`repro\.([A-Za-z_.]+)", text)):
            parts = match.rstrip(".").split(".")
            # Accept `repro.pkg.module`, `repro.pkg.module.attribute` and
            # `repro.pkg.module.Class.method` (strip trailing attributes).
            source = None
            for depth in range(len(parts), 0, -1):
                base = os.path.join(ROOT, "src", "repro", *parts[:depth])
                if os.path.exists(base + ".py"):
                    source = base + ".py"
                    break
                if os.path.isdir(base):
                    source = os.path.join(base, "__init__.py")
                    break
            assert source is not None, f"repro.{match} referenced in {doc} but missing"
            if depth < len(parts):
                attr = parts[depth]
                with open(source) as handle:
                    code = handle.read()
                assert re.search(
                    rf"(def|class) {attr}\b|^{attr}\b|\b{attr}[,\n]", code, re.M
                ), (
                    f"repro.{match} referenced in {doc} but {attr} is not in "
                    f"{os.path.relpath(source, ROOT)}"
                )

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_cli_flags_exist(self, doc):
        """Backticked `--flag` options must be defined by a parser under
        src/ or perfbench/, so a doc naming a removed option fails."""
        defined = src_blob() + perfbench_blob()
        for span in re.findall(r"`([^`\n]+)`", read(doc)):
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", span):
                assert f'"{flag}"' in defined, (
                    f"{doc} references {flag}, which no parser defines"
                )

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_symbols_exist_in_src(self, doc):
        """Backticked `Class.method` references must name real symbols."""
        text = read(doc)
        blob = src_blob()
        # Class names must be CamelCase (contain a lowercase letter) so
        # all-caps file references like `EXPERIMENTS.md` don't match.
        for cls, attr in set(
            re.findall(
                r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)\.([a-z_][a-z0-9_]*)",
                text,
            )
        ):
            if attr in {"md", "py", "json", "yml", "toml"}:
                continue
            assert f"class {cls}" in blob, (
                f"{doc} references `{cls}.{attr}` but class {cls} "
                f"is not defined under src/"
            )
            assert (
                f"def {attr}" in blob
                or f"{attr} =" in blob
                or f"{attr}:" in blob
            ), (
                f"{doc} references `{cls}.{attr}` but no such attribute "
                f"appears under src/"
            )

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_test_and_benchmark_files_exist(self, doc):
        """`tests/...py` and `benchmarks/...py` references must exist."""
        text = read(doc)
        for rel in set(re.findall(r"((?:tests|benchmarks)/\w+\.py)", text)):
            assert os.path.exists(os.path.join(ROOT, rel)), (
                f"{doc} references {rel} which does not exist"
            )

    def test_performance_doc_crosslinked(self):
        """README and DESIGN must point readers at docs/PERFORMANCE.md."""
        assert "docs/PERFORMANCE.md" in read("README.md")
        assert "docs/PERFORMANCE.md" in read("DESIGN.md")

    def test_observability_doc_crosslinked(self):
        """README and DESIGN must point readers at docs/OBSERVABILITY.md."""
        assert "docs/OBSERVABILITY.md" in read("README.md")
        assert "docs/OBSERVABILITY.md" in read("DESIGN.md")

    def test_resilience_doc_crosslinked(self):
        """README and DESIGN must point readers at docs/RESILIENCE.md."""
        assert "docs/RESILIENCE.md" in read("README.md")
        assert "docs/RESILIENCE.md" in read("DESIGN.md")

    def test_analysis_doc_crosslinked(self):
        """README and DESIGN must point readers at docs/ANALYSIS.md."""
        assert "docs/ANALYSIS.md" in read("README.md")
        assert "docs/ANALYSIS.md" in read("DESIGN.md")

    def test_analysis_doc_rule_catalogue_is_complete(self):
        """docs/ANALYSIS.md must document every shipped rule id."""
        from repro.analysis import RULE_IDS

        text = read("docs/ANALYSIS.md")
        for rule_id in RULE_IDS:
            assert f"`{rule_id}`" in text, f"rule {rule_id} undocumented"


class TestPaperConstantsMatchCode:
    def test_sequence_split(self):
        from repro.nas.encoding import DNN_TOKENS, HW_TOKENS, SEQUENCE_LENGTH

        # Sec. III-C: "44 hyper-parameters (where S=40, L=4)".
        assert (DNN_TOKENS, HW_TOKENS, SEQUENCE_LENGTH) == (40, 4, 44)

    def test_controller_hidden_units(self):
        from repro.search.controller import Controller

        assert Controller().hidden_dim == 120  # "LSTM with 120 hidden units"

    def test_controller_hyperparameters(self):
        from repro.search.controller import Controller
        from repro.search.reinforce import ReinforceSearch
        from repro.search.reward import BALANCED
        from repro.search.evaluator import Evaluation

        c = Controller()
        assert c.temperature == pytest.approx(1.1)
        assert c.tanh_constant == pytest.approx(2.5)
        search = ReinforceSearch(
            c, lambda p: Evaluation(0.5, 1.0, 1.0), BALANCED
        )
        assert search.optimiser.lr == pytest.approx(0.0035)
        assert search.entropy_weight == pytest.approx(1e-4)

    def test_paper_thresholds(self):
        from repro.search.reward import PAPER_T_EER_MJ, PAPER_T_LAT_MS

        assert PAPER_T_LAT_MS == 1.2  # "latency within 1.2 ms"
        assert PAPER_T_EER_MJ == 9.0  # "energy within 9 mJ"

    def test_six_operations(self):
        from repro.nas.ops import NUM_OPS, OP_NAMES

        assert NUM_OPS == 6
        assert set(OP_NAMES) == {
            "conv3x3", "conv5x5", "dwconv3x3", "dwconv5x5",
            "maxpool3x3", "avgpool3x3",
        }

    def test_seven_nodes_per_cell(self):
        from repro.nas.genotype import NUM_COMPUTED, NUM_NODES

        assert NUM_NODES == 7  # "in this work, we use 7 nodes"
        assert NUM_COMPUTED == 5

    def test_hypernet_recipe_defaults(self):
        from repro.nas.hypernet import HyperNetTrainer
        from repro.nas.hypernet import HyperNet
        import numpy as np

        trainer = HyperNetTrainer(
            HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(0))
        )
        # Sec. IV-B: 300 epochs, momentum 0.9, wd 4e-5, cosine 0.05 -> 0.0001.
        assert trainer.epochs == 300
        assert trainer.optimiser.momentum == pytest.approx(0.9)
        assert trainer.optimiser.weight_decay == pytest.approx(4e-5)
        assert trainer.schedule.lr_max == pytest.approx(0.05)
        assert trainer.schedule.lr_min == pytest.approx(0.0001)

    def test_paper_scale_values_quoted_in_experiments_md(self):
        text = read("EXPERIMENTS.md")
        assert "1.42" in text and "3.07" in text  # Fig. 7 spread quoted
        assert "2000" in text  # GP speedup claim quoted
