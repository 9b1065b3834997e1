"""YOSO: You Only Search Once — single-stage DNN/accelerator co-design.

A full reproduction of Chen et al., DATE 2020.  The package layers:

* :mod:`repro.nn`      — numpy deep-learning substrate
* :mod:`repro.nas`     — cell search space, networks, one-shot HyperNet
* :mod:`repro.accel`   — systolic-array analytical simulator (Table 1 space)
* :mod:`repro.predict` — GP & friends performance predictors (Fig. 4)
* :mod:`repro.search`  — LSTM/REINFORCE co-design search (Fig. 2, Eq. 2-4)
* :mod:`repro.baselines` — the Table 2 two-stage reference networks
* :mod:`repro.experiments` — regeneration harness for every table/figure
* :mod:`repro.scale`   — paper / demo / smoke experiment scales

Quickstart::

    from repro import quick_codesign
    result = quick_codesign()          # a minutes-scale end-to-end run
    print(result.best.point().describe())
"""

from . import accel, baselines, nas, nn, predict, scale, search
from .scale import DEMO, PAPER, SMOKE, ExperimentScale, get_scale

__version__ = "1.0.0"

__all__ = [
    "nn",
    "nas",
    "accel",
    "predict",
    "search",
    "baselines",
    "scale",
    "ExperimentScale",
    "get_scale",
    "PAPER",
    "DEMO",
    "SMOKE",
    "quick_codesign",
    "__version__",
]


def quick_codesign(
    scale_name: str = "demo",
    seed: int = 0,
    workers: int = 1,
    store: str | None = None,
):
    """Run the full three-step YOSO pipeline at a small scale.

    Convenience entry point used by the quickstart example; returns a
    :class:`repro.search.YosoResult`.  ``workers > 1`` shards Step-2
    candidate scoring AND Step-3 top-N training across that many worker
    threads (:mod:`repro.parallel`) with bit-identical results.
    ``store`` names a durable :class:`repro.store.ResultStore` file: a
    second run on the same path replays persisted simulator samples,
    fast evaluations and trained accuracies bit-identically instead of
    recomputing them (leave ``None`` for the byte-identical store-less
    behaviour).
    """
    from .experiments.common import demo_thresholds
    from .nn.data import SyntheticCifar
    from .search import BALANCED, YosoConfig, YosoSearch

    s = get_scale(scale_name)
    dataset = SyntheticCifar(
        image_size=s.image_size,
        train_size=s.train_size,
        val_size=s.val_size,
        test_size=s.test_size,
        seed=seed,
    )
    config = YosoConfig(
        num_cells=s.hypernet_cells,
        stem_channels=s.hypernet_channels,
        hypernet_epochs=s.hypernet_epochs,
        hypernet_batch=s.hypernet_batch,
        predictor_samples=s.predictor_samples,
        search_iterations=s.search_iterations,
        topn=s.topn,
        rescore_epochs=s.standalone_epochs,
        workers=workers,
        store_path=store,
        seed=seed,
    )
    # Thresholds scale with the workload; use the demo-calibrated values.
    t_lat, t_eer = demo_thresholds(s)
    return YosoSearch(dataset, BALANCED.scaled(t_lat, t_eer), config=config).run()
