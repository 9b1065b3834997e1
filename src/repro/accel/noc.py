"""Network-on-chip (array interconnect) traffic model — optional extension.

Eyeriss-style systolic arrays move operands over row/column buses; the hop
count per delivered word depends on how the dataflow maps loops onto the
array.  This module estimates NoC energy per layer as

    noc_pj = words_injected * mean_hops * e_hop

where ``words_injected`` is the global-buffer read traffic (each word read
from the buffer is injected into the array) and ``mean_hops`` reflects the
delivery pattern: multicast along a full row/column costs ~half the array
span on average; unicast to a single PE costs the full span.

This term is deliberately **off by default** in the simulator
(``SystolicArraySimulator(include_noc=True)`` enables it): the paper's
baseline model does not resolve interconnect energy, and keeping the default
behaviour stable lets the Fig. 4/Table 2 numbers stand.  The extension makes
large PE arrays pay a realistic communication cost, strengthening the
latency/energy trade-off the co-search exploits.

The scalar :class:`~repro.accel.simulator.SystolicArraySimulator` calls
:meth:`NocModel.layer_energy_pj` per layer.  The batch engine
(:mod:`repro.accel.batch`) takes :meth:`NocModel.mean_hops` once per
point, since hop counts depend on the config alone, and applies them with
the vectorised :meth:`NocModel.energy_pj_arrays`, so NoC-aware hardware
sweeps run at full batch speed.  Both paths run the same float operations
in the same order, so their energies are ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AcceleratorConfig, Dataflow
from .dataflow import MappingProfile
from .workload import LayerWorkload

__all__ = ["NocModel", "DEFAULT_NOC_MODEL"]


@dataclass(frozen=True)
class NocModel:
    """Per-hop energy and dataflow-specific delivery patterns."""

    hop_pj: float = 0.05  # energy to move one word one PE hop

    # ------------------------------------------------------------------
    def mean_hops(self, config: AcceleratorConfig) -> dict[str, float]:
        """Mean delivery hop count per datatype for each dataflow.

        Multicast along a bus reaches all targets in ``span`` hops for the
        whole group (amortised ``span / targets`` per consumer, modelled as
        ``span / 2`` per injected word); unicast pays the mean Manhattan
        distance ``(rows + cols) / 2 / 2``.
        """
        rows, cols = config.pe_rows, config.pe_cols
        row_multicast = rows / 2.0
        col_multicast = cols / 2.0
        unicast = (rows + cols) / 4.0
        flow = config.dataflow
        if flow == Dataflow.WS:
            # ifmaps broadcast along output-channel columns, weights loaded
            # once per tile (unicast), psums accumulate along rows.
            return {"ifmap": col_multicast, "weight": unicast, "psum": row_multicast}
        if flow == Dataflow.OS:
            # weights broadcast to the whole output tile, ifmaps shifted
            # between neighbours (cheap), psums stay put.
            return {"ifmap": 1.0, "weight": (rows + cols) / 2.0, "psum": 0.0}
        if flow == Dataflow.RS:
            # row-stationary: diagonal ifmap delivery, horizontal weight
            # reuse, vertical psum accumulation.
            return {"ifmap": unicast, "weight": col_multicast, "psum": row_multicast}
        # NLR: everything unicast from the global buffer.
        return {"ifmap": unicast, "weight": unicast, "psum": unicast}

    def layer_energy_pj(
        self,
        layer: LayerWorkload,
        config: AcceleratorConfig,
        mapping: MappingProfile,
    ) -> float:
        """NoC energy for one layer under a given spatial mapping."""
        hops = self.mean_hops(config)
        macs = layer.macs
        ifmap_words = macs / mapping.ifmap_reuse
        weight_words = (macs / mapping.weight_reuse) if layer.weight_bytes else 0.0
        psum_words = 2.0 * macs / mapping.psum_reuse
        total_hop_words = (
            ifmap_words * hops["ifmap"]
            + weight_words * hops["weight"]
            + psum_words * hops["psum"]
        )
        return total_hop_words * self.hop_pj

    # ------------------------------------------------------------------
    # Vectorised counterpart (used by repro.accel.batch)
    # ------------------------------------------------------------------

    def energy_pj_arrays(
        self,
        macs: np.ndarray,
        has_weights: np.ndarray,
        ifmap_reuse: np.ndarray,
        weight_reuse: np.ndarray,
        psum_reuse: np.ndarray,
        hops: dict[str, np.ndarray],
    ) -> np.ndarray:
        """Vectorised :meth:`layer_energy_pj` over flat layer arrays.

        All inputs are arrays of one value per flat layer: ``macs`` and the
        reuse factors from the batch spatial mapping, and ``hops``, the
        :meth:`mean_hops` of each layer's config per datatype;
        ``has_weights`` masks the weight traffic of weightless (pooling)
        layers, mirroring the scalar ``layer.weight_bytes`` check.  Returns
        NoC picojoules per layer, ``==`` :meth:`layer_energy_pj`.
        """
        ifmap_words = macs / ifmap_reuse
        weight_words = np.where(has_weights, macs / weight_reuse, 0.0)
        psum_words = 2.0 * macs / psum_reuse
        total_hop_words = (
            ifmap_words * hops["ifmap"]
            + weight_words * hops["weight"]
            + psum_words * hops["psum"]
        )
        return total_hop_words * self.hop_pj


DEFAULT_NOC_MODEL = NocModel()
