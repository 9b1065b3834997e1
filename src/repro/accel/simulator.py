"""Analytical systolic-array performance simulator.

This is the reproduction's stand-in for the paper's modified ``nn_dataflow``
(TETRIS) simulator: it measures latency (ms) and energy (mJ) of a network on
a configured accelerator, layer by layer.  Per layer it combines

1. the dataflow spatial mapping (:mod:`repro.accel.dataflow`) — PE
   utilisation and register-level reuse,
2. the global-buffer tiling (:mod:`repro.accel.mapper`) — DRAM traffic, and
3. the energy model (:mod:`repro.accel.energy`) — per-event costs plus
   leakage over the layer's runtime.

Latency per layer is ``max(compute cycles, DRAM cycles)`` (perfect
double-buffering overlap) plus a fixed per-layer launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .batch import _LAYER_OVERHEAD_CYCLES, BatchSimResult, simulate_flat
from .config import AcceleratorConfig
from .dataflow import MappingProfile, spatial_map
from .energy import DEFAULT_ENERGY_MODEL, EnergyModel
from .mapper import Tiling, choose_tiling
from .workload import WORD_BYTES, LayerWorkload, network_workloads

__all__ = [
    "BatchSimResult",
    "EnergyBreakdown",
    "LayerReport",
    "NetworkReport",
    "SystolicArraySimulator",
]

@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split by component (picojoules), Eyeriss-style."""

    mac_pj: float
    rbuf_pj: float
    gbuf_pj: float
    dram_pj: float
    leakage_pj: float

    @property
    def total_pj(self) -> float:
        return (
            self.mac_pj + self.rbuf_pj + self.gbuf_pj + self.dram_pj
            + self.leakage_pj
        )

    def fractions(self) -> dict[str, float]:
        """Per-component share of the total (sums to 1)."""
        total = max(self.total_pj, 1e-30)
        return {
            "mac": self.mac_pj / total,
            "rbuf": self.rbuf_pj / total,
            "gbuf": self.gbuf_pj / total,
            "dram": self.dram_pj / total,
            "leakage": self.leakage_pj / total,
        }


@dataclass(frozen=True)
class LayerReport:
    """Per-layer simulation result."""

    name: str
    macs: float
    utilisation: float
    compute_cycles: float
    dram_cycles: float
    cycles: float
    dram_bytes: float
    energy_pj: float
    mapping: MappingProfile
    tiling: Tiling
    breakdown: EnergyBreakdown


@dataclass(frozen=True)
class NetworkReport:
    """Whole-network simulation result."""

    layers: tuple[LayerReport, ...]
    latency_ms: float
    energy_mj: float
    total_macs: float
    total_dram_bytes: float

    @property
    def energy_per_mac_pj(self) -> float:
        return self.energy_mj * 1e9 / max(self.total_macs, 1.0)

    @property
    def mean_utilisation(self) -> float:
        """MAC-weighted mean PE-array utilisation across layers."""
        total = sum(r.macs for r in self.layers)
        if total <= 0:
            return 0.0
        return sum(r.utilisation * r.macs for r in self.layers) / total

    def top_energy_layers(self, n: int = 5) -> list[LayerReport]:
        """The ``n`` most energy-hungry layers (profiling aid)."""
        return sorted(self.layers, key=lambda r: r.energy_pj, reverse=True)[:n]

    def energy_breakdown(self) -> EnergyBreakdown:
        """Whole-network energy split by component."""
        return EnergyBreakdown(
            mac_pj=sum(r.breakdown.mac_pj for r in self.layers),
            rbuf_pj=sum(r.breakdown.rbuf_pj for r in self.layers),
            gbuf_pj=sum(r.breakdown.gbuf_pj for r in self.layers),
            dram_pj=sum(r.breakdown.dram_pj for r in self.layers),
            leakage_pj=sum(r.breakdown.leakage_pj for r in self.layers),
        )

    def to_text(self, top: int = 5) -> str:
        """Human-readable summary with a per-layer energy breakdown."""
        lines = [
            f"latency   : {self.latency_ms:.4f} ms",
            f"energy    : {self.energy_mj:.4f} mJ "
            f"({self.energy_per_mac_pj:.2f} pJ/MAC)",
            f"MACs      : {self.total_macs:.3e}",
            f"DRAM      : {self.total_dram_bytes / 1024:.1f} KiB",
            f"mean util : {100 * self.mean_utilisation:.1f}%",
            f"top {top} layers by energy:",
        ]
        for r in self.top_energy_layers(top):
            lines.append(
                f"  {r.name:36s} {r.energy_pj * 1e-9:.5f} mJ "
                f"util={100 * r.utilisation:.0f}% "
                f"dram={r.dram_bytes / 1024:.1f} KiB"
            )
        return "\n".join(lines)


class SystolicArraySimulator:
    """Ground-truth oracle mapping (network, config) -> latency & energy."""

    def __init__(self, energy_model: EnergyModel | None = None) -> None:
        self.energy_model = energy_model or DEFAULT_ENERGY_MODEL

    # ------------------------------------------------------------------
    def simulate_layer(self, layer: LayerWorkload, config: AcceleratorConfig) -> LayerReport:
        """Simulate one layer on one configuration."""
        em = self.energy_model
        mapping = spatial_map(layer, config)
        tiling = choose_tiling(layer, config)
        macs = layer.macs

        compute_cycles = macs / (config.num_pes * mapping.utilisation)
        dram_bytes = tiling.dram_bytes
        dram_cycles = dram_bytes / em.dram_bw_bytes_per_cycle
        cycles = max(compute_cycles, dram_cycles) + _LAYER_OVERHEAD_CYCLES

        # Global-buffer word accesses per datatype: 1/ reuse per MAC, psums
        # need a read and a write.  Weightless layers skip the weight term.
        gbuf_words = macs / mapping.ifmap_reuse + 2.0 * macs / mapping.psum_reuse
        if layer.weight_bytes > 0:
            gbuf_words += macs / mapping.weight_reuse
        # DRAM refills also pass through the global buffer once.
        gbuf_words += dram_bytes / WORD_BYTES
        # Register-file traffic: every MAC moves ~3 operands at the RF level.
        rbuf_words = 3.0 * macs

        breakdown = EnergyBreakdown(
            mac_pj=macs * em.mac_pj,
            rbuf_pj=rbuf_words * em.rbuf_pj,
            gbuf_pj=gbuf_words * em.gbuf_pj,
            dram_pj=(dram_bytes / WORD_BYTES) * em.dram_pj,
            leakage_pj=em.leakage_pj_per_cycle(config) * cycles,
        )
        return LayerReport(
            name=layer.name,
            macs=macs,
            utilisation=mapping.utilisation,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            cycles=cycles,
            dram_bytes=dram_bytes,
            energy_pj=breakdown.total_pj,
            mapping=mapping,
            tiling=tiling,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    def simulate_network(
        self, layers: list[LayerWorkload], config: AcceleratorConfig
    ) -> NetworkReport:
        """Simulate a full per-layer workload list."""
        if not layers:
            raise ValueError("empty workload list")
        reports = tuple(self.simulate_layer(layer, config) for layer in layers)
        cycles = sum(r.cycles for r in reports)
        energy_pj = sum(r.energy_pj for r in reports)
        return NetworkReport(
            layers=reports,
            latency_ms=self.energy_model.cycles_to_ms(cycles),
            energy_mj=energy_pj * 1e-9,
            total_macs=sum(r.macs for r in reports),
            total_dram_bytes=sum(r.dram_bytes for r in reports),
        )

    # ------------------------------------------------------------------
    def simulate_many(
        self,
        workloads: Sequence[LayerWorkload] | Sequence[Sequence[LayerWorkload]],
        configs: Sequence[AcceleratorConfig],
    ) -> BatchSimResult:
        """Simulate a batch of (layers, config) points with array math.

        ``workloads`` is either one layer list — broadcast across every
        configuration, the two-stage enumeration pattern — or one layer
        list per configuration (ragged lists are fine).  Results are ``==``
        :meth:`simulate_network`'s, however the points are batched.  Only
        per-point aggregates are returned
        (see :class:`~repro.accel.batch.BatchSimResult`).
        """
        configs = list(configs)
        if not configs:
            raise ValueError("empty config batch")
        if workloads and isinstance(workloads[0], LayerWorkload):
            workload_lists: list[Sequence[LayerWorkload]] = [workloads] * len(configs)
        else:
            workload_lists = list(workloads)  # type: ignore[arg-type]
        if len(workload_lists) != len(configs):
            raise ValueError(
                f"{len(workload_lists)} workload lists but {len(configs)} configs"
            )
        return simulate_flat(workload_lists, configs, self.energy_model)

    # ------------------------------------------------------------------
    def simulate_genotypes(
        self,
        pairs: Sequence[tuple],
        num_cells: int = 6,
        stem_channels: int = 16,
        image_size: int = 32,
        num_classes: int = 10,
    ) -> BatchSimResult:
        """Batch counterpart of :meth:`simulate_genotype`.

        ``pairs`` is a sequence of ``(genotype, config)`` tuples (e.g.
        unpacked :class:`~repro.nas.encoding.CoDesignPoint` instances).
        """
        workload_lists = [
            network_workloads(
                genotype,
                num_cells=num_cells,
                stem_channels=stem_channels,
                image_size=image_size,
                num_classes=num_classes,
            )
            for genotype, _config in pairs
        ]
        return self.simulate_many(workload_lists, [config for _g, config in pairs])

    # ------------------------------------------------------------------
    def simulate_genotype(
        self,
        genotype,
        config: AcceleratorConfig,
        num_cells: int = 6,
        stem_channels: int = 16,
        image_size: int = 32,
        num_classes: int = 10,
    ) -> NetworkReport:
        """Convenience wrapper: expand a genotype and simulate it."""
        layers = network_workloads(
            genotype,
            num_cells=num_cells,
            stem_channels=stem_channels,
            image_size=image_size,
            num_classes=num_classes,
        )
        return self.simulate_network(layers, config)
