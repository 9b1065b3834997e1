"""Tests for the simulator's per-component energy breakdown."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig
from repro.accel.simulator import SystolicArraySimulator
from repro.accel.workload import LayerWorkload


@pytest.fixture(scope="module")
def sim():
    return SystolicArraySimulator()


def cfg(flow="OS"):
    return AcceleratorConfig(16, 16, 256, 256, flow)


CONV = LayerWorkload("conv", "conv", 32, 64, 16, 3, 1)


class TestEnergyBreakdown:
    def test_components_sum_to_total(self, sim):
        r = sim.simulate_layer(CONV, cfg())
        assert r.breakdown.total_pj == pytest.approx(r.energy_pj)

    def test_fractions_sum_to_one(self, sim):
        r = sim.simulate_layer(CONV, cfg())
        assert sum(r.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_all_components_positive_for_conv(self, sim):
        b = sim.simulate_layer(CONV, cfg()).breakdown
        assert b.mac_pj > 0 and b.rbuf_pj > 0 and b.gbuf_pj > 0
        assert b.dram_pj > 0 and b.leakage_pj > 0

    def test_network_breakdown_sums_layers(self, sim, genotype):
        report = sim.simulate_genotype(genotype, cfg(), num_cells=3,
                                       stem_channels=8, image_size=16)
        total = report.energy_breakdown()
        assert total.total_pj == pytest.approx(
            sum(r.breakdown.total_pj for r in report.layers)
        )
        assert total.total_pj == pytest.approx(report.energy_mj * 1e9, rel=1e-9)

    def test_nlr_shifts_energy_to_gbuf(self, sim):
        """No local reuse -> a larger gbuf share than weight-stationary."""
        ws = sim.simulate_layer(CONV, cfg("WS")).breakdown.fractions()
        nlr = sim.simulate_layer(CONV, cfg("NLR")).breakdown.fractions()
        assert nlr["gbuf"] > ws["gbuf"]

    def test_memory_dominates_macs(self, sim):
        """Eyeriss's classic observation: data movement outweighs compute."""
        b = sim.simulate_layer(CONV, cfg()).breakdown
        assert b.gbuf_pj + b.dram_pj + b.rbuf_pj > b.mac_pj
