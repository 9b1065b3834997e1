"""Vectorised batch evaluation of the analytical simulator.

The scalar path (:class:`repro.accel.simulator.SystolicArraySimulator`)
walks every layer in Python: one ``spatial_map`` call, one ``choose_tiling``
grid sweep and one energy roll-up per layer.  That is fine for a single
point but dominates wall-clock when a search scores hundreds of
(network, configuration) candidates per step, or when the two-stage
baseline enumerates all 800 hardware configurations for a fixed network.

This module evaluates a whole *batch* of points at once: every layer of
every point is flattened into numpy arrays, the four dataflow mapping
models and the tiling sweep are computed as array math across the entire
flat layer list, and per-point totals add each point's layers left to
right.  The formulas mirror :mod:`repro.accel.dataflow`,
:mod:`repro.accel.mapper` and :mod:`repro.accel.simulator` operation for
operation and the totals keep ``simulate_network``'s summation order, so
every batch result is ``==`` the scalar simulator's, whatever else is in
the batch (the parity tests pin this with ``==``).

Tiling candidates are additionally deduplicated on their inputs
``(ifmap, weight, ofmap, gbuf)`` before the grid sweep — when one network
is swept across many configurations the same few dozen tuples repeat
hundreds of times, so the dominant (layers x grid) computation shrinks by
that factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import AcceleratorConfig, Dataflow
from .energy import EnergyModel
from .mapper import _GBUF_USABLE, _NC, _NK, _NS
from .workload import _POOL_OP_COST, WORD_BYTES, LayerWorkload

__all__ = ["BatchSimResult", "flatten_workloads", "simulate_flat"]

#: Layer-kind codes used in the flat arrays.
_KIND_CODES = {"conv": 0, "dwconv": 1, "pool": 2, "linear": 3}
#: Dataflow codes used in the flat arrays.
_FLOW_CODES = {Dataflow.WS: 0, Dataflow.OS: 1, Dataflow.RS: 2, Dataflow.NLR: 3}

#: Maximum unique tiling rows per chunk of the (rows x grid) sweep, bounding
#: peak memory at ~2048 * 1000 * 8 B = 16 MB per intermediate array.
_TILING_CHUNK = 2048

#: Fixed per-layer launch/drain overhead in cycles.  Defined here (rather
#: than in :mod:`repro.accel.simulator`, which imports this module) so the
#: scalar and batch paths share one constant.
_LAYER_OVERHEAD_CYCLES = 500.0


@dataclass(frozen=True)
class BatchSimResult:
    """Per-point aggregate simulation results (arrays of length B).

    The batch engine intentionally returns aggregates only — materialising
    per-layer :class:`~repro.accel.simulator.LayerReport` objects would cost
    more than the simulation itself.  Use the scalar simulator when the
    per-layer breakdown of a specific point is needed.
    """

    latency_ms: np.ndarray
    energy_mj: np.ndarray
    total_macs: np.ndarray
    total_dram_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.latency_ms)


@dataclass(frozen=True)
class _FlatLayers:
    """Structure-of-arrays layer batch plus per-point segment starts."""

    starts: np.ndarray  # (B,) index of each point's first flat layer
    kind: np.ndarray  # (N,) int codes from _KIND_CODES
    in_channels: np.ndarray
    out_channels: np.ndarray
    in_size: np.ndarray
    kernel: np.ndarray
    stride: np.ndarray


def _layer_columns(layers: Sequence[LayerWorkload]) -> np.ndarray:
    """Gather one layer list into a (L, 6) int64 matrix."""
    return np.array(
        [
            (
                _KIND_CODES[l.kind],
                l.in_channels,
                l.out_channels,
                l.in_size,
                l.kernel,
                l.stride,
            )
            for l in layers
        ],
        dtype=np.int64,
    )


def flatten_workloads(
    workload_lists: Sequence[Sequence[LayerWorkload]],
) -> _FlatLayers:
    """Concatenate per-point layer lists into flat arrays with segment starts."""
    lengths = [len(layers) for layers in workload_lists]
    if any(n == 0 for n in lengths):
        raise ValueError("empty workload list")
    if len(set(map(id, workload_lists))) == 1 and len(workload_lists) > 1:
        # One shared layer list broadcast over B points: gather once, tile.
        cols = np.tile(_layer_columns(workload_lists[0]), (len(workload_lists), 1))
    else:
        cols = np.concatenate([_layer_columns(layers) for layers in workload_lists])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return _FlatLayers(
        starts=starts,
        kind=cols[:, 0],
        in_channels=cols[:, 1],
        out_channels=cols[:, 2],
        in_size=cols[:, 3],
        kernel=cols[:, 4],
        stride=cols[:, 5],
    )


# ---------------------------------------------------------------------------
# Derived layer shapes (vectorised LayerWorkload properties)
# ---------------------------------------------------------------------------


def _derived_shapes(flat: _FlatLayers) -> dict[str, np.ndarray]:
    """Vectorised macs / out_size / footprint formulas of LayerWorkload."""
    kind = flat.kind
    c, k = flat.in_channels, flat.out_channels
    r, stride = flat.kernel, flat.stride
    is_linear = kind == _KIND_CODES["linear"]
    out_size = np.where(
        is_linear, 1, np.maximum(1, (flat.in_size + stride - 1) // stride)
    )
    plane = out_size * out_size
    # Integer MAC counts are exact below 2^53, so float conversion is too.
    conv_macs = k * c * r**2 * plane
    dw_macs = c * r**2 * plane + k * c * plane
    pool_ops = c * r**2 * plane
    lin_macs = c * k
    macs = np.select(
        [kind == 0, kind == 1, kind == 2],
        [
            conv_macs.astype(np.float64),
            dw_macs.astype(np.float64),
            pool_ops.astype(np.float64) * _POOL_OP_COST,
        ],
        default=lin_macs.astype(np.float64),
    )
    weight_bytes = (
        np.select(
            [kind == 0, kind == 1, kind == 3],
            [k * c * r**2, c * r**2 + c * k, c * k],
            default=0,
        )
        * WORD_BYTES
    )
    ifmap_bytes = np.where(is_linear, c, c * flat.in_size**2) * WORD_BYTES
    ofmap_bytes = np.where(is_linear, k, k * plane) * WORD_BYTES
    return {
        "out_size": out_size,
        "macs": macs,
        "weight_bytes": weight_bytes.astype(np.float64),
        "ifmap_bytes": ifmap_bytes.astype(np.float64),
        "ofmap_bytes": ofmap_bytes.astype(np.float64),
    }


# ---------------------------------------------------------------------------
# Spatial mapping (vectorised repro.accel.dataflow.spatial_map)
# ---------------------------------------------------------------------------


def _fold(dim: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Vectorised ``fold_utilisation``: dim / (ceil(dim/lanes) * lanes)."""
    return dim / (np.ceil(dim / lanes) * lanes)


def _spatial_map_arrays(
    flat: _FlatLayers,
    shapes: dict[str, np.ndarray],
    pe_rows: np.ndarray,
    pe_cols: np.ndarray,
    rbuf_bytes: np.ndarray,
    flow: np.ndarray,
) -> dict[str, np.ndarray]:
    """Utilisation and reuse factors for every flat layer at once.

    All four dataflow branches are evaluated over the full arrays and
    selected by the per-layer flow code — 4x redundant arithmetic, but each
    branch is pure array math, which is far cheaper than masked scatters.
    """
    c = flat.in_channels.astype(np.float64)
    k = flat.out_channels.astype(np.float64)
    oh = shapes["out_size"].astype(np.float64)
    r = flat.kernel.astype(np.float64)
    rs = r * r
    stride = flat.stride.astype(np.float64)
    rows = pe_rows.astype(np.float64)
    cols = pe_cols.astype(np.float64)
    dw = (flat.kind == _KIND_CODES["dwconv"]) | (flat.kind == _KIND_CODES["pool"])
    rbuf_words = rbuf_bytes / WORD_BYTES

    def cap_factor(resident: np.ndarray) -> np.ndarray:
        return np.where(resident <= 0, 1.0, np.minimum(1.0, rbuf_words / resident))

    # -- WS -------------------------------------------------------------
    ws_util = np.where(
        dw, _fold(c, rows) * _fold(oh, cols), _fold(c, rows) * _fold(k, cols)
    )
    ws_cap = cap_factor(rs)
    ws_weight = np.maximum(1.0, oh * oh * ws_cap)
    ws_ifmap = np.maximum(1.0, np.where(dw, 1.0, np.minimum(k, cols)))
    ws_psum = np.maximum(1.0, rs * np.minimum(c, rows))
    # -- OS -------------------------------------------------------------
    os_util = _fold(oh, rows) * _fold(oh, cols)
    os_psum = np.maximum(1.0, np.where(dw, rs, c * rs))
    os_weight = np.maximum(1.0, np.minimum(oh, rows) * np.minimum(oh, cols))
    os_cap = cap_factor(rs)
    os_ifmap = np.maximum(1.0, (rs / (stride * stride)) * os_cap)
    # -- RS -------------------------------------------------------------
    copies = np.where(r <= rows, np.maximum(1, pe_rows // flat.kernel), 1).astype(
        np.float64
    )
    rows_used = np.minimum(rows, r * copies)
    util_rows = rows_used / rows
    repl_dim = np.where(dw, oh, k)
    util_rows = util_rows * np.where(
        copies > 1, np.minimum(1.0, repl_dim / copies), 1.0
    )
    rs_util = np.maximum(1e-3, util_rows * _fold(oh, cols))
    rs_resident = r + (flat.in_size // np.maximum(1, flat.stride)).astype(np.float64)
    rs_cap = cap_factor(rs_resident)
    rs_ifmap = np.maximum(1.0, r * rs_cap)
    rs_weight = np.maximum(1.0, np.minimum(oh, cols) * rs_cap)
    rs_psum = np.maximum(1.0, rs)
    # -- NLR ------------------------------------------------------------
    nlr_util = np.where(
        dw, _fold(c, rows) * _fold(oh, cols), _fold(k, rows) * _fold(oh, cols)
    )
    ones = np.ones_like(c)

    flows = [flow == 0, flow == 1, flow == 2]
    util = np.select(flows, [ws_util, os_util, rs_util], default=nlr_util)
    return {
        "utilisation": np.minimum(1.0, np.maximum(1e-4, util)),
        "ifmap_reuse": np.select(flows, [ws_ifmap, os_ifmap, rs_ifmap], default=ones),
        "weight_reuse": np.select(
            flows, [ws_weight, os_weight, rs_weight], default=ones
        ),
        "psum_reuse": np.select(flows, [ws_psum, os_psum, rs_psum], default=ones),
    }


# ---------------------------------------------------------------------------
# Tiling (vectorised repro.accel.mapper.choose_tiling)
# ---------------------------------------------------------------------------


def _tiling_dram_bytes(
    ifmap: np.ndarray, weight: np.ndarray, ofmap: np.ndarray, gbuf_bytes: np.ndarray
) -> np.ndarray:
    """Minimum-traffic DRAM bytes per flat layer (deduplicated grid sweep)."""
    rows = np.column_stack((ifmap, weight, ofmap, gbuf_bytes))
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    out = np.empty(len(uniq), dtype=np.float64)
    for lo in range(0, len(uniq), _TILING_CHUNK):
        chunk = uniq[lo : lo + _TILING_CHUNK]
        u_if = chunk[:, 0][:, None]
        u_w = chunk[:, 1][:, None]
        u_of = chunk[:, 2][:, None]
        budget = (chunk[:, 3] * _GBUF_USABLE)[:, None]
        grid_ncns = (_NC * _NS)[None, :]
        grid_ncnk = (_NC * _NK)[None, :]
        grid_nkns = (_NK * _NS)[None, :]
        tile_set = u_if / grid_ncns + u_w / grid_ncnk + u_of / grid_nkns
        feasible = tile_set <= budget
        t_weight = u_w * _NS[None, :]
        t_ifmap = u_if * _NK[None, :]
        t_ofmap = u_of * (2 * _NC - 1)[None, :]
        traffic = t_weight + t_ifmap + t_ofmap
        masked = np.where(feasible, traffic, np.inf)
        best = np.argmin(masked, axis=1)
        # Infeasible rows fall back to the finest blocking (scalar parity).
        best = np.where(feasible.any(axis=1), best, len(_NC) - 1)
        take = np.arange(len(chunk))
        out[lo : lo + _TILING_CHUNK] = (
            t_ifmap[take, best] + t_weight[take, best] + t_ofmap[take, best]
        )
    return out[inverse]


# ---------------------------------------------------------------------------
# Full batch simulation
# ---------------------------------------------------------------------------


def simulate_flat(
    workload_lists: Sequence[Sequence[LayerWorkload]],
    configs: Sequence[AcceleratorConfig],
    energy_model: EnergyModel,
) -> BatchSimResult:
    """Simulate ``B`` (layers, config) points with one pass of array math.

    ``workload_lists`` holds one layer list per point (``len == len(configs)``;
    lists may be ragged — points need not share a layer count).  Returns
    per-point aggregate arrays of length ``B`` (:class:`BatchSimResult`),
    each ``==`` the scalar simulator's.
    """
    if len(workload_lists) != len(configs):
        raise ValueError(
            f"{len(workload_lists)} workload lists but {len(configs)} configs"
        )
    if not configs:
        raise ValueError("empty batch")
    flat = flatten_workloads(workload_lists)
    shapes = _derived_shapes(flat)
    em = energy_model

    # Per-point config columns, repeated out to the flat layer axis.
    lengths = np.diff(np.append(flat.starts, len(flat.kind)))
    pe_rows_pt = np.array([c.pe_rows for c in configs], dtype=np.int64)
    pe_cols_pt = np.array([c.pe_cols for c in configs], dtype=np.int64)
    gbuf_pt = np.array([c.gbuf_bytes for c in configs], dtype=np.float64)
    rbuf_pt = np.array([c.rbuf_bytes for c in configs], dtype=np.float64)
    flow_pt = np.array([_FLOW_CODES[c.dataflow] for c in configs], dtype=np.int64)
    leak_pt = np.array(
        [em.leakage_pj_per_cycle(c) for c in configs], dtype=np.float64
    )
    rep = np.repeat(np.arange(len(configs)), lengths)

    mapping = _spatial_map_arrays(
        flat,
        shapes,
        pe_rows_pt[rep],
        pe_cols_pt[rep],
        rbuf_pt[rep],
        flow_pt[rep],
    )
    num_pes = (pe_rows_pt * pe_cols_pt).astype(np.float64)[rep]
    macs = shapes["macs"]

    compute_cycles = macs / (num_pes * mapping["utilisation"])
    dram_bytes = _tiling_dram_bytes(
        shapes["ifmap_bytes"], shapes["weight_bytes"], shapes["ofmap_bytes"], gbuf_pt[rep]
    )
    dram_cycles = dram_bytes / em.dram_bw_bytes_per_cycle
    cycles = np.maximum(compute_cycles, dram_cycles) + _LAYER_OVERHEAD_CYCLES

    gbuf_words = macs / mapping["ifmap_reuse"] + 2.0 * macs / mapping["psum_reuse"]
    gbuf_words = gbuf_words + np.where(
        shapes["weight_bytes"] > 0, macs / mapping["weight_reuse"], 0.0
    )
    gbuf_words = gbuf_words + dram_bytes / WORD_BYTES
    energy_pj = (
        macs * em.mac_pj
        + (3.0 * macs) * em.rbuf_pj
        + gbuf_words * em.gbuf_pj
        + (dram_bytes / WORD_BYTES) * em.dram_pj
        + leak_pt[rep] * cycles
    )

    # Per-point totals summed left to right over the layers, as the scalar
    # ``simulate_network`` does: scatter each point's layers into a row of
    # a (points x layers) grid padded with +0.0, then add it column by
    # column (adding +0.0 leaves a positive sum unchanged).
    grid = np.zeros((4, len(configs), int(lengths.max())))
    layer_pos = np.arange(len(rep)) - flat.starts[rep]
    grid[:, rep, layer_pos] = (cycles, energy_pj, macs, dram_bytes)
    totals = grid[:, :, 0].copy()
    for column in range(1, grid.shape[2]):
        totals += grid[:, :, column]
    cycles_total, energy_total, macs_total, dram_total = totals
    return BatchSimResult(
        latency_ms=em.cycles_to_ms(cycles_total),
        energy_mj=energy_total * 1e-9,
        total_macs=macs_total,
        total_dram_bytes=dram_total,
    )
