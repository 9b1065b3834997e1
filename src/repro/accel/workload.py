"""Layer workloads: the tensor shapes the accelerator model consumes.

A :class:`LayerWorkload` captures one operator instance (convolution,
depthwise convolution, pooling or the final classifier) with concrete
shapes.  :func:`network_workloads` walks a cell genotype exactly the way
:mod:`repro.nas.network` builds the trainable network, so the analytical
simulator and the numpy network agree on what is being accelerated.

The genotype argument is duck-typed (any object with ``normal`` / ``reduce``
cells of ``nodes`` with ``input1/input2/op1/op2``) to keep this package free
of imports from :mod:`repro.nas`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LayerWorkload", "network_workloads", "WORD_BYTES"]

#: Datapath word size in bytes (16-bit fixed point, as in TETRIS/nn_dataflow).
WORD_BYTES: int = 2

#: Relative compute cost of a pooling "op" vs a MAC (comparators are cheap).
_POOL_OP_COST: float = 0.25


@dataclass(frozen=True)
class LayerWorkload:
    """One operator with fully resolved shapes, for batch-1 inference.

    The paper scores single-image inference latency and energy, so every
    byte and MAC count below is per image.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"cell3.node4.op1:conv3x3"``.
    kind:
        ``"conv"`` | ``"dwconv"`` | ``"pool"`` | ``"linear"``.
    in_channels, out_channels:
        Channel counts (for pooling they are equal).
    in_size:
        Input spatial size (square feature maps).
    kernel, stride:
        Square window geometry; padding is SAME (size only shrinks by stride).
    """

    name: str
    kind: str
    in_channels: int
    out_channels: int
    in_size: int
    kernel: int
    stride: int

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "dwconv", "pool", "linear"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.in_channels, self.out_channels, self.in_size, self.kernel,
               self.stride) < 1:
            raise ValueError(f"non-positive dimension in workload {self.name!r}")

    # -- derived shapes ----------------------------------------------------
    @property
    def out_size(self) -> int:
        """SAME-padded output spatial size."""
        if self.kind == "linear":
            return 1
        return max(1, (self.in_size + self.stride - 1) // self.stride)

    @property
    def macs(self) -> float:
        """Multiply-accumulate count (pooling counted at comparator cost)."""
        oh = ow = self.out_size
        if self.kind == "conv":
            per_image = self.out_channels * self.in_channels * self.kernel**2 * oh * ow
        elif self.kind == "dwconv":
            depthwise = self.in_channels * self.kernel**2 * oh * ow
            pointwise = self.out_channels * self.in_channels * oh * ow
            per_image = depthwise + pointwise
        elif self.kind == "pool":
            per_image = self.in_channels * self.kernel**2 * oh * ow * _POOL_OP_COST
        else:  # linear
            per_image = self.in_channels * self.out_channels
        return float(per_image)

    @property
    def weight_bytes(self) -> int:
        if self.kind == "conv":
            count = self.out_channels * self.in_channels * self.kernel**2
        elif self.kind == "dwconv":
            count = self.in_channels * self.kernel**2 + self.in_channels * self.out_channels
        elif self.kind == "linear":
            count = self.in_channels * self.out_channels
        else:  # pooling has no weights
            count = 0
        return count * WORD_BYTES

    @property
    def ifmap_bytes(self) -> int:
        if self.kind == "linear":
            return self.in_channels * WORD_BYTES
        return self.in_channels * self.in_size**2 * WORD_BYTES

    @property
    def ofmap_bytes(self) -> int:
        if self.kind == "linear":
            return self.out_channels * WORD_BYTES
        return self.out_channels * self.out_size**2 * WORD_BYTES

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.ifmap_bytes + self.ofmap_bytes


# ---------------------------------------------------------------------------
# Genotype -> workload list
# ---------------------------------------------------------------------------


def network_workloads(
    genotype,
    num_cells: int = 6,
    stem_channels: int = 16,
    image_size: int = 32,
    num_classes: int = 10,
) -> list[LayerWorkload]:
    """Expand a genotype into the full per-layer workload list.

    Mirrors :class:`repro.nas.network.CellNetwork`: a 3x3 stem convolution,
    ``num_cells`` cells with reductions at 1/3 and 2/3 depth (channel count
    doubles at each reduction), per-cell 1x1 input preprocessing, the two ops
    of every computed node, and a final global-pool + linear classifier.
    """
    layers: list[LayerWorkload] = [
        LayerWorkload("stem", "conv", 3, stem_channels, image_size, 3, 1)
    ]
    reduction_at = reduction_positions(num_cells)
    channels = stem_channels
    size = image_size
    # (channels, spatial size) of the two previous cell outputs.
    prev_prev = (stem_channels, image_size)
    prev = (stem_channels, image_size)
    for cell_idx in range(num_cells):
        is_reduction = cell_idx in reduction_at
        if is_reduction:
            channels *= 2
        cell = genotype.reduce if is_reduction else genotype.normal
        # 1x1 preprocessing of the two inputs to `channels` at `size`.
        for tag, (c_in, s_in) in (("pre0", prev_prev), ("pre1", prev)):
            stride = max(1, s_in // size)
            layers.append(
                LayerWorkload(
                    f"cell{cell_idx}.{tag}", "conv", c_in, channels, s_in, 1, stride
                )
            )
        out_size = size // 2 if is_reduction else size
        for offset, node in enumerate(cell.nodes):
            node_idx = offset + 2
            for slot, (inp, op_name) in enumerate(
                ((node.input1, node.op1), (node.input2, node.op2)), start=1
            ):
                # In a reduction cell, edges fed by the cell inputs run at
                # stride 2; edges between computed nodes run at stride 1 and
                # already see the reduced size.
                from_input = inp < 2
                stride = 2 if (is_reduction and from_input) else 1
                in_size = size if (is_reduction and from_input) else out_size
                kind, kernel = _op_shape(op_name)
                layers.append(
                    LayerWorkload(
                        f"cell{cell_idx}.node{node_idx}.op{slot}:{op_name}",
                        kind,
                        channels,
                        channels,
                        in_size,
                        kernel,
                        stride,
                    )
                )
        loose = cell.loose_ends()
        prev_prev = prev
        prev = (channels * len(loose), out_size)
        size = out_size
    layers.append(
        LayerWorkload("classifier", "linear", prev[0], num_classes, 1, 1, 1)
    )
    return layers


def reduction_positions(num_cells: int) -> tuple[int, ...]:
    """Indices of reduction cells: 1/3 and 2/3 depth (paper: 2 of 6 cells)."""
    if num_cells < 3:
        return (num_cells - 1,) if num_cells > 1 else ()
    return (num_cells // 3, (2 * num_cells) // 3)


def _op_shape(op_name: str) -> tuple[str, int]:
    """Map an op name to (workload kind, kernel size)."""
    table = {
        "conv3x3": ("conv", 3),
        "conv5x5": ("conv", 5),
        "dwconv3x3": ("dwconv", 3),
        "dwconv5x5": ("dwconv", 5),
        "maxpool3x3": ("pool", 3),
        "avgpool3x3": ("pool", 3),
    }
    try:
        return table[op_name]
    except KeyError:
        raise KeyError(f"unknown operation {op_name!r}") from None
