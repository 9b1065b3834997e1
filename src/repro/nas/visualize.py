"""Cell-genotype visualisation and graph analysis.

Builds a :mod:`networkx` DAG from a cell genotype, exposes structural
metrics (depth, widths, edge lists) used in reports and examples, and
renders the cell as Graphviz DOT source or a compact ASCII listing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .genotype import NUM_NODES, CellGenotype, Genotype

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first use
    import networkx as nx

__all__ = [
    "cell_graph",
    "cell_depth",
    "cell_to_dot",
    "genotype_to_dot",
    "describe_cell",
    "describe_genotype",
]


def cell_graph(cell: CellGenotype) -> nx.DiGraph:
    """The cell as a directed acyclic graph.

    Nodes 0 and 1 are the cell inputs; each edge carries the operation name
    in its ``op`` attribute; the virtual ``"out"`` node receives the
    loose-end concatenation.
    """
    import networkx as nx  # heavy; loaded on first use, not by `import repro`

    graph = nx.DiGraph()
    graph.add_nodes_from(range(NUM_NODES))
    graph.add_node("out")
    for offset, node in enumerate(cell.nodes):
        node_idx = offset + 2
        graph.add_edge(node.input1, node_idx, op=node.op1, slot=1)
        graph.add_edge(node.input2, node_idx, op=node.op2, slot=2)
    for loose in cell.loose_ends():
        graph.add_edge(loose, "out", op="concat", slot=0)
    if not nx.is_directed_acyclic_graph(graph):  # pragma: no cover - guarded by genotype
        raise ValueError("cell graph has a cycle")
    return graph


def cell_depth(cell: CellGenotype) -> int:
    """Length of the longest op path from a cell input to the output.

    A pure chain cell has depth ``NUM_COMPUTED + 1`` (ops plus the concat
    edge); a fully parallel cell has depth 2.
    """
    import networkx as nx

    graph = cell_graph(cell)
    return int(nx.dag_longest_path_length(graph))


def cell_to_dot(cell: CellGenotype, name: str = "cell") -> str:
    """Graphviz DOT source for one cell."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines.append('  0 [label="in0" shape=box];')
    lines.append('  1 [label="in1" shape=box];')
    for offset in range(len(cell.nodes)):
        lines.append(f"  {offset + 2} [label=\"n{offset + 2}\"];")
    lines.append('  out [label="concat" shape=diamond];')
    graph = cell_graph(cell)
    for src, dst, data in graph.edges(data=True):
        label = data["op"]
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def genotype_to_dot(genotype: Genotype) -> str:
    """DOT source containing both cells of a genotype."""
    normal = cell_to_dot(genotype.normal, name="normal")
    reduce_ = cell_to_dot(genotype.reduce, name="reduce")
    return normal + "\n" + reduce_


def describe_cell(cell: CellGenotype) -> str:
    """Compact one-line-per-node ASCII description of a cell."""
    lines = []
    for offset, node in enumerate(cell.nodes):
        node_idx = offset + 2
        lines.append(
            f"n{node_idx} = {node.op1}(n{node.input1}) + {node.op2}(n{node.input2})"
        )
    loose = ", ".join(f"n{i}" for i in cell.loose_ends())
    lines.append(f"out = concat({loose})   depth={cell_depth(cell)}")
    return "\n".join(lines)


def describe_genotype(genotype: Genotype) -> str:
    """ASCII description of both cells."""
    return (
        f"genotype {genotype.name}\n"
        f"[normal]\n{describe_cell(genotype.normal)}\n"
        f"[reduce]\n{describe_cell(genotype.reduce)}"
    )
