"""Edge-list ingestion for external network datasets.

The accepted format is one edge per line, two whitespace-separated
non-negative integer labels written in ASCII decimal digits only (no sign,
no underscores); lines starting with '#' and blank lines are ignored.
Labels are remapped to dense ids 0..n-1 in ascending label order,
self-loops and duplicate edges are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, build_graph, largest_connected_component


class EdgeListFormatError(ValueError):
    """Unparseable edge-list line; the message carries the line number."""


@dataclass(frozen=True, slots=True)
class NetworkStats:
    """Published reference properties of a dataset, for opt-in verification."""

    n: int
    m: int
    lcc_n: int
    diameter: int
    radius: int


# properties of the four commonly used SNAP networks (full-graph node and edge
# counts, giant-component size, and giant-component diameter/radius)
KNOWN_STATS: dict[str, NetworkStats] = {
    "facebook": NetworkStats(n=4_039, m=88_234, lcc_n=4_039, diameter=8, radius=4),
    "enron": NetworkStats(n=33_969, m=180_811, lcc_n=33_696, diameter=13, radius=7),
    "col1": NetworkStats(n=4_158, m=13_422, lcc_n=4_158, diameter=17, radius=9),
    "col2": NetworkStats(n=8_638, m=24_806, lcc_n=8_638, diameter=18, radius=10),
}


@dataclass(frozen=True, slots=True)
class DatasetDescriptor:
    """A named dataset on disk; its published stats, if any, are ``KNOWN_STATS[name.lower()]``."""

    name: str
    path: str


def load_edge_list(path: str | Path, *, giant: bool = False) -> tuple[Graph, dict[int, int]]:
    """Load an edge-list file; returns the graph and the label -> id mapping.

    With ``giant=True`` only the largest connected component is kept and the
    mapping composes down to it (labels outside the component are dropped).
    Raises :class:`EdgeListFormatError` naming the first malformed line, or
    if no edges survive cleaning.
    """
    path = Path(path)
    raw_edges: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise EdgeListFormatError(
                    f"{path}:{lineno}: expected two node labels, got {stripped!r}"
                )
            if not (stripped.isascii() and parts[0].isdigit() and parts[1].isdigit()):
                # int() would also read '+1', '1_0' and non-ASCII digits, joining distinct labels
                signed = stripped.isascii() and all(label.removeprefix("-").isdigit() for label in parts)
                what = "negative" if signed else "non-integer"
                raise EdgeListFormatError(f"{path}:{lineno}: {what} node label in {stripped!r}")
            a, b = int(parts[0]), int(parts[1])
            if a != b:
                raw_edges.append((a, b))
    if not raw_edges:
        raise EdgeListFormatError(f"{path}: empty graph after cleaning")
    labels = sorted({x for e in raw_edges for x in e})
    id_of = {label: i for i, label in enumerate(labels)}
    g = build_graph(len(labels), ((id_of[a], id_of[b]) for a, b in raw_edges))
    if not giant:
        return g, id_of
    lcc, members = largest_connected_component(g)
    return lcc, {labels[old]: new for new, old in enumerate(members)}


def write_edge_list(path: str | Path, g: Graph, header_lines: tuple[str, ...] = ()) -> None:
    """Write a graph in the same edge-list format, '#' header lines first.

    The format has a line per edge and none per node, so a node with no edge
    is not written: ``load_edge_list`` reads the 3-node graph with the one
    edge (0, 1) back as the 2-node graph, and an edgeless node below the top
    id moves every id above it down by one.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for a, b in g.edges():
            fh.write(f"{a} {b}\n")
