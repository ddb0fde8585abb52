"""Seeded random-graph models and the domination-to-broker reduction gadget.

Both generators are deterministic functions of their parameters: the seed
feeds a dedicated Mersenne Twister instance and every sampling step draws
from it in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, GraphError, NodeSet, _check_seed, _from_sets, _integer, metric_profile

BA = "ba"
NWS = "nws"
DEFAULT_BA_M = 2
DEFAULT_NWS_K = 4
DEFAULT_NWS_P = 0.1
# the parameters each model reads; the others keep their defaults, unchecked
MODEL_PARAMS = {BA: ("ba_m",), NWS: ("nws_k", "nws_p")}


@dataclass(frozen=True, slots=True)
class RandomModelParams:
    """Parameters of one random-graph draw.

    ``ba`` grows a scale-free graph by preferential attachment (``ba_m``
    edges per new node); ``nws`` overlays random shortcuts on a ring lattice
    of even degree ``nws_k`` with per-edge shortcut probability ``nws_p``.
    Only the model's own parameters are checked; each defaults to the value
    the experiments use.  ``seed`` must be >= 0, and ``n``, ``seed`` and the
    model's ``ba_m`` or ``nws_k`` must be integers.
    """

    model: str
    n: int
    seed: int
    ba_m: int = DEFAULT_BA_M
    nws_k: int = DEFAULT_NWS_K
    nws_p: float = DEFAULT_NWS_P

    def __post_init__(self) -> None:
        if self.model not in MODEL_PARAMS:
            raise GraphError(f"unknown model {self.model!r}, expected {' or '.join(map(repr, MODEL_PARAMS))}")
        _check_seed(self.seed)
        n = _integer(self.n, "n")
        if self.model == BA:
            if not 1 <= _integer(self.ba_m, "ba_m") < n:
                raise GraphError(f"ba needs 1 <= ba_m < n, got ba_m={self.ba_m}, n={self.n}")
        else:
            if _integer(self.nws_k, "nws_k") % 2 or not 2 <= self.nws_k < n:
                raise GraphError(f"nws needs even 2 <= nws_k < n, got nws_k={self.nws_k}, n={self.n}")
            if not 0.0 <= self.nws_p <= 1.0:
                raise GraphError(f"nws needs 0 <= nws_p <= 1, got {self.nws_p}")

    def label(self) -> str:
        """The model and the parameters it reads (``MODEL_PARAMS``), unprefixed: ``nws(k=4, p=0.1)``."""
        values = ", ".join(f"{name.split('_')[1]}={getattr(self, name)}" for name in MODEL_PARAMS[self.model])
        return f"{self.model}({values})"


def _gen_ba(params: RandomModelParams) -> Graph:
    """Preferential-attachment graph: star seed, then degree-proportional ties.

    Starts from a star on ``ba_m + 1`` nodes (hub 0).  Each later node joins
    with ``ba_m`` edges whose targets are drawn proportionally to current
    degree, redrawing duplicates until the targets are distinct.  Connected
    by construction.

    The random calls are the contract that keeps every seed's graph
    unchanged: for each new node, ascending, one ``randrange`` over the
    length of the list of edge ends per draw, drawing until ``ba_m``
    distinct targets are held; then the list grows by the targets,
    ascending, and by ``ba_m`` copies of the new node.  An edit must not
    add, drop or reorder any of them.  The targets set becomes the new
    node's neighbor set, and the sets become the graph through
    ``graph._from_sets``; no edge list is built.
    """
    rng = random.Random(params.seed)
    m = params.ba_m
    # the star (hub 0 and leaves 1..m); each later node's set is empty until its turn
    adjacent = [set(range(1, m + 1))] + [{0} if v <= m else set() for v in range(1, params.n)]
    # one entry per incident edge end, so index-uniform draws are
    # degree-proportional
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, params.n):
        targets = adjacent[source]
        while len(targets) < m:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in sorted(targets):
            adjacent[t].add(source)
            repeated.append(t)
        repeated.extend([source] * m)
    return _from_sets(adjacent)


def _gen_nws(params: RandomModelParams) -> Graph:
    """Ring lattice plus random shortcuts; no edges are removed.

    Node i is tied to its ``nws_k / 2`` nearest neighbors on each side of the
    ring.  For every lattice edge (u, v), with probability ``nws_p`` one
    shortcut is added from u to a target drawn uniformly among the nodes not
    yet adjacent to u.  The ring keeps the result connected.

    The target is drawn by its rank: ``randrange`` over the number of free
    ids, then a walk over u's sorted neighbors and u itself turns that rank
    into the free id of that rank, ascending, without listing the free ids.
    Cost: O(n*k + shortcuts * k log k), as u's degree is k plus its
    shortcuts, k(1 + p) in expectation.  The random calls are the contract
    that keeps every seed's graph unchanged: one ``random()`` per lattice
    edge (u, u + j), u ascending and j = 1..k/2 within each u, and for each
    hit one ``randrange`` over the number of free ids, none when there is
    no free id.  An edit must not add, drop or reorder any of them.  The
    lattice and the shortcuts go straight into the neighbor sets the draws
    read, and those sets become the graph through ``graph._from_sets``.
    """
    rng = random.Random(params.seed)
    n, k, p = params.n, params.nws_k, params.nws_p
    # node i's k/2 ring neighbors on each side; k < n, so no two offsets meet
    adjacent = [{(i + j) % n for j in range(-(k // 2), k // 2 + 1) if j} for i in range(n)]
    for u in (i for i in range(n) for _ in range(k // 2)):  # each lattice edge (u, u + j), j = 1..k/2
        if rng.random() >= p:
            continue
        free = n - 1 - len(adjacent[u])
        if not free:
            continue
        # the draw's rank among the free ids, ascending, becomes the id: each
        # excluded id at or below it pushes it up by one
        w = rng.randrange(free)
        for x in sorted(adjacent[u] | {u}):
            if x > w:
                break
            w += 1
        adjacent[u].add(w)
        adjacent[w].add(u)
    return _from_sets(adjacent)


def generate(params: RandomModelParams) -> Graph:
    return _gen_ba(params) if params.model == BA else _gen_nws(params)


@dataclass(frozen=True, slots=True)
class GadgetMap:
    """Id layout of the three-layer gadget built over an n-node graph.

    Original node v becomes the path v -> n+v -> 2n+v: layer one (ids 0..n-1)
    is a clique, layer two (n..2n-1) copies the input graph, layer three
    (2n..3n-1) is pendant.
    """

    n_original: int

    def triple(self, v: int) -> tuple[int, int, int]:
        n = self.n_original
        return (v, n + v, 2 * n + v)

    def copy_layer(self) -> range:
        return range(self.n_original, 2 * self.n_original)

    def copy_node(self, v: int) -> int:
        return self.n_original + v

    def project(self, nodes: NodeSet | Iterable[int]) -> NodeSet:
        """Original nodes whose triple intersects ``nodes``."""
        return NodeSet(x % self.n_original for x in nodes)


def reduction_gadget(g: Graph) -> tuple[Graph, GadgetMap]:
    """Three-layer gadget whose minimum broker size equals the input's domination number.

    Requires a connected input of radius at least 2.  The output graph has
    3n nodes and radius 3: every clique-layer node reaches everything within
    3 hops, while pendant nodes sit 4+ hops apart.  Each layer's neighbor
    sets are written directly: clique node v has the other clique nodes and
    n+v, copy node n+v has v, 2n+v and the copies of v's neighbors, and
    pendant node 2n+v has n+v.  They become the graph through
    ``graph._from_sets``; no edge list is built.
    """
    profile = metric_profile(g)  # also rejects disconnected input
    if profile.radius < 2:
        raise GraphError(f"gadget needs radius >= 2, got radius {profile.radius}")
    n = g.n
    adjacent = [set(range(n)) - {v} | {n + v} for v in range(n)]
    adjacent += [{v, 2 * n + v} | {n + w for w in g.adj[v]} for v in range(n)]
    adjacent += [{n + v} for v in range(n)]
    return _from_sets(adjacent), GadgetMap(n)
